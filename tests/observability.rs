//! End-to-end telemetry: drive portal scenarios and check that the global
//! registry, the tracer, and the exposition formats observe them.
//!
//! The registry and tracer are process-wide and shared with every other test
//! in this binary, so assertions are written as snapshot *deltas* (`diff`)
//! or `>=` lower bounds — never exact global values.

use colr_repro::colr::{Mode, ProbeService, SensorMeta, TimeDelta};
use colr_repro::engine::{
    AdmissionConfig, PortalConfig, PortalError, PortalResult, QueryRequest, ShardedPortal,
};
use colr_repro::geo::Point;
use colr_repro::sensors::{ConstantField, SimNetwork};
use colr_repro::telemetry::{global, tracer, SpanKind};

/// Lowers `sql` through the one SQL path and executes it.
fn run<P: ProbeService>(svc: &ShardedPortal<P>, sql: &str) -> Result<PortalResult, PortalError> {
    Ok(svc.execute(&QueryRequest::from_sql(sql)?)?.result)
}

/// The 16×16 unit grid most scenarios here run over.
fn grid_sensors() -> Vec<SensorMeta> {
    (0..256)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % 16) as f64, (i / 16) as f64),
                TimeDelta::from_mins(5),
                1.0,
            )
        })
        .collect()
}

fn portal(mode: Mode) -> ShardedPortal<SimNetwork<ConstantField>> {
    let net = |_: usize, sensors: &[SensorMeta]| {
        let field = ConstantField {
            base: 1.0,
            step: 0.5,
        };
        SimNetwork::new(sensors.to_vec(), field, 7)
    };
    let config = PortalConfig {
        mode,
        ..Default::default()
    };
    ShardedPortal::new(grid_sensors(), net, 1, config)
}

/// Held by every test that drains the process-wide tracer: a drain takes all
/// buffered spans, so two draining tests must not interleave.
static TRACER_DRAIN: std::sync::Mutex<()> = std::sync::Mutex::new(());

const VIEWPORT: &str = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5)";

#[test]
fn queries_move_the_global_counters() {
    let before = global().snapshot();
    let p = portal(Mode::HierCache);
    p.clock().advance(TimeDelta::from_secs(1));
    run(&p, VIEWPORT).expect("cold");
    p.clock().advance(TimeDelta::from_secs(1));
    run(&p, VIEWPORT).expect("warm");
    let delta = global().snapshot().diff(&before);

    assert!(delta.counters["colr_portal_queries_total"] >= 2);
    assert!(delta.counters["colr_query_total{mode=\"hier_cache\"}"] >= 2);
    assert!(delta.counters["colr_build_trees_total"] >= 1);
    // The cold query probed the 64-sensor viewport and wrote it back.
    assert!(delta.counters["colr_probe_issued_total"] >= 64);
    assert!(delta.counters["colr_net_probes_total"] >= 64);
    assert!(delta.counters["colr_tree_cache_inserts_total"] >= 64);
    // The warm query was served by some node's slot cache.
    let hits: u64 = delta
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("colr_tree_cache_hits_total"))
        .map(|(_, v)| v)
        .sum();
    assert!(hits >= 1, "warm query produced no aggregate cache hits");
    // Latency histogram saw both queries.
    assert!(delta.histograms["colr_query_latency_us"].count >= 2);
}

#[test]
fn batch_execution_counts_batches_and_contention_paths() {
    let before = global().snapshot();
    let p = portal(Mode::Colr);
    p.clock().advance(TimeDelta::from_secs(1));
    let sqls = [VIEWPORT; 6];
    let batch = p.query_many_sql(&sqls, 3).expect("batch");
    assert_eq!(batch.results.len(), 6);
    let delta = global().snapshot().diff(&before);

    assert!(delta.counters["colr_portal_batches_total"] >= 1);
    assert!(delta.counters["colr_portal_queries_total"] >= 6);
    assert!(delta.histograms["colr_portal_batch_size"].count >= 1);
    assert!(delta.histograms["colr_portal_batch_size"].sum >= 6);
    // Probe-side histograms observed the batch's waves.
    assert!(delta.histograms["colr_probe_batch_size"].count >= 1);
    assert!(delta.histograms["colr_probe_wave_us"].count >= 1);
}

#[test]
fn tracer_records_the_query_lifecycle() {
    // Drain whatever other tests left behind, then run one cold/warm pair
    // and a batch; the drained events must cover the full lifecycle. The
    // three run at simulated instants no other test here reaches, so a span
    // stamped with one of them is this test's.
    let _drain = TRACER_DRAIN.lock().unwrap_or_else(|e| e.into_inner());
    let p = portal(Mode::HierCache);
    tracer().drain();
    p.clock().advance(TimeDelta::from_secs(1_000_000));
    let cold_at = p.clock().now().millis() * 1_000;
    run(&p, VIEWPORT).expect("cold");
    p.clock().advance(TimeDelta::from_secs(1));
    let warm_at = p.clock().now().millis() * 1_000;
    run(&p, VIEWPORT).expect("warm");
    p.clock().advance(TimeDelta::from_secs(1));
    let batch_at = p.clock().now().millis() * 1_000;
    p.query_many_sql(&[VIEWPORT], 2).expect("batch");
    let events = tracer().drain();

    // One clock: every span of a query carries that query's instant.
    let stamped = |k: SpanKind, at: u64| events.iter().any(|e| e.kind == k && e.at_us == at);
    for (query, at) in [("cold", cold_at), ("warm", warm_at), ("batch", batch_at)] {
        assert!(stamped(SpanKind::Traverse, at), "{query} traverse span");
    }
    assert!(
        stamped(SpanKind::ProbeWave, cold_at),
        "cold probe-wave span"
    );
    assert!(
        stamped(SpanKind::WriteBack, cold_at),
        "cold write-back span"
    );
    assert!(stamped(SpanKind::CacheHit, warm_at), "warm cache-hit span");

    let count = |k: SpanKind| events.iter().filter(|e| e.kind == k).count();
    assert!(count(SpanKind::Parse) >= 3, "parse spans");
    assert!(count(SpanKind::Plan) >= 3, "plan spans");
    assert!(count(SpanKind::Traverse) >= 3, "traverse spans");
    assert!(count(SpanKind::CacheHit) >= 1, "cache-hit spans");
    assert!(count(SpanKind::ProbeWave) >= 1, "probe-wave spans");
    assert!(count(SpanKind::WriteBack) >= 1, "write-back spans");
    assert!(count(SpanKind::Batch) >= 1, "batch spans");
    // Global sequence order survives the per-thread rings.
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    // A query's probes go out together: the cold query's whole 64-sensor
    // viewport is one span, not one per leaf.
    assert!(
        events
            .iter()
            .any(|e| e.kind == SpanKind::ProbeWave && e.detail == 64),
        "the cold viewport was not collected as one wave"
    );
    // Probe-wave durations are fed by the cost model, so they are exact: a
    // wave of n <= 128 probes costs 25ms RTT + n * 0.05ms overhead.
    for e in events.iter().filter(|e| e.kind == SpanKind::ProbeWave) {
        assert!(
            e.detail > 0 && e.detail <= 128,
            "unexpected wave size {}",
            e.detail
        );
        assert_eq!(e.dur_us, 25_000 + e.detail * 50, "wave of {}", e.detail);
    }
}

#[test]
fn service_front_door_counters_cover_admission_and_reindex() {
    use colr_repro::colr::probe::AlwaysAvailable;

    let sensors: Vec<SensorMeta> = (0..64)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % 8) as f64, (i / 8) as f64),
                TimeDelta::from_mins(5),
                1.0,
            )
        })
        .collect();
    let service = |admission: AdmissionConfig| {
        let config = PortalConfig {
            admission,
            ..Default::default()
        };
        let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable { expiry_ms: 300_000 };
        ShardedPortal::new(sensors.clone(), probe, 1, config)
    };
    let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,3.5,3.5)";

    // Direct admission: plenty of execution slots, nobody queues or sheds.
    let before = global().snapshot();
    let svc = service(AdmissionConfig::default());
    svc.clock().advance(TimeDelta::from_secs(1));
    run(&svc, sql).expect("direct");
    let delta = global().snapshot().diff(&before);
    assert!(delta.counters["colr_service_queries_total"] >= 1);
    assert_eq!(delta.counters["colr_service_queued_total"], 0);
    assert_eq!(delta.counters["colr_service_shed_total"], 0);

    // Queued admission: zero execution slots force every arrival through
    // the wait queue, which pins the admission state deterministically.
    let before = global().snapshot();
    let svc = service(AdmissionConfig {
        max_in_flight: 0,
        queue_capacity: 8,
    });
    svc.clock().advance(TimeDelta::from_secs(1));
    for _ in 0..3 {
        run(&svc, sql).expect("queued but admitted");
    }
    let delta = global().snapshot().diff(&before);
    assert!(delta.counters["colr_service_queued_total"] >= 3);
    assert_eq!(delta.counters["colr_service_shed_total"], 0);
    assert!(delta.histograms["colr_service_queue_depth"].count >= 3);

    // Shed: zero slots *and* zero queue capacity rejects every arrival.
    let before = global().snapshot();
    let svc = service(AdmissionConfig {
        max_in_flight: 0,
        queue_capacity: 0,
    });
    svc.clock().advance(TimeDelta::from_secs(1));
    assert!(run(&svc, sql).is_err(), "zero-capacity service must shed");
    let delta = global().snapshot().diff(&before);
    assert!(delta.counters["colr_service_shed_total"] >= 1);
    assert_eq!(delta.counters["colr_service_queued_total"], 0);

    // Registration + online reindex move their counters and the generation
    // gauge; the warm cache carries readings into the new generation.
    let svc = service(AdmissionConfig::default());
    svc.clock().advance(TimeDelta::from_secs(1));
    run(&svc, sql).expect("warm the caches");
    let before = global().snapshot();
    // Arrivals enough that the merge absorbs, and so rewrites, the warmed
    // 64-sensor level (it is smaller than the default ratio 4 × 17).
    for i in 0..17 {
        svc.register_sensor(
            Point::new(20.0 + i as f64, 2.5),
            TimeDelta::from_mins(5),
            1.0,
            0,
        );
    }
    let population = svc.reindex();
    assert_eq!(population, 64 + 17);
    let delta = global().snapshot().diff(&before);
    assert!(delta.counters["colr_service_registrations_total"] >= 1);
    assert!(delta.counters["colr_service_reindexes_total"] >= 1);
    assert!(
        delta.counters["colr_service_carryover_readings_total"] >= 1,
        "warm readings must survive the swap"
    );
    // The gauge is process-wide and *set*, not added to: a service built by a
    // test running beside this one writes its own generation 0 over it. The
    // number is read from the shard; the gauge only has to exist.
    assert!(svc.shard(0).generation() >= 1);
    assert!(delta.gauges.contains_key("colr_service_generation"));
}

#[test]
fn sql_lowering_counts_parse_failures_and_spans_once_per_routed_query() {
    // A malformed statement through the one lowering moves the counter.
    let before = global().snapshot();
    assert!(matches!(
        QueryRequest::from_sql("SELECT nonsense"),
        Err(PortalError::Parse(_))
    ));
    let delta = global().snapshot().diff(&before);
    assert!(delta.counters["colr_portal_parse_errors_total"] >= 1);

    // A routed query that fans out to both shards records one parse span at
    // the router, not one per shard. Other tests record into the same tracer,
    // so the span is told apart by its detail word: this statement's length,
    // which no other statement in this binary shares.
    let _drain = TRACER_DRAIN.lock().unwrap_or_else(|e| e.into_inner());
    let router = ShardedPortal::new(
        grid_sensors(),
        |_, _| colr_repro::colr::probe::AlwaysAvailable { expiry_ms: 300_000 },
        2,
        PortalConfig::default(),
    );
    router.clock().advance(TimeDelta::from_secs(1));
    let sql = "SELECT count(*) FROM sensor  WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
               SAMPLESIZE 40";
    let resp = router
        .execute(&QueryRequest::from_sql(sql).expect("parses"))
        .expect("routed");
    assert!(resp.shards.len() >= 2, "fan-out {}", resp.shards.len());
    let spans = tracer()
        .drain()
        .into_iter()
        .filter(|e| e.kind == SpanKind::Parse && e.detail == sql.len() as u64)
        .count();
    assert_eq!(spans, 1, "one routed query, one parse span");
}

#[test]
fn exposition_formats_cover_live_metrics() {
    let p = portal(Mode::Colr);
    p.clock().advance(TimeDelta::from_secs(1));
    run(&p, VIEWPORT).expect("query");
    let snap = global().snapshot();

    let prom = snap.to_prometheus();
    for family in [
        "# TYPE colr_portal_queries_total counter",
        "# TYPE colr_tree_cached_readings gauge",
        "# TYPE colr_query_latency_us histogram",
        "colr_query_latency_us_bucket{le=\"+Inf\"}",
    ] {
        assert!(prom.contains(family), "missing {family:?} in:\n{prom}");
    }

    let json = snap.to_json();
    assert!(json.contains("\"colr_portal_queries_total\""));
    assert!(json.contains("\"p99\""));
}
