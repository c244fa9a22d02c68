//! End-to-end telemetry: drive portal scenarios and check that the global
//! registry, the per-query flight record, and the exposition formats observe
//! them.
//!
//! The registry is process-wide and shared with every other test in this
//! binary, so assertions on it are written as snapshot *deltas* (`diff`) or
//! `>=` lower bounds — never exact global values.

use colr_repro::colr::{Mode, ProbeService, SensorMeta, TimeDelta};
use colr_repro::engine::{
    AdmissionConfig, PortalConfig, PortalError, PortalResult, QueryRequest, ShardedPortal,
};
use colr_repro::geo::Point;
use colr_repro::sensors::{ConstantField, SimNetwork};
use colr_repro::telemetry::global;

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

const VIEWPORT: &str =
    "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) SAMPLESIZE 500";

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
fn explain_analyze_records_the_cold_viewport_as_one_modelled_dispatch() {
    // A query's probes go out together: the cold query's whole 64-sensor
    // viewport is one dispatch of one wave, not one per leaf. Its duration
    // is fed by the cost model, so it is exact: a wave of n <= 128 probes
    // costs 25ms RTT + n * 0.05ms overhead.
    let p = portal(Mode::HierCache);
    p.clock().advance(TimeDelta::from_secs(1));
    let sql = format!("EXPLAIN ANALYZE {VIEWPORT}");
    let resp = p
        .execute(&QueryRequest::from_sql(&sql).expect("parses"))
        .expect("cold");
    let report = resp.explain.expect("Analyze responses carry explain text");
    assert!(
        report.contains(&format!("├─ parse       sql={}B", sql.len())),
        "{report}"
    );
    assert!(
        report.contains("├─ probe       1 dispatch(es), 64 probed"),
        "{report}"
    );
    let field = |line: &str, key: &str| -> u64 {
        let at = line.find(key).expect(key) + key.len();
        let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).expect(key)
    };
    let waves: Vec<_> = report.lines().filter(|l| l.contains("│    wave")).collect();
    assert_eq!(waves.len(), 1, "{report}");
    let wave = waves[0];
    assert_eq!(field(wave, "probes="), 64, "{wave}");
    assert_eq!(field(wave, "waves="), 1, "{wave}");
    assert_eq!(field(wave, "dur="), 25_000 + 64 * 50, "{wave}");
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
    let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,3.5,3.5) \
               SAMPLESIZE 500";

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

    // Registration + online reindex move their counters and the shard's
    // generation; the warm cache carries readings into the new generation.
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
    // A generation belongs to one shard, so it is read from the shard.
    assert!(svc.shard(0).generation() >= 1);
}

#[test]
fn sql_lowering_counts_parse_failures() {
    // A malformed statement through the one lowering moves the counter.
    let before = global().snapshot();
    assert!(matches!(
        QueryRequest::from_sql("SELECT nonsense"),
        Err(PortalError::Parse(_))
    ));
    let delta = global().snapshot().diff(&before);
    assert!(delta.counters["colr_portal_parse_errors_total"] >= 1);
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
        "# TYPE colr_query_total counter",
        "colr_query_total{mode=\"colr\"}",
        "# TYPE colr_query_latency_us histogram",
        "colr_query_latency_us_bucket{le=\"+Inf\"}",
    ] {
        assert!(prom.contains(family), "missing {family:?} in:\n{prom}");
    }

    let json = snap.to_json();
    assert!(json.contains("\"colr_portal_queries_total\""));
    assert!(json.contains("\"p99\""));
}
