//! The per-query flight recorder and the SLO watchdog, end to end.
//!
//! The recorder's contract has three legs:
//!
//! (a) **Parity by construction** — the stage tree accumulates at exactly
//!     the sites that mutate `QueryStats`, so its totals are bit-identical
//!     to the stats in every execution mode, cold and warm, with retries
//!     and failures in play.
//! (b) **Zero observable effect** — arming the recorder consumes no RNG and
//!     changes no float op; a recorded run answers byte-for-byte like an
//!     unrecorded one.
//! (c) **Surfacing** — `EXPLAIN ANALYZE` returns the stage tree with the
//!     parity assertion, and a watchdog breach under a regional outage
//!     snapshots flight records into its JSON report.

use std::sync::Arc;

use colr_repro::colr::probe::{AlwaysAvailable, FailEveryKth};
use colr_repro::colr::{
    flight, ColrConfig, ColrTree, Mode, ProbeService, Query, Reading, ResilientConfig,
    ResilientProber, SensorId, SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::engine::{ExplainLevel, PortalConfig, QueryRequest, ShardedPortal};
use colr_repro::geo::{Point, Rect};
use colr_repro::telemetry::{SloConfig, SloWatchdog};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXPIRY_MS: u64 = 600_000;
const SIDE: usize = 16; // 256 sensors

fn fleet() -> Vec<SensorMeta> {
    (0..SIDE * SIDE)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                0.9,
            )
        })
        .collect()
}

fn always() -> AlwaysAvailable {
    AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    }
}

fn viewport(sample: Option<f64>) -> Query {
    let q = Query::range(
        Rect::from_coords(-0.5, -0.5, SIDE as f64 - 4.5, SIDE as f64 - 4.5),
        TimeDelta::from_mins(5),
    );
    match sample {
        Some(r) => q.with_sample_size(r),
        None => q,
    }
}

#[test]
fn stage_totals_match_query_stats_across_modes() {
    // Retrying prober over a deterministic failure pattern: waves, retries,
    // backoff and failures all flow through the record.
    for (mode, sample) in [
        (Mode::RTree, None),
        (Mode::HierCache, None),
        (Mode::Colr, Some(60.0)),
    ] {
        let tree = ColrTree::build(fleet(), ColrConfig::default(), 11);
        let probe =
            ResilientProber::new(FailEveryKth::new(EXPIRY_MS, 3), ResilientConfig::default());
        let mut rng = StdRng::seed_from_u64(99);
        let q = viewport(sample);
        for round in 0..3u64 {
            // Rounds 0/1 share an instant (1 is warm); round 2 expires
            // the caches so probing resumes.
            let now = Timestamp(1_000 + (round / 2) * EXPIRY_MS);
            flight::begin(round);
            let out = tree.execute(&q, mode, &probe, now, &mut rng);
            let mut rec = flight::take().expect("recorder was armed");
            rec.finalize(&out.stats, 0.0);
            rec.parity().unwrap_or_else(|e| {
                panic!("{mode:?} round {round}: {e}");
            });
            assert!(
                rec.levels.iter().map(|l| l.nodes).sum::<u64>() > 0,
                "{mode:?}: no traversal recorded"
            );
            // Select → collect → complete: a query's probes are one
            // dispatch, so the record holds one wave stage or none.
            assert_eq!(
                rec.waves.len(),
                usize::from(out.stats.sensors_probed > 0),
                "{mode:?} round {round}: one WaveStage per probing query"
            );
            assert_eq!(
                out.stats.probe_waves,
                out.stats.sensors_probed.div_ceil(128) + out.stats.retry_waves,
                "{mode:?} round {round}: waves counted vs modelled"
            );
            if round == 2 && out.stats.probes_retried > 0 {
                assert!(
                    !rec.retry_rounds.is_empty(),
                    "{mode:?}: retries happened but no retry rounds recorded"
                );
            }
            flight::recycle(rec);
        }
    }
}

#[test]
fn recording_never_changes_answers() {
    // Two identical portals, same seed, same queries; one records every
    // query, the other never does. Answers must match byte for byte.
    let build = |every: u64| {
        let config = PortalConfig {
            flight_record_every: every,
            ..Default::default()
        };
        ShardedPortal::new(fleet(), |_, _| always(), 1, config)
    };
    let plain = build(0);
    let recorded = build(1);
    let sql = "SELECT avg(value) FROM sensor WHERE location WITHIN \
               RECT(-0.5,-0.5,11.5,11.5) SAMPLESIZE 40";
    let req = QueryRequest::from_sql(sql).expect("parses");
    for round in 0..4 {
        let a = plain.execute(&req).expect("plain query").result;
        let b = recorded.execute(&req).expect("recorded query").result;
        assert_eq!(
            format!("{:?}", (a.value, &a.groups, &a.stats, a.latency_ms)),
            format!("{:?}", (b.value, &b.groups, &b.stats, b.latency_ms)),
            "round {round}: recording changed the answer"
        );
    }
}

#[test]
fn explain_analyze_executes_and_asserts_parity() {
    let portal = ShardedPortal::new(fleet(), |_, _| always(), 1, PortalConfig::default());
    portal.clock().advance(TimeDelta::from_secs(1));
    let sql = "EXPLAIN ANALYZE SELECT count(*) FROM sensor WHERE location \
               WITHIN RECT(-0.5,-0.5,11.5,11.5) SAMPLESIZE 50";
    // Cold, then warm: the second run must show cache activity in the
    // stage tree and still hold parity.
    let analyze = |req: &QueryRequest| {
        let resp = portal.execute(req).expect("explain analyze");
        resp.explain.expect("Analyze responses carry explain text")
    };
    let req = QueryRequest::from_sql(sql).expect("parses");
    let cold = analyze(&req);
    let warm = analyze(&req);
    for (tag, report) in [("cold", &cold), ("warm", &warm)] {
        for needle in [
            "flight record",
            "├─ plan",
            "├─ traverse",
            "├─ probe",
            "├─ write-back",
            "degradation:",
            "parity: stage totals == QueryStats (bit-exact)",
        ] {
            assert!(
                report.contains(needle),
                "{tag}: missing `{needle}` in:\n{report}"
            );
        }
        assert!(
            !report.contains("parity: FAILED"),
            "{tag}: parity failure:\n{report}"
        );
    }
    assert!(
        cold.contains("wave"),
        "cold run issued no probe wave:\n{cold}"
    );
    // A bare SELECT raised to the Analyze level is the same request.
    let bare = analyze(
        &QueryRequest::from_sql(
            "SELECT count(*) FROM sensor WHERE location WITHIN \
             RECT(-0.5,-0.5,5.5,5.5) SAMPLESIZE 10",
        )
        .expect("parses")
        .with_explain(ExplainLevel::Analyze),
    );
    assert!(bare.contains("parity: stage totals == QueryStats (bit-exact)"));
    // EXPLAIN ANALYZE must not leak an armed recorder onto the thread.
    assert!(
        !flight::is_active(),
        "recorder leaked after EXPLAIN ANALYZE"
    );
}

/// `(level, cache_hits)` of every traversed level in an `EXPLAIN ANALYZE`
/// report, paired with the terminal level `T` of the plan it sits under (a
/// routed report holds one plan + stage tree per shard).
fn cache_hits_by_level(report: &str) -> Vec<(u16, u16, u64)> {
    let mut terminal = None;
    let mut rows = Vec::new();
    for line in report.lines() {
        if let Some(rest) = line.strip_prefix("terminal level T=") {
            let t = rest.split(' ').next().expect("T value");
            terminal = Some(t.parse::<u16>().expect("T is a level"));
        }
        if let Some(rest) = line.trim_start_matches('│').trim().strip_prefix("level ") {
            let mut words = rest.split_whitespace();
            let level = words.next().expect("level number").parse().expect("level");
            let hits = words
                .find_map(|w| w.strip_prefix("cache_hits="))
                .expect("cache_hits column")
                .parse()
                .expect("hit count");
            rows.push((terminal.expect("plan precedes its stage tree"), level, hits));
        }
    }
    rows
}

#[test]
fn warm_wide_unclustered_analyze_holds_parity_and_hits_above_the_leaf_level() {
    const WIDE: usize = 32; // 1,024 sensors: internal nodes between root and leaves
    let sensors: Vec<SensorMeta> = (0..WIDE * WIDE)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % WIDE) as f64, (i / WIDE) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
        })
        .collect();
    for shards in [1usize, 4] {
        let portal = ShardedPortal::new(
            sensors.clone(),
            |_, _| always(),
            shards,
            PortalConfig::default(),
        );
        portal.clock().advance(TimeDelta::from_secs(1));
        // An over-asking count fills every cache, then stays exact warm.
        let fill = QueryRequest::from_sql(
            "SELECT count(*) FROM sensor WHERE location WITHIN \
             RECT(-1,-1,32,32) SAMPLESIZE 100000",
        )
        .expect("parses");
        for pass in ["cold", "warm"] {
            let r = portal.execute(&fill).expect("fill").result;
            assert_eq!(
                r.value,
                Some(1024.0),
                "{shards} shard(s): {pass} fill count"
            );
        }
        let req = QueryRequest::from_sql(
            "EXPLAIN ANALYZE SELECT count(*) FROM sensor WHERE location WITHIN \
             RECT(-0.5,-0.5,28.5,30.5) SAMPLESIZE 64",
        )
        .expect("parses");
        let resp = portal.execute(&req).expect("explain analyze");
        assert_eq!(resp.result.stats.sensors_probed, 0, "warm request probed");
        let report = resp.explain.expect("Analyze responses carry explain text");
        assert!(
            !report.contains("parity: FAILED"),
            "{shards} shard(s): parity failure:\n{report}"
        );
        assert!(
            report.contains("parity: stage totals == QueryStats (bit-exact)"),
            "{shards} shard(s): no parity line:\n{report}"
        );
        assert!(
            report.contains("shallowest contained node whose cached aggregate covers it"),
            "{shards} shard(s): the plan does not say where the walk may end:\n{report}"
        );
        let rows = cache_hits_by_level(&report);
        assert!(
            rows.iter().any(|&(t, level, hits)| level < t && hits > 0),
            "{shards} shard(s): no cache hit above the leaf level in {rows:?}:\n{report}"
        );
    }
}

/// Sensors east of `cutoff_x` are dark; everyone else answers like
/// [`AlwaysAvailable`].
struct RegionalOutage {
    locations: Vec<Point>,
    cutoff_x: f64,
    expiry_ms: u64,
}

impl ProbeService for RegionalOutage {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        ids.iter()
            .map(|&id| {
                let loc = self.locations[id.0 as usize];
                if loc.x >= self.cutoff_x {
                    return None;
                }
                Some(Reading {
                    sensor: id,
                    value: id.0 as f64,
                    timestamp: now,
                    expires_at: now + TimeDelta::from_millis(self.expiry_ms),
                })
            })
            .collect()
    }
}

#[test]
fn regional_outage_breaches_the_fulfillment_objective_with_flight_records() {
    let outage = |_: usize, sensors: &[SensorMeta]| RegionalOutage {
        locations: sensors.iter().map(|m| m.location).collect(),
        cutoff_x: SIDE as f64 / 2.0, // the east half is dark
        expiry_ms: EXPIRY_MS,
    };
    let config = PortalConfig {
        mode: Mode::Colr,
        flight_record_every: 1,
        ..Default::default()
    };
    let svc = ShardedPortal::new(fleet(), outage, 1, config);
    svc.clock().advance(TimeDelta::from_secs(1));
    let watchdog = Arc::new(SloWatchdog::new(SloConfig {
        window: 32,
        min_samples: 8,
        p99_latency_us: None,
        min_fulfillment: Some(0.9),
        keep_flight_records: 4,
        cooldown: 16,
    }));
    svc.shard(0).attach_watchdog(watchdog.clone());
    let sql = format!(
        "SELECT count(*) FROM sensor WHERE location WITHIN \
         RECT(-0.5,-0.5,{},{}) SAMPLESIZE 120",
        SIDE as f64 - 0.5,
        SIDE as f64 - 0.5
    );
    let req = QueryRequest::from_sql(&sql).expect("parses");
    for _ in 0..16 {
        let r = svc.execute(&req).expect("query under outage").result;
        assert!(r.degradation.requested > 0.0);
    }
    let breaches = watchdog.breaches();
    assert!(
        !breaches.is_empty(),
        "a half-dark region at SAMPLESIZE 120 must breach fulfillment >= 0.9"
    );
    let report = &breaches[0];
    assert!(report.reason.contains("fulfillment"), "{}", report.reason);
    assert!(
        report.flight_records > 0,
        "breach report carries no flight records"
    );
    for needle in [
        "\"breach\"",
        "\"registry_diff\"",
        "\"flight_records\"",
        "\"flight\"",
    ] {
        assert!(
            report.json.contains(needle),
            "missing `{needle}` in breach JSON:\n{}",
            report.json
        );
    }
}
