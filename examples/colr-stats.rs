//! colr-stats: drive a portal scenario, then dump everything the telemetry
//! layer observed — Prometheus exposition, the query-lifecycle trace, and
//! the tree's structural level statistics.
//!
//! ```sh
//! cargo run --example colr-stats
//! ```
//!
//! Used by `ci.sh` as the observability smoke test: the run must emit the
//! metric families the instrumentation promises.

use std::sync::Arc;

use colr_repro::colr::{inspect, Mode, SensorMeta, TimeDelta};
use colr_repro::engine::{PortalConfig, QueryRequest, ShardedPortal};
use colr_repro::geo::Point;
use colr_repro::sensors::{RandomWalkField, SimNetwork};
use colr_repro::telemetry::{global, tracer, SloConfig, SloWatchdog};

fn main() {
    // A 32x32 grid of 5-minute sensors at 90% availability over a drifting
    // value field — small enough to run in well under a second, busy enough
    // to touch every instrumented path.
    let sensors: Vec<SensorMeta> = (0..1024)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % 32) as f64, (i / 32) as f64),
                TimeDelta::from_mins(5),
                0.9,
            )
        })
        .collect();
    let net = |_: usize, sensors: &[SensorMeta]| {
        let field = RandomWalkField::new(sensors.len(), 20.0, 60.0, 1.5, 9);
        SimNetwork::new(sensors.to_vec(), field, 7)
    };
    // Hierarchical-cache mode exercises the per-level aggregate hit/miss
    // counters on the warm pass; the probe-side metrics fire on the cold one.
    let config = PortalConfig {
        mode: Mode::HierCache,
        ..Default::default()
    };
    let portal = ShardedPortal::new(sensors, net, 1, config);

    // An SLO watchdog rides along for the whole scenario; the objectives
    // are generous, so this run reports a clean status rather than breaches.
    let watchdog = Arc::new(SloWatchdog::new(SloConfig {
        window: 64,
        min_samples: 8,
        p99_latency_us: Some(30_000_000),
        min_fulfillment: Some(0.5),
        keep_flight_records: 4,
        cooldown: 16,
    }));
    portal.shard(0).attach_watchdog(watchdog.clone());

    // Cold viewport queries, then the same viewports warm, then a batch.
    portal.clock().advance(TimeDelta::from_secs(1));
    let sqls: Vec<String> = (0..8)
        .map(|i| {
            let x0 = (i % 4) as f64 * 8.0 - 0.5;
            let y0 = (i / 4) as f64 * 16.0 - 0.5;
            format!(
                "SELECT avg(value) FROM sensor WHERE location WITHIN \
                 RECT({x0}, {y0}, {}, {}) SAMPLESIZE 40",
                x0 + 8.0,
                y0 + 16.0
            )
        })
        .collect();
    let requests: Vec<QueryRequest> = sqls
        .iter()
        .map(|sql| QueryRequest::from_sql(sql).expect("valid dialect query"))
        .collect();
    for req in &requests {
        portal.execute(req).expect("cold query");
    }
    portal.clock().advance(TimeDelta::from_secs(5));
    for req in &requests {
        portal.execute(req).expect("warm query");
    }
    portal.clock().advance(TimeDelta::from_secs(5));
    let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let batch = portal.query_many_sql(&refs, 4).expect("batch");
    println!(
        "ran {} interactive + {} batched queries; batch applied {} readings\n",
        2 * sqls.len(),
        batch.results.len(),
        batch.readings_applied
    );

    // 1. The metrics registry, in Prometheus text exposition format.
    println!("== Prometheus exposition ==");
    print!("{}", global().snapshot().to_prometheus());

    // 2. The query-lifecycle trace (bounded rings; batch workers get their
    //    own rings, merged here in global record order).
    let events = tracer().drain();
    println!("\n== Trace ({} events, last 12) ==", events.len());
    println!(
        "{:>10} {:>12} {:>10} {:>8}  kind",
        "seq", "at_us", "dur_us", "detail"
    );
    for e in events.iter().rev().take(12).rev() {
        println!(
            "{:>10} {:>12} {:>10} {:>8}  {}",
            e.seq,
            e.at_us,
            e.dur_us,
            e.detail,
            e.kind.name()
        );
    }

    // 3. One query under `EXPLAIN ANALYZE`: the per-query flight recorder's
    //    stage tree, with the parity assertion against `QueryStats`.
    println!("\n== EXPLAIN ANALYZE ==");
    let analyze = QueryRequest::from_sql(&format!("EXPLAIN ANALYZE {}", sqls[0]))
        .expect("valid dialect statement");
    let report = portal.execute(&analyze).expect("explain analyze");
    println!("{}", report.explain.expect("Analyze responses carry text"));

    // 4. The watchdog's view of the whole run.
    println!("\n== SLO watchdog ==");
    println!("{}", watchdog.status());

    // 5. Structural level statistics of the index (Section VII-B).
    println!("\n== Tree level stats ==");
    println!(
        "{:>5} {:>6} {:>10} {:>10} {:>11} {:>9} {:>10}",
        "level", "nodes", "min_wt", "max_wt", "mean_wt", "wt_cv", "diameter"
    );
    for s in inspect::level_stats(portal.shard(0).snapshot().tree()) {
        println!(
            "{:>5} {:>6} {:>10} {:>10} {:>11.1} {:>9.3} {:>10.2}",
            s.level,
            s.nodes,
            s.min_weight,
            s.max_weight,
            s.mean_weight,
            s.weight_cv,
            s.mean_diameter
        );
    }
}
