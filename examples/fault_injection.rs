//! Fault-injection smoke: a resilient portal rides out a regional outage
//! plus fleet-wide availability drift, and reports the degradation.
//!
//! Exercises the full fault-tolerance stack — `FaultPlan` on the simulated
//! network, `ResilientProber` retries and circuit breakers, the live
//! availability EWMA feeding Algorithm 1, and the portal's
//! `DegradationReport` — then self-checks the invariants CI cares about.
//! Prints `fault_smoke OK` on success (ci.sh greps for it).
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use colr_repro::colr::{Mode, ResilientConfig, ResilientProber, TimeDelta, Timestamp};
use colr_repro::engine::{PortalConfig, PortalService, QueryRequest};
use colr_repro::sensors::{ConstantField, SimNetwork};
use colr_repro::workload::ScenarioConfig;

fn main() {
    // A small clustered Live-Local-like deployment with one query hotspot.
    let mut cfg = ScenarioConfig::live_local_small();
    cfg.sensor_count = 3_000;
    cfg.queries.count = 0;
    cfg.availability = (0.9, 1.0);
    let scenario = cfg.build();

    // Stress plan: ~25% of the fleet hard-down from t=60s, availability
    // drifting to 0.8, a mid-window latency spike, one flapping sensor.
    let plan = scenario.mixed_faults(0.25, 0.8, Timestamp(60_000), Timestamp(30 * 60 * 1_000));
    let net = SimNetwork::new(
        scenario.sensors.clone(),
        ConstantField {
            base: 1.0,
            step: 0.0,
        },
        17,
    );
    net.set_fault_plan(plan);

    let prober = ResilientProber::new(
        net,
        ResilientConfig {
            max_retries: 1,
            breaker_threshold: 3,
            breaker_cooldown: TimeDelta::from_mins(20),
            ..Default::default()
        },
    );
    let portal = PortalService::new(
        scenario.sensors.clone(),
        prober,
        PortalConfig {
            mode: Mode::Colr,
            ..Default::default()
        },
    );
    let live = portal.enable_resilience_feedback(0.3);

    let extent = scenario.extent;
    let sql = format!(
        "SELECT avg(value) FROM sensor WHERE location WITHIN \
         RECT({}, {}, {}, {}) SAMPLESIZE 150",
        extent.min.x, extent.min.y, extent.max.x, extent.max.y
    );

    let request = QueryRequest::from_sql(&sql).expect("smoke query parses");

    let mut total_retries = 0u64;
    let mut total_skipped = 0u64;
    let mut last_fulfillment = 0.0;
    for i in 0..30 {
        portal.clock().advance(TimeDelta::from_mins(3));
        let res = portal.execute(&request).expect("smoke query runs").result;
        total_retries += res.degradation.probes_retried;
        total_skipped += res.degradation.breaker_skipped;
        last_fulfillment = res.degradation.fulfillment();
        if i % 6 == 0 {
            println!(
                "fault_smoke t={}min sampled={}/{} fulfillment={:.2} \
                 retried={} breaker_skipped={} open_breakers={}",
                portal.now().0 / 60_000,
                res.degradation.sampled,
                res.degradation.requested,
                res.degradation.fulfillment(),
                res.degradation.probes_retried,
                res.degradation.breaker_skipped,
                portal.probe().open_breakers(),
            );
        }
    }
    // Batch path: the same viewport plus four sub-quadrants in one
    // `query_many_sql`, whose BatchResult merges per-query degradation and
    // surfaces the single worst-served query.
    let (cx, cy) = (
        (extent.min.x + extent.max.x) / 2.0,
        (extent.min.y + extent.max.y) / 2.0,
    );
    let quadrants = [
        (extent.min.x, extent.min.y, cx, cy),
        (cx, extent.min.y, extent.max.x, cy),
        (extent.min.x, cy, cx, extent.max.y),
        (cx, cy, extent.max.x, extent.max.y),
    ];
    let mut batch_sql: Vec<String> = quadrants
        .iter()
        .map(|(x0, y0, x1, y1)| {
            format!(
                "SELECT avg(value) FROM sensor WHERE location WITHIN \
                 RECT({x0}, {y0}, {x1}, {y1}) SAMPLESIZE 60"
            )
        })
        .collect();
    batch_sql.push(sql.clone());
    let refs: Vec<&str> = batch_sql.iter().map(String::as_str).collect();
    portal.clock().advance(TimeDelta::from_mins(3));
    let batch = portal.query_many_sql(&refs, 4).expect("batch parses");
    println!(
        "fault_smoke batch: queries={} sampled={}/{} merged_fulfillment={:.2} \
         worst_fulfillment={:.2} retried={} breaker_skipped={}",
        batch.results.len(),
        batch.degradation.sampled,
        batch.degradation.requested,
        batch.degradation.fulfillment(),
        batch.worst_fulfillment(),
        batch.degradation.probes_retried,
        batch.degradation.breaker_skipped,
    );
    // The merged report is a fleet-weighted mean, so the worst single query
    // can never beat it; and under a standing 25% outage the worst viewport
    // must still be served at a usable level.
    assert!(
        batch.worst_fulfillment() <= batch.degradation.fulfillment() + 1e-9,
        "worst query outperformed the merged mean"
    );
    assert!(
        batch.worst_fulfillment() > 0.3,
        "worst batch query collapsed: {}",
        batch.worst_fulfillment()
    );
    assert_eq!(
        batch.degradation.requested,
        batch.results.iter().map(|r| r.degradation.requested).sum(),
        "merged report lost a query's probes"
    );

    let truth = portal.probe().inner().true_availabilities(portal.now());
    let gap = live.mean_abs_gap(&truth);
    println!(
        "fault_smoke final: open_breakers={} retries={} skipped={} ewma_gap={:.3}",
        portal.probe().open_breakers(),
        total_retries,
        total_skipped,
        gap
    );

    // Self-checks: the fault machinery actually engaged and the estimator
    // tracks the injected reality.
    assert!(total_retries > 0, "no retries under injected faults");
    assert!(
        total_skipped > 0,
        "breakers never skipped a dead sensor under a 25% outage"
    );
    assert!(
        portal.probe().open_breakers() > 0,
        "no breakers open despite a standing outage"
    );
    assert!(
        gap < 0.25,
        "live estimator gap {gap} too far from injected truth"
    );
    assert!(
        last_fulfillment > 0.5,
        "fulfillment collapsed: {last_fulfillment}"
    );
    println!("fault_smoke OK");
}
