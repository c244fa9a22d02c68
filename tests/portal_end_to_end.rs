//! End-to-end portal tests: the SensorMap stack (parser → planner →
//! COLR-Tree → simulated network) behaving like Section III promises.

use colr_repro::colr::{Mode, ProbeService, SensorMeta, TimeDelta};
use colr_repro::engine::{PortalConfig, PortalError, PortalResult, QueryRequest, ShardedPortal};
use colr_repro::sensors::{RandomWalkField, SimNetwork};
use colr_repro::workload::ScenarioConfig;

/// Lowers `sql` through the one SQL path and executes it.
fn run<P: ProbeService>(svc: &ShardedPortal<P>, sql: &str) -> Result<PortalResult, PortalError> {
    Ok(svc.execute(&QueryRequest::from_sql(sql)?)?.result)
}

fn build_portal(mode: Mode, seed: u64) -> ShardedPortal<SimNetwork<RandomWalkField>> {
    let mut cfg = ScenarioConfig::live_local_small();
    cfg.sensor_count = 5_000;
    cfg.queries.count = 0;
    cfg.seed = seed;
    let sc = cfg.build();
    let network = |_: usize, sensors: &[SensorMeta]| {
        let field = RandomWalkField::new(sensors.len(), 0.0, 60.0, 2.0, seed);
        SimNetwork::new(sensors.to_vec(), field, seed)
    };
    let config = PortalConfig {
        mode,
        ..Default::default()
    };
    ShardedPortal::new(sc.sensors, network, 1, config)
}

#[test]
fn paper_example_query_round_trips() {
    let portal = build_portal(Mode::Colr, 1);
    portal.clock().advance(TimeDelta::from_secs(2));
    let res = run(
        &portal,
        "SELECT count(*) FROM sensor S \
             WHERE S.location WITHIN POLYGON((0 0, 2000 0, 2000 1500, 0 1500)) \
             AND S.time BETWEEN now()-10 AND now() mins \
             CLUSTER 100 SAMPLESIZE 30",
    )
    .expect("the Section III-B query parses and runs");
    assert!(res.value.is_some());
    // SAMPLESIZE bounds collection: nowhere near the thousands in region.
    assert!(
        res.stats.sensors_probed <= 120,
        "probed {} for SAMPLESIZE 30",
        res.stats.sensors_probed
    );
}

#[test]
fn sampled_count_approximates_full_count() {
    // A sampled COLR query over a region should produce a result set whose
    // size is near the SAMPLESIZE, while the RTree baseline returns all.
    let sampled = build_portal(Mode::Colr, 2);
    let exact = build_portal(Mode::RTree, 2);
    let sql = "SELECT count(*) FROM sensor \
               WHERE location WITHIN RECT(0, 0, 2000, 1500) SAMPLESIZE 50";
    sampled.clock().advance(TimeDelta::from_secs(2));
    exact.clock().advance(TimeDelta::from_secs(2));
    let s = run(&sampled, sql).unwrap();
    let e = run(&exact, sql).unwrap(); // RTree ignores sampling
    let full = e.value.unwrap();
    let approx = s.value.unwrap();
    assert!(full > 100.0, "region too sparse for the test: {full}");
    assert!(
        approx <= full,
        "sample ({approx}) cannot exceed population ({full})"
    );
    assert!(approx >= 20.0, "sample too small: {approx}");
}

#[test]
fn repeated_queries_warm_the_cache() {
    let portal = build_portal(Mode::Colr, 3);
    let sql = "SELECT avg(value) FROM sensor \
               WHERE location WITHIN RECT(500, 500, 1500, 1200) \
               AND time BETWEEN now()-8 AND now() mins SAMPLESIZE 60";
    portal.clock().advance(TimeDelta::from_secs(2));
    let cold = run(&portal, sql).unwrap();
    portal.clock().advance(TimeDelta::from_secs(10));
    let warm = run(&portal, sql).unwrap();
    assert!(
        warm.stats.sensors_probed < cold.stats.sensors_probed,
        "warm {} !< cold {}",
        warm.stats.sensors_probed,
        cold.stats.sensors_probed
    );
}

#[test]
fn staleness_expires_portal_cache() {
    let portal = build_portal(Mode::Colr, 4);
    let sql = "SELECT count(*) FROM sensor \
               WHERE location WITHIN RECT(500, 500, 1500, 1200) \
               AND time BETWEEN now()-1 AND now() mins SAMPLESIZE 60";
    portal.clock().advance(TimeDelta::from_secs(2));
    let first = run(&portal, sql).unwrap();
    // 5 minutes later, the 1-minute staleness bound rejects everything.
    portal.clock().advance(TimeDelta::from_mins(5));
    let later = run(&portal, sql).unwrap();
    assert!(later.stats.readings_from_cache == 0);
    assert!(later.stats.sensors_probed > 0);
    assert!(first.stats.sensors_probed > 0);
}

#[test]
fn group_counts_sum_to_combined_value() {
    let portal = build_portal(Mode::HierCache, 5);
    portal.clock().advance(TimeDelta::from_secs(2));
    let res = run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0, 0, 1000, 1000)",
    )
    .unwrap();
    let group_total: u64 = res.groups.iter().map(|g| g.count).sum();
    assert_eq!(Some(group_total as f64), res.value);
}

#[test]
fn probe_counters_visible_through_portal() {
    let portal = build_portal(Mode::Colr, 6);
    portal.clock().advance(TimeDelta::from_secs(2));
    run(
        &portal,
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,2000,1500) SAMPLESIZE 40",
    )
    .unwrap();
    assert!(portal.shard(0).probe().total_probes() > 0);
}
