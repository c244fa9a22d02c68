//! Scatter-gather router correctness.
//!
//! (a) A single-shard [`ShardedPortal`] is bit-identical to its shard alone:
//!     the `router` module's own tests build that shard with no router in
//!     front (nothing outside the crate can), across seeds, predicate shapes
//!     and batch thread counts.
//! (b) A regional outage (one shard closed) degrades the merged answer —
//!     fulfillment drops below 1.0 and the dead shard's outcome carries the
//!     error — instead of failing the query. Only when every overlapping
//!     shard declines does the router return `ShardUnavailable`.
//! (c) There is one way through the index, so a registration nobody asks
//!     about changes no answer: a sensor parked in L0 far outside every
//!     viewport is not a component of any request, and the split and every
//!     component's stream are the ones the fresh index used.

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{Mode, SensorMeta, TimeDelta, Timestamp};
use colr_repro::engine::{PortalConfig, PortalError, PortalResult, QueryRequest, ShardedPortal};
use colr_repro::geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EXPIRY_MS: u64 = 600_000;

/// A clustered population: `per_cluster` sensors jittered around each
/// centre, ids dense in generation order.
fn clustered_sensors(centres: &[(f64, f64)], per_cluster: usize, seed: u64) -> Vec<SensorMeta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sensors = Vec::with_capacity(centres.len() * per_cluster);
    for &(cx, cy) in centres {
        for _ in 0..per_cluster {
            let id = sensors.len() as u32;
            let x = cx + rng.random_range(-8.0..8.0);
            let y = cy + rng.random_range(-8.0..8.0);
            sensors.push(SensorMeta::new(
                id,
                Point::new(x, y),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            ));
        }
    }
    sensors
}

fn config(seed: u64) -> PortalConfig {
    PortalConfig {
        seed,
        mode: Mode::Colr,
        ..Default::default()
    }
}

fn probe() -> AlwaysAvailable {
    AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    }
}

/// Builds a two-shard router over a bimodal population and returns it with
/// the indices of the shard covering the west cluster and the east cluster.
fn bimodal_router() -> (ShardedPortal<AlwaysAvailable>, usize, usize) {
    let sensors = clustered_sensors(&[(10.0, 10.0), (210.0, 10.0)], 150, 2);
    let router = ShardedPortal::new(sensors, |_, _| probe(), 2, config(7));
    router.clock().advance_to(Timestamp(5_000));
    let map = router.shard_map();
    let east = map
        .iter()
        .find(|s| s.centroid.x > 100.0)
        .expect("k-means separates the clusters: one shard sits east")
        .index;
    let west = map
        .iter()
        .find(|s| s.centroid.x < 100.0)
        .expect("k-means separates the clusters: one shard sits west")
        .index;
    assert_ne!(east, west);
    (router, west, east)
}

#[test]
fn dead_shard_degrades_the_answer_instead_of_failing_it() {
    let (router, west, east) = bimodal_router();
    router.shard(east).close();

    // Spans both clusters: the west shard still answers, the dead east
    // shard's share is accounted as shortfall.
    let spanning =
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-5, -5, 225, 25) SAMPLESIZE 64";
    let resp = router
        .execute(&QueryRequest::from_sql(spanning).expect("spanning SQL"))
        .expect("a regional outage must degrade the answer, not fail it");
    assert!(
        resp.result.degradation.worst_fulfillment() < 1.0,
        "dead shard's unmet share must breach merged fulfillment, got {:?}",
        resp.result.degradation
    );
    assert!(
        !resp.result.groups.is_empty(),
        "the live shard's samples must still be served"
    );
    let dead_outcome = resp
        .shards
        .iter()
        .find(|o| o.shard == east)
        .expect("the dead shard must appear in the fan-out outcomes");
    assert!(
        matches!(dead_outcome.error, Some(PortalError::Closed)),
        "dead shard outcome must carry its error, got {:?}",
        dead_outcome.error
    );
    let live_outcome = resp
        .shards
        .iter()
        .find(|o| o.shard == west)
        .expect("the live shard must appear in the fan-out outcomes");
    assert!(live_outcome.error.is_none());

    // A viewport entirely inside the live shard is untouched by the outage.
    let west_only =
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-5, -5, 30, 25) SAMPLESIZE 16";
    let healthy = router
        .execute(&QueryRequest::from_sql(west_only).expect("west-only SQL"))
        .expect("west-only query")
        .result;
    assert!(
        healthy.degradation.worst_fulfillment() >= 1.0,
        "live-shard viewport must stay fully fulfilled, got {:?}",
        healthy.degradation
    );
}

#[test]
fn all_shards_dead_is_shard_unavailable() {
    let (router, west, east) = bimodal_router();
    router.shard(west).close();
    router.shard(east).close();
    let spanning =
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-5, -5, 225, 25) SAMPLESIZE 64";
    let err = router
        .execute(&QueryRequest::from_sql(spanning).expect("spanning SQL"))
        .expect_err("no live shard overlaps: the query cannot be answered");
    assert!(
        matches!(err, PortalError::ShardUnavailable { .. }),
        "expected ShardUnavailable, got {err:?}"
    );
}

/// Ten sampled statements over the four clusters of [`kinds_fleet`]: rects
/// that cut and that contain clusters, polygons, circles, kind filters.
const SAMPLED: [&str; 10] = [
    "SELECT count(*) FROM sensor WHERE location WITHIN RECT(2, 2, 50, 50) SAMPLESIZE 24",
    "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(-10, -10, 80, 80) SAMPLESIZE 40",
    "SELECT count(*) FROM sensor WHERE location WITHIN RECT(55, 5, 66, 70) SAMPLESIZE 9",
    "SELECT avg(value) FROM sensor WHERE location WITHIN \
     POLYGON((0 0, 70 0, 70 70, 0 70)) SAMPLESIZE 32",
    "SELECT count(*) FROM sensor WHERE location WITHIN \
     POLYGON((5 5, 66 10, 30 66)) SAMPLESIZE 21",
    "SELECT sum(value) FROM sensor WHERE location WITHIN CIRCLE(60, 60, 15) SAMPLESIZE 16",
    "SELECT count(*) FROM sensor WHERE location WITHIN CIRCLE(36, 36, 30) SAMPLESIZE 28",
    "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-10, -10, 80, 80) \
     AND type = 1 SAMPLESIZE 18",
    "SELECT avg(value) FROM sensor WHERE location WITHIN CIRCLE(12, 60, 14) \
     AND type = 2 SAMPLESIZE 7",
    "SELECT count(*) FROM sensor WHERE location WITHIN RECT(4, 4, 20, 20) SAMPLESIZE 1",
];

/// Four clusters, three sensor kinds.
fn kinds_fleet() -> Vec<SensorMeta> {
    let centres = [(12.0, 12.0), (60.0, 12.0), (12.0, 60.0), (60.0, 60.0)];
    clustered_sensors(&centres, 150, 3)
        .into_iter()
        .map(|m| m.with_kind((m.id.0 % 3) as u16))
        .collect()
}

/// Every statement of [`SAMPLED`], cold then warm, field for field.
fn sampled_answers(execute: impl Fn(&QueryRequest) -> PortalResult) -> Vec<String> {
    let mut answers = Vec::new();
    for _pass in ["cold", "warm"] {
        for sql in SAMPLED {
            let req = QueryRequest::from_sql(sql).expect("sampled SQL parses");
            answers.push(format!("{:?}", execute(&req)));
        }
    }
    answers
}

#[test]
fn a_registration_outside_every_viewport_changes_no_answer() {
    let nowhere = Point::new(1.0e6, 1.0e6);
    let expiry = TimeDelta::from_millis(EXPIRY_MS);

    let fresh = ShardedPortal::new(kinds_fleet(), |_, _| probe(), 1, config(7));
    let grown = ShardedPortal::new(kinds_fleet(), |_, _| probe(), 1, config(7));
    fresh.clock().advance_to(Timestamp(5_000));
    grown.clock().advance_to(Timestamp(5_000));
    grown.register_sensor(nowhere, expiry, 1.0, 0);
    assert_eq!(
        grown.shard(0).index_stats().map(|s| s.l0_occupancy),
        Some(1)
    );
    let want = sampled_answers(|req| fresh.execute(req).expect("fresh router").result);
    let got = sampled_answers(|req| grown.execute(req).expect("grown router").result);
    for (i, (want, got)) in want.iter().zip(&got).enumerate() {
        assert_eq!(want, got, "1 shard, execution {i}: `{}`", SAMPLED[i % 10]);
    }
    assert!(want[10..].iter().any(|a| a.contains("from_cache: true")));

    // Four shards: the sensor lands in the L0 of whichever shard is
    // nearest, and that shard answers as its fresh twin does.
    let fresh = ShardedPortal::new(kinds_fleet(), |_, _| probe(), 4, config(7));
    let grown = ShardedPortal::new(kinds_fleet(), |_, _| probe(), 4, config(7));
    fresh.clock().advance_to(Timestamp(5_000));
    grown.clock().advance_to(Timestamp(5_000));
    grown.register_sensor(nowhere, expiry, 1.0, 0);
    let want = sampled_answers(|req| fresh.execute(req).expect("fresh router").result);
    let got = sampled_answers(|req| grown.execute(req).expect("grown router").result);
    for (i, (want, got)) in want.iter().zip(&got).enumerate() {
        assert_eq!(want, got, "4 shards, execution {i}: `{}`", SAMPLED[i % 10]);
    }
}
