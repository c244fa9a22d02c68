//! End-to-end fault tolerance: circuit breakers, live availability
//! feedback into Algorithm 1, and portal degradation reporting under
//! injected faults.
//!
//! These tests exercise the full stack — `SimNetwork` fault plans →
//! `ResilientProber` breakers/retries → `LiveAvailability` EWMA →
//! `sampling.rs` oversampling → portal `DegradationReport` — and encode
//! the PR's acceptance criteria:
//!
//! * dead sensors stop being probed once their breakers open (probe
//!   counters plateau);
//! * under a 30% regional outage plus fleet-wide availability drift, the
//!   live-EWMA path keeps the delivered sample within 10% of the target
//!   `R` while the frozen build-time availability undershoots badly;
//! * a zero-availability sensor can never blow up the redistribution
//!   targets (probes stay bounded) and is eventually excluded.

use std::sync::Arc;

use colr_repro::colr::{
    BreakerState, ColrConfig, ColrTree, LiveAvailability, Mode, Query, ResilientConfig,
    ResilientProber, SensorId, SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::engine::{PortalConfig, QueryRequest, ShardedPortal};
use colr_repro::geo::{Point, Rect};
use colr_repro::sensors::{ConstantField, FaultEvent, FaultPlan, SimNetwork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXPIRY_MS: u64 = 600_000;
const FOREVER: Timestamp = Timestamp(u64::MAX);

fn grid_sensors(side: u32, availability: f64) -> Vec<SensorMeta> {
    (0..side * side)
        .map(|i| {
            SensorMeta::new(
                i,
                Point::new((i % side) as f64, (i / side) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                availability,
            )
        })
        .collect()
}

fn network(sensors: &[SensorMeta], seed: u64) -> SimNetwork<ConstantField> {
    SimNetwork::new(
        sensors.to_vec(),
        ConstantField {
            base: 1.0,
            step: 0.0,
        },
        seed,
    )
}

/// Sum of probe counts over sensors in the leftmost `cols` columns of a
/// `side`-wide grid (the region fault plans knock out).
fn region_probes(counts: &[u64], side: u32, cols: u32) -> u64 {
    counts
        .iter()
        .enumerate()
        .filter(|(i, _)| (*i as u32) % side < cols)
        .map(|(_, c)| *c)
        .sum()
}

/// Open breakers keep dead sensors off the wire: after the warmup trips
/// them, the outage region's probe counters stop moving while healthy
/// sensors keep being probed.
#[test]
fn open_breakers_stop_probing_dead_region() {
    let side = 16u32;
    let dead_cols = 4u32; // left quarter: 64 of 256 sensors
    let sensors = grid_sensors(side, 1.0);
    let net = network(&sensors, 31);
    net.set_fault_plan(FaultPlan::new().with(FaultEvent::RegionalOutage {
        region: Rect::from_coords(-1.0, -1.0, dead_cols as f64 - 0.5, side as f64),
        from: Timestamp(0),
        until: FOREVER,
    }));
    let prober = ResilientProber::new(
        net,
        ResilientConfig {
            max_retries: 1,
            breaker_threshold: 3,
            breaker_cooldown: TimeDelta::from_mins(60), // >> test horizon
            ..Default::default()
        },
    );
    let tree = ColrTree::build(sensors, ColrConfig::default(), 5);
    let mut rng = StdRng::seed_from_u64(9);
    let whole = Rect::from_coords(-0.5, -0.5, side as f64 - 0.5, side as f64 - 0.5);
    let mut run = |t: u64| {
        let q = Query::range(whole, TimeDelta::from_millis(500));
        tree.execute(&q, Mode::RTree, &prober, Timestamp(t * 1_000), &mut rng)
            .stats
    };

    // Warmup: 3 consecutive failures (plus retries) trip every dead breaker.
    for t in 1..=5 {
        run(t);
    }
    assert_eq!(prober.open_breakers(), (dead_cols * side) as usize);
    assert_eq!(prober.breaker_state(SensorId(0)), BreakerState::Open);
    assert_eq!(prober.breaker_state(SensorId(5)), BreakerState::Closed);

    let counts = prober.inner().probe_counts();
    let dead_before = region_probes(&counts, side, dead_cols);
    let healthy_before: u64 = counts.iter().sum::<u64>() - dead_before;

    let mut skipped = 0;
    for t in 6..=10 {
        skipped += run(t).breaker_skipped;
    }
    let counts = prober.inner().probe_counts();
    let dead_after = region_probes(&counts, side, dead_cols);
    let healthy_after: u64 = counts.iter().sum::<u64>() - dead_after;
    assert_eq!(
        dead_after, dead_before,
        "open breakers must keep dead sensors off the wire"
    );
    assert!(healthy_after > healthy_before, "healthy probing continued");
    assert_eq!(
        skipped,
        5 * (dead_cols * side) as u64,
        "every dead sensor skipped once per query"
    );
}

/// The PR's headline acceptance test. 30% of the fleet goes hard-down and
/// the rest drifts from its registered 0.9 availability to 0.765. The
/// frozen build-time means keep crediting the dead region, so the static
/// path undershoots the sample target; the live-EWMA path learns the new
/// reality and keeps the delivered sample within 10% of R.
#[test]
fn live_availability_holds_sample_target_under_outage_and_drift() {
    let side = 20u32;
    let dead_cols = 6u32; // 120 of 400 sensors: a 30% regional outage
    let r = 60.0;
    let plan = FaultPlan::new()
        .with(FaultEvent::RegionalOutage {
            region: Rect::from_coords(-1.0, -1.0, dead_cols as f64 - 0.5, side as f64),
            from: Timestamp(0),
            until: FOREVER,
        })
        .with(FaultEvent::AvailabilityDrift {
            from: Timestamp(0),
            until: Timestamp(60 * 60 * 1_000), // settles inside the warmup
            start_factor: 1.0,
            end_factor: 0.85,
        });
    let config = ResilientConfig {
        max_retries: 0, // isolate the estimator effect from retry recovery
        breaker_threshold: 5,
        breaker_cooldown: TimeDelta::from_secs(60),
        ..Default::default()
    };

    let run = |live_feedback: bool| -> f64 {
        let sensors = grid_sensors(side, 0.9);
        let net = network(&sensors, 77);
        net.set_fault_plan(plan.clone());
        let prober = ResilientProber::new(net, config);
        let tree = ColrTree::build(sensors, ColrConfig::default(), 5);
        if live_feedback {
            let live = tree.enable_live_availability(0.3);
            prober.attach_availability(live);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let whole = Rect::from_coords(-0.5, -0.5, side as f64 - 0.5, side as f64 - 0.5);
        let mut sample_at = |t_ms: u64| {
            let q = Query::range(whole, TimeDelta::from_mins(2))
                .with_terminal_level(3)
                .with_sample_size(r);
            tree.execute(&q, Mode::Colr, &prober, Timestamp(t_ms), &mut rng)
                .readings
                .len()
        };
        // Warmup: queries every 5 simulated minutes train the EWMA (and
        // outlast the drift window).
        let step = 5 * 60 * 1_000u64;
        for i in 1..=25u64 {
            sample_at(i * step);
        }
        let trials = 30u64;
        let total: usize = (26..26 + trials).map(|i| sample_at(i * step)).sum();
        total as f64 / trials as f64
    };

    let live_mean = run(true);
    let static_mean = run(false);
    assert!(
        (live_mean - r).abs() <= r * 0.10,
        "live path mean sample {live_mean} not within 10% of target {r}"
    );
    assert!(
        static_mean < r * 0.9,
        "static path mean sample {static_mean} should undershoot target {r}"
    );
    assert!(
        live_mean > static_mean,
        "live feedback should outperform the frozen means"
    );
}

/// The portal surfaces the shortfall: under an outage the degradation
/// report carries the requested target, the thinner delivered sample, and
/// the breaker-skip accounting, end to end through SQL.
#[test]
fn portal_reports_degradation_under_outage() {
    let side = 16u32;
    let prober = |_: usize, sensors: &[SensorMeta]| {
        let net = network(sensors, 13);
        net.set_fault_plan(FaultPlan::new().with(FaultEvent::RegionalOutage {
            region: Rect::from_coords(-1.0, -1.0, 3.5, side as f64),
            from: Timestamp(0),
            until: FOREVER,
        }));
        ResilientProber::new(
            net,
            ResilientConfig {
                max_retries: 1,
                breaker_threshold: 3,
                breaker_cooldown: TimeDelta::from_mins(60),
                ..Default::default()
            },
        )
    };
    let config = PortalConfig {
        mode: Mode::Colr,
        ..Default::default()
    };
    let portal = ShardedPortal::new(grid_sensors(side, 1.0), prober, 1, config);
    let live: Arc<LiveAvailability> = portal.shard(0).enable_resilience_feedback(0.3);
    let sql = "SELECT count(*) FROM sensor WHERE location WITHIN \
               RECT(-0.5, -0.5, 15.5, 15.5) SAMPLESIZE 120";
    let req = QueryRequest::from_sql(sql).expect("parses");
    let mut last = None;
    for _ in 0..12 {
        portal.clock().advance(TimeDelta::from_mins(6));
        last = Some(portal.execute(&req).expect("query runs").result);
    }
    let res = last.unwrap();
    assert_eq!(res.degradation.requested, 120.0);
    assert!(res.degradation.sampled > 0, "some healthy sensors answered");
    assert!(
        res.degradation.fulfillment() > 0.5 && res.degradation.fulfillment() < 1.5,
        "fulfillment {} out of plausible band",
        res.degradation.fulfillment()
    );
    // The dead quarter's breakers opened during the earlier queries, so the
    // final answer accounts its skips...
    assert!(portal.shard(0).probe().open_breakers() > 0);
    assert!(res.degradation.breaker_skipped > 0, "skips surfaced");
    assert_eq!(res.degradation.breaker_skipped, res.stats.breaker_skipped);
    // ...and the estimator has learned the outage: the dead quarter's mean
    // estimate collapses while the healthy columns stay near 1.0.
    let (mut dead_sum, mut healthy_sum) = (0.0, 0.0);
    for i in 0..side * side {
        let est = live.sensor(SensorId(i));
        if i % side < 4 {
            dead_sum += est;
        } else {
            healthy_sum += est;
        }
    }
    let dead_mean = dead_sum / (4 * side) as f64;
    let healthy_mean = healthy_sum / (12 * side) as f64;
    assert!(dead_mean < 0.5, "dead region mean estimate {dead_mean}");
    assert!(healthy_mean > 0.9, "healthy mean estimate {healthy_mean}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A zero-availability sensor cannot blow up Algorithm 1: the
    /// `MIN_AVAILABILITY` clamp bounds its oversampling factor, so per-query
    /// probe volume stays below the in-range population, and the breaker
    /// caps its lifetime wire probes at threshold + one half-open trial per
    /// cooldown (none elapse here).
    #[test]
    fn zero_availability_sensor_stays_bounded(seed in 0u64..1_000, dead in 0u32..64) {
        let mut sensors = grid_sensors(8, 1.0);
        sensors[dead as usize] =
            SensorMeta::new(dead, sensors[dead as usize].location, TimeDelta::from_millis(EXPIRY_MS), 0.0);
        let net = network(&sensors, seed);
        let prober = ResilientProber::new(
            net,
            ResilientConfig {
                max_retries: 0,
                breaker_threshold: 2,
                breaker_cooldown: TimeDelta::from_mins(60),
                ..Default::default()
            },
        );
        let tree = ColrTree::build(sensors, ColrConfig::default(), seed ^ 0xc01d);
        let mut rng = StdRng::seed_from_u64(seed);
        let whole = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        for t in 1..=10u64 {
            // R = population: the sampler wants everyone, and the dead
            // sensor's 1/0.05 oversampling factor must not inflate probes
            // beyond the 64 sensors that exist.
            let q = Query::range(whole, TimeDelta::from_millis(500)).with_sample_size(64.0);
            let out = tree.execute(&q, Mode::Colr, &prober, Timestamp(t * 1_000), &mut rng);
            prop_assert!(
                out.stats.sensors_probed <= 64,
                "query {} probed {} sensors of 64",
                t,
                out.stats.sensors_probed
            );
        }
        // Breaker excludes the dead sensor after `threshold` failures.
        prop_assert_eq!(prober.breaker_state(SensorId(dead)), BreakerState::Open);
        let wire = prober.inner().probe_counts()[dead as usize];
        prop_assert!(wire <= 2, "dead sensor hit the wire {wire} times");
    }
}
