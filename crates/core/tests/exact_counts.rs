//! Exact counts in a binary of its own: no other test in this process
//! writes the registry, so `colr_resilient_breaker_opened_total` is read as
//! an exact delta; and an LSM's own numbers come from `LsmTree::stats()`,
//! checked against counts the test keeps and against a pass over the live
//! sensors.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use colr_geo::Point;
use colr_tree::{
    BreakerState, ColrConfig, LsmConfig, LsmTree, ProbeService, Reading, ResilientConfig,
    ResilientProber, SensorId, SensorMeta, TimeDelta, Timestamp,
};

fn sensor(id: u32) -> SensorMeta {
    let at = Point::new((id % 37) as f64, (id / 37 % 41) as f64);
    SensorMeta::new(id, at, TimeDelta::from_mins(5), 1.0)
}

/// `stats()` against the live population the test counted and against a
/// walk of every live sensor.
#[track_caller]
fn assert_live(lsm: &LsmTree, live: usize, what: &str) {
    assert_eq!(lsm.stats().live_sensors, live, "{what}: live sensors");
    let mut walked = 0;
    lsm.for_each_live_location(|_| walked += 1);
    assert_eq!(walked, live, "{what}: the live pass");
}

#[test]
fn lsm_stats_count_what_the_script_did() {
    let lsm = LsmTree::new(
        (0..256).map(sensor).collect(),
        ColrConfig::default(),
        LsmConfig {
            l0_capacity: 32,
            level_ratio: 4,
        },
        7,
    );
    let mut live = 256;
    assert_live(&lsm, live, "fresh");
    let s = lsm.stats();
    assert_eq!((s.levels, s.l0_occupancy, s.tombstones), (1, 0, 0), "fresh");

    // One at a time: registrations, retires in L0 and in the base level, a
    // merge that drops the L0 tombstones, then retires in the merged level.
    for id in 256..296 {
        lsm.register(sensor(id));
        live += 1;
    }
    assert_live(&lsm, live, "registered");
    assert_eq!(lsm.stats().l0_occupancy, 40, "registered");
    for id in [3, 10, 260, 261, 290] {
        assert!(lsm.retire(SensorId(id)));
        live -= 1;
        assert_live(&lsm, live, &format!("retired {id}"));
    }
    assert!(!lsm.retire(SensorId(3)));
    assert!(!lsm.retire(SensorId(9_999)));
    assert_live(&lsm, live, "refused retires");
    let s = lsm.stats();
    assert_eq!((s.l0_occupancy, s.tombstones), (37, 5), "before the merge");
    let report = lsm.merge(Timestamp(1_000));
    assert_eq!(report.dropped_tombstones, 3, "the L0 tombstones");
    assert_live(&lsm, live, "merged");
    let s = lsm.stats();
    assert_eq!(
        (s.levels, s.l0_occupancy, s.tombstones),
        (report.levels_after, report.l0_after, 2),
        "merged"
    );
    for id in [270, 271] {
        assert!(lsm.retire(SensorId(id)));
        live -= 1;
    }
    assert_live(&lsm, live, "retired in the merged level");
    assert_eq!(lsm.stats().tombstones, 4, "retired in the merged level");

    // Racing: a writer registers and retires oldest-first while another
    // thread merges back to back, so retires land in L0, in levels, and
    // between a merge's cut and its publication. The writer lets at least
    // one merge finish every 256 registrations.
    let stop = AtomicBool::new(false);
    let merged = AtomicU64::new(0);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            let mut now = 2_000;
            while !stop.load(Ordering::Acquire) {
                lsm.merge(Timestamp(now));
                merged.fetch_add(1, Ordering::AcqRel);
                now += 1;
            }
        });
        start.wait();
        let mut oldest = 300;
        for id in 300..3_300 {
            lsm.register(sensor(id));
            live += 1;
            if id >= 556 {
                assert!(lsm.retire(SensorId(oldest)), "{oldest} was live");
                live -= 1;
                oldest += 1;
            }
            if id % 7 == 0 && lsm.retire(SensorId(id % 256)) {
                // A sensor of the base level, now and then.
                live -= 1;
            }
            if id % 256 == 0 {
                let seen = merged.load(Ordering::Acquire);
                while merged.load(Ordering::Acquire) == seen {
                    std::thread::yield_now();
                }
            }
        }
        stop.store(true, Ordering::Release);
    });
    assert!(lsm.stats().merges >= 12, "merges ran beside the writer");
    assert_live(&lsm, live, "after the race");
    lsm.merge(Timestamp(9_000));
    assert_live(&lsm, live, "merged after the race");
}

/// A backend on which every probe fails.
struct AlwaysDown;

impl ProbeService for AlwaysDown {
    fn probe_batch(&self, ids: &[SensorId], _now: Timestamp) -> Vec<Option<Reading>> {
        vec![None; ids.len()]
    }
}

#[test]
fn breaker_opens_are_counted_once_per_trip() {
    const THRESHOLD: u32 = 3;
    let opened = colr_telemetry::global().counter("colr_resilient_breaker_opened_total");
    let before = opened.get();
    // One attempt per call, and a cooldown no step of the script reaches, so
    // an open breaker stays open and skips its sensor from then on.
    let prober = ResilientProber::new(
        AlwaysDown,
        ResilientConfig {
            max_retries: 0,
            breaker_threshold: THRESHOLD,
            breaker_cooldown: TimeDelta::from_secs(3_600),
            ..ResilientConfig::default()
        },
    );
    // Sensor `i` of 0..12 is asked for in `i % 6` of the six batches, so the
    // sensors asked for three or more times trip, once each.
    let mut failures = [0u32; 12];
    let mut trips = 0;
    for round in 0..6u32 {
        let ids: Vec<SensorId> = (0..12u32).filter(|i| round < i % 6).map(SensorId).collect();
        let now = Timestamp(u64::from(round) * 1_000);
        let outcomes = prober.probe_batch(&ids, now);
        assert!(outcomes.iter().all(Option::is_none));
        for id in ids {
            let f = &mut failures[id.index()];
            if *f < THRESHOLD {
                *f += 1;
                trips += usize::from(*f == THRESHOLD);
            }
        }
        assert_eq!(opened.get() - before, trips as u64, "round {round}");
        assert_eq!(prober.open_breakers(), trips, "round {round}");
    }
    assert_eq!(trips, 6, "sensors 3, 4, 5, 9, 10 and 11");
    for (i, &f) in failures.iter().enumerate() {
        let want = if f == THRESHOLD {
            BreakerState::Open
        } else {
            BreakerState::Closed
        };
        assert_eq!(prober.breaker_state(SensorId(i as u32)), want, "sensor {i}");
    }
}
