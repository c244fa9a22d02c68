//! The `colr_lsm_*` gauges against `LsmTree::stats()`.
//!
//! The gauges are process-wide, so this is a binary of its own with one
//! test: no other index in the process sets them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use colr_geo::Point;
use colr_tree::{
    ColrConfig, LsmConfig, LsmStats, LsmTree, SensorId, SensorMeta, TimeDelta, Timestamp,
};

fn sensor(id: u32) -> SensorMeta {
    let at = Point::new((id % 37) as f64, (id / 37 % 41) as f64);
    SensorMeta::new(id, at, TimeDelta::from_mins(5), 1.0)
}

#[track_caller]
fn assert_gauges_match(lsm: &LsmTree, what: &str) {
    let g = |name: &str| colr_telemetry::global().gauge(name).get();
    let s: LsmStats = lsm.stats();
    let gauges = [
        g("colr_lsm_levels"),
        g("colr_lsm_l0_occupancy"),
        g("colr_lsm_live_sensors"),
        g("colr_lsm_tombstones"),
    ];
    let stats = [s.levels, s.l0_occupancy, s.live_sensors, s.tombstones].map(|v| v as i64);
    assert_eq!(gauges, stats, "{what}: levels, L0, live, tombstones");
}

#[test]
fn every_lsm_gauge_reads_what_stats_counts() {
    let lsm = LsmTree::new(
        (0..256).map(sensor).collect(),
        ColrConfig::default(),
        LsmConfig {
            l0_capacity: 32,
            level_ratio: 4,
        },
        7,
    );
    assert_gauges_match(&lsm, "fresh");

    // One at a time: registrations, retires in L0 and in the base level, a
    // merge that drops the L0 tombstones, then retires in the merged level.
    for id in 256..296 {
        lsm.register(sensor(id));
    }
    assert_gauges_match(&lsm, "registered");
    for id in [3, 10, 260, 261, 290] {
        assert!(lsm.retire(SensorId(id)));
        assert_gauges_match(&lsm, &format!("retired {id}"));
    }
    assert!(!lsm.retire(SensorId(3)));
    assert!(!lsm.retire(SensorId(9_999)));
    assert_gauges_match(&lsm, "refused retires");
    let report = lsm.merge(Timestamp(1_000));
    assert_eq!(report.dropped_tombstones, 3, "the L0 tombstones");
    assert_gauges_match(&lsm, "merged");
    for id in [270, 271] {
        assert!(lsm.retire(SensorId(id)));
    }
    assert_gauges_match(&lsm, "retired in the merged level");

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
            if id >= 556 {
                assert!(lsm.retire(SensorId(oldest)), "{oldest} was live");
                oldest += 1;
            }
            if id % 7 == 0 {
                // A sensor of the base level, now and then.
                lsm.retire(SensorId(id % 256));
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
    assert_gauges_match(&lsm, "after the race");
    lsm.merge(Timestamp(9_000));
    assert_gauges_match(&lsm, "merged after the race");
    let mut live = 0;
    lsm.for_each_live_location(|_| live += 1);
    assert_eq!(live, lsm.stats().live_sensors, "the live pass agrees");
}
