//! End-to-end guarantees of the incremental LSM index at the portal layer.
//!
//! * **Frozen batches.** A merge published mid-batch changes no answer the
//!   batch produces: every query runs against the snapshot taken at batch
//!   start.
//! * **Retirement.** A retired sensor stops contributing immediately and is
//!   physically dropped by the next merge that rewrites its level.
//! * **No blind spot.** A registration answers the very next query: L0
//!   indexes immediately, on a bare service and through the router.
//!
//! Bit parity of the churn-free service with the bare tree is an inline test
//! of the `service` module, where the seed derivation is visible.

use std::sync::atomic::{AtomicBool, Ordering};

use colr_engine::{
    IndexStrategy, PortalConfig, PortalError, PortalResult, PortalService, QueryRequest,
    ShardedPortal,
};
use colr_geo::Point;
use colr_tree::probe::AlwaysAvailable;
use colr_tree::{LsmConfig, ProbeService, Reading, SensorId, SensorMeta, TimeDelta, Timestamp};
use parking_lot::Mutex;

const EXPIRY_MS: u64 = 300_000;

fn grid_sensors(n: usize, side: usize) -> Vec<SensorMeta> {
    (0..n)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % side) as f64, (i / side) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
        })
        .collect()
}

fn probe() -> AlwaysAvailable {
    AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    }
}

fn config(seed: u64, lsm: LsmConfig) -> PortalConfig {
    PortalConfig {
        seed,
        index: IndexStrategy::Lsm(lsm),
        ..Default::default()
    }
}

/// Lowers `sql` through the one SQL path and executes it on a bare service.
fn run<P: ProbeService>(svc: &PortalService<P>, sql: &str) -> Result<PortalResult, PortalError> {
    Ok(svc.execute(&QueryRequest::from_sql(sql)?)?.result)
}

/// One query per region shape, all sampling (Mode::Colr is the default).
fn shape_queries() -> Vec<String> {
    vec![
        "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,10.5,12.5) \
         SAMPLESIZE 24"
            .into(),
        "SELECT count(*) FROM sensor WHERE location WITHIN POLYGON((0 0, 15 0, 8 14)) \
         SAMPLESIZE 31"
            .into(),
        "SELECT sum(value) FROM sensor WHERE location WITHIN CIRCLE(8, 8, 6.5) SAMPLESIZE 17"
            .into(),
    ]
}

/// A probe that, on its first post-arm call, pumps the service's reindex
/// (an LSM merge) inline — guaranteeing the merge lands strictly after the
/// batch froze its snapshot and strictly before the batch finishes.
struct MergeOnProbe {
    armed: AtomicBool,
    fired: AtomicBool,
    svc: Mutex<Option<PortalService<MergeOnProbe>>>,
}

impl ProbeService for MergeOnProbe {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        if self.armed.load(Ordering::Acquire) && !self.fired.swap(true, Ordering::AcqRel) {
            let svc = self.svc.lock().clone();
            let svc = svc.expect("service injected before arming");
            let before = svc.generation();
            svc.reindex();
            assert!(svc.generation() > before, "mid-batch merge published");
        }
        ids.iter()
            .map(|&id| {
                Some(Reading {
                    sensor: id,
                    value: id.0 as f64,
                    timestamp: now,
                    expires_at: now + TimeDelta::from_millis(EXPIRY_MS),
                })
            })
            .collect()
    }
}

#[test]
fn merge_published_mid_batch_changes_no_issued_answer() {
    let build = |merge_mid_batch: bool| {
        let probe = MergeOnProbe {
            armed: AtomicBool::new(false),
            fired: AtomicBool::new(false),
            svc: Mutex::new(None),
        };
        let svc = PortalService::new(
            grid_sensors(256, 16),
            probe,
            config(7, LsmConfig::default()),
        );
        *svc.probe().svc.lock() = Some(svc.clone());
        // Churn: park fresh sensors in L0 so the merge has real work.
        for i in 0..24 {
            svc.register_sensor(
                Point::new(2.0 + (i % 6) as f64 * 2.0, 3.0 + (i / 6) as f64 * 2.5),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
                0,
            );
        }
        svc.clock().advance(TimeDelta::from_secs(1));
        if merge_mid_batch {
            svc.probe().armed.store(true, Ordering::Release);
        }
        let sqls = shape_queries();
        let batch: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let out = svc.query_many_sql(&batch, 4).expect("batch");
        (svc, out)
    };
    let (calm_svc, calm) = build(false);
    let (churned_svc, churned) = build(true);
    assert_eq!(calm_svc.generation(), 0);
    assert!(churned_svc.generation() >= 1, "the merge really ran");
    assert!(
        churned_svc.probe().fired.load(Ordering::Acquire),
        "merge fired from inside the batch"
    );
    assert_eq!(
        format!("{calm:?}"),
        format!("{churned:?}"),
        "a mid-batch merge must not change any answer in the frozen batch"
    );
}

#[test]
fn retired_sensor_never_resurfaces() {
    // Small levels so merges physically rewrite them.
    let lsm_cfg = LsmConfig {
        l0_capacity: 8,
        level_ratio: 2,
    };
    let svc = PortalService::new(grid_sensors(64, 8), probe(), config(11, lsm_cfg));
    svc.clock().advance(TimeDelta::from_secs(1));
    // Warm the cell around sensor 9 at (1, 1) so its reading sits in a slot
    // aggregate, then the whole viewport.
    let cell = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0.5,0.5,1.5,1.5) \
                SAMPLESIZE 500";
    let all = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
               SAMPLESIZE 500";
    assert_eq!(run(&svc, cell).unwrap().value, Some(1.0));
    assert_eq!(run(&svc, all).unwrap().value, Some(64.0));

    // Retire an indexed sensor and a freshly registered L0 sensor.
    assert!(svc.retire_sensor(SensorId(9)));
    assert!(!svc.retire_sensor(SensorId(9)), "double retire is a no-op");
    let l0_id = svc.register_sensor(
        Point::new(1.0, 1.2),
        TimeDelta::from_millis(EXPIRY_MS),
        1.0,
        0,
    );
    assert!(svc.retire_sensor(l0_id));
    assert!(!svc.retire_sensor(SensorId(9_999)), "unknown id refused");

    // Masked immediately: neither the fresh samples nor the warmed slot
    // aggregates serve the retired pair.
    assert_eq!(run(&svc, cell).unwrap().value, Some(0.0));
    assert_eq!(run(&svc, all).unwrap().value, Some(63.0));

    // An empty-L0 merge is allowed to leave a large level untouched — the
    // tombstone is masked either way. Give the merge real L0 work (out of
    // the test viewport) so it absorbs and *rewrites* the retired sensors'
    // levels, then check they are physically gone.
    for i in 0..40 {
        svc.register_sensor(
            Point::new(20.0 + (i % 8) as f64, 20.0 + (i / 8) as f64),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
            0,
        );
    }
    svc.reindex();
    let stats = svc.index_stats().expect("lsm stats");
    assert_eq!(stats.live_sensors, 63 + 40);
    assert_eq!(stats.tombstones, 0, "the merge dropped the tombstones");
    assert_eq!(run(&svc, cell).unwrap().value, Some(0.0));
    assert_eq!(run(&svc, all).unwrap().value, Some(63.0));
}

#[test]
fn a_registration_answers_the_very_next_query() {
    let viewport = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
                    SAMPLESIZE 500";
    let lsm = PortalService::new(
        grid_sensors(64, 8),
        probe(),
        config(5, LsmConfig::default()),
    );
    lsm.clock().advance(TimeDelta::from_secs(1));
    for i in 0..3 {
        lsm.register_sensor(
            Point::new(2.0 + i as f64, 3.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
            0,
        );
    }
    let res = run(&lsm, viewport).unwrap();
    assert_eq!(res.value, Some(67.0), "L0 answers the very next query");
}

#[test]
fn sharded_lsm_registers_immediately_retires_and_rebalances_on_merge() {
    // Two seed sensors far apart → exactly one per shard, so both centroids
    // are known coordinates and the drift geometry below is deterministic.
    let sensors = vec![
        SensorMeta::new(
            0,
            Point::new(0.0, 0.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ),
        SensorMeta::new(
            1,
            Point::new(10.0, 10.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ),
    ];
    let router = ShardedPortal::new(sensors, |_, _| probe(), 2, config(17, LsmConfig::default()));
    router.clock().advance(TimeDelta::from_secs(1));
    assert_eq!(router.shard_count(), 2);
    let map = router.shard_map();
    assert!(map.iter().all(|info| info.sensors == 1), "1 seed per shard");
    // `owner`: the shard nearest (4.9, 5.0) — the one at the origin.
    let (owner, other) = if map[0].centroid.x < map[1].centroid.x {
        (0, 1)
    } else {
        (1, 0)
    };

    // A registration is queryable through the router immediately — no
    // reindex between register and query.
    let lone = QueryRequest::from_sql(
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(4.5,4.5,5.4,5.4) SAMPLESIZE 500",
    )
    .unwrap();
    let lone = || router.execute(&lone).unwrap().result.value;
    assert_eq!(lone(), Some(0.0));
    let ticket = router.register_sensor(
        Point::new(4.9, 5.0),
        TimeDelta::from_millis(EXPIRY_MS),
        1.0,
        0,
    );
    assert_eq!(lone(), Some(1.0));
    assert_eq!(router.shard(owner).index_stats().unwrap().live_sensors, 2);

    // Drag `other`'s centroid toward the lone sensor: ten registrations at
    // (8, 8) guess `other` (nearest (10, 10)), and after its merge the map
    // refreshes to centroid (10 + 10·8)/11 ≈ (8.18, 8.18) — now nearer to
    // (4.9, 5.0) than `owner`'s (0, 0). The next merge of `owner` must
    // migrate the lone sensor (rebalance-on-merge), and it stays queryable
    // throughout.
    for _ in 0..10 {
        router.register_sensor(
            Point::new(8.0, 8.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
            0,
        );
    }
    router.reindex_shard(other);
    assert_eq!(router.shard(other).index_stats().unwrap().live_sensors, 11);
    router.reindex_shard(owner);
    assert_eq!(
        router.shard(owner).index_stats().unwrap().live_sensors,
        1,
        "the drifted L0 sensor migrated off its original shard at merge"
    );
    assert_eq!(
        router.shard(other).index_stats().unwrap().live_sensors,
        12,
        "…and landed on the shard whose centroid drifted toward it"
    );
    assert_eq!(lone(), Some(1.0));

    // The ticket follows the migration: retiring it removes the sensor from
    // its new home.
    assert!(router.retire_sensor(ticket));
    assert!(!router.retire_sensor(ticket), "double retire refused");
    assert_eq!(lone(), Some(0.0));
}
