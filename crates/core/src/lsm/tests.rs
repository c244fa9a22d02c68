use super::*;
use crate::build::tests::city_points;
use crate::lookup::Mode;
use crate::probe::{AlwaysAvailable, ProbeService};
use crate::reading::SensorMeta;
use crate::time::TimeDelta;
use crate::tree::{ColrConfig, ColrTree};
use colr_geo::{Circle, Point, Polygon, Rect, Region};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const EXPIRY_MS: u64 = 300_000;

/// A probe service that never returns data — isolates what the cache serves.
struct Dead;

impl ProbeService for Dead {
    fn probe_batch(&self, ids: &[SensorId], _now: Timestamp) -> Vec<Option<Reading>> {
        vec![None; ids.len()]
    }
}

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

fn viewport() -> Rect {
    Rect::from_coords(-0.5, -0.5, 10.5, 10.5)
}

fn sample_query(r: f64) -> Query {
    Query::range(viewport(), TimeDelta::from_millis(EXPIRY_MS)).with_sample_size(r)
}

fn outputs_equal(a: &QueryOutput, b: &QueryOutput) -> bool {
    a.stats == b.stats
        && a.latency_ms == b.latency_ms
        && a.readings == b.readings
        && a.groups.len() == b.groups.len()
        && a.groups.iter().zip(&b.groups).all(|(x, y)| {
            x.node == y.node
                && x.bbox == y.bbox
                && x.agg == y.agg
                && x.from_cache == y.from_cache
                && x.target == y.target
                && x.results == y.results
        })
}

/// Every node's slot ring and raw entries, and the eviction order.
fn cache_state(tree: &ColrTree) -> String {
    let nodes: Vec<_> = tree.node_ids().map(|id| tree.cache_snapshot(id)).collect();
    format!("{nodes:?} {:?}", tree.cached_entries())
}

/// The one-level identity: a fresh index — one level, nothing retired, an
/// empty L0 — is the executor's loop run once, so it answers exactly as its
/// level's tree does when that tree is driven by hand with what the loop
/// hands it: the target `stochastic_round(R, rng)` and the stream
/// `derive_seed(rng.next_u64(), 1)`. Readings, groups, stats, latency, the
/// caller's RNG position and the cache state left behind, in all three
/// modes, cold / warm / expired, interactive and frozen. This is what ties
/// the digests of `tests/hotpath_parity.rs` (a), (c), (d), taken through the
/// service, to the bare-tree walk its cases (b), (e), (g) pin.
#[test]
fn a_one_level_index_answers_exactly_as_its_tree_driven_by_hand() {
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    // A fractional target, so the rounding draw is part of what is checked.
    let q = sample_query(24.5);
    for frozen in [false, true] {
        for (i, mode) in [Mode::Colr, Mode::HierCache, Mode::RTree]
            .into_iter()
            .enumerate()
        {
            let sensors = grid_sensors(256, 16);
            let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 42);
            let lsm = LsmTree::new(sensors, ColrConfig::default(), LsmConfig::default(), 42);
            let level = lsm.cut().primary().clone();
            // Cold, warm against the identically mutated cache, then past
            // every reading's expiry.
            for (step, at) in [1_000, 11_000, 2_000 + EXPIRY_MS].into_iter().enumerate() {
                let what = format!("{mode:?} step {step} frozen {frozen}");
                let now = Timestamp(at);
                let mut by_hand = StdRng::seed_from_u64(7 + i as u64);
                let mut through = StdRng::seed_from_u64(7 + i as u64);
                let target = match mode {
                    Mode::Colr => stochastic_round(24.5, &mut by_hand) as f64,
                    _ => 24.5,
                };
                let asked = q.clone().with_sample_size(target);
                let mut stream = StdRng::seed_from_u64(derive_seed(by_hand.next_u64(), 1));
                let (a, b) = if frozen {
                    tree.advance(now);
                    let cut = lsm.cut();
                    cut.advance(now);
                    let snap = cut.freeze();
                    let (a, a_deferred) =
                        tree.execute_frozen(&asked, mode, &probe, now, &mut stream);
                    let (b, b_deferred) =
                        lsm.execute_frozen(&snap, &q, mode, &probe, now, &mut through);
                    assert_eq!(a_deferred, b_deferred, "{what}");
                    assert_eq!(
                        tree.apply_readings(&a_deferred, now),
                        lsm.apply_deferred(&b_deferred, now),
                        "{what}"
                    );
                    (a, b)
                } else {
                    (
                        tree.execute(&asked, mode, &probe, now, &mut stream),
                        lsm.execute(&q, mode, &probe, now, &mut through),
                    )
                };
                assert!(outputs_equal(&a, &b), "{what}: {a:?}\nvs {b:?}");
                assert_eq!(by_hand.next_u64(), through.next_u64(), "{what}");
                assert_eq!(cache_state(&tree), cache_state(level.tree()), "{what}");
                match step {
                    1 if mode != Mode::RTree => assert!(
                        b.stats.readings_from_cache + b.stats.cache_nodes_used > 0,
                        "{what}: the warm step never touched a cache"
                    ),
                    _ => assert!(b.stats.sensors_probed > 0, "{what}: nothing probed"),
                }
            }
        }
    }
}

#[test]
fn registration_is_visible_to_the_next_query() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        1,
    );
    lsm.register(SensorMeta::new(
        500,
        Point::new(100.0, 100.0),
        TimeDelta::from_millis(EXPIRY_MS),
        1.0,
    ));
    let q = Query::range(
        Rect::from_coords(99.0, 99.0, 101.0, 101.0),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let out = lsm.execute(&q, Mode::RTree, &probe, Timestamp(1_000), &mut rng);
    assert_eq!(out.readings.len(), 1);
    assert_eq!(out.readings[0].sensor, SensorId(500));
    assert_eq!(lsm.stats().l0_occupancy, 1);
}

#[test]
fn retire_masks_immediately_and_merge_drops_physically() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        1,
    );
    // A small second level whose tombstones the next merge will purge.
    for i in 0..4 {
        lsm.register(SensorMeta::new(
            100 + i,
            Point::new(40.0 + i as f64, 40.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    lsm.merge(Timestamp(500));
    assert_eq!(lsm.stats().levels, 2);
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    // Warm the victims' cache entries, then retire them: one in the large
    // base level (stays masked), one in the small level (purged next merge).
    let all = Query::range(
        Rect::from_coords(-0.5, -0.5, 44.5, 44.5),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    let mut rng = StdRng::seed_from_u64(5);
    let warm = lsm.execute(&all, Mode::HierCache, &probe, Timestamp(1_000), &mut rng);
    assert_eq!(warm.result_size(), 68);
    assert!(lsm.retire(SensorId(0)));
    assert!(lsm.retire(SensorId(100)));
    assert!(!lsm.retire(SensorId(0)), "double retire must be rejected");
    // Masked immediately: the probe still answers, the index must not ask,
    // and the decremented slot aggregates must not count them either.
    let out = lsm.execute(&all, Mode::RTree, &probe, Timestamp(2_000), &mut rng);
    assert!(out
        .readings
        .iter()
        .all(|r| r.sensor != SensorId(0) && r.sensor != SensorId(100)));
    assert_eq!(out.readings.len(), 66);
    let cached = lsm.execute(&all, Mode::HierCache, &Dead, Timestamp(2_000), &mut rng);
    assert!(
        cached.result_size() <= 66,
        "retired sensors leaked from cached slots: {}",
        cached.result_size()
    );
    assert_eq!(lsm.stats().tombstones, 2);
    assert_eq!(lsm.stats().live_sensors, 66);
    // The next merge absorbs the small trailing level and purges its
    // tombstone physically; the base-level tombstone stays masked.
    let report = lsm.merge(Timestamp(2_000));
    assert_eq!(report.dropped_tombstones, 1);
    assert_eq!(lsm.stats().tombstones, 1);
    assert_eq!(lsm.stats().live_sensors, 66);
    assert!(!lsm.retire(SensorId(100)), "dropped sensor is unknown");
}

#[test]
fn merge_compacts_l0_and_carries_fresh_entries() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        1,
    );
    for i in 0..8 {
        lsm.register(SensorMeta::new(
            100 + i,
            Point::new(50.0 + i as f64, 50.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    // Populate the L0 cache through a query (immediate write-back).
    let q = Query::range(
        Rect::from_coords(49.0, 49.0, 58.0, 51.0),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    let mut rng = StdRng::seed_from_u64(9);
    let out = lsm.execute(&q, Mode::HierCache, &probe, Timestamp(1_000), &mut rng);
    assert_eq!(out.readings.len(), 8);
    let report = lsm.merge(Timestamp(1_500));
    assert!(report.merged_sensors >= 8);
    assert!(
        report.carried_entries >= 8,
        "L0 cache entries must survive the merge (got {})",
        report.carried_entries
    );
    assert_eq!(report.l0_after, 0);
    // The carried entries now serve from the merged level without probing.
    let cached = lsm.execute(&q, Mode::HierCache, &Dead, Timestamp(2_000), &mut rng);
    assert_eq!(
        cached.result_size(),
        8,
        "carried entries did not serve after the merge"
    );
    assert_eq!(cached.stats.sensors_probed, 0);
}

#[test]
fn layered_sampling_keeps_the_expected_size() {
    let lsm = LsmTree::new(
        grid_sensors(128, 16),
        ColrConfig::default(),
        LsmConfig::default(),
        11,
    );
    // Second component: a merged level over late registrations.
    for i in 0..32 {
        lsm.register(SensorMeta::new(
            200 + i,
            Point::new((i % 8) as f64, 8.0 + (i / 8) as f64),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    lsm.merge(Timestamp(500));
    // Third component: fresh L0 arrivals.
    for i in 0..16 {
        lsm.register(SensorMeta::new(
            300 + i,
            Point::new((i % 4) as f64, 10.0 + (i / 4) as f64),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    assert!(lsm.stats().levels >= 2);
    assert_eq!(lsm.stats().l0_occupancy, 16);
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let q = Query::range(
        Rect::from_coords(-0.5, -0.5, 16.5, 14.5),
        TimeDelta::from_millis(EXPIRY_MS),
    )
    .with_sample_size(32.0);
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = lsm.execute(&q, Mode::Colr, &probe, Timestamp(1_000), &mut rng);
        let total = out.result_size();
        assert!(
            (24..=40).contains(&total),
            "seed {seed}: layered sample size {total} strays from target 32"
        );
        let targets: f64 = out.groups.iter().map(|g| g.target).sum();
        assert!(
            (targets - 32.0).abs() < 8.0,
            "seed {seed}: apportioned targets sum to {targets}"
        );
    }
}

#[test]
fn frozen_execution_defers_write_back_until_apply() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        2,
    );
    for i in 0..4 {
        lsm.register(SensorMeta::new(
            400 + i,
            Point::new(20.0 + i as f64, 20.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let q = Query::range(
        Rect::from_coords(-0.5, -0.5, 24.5, 24.5),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    let cut = lsm.cut();
    cut.advance(Timestamp(1_000));
    let snap = cut.freeze();
    let mut rng = StdRng::seed_from_u64(4);
    let (out, deferred) = lsm.execute_frozen(
        &snap,
        &q,
        Mode::HierCache,
        &probe,
        Timestamp(1_000),
        &mut rng,
    );
    assert_eq!(out.readings.len(), 68);
    assert_eq!(out.stats.cache_inserts, 0, "frozen run must not write back");
    assert_eq!(deferred.len(), 68);
    // Nothing cached yet: a dead-probe run finds an empty cache.
    let mut rng2 = StdRng::seed_from_u64(4);
    let (cold, _) = lsm.execute_frozen(
        &snap,
        &q,
        Mode::HierCache,
        &Dead,
        Timestamp(1_000),
        &mut rng2,
    );
    assert_eq!(cold.result_size(), 0);
    let applied = lsm.apply_deferred(&deferred, Timestamp(1_000));
    assert_eq!(applied, 68);
    // Now the cache serves the same population without probes.
    let mut rng3 = StdRng::seed_from_u64(4);
    let warm = lsm.execute(&q, Mode::HierCache, &Dead, Timestamp(1_200), &mut rng3);
    assert_eq!(warm.result_size(), 68);
}

#[test]
fn merge_mid_batch_routes_deferred_readings_to_the_new_level() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        3,
    );
    for i in 0..6 {
        lsm.register(SensorMeta::new(
            600 + i,
            Point::new(30.0 + i as f64, 30.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let q = Query::range(
        Rect::from_coords(29.0, 29.0, 36.5, 31.0),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    let cut = lsm.cut();
    cut.advance(Timestamp(1_000));
    let snap = cut.freeze();
    let mut rng = StdRng::seed_from_u64(8);
    let (out, deferred) = lsm.execute_frozen(
        &snap,
        &q,
        Mode::HierCache,
        &probe,
        Timestamp(1_000),
        &mut rng,
    );
    assert_eq!(out.readings.len(), 6);
    // The merge lands between execution and the deferred apply.
    lsm.merge(Timestamp(1_000));
    let applied = lsm.apply_deferred(&deferred, Timestamp(1_000));
    assert_eq!(applied, 6, "deferred readings must follow merged sensors");
    let mut rng2 = StdRng::seed_from_u64(8);
    let warm = lsm.execute(&q, Mode::HierCache, &Dead, Timestamp(1_200), &mut rng2);
    assert_eq!(warm.result_size(), 6);
}

/// [`AlwaysAvailable`], but its first wave first runs `on_first_wave` on
/// the index: a merge lands while a query's wave is out.
struct MergesMidWave<'a> {
    lsm: &'a LsmTree,
    on_first_wave: fn(&LsmTree, &Mutex<Option<BuiltMerge>>),
    waves: std::sync::atomic::AtomicUsize,
    built: Mutex<Option<BuiltMerge>>,
}

impl ProbeService for MergesMidWave<'_> {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        if self.waves.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
            (self.on_first_wave)(self.lsm, &self.built);
        }
        AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        }
        .probe_batch(ids, now)
    }
}

/// Six arrivals at (30..36, 30), registered into L0, and the viewport that
/// holds them and nothing else.
fn six_arrivals(lsm: &LsmTree) -> Query {
    for i in 0..6 {
        lsm.register(SensorMeta::new(
            600 + i,
            Point::new(30.0 + i as f64, 30.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    Query::range(
        Rect::from_coords(29.0, 29.0, 36.5, 31.0),
        TimeDelta::from_millis(EXPIRY_MS),
    )
}

/// How many of the viewport's sensors the caches alone answer for.
fn warm_count(lsm: &LsmTree, q: &Query) -> u64 {
    let mut rng = StdRng::seed_from_u64(8);
    let warm = lsm.execute(q, Mode::HierCache, &Dead, Timestamp(1_200), &mut rng);
    warm.result_size()
}

/// A merge published while a query's wave is out: the query read the cut
/// that held its sensors in L0, and the merge moved them into a new level
/// before their readings came back. The readings follow the sensors through
/// the directory, so a warm count finds all six.
#[test]
fn a_merge_published_while_a_wave_is_out_keeps_the_waves_readings() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        3,
    );
    let q = six_arrivals(&lsm);
    let probe = MergesMidWave {
        lsm: &lsm,
        on_first_wave: |lsm, _| assert_eq!(lsm.merge(Timestamp(1_000)).merged_sensors, 6),
        waves: Default::default(),
        built: Mutex::new(None),
    };
    let mut rng = StdRng::seed_from_u64(8);
    let cold = lsm.execute(&q, Mode::HierCache, &probe, Timestamp(1_000), &mut rng);
    assert_eq!((cold.result_size(), cold.stats.cache_inserts), (6, 6));
    assert_eq!((lsm.stats().levels, lsm.stats().l0_occupancy), (2, 0));
    assert_eq!(warm_count(&lsm, &q), 6, "the wave's readings were lost");
}

/// A merge built while a query's wave is out and published after the
/// query wrote back: the readings land in the level the merge absorbs,
/// after the build started, and the publication carries them into the level
/// it built. A warm count finds all six.
#[test]
fn a_merge_built_while_a_wave_is_out_carries_the_waves_readings() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        3,
    );
    let q = six_arrivals(&lsm);
    lsm.merge(Timestamp(500));
    // Two more arrivals, elsewhere: the next merge absorbs the six's level
    // (6 live < `level_ratio` 4 × 2 in the batch).
    for id in [700, 701] {
        lsm.register(SensorMeta::new(
            id,
            Point::new(50.0, id as f64 - 650.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    let probe = MergesMidWave {
        lsm: &lsm,
        on_first_wave: |lsm, built| *built.lock() = lsm.build_merge(Timestamp(1_000)).ok(),
        waves: Default::default(),
        built: Mutex::new(None),
    };
    let mut rng = StdRng::seed_from_u64(8);
    let cold = lsm.execute(&q, Mode::HierCache, &probe, Timestamp(1_000), &mut rng);
    assert_eq!((cold.result_size(), cold.stats.cache_inserts), (6, 6));
    let built = probe
        .built
        .lock()
        .take()
        .expect("the first wave built a merge");
    assert_eq!(built.state.levels.len() - built.absorb_from, 1);
    let report = lsm.publish_merge(built, Timestamp(1_000), std::time::Instant::now());
    assert_eq!(report.merged_sensors, 8);
    assert_eq!(
        warm_count(&lsm, &q),
        6,
        "the wave's readings were not carried"
    );
}

/// A merge published while a query writes its readings where it found
/// them: the merge absorbs the level being written after the write-back
/// saw the cut still published, and before the write. The write-back looks
/// at the published ordinal again after writing and writes the readings
/// once more through the directory, into the level the merge built. A warm
/// count finds all six.
#[test]
fn a_merge_published_while_a_query_writes_back_keeps_its_readings() {
    let lsm = Arc::new(LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        3,
    ));
    let q = six_arrivals(&lsm);
    lsm.merge(Timestamp(500));
    for id in [700, 701] {
        lsm.register(SensorMeta::new(
            id,
            Point::new(50.0, id as f64 - 650.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    let merger = Arc::clone(&lsm);
    let mut merged = false;
    crate::tree::tests::on_each_chunk(Some(Box::new(move |_| {
        if !std::mem::replace(&mut merged, true) {
            assert_eq!(merger.merge(Timestamp(1_000)).merged_sensors, 8);
        }
    })));
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let mut rng = StdRng::seed_from_u64(8);
    let cold = lsm.execute(&q, Mode::HierCache, &probe, Timestamp(1_000), &mut rng);
    crate::tree::tests::on_each_chunk(None);
    assert_eq!((cold.result_size(), cold.stats.cache_inserts), (6, 6));
    assert_eq!(lsm.stats().merges, 2, "the hook published a merge");
    assert_eq!(
        warm_count(&lsm, &q),
        6,
        "the write-back's readings were lost"
    );
}

#[test]
fn wants_merge_tracks_l0_capacity() {
    let lsm = LsmTree::new(
        grid_sensors(16, 4),
        ColrConfig::default(),
        LsmConfig {
            l0_capacity: 4,
            level_ratio: 4,
        },
        1,
    );
    assert!(!lsm.wants_merge());
    for i in 0..4 {
        lsm.register(SensorMeta::new(
            50 + i,
            Point::new(i as f64, -5.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    assert!(lsm.wants_merge());
    lsm.merge(Timestamp(100));
    assert!(!lsm.wants_merge());
}

#[test]
fn a_cut_taken_before_a_merge_still_holds_the_merged_sensors() {
    // A query clones the published cut and scans its L0 a moment later; a
    // merge may publish in between. The outgoing cut must stay whole — its
    // levels do not hold the merged sensor, so its L0 still has to.
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        1,
    );
    lsm.register(SensorMeta::new(
        500,
        Point::new(100.0, 100.0),
        TimeDelta::from_millis(EXPIRY_MS),
        1.0,
    ));
    let q = Query::range(
        Rect::from_coords(99.0, 99.0, 101.0, 101.0),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    let before = lsm.state.read().clone();
    assert_eq!(lsm.merge(Timestamp(1_000)).merged_sensors, 1);
    assert_eq!(before.l0.candidates(&q).len(), 1, "outgoing cut lost it");
    let after = lsm.state.read().clone();
    assert!(after.l0.is_empty(), "the published cut parks nothing");
    assert_eq!(after.levels.len(), before.levels.len() + 1);
}

#[test]
fn empty_merge_is_a_no_op() {
    let lsm = LsmTree::new(
        grid_sensors(16, 4),
        ColrConfig::default(),
        LsmConfig::default(),
        1,
    );
    let before = lsm.stats();
    let report = lsm.merge(Timestamp(100));
    assert_eq!(report.absorbed_levels, 0);
    assert_eq!(report.merged_sensors, 0);
    assert_eq!(lsm.stats(), before);
}

/// [`apportion`]'s shares of `r` over claimants of these weights.
fn split(r: usize, weights: &[f64], u: f64) -> Vec<usize> {
    let mut claims: Vec<Claim> = weights
        .iter()
        .enumerate()
        .map(|(id, &weight)| Claim {
            id,
            weight,
            share: 0,
        })
        .collect();
    apportion(r, &mut claims, u);
    claims.iter().map(|c| c.share).collect()
}

#[test]
fn apportionment_is_exact_and_deterministic() {
    // Exact: whole ideals need no `u`, and every split sums to `r`.
    for u in [0.0, 0.37, 0.999] {
        assert_eq!(split(10, &[3.0, 1.0, 1.0], u), vec![6, 2, 2]);
    }
    // Deterministic in `u`: the fractions 1/3 each lie end to end over
    // [0, 1), and the one leftover unit goes to whichever stretch holds `u`.
    let thirds = [1.0, 1.0, 1.0];
    assert_eq!(split(4, &thirds, 0.0), vec![2, 1, 1]);
    assert_eq!(split(4, &thirds, 0.5), vec![1, 2, 1]);
    assert_eq!(split(4, &thirds, 0.9), vec![1, 1, 2]);
    // Unbiased: over a grid of `u` every target's mean share is its ideal,
    // down to one unit over four equal shards and a 1-in-101 long shot.
    let grid = 10_000;
    for (r, weights) in [
        (1, vec![1.0, 1.0, 1.0, 1.0]),
        (3, vec![1.0, 1.0, 1.0, 1.0]),
        (1, vec![1.0, 100.0]),
        (7, vec![300.0, 60.0, 12.0, 20.0]),
    ] {
        let total: f64 = weights.iter().sum();
        let mut sums = vec![0usize; weights.len()];
        for k in 0..grid {
            let shares = split(r, &weights, (k as f64 + 0.5) / grid as f64);
            assert_eq!(shares.iter().sum::<usize>(), r);
            for (sum, share) in sums.iter_mut().zip(shares) {
                *sum += share;
            }
        }
        for (&w, sum) in weights.iter().zip(sums) {
            let (mean, ideal) = (sum as f64 / grid as f64, r as f64 * w / total);
            assert!(
                (mean - ideal).abs() <= 2.0 / grid as f64,
                "r={r}: mean share {mean} of weight {w}, ideal {ideal}"
            );
        }
    }
    // No weight at all: everything lands on the first claimant, and no
    // claimant is nothing to do.
    assert_eq!(split(5, &[0.0, 0.0], 0.5), vec![5, 0]);
    assert_eq!(split(5, &[], 0.5), Vec::<usize>::new());
    // An absurd target is capped where the f64 ideals stop being exact: it
    // returns at once and the floor sum cannot overflow.
    let huge = split(usize::MAX, &[1.0, 1.0], 0.5);
    assert_eq!(huge, vec![1 << 52, 1 << 52]);
    assert_eq!(unit_draw(0), 0.0);
    assert!(unit_draw(u64::MAX) < 1.0);
}

#[test]
fn geometric_absorption_bounds_level_count() {
    let lsm = LsmTree::new(
        grid_sensors(256, 16),
        ColrConfig::default(),
        LsmConfig {
            l0_capacity: 8,
            level_ratio: 4,
        },
        17,
    );
    let mut next_id = 1_000u32;
    for round in 0..12 {
        for _ in 0..8 {
            lsm.register(SensorMeta::new(
                next_id,
                Point::new((next_id % 32) as f64, 20.0 + (next_id % 7) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            ));
            next_id += 1;
        }
        lsm.merge(Timestamp(1_000 + round));
        assert!(
            lsm.stats().levels <= 5,
            "round {round}: {} levels — trailing runs are not being absorbed",
            lsm.stats().levels
        );
    }
    assert_eq!(lsm.stats().live_sensors, 256 + 96);
}

/// The copy the router's map refresh used to ask the index for (the method
/// this helper is named after, deleted in PR 21): each level's live metas
/// collected, then L0's snapshot — the reference order for
/// [`LsmTree::for_each_live_location`].
fn live_sensor_metas_by_copy(lsm: &LsmTree) -> Vec<SensorMeta> {
    let state = lsm.state.read().clone();
    let mut out = Vec::new();
    for level in &state.levels {
        out.extend(level.live_global_metas());
    }
    out.extend(state.l0.snapshot().into_iter().map(|p| p.meta));
    out
}

fn visited(lsm: &LsmTree) -> Vec<Point> {
    let mut seen = Vec::new();
    lsm.for_each_live_location(|p| seen.push(p));
    seen
}

#[test]
fn the_visitor_yields_the_live_locations_in_levels_then_l0_order() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig {
            l0_capacity: 4,
            level_ratio: 2,
        },
        9,
    );
    let by_copy = |lsm: &LsmTree| -> Vec<Point> {
        live_sensor_metas_by_copy(lsm)
            .iter()
            .map(|m| m.location)
            .collect()
    };
    assert_eq!(visited(&lsm), by_copy(&lsm), "one level");
    assert_eq!(visited(&lsm).len(), 64);

    // Two merged levels beside the base, a retire in each kind of component,
    // and an L0 with a live and a retired sensor.
    let register = |id: u32| {
        lsm.register(SensorMeta::new(
            id,
            Point::new(id as f64 + 0.25, -(id as f64)),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    };
    (100..104).for_each(register);
    lsm.merge(Timestamp(1_000));
    (104..106).for_each(register);
    lsm.merge(Timestamp(2_000));
    (106..109).for_each(register);
    assert!(lsm.stats().levels >= 2 && lsm.stats().l0_occupancy == 3);
    for id in [3, 101, 107] {
        assert!(lsm.retire(SensorId(id)));
    }
    let seen = visited(&lsm);
    assert_eq!(seen, by_copy(&lsm), "levels, then L0, tombstones skipped");
    assert_eq!(seen.len(), 64 + 9 - 3);
    assert_eq!(seen[0], Point::new(0.0, 0.0), "the base level comes first");
    assert_eq!(
        seen[seen.len() - 2..],
        [Point::new(106.25, -106.0), Point::new(108.25, -108.0)],
        "L0 last, in registration order, 107 retired"
    );
    assert!(!seen.contains(&Point::new(3.0, 0.0)));

    // A tombstone set after the level was built is skipped by the next pass.
    assert!(lsm.retire(SensorId(10)));
    let after = visited(&lsm);
    assert_eq!(after.len(), seen.len() - 1);
    assert!(!after.contains(&Point::new(2.0, 1.0)));
    assert_eq!(after, by_copy(&lsm));

    // Every sensor retired: nothing is visited.
    for m in live_sensor_metas_by_copy(&lsm) {
        assert!(lsm.retire(m.id));
    }
    assert!(visited(&lsm).is_empty());
}

/// [`AlwaysAvailable`], but the first wave that asks for `victim` retires it
/// before answering: the retire lands after the query found the sensor live
/// and before its reading is written back.
struct RetiresMidWave<'a> {
    lsm: &'a LsmTree,
    victim: SensorId,
}

impl ProbeService for RetiresMidWave<'_> {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        if ids.contains(&self.victim) {
            self.lsm.retire(self.victim);
        }
        AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        }
        .probe_batch(ids, now)
    }
}

#[test]
fn a_write_back_that_lost_the_race_to_a_retire_caches_nothing_of_the_retired_sensor() {
    let everything = Query::range(
        Rect::from_coords(-1.0, -1.0, 200.0, 200.0),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    // A fresh index, then two levels with the victim in the merged one.
    for layered in [false, true] {
        let lsm = LsmTree::new(
            grid_sensors(64, 8),
            ColrConfig::default(),
            LsmConfig::default(),
            5,
        );
        let mut population = 64;
        let mut victim = SensorId(10);
        if layered {
            for id in 500..508 {
                lsm.register(SensorMeta::new(
                    id,
                    Point::new(100.0 + id as f64 - 500.0, 100.0),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                ));
            }
            lsm.merge(Timestamp(500));
            assert_eq!(lsm.stats().levels, 2);
            population += 8;
            victim = SensorId(503);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let probe = RetiresMidWave { lsm: &lsm, victim };
        let cold = lsm.execute(
            &everything,
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        // The sensor was live when the query chose it, so this answer has it.
        assert_eq!(cold.result_size(), population);
        assert_eq!(lsm.stats().tombstones, 1);
        // Nothing of it stayed behind: the caches alone answer for everyone
        // else and for no one else.
        let warm = lsm.execute(
            &everything,
            Mode::HierCache,
            &Dead,
            Timestamp(2_000),
            &mut rng,
        );
        assert_eq!(warm.stats.sensors_probed, 0, "layered: {layered}");
        assert_eq!(warm.result_size(), population - 1, "layered: {layered}");
        assert!(warm.readings.iter().all(|r| r.sensor != victim));
    }
}

/// A merge takes L0's prefix as long as L0 was when it cut. A sensor retired
/// inside the cut before the merge began is dropped, not built over; one
/// retired inside the cut while the level builds is tombstoned in it; one
/// registered after the cut stays parked; and one registered after the cut
/// and retired before publication is dropped with the outgoing L0 — none of
/// them comes back, through a query, a deferred write-back, a retire or the
/// next merge.
#[test]
fn a_merge_cut_drops_what_was_retired_in_it_and_parks_what_came_after() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig::default(),
        4,
    );
    let register = |id: u32| {
        lsm.register(SensorMeta::new(
            id,
            Point::new(id as f64 - 80.0, 20.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    };
    (100..104).for_each(register);
    assert!(lsm.retire(SensorId(101)), "retired inside the cut");
    let built = lsm.build_merge(Timestamp(500)).expect("L0 has a batch");
    assert_eq!(built.cut, 4);
    // While the level builds.
    assert!(
        lsm.retire(SensorId(102)),
        "inside the cut, racing the build"
    );
    (200..203).for_each(register);
    assert!(
        lsm.retire(SensorId(200)),
        "after the cut, before publication"
    );
    let report = lsm.publish_merge(built, Timestamp(500), std::time::Instant::now());
    assert_eq!(report.dropped_tombstones, 2, "101 and 200");
    assert_eq!(report.merged_sensors, 2, "100 and 103; 102 tombstoned");
    assert_eq!(report.l0_after, 2, "201 and 202 parked");
    let stats = lsm.stats();
    assert_eq!((stats.levels, stats.l0_occupancy), (2, 2));
    assert_eq!((stats.live_sensors, stats.tombstones), (64 + 4, 1));
    for gone in [101, 102, 200] {
        assert!(!lsm.retire(SensorId(gone)), "{gone} retired twice");
    }

    // Queries: the live sensors and no other.
    let everything = Query::range(
        Rect::from_coords(-1.0, -1.0, 200.0, 200.0),
        TimeDelta::from_millis(EXPIRY_MS),
    );
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let now = Timestamp(1_000);
    let out = lsm.execute(&everything, Mode::RTree, &probe, now, &mut rng);
    let mut seen: Vec<u32> = out.readings.iter().map(|r| r.sensor.0).collect();
    seen.sort_unstable();
    let mut live: Vec<u32> = (0..64).chain([100, 103, 201, 202]).collect();
    live.sort_unstable();
    assert_eq!(seen, live);

    // Deferred write-backs reach the parked and merged sensors by the
    // directory, and nothing of the retired ones is cached.
    let reading = |id: u32| Reading {
        sensor: SensorId(id),
        value: 1.0,
        timestamp: now,
        expires_at: Timestamp(now.0 + EXPIRY_MS),
    };
    let deferred: Vec<Reading> = [100, 101, 102, 200, 201].map(reading).to_vec();
    assert_eq!(lsm.apply_deferred(&deferred, now), 2, "100 and 201");
    let cached = lsm.execute(&everything, Mode::HierCache, &Dead, now, &mut rng);
    let mut from_cache: Vec<u32> = cached.readings.iter().map(|r| r.sensor.0).collect();
    from_cache.sort_unstable();
    assert_eq!(from_cache, vec![100, 201]);

    // The next merge drops 102 and builds over the parked pair.
    let report = lsm.merge(Timestamp(2_000));
    assert_eq!(report.dropped_tombstones, 1);
    let stats = lsm.stats();
    assert_eq!(
        (stats.live_sensors, stats.tombstones, stats.l0_occupancy),
        (68, 0, 0)
    );
    assert!(!lsm.retire(SensorId(200)));
    assert!(lsm.retire(SensorId(202)), "a parked sensor merged later");
}

/// The directory holds chunks in proportion to the sensors it knows: a
/// fleet registered and retired oldest-first through many merges frees the
/// chunks its retired ids leave.
#[test]
fn the_directory_frees_the_chunks_of_dropped_sensors() {
    let lsm = LsmTree::new(
        grid_sensors(64, 8),
        ColrConfig::default(),
        LsmConfig {
            l0_capacity: 256,
            level_ratio: 4,
        },
        5,
    );
    let cohort = 1_000u32;
    for id in 64..20_064u32 {
        lsm.register(SensorMeta::new(
            id,
            Point::new((id % 97) as f64, (id % 89) as f64),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
        if id >= 64 + cohort {
            assert!(lsm.retire(SensorId(id - cohort)));
        }
        if lsm.wants_merge() {
            lsm.merge(Timestamp(id as u64));
        }
    }
    let stats = lsm.stats();
    let known = stats.live_sensors + stats.tombstones;
    let chunks = lsm.directory.lock().table.chunks();
    assert!(
        chunks <= known.div_ceil(crate::id_table::CHUNK) + 2,
        "{chunks} chunks for {known} sensors known"
    );
}

#[test]
fn the_primary_level_ties_to_the_oldest() {
    let lsm = LsmTree::new(
        grid_sensors(16, 4),
        ColrConfig::default(),
        LsmConfig::default(),
        1,
    );
    // A second level of 4 beside the base (16 is not small beside 4).
    for id in 100..104 {
        lsm.register(SensorMeta::new(
            id,
            Point::new(id as f64, 50.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
        ));
    }
    assert_eq!(lsm.merge(Timestamp(100)).absorbed_levels, 0);
    for id in 0..12 {
        assert!(lsm.retire(SensorId(id)));
    }
    let state = lsm.cut();
    let live: Vec<usize> = state.levels.iter().map(|l| l.live()).collect();
    assert_eq!(live, [4, 4]);
    assert_eq!(primary_of(&state.levels), 0, "a tie goes to the oldest");
    assert!(lsm.retire(SensorId(12)));
    assert_eq!(primary_of(&state.levels), 1, "most live sensors wins");
    // The cut keeps the primary it was published with, 16 live beside 4.
    assert_eq!(state.primary().key(), 0);
    assert_eq!(lsm.cut().primary().key(), 0);
}

fn city_sensor(id: usize, at: Point) -> SensorMeta {
    SensorMeta::new(id as u32, at, TimeDelta::from_millis(EXPIRY_MS), 1.0)
}

/// Every node, bit for bit, and every sensor's home leaf.
#[track_caller]
fn assert_same_tree(a: &ColrTree, b: &ColrTree) {
    assert_eq!(a.node_count(), b.node_count());
    for id in a.node_ids() {
        assert_eq!(format!("{:?}", a.node(id)), format!("{:?}", b.node(id)));
    }
    for s in 0..a.sensors().len() as u32 {
        assert_eq!(a.home_leaf(SensorId(s)), b.home_leaf(SensorId(s)));
    }
}

#[test]
fn a_merge_of_l0_alone_builds_what_a_cold_build_does() {
    let seed = 23;
    let lsm = LsmTree::new(
        grid_sensors(4_096, 64),
        ColrConfig::default(),
        LsmConfig::default(),
        seed,
    );
    for (i, at) in city_points(1_024, 5).into_iter().enumerate() {
        lsm.register(city_sensor(10_000 + i, at));
    }
    let report = lsm.merge(Timestamp(100));
    assert_eq!((report.absorbed_levels, report.merged_sensors), (0, 1_024));
    let state = lsm.state.read().clone();
    let merged = state.levels[1].tree();
    let cold = ColrTree::build(
        merged.sensors().to_vec(),
        ColrConfig::default(),
        derive_seed(seed, 1),
    );
    assert_same_tree(merged, &cold);
}

/// The mean squared distance from a sensor to its leaf's centroid, and the
/// mean leaf MBR area.
fn leaf_spread(tree: &ColrTree) -> (f64, f64) {
    let (mut sq, mut area, mut leaves) = (0.0, 0.0, 0);
    for id in tree.node_ids() {
        let node = tree.node(id);
        let crate::tree::Children::Leaf(members) = node.children else {
            continue;
        };
        let at: Vec<Point> = members.iter().map(|&s| tree.sensor(s).location).collect();
        let n = at.len() as f64;
        let (x, y) = at.iter().fold((0.0, 0.0), |(x, y), p| (x + p.x, y + p.y));
        let centroid = Point::new(x / n, y / n);
        sq += at.iter().map(|p| p.distance_sq(&centroid)).sum::<f64>();
        area += node.bbox.area();
        leaves += 1;
    }
    (sq / tree.sensors().len() as f64, area / leaves as f64)
}

/// `churn_mix`'s steady state: a cohort of 4,096 sensors on the city map,
/// and eight merges that each retire the oldest 1,024 and take 1,024 new
/// ones, so 3,072 of each merge's sensors come with the leaves the last
/// merge built. Against a cold build of the same population under the same
/// seed, every seeded merge's leaves are no larger, and across the eight
/// merges they are no looser.
///
/// Looseness is not held merge by merge: a cold build is a fresh roll of
/// its random start (1,399–1,729 here), while a seeded chain carries its
/// start along, so one lucky cold roll can beat it (merge 2 here: 1,462
/// seeded, 1,399 cold; on other maps a bad base build is carried for a few
/// merges).
#[test]
fn seeded_merges_build_leaves_no_worse_than_a_cold_build() {
    let seed = 20_080_407;
    let config = ColrConfig::default();
    let at = city_points(4_096 + 8 * 1_024, 11);
    let lsm = LsmTree::new(
        (0..4_096).map(|i| city_sensor(i, at[i])).collect(),
        config.clone(),
        LsmConfig::default(),
        seed,
    );
    let (mut seeded_sq, mut cold_sq) = (0.0, 0.0);
    for merge in 1..=8 {
        let oldest = (merge - 1) * 1_024;
        for id in oldest..oldest + 1_024 {
            assert!(lsm.retire(SensorId(id as u32)));
            lsm.register(city_sensor(id + 4_096, at[id + 4_096]));
        }
        let report = lsm.merge(Timestamp(merge as u64));
        assert_eq!((report.absorbed_levels, report.merged_sensors), (1, 4_096));
        let state = lsm.state.read().clone();
        let seeded = state.levels[0].tree();
        let cold = ColrTree::build(
            seeded.sensors().to_vec(),
            config.clone(),
            derive_seed(seed, merge as u64),
        );
        let (s, c) = (leaf_spread(seeded), leaf_spread(&cold));
        println!(
            "merge {merge}: mean squared distance {:.0} seeded, {:.0} cold; mean leaf area {:.0} seeded, {:.0} cold",
            s.0, c.0, s.1, c.1
        );
        assert_ne!(s, c, "merge {merge}: the seeds were not used");
        assert!(
            s.1 <= c.1,
            "merge {merge}: leaves larger than cold ({s:?} vs {c:?})"
        );
        seeded_sq += s.0;
        cold_sq += c.0;
    }
    assert!(
        seeded_sq <= cold_sq,
        "seeded leaves looser than cold: {seeded_sq:.0} vs {cold_sq:.0} summed over 8 merges"
    );
}

/// FNV-1a-64 over the bytes of `s`, carried in `d`.
fn fnv(d: &mut u64, s: &str) {
    for b in s.bytes() {
        *d = (*d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The digest of [`a_merge_chain_builds_the_recorded_trees`], recorded
/// before the merge's groups and nodes went flat and its cells were filed on
/// packed keys: a change to the bulk build that keeps every tree keeps it.
const MERGE_CHAIN: u64 = 0xac21_153a_d0dc_72aa;

/// `seeded_merges_build_leaves_no_worse_than_a_cold_build`'s churn, pinned
/// bit for bit: a cohort of 4,096 on the city map, 18 merges that each
/// retire the oldest 1,024 and take 1,024 new ones (seeded direct k-means),
/// then one that takes 2,048 and retires none (6,144 points: the grid path).
/// After every merge, every level of the published cut is digested — each
/// node's `Debug`, each sensor's home leaf — with the merge's report, its
/// wall time left out.
#[test]
fn a_merge_chain_builds_the_recorded_trees() {
    let seed = 20_080_407;
    let merges = 18;
    let at = city_points(4_096 + (merges + 2) * 1_024, 13);
    let lsm = LsmTree::new(
        (0..4_096).map(|i| city_sensor(i, at[i])).collect(),
        ColrConfig::default(),
        LsmConfig::default(),
        seed,
    );
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    let mut next = 4_096;
    for merge in 1..=merges + 1 {
        let (retire, take) = if merge <= merges {
            (1_024, 1_024)
        } else {
            (0, 2_048)
        };
        let oldest = (merge - 1) * 1_024;
        for id in oldest..oldest + retire {
            assert!(lsm.retire(SensorId(id as u32)));
        }
        for _ in 0..take {
            lsm.register(city_sensor(next, at[next]));
            next += 1;
        }
        let report = MergeReport {
            duration_us: 0,
            ..lsm.merge(Timestamp(merge as u64))
        };
        let merged = if merge <= merges { 4_096 } else { 6_144 };
        assert_eq!((report.absorbed_levels, report.merged_sensors), (1, merged));
        fnv(&mut d, &format!("{report:?}"));
        let state = lsm.cut();
        for level in &state.levels {
            let tree = level.tree();
            fnv(&mut d, &format!("level {} of {}", level.key(), level.len()));
            for id in tree.node_ids() {
                fnv(&mut d, &format!("{:?}", tree.node(id)));
            }
            for s in 0..tree.sensors().len() as u32 {
                fnv(&mut d, &format!("{:?}", tree.home_leaf(SensorId(s))));
            }
        }
    }
    assert_eq!(
        d, MERGE_CHAIN,
        "merge chain digest {d:#018x}, recorded {MERGE_CHAIN:#018x}"
    );
}

/// A random viewport over the 100-wide square the count property's sensors
/// lie in: a rectangle, a triangle or a circle, sometimes past the edge.
fn random_region(rng: &mut StdRng) -> Region {
    let mut at = || {
        Point::new(
            rng.random_range(-10.0..110.0),
            rng.random_range(-10.0..110.0),
        )
    };
    let (a, b, c) = (at(), at(), at());
    match rng.random_range(0..3) {
        0 => Rect::from_coords(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y)).into(),
        1 => Polygon::new(vec![a, b, c]).into(),
        _ => Circle::new(a, rng.random_range(1.0..70.0)).into(),
    }
}

/// The level's per-node and per-kind-row live counts, recounted bottom-up
/// from its tombstone mask (children follow their parents in the arena).
fn recounted(level: &LsmLevel) -> (Vec<u32>, Vec<u32>) {
    let arena = level.tree().sampling_arena();
    let mut nodes = vec![0u32; arena.node_count()];
    let rows = (0..arena.node_count()).map(|i| arena.kind_weights(i).len());
    let mut rows = vec![0u32; rows.sum()];
    for idx in (0..arena.node_count()).rev() {
        for &s in arena.leaf_sensors(idx) {
            if !level.is_tombstoned(s) {
                nodes[idx] += 1;
                let kind = level.tree().sensor(s).kind;
                rows[arena
                    .kind_row(idx, kind)
                    .expect("a leaf has its sensors' kinds")] += 1;
            }
        }
        for c in arena.child_range(idx) {
            nodes[idx] += nodes[c];
            for &(kind, _) in arena.kind_weights(c) {
                let (mine, child) = (arena.kind_row(idx, kind), arena.kind_row(c, kind));
                rows[mine.expect("a parent has its children's kinds")] +=
                    rows[child.expect("a node has its own kinds")];
            }
        }
    }
    (nodes, rows)
}

/// How many of `metas` are of `kind` (any when `None`) inside `region`.
fn flat_count(metas: &[SensorMeta], region: &Region, kind: Option<u16>) -> u64 {
    let matches =
        |m: &&SensorMeta| kind.is_none_or(|k| m.kind == k) && region.contains_point(&m.location);
    metas.iter().filter(matches).count() as u64
}

/// One case of the count property, everything drawn from `seed`: a base
/// level, up to two merged levels and an L0 over random sensors of three
/// kinds, random retires in every component (the live counts recounted
/// after each), then random regions with and without a kind.
fn counts_match_a_flat_scan(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u32;
    let mut sensor = |rng: &mut StdRng| {
        let at = Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0));
        let meta = SensorMeta::new(next_id, at, TimeDelta::from_millis(EXPIRY_MS), 1.0);
        next_id += 1;
        meta.with_kind(rng.random_range(0..3))
    };
    let base: Vec<SensorMeta> = (0..rng.random_range(1..300))
        .map(|_| sensor(&mut rng))
        .collect();
    let config = LsmConfig {
        l0_capacity: 8,
        level_ratio: 2,
    };
    let lsm = LsmTree::new(base, ColrConfig::default(), config, seed);
    for round in 0..rng.random_range(0..4) {
        if round > 0 {
            lsm.merge(Timestamp(round * 1_000));
        }
        for _ in 0..rng.random_range(0..40) {
            lsm.register(sensor(&mut rng));
        }
    }
    let what = format!("seed {seed}");
    let mut ids: Vec<u32> = (0..next_id).collect();
    for i in 0..rng.random_range(0..next_id as usize / 2 + 1) {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
        assert!(lsm.retire(SensorId(ids[i])), "{what}");
        for level in &lsm.cut().levels {
            assert_eq!(level.live_counts(), recounted(level), "{what}: retire {i}");
        }
    }

    let cut = lsm.cut();
    let l0: Vec<SensorMeta> = cut.l0.snapshot().iter().map(|p| p.meta).collect();
    let (mut stack, mut class) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        let region = random_region(&mut rng);
        for kind in [None, Some(rng.random_range(0..4))] {
            let what = format!("{what}: {region:?}, kind {kind:?}");
            let mut live = flat_count(&l0, &region, kind);
            assert_eq!(cut.l0.count_in(&region, kind), live, "{what}: L0");
            for level in &cut.levels {
                let (n_live, n_built) = level.count_in(&region, kind, &mut stack, &mut class);
                let built: Vec<SensorMeta> =
                    (0..level.len()).map(|j| level.global_meta(j)).collect();
                let flat = flat_count(&level.live_global_metas(), &region, kind);
                assert_eq!(n_live, flat, "{what}: level {} live", level.key());
                assert_eq!(
                    n_built,
                    flat_count(&built, &region, kind),
                    "{what}: level {} built",
                    level.key()
                );
                live += flat;
            }
            assert_eq!(cut.count_in(&region, kind), live, "{what}: the cut");
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

    /// One level's count, L0's and the cut's sum each equal a flat scan of
    /// the live sensors, and the per-node live counts a recount. The
    /// stand-in does not shrink: a failure prints the case's seed, and
    /// `counts_match_a_flat_scan(seed)` replays it.
    #[test]
    fn a_count_is_a_flat_scan_of_the_live_sensors_in_the_region(seed in 0..u64::MAX) {
        counts_match_a_flat_scan(seed);
    }
}
