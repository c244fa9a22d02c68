//! Property-based testing of the whole slot-cache *tree* against brute
//! force: after any sequence of inserts, updates, batches, rolls, and
//! evictions, every node's per-slot aggregate must equal the aggregate
//! recomputed from the raw leaf entries below it — the invariant the paper's
//! bottom-up trigger maintenance is supposed to preserve — and the cached
//! readings themselves, in eviction order, must be those of a flat model that
//! knows nothing of nodes, stripes or buckets.

use std::collections::BTreeMap;

use colr_repro::colr::tree::{BuildStrategy, CachedEntry, Children, ColrTree};
use colr_repro::colr::{
    ColrConfig, PartialAgg, Reading, SensorId, SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::geo::Point;
use proptest::prelude::*;

const EXPIRY_MS: u64 = 240_000;
const CAPACITY: usize = 20;

#[derive(Debug, Clone)]
enum Op {
    /// Insert/update a reading for sensor `id % population`.
    Insert { sensor: u32, value: i32 },
    /// One `apply_readings` call: `(sensor, value, time to live in ms)` per
    /// reading, the first sensor named once more at the end when `repeat`.
    Batch {
        readings: Vec<(u32, i32, u64)>,
        repeat: bool,
    },
    /// Advance the clock by this many ms — now and then past the whole
    /// window in one step.
    Advance(u64),
    /// Export the cached entries and restore them into a fresh tree.
    RoundTrip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let reading = (0u32..64, -50i32..50, 10_000u64..=EXPIRY_MS);
    prop_oneof![
        10 => (0u32..64, -50i32..50).prop_map(|(sensor, value)| Op::Insert { sensor, value }),
        4 => (proptest::collection::vec(reading, 2..12), 0u32..2)
            .prop_map(|(readings, repeat)| Op::Batch { readings, repeat: repeat == 1 }),
        3 => (1u64..120_000).prop_map(Op::Advance),
        1 => (0u64..200_000).prop_map(|extra| Op::Advance(EXPIRY_MS + 30_000 + extra)),
        1 => Just(Op::RoundTrip),
    ]
}

fn sensors() -> Vec<SensorMeta> {
    (0..64)
        .map(|i| {
            SensorMeta::new(
                i,
                Point::new((i % 8) as f64, (i / 8) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
            .with_kind((i % 3) as u16)
        })
        .collect()
}

fn config(cache_capacity: Option<usize>, build: BuildStrategy) -> ColrConfig {
    ColrConfig {
        cache_capacity,
        // An STR leaf's sensors are not in id order, a k-means leaf's are.
        build,
        ..Default::default()
    }
}

/// What the tree should be caching, kept the naive way: one map, rolled and
/// evicted by scanning it.
struct FlatModel {
    /// Per sensor: the cached entry, keyed for eviction by
    /// `(expiry slot, fetched_at, sensor)`.
    cached: BTreeMap<u32, CachedEntry>,
    capacity: Option<usize>,
    slot_ms: u64,
    num_slots: u64,
}

impl FlatModel {
    fn slot(&self, t: Timestamp) -> u64 {
        t.millis() / self.slot_ms
    }

    fn evict_key(&self, e: &CachedEntry) -> (u64, Timestamp, u32) {
        (
            self.slot(e.reading.expires_at),
            e.fetched_at,
            e.reading.sensor.0,
        )
    }

    fn roll(&mut self, now: Timestamp) {
        let base = self.slot(now);
        let slot_ms = self.slot_ms;
        self.cached
            .retain(|_, e| e.reading.expires_at.millis() / slot_ms >= base);
    }

    /// A batch is applied as duplicate-free runs, capacity enforced after
    /// each: the oldest slot's least recently fetched reading goes first.
    fn apply(&mut self, batch: &[Reading], now: Timestamp) {
        let mut run_start = 0;
        for i in 0..=batch.len() {
            let repeats = i < batch.len()
                && batch[run_start..i]
                    .iter()
                    .any(|r| r.sensor == batch[i].sensor);
            if !(repeats || i == batch.len()) {
                continue;
            }
            self.roll(now);
            for &reading in &batch[run_start..i] {
                let slot = self.slot(reading.expires_at);
                if slot <= self.slot(now) + self.num_slots && reading.expires_at > now {
                    let entry = CachedEntry {
                        reading,
                        fetched_at: now,
                    };
                    self.cached.insert(reading.sensor.0, entry);
                }
            }
            while self.capacity.is_some_and(|cap| self.cached.len() > cap) {
                let victim = self
                    .cached
                    .values()
                    .min_by_key(|e| self.evict_key(e))
                    .expect("over capacity means non-empty")
                    .reading
                    .sensor;
                self.cached.remove(&victim.0);
            }
            run_start = i;
        }
    }

    /// The cached entries in eviction order.
    fn in_eviction_order(&self) -> Vec<CachedEntry> {
        let mut out: Vec<CachedEntry> = self.cached.values().copied().collect();
        out.sort_by_key(|e| self.evict_key(e));
        out
    }
}

/// Recomputes the expected per-slot aggregate of `node` from the raw leaf
/// entries in its subtree — of one sensor kind when `kind` names one.
fn brute_force_slot(
    tree: &ColrTree,
    node: colr_repro::colr::NodeId,
    slot: u64,
    kind: Option<u16>,
) -> PartialAgg {
    let mut agg = PartialAgg::empty();
    let mut stack = vec![node];
    let width = tree.slot_config().slot_width.millis();
    while let Some(cur) = stack.pop() {
        let n = tree.node(cur);
        match &n.children {
            Children::Leaf(_) => {
                tree.with_cache(cur, |c| {
                    for e in &c.entries {
                        let of_kind = kind.is_none_or(|k| tree.sensor(e.reading.sensor).kind == k);
                        if of_kind && e.reading.expires_at.millis() / width == slot {
                            agg.insert(e.reading.value);
                        }
                    }
                });
            }
            Children::Internal(children) => stack.extend(children.iter()),
        }
    }
    agg
}

fn slots_around(tree: &ColrTree, now: Timestamp) -> std::ops::RangeInclusive<u64> {
    let here = tree.slot_config().slot_of(now);
    here.saturating_sub(1)..=here + tree.config().num_slots as u64 + 2
}

/// `validate()`, then every node × slot against brute force.
fn assert_matches_brute_force(tree: &ColrTree, now: Timestamp) {
    tree.validate().expect("structural invariants");
    for id in tree.node_ids() {
        for slot in slots_around(tree, now) {
            let expected = brute_force_slot(tree, id, slot, None);
            let actual = tree
                .with_cache(id, |c| c.cache.slot(slot).map(|s| s.agg))
                .unwrap_or_else(PartialAgg::empty);
            prop_assert_eq!(
                actual.count,
                expected.count,
                "count mismatch at {:?} slot {}",
                id,
                slot
            );
            prop_assert!(
                (actual.sum - expected.sum).abs() < 1e-9,
                "sum mismatch at {:?} slot {}: {} vs {}",
                id,
                slot,
                actual.sum,
                expected.sum
            );
            if expected.count > 0 {
                prop_assert_eq!(
                    actual.min,
                    expected.min,
                    "min mismatch at {:?} slot {}",
                    id,
                    slot
                );
                prop_assert_eq!(
                    actual.max,
                    expected.max,
                    "max mismatch at {:?} slot {}",
                    id,
                    slot
                );
            }
            // Per-kind sub-aggregates must partition the total — each the
            // aggregate of its kind's readings, whether the node keeps its
            // rows or has held one kind and keeps none.
            if let Some(s) = tree.with_cache(id, |c| c.cache.slot(slot)) {
                let kind_total: u64 = s.by_kind.iter().map(|(_, a)| a.count).sum();
                prop_assert_eq!(kind_total, s.agg.count, "kind partition broken at {:?}", id);
                for kind in 0..3 {
                    let of_kind = brute_force_slot(tree, id, slot, Some(kind));
                    let row = s.kind_agg(kind);
                    prop_assert_eq!(
                        (row.count, row.min, row.max),
                        (of_kind.count, of_kind.min, of_kind.max),
                        "kind {} row at {:?} slot {}",
                        kind,
                        id,
                        slot
                    );
                    prop_assert!((row.sum - of_kind.sum).abs() < 1e-9);
                }
            }
        }
    }
}

/// Restores `tree`'s exported entries into a fresh tree over the same
/// sensors: what arrives is the live part of the export in the same order,
/// and every slot that is not the half-expired boundary one aggregates to
/// what the source holds.
fn assert_round_trips(tree: &ColrTree, now: Timestamp) {
    tree.advance(now);
    let exported = tree.cached_entries();
    let fresh = ColrTree::build(sensors(), tree.config().clone(), 7);
    let restored = fresh.restore_entries(&exported, now);
    let live: Vec<CachedEntry> = exported
        .iter()
        .copied()
        .filter(|e| e.reading.is_live(now))
        .collect();
    prop_assert_eq!(restored, live.len());
    prop_assert_eq!(fresh.cached_entries(), live);
    assert_matches_brute_force(&fresh, now);
    let boundary = tree.slot_config().slot_of(now);
    for id in tree.node_ids() {
        for slot in slots_around(tree, now).filter(|&s| s != boundary) {
            let source = tree.with_cache(id, |c| c.cache.slot(slot).map(|s| s.agg));
            let copy = fresh.with_cache(id, |c| c.cache.slot(slot).map(|s| s.agg));
            match (source, copy) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!((a.count, a.min, a.max), (b.count, b.min, b.max));
                    prop_assert!((a.sum - b.sum).abs() < 1e-9);
                }
                (a, b) => panic!("{id:?} slot {slot}: source {a:?}, restored {b:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_node_slot_matches_brute_force(ops in proptest::collection::vec(op_strategy(), 1..60),
                                           cap in prop_oneof![Just(None), Just(Some(CAPACITY))],
                                           build in prop_oneof![Just(BuildStrategy::default()),
                                                                Just(BuildStrategy::Str)]) {
        let tree = ColrTree::build(sensors(), config(cap, build), 7);
        let mut model = FlatModel {
            cached: BTreeMap::new(),
            capacity: cap,
            slot_ms: tree.slot_config().slot_width.millis(),
            num_slots: tree.config().num_slots as u64,
        };
        let mut now = Timestamp(1_000);
        let reading = |sensor: u32, value: i32, ttl: u64, now: Timestamp| Reading {
            sensor: SensorId(sensor),
            value: value as f64,
            timestamp: now,
            expires_at: now + TimeDelta::from_millis(ttl),
        };

        for op in ops {
            match op {
                Op::Insert { sensor, value } => {
                    let r = reading(sensor, value, EXPIRY_MS, now);
                    tree.insert_reading(r, now);
                    model.apply(&[r], now);
                }
                Op::Batch { readings, repeat } => {
                    let mut batch: Vec<Reading> = readings
                        .iter()
                        .map(|&(sensor, value, ttl)| reading(sensor, value, ttl, now))
                        .collect();
                    if repeat {
                        // Last write wins, whatever the first one's value.
                        batch.push(reading(readings[0].0, -readings[0].1, EXPIRY_MS, now));
                    }
                    tree.apply_readings(&batch, now);
                    model.apply(&batch, now);
                }
                Op::Advance(ms) => {
                    now += TimeDelta::from_millis(ms);
                    tree.advance(now);
                    model.roll(now);
                }
                Op::RoundTrip => assert_round_trips(&tree, now),
            }
            assert_matches_brute_force(&tree, now);
            // Same readings, and the same eviction order: oldest slot, then
            // least recently fetched, then sensor id.
            prop_assert_eq!(tree.cached_entries(), model.in_eviction_order());
        }
    }
}

/// Everything a comparison reads of a tree's cache state: per node the slots
/// around `now` and the raw entries in leaf order, then the eviction order.
fn cache_state(tree: &ColrTree, now: Timestamp) -> Vec<String> {
    let mut state = Vec::new();
    for id in tree.node_ids() {
        tree.with_cache(id, |c| {
            for slot in slots_around(tree, now) {
                state.extend(c.cache.slot(slot).map(|s| format!("{id:?} {slot} {s:?}")));
            }
            state.extend(c.entries.iter().map(|e| format!("{id:?} {e:?}")));
        });
    }
    state.extend(tree.cached_entries().iter().map(|e| format!("{e:?}")));
    state
}

/// What the flat slabs changed underneath the public surface, on both
/// builds: a leaf's entries are places, some empty; a sensor's entry is
/// looked up by its place; a clone and a rebuild see the whole state or none
/// of it.
#[test]
fn places_lookups_clones_and_rebuilds() {
    for build in [BuildStrategy::default(), BuildStrategy::Str] {
        let mut tree = ColrTree::build(sensors(), config(None, build), 7);
        let now = Timestamp(1_000);
        let reading = |sensor: u32, value: f64, ttl: u64| Reading {
            sensor: SensorId(sensor),
            value,
            timestamp: now,
            expires_at: now + TimeDelta::from_millis(ttl),
        };
        // Two sensors of one leaf, in two different slots, and one of another.
        let leaf = tree.home_leaf(SensorId(9));
        let Children::Leaf(homed) = tree.node(leaf).children else {
            panic!("a home leaf is a leaf");
        };
        assert!(homed.len() >= 3, "a leaf with places to leave empty");
        let (first, second) = (homed[0], homed[homed.len() - 1]);
        let elsewhere = tree
            .sensors()
            .iter()
            .map(|m| m.id)
            .find(|&s| tree.home_leaf(s) != leaf)
            .expect("more than one leaf");
        assert!(tree.insert_reading(reading(first.0, 4.0, EXPIRY_MS), now));
        assert!(tree.insert_reading(reading(second.0, -2.0, 30_000), now));
        assert!(tree.insert_reading(reading(elsewhere.0, 1.0, EXPIRY_MS), now));
        assert_matches_brute_force(&tree, now);

        tree.with_cache(leaf, |c| {
            assert_eq!(c.entries.iter().count(), 2);
            let held: Vec<SensorId> = c.entries.iter().map(|e| e.reading.sensor).collect();
            assert_eq!(held, [first, second], "leaf order, empty places skipped");
            for (place, &s) in homed.iter().enumerate() {
                let at = c.entries.at(place).map(|e| e.reading.sensor);
                assert_eq!(at, [first, second].contains(&s).then_some(s));
                assert_eq!(c.entry(s).map(|e| e.reading.sensor), at);
            }
            // Cached, but not here; and no such sensor at all.
            assert!(c.entry(elsewhere).is_none());
            assert!(c.entry(SensorId(64)).is_none());
            assert!(c.entry(SensorId(u32::MAX)).is_none());
        });
        tree.with_cache(tree.root(), |c| {
            assert!(
                c.entries.iter().next().is_none(),
                "an internal node has no places"
            );
            assert!(c.entry(first).is_none());
        });
        // The snapshot owns a copy: the same slots, the entries by sensor id.
        let snapshot = tree.cache_snapshot(leaf);
        let mut by_id = [first, second];
        by_id.sort_unstable();
        let snapped: Vec<SensorId> = snapshot.entries.iter().map(|e| e.reading.sensor).collect();
        assert_eq!(snapped, by_id);
        for slot in slots_around(&tree, now) {
            assert_eq!(
                snapshot.cache.slot(slot),
                tree.with_cache(leaf, |c| c.cache.slot(slot))
            );
        }

        // A roll empties a place and leaves its neighbour.
        let later = now + TimeDelta::from_millis(60_000);
        tree.advance(later);
        tree.with_cache(leaf, |c| {
            let held: Vec<SensorId> = c.entries.iter().map(|e| e.reading.sensor).collect();
            assert_eq!(held, [first]);
        });
        assert_eq!(tree.remove_cached(second), None, "already rolled out");
        assert_matches_brute_force(&tree, later);
        assert_round_trips(&tree, later);

        // A clone carries the whole state and shares none of it.
        let copy = tree.clone();
        assert_eq!(cache_state(&copy, later), cache_state(&tree, later));
        assert_eq!(copy.cached_readings(), 2);
        assert_eq!(copy.remove_cached(first).map(|r| r.value), Some(4.0));
        assert_matches_brute_force(&copy, later);
        assert_eq!(tree.cached_readings(), 2);
        assert_matches_brute_force(&tree, later);

        // A fresh build over the same sensors keeps none of it, and caches
        // again.
        tree = ColrTree::build(sensors(), tree.config().clone(), 11);
        assert_eq!(tree.cached_readings(), 0);
        assert!(tree.cached_entries().is_empty());
        assert!(cache_state(&tree, later).is_empty());
        let r = Reading {
            timestamp: later,
            expires_at: later + TimeDelta::from_millis(EXPIRY_MS),
            ..reading(first.0, 7.0, 0)
        };
        assert!(tree.insert_reading(r, later));
        assert_matches_brute_force(&tree, later);
    }
}
