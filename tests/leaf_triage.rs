//! A partially covered leaf is triaged under one stripe hold.
//!
//! Write-back swaps every raw entry a batch touches at one leaf inside a
//! single stripe hold, so a query that reads the leaf's per-sensor terminals
//! under one hold of its own sees each batch entirely or not at all. A query
//! that re-locks per sensor can return sensor A from before a batch and
//! sensor B from after it.
//!
//! The storm below runs a writer that alternates two batches over every
//! sensor of one leaf (all values 1.0, then all 2.0) against readers asking
//! a rectangle that covers part of that leaf, while a third thread switches
//! the tree between frozen and live availability. Every answer must carry
//! leaf readings of one batch only, and must be well-formed whichever
//! availability source the walk resolved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use colr_repro::colr::{
    Children, ColrConfig, ColrTree, Mode, NodeId, ProbeService, Query, Reading, SensorId,
    SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::geo::{Point, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXPIRY_MS: u64 = 600_000;
const SIDE: usize = 16;
const NOW: Timestamp = Timestamp(1_000);
const READERS: usize = 2;
/// Answers every reader must have checked before the writer may stop.
const ANSWERS_PER_READER: u64 = 4_000;
/// Batches the writer must have applied before it may stop.
const BATCHES: usize = 4_000;

/// Ends the storm when the thread holding it exits — by panic too, so a
/// failed reader fails the test instead of leaving the writer waiting on it.
struct StopOnExit<'a>(&'a AtomicBool);

impl Drop for StopOnExit<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A backend where every probe fails: answers hold cached readings only, and
/// (executed frozen) readers never write to the caches themselves.
struct Dead;

impl ProbeService for Dead {
    fn probe_batch(&self, ids: &[SensorId], _now: Timestamp) -> Vec<Option<Reading>> {
        vec![None; ids.len()]
    }
}

fn grid_tree() -> ColrTree {
    let sensors = (0..SIDE * SIDE)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                0.8,
            )
        })
        .collect();
    ColrTree::build(sensors, ColrConfig::default(), 42)
}

/// A leaf, its sensors, and a rectangle holding at least two but not all of
/// them: the leaf's box cut just left of its right-most sensor column.
fn partially_covered_leaf(tree: &ColrTree) -> (NodeId, Vec<SensorId>, Rect) {
    for id in tree.node_ids() {
        let node = tree.node(id);
        let Children::Leaf(sensors) = &node.children else {
            continue;
        };
        let cut = node.bbox.max.x - 0.5;
        let inside = sensors
            .iter()
            .filter(|s| tree.sensor(**s).location.x <= cut)
            .count();
        if inside >= 2 && inside < sensors.len() {
            let rect = Rect::from_coords(
                node.bbox.min.x - 0.25,
                node.bbox.min.y - 0.25,
                cut,
                node.bbox.max.y + 0.25,
            );
            return (id, sensors.to_vec(), rect);
        }
    }
    panic!("no leaf spans two sensor columns");
}

fn batch(sensors: &[SensorId], value: f64) -> Vec<Reading> {
    sensors
        .iter()
        .map(|&sensor| Reading {
            sensor,
            value,
            timestamp: NOW,
            expires_at: NOW + TimeDelta::from_millis(EXPIRY_MS),
        })
        .collect()
}

#[test]
fn partially_covered_leaf_is_never_seen_mid_batch() {
    let tree = grid_tree();
    let (leaf, sensors, rect) = partially_covered_leaf(&tree);
    let batches = [batch(&sensors, 1.0), batch(&sensors, 2.0)];
    tree.advance(NOW);
    assert_eq!(tree.apply_readings(&batches[0], NOW), sensors.len());
    let query = Query::range(rect, TimeDelta::from_mins(5)).with_sample_size(12.0);

    let start = Barrier::new(READERS + 2);
    let stop = AtomicBool::new(false);
    let answered: Vec<AtomicU64> = (0..READERS).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        // Writer: alternate the two batches until it has applied its quota
        // and every reader has checked its quota of answers against the churn.
        scope.spawn(|| {
            start.wait();
            let _stop = StopOnExit(&stop);
            let mut round = 1usize;
            while !stop.load(Ordering::Relaxed)
                && (round <= BATCHES
                    || answered
                        .iter()
                        .any(|a| a.load(Ordering::Relaxed) < ANSWERS_PER_READER))
            {
                tree.apply_readings(&batches[round % 2], NOW);
                round += 1;
            }
        });
        // Flipper: switch the availability source under the readers' feet.
        scope.spawn(|| {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                tree.enable_live_availability(0.2);
                tree.disable_live_availability();
            }
        });
        for (r, answered) in answered.iter().enumerate() {
            let (tree, query, start, stop) = (&tree, &query, &start, &stop);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7 + r as u64);
                start.wait();
                let _stop = StopOnExit(stop);
                while !stop.load(Ordering::Relaxed) {
                    let (out, deferred) =
                        tree.execute_frozen(query, Mode::Colr, &Dead, NOW, &mut rng);
                    assert!(deferred.is_empty(), "a dead backend returned readings");

                    let from_leaf: Vec<f64> = out
                        .readings
                        .iter()
                        .filter(|r| tree.home_leaf(r.sensor) == leaf)
                        .map(|r| r.value)
                        .collect();
                    assert!(from_leaf.len() >= 2, "leaf readings missing: {from_leaf:?}");
                    assert!(
                        from_leaf.iter().all(|v| *v == from_leaf[0]),
                        "torn leaf view: {from_leaf:?}"
                    );

                    let results: u64 = out.groups.iter().map(|g| g.results).sum();
                    let served: u64 = out
                        .groups
                        .iter()
                        .filter(|g| g.from_cache)
                        .map(|g| g.agg.count)
                        .sum();
                    assert_eq!(
                        results,
                        out.readings.len() as u64 + served,
                        "group results do not add up to the answer"
                    );
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    tree.validate()
        .expect("tree invariants hold after the storm");
}
