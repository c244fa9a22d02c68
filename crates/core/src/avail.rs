//! Live per-sensor availability estimation.
//!
//! The paper's Algorithm 1 oversamples by the inverse of each subtree's
//! historical availability `a_i`, but the build pipeline freezes `a_i`
//! into the arena's per-node `avail_mean` at construction time — the index never learns
//! that a sensor died (or recovered) after the tree was built.
//! `LiveAvailability` closes that loop: every probe outcome updates a
//! per-sensor EWMA, and the update is rolled up along the sensor's leaf →
//! root ancestor chain so `sampling.rs` can consult a *live* per-node mean
//! at the same three sites that used to read the frozen one.
//!
//! All state is lock-free: estimates are stored as `f64` bit patterns in
//! `AtomicU64`s and updated with CAS loops, so concurrent query workers
//! (see DESIGN.md §8) can record outcomes without serialising on a lock.
//! Node roll-ups are *sums* (mean × weight), updated by delta, so a
//! node's live mean is always `sum / weight` regardless of interleaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::arena::SamplingArena;
use crate::reading::SensorId;
use crate::tree::{ColrTree, NodeId};

/// Default EWMA smoothing factor: each observation moves the estimate 20%
/// of the way to 0/1, i.e. a half-life of ~3 observations — fast enough
/// to spot a dead sensor within one breaker window, slow enough not to
/// chase single-probe noise.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.2;

/// Lock-free live availability estimates for one built tree.
///
/// Created from (and structurally tied to) a specific `ColrTree`: the
/// per-node roll-up climbs that tree's arena and uses its weights. A rebuilt
/// tree needs a fresh `LiveAvailability`.
#[derive(Debug)]
pub struct LiveAvailability {
    alpha: f64,
    /// Per-sensor EWMA of probe success, stored as `f64` bits.
    sensor_est: Vec<AtomicU64>,
    /// Per-node sum of the sensor estimates below it, stored as `f64`
    /// bits; the live node mean is `sum / weight`.
    node_sum: Vec<AtomicU64>,
    /// The tree's structure: node weights, each sensor's home leaf, the leaf
    /// → root parent links.
    arena: Arc<SamplingArena>,
}

fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut old_bits = cell.load(Ordering::Relaxed);
    loop {
        let new = f64::from_bits(old_bits) + delta;
        match cell.compare_exchange_weak(
            old_bits,
            new.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(cur) => old_bits = cur,
        }
    }
}

impl LiveAvailability {
    /// Seeds the estimates from the tree's static metadata: per-sensor
    /// EWMAs start at `SensorMeta::availability` and node sums at
    /// `avail_mean × weight`, so before the first probe the live path is
    /// numerically identical to the frozen one.
    pub fn from_tree(tree: &ColrTree, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "EWMA alpha must be a finite value in [0, 1], got {alpha}"
        );
        let sensor_est = tree
            .sensors
            .iter()
            .map(|m| AtomicU64::new(m.availability.to_bits()))
            .collect();
        let arena = &tree.arena;
        let node_sum = (0..arena.node_count())
            .map(|idx| AtomicU64::new((arena.avail_mean(idx) * arena.weight(idx)).to_bits()))
            .collect();
        LiveAvailability {
            alpha,
            sensor_est,
            node_sum,
            arena: arena.clone(),
        }
    }

    /// The EWMA smoothing factor this map was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current per-sensor availability estimate in [0, 1].
    pub fn sensor(&self, id: SensorId) -> f64 {
        match self.sensor_est.get(id.index()) {
            Some(cell) => f64::from_bits(cell.load(Ordering::Relaxed)),
            None => 1.0,
        }
    }

    /// Current live mean availability of the subtree under `id`.
    pub fn node(&self, id: NodeId) -> f64 {
        let w = self.arena.weight(id.index());
        if w <= 0.0 {
            return 1.0;
        }
        (f64::from_bits(self.node_sum[id.index()].load(Ordering::Relaxed)) / w).clamp(0.0, 1.0)
    }

    /// Folds one probe outcome into the sensor's EWMA and propagates the
    /// delta up the leaf → root chain (O(tree height), lock-free).
    pub fn record(&self, id: SensorId, success: bool) {
        let i = id.index();
        let Some(cell) = self.sensor_est.get(i) else {
            return;
        };
        let obs = if success { 1.0 } else { 0.0 };
        let mut old_bits = cell.load(Ordering::Relaxed);
        let delta = loop {
            let old = f64::from_bits(old_bits);
            let new = old + self.alpha * (obs - old);
            match cell.compare_exchange_weak(
                old_bits,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break new - old,
                Err(cur) => old_bits = cur,
            }
        };
        if delta == 0.0 {
            return;
        }
        let mut cur = self.arena.home(id).map(|home| home.leaf);
        while let Some(node) = cur {
            atomic_f64_add(&self.node_sum[node.index()], delta);
            cur = self.arena.parent(node);
        }
    }

    /// Mean absolute gap between the live estimates and an externally
    /// known ground truth (`truth[i]` = true availability of sensor `i`).
    /// Also publishes the gap to the `colr_resilient_ewma_gap_milli`
    /// telemetry gauge so fault experiments can chart estimator tracking.
    pub fn mean_abs_gap(&self, truth: &[f64]) -> f64 {
        let n = self.sensor_est.len().min(truth.len());
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = (0..n)
            .map(|i| (self.sensor(SensorId(i as u32)) - truth[i]).abs())
            .sum();
        let gap = sum / n as f64;
        crate::telem::resilient()
            .ewma_gap_milli
            .set((gap * 1000.0).round() as i64);
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::SensorMeta;
    use crate::time::TimeDelta;
    use crate::tree::ColrConfig;
    use colr_geo::Point;

    fn grid_tree(side: u32, availability: f64) -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..side * side)
            .map(|i| {
                SensorMeta::new(
                    i,
                    Point::new((i % side) as f64, (i / side) as f64),
                    TimeDelta::from_mins(5),
                    availability,
                )
            })
            .collect();
        ColrTree::build(sensors, ColrConfig::default(), 7)
    }

    #[test]
    fn seeds_match_static_metadata() {
        let tree = grid_tree(8, 0.75);
        let live = LiveAvailability::from_tree(&tree, 0.2);
        for id in tree.node_ids() {
            let diff = (live.node(id) - tree.node(id).avail_mean).abs();
            assert!(diff < 1e-9, "node {id:?} live {} != static", live.node(id));
        }
        assert!((live.sensor(SensorId(3)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn failures_drag_estimate_down_and_roll_up() {
        let tree = grid_tree(8, 1.0);
        let live = LiveAvailability::from_tree(&tree, 0.5);
        let dead = SensorId(0);
        for _ in 0..8 {
            live.record(dead, false);
        }
        assert!(live.sensor(dead) < 0.01);
        // The home leaf's mean drops by ~1/weight of a full sensor...
        let leaf = tree.home_leaf(dead);
        let w = tree.node(leaf).weight as f64;
        let expected = (w - 1.0 + live.sensor(dead)) / w;
        assert!((live.node(leaf) - expected).abs() < 1e-9);
        // ...and the root by ~1/population.
        let n = tree.sensors().len() as f64;
        assert!((live.node(tree.root()) - (n - 1.0) / n).abs() < 0.01);
    }

    #[test]
    fn recovery_pulls_estimate_back_up() {
        let tree = grid_tree(4, 0.5);
        let live = LiveAvailability::from_tree(&tree, 0.3);
        let s = SensorId(5);
        for _ in 0..20 {
            live.record(s, true);
        }
        assert!(live.sensor(s) > 0.99);
        assert!(live.node(tree.root()) > 0.5);
    }

    #[test]
    fn concurrent_records_keep_sums_consistent() {
        let tree = grid_tree(8, 1.0);
        let live = LiveAvailability::from_tree(&tree, 0.2);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let live = &live;
                scope.spawn(move || {
                    for i in 0..1000u32 {
                        live.record(SensorId((t * 16 + i) % 64), i % 3 == 0);
                    }
                });
            }
        });
        // Root sum must equal the sum of the per-sensor estimates exactly
        // (delta propagation), modulo float addition noise.
        let sum: f64 = (0..64).map(|i| live.sensor(SensorId(i))).sum();
        let root = live.node(tree.root()) * tree.node(tree.root()).weight as f64;
        assert!((sum - root).abs() < 1e-6, "sum {sum} vs root {root}");
    }

    #[test]
    fn mean_abs_gap_tracks_truth() {
        let tree = grid_tree(4, 1.0);
        let live = LiveAvailability::from_tree(&tree, 0.2);
        let truth = vec![1.0; 16];
        assert!(live.mean_abs_gap(&truth) < 1e-12);
        let truth0 = vec![0.0; 16];
        assert!((live.mean_abs_gap(&truth0) - 1.0).abs() < 1e-12);
    }
}
