//! Optimal slot size (Section IV-C).
//!
//! The slot width `Δ` trades off two forces. Larger slots mean fewer partial
//! results to combine per query (lower *cost*); smaller slots keep partially
//! aggregated data valid for longer before the window slide discards it
//! (higher *utility*). The paper's model, with `t_max` normalised to 1:
//!
//! ```text
//! cost(Δ)    ~ ⌊T/Δ⌋ + ⌈T/Δ⌉·f + (T − ⌊T/Δ⌋·Δ)·c        (per query, mean over workload)
//! utility(Δ) ~ Σ_i n_i · (i−1) · Δ                        (k = ⌈1/Δ⌉ slots)
//! ```
//!
//! where `T` is a query's (normalised) time window, `f` the fraction of slot
//! accesses that trigger collection, `c` the collection cost relative to
//! combining one slot, and `n_i` the fraction of sensors whose expiry time
//! falls in slot `i`. COLR-Tree is configured with the `Δ` maximising
//! `utility/cost` for the target workload (Fig 2).

/// Workload description feeding the slot-size analysis. All times are
/// normalised so `t_max = 1`.
#[derive(Debug, Clone)]
pub struct SlotSizeWorkload {
    /// Normalised query time windows `T ∈ (0, 1]` drawn from the query
    /// workload.
    pub query_windows: Vec<f64>,
    /// Fraction of slot accesses where data must be collected from sensors
    /// (a cache-miss rate; depends on query inter-arrival vs expiry).
    pub collection_fraction: f64,
    /// Cost of collecting a slot's data from sensors, normalised to the cost
    /// of combining one cached slot.
    pub collection_cost: f64,
    /// Normalised sensor expiry times in `(0, 1]` (their distribution gives
    /// the `n_i`).
    pub expiry_times: Vec<f64>,
}

impl SlotSizeWorkload {
    /// Mean per-query cost at slot width `delta`.
    pub fn cost(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta <= 1.0, "Δ must be in (0, 1]");
        let f = self.collection_fraction;
        let c = self.collection_cost;
        let total: f64 = self
            .query_windows
            .iter()
            .map(|&t| {
                let full_slots = (t / delta).floor();
                let touched_slots = (t / delta).ceil();
                let leftover = t - full_slots * delta;
                full_slots + touched_slots * f + leftover * c
            })
            .sum();
        total / self.query_windows.len().max(1) as f64
    }

    /// Utility at slot width `delta`: the mean time a sensor's data remains
    /// valid in aggregated form. A sensor whose expiry falls in slot `i`
    /// (1-based) stays cached for `(i−1)·Δ` before the slide discards it.
    pub fn utility(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta <= 1.0, "Δ must be in (0, 1]");
        let total: f64 = self
            .expiry_times
            .iter()
            .map(|&e| {
                // 1-based slot index of the expiry time.
                let i = (e / delta).ceil().max(1.0);
                (i - 1.0) * delta
            })
            .sum();
        total / self.expiry_times.len().max(1) as f64
    }

    /// The utility/cost ratio the paper maximises.
    pub fn ratio(&self, delta: f64) -> f64 {
        let c = self.cost(delta);
        if c <= 0.0 {
            0.0
        } else {
            self.utility(delta) / c
        }
    }

    /// Sweeps `deltas` and returns `(delta, ratio)` pairs — the series of
    /// Fig 2.
    pub fn sweep(&self, deltas: &[f64]) -> Vec<(f64, f64)> {
        deltas.iter().map(|&d| (d, self.ratio(d))).collect()
    }
}

/// The standard `Δ` grid used by the Fig 2 sweep: 0.05, 0.10, …, 1.0.
pub fn default_delta_grid() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 0.05).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(expiry: Vec<f64>) -> SlotSizeWorkload {
        SlotSizeWorkload {
            query_windows: vec![0.3, 0.5, 0.8],
            collection_fraction: 0.3,
            collection_cost: 10.0,
            expiry_times: expiry,
        }
    }

    #[test]
    fn utility_is_zero_at_full_window() {
        // One slot (Δ=1): everything lives in slot 1, discarded immediately
        // on slide → zero retained utility.
        let w = workload(vec![0.2, 0.5, 0.9]);
        assert_eq!(w.utility(1.0), 0.0);
    }

    #[test]
    fn utility_grows_as_slots_shrink() {
        let w = workload(vec![0.5; 100]);
        assert!(w.utility(0.1) > w.utility(0.5));
        assert!(w.utility(0.25) > w.utility(0.5));
    }

    #[test]
    fn utility_matches_hand_computation() {
        // Expiry 0.5 with Δ=0.2 → slot ⌈0.5/0.2⌉ = 3 → utility (3−1)·0.2 = 0.4.
        let w = workload(vec![0.5]);
        assert!((w.utility(0.2) - 0.4).abs() < 1e-12);
        // Expiry 0.9 with Δ=0.5 → slot 2 → utility 0.5.
        let w = workload(vec![0.9]);
        assert!((w.utility(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cost_decreases_with_larger_slots_for_aligned_windows() {
        let w = SlotSizeWorkload {
            query_windows: vec![1.0],
            collection_fraction: 0.2,
            collection_cost: 5.0,
            expiry_times: vec![0.5],
        };
        // T=1: Δ=0.25 → 4 + 4·0.2 = 4.8; Δ=0.5 → 2 + 2·0.2 = 2.4.
        assert!(w.cost(0.25) > w.cost(0.5));
    }

    #[test]
    fn cost_penalises_uncovered_remainder() {
        let w = SlotSizeWorkload {
            query_windows: vec![0.5],
            collection_fraction: 0.0,
            collection_cost: 100.0,
            expiry_times: vec![0.5],
        };
        // Δ=0.4: one full slot + 0.1 uncovered → 1 + 0.1·100 = 11.
        assert!((w.cost(0.4) - 12.0).abs() < 1.01); // ⌈0.5/0.4⌉·0 + 1 + 10
                                                    // Δ=0.5 covers exactly → cost 1.
        assert!((w.cost(0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_covers_grid() {
        let w = workload(vec![0.5]);
        let grid = default_delta_grid();
        let sweep = w.sweep(&grid);
        assert_eq!(sweep.len(), grid.len());
        assert!(sweep.iter().all(|&(_, r)| r.is_finite() && r >= 0.0));
    }

    #[test]
    #[should_panic(expected = "Δ must be in (0, 1]")]
    fn rejects_zero_delta() {
        workload(vec![0.5]).cost(0.0);
    }
}
