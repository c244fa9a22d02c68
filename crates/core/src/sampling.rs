//! Layered sampling (Section V, Algorithms 1 and 2).
//!
//! COLR-Tree bounds per-query collection cost by probing only a target
//! number `R` of sensors, chosen uniformly at random among the sensors in
//! the query region, in a **single pass** interleaved with the range lookup:
//!
//! * **Weighted partitioning** — a node splits its target among children in
//!   proportion to `w_i · Overlap(BB(i), A)` (weight × query-overlap
//!   fraction), so each subtree contributes in proportion to its expected
//!   population inside the region (Theorem 2's uniformity).
//! * **Oversampling** — exactly once per root→probe path the target is
//!   scaled by `1/a_i` (inverse mean availability) so that the *expected*
//!   number of successful probes matches the target (Theorem 1): at the
//!   first fully contained node below the terminal level, or at level `O`
//!   when containment happens deeper.
//! * **Cache exploitation** — fresh cached readings count against the target
//!   before any probe is issued, and a terminal whose slot cache already
//!   holds a sufficient fresh aggregate is answered without touching its
//!   sensors at all — as is, for a query with no grouping floor
//!   ([`Query::cover_level`]), any contained node above the terminal level
//!   whose own slot cache covers it (`serve_covered`).
//! * **Redistribution** (Algorithm 2) — shortfall at one subtree (deployment
//!   holes, empty regions, unlucky failures) is redistributed proportionally
//!   over the targets of all nodes still awaiting processing.
//!
//! The priority queue orders pending nodes by target size. Redistribution
//! multiplies every pending target by the same factor, which preserves the
//! ordering — so it is implemented as a single global scale factor instead
//! of a heap rebuild.
//!
//! The walk itself is `ColrTree::exec_colr_arena` in [`crate::arena`], over
//! the flattened query-time layout; this module holds what it calls at a
//! terminal and at a partially covered leaf, the queue, and the rounding.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::Rng;

use crate::arena::SamplingArena;
use crate::lookup::{GroupResult, ProbePlan, Query};
use crate::reading::Reading;
use crate::scratch::QueryScratch;
use crate::stats::QueryStats;
use crate::time::Timestamp;
use crate::tree::{ColrTree, NodeId};

/// Minimum availability used when scaling targets, to bound oversampling of
/// nearly dead subtrees.
pub(crate) const MIN_AVAILABILITY: f64 = 0.05;
/// Targets below this are treated as zero.
pub(crate) const TARGET_EPS: f64 = 1e-9;
/// Fraction of a node's descendants a cached aggregate must cover before a
/// lookup ends early at that node (Section IV-B's "aggregate is indeed
/// cached"). Tolerating partially expired coverage is what lets the
/// hierarchical cache cut traversals in Fig 3.
pub const COVERAGE_THRESHOLD: f64 = 0.5;

struct PqEntry {
    /// Priority in *base* units (effective target = base × queue scale).
    base: f64,
    /// Tie-breaker for deterministic ordering.
    seq: u64,
    /// Arena index of the pending node.
    node: u32,
    /// Whether an ancestor already applied the availability scale-up.
    scaled: bool,
}

impl PartialEq for PqEntry {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base && self.seq == other.seq
    }
}
impl Eq for PqEntry {}
impl PartialOrd for PqEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PqEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.base
            .total_cmp(&other.base)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue with O(1) proportional redistribution (Algorithm 2).
///
/// Pooled in [`crate::scratch::QueryScratch`]: callers `reset` it at query
/// start and the backing heap allocation is reused across queries.
pub(crate) struct ScaledPq {
    heap: BinaryHeap<PqEntry>,
    scale: f64,
    sum_base: f64,
    seq: u64,
    /// Ablation: when `false`, `redistribute` is a no-op.
    enabled: bool,
}

impl Default for ScaledPq {
    fn default() -> Self {
        ScaledPq {
            heap: BinaryHeap::new(),
            scale: 1.0,
            sum_base: 0.0,
            seq: 0,
            enabled: true,
        }
    }
}

impl ScaledPq {
    /// Clears the queue for a new query, keeping the heap allocation.
    pub(crate) fn reset(&mut self, enabled: bool) {
        self.heap.clear();
        self.scale = 1.0;
        self.sum_base = 0.0;
        self.seq = 0;
        self.enabled = enabled;
    }

    pub(crate) fn push(&mut self, node: u32, target: f64, scaled: bool) {
        if target <= TARGET_EPS {
            return;
        }
        let base = target / self.scale;
        self.sum_base += base;
        self.seq += 1;
        self.heap.push(PqEntry {
            base,
            seq: self.seq,
            node,
            scaled,
        });
    }

    pub(crate) fn pop(&mut self) -> Option<(u32, f64, bool)> {
        let e = self.heap.pop()?;
        self.sum_base -= e.base;
        Some((e.node, e.base * self.scale, e.scaled))
    }

    /// Distributes `lag` additional target proportionally over every pending
    /// node (Algorithm 2): each priority grows by `lag · p_i / Σp`.
    pub(crate) fn redistribute(&mut self, lag: f64) {
        if !self.enabled {
            return;
        }
        let total = self.sum_base * self.scale;
        if lag <= TARGET_EPS || total <= TARGET_EPS {
            return;
        }
        self.scale *= 1.0 + lag / total;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl ColrTree {
    pub(crate) fn group_over_readings(
        node: NodeId,
        bbox: colr_geo::Rect,
        readings: &[Reading],
        target: f64,
    ) -> GroupResult {
        let mut agg = crate::agg::PartialAgg::empty();
        for r in readings {
            agg.insert(r.value);
        }
        GroupResult {
            node,
            bbox,
            agg,
            from_cache: false,
            target,
            results: readings.len() as u64,
            hist: None,
        }
    }

    /// What the contained subtree at arena node `idx` is asked for: the
    /// desired number of *successful* readings (`want`) and the population
    /// they are drawn from (`weight`). `avail` is the subtree's clamped `a_i`
    /// (1.0 with oversampling off).
    #[inline] // with the one below: `serve_terminal` stays one frame (`warm_pan` −3 % without)
    fn subtree_want(
        &self,
        arena: &SamplingArena,
        idx: usize,
        r_eff: f64,
        scaled: bool,
        avail: f64,
        query: &Query,
    ) -> (f64, f64) {
        let weight = match query.kind_filter {
            None => arena.weight(idx),
            Some(k) => arena.kind_weight(idx, k) as f64,
        };
        let want = if scaled { r_eff * avail } else { r_eff }.min(weight.max(1.0));
        (want, weight)
    }

    /// The aggregate-cache shortcut, and the one coverage gate (Section IV-B):
    /// when the node's own slot cache holds a fresh aggregate over at least
    /// `needed` readings, that aggregate answers for the whole subtree as one
    /// group with target `want`, and no descendant is visited. Type-filtered
    /// queries consult the per-type sub-aggregates. One stripe hold serves
    /// the check and the histogram.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_cached_aggregate(
        &self,
        arena: &SamplingArena,
        idx: usize,
        want: f64,
        needed: f64,
        query: &Query,
        now: Timestamp,
        stats: &mut QueryStats,
        groups: &mut Vec<GroupResult>,
    ) -> bool {
        let id = NodeId(idx as u32);
        let hit = self.with_cache(id, |nc| {
            // Part of a multi-wave fill is not an aggregate over anything:
            // between two of its write-backs the count here can pass the
            // coverage threshold with readings still owed (ROADMAP 1(i)).
            if nc.filling != 0 {
                return None;
            }
            let (agg, slots) = match query.kind_filter {
                None => nc.cache.usable(now, query.staleness),
                Some(k) => nc.cache.usable_kind(now, query.staleness, k),
            };
            let covers = !agg.is_empty() && (agg.count as f64) + TARGET_EPS >= needed;
            covers.then(|| (agg, slots, nc.cache.usable_histogram(now, query.staleness)))
        });
        let Some((agg, slots, hist)) = hit else {
            return false;
        };
        let level = arena.level(idx);
        stats.cache_nodes_used += 1;
        stats.slots_combined += slots;
        crate::flight::with(|f| f.cache_hit(level, slots));
        groups.push(GroupResult {
            node: id,
            bbox: arena.bbox(idx),
            agg,
            from_cache: true,
            target: want,
            results: agg.count,
            hist,
        });
        true
    }

    /// Ends the walk at the contained node `idx` *above* the terminal level
    /// when its own slot cache covers it: the Section IV-B gate of the
    /// hierarchical lookup (at least [`COVERAGE_THRESHOLD`] of the
    /// subtree's population) and at least the readings asked of it, so an
    /// over-asking request (`want` = population) demands full coverage.
    /// Returns the credit against the raw target, or `None` — nothing
    /// touched — when the cache falls short and the walk must go on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_covered(
        &self,
        arena: &SamplingArena,
        idx: usize,
        r_eff: f64,
        scaled: bool,
        avail: f64,
        query: &Query,
        now: Timestamp,
        stats: &mut QueryStats,
        groups: &mut Vec<GroupResult>,
    ) -> Option<f64> {
        let (want, weight) = self.subtree_want(arena, idx, r_eff, scaled, avail, query);
        let needed = want.max(COVERAGE_THRESHOLD * weight);
        if !self.serve_cached_aggregate(arena, idx, want, needed, query, now, stats, groups) {
            return None;
        }
        crate::telem::tree().cache_hit(arena.level(idx));
        Some(want)
    }

    /// Serves the terminal subtree at arena node `idx`: cached aggregate
    /// shortcut → raw cache → sampled probes. `rect_contained` says the query
    /// region is a `Rect` (the terminal itself is always contained when this
    /// is called), which licenses the scan's exact geometric fast paths.
    /// `avail` is the subtree's clamped `a_i` (1.0 with oversampling off).
    /// Returns the number of successful readings credited against the (raw,
    /// pre-oversampling) target.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_terminal<R: Rng + ?Sized>(
        &self,
        arena: &SamplingArena,
        idx: usize,
        rect_contained: bool,
        r_eff: f64,
        scaled: bool,
        avail: f64,
        query: &Query,
        now: Timestamp,
        rng: &mut R,
        stats: &mut QueryStats,
        groups: &mut Vec<GroupResult>,
        readings: &mut Vec<Reading>,
        plan: &mut ProbePlan,
        scratch: &mut QueryScratch,
    ) -> f64 {
        let id = NodeId(idx as u32);
        let bbox = arena.bbox(idx);
        let (want, weight) = self.subtree_want(arena, idx, r_eff, scaled, avail, query);

        // 1. A fresh cached aggregate covering at least the desired sample
        //    answers the terminal outright.
        let needed = want.min(weight);
        if self.serve_cached_aggregate(arena, idx, want, needed, query, now, stats, groups) {
            return want;
        }

        // The aggregate shortcut fell short of coverage for this terminal.
        crate::flight::with(|f| f.cache_miss(arena.level(idx)));

        // 2. Raw cached readings count against the target (line 9 / 15).
        scratch.cached.clear();
        scratch.candidates.clear();
        self.terminal_scan_arena(
            arena,
            idx,
            rect_contained,
            query,
            now,
            stats,
            &mut scratch.cached,
            &mut scratch.candidates,
            &mut scratch.stack,
        );
        stats.readings_from_cache += scratch.cached.len() as u64;
        crate::flight::with(|f| f.cached_readings(scratch.cached.len() as u64));
        if !scratch.cached.is_empty() {
            stats.cache_nodes_used += 1;
            crate::flight::with(|f| f.cache_hit(arena.level(idx), 0));
        }
        let need = want - scratch.cached.len() as f64;

        // 3. Oversampled probing of the remainder (lines 11–14).
        let probe_target = if need <= TARGET_EPS {
            0.0
        } else if scaled {
            // Target was inflated upstream; spend what remains of it.
            (r_eff - scratch.cached.len() as f64).max(0.0)
        } else {
            need / avail
        };
        // `attempted` is the paper's `|s|` accounting in expectation units:
        // stochastic rounding of fractional targets must NOT trigger
        // redistribution (the rounding is unbiased by construction — pushing
        // only the downside back into the queue would inflate the sample).
        // Only a *structural* shortfall — fewer candidates than the target —
        // redistributes (deployment holes, Algorithm 1 line 22).
        let attempted = probe_target.min(scratch.candidates.len() as f64);
        let k = stochastic_round(attempted, rng).min(scratch.candidates.len());
        // Partial Fisher–Yates: uniform k-subset of the candidates.
        for i in 0..k {
            let j = rng.random_range(i..scratch.candidates.len());
            scratch.candidates.swap(i, j);
        }
        // The chosen sensors join the query's wave; their readings follow
        // the cached ones in this group once the wave returns.
        let cached_count = scratch.cached.len();
        let start = readings.len();
        readings.append(&mut scratch.cached);
        plan.defer(
            groups.len(),
            start..readings.len(),
            &scratch.candidates[..k],
        );
        groups.push(Self::group_over_readings(
            id,
            bbox,
            &readings[start..],
            want,
        ));
        // Expected successes from the attempt, independent of rounding and
        // per-probe luck (oversampling already compensates failures).
        let credit = cached_count as f64 + attempted * avail;
        credit.min(want)
    }

    /// Serves the sensor children of a partially covered `leaf` — the
    /// matching sensors the partition step left in `scratch.kid_sensors`,
    /// their `a_i` in `scratch.kid_avail` — as one group of per-sensor
    /// terminals, each with target `share`. The leaf's raw cache is triaged
    /// for all of them under one stripe hold, so the group sees a write-back
    /// batch to the leaf entirely or not at all; the per-sensor selection
    /// draws then run on the results. Returns the credit against the raw
    /// target.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_leaf_sensors<R: Rng + ?Sized>(
        &self,
        leaf: NodeId,
        bbox: colr_geo::Rect,
        share: f64,
        scaled: bool,
        query: &Query,
        now: Timestamp,
        rng: &mut R,
        stats: &mut QueryStats,
        groups: &mut Vec<GroupResult>,
        readings: &mut Vec<Reading>,
        plan: &mut ProbePlan,
        scratch: &mut QueryScratch,
    ) -> f64 {
        if scratch.kid_sensors.is_empty() || share <= TARGET_EPS {
            return 0.0;
        }
        scratch.kid_fresh.clear();
        self.with_cache(leaf, |nc| {
            scratch.kid_fresh.extend(
                scratch
                    .kid_places
                    .iter()
                    .map(|&place| nc.entries.fresh_at(place as usize, now, query.staleness)),
            );
        });
        let start = readings.len();
        let ids_from = plan.ids.len();
        let oversampling = self.config.enable_oversampling;
        let mut fulfilled = 0.0;
        let mut target = 0.0;
        for (i, &s) in scratch.kid_sensors.iter().enumerate() {
            let avail = if oversampling {
                scratch.kid_avail[i].max(MIN_AVAILABILITY)
            } else {
                1.0
            };
            let want = if scaled { share * avail } else { share }.min(1.0);
            target += share;
            // Full credit whatever happens below: a cached fresh reading
            // satisfies the sensor without a probe and is always included
            // (Algorithm 1 line 15: `sample ∪ d ∪ c_i`); otherwise the
            // selection is made with the availability-compensated
            // probability, so expected successes match the share and
            // per-probe failures are absorbed by oversampling rather than
            // redistributed (which would bias the sample upward).
            fulfilled += want;
            match scratch.kid_fresh[i] {
                Some(r) => readings.push(r),
                None => {
                    let p = if scaled { share } else { want / avail }.clamp(0.0, 1.0);
                    if rng.random_bool(p) {
                        plan.push(s, readings.len());
                    }
                }
            }
        }
        let cached = (readings.len() - start) as u64;
        stats.readings_from_cache += cached;
        crate::flight::with(|f| f.cached_readings(cached));
        plan.fix(groups.len(), start..readings.len(), ids_from);
        groups.push(Self::group_over_readings(
            leaf,
            bbox,
            &readings[start..],
            target,
        ));
        fulfilled
    }
}

/// Rounds `x` to an integer stochastically so the expectation is preserved:
/// `⌊x⌋ + Bernoulli(frac(x))`.
pub(crate) fn stochastic_round<R: Rng + ?Sized>(x: f64, rng: &mut R) -> usize {
    if x <= 0.0 {
        return 0;
    }
    let floor = x.floor();
    let frac = x - floor;
    let mut k = floor as usize;
    if frac > 0.0 && rng.random_bool(frac.min(1.0)) {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::Mode;
    use crate::probe::{AlwaysAvailable, ProbeService};
    use crate::reading::{SensorId, SensorMeta};
    use crate::time::TimeDelta;
    use crate::tree::ColrConfig;
    use colr_geo::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EXPIRY_MS: u64 = 300_000;

    fn grid_tree(side: usize, availability: f64) -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..side * side)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % side) as f64, (i / side) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    availability,
                )
            })
            .collect();
        ColrTree::build(sensors, ColrConfig::default(), 42)
    }

    fn sample_query(rect: Rect, r: f64) -> Query {
        Query::range(rect, TimeDelta::from_mins(10))
            .with_terminal_level(2)
            .with_oversample_level(1)
            .with_sample_size(r)
    }

    #[test]
    fn stochastic_round_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 20_000;
        let x = 2.3;
        let total: usize = (0..trials).map(|_| stochastic_round(x, &mut rng)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - x).abs() < 0.05, "mean {mean} too far from {x}");
    }

    #[test]
    fn stochastic_round_exact_on_integers() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(stochastic_round(3.0, &mut rng), 3);
        assert_eq!(stochastic_round(0.0, &mut rng), 0);
        assert_eq!(stochastic_round(-1.0, &mut rng), 0);
    }

    #[test]
    fn scaled_pq_pops_in_priority_order() {
        let mut pq = ScaledPq::default();
        pq.push(1, 1.0, false);
        pq.push(2, 5.0, false);
        pq.push(3, 3.0, false);
        assert_eq!(pq.pop().unwrap().0, 2);
        assert_eq!(pq.pop().unwrap().0, 3);
        assert_eq!(pq.pop().unwrap().0, 1);
        assert!(pq.pop().is_none());
    }

    #[test]
    fn scaled_pq_redistribute_grows_targets_proportionally() {
        let mut pq = ScaledPq::default();
        pq.push(1, 2.0, false);
        pq.push(2, 6.0, false);
        pq.redistribute(4.0); // total 8 → scale 1.5
        let (n, t, _) = pq.pop().unwrap();
        assert_eq!(n, 2);
        assert!((t - 9.0).abs() < 1e-9);
        let (_, t, _) = pq.pop().unwrap();
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_pq_push_after_redistribute_uses_current_scale() {
        let mut pq = ScaledPq::default();
        pq.push(1, 4.0, false);
        pq.redistribute(4.0); // scale 2
        pq.push(2, 4.0, false); // effective 4.0 at push time
        let (n, t, _) = pq.pop().unwrap();
        assert_eq!(n, 1);
        assert!((t - 8.0).abs() < 1e-9);
        let (_, t, _) = pq.pop().unwrap();
        assert!((t - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_probes_roughly_target_many_runs() {
        // Theorem 1: expected sample size ≈ R (availability 1, cold cache).
        let region = Rect::from_coords(-0.5, -0.5, 15.5, 15.5); // all 256
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 60;
        let r = 30.0;
        let mut total = 0usize;
        for t in 0..trials {
            let tree = grid_tree(16, 1.0);
            let probe = AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            };
            let out = tree.execute(
                &sample_query(region, r),
                Mode::Colr,
                &probe,
                Timestamp(1_000 + t),
                &mut rng,
            );
            total += out.readings.len();
        }
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - r).abs() < r * 0.15,
            "mean sample size {mean} too far from target {r}"
        );
    }

    #[test]
    fn sampling_contacts_far_fewer_sensors_than_rtree() {
        let region = Rect::from_coords(-0.5, -0.5, 15.5, 15.5);
        let mut rng = StdRng::seed_from_u64(3);
        let tree = grid_tree(16, 1.0);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let out = tree.execute(
            &sample_query(region, 20.0),
            Mode::Colr,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        assert!(
            out.stats.sensors_probed < 60,
            "probed {} for a target of 20",
            out.stats.sensors_probed
        );
        assert!(out.stats.sensors_probed > 0);
    }

    #[test]
    fn oversampling_compensates_for_unavailability() {
        // With availability 0.5, ~2R probes should yield ~R readings.
        let region = Rect::from_coords(-0.5, -0.5, 15.5, 15.5);
        let mut rng = StdRng::seed_from_u64(5);
        let r = 30.0;
        let trials = 60;
        let mut got = 0usize;
        let mut probed = 0u64;
        for t in 0..trials {
            let tree = grid_tree(16, 0.5);
            // Simulated network honouring availability 0.5 via the rng,
            // locked so the service works from behind `&self`.
            struct HalfAvailable(std::sync::Mutex<StdRng>);
            impl ProbeService for HalfAvailable {
                fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
                    let mut rng = self.0.lock().unwrap();
                    ids.iter()
                        .map(|&id| {
                            rng.random_bool(0.5).then_some(Reading {
                                sensor: id,
                                value: 1.0,
                                timestamp: now,
                                expires_at: now + TimeDelta::from_millis(EXPIRY_MS),
                            })
                        })
                        .collect()
                }
            }
            let probe = HalfAvailable(std::sync::Mutex::new(StdRng::seed_from_u64(100 + t)));
            let out = tree.execute(
                &sample_query(region, r),
                Mode::Colr,
                &probe,
                Timestamp(1_000),
                &mut rng,
            );
            got += out.readings.len();
            probed += out.stats.sensors_probed;
        }
        let mean_got = got as f64 / trials as f64;
        let mean_probed = probed as f64 / trials as f64;
        assert!(
            (mean_got - r).abs() < r * 0.25,
            "mean successes {mean_got} too far from target {r}"
        );
        assert!(
            mean_probed > 1.5 * r && mean_probed < 3.0 * r,
            "mean probes {mean_probed} not ≈ 2R"
        );
    }

    #[test]
    fn uniform_inclusion_probability() {
        // Theorem 2: every sensor included with probability ≈ R/N.
        let side = 12; // 144 sensors
        let region = Rect::from_coords(-0.5, -0.5, 11.5, 11.5);
        let r = 24.0;
        let n = (side * side) as f64;
        let trials = 400;
        let mut rng = StdRng::seed_from_u64(17);
        let mut counts = vec![0u32; side * side];
        for t in 0..trials {
            let tree = grid_tree(side, 1.0);
            let probe = AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            };
            let out = tree.execute(
                &sample_query(region, r),
                Mode::Colr,
                &probe,
                Timestamp(1_000 + t),
                &mut rng,
            );
            for reading in &out.readings {
                counts[reading.sensor.index()] += 1;
            }
        }
        let expected = r / n; // per-trial inclusion probability
        let mean_incl = counts.iter().map(|&c| c as f64).sum::<f64>() / (trials as f64 * n);
        assert!(
            (mean_incl - expected).abs() < expected * 0.15,
            "mean inclusion {mean_incl} vs expected {expected}"
        );
        // No sensor should be wildly over- or under-represented.
        let max = counts.iter().copied().max().unwrap() as f64 / trials as f64;
        let min = counts.iter().copied().min().unwrap() as f64 / trials as f64;
        assert!(max < expected * 3.0, "max inclusion {max} vs {expected}");
        assert!(min > expected * 0.15, "min inclusion {min} vs {expected}");
    }

    #[test]
    fn disabled_redistribution_never_inflates_targets() {
        let mut pq = ScaledPq::default();
        pq.reset(false);
        pq.push(1, 2.0, false);
        pq.redistribute(100.0);
        let (_, t, _) = pq.pop().unwrap();
        assert_eq!(t, 2.0);
    }

    #[test]
    fn disabled_oversampling_probes_fewer_under_failures() {
        // With availability 0.5 advertised, oversampling ~doubles probes;
        // disabling it keeps probes near the raw target.
        let region = Rect::from_coords(-0.5, -0.5, 15.5, 15.5);
        let r = 40.0;
        let trials = 30;
        let mut probes_on = 0u64;
        let mut probes_off = 0u64;
        for t in 0..trials {
            for enable in [true, false] {
                let sensors: Vec<SensorMeta> = (0..256)
                    .map(|i| {
                        SensorMeta::new(
                            i as u32,
                            Point::new((i % 16) as f64, (i / 16) as f64),
                            TimeDelta::from_millis(EXPIRY_MS),
                            0.5,
                        )
                    })
                    .collect();
                let config = ColrConfig {
                    enable_oversampling: enable,
                    ..Default::default()
                };
                let tree = ColrTree::build(sensors, config, 42);
                let probe = AlwaysAvailable {
                    expiry_ms: EXPIRY_MS,
                };
                let mut rng = StdRng::seed_from_u64(1000 + t);
                let out = tree.execute(
                    &sample_query(region, r),
                    Mode::Colr,
                    &probe,
                    Timestamp(1_000),
                    &mut rng,
                );
                if enable {
                    probes_on += out.stats.sensors_probed;
                } else {
                    probes_off += out.stats.sensors_probed;
                }
            }
        }
        assert!(
            probes_on as f64 > probes_off as f64 * 1.5,
            "oversampling on {probes_on} vs off {probes_off}"
        );
    }

    #[test]
    fn warm_cache_reduces_probes_in_colr_mode() {
        let region = Rect::from_coords(-0.5, -0.5, 15.5, 15.5);
        let mut rng = StdRng::seed_from_u64(9);
        let tree = grid_tree(16, 1.0);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let q = sample_query(region, 40.0);
        let cold = tree.execute(&q, Mode::Colr, &probe, Timestamp(1_000), &mut rng);
        assert!(cold.stats.sensors_probed > 0);
        let warm = tree.execute(&q, Mode::Colr, &probe, Timestamp(2_000), &mut rng);
        assert!(
            warm.stats.sensors_probed < cold.stats.sensors_probed,
            "warm {} !< cold {}",
            warm.stats.sensors_probed,
            cold.stats.sensors_probed
        );
        assert!(warm.stats.cache_nodes_used > 0 || warm.stats.readings_from_cache > 0);
    }

    #[test]
    fn sample_size_zero_probes_nothing() {
        let region = Rect::from_coords(-0.5, -0.5, 15.5, 15.5);
        let mut rng = StdRng::seed_from_u64(13);
        let tree = grid_tree(16, 1.0);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let out = tree.execute(
            &sample_query(region, 0.0),
            Mode::Colr,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        assert_eq!(out.stats.sensors_probed, 0);
        assert!(out.readings.is_empty());
    }

    #[test]
    fn disjoint_region_samples_nothing() {
        let region = Rect::from_coords(100.0, 100.0, 110.0, 110.0);
        let mut rng = StdRng::seed_from_u64(13);
        let tree = grid_tree(8, 1.0);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let out = tree.execute(
            &sample_query(region, 10.0),
            Mode::Colr,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        assert_eq!(out.stats.sensors_probed, 0);
        assert!(out.groups.is_empty());
    }

    #[test]
    fn partial_region_samples_only_inside() {
        // Region covering the left half: no reading from the right half.
        let side = 12;
        let region = Rect::from_coords(-0.5, -0.5, 5.5, 11.5);
        let mut rng = StdRng::seed_from_u64(23);
        let tree = grid_tree(side, 1.0);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let out = tree.execute(
            &sample_query(region, 20.0),
            Mode::Colr,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        for r in &out.readings {
            let loc = tree.sensor_location(r.sensor);
            assert!(loc.x <= 5.5, "sampled sensor outside region at {loc:?}");
        }
        assert!(!out.readings.is_empty());
    }

    #[test]
    fn groups_report_targets_for_pde() {
        let region = Rect::from_coords(-0.5, -0.5, 15.5, 15.5);
        let mut rng = StdRng::seed_from_u64(29);
        let tree = grid_tree(16, 1.0);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let out = tree.execute(
            &sample_query(region, 32.0),
            Mode::Colr,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        assert!(!out.groups.is_empty());
        let total_target: f64 = out.groups.iter().map(|g| g.target).sum();
        assert!(
            (total_target - 32.0).abs() < 32.0 * 0.5,
            "sum of terminal targets {total_target} should approximate R"
        );
    }
}
