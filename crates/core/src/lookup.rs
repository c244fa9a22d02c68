//! Range lookup (Section III-C) in the three configurations the paper
//! evaluates: a plain R-Tree, the hierarchical (slot) cache, and full
//! COLR-Tree (caching + layered sampling, in [`crate::sampling`]).
//!
//! All three share the same top-down traversal: prune nodes whose boxes do
//! not meet the query region, and complete the descent at *terminal nodes* —
//! nodes at or below the threshold level `T` that are contained entirely
//! within the query region. They differ in what happens at (and on the way
//! to) terminals:
//!
//! * [`Mode::RTree`] probes **every** sensor in the region, touching no cache
//!   — the collection-agnostic baseline;
//! * [`Mode::HierCache`] stops early at nodes whose slot cache holds a fresh
//!   aggregate covering all their descendants, uses fresh cached readings at
//!   leaves, probes only the uncovered sensors, and writes probe results back
//!   into the cache;
//! * [`Mode::Colr`] additionally samples (Algorithm 1) so only a target
//!   number of sensors is ever contacted.
//!
//! Every mode runs as **select → collect → complete**: the walk answers what
//! the caches can and only *chooses* the sensors to probe (`ProbePlan`);
//! when it ends, the whole request goes to the backend as one wave
//! (`Wave`) and the outcomes are folded back into their groups
//! (`ColrTree::complete`), which collects the successes. No traversal
//! decision reads a probe outcome, so a query costs one round trip (per
//! `PROBE_PARALLELISM` probes) however many terminals it reaches.
//!
//! There is one executor, [`ColrTree::execute_frozen`]: it writes nothing,
//! and hands its successes to one write-back, [`ColrTree::apply_readings`].
//! An interactive query ([`ColrTree::execute`]) applies them as soon as it
//! completes; a batch executor applies every query's after the batch, in
//! submission order, so each query of a batch sees the same cache (see
//! `colr-engine`'s `execute_many`). An LSM query writes its successes
//! where it found them while its cut is still published, and routes them
//! through the index's directory otherwise (`LsmTree::apply_deferred`).
//!
//! Execution takes `&self`: cache reads go through the tree's striped locks
//! and write-backs through the maintenance path, so any number of queries can
//! run against one shared tree concurrently.

use std::ops::Range;

use colr_geo::{Rect, Region};
use rand::Rng;

use crate::agg::{AggKind, PartialAgg};
use crate::probe::ProbeService;
use crate::reading::{Reading, SensorId};
use crate::sampling::COVERAGE_THRESHOLD;
use crate::scratch::QueryScratch;
use crate::stats::{
    latency_ms, primary_waves, QueryStats, PROBE_OVERHEAD_MS, PROBE_PARALLELISM, PROBE_RTT_MS,
};
use crate::time::{TimeDelta, Timestamp};
use crate::tree::{ColrTree, NodeId};

/// A spatio-temporal query against the index.
#[derive(Debug, Clone)]
pub struct Query {
    /// Spatial region of interest.
    pub region: Region,
    /// Maximum acceptable staleness of readings (the `S.time BETWEEN
    /// now()-X AND now()` window).
    pub staleness: TimeDelta,
    /// Result threshold level `T`: one result group is produced per node at
    /// this level (derived from the `CLUSTER` clause / map zoom).
    pub terminal_level: u16,
    /// Shallowest level at which a contained node's own cached aggregate may
    /// end the sampling walk. A `CLUSTER` clause is a grouping floor — the
    /// planner sets this to `T`, so one group per level-`T` node is what comes
    /// back; a request without one reads only the combined answer, and the
    /// planner sets 0: any contained node whose slot cache covers it answers
    /// for its whole subtree. Clamped to `terminal_level`, which is also the
    /// default, so a query built by hand keeps its groups.
    pub cover_level: u16,
    /// Target sample size `R` (`SAMPLESIZE` clause); `None` collects from
    /// every sensor in the region.
    pub sample_size: Option<f64>,
    /// Restricts the query to sensors of one registered type (`None` = all
    /// types). Type-filtered queries are served from the per-type
    /// sub-aggregates each slot maintains.
    pub kind_filter: Option<u16>,
    /// Simulated-time budget a fault-tolerant probe layer may spend on
    /// retry backoff for this query's one probe wave; plain probe services
    /// ignore it.
    pub probe_deadline: TimeDelta,
}

impl Query {
    /// A range query over `region` accepting readings at most `staleness`
    /// old, with defaults: terminal level 2, no sampling.
    pub fn range(region: impl Into<Region>, staleness: TimeDelta) -> Query {
        Query {
            region: region.into(),
            staleness,
            terminal_level: 2,
            cover_level: u16::MAX,
            sample_size: None,
            kind_filter: None,
            probe_deadline: TimeDelta::from_secs(2),
        }
    }

    /// Sets the result threshold level `T`.
    pub fn with_terminal_level(mut self, t: u16) -> Query {
        self.terminal_level = t;
        self
    }

    /// Sets the shallowest level at which a covering cached aggregate may end
    /// the walk (see [`Query::cover_level`]).
    pub fn with_cover_level(mut self, level: u16) -> Query {
        self.cover_level = level;
        self
    }

    /// Sets the target sample size `R`.
    pub fn with_sample_size(mut self, r: f64) -> Query {
        assert!(r >= 0.0, "sample size must be non-negative");
        self.sample_size = Some(r);
        self
    }

    /// Restricts the query to one sensor type.
    pub fn with_kind_filter(mut self, kind: u16) -> Query {
        self.kind_filter = Some(kind);
        self
    }

    /// `true` when a sensor satisfies both the spatial predicate and the
    /// type filter.
    pub fn matches_sensor(&self, meta: &crate::reading::SensorMeta) -> bool {
        meta.is_in(&self.region, self.kind_filter)
    }
}

/// Which index configuration processes the query (Section VII-B's three
/// setups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Plain R-Tree: no caching, no sampling.
    RTree,
    /// Slot caches + standard range lookup: no sampling.
    HierCache,
    /// Full COLR-Tree: caching + layered sampling.
    Colr,
}

/// One result group — the per-`CLUSTER` aggregate SensorMap renders as a map
/// icon.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// The terminal node that produced the group.
    pub node: NodeId,
    /// Its bounding box (the icon's extent).
    pub bbox: Rect,
    /// Aggregate over the group's readings.
    pub agg: PartialAgg,
    /// Whether the group was answered from a cached aggregate.
    pub from_cache: bool,
    /// Target sample size assigned to this terminal (Fig 6's
    /// `target size(i)`).
    pub target: f64,
    /// Number of readings that produced the aggregate (Fig 6's
    /// `#results(i)`).
    pub results: u64,
}

/// The full output of one query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result groups, one per terminal reached.
    pub groups: Vec<GroupResult>,
    /// Raw readings materialised (cached + freshly probed); empty for groups
    /// answered purely from aggregate caches.
    pub readings: Vec<Reading>,
    /// Structural counters.
    pub stats: QueryStats,
    /// Modelled processing latency in milliseconds.
    pub latency_ms: f64,
}

impl QueryOutput {
    /// Combines all groups into a single aggregate and finalises it.
    pub fn aggregate(&self, kind: AggKind) -> Option<f64> {
        let mut agg = PartialAgg::empty();
        for g in &self.groups {
            agg.merge(&g.agg);
        }
        agg.finalize(kind)
    }

    /// Total number of readings represented across groups (cached aggregates
    /// included by weight).
    pub fn result_size(&self) -> u64 {
        self.groups.iter().map(|g| g.agg.count).sum()
    }
}

/// The probe selections a walk defers to the query's single collect step
/// (select → collect → complete). The walk makes every sampling decision and
/// RNG draw but contacts no sensor: chosen ids are appended here, each group
/// awaiting outcomes leaves a [`ProbeFix`], and once the walk ends one
/// [`Wave`] goes out over `ids` and [`ColrTree::complete`] folds the
/// outcomes back.
#[derive(Default)]
pub(crate) struct ProbePlan {
    /// Selected sensors in selection order — the query's one wave.
    pub(crate) ids: Vec<SensorId>,
    /// Per id: the index in the walk's cached-only `readings` its outcome
    /// is spliced in at.
    at: Vec<usize>,
    /// Groups awaiting outcomes, in group order.
    pub(crate) fixes: Vec<ProbeFix>,
}

/// One group's claim on a slice of the wave.
pub(crate) struct ProbeFix {
    /// Index into the walk's `groups`.
    group: usize,
    /// The group's span in the walk's cached-only `readings`.
    span: Range<usize>,
    /// The group's ids in [`ProbePlan::ids`].
    ids: Range<usize>,
}

impl ProbePlan {
    /// The ids a pooled plan keeps room for: an ordinary request, not a
    /// fleet-wide cache fill.
    pub(crate) const POOLED: usize = 1024;

    /// Empties the plan for a new query.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.ids.shrink_to(Self::POOLED);
        self.at.clear();
        self.at.shrink_to(Self::POOLED);
        self.fixes.clear();
        self.fixes.shrink_to(Self::POOLED);
    }

    /// Adds `id` to the wave; its reading, if the probe succeeds, lands at
    /// `readings[at]` (indices as of the walk, before any splice).
    pub(crate) fn push(&mut self, id: SensorId, at: usize) {
        self.ids.push(id);
        self.at.push(at);
    }

    /// Adds `ids` to the wave on behalf of `group`, whose cached readings
    /// occupy `readings[span]`; their readings follow the cached ones.
    pub(crate) fn defer(&mut self, group: usize, span: Range<usize>, ids: &[SensorId]) {
        let ids_from = self.ids.len();
        for &id in ids {
            self.push(id, span.end);
        }
        self.fix(group, span, ids_from);
    }

    /// Ties every id selected since `ids_from` to `group`, whose cached
    /// readings occupy `readings[span]`. No-op when nothing was selected.
    pub(crate) fn fix(&mut self, group: usize, span: Range<usize>, ids_from: usize) {
        if ids_from < self.ids.len() {
            self.fixes.push(ProbeFix {
                group,
                span,
                ids: ids_from..self.ids.len(),
            });
        }
    }
}

/// The collect step — the one place a query contacts the probe backend, and
/// the one definition of a wave. Yields one outcome per id in selection
/// order, issuing one `probe_batch_report` per `PROBE_PARALLELISM` chunk
/// (sharing the query's retry budget) as the complete step draws them, so a
/// viewport-sized request never holds more than a wave of outcomes;
/// [`Wave::charge`] then books the whole dispatch.
pub(crate) struct Wave<'a, P: ?Sized> {
    probe: &'a P,
    now: Timestamp,
    pending: std::slice::Chunks<'a, SensorId>,
    arrived: std::vec::IntoIter<Option<Reading>>,
    stage: crate::flight::WaveStage,
}

impl<'a, P: ProbeService + ?Sized> Wave<'a, P> {
    pub(crate) fn new(probe: &'a P, ids: &'a [SensorId], query: &Query, now: Timestamp) -> Self {
        Wave {
            probe,
            now,
            pending: ids.chunks(PROBE_PARALLELISM as usize),
            arrived: Vec::new().into_iter(),
            stage: crate::flight::WaveStage {
                probes: ids.len() as u64,
                budget_before_ms: query.probe_deadline.millis(),
                ..Default::default()
            },
        }
    }

    /// Charges the finished dispatch to `stats`, the probe telemetry, the
    /// flight record (one [`crate::flight::WaveStage`] per query). A query
    /// that selected nothing is charged nothing.
    pub(crate) fn charge(self, stats: &mut QueryStats) {
        debug_assert!(self.pending.len() == 0 && self.arrived.len() == 0);
        let mut w = self.stage;
        if w.probes == 0 {
            return;
        }
        w.dur_us = ((w.waves as f64 * PROBE_RTT_MS
            + (w.probes + w.retries) as f64 * PROBE_OVERHEAD_MS
            + w.backoff_ms as f64)
            * 1_000.0) as u64;
        stats.sensors_probed += w.probes;
        stats.probe_waves += w.waves;
        stats.probes_failed += w.failed;
        stats.probes_retried += w.retries;
        stats.retry_waves += w.retry_waves;
        stats.retry_backoff_ms += w.backoff_ms;
        stats.breaker_skipped += w.breaker_skipped;
        stats.deadline_clipped += w.deadline_clipped;
        let telem = crate::telem::query();
        telem.probes_issued.add(w.probes);
        telem.probe_batch_size.observe(w.probes);
        telem.probe_wave_us.observe(w.dur_us);
        crate::flight::with(|f| f.wave(w));
    }
}

impl<P: ProbeService + ?Sized> Iterator for Wave<'_, P> {
    type Item = Option<Reading>;

    fn next(&mut self) -> Option<Option<Reading>> {
        if self.arrived.len() == 0 {
            let chunk = self.pending.next()?;
            let w = &mut self.stage;
            // Fault-aware services may retry within what is left of the budget.
            let budget = w.budget_before_ms.saturating_sub(w.backoff_ms);
            let mut report = self.probe.probe_batch_report(chunk, self.now, budget);
            // Held to the ids asked: a short report padded, a long one cut,
            // a reading of another sensor than asked there a failed probe.
            report.outcomes.resize(chunk.len(), None);
            for (outcome, &id) in report.outcomes.iter_mut().zip(chunk) {
                if outcome.is_some_and(|r| r.sensor != id) {
                    *outcome = None;
                }
            }
            w.waves += 1 + report.retry_waves;
            w.failed += report.outcomes.iter().filter(|o| o.is_none()).count() as u64;
            w.retries += report.retries_issued;
            w.retry_waves += report.retry_waves;
            w.backoff_ms += report.backoff_wait_ms;
            w.breaker_skipped += report.breaker_skipped;
            w.deadline_clipped += report.deadline_clipped;
            self.arrived = report.outcomes.into_iter();
        }
        self.arrived.next()
    }
}

/// Stamps the modelled latency on a completed answer and reports the query
/// to the global telemetry.
pub(crate) fn finish(mode: Mode, out: &mut QueryOutput) {
    let stats = &out.stats;
    debug_assert_eq!(
        stats.probe_waves,
        primary_waves(stats.sensors_probed) + stats.retry_waves,
        "a query's probes go out as one collect step"
    );
    out.latency_ms = latency_ms(stats);
    let telem = crate::telem::query();
    telem.count_query(mode);
    telem.latency_us.observe((out.latency_ms * 1_000.0) as u64);
}

impl ColrTree {
    /// Processes `query` in the given `mode`, probing sensors through
    /// `probe`, at simulated instant `now`: the window rolls to `now`, the
    /// query runs as [`ColrTree::execute_frozen`] does, and its successes
    /// are written back in one [`ColrTree::apply_readings`].
    ///
    /// `rng` drives sampling decisions (only used by [`Mode::Colr`]); pass a
    /// seeded RNG for reproducible runs. Takes `&self`: concurrent callers
    /// share the tree through its internal striped locks.
    pub fn execute<P, R>(
        &self,
        query: &Query,
        mode: Mode,
        probe: &P,
        now: Timestamp,
        rng: &mut R,
    ) -> QueryOutput
    where
        P: ProbeService + ?Sized,
        R: Rng + ?Sized,
    {
        self.advance(now);
        let (mut out, got) = self.execute_frozen(query, mode, probe, now, rng);
        if !got.is_empty() {
            let inserted = self.apply_readings(&got, now) as u64;
            out.stats.cache_inserts += inserted;
            crate::flight::with(|f| f.write_back(inserted));
        }
        out
    }

    /// Runs `query` against the cache as it stands — the window is not
    /// advanced and nothing is written back — and returns its answer with
    /// the readings its wave brought back, for the caller's
    /// [`ColrTree::apply_readings`].
    ///
    /// Because nothing is written during execution, any number of these can
    /// run concurrently and each sees the identical cache state: the result
    /// depends only on `(tree, query, rng, probe)`, not on scheduling.
    pub fn execute_frozen<P, R>(
        &self,
        query: &Query,
        mode: Mode,
        probe: &P,
        now: Timestamp,
        rng: &mut R,
    ) -> (QueryOutput, Vec<Reading>)
    where
        P: ProbeService + ?Sized,
        R: Rng + ?Sized,
    {
        crate::scratch::with_scratch(|scratch| {
            let mut plan = std::mem::take(&mut scratch.plan);
            plan.clear();
            let target = query.sample_size;
            let mut out = self.select(query, target, mode, now, rng, &mut plan, scratch);
            let mut wave = Wave::new(probe, &plan.ids, query, now);
            let mut got = Vec::with_capacity(plan.ids.len());
            let fixes = 0..plan.fixes.len();
            self.complete(&mut out, &plan, fixes, &mut wave, &mut got, mode);
            wave.charge(&mut out.stats);
            scratch.plan = plan;
            finish(mode, &mut out);
            let got = got.iter().map(|&i| out.readings[i as usize]).collect();
            (out, got)
        })
    }

    /// The select step: walks the index in `mode`, answering what the caches
    /// can and appending every sensor the walk chooses to probe to `plan`
    /// instead of contacting it. Consumes exactly the RNG draws the answer
    /// needs; the returned output holds cached readings only until
    /// [`ColrTree::complete`] folds the wave's outcomes in. `target` is the
    /// sample size asked of this tree, read in place of `query.sample_size`:
    /// an LSM level is handed its share of a query, not a copy of it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn select<R: Rng + ?Sized>(
        &self,
        query: &Query,
        target: Option<f64>,
        mode: Mode,
        now: Timestamp,
        rng: &mut R,
        plan: &mut ProbePlan,
        scratch: &mut QueryScratch,
    ) -> QueryOutput {
        match mode {
            Mode::RTree => self.exec_rtree(query, plan),
            Mode::HierCache => self.exec_hier(query, now, plan, scratch),
            Mode::Colr => {
                // The one availability-lock read of the query: the walk
                // takes every `a_i` from this source.
                let live = self.live_availability();
                self.exec_colr_arena(query, target, live.as_deref(), now, rng, plan, scratch)
            }
        }
    }

    /// The complete step: draws one outcome per id of `plan.fixes[fixes]`
    /// from `outcomes`, splices each into the group and `readings` position
    /// a probe issued on the spot would have put it, and appends where each
    /// success landed in `out.readings` to `got`, for the caller's one
    /// write-back: the successes are not copied. Nothing is written to the
    /// tree here.
    pub(crate) fn complete(
        &self,
        out: &mut QueryOutput,
        plan: &ProbePlan,
        fixes: Range<usize>,
        outcomes: &mut impl Iterator<Item = Option<Reading>>,
        got: &mut Vec<u32>,
        mode: Mode,
    ) {
        let fixes = &plan.fixes[fixes];
        let (Some(first), Some(last)) = (fixes.first(), fixes.last()) else {
            return;
        };
        let selected = last.ids.end - first.ids.start;
        let old = std::mem::take(&mut out.readings);
        let mut readings = Vec::with_capacity(old.len() + selected);
        let mut copied = 0;
        for fix in fixes {
            readings.extend_from_slice(&old[copied..fix.span.start]);
            copied = fix.span.start;
            let group_start = readings.len();
            for i in fix.ids.clone() {
                readings.extend_from_slice(&old[copied..plan.at[i]]);
                copied = plan.at[i];
                // One outcome per selected id; a missing one reads as a
                // failed probe.
                let outcome = outcomes.next();
                debug_assert!(outcome.is_some(), "one outcome per selected id");
                let outcome = outcome.flatten();
                // No cache in R-Tree mode: its results are never written back.
                if outcome.is_some() && mode != Mode::RTree {
                    got.push(readings.len() as u32);
                }
                readings.extend(outcome);
            }
            readings.extend_from_slice(&old[copied..fix.span.end]);
            copied = fix.span.end;
            let group = &mut out.groups[fix.group];
            group.agg = PartialAgg::empty();
            for r in &readings[group_start..] {
                group.agg.insert(r.value);
            }
            group.results = (readings.len() - group_start) as u64;
        }
        readings.extend_from_slice(&old[copied..]);
        out.readings = readings;
    }

    // ------------------------------------------------------------------
    // Mode::RTree — collection-agnostic baseline
    // ------------------------------------------------------------------

    /// Collects every sensor under arena node `idx` matching the query,
    /// counting the subtree nodes visited (excluding `idx` itself, which the
    /// caller already counted).
    fn collect_region_sensors(
        &self,
        idx: usize,
        query: &Query,
        stats: &mut QueryStats,
    ) -> Vec<SensorId> {
        let arena = self.sampling_arena();
        let mut out = Vec::new();
        let mut stack = vec![idx];
        let mut first = true;
        while let Some(cur) = stack.pop() {
            if !first {
                stats.nodes_traversed += 1;
                crate::flight::with(|f| f.node(arena.level(cur)));
            }
            first = false;
            if !query.region.intersects_rect(&arena.bbox(cur)) {
                continue;
            }
            stack.extend(arena.child_range(cur));
            out.extend(
                arena
                    .leaf_sensors(cur)
                    .iter()
                    .filter(|&&s| query.matches_sensor(self.sensor(s))),
            );
        }
        out
    }

    fn exec_rtree(&self, query: &Query, plan: &mut ProbePlan) -> QueryOutput {
        let arena = self.sampling_arena();
        let terminal_level = query.terminal_level.min(self.leaf_level());
        let mut stats = QueryStats::default();
        let mut groups = Vec::new();
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            stats.nodes_traversed += 1;
            let level = arena.level(idx);
            crate::flight::with(|f| f.node(level));
            let bbox = arena.bbox(idx);
            if !query.region.intersects_rect(&bbox) {
                continue;
            }
            let terminal = arena.child_len(idx) == 0
                || (level >= terminal_level && query.region.contains_rect(&bbox));
            if terminal {
                // No cache in this mode: every sensor in the region is
                // probed, so the walk itself materialises no reading.
                let sensors = self.collect_region_sensors(idx, query, &mut stats);
                plan.defer(groups.len(), 0..0, &sensors);
                groups.push(Self::group_over_readings(
                    NodeId(idx as u32),
                    bbox,
                    &[],
                    sensors.len() as f64,
                ));
            } else {
                stack.extend(arena.child_range(idx));
            }
        }
        QueryOutput {
            groups,
            readings: Vec::new(),
            stats,
            latency_ms: 0.0,
        }
    }

    // ------------------------------------------------------------------
    // Mode::HierCache — slot caches + standard range lookup
    // ------------------------------------------------------------------

    fn exec_hier(
        &self,
        query: &Query,
        now: Timestamp,
        plan: &mut ProbePlan,
        scratch: &mut QueryScratch,
    ) -> QueryOutput {
        let arena = self.sampling_arena();
        let terminal_level = query.terminal_level.min(self.leaf_level());
        let mut stats = QueryStats::default();
        let mut groups = Vec::new();
        let mut readings = Vec::new();
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            stats.nodes_traversed += 1;
            let level = arena.level(idx);
            crate::flight::with(|f| f.node(level));
            let bbox = arena.bbox(idx);
            if !query.region.intersects_rect(&bbox) {
                continue;
            }
            // Early termination on a sufficiently covering cached aggregate
            // (Section IV-B lookup). Type-filtered queries use the per-type
            // sub-aggregates against the per-type population.
            let population = match query.kind_filter {
                None => arena.weight(idx),
                Some(k) => arena.kind_weight(idx, k) as f64,
            };
            if level >= terminal_level && population > 0.0 && query.region.contains_rect(&bbox) {
                let needed = (population * COVERAGE_THRESHOLD).ceil();
                if self.serve_cached_aggregate(
                    arena,
                    idx,
                    population,
                    needed.max(1.0),
                    query,
                    now,
                    &mut stats,
                    &mut groups,
                ) {
                    crate::telem::tree().cache_hit(level);
                    continue;
                }
                crate::flight::with(|f| f.cache_miss(level));
            }
            if arena.child_len(idx) > 0 {
                stack.extend(arena.child_range(idx));
                continue;
            }
            // A leaf: fresh cached readings are used, the rest is probed.
            scratch.cached.clear();
            scratch.candidates.clear();
            self.terminal_scan_arena(
                arena,
                idx,
                false,
                query,
                now,
                &mut stats,
                &mut scratch.cached,
                &mut scratch.candidates,
                &mut scratch.stack,
            );
            let cached = &scratch.cached;
            stats.readings_from_cache += cached.len() as u64;
            crate::flight::with(|f| f.cached_readings(cached.len() as u64));
            if !cached.is_empty() {
                stats.cache_nodes_used += 1;
                crate::flight::with(|f| f.cache_hit(level, 0));
            }
            let target = (cached.len() + scratch.candidates.len()) as f64;
            let start = readings.len();
            readings.extend_from_slice(cached);
            plan.defer(groups.len(), start..readings.len(), &scratch.candidates);
            groups.push(Self::group_over_readings(
                NodeId(idx as u32),
                bbox,
                cached,
                target,
            ));
        }
        QueryOutput {
            groups,
            readings,
            stats,
            latency_ms: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{AlwaysAvailable, FailEveryKth};
    use crate::reading::SensorMeta;
    use crate::tree::ColrConfig;
    use colr_geo::Point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EXPIRY_MS: u64 = 300_000; // 5 minutes

    fn grid_tree(side: usize, cache_capacity: Option<usize>) -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..side * side)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % side) as f64, (i / side) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
            })
            .collect();
        let config = ColrConfig {
            cache_capacity,
            ..Default::default()
        };
        ColrTree::build(sensors, config, 42)
    }

    fn q(rect: Rect) -> Query {
        Query::range(rect, TimeDelta::from_mins(10)).with_terminal_level(2)
    }

    #[test]
    fn rtree_probes_every_sensor_in_region() {
        let tree = grid_tree(16, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5); // 8x8 = 64 sensors
        let out = tree.execute(&q(region), Mode::RTree, &probe, Timestamp(1_000), &mut rng);
        assert_eq!(out.stats.sensors_probed, 64);
        assert_eq!(out.readings.len(), 64);
        assert_eq!(out.aggregate(AggKind::Count), Some(64.0));
        assert_eq!(out.stats.cache_nodes_used, 0);
        assert_eq!(out.stats.cache_inserts, 0);
        assert!(out.latency_ms > 0.0);
    }

    #[test]
    fn rtree_never_uses_cache_even_when_warm() {
        let tree = grid_tree(16, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        // Warm the cache with a hier query first.
        tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        let out = tree.execute(&q(region), Mode::RTree, &probe, Timestamp(2_000), &mut rng);
        assert_eq!(out.stats.sensors_probed, 64);
        assert_eq!(out.stats.readings_from_cache, 0);
    }

    #[test]
    fn hier_cold_probes_then_warm_serves_from_cache() {
        let tree = grid_tree(16, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        let cold = tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        assert_eq!(cold.stats.sensors_probed, 64);
        assert_eq!(cold.stats.cache_inserts, 64);
        assert_eq!(tree.cached_readings(), 64);

        let warm = tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(2_000),
            &mut rng,
        );
        assert_eq!(warm.stats.sensors_probed, 0, "fully cached region reprobed");
        assert!(warm.stats.cache_nodes_used > 0);
        assert_eq!(warm.result_size(), 64);
        // Aggregate shortcut visits fewer nodes than the cold descent.
        assert!(warm.stats.nodes_traversed <= cold.stats.nodes_traversed);
    }

    #[test]
    fn frozen_execution_defers_writebacks() {
        let tree = grid_tree(16, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        tree.advance(Timestamp(1_000));
        let (out, deferred) = tree.execute_frozen(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        assert_eq!(out.stats.sensors_probed, 64);
        assert_eq!(out.stats.cache_inserts, 0, "frozen run must not insert");
        assert_eq!(
            tree.cached_readings(),
            0,
            "tree untouched during frozen run"
        );
        assert_eq!(deferred.len(), 64);
        // Applying the deferred batch reproduces the immediate-mode state.
        assert_eq!(tree.apply_readings(&deferred, Timestamp(1_000)), 64);
        assert_eq!(tree.cached_readings(), 64);
        let warm = tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(2_000),
            &mut rng,
        );
        assert_eq!(warm.stats.sensors_probed, 0);
    }

    /// [`AlwaysAvailable`] that notes, at every batch it is asked for, how
    /// many nodes of `tree` are marked as being filled — and panics instead of
    /// answering batch `panic_at`.
    struct MarkSpy<'a> {
        tree: &'a ColrTree,
        marked_at_batch: parking_lot::Mutex<Vec<usize>>,
        panic_at: Option<usize>,
    }

    fn marked(tree: &ColrTree) -> usize {
        tree.node_ids()
            .filter(|&id| tree.with_cache(id, |c| c.filling != 0))
            .count()
    }

    impl ProbeService for MarkSpy<'_> {
        fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
            // Reads every stripe: the query holds none of them here.
            let mut seen = self.marked_at_batch.lock();
            seen.push(marked(self.tree));
            assert_ne!(Some(seen.len() - 1), self.panic_at, "backend down");
            AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            }
            .probe_batch(ids, now)
        }
    }

    /// Sets this thread's hook before each chunk of an `apply_readings` to
    /// push what `note` reads of the tree being written into the returned
    /// list.
    fn before_each_chunk<T: 'static>(
        note: impl Fn(&ColrTree) -> T + 'static,
    ) -> std::rc::Rc<std::cell::RefCell<Vec<T>>> {
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let log = seen.clone();
        crate::tree::tests::on_each_chunk(Some(Box::new(move |tree| {
            log.borrow_mut().push(note(tree));
        })));
        seen
    }

    #[test]
    fn only_a_multi_chunk_write_back_marks_its_nodes_and_no_mark_outlives_it() {
        let tree = grid_tree(16, None);
        let spy = |panic_at| MarkSpy {
            tree: &tree,
            marked_at_batch: Default::default(),
            panic_at,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let all = q(Rect::from_coords(-0.5, -0.5, 15.5, 15.5)).with_terminal_level(u16::MAX);
        let quarter = q(Rect::from_coords(-0.5, -0.5, 7.5, 7.5));
        let chunks = before_each_chunk(|tree| {
            // A copy taken mid-fill keeps none of the marks.
            assert_eq!(marked(&tree.clone()), 0);
            marked(tree)
        });

        // Nothing is written while the wave is out, so nothing is marked.
        // The 256 readings are written back in two chunks: every node above
        // one of them — here, every node — is marked from before the first
        // until the last is in, so the leaf the chunk boundary cuts cannot
        // pass for a covered one in between.
        let probe = spy(None);
        let out = tree.execute(&all, Mode::HierCache, &probe, Timestamp(1_000), &mut rng);
        assert_eq!(out.stats.sensors_probed, 256);
        assert_eq!(*probe.marked_at_batch.lock(), [0; 2]);
        assert_eq!(*chunks.borrow(), [tree.node_count(); 2]);
        assert_eq!(marked(&tree), 0);
        assert_eq!(tree.cached_readings(), 256);

        // 64 readings fit one chunk: nothing to mark.
        let expired = TimeDelta::from_millis(EXPIRY_MS + 60_000);
        let later = Timestamp(1_000) + expired;
        chunks.borrow_mut().clear();
        let out = tree.execute(&quarter, Mode::HierCache, &spy(None), later, &mut rng);
        assert_eq!(out.stats.sensors_probed, 64);
        assert_eq!(*chunks.borrow(), [0]);

        // A backend that dies between the waves unwinds before anything is
        // written: nothing of the request is cached, no mark is set, and
        // the tree serves.
        let later = later + expired;
        chunks.borrow_mut().clear();
        let probe = spy(Some(1));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(2);
            tree.execute(&all, Mode::HierCache, &probe, later, &mut rng)
        }));
        assert!(died.is_err());
        assert_eq!(*probe.marked_at_batch.lock(), [0; 2]);
        assert!(chunks.borrow().is_empty());
        assert_eq!((marked(&tree), tree.cached_readings()), (0, 0));
        let cold = tree.execute(&all, Mode::HierCache, &spy(None), later, &mut rng);
        assert_eq!(cold.stats.sensors_probed, 256);
        let warm = tree.execute(&all, Mode::HierCache, &spy(None), later, &mut rng);
        assert_eq!(warm.stats.sensors_probed, 0, "the gate serves again");
        assert_eq!(tree.validate(), Ok(()));
        crate::tree::tests::on_each_chunk(None);
    }

    /// The gap the fill mark exists for: a reader between the two chunks of
    /// one write-back counts the whole population. There the leaf the chunk
    /// boundary cuts holds 8 of its 9 readings, enough to pass the coverage
    /// gate as if it were whole (a count of 255) were it not marked.
    #[test]
    fn a_reader_between_two_chunks_of_one_write_back_counts_the_whole_population() {
        let tree = grid_tree(16, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let all = q(Rect::from_coords(-0.5, -0.5, 15.5, 15.5)).with_terminal_level(u16::MAX);
        let now = Timestamp(1_000);
        let reader = all.clone();
        let chunks = before_each_chunk(move |tree| {
            let mut rng = StdRng::seed_from_u64(2);
            let probe = AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            };
            let (out, _) = tree.execute_frozen(&reader, Mode::HierCache, &probe, now, &mut rng);
            (tree.cached_readings(), out.aggregate(AggKind::Count))
        });
        let mut rng = StdRng::seed_from_u64(1);
        let out = tree.execute(&all, Mode::HierCache, &probe, now, &mut rng);
        crate::tree::tests::on_each_chunk(None);
        assert_eq!(out.aggregate(AggKind::Count), Some(256.0));
        let wave = PROBE_PARALLELISM as usize;
        assert_eq!(
            *chunks.borrow(),
            [(0, Some(256.0)), (wave, Some(256.0))],
            "torn answer between chunks"
        );
    }

    #[test]
    fn hier_respects_freshness_bound() {
        let tree = grid_tree(16, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        // 2 minutes later, demand 1-minute freshness → cache unusable.
        let strict = Query::range(region, TimeDelta::from_mins(1)).with_terminal_level(2);
        let out = tree.execute(
            &strict,
            Mode::HierCache,
            &probe,
            Timestamp(121_000),
            &mut rng,
        );
        assert_eq!(out.stats.sensors_probed, 64);
    }

    #[test]
    fn hier_uses_partial_cache_at_leaves() {
        let tree = grid_tree(16, None);
        let mut rng = StdRng::seed_from_u64(1);
        // Warm a smaller region, then query a larger one.
        let small = Rect::from_coords(-0.5, -0.5, 3.5, 3.5); // 16 sensors
        let large = Rect::from_coords(-0.5, -0.5, 7.5, 7.5); // 64 sensors
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        tree.execute(
            &q(small),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        let out = tree.execute(
            &q(large),
            Mode::HierCache,
            &probe,
            Timestamp(2_000),
            &mut rng,
        );
        // Every sensor is answered exactly once: by a probe, a raw cached
        // reading, or a covering cached aggregate.
        assert_eq!(out.result_size(), 64);
        // The 16 warmed sensors must not be re-probed.
        assert!(
            out.stats.sensors_probed <= 48,
            "probed {} despite 16 cached",
            out.stats.sensors_probed
        );
        let served_from_cache = 64 - out.stats.sensors_probed;
        assert!(served_from_cache >= 16);
    }

    #[test]
    fn probe_failures_shrink_results_not_crash() {
        let tree = grid_tree(8, None);
        let probe = FailEveryKth::new(EXPIRY_MS, 2); // every 2nd probe fails
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5); // all 64
        let out = tree.execute(&q(region), Mode::RTree, &probe, Timestamp(1_000), &mut rng);
        assert_eq!(out.stats.sensors_probed, 64);
        assert_eq!(out.stats.probes_failed, 32);
        assert_eq!(out.readings.len(), 32);
    }

    #[test]
    fn cache_capacity_is_enforced_after_queries() {
        let tree = grid_tree(16, Some(20));
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        assert!(tree.cached_readings() <= 20);
        tree.validate().expect("valid after eviction");
    }

    #[test]
    fn disjoint_region_returns_empty() {
        let tree = grid_tree(8, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(100.0, 100.0, 110.0, 110.0);
        for mode in [Mode::RTree, Mode::HierCache] {
            let out = tree.execute(&q(region), mode, &probe, Timestamp(1_000), &mut rng);
            assert_eq!(out.result_size(), 0);
            assert_eq!(out.stats.sensors_probed, 0);
        }
    }

    #[test]
    fn polygon_region_filters_sensors() {
        use colr_geo::Polygon;
        let tree = grid_tree(8, None);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        // Triangle covering roughly half of the 8x8 grid (x + y < 7.2).
        let tri = Polygon::new(vec![
            Point::new(-0.5, -0.5),
            Point::new(7.7, -0.5),
            Point::new(-0.5, 7.7),
        ]);
        let query = Query::range(tri, TimeDelta::from_mins(10)).with_terminal_level(2);
        let out = tree.execute(&query, Mode::RTree, &probe, Timestamp(1_000), &mut rng);
        // Sensors with x + y <= 7 (below the hypotenuse): 36 of 64.
        assert_eq!(out.readings.len(), 36);
    }

    #[test]
    fn query_builder_sets_fields() {
        let query = Query::range(
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            TimeDelta::from_mins(3),
        )
        .with_terminal_level(4)
        .with_sample_size(30.0);
        assert_eq!(query.terminal_level, 4);
        assert_eq!(query.sample_size, Some(30.0));
        assert_eq!(query.staleness, TimeDelta::from_mins(3));
    }

    #[test]
    fn kind_filter_restricts_every_mode() {
        // Half the sensors are type 1 (even ids), half type 2.
        let sensors: Vec<SensorMeta> = (0..64)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % 8) as f64, (i / 8) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
                .with_kind(1 + (i % 2) as u16)
            })
            .collect();
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        for mode in [Mode::RTree, Mode::HierCache, Mode::Colr] {
            let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 42);
            let probe = AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            };
            let mut rng = StdRng::seed_from_u64(1);
            let mut query = q(region).with_kind_filter(1);
            if mode == Mode::Colr {
                query = query.with_sample_size(64.0);
            }
            let out = tree.execute(&query, mode, &probe, Timestamp(1_000), &mut rng);
            assert!(!out.readings.is_empty(), "{mode:?} returned nothing");
            for r in &out.readings {
                assert_eq!(
                    tree.sensor(r.sensor).kind,
                    1,
                    "{mode:?} leaked a type-2 sensor"
                );
            }
            assert!(out.result_size() <= 32, "{mode:?} returned too many");
        }
    }

    #[test]
    fn kind_filter_served_from_per_type_aggregates() {
        let sensors: Vec<SensorMeta> = (0..64)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % 8) as f64, (i / 8) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
                .with_kind(1 + (i % 2) as u16)
            })
            .collect();
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        let tree = ColrTree::build(sensors, ColrConfig::default(), 42);
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        // Warm with an unfiltered query: aggregates cover both types, with
        // per-type sub-aggregates alongside.
        tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        // A filtered query is answered from the per-type sub-aggregates:
        // no probes, and the aggregate reflects only type-2 sensors.
        let out = tree.execute(
            &q(region).with_kind_filter(2),
            Mode::HierCache,
            &probe,
            Timestamp(2_000),
            &mut rng,
        );
        assert_eq!(out.stats.sensors_probed, 0);
        assert_eq!(out.result_size(), 32);
        assert!(out.stats.cache_nodes_used > 0, "per-type aggregates unused");
        // AlwaysAvailable reports value == id; type 2 = odd ids → the
        // combined aggregate must be exactly the odd ids 1..63.
        let mut agg = crate::agg::PartialAgg::empty();
        for g in &out.groups {
            agg.merge(&g.agg);
        }
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 63.0);
        assert_eq!(agg.sum, (0..32).map(|i| (2 * i + 1) as f64).sum::<f64>());
    }

    #[test]
    fn expired_cache_entries_are_not_served() {
        let tree = grid_tree(8, None);
        let probe = AlwaysAvailable { expiry_ms: 10_000 }; // 10s expiry
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::from_coords(-0.5, -0.5, 7.5, 7.5);
        tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(1_000),
            &mut rng,
        );
        // 30s later every cached reading has expired.
        let out = tree.execute(
            &q(region),
            Mode::HierCache,
            &probe,
            Timestamp(31_000),
            &mut rng,
        );
        assert_eq!(out.stats.readings_from_cache, 0);
        assert_eq!(out.stats.sensors_probed, 64);
    }
}
