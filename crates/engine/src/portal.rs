//! The portal's configuration and result shapes: [`PortalConfig`] going in;
//! [`PortalResult`], [`GroupView`], [`BatchResult`] and the
//! [`DegradationReport`] shortfall accounting coming out. The front door
//! that consumes and produces them is [`crate::ShardedPortal`].

use colr_geo::Rect;
use colr_tree::{ColrConfig, Histogram, LsmConfig, Mode, QueryStats};

use crate::service::AdmissionConfig;

/// How the service maintains its index as sensors come and go. One
/// strategy exists; the enum remains the carrier of its shape parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexStrategy {
    /// Incremental LSM index ([`colr_tree::LsmTree`]): registrations land in
    /// a mutable L0 and are queryable immediately, retirements tombstone in
    /// O(1), and background merges compact L0 into geometrically larger
    /// immutable COLR-Tree levels off the hot path.
    Lsm(LsmConfig),
}

impl Default for IndexStrategy {
    fn default() -> Self {
        IndexStrategy::Lsm(LsmConfig::default())
    }
}

/// Portal construction parameters.
#[derive(Debug, Clone)]
pub struct PortalConfig {
    /// Index configuration.
    pub tree: ColrConfig,
    /// Execution mode (full COLR-Tree by default; the baselines are exposed
    /// for experiments).
    pub mode: Mode,
    /// The portal-wide cap on sensors contacted per query ("SENSORMAP is
    /// configured with the maximum number of sensors that can be contacted
    /// per query"); applied when a query has no explicit `SAMPLESIZE`.
    pub max_sensors_per_query: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Admission-controller tuning, applied per [`crate::PortalService`]
    /// (so per shard under a [`crate::ShardedPortal`]).
    pub admission: AdmissionConfig,
    /// Record one per-query flight record every this many interactive
    /// queries (0 = never). `EXPLAIN ANALYZE` always records, regardless of
    /// this gate. Recording never perturbs answers: it consumes no RNG and
    /// changes no float computation.
    pub flight_record_every: u64,
    /// Index shape parameters (L0 capacity, level growth ratio).
    pub index: IndexStrategy,
}

impl Default for PortalConfig {
    fn default() -> Self {
        PortalConfig {
            tree: ColrConfig::default(),
            mode: Mode::Colr,
            max_sensors_per_query: Some(500),
            seed: 42,
            admission: AdmissionConfig::default(),
            flight_record_every: 0,
            index: IndexStrategy::default(),
        }
    }
}

/// One map-icon group in a portal result.
#[derive(Debug, Clone)]
pub struct GroupView {
    /// Bounding box of the group (icon extent on the map).
    pub bbox: Rect,
    /// Number of readings represented.
    pub count: u64,
    /// The requested aggregate over the group (`None` when the group is
    /// empty and the aggregate is undefined).
    pub value: Option<f64>,
    /// Whether the group was served from cache.
    pub from_cache: bool,
}

/// Aggregated outcome of a [`crate::ShardedPortal::execute_many`] batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One result per submitted query, in submission order.
    pub results: Vec<PortalResult>,
    /// Collection statistics summed over the batch.
    pub stats: QueryStats,
    /// Readings the batch wrote back into the caches: after it completed on
    /// one shard, as each query ran when routed over several.
    pub readings_applied: usize,
    /// Shortfall accounting merged over the whole batch (per-query reports
    /// stay on each [`PortalResult`]).
    pub degradation: DegradationReport,
}

impl BatchResult {
    /// The worst per-query fulfillment in the batch (1.0 for an empty
    /// batch): the number a portal dashboard should alarm on, since a batch
    /// average hides one fully-degraded viewport among healthy ones.
    pub fn worst_fulfillment(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.degradation.fulfillment())
            .fold(1.0_f64, f64::min)
    }
}

/// How far a query's answer fell short of what was asked, and why.
///
/// Surfaced on every [`PortalResult`] so portal clients can label degraded
/// answers ("showing 41 of 60 requested sensors — a region is down")
/// instead of silently presenting a thinner sample as the truth.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradationReport {
    /// The sample-size target `R` the query asked for (0 when the query
    /// ran in a mode without a sampling target).
    pub requested: f64,
    /// Fresh readings actually delivered (cache + successful probes).
    pub sampled: u64,
    /// Probes skipped because the sensor's circuit breaker was open.
    pub breaker_skipped: u64,
    /// Retries abandoned because the probe deadline budget ran out.
    pub deadline_clipped: u64,
    /// Retry probes issued while collecting this answer.
    pub probes_retried: u64,
    /// Minimum per-constituent fulfillment tracked across
    /// [`DegradationReport::merge`] calls; `None` on a leaf report (a single
    /// query's own accounting, where the worst constituent is the report
    /// itself).
    pub(crate) worst: Option<f64>,
}

impl DegradationReport {
    /// Fraction of the requested sample actually delivered (1.0 when no
    /// target was set; can exceed 1.0 when oversampling overshoots).
    pub fn fulfillment(&self) -> f64 {
        if self.requested > 0.0 {
            self.sampled as f64 / self.requested
        } else {
            1.0
        }
    }

    /// The minimum fulfillment over every report merged into this one (the
    /// report's own [`DegradationReport::fulfillment`] when nothing has been
    /// merged in). This is the number a dashboard should alarm on: the sum
    /// of a starving viewport and a healthy one looks healthy, the minimum
    /// does not.
    pub fn worst_fulfillment(&self) -> f64 {
        self.worst.unwrap_or_else(|| self.fulfillment())
    }

    /// `true` when the report carries no accounting at all (the identity
    /// element of [`DegradationReport::merge`]).
    pub fn is_empty(&self) -> bool {
        self.requested == 0.0
            && self.sampled == 0
            && self.breaker_skipped == 0
            && self.deadline_clipped == 0
            && self.probes_retried == 0
            && self.worst.is_none()
    }

    /// What this report contributes to a merged minimum: nothing when it is
    /// the empty identity, its tracked minimum when it is itself a merge,
    /// its own fulfillment otherwise.
    fn min_contribution(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.worst_fulfillment())
        }
    }

    /// Folds another report into this one: every axis sums, and the merged
    /// report additionally tracks the minimum constituent fulfillment
    /// (surfaced by [`DegradationReport::worst_fulfillment`]).
    ///
    /// Associative and commutative with `DegradationReport::default()` as
    /// the identity — merging a batch in any order yields the same sums and
    /// the same worst fulfillment — which is what lets both
    /// [`BatchResult`] accounting and a scatter-gather shard router use it
    /// on results arriving in arbitrary order.
    pub fn merge(&mut self, other: &DegradationReport) {
        self.worst = match (self.min_contribution(), other.min_contribution()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (one, None) | (None, one) => one,
        };
        self.requested += other.requested;
        self.sampled += other.sampled;
        self.breaker_skipped += other.breaker_skipped;
        self.deadline_clipped += other.deadline_clipped;
        self.probes_retried += other.probes_retried;
    }
}

/// A complete portal answer.
#[derive(Debug, Clone)]
pub struct PortalResult {
    /// Per-group views, the map overlay payload.
    pub groups: Vec<GroupView>,
    /// The requested aggregate over all groups combined.
    pub value: Option<f64>,
    /// Distribution of raw reading values (for the multi-resolution
    /// "distribution of waiting times" display); present when raw readings
    /// were materialised.
    pub histogram: Option<Histogram>,
    /// Collection statistics.
    pub stats: QueryStats,
    /// Modelled processing latency, ms.
    pub latency_ms: f64,
    /// Shortfall accounting for this answer.
    pub degradation: DegradationReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_merge_is_order_independent() {
        let leaf = |requested: f64, sampled: u64| DegradationReport {
            requested,
            sampled,
            breaker_skipped: sampled / 2,
            deadline_clipped: 1,
            probes_retried: 3,
            worst: None,
        };
        // Distinct fulfillments, including one overshoot and one zero.
        let reports = [leaf(60.0, 41), leaf(20.0, 24), leaf(10.0, 0), leaf(0.0, 0)];
        let merge_in = |order: &[usize]| {
            let mut acc = DegradationReport::default();
            for &i in order {
                acc.merge(&reports[i]);
            }
            acc
        };
        let baseline = merge_in(&[0, 1, 2, 3]);
        assert_eq!(baseline.worst_fulfillment(), 0.0); // the starving report
        assert_eq!(baseline.requested, 90.0);
        assert_eq!(baseline.sampled, 65);
        for order in [
            [3, 2, 1, 0],
            [1, 3, 0, 2],
            [2, 0, 3, 1],
            [0, 2, 1, 3],
            [3, 1, 2, 0],
        ] {
            let merged = merge_in(&order);
            assert_eq!(merged, baseline, "order {order:?} diverged");
            assert_eq!(merged.worst_fulfillment(), baseline.worst_fulfillment());
        }
        // Associativity with pre-merged sub-trees (the router's shape: some
        // inputs are themselves merged results).
        let mut left = DegradationReport::default();
        left.merge(&reports[0]);
        left.merge(&reports[1]);
        let mut right = DegradationReport::default();
        right.merge(&reports[2]);
        right.merge(&reports[3]);
        let mut tree = left;
        tree.merge(&right);
        assert_eq!(tree, baseline);
    }

    #[test]
    fn degradation_merge_identity_and_leaf_semantics() {
        // Merging a single leaf into the identity preserves every
        // observable, including worst_fulfillment.
        let leaf = DegradationReport {
            requested: 30.0,
            sampled: 36,
            breaker_skipped: 0,
            deadline_clipped: 0,
            probes_retried: 2,
            worst: None,
        };
        let mut acc = DegradationReport::default();
        assert!(acc.is_empty());
        acc.merge(&leaf);
        assert_eq!(acc.fulfillment(), leaf.fulfillment());
        assert_eq!(acc.worst_fulfillment(), leaf.worst_fulfillment());
        // A lone leaf's worst is its own (over-)fulfillment, not clamped.
        assert!(acc.worst_fulfillment() > 1.0);
        // Merging the identity into a report changes nothing.
        let before = acc;
        acc.merge(&DegradationReport::default());
        assert_eq!(acc, before);
    }
}
