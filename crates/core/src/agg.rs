//! Partial aggregates cached in slot caches.
//!
//! A [`PartialAgg`] carries enough state (count, sum, min, max) to answer any
//! of the [`AggKind`]s the SensorMap dialect supports, and to be *merged* with
//! sibling partials. Removal (`unmerge`) is only possible for the
//! sum/count-like components; removing a value that is the current min or max
//! fails and forces the caller to rebuild the slot from its children — exactly
//! the distinction Section IV-B draws ("sum and count support a decrement
//! operation, while min and max do not").

/// The aggregate functions supported by the portal dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// `count(*)`
    Count,
    /// `sum(value)`
    Sum,
    /// `avg(value)`
    Avg,
    /// `min(value)`
    Min,
    /// `max(value)`
    Max,
}

/// A mergeable partial aggregate over a multiset of readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialAgg {
    /// Number of readings aggregated (the cache table's `value weight`).
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Minimum value (`f64::INFINITY` when empty).
    pub min: f64,
    /// Maximum value (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Default for PartialAgg {
    fn default() -> Self {
        PartialAgg::empty()
    }
}

impl PartialAgg {
    /// The empty aggregate (identity for [`PartialAgg::merge`]).
    pub const fn empty() -> Self {
        PartialAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A singleton aggregate over one value.
    pub fn from_value(v: f64) -> Self {
        PartialAgg {
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    /// `true` when no readings have been aggregated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds one value.
    #[inline]
    pub fn insert(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another partial into `self`.
    pub fn merge(&mut self, other: &PartialAgg) {
        if other.is_empty() {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Merged copy of two partials.
    pub fn merged(mut self, other: &PartialAgg) -> PartialAgg {
        self.merge(other);
        self
    }

    /// Attempts to remove one previously inserted value.
    ///
    /// Returns `false` — leaving `self` unchanged — when the removal cannot be
    /// performed incrementally: the value equals the current min or max (the
    /// replacement extreme is unknown), or the aggregate is empty. The caller
    /// must then rebuild the slot from the level below, mirroring the paper's
    /// slot-update trigger behaviour for non-decrementable aggregates.
    #[must_use]
    pub fn try_remove(&mut self, v: f64) -> bool {
        if self.count == 0 {
            return false;
        }
        if self.count == 1 {
            // Removing the only element is always exact.
            *self = PartialAgg::empty();
            return true;
        }
        if v <= self.min || v >= self.max {
            return false;
        }
        self.count -= 1;
        self.sum -= v;
        true
    }

    /// Finalises the partial into the value of an [`AggKind`]; `None` when
    /// empty (SQL semantics: aggregates over the empty set are NULL, except
    /// `count` which we report as `Some(0.0)`).
    pub fn finalize(&self, kind: AggKind) -> Option<f64> {
        match kind {
            AggKind::Count => Some(self.count as f64),
            AggKind::Sum => (!self.is_empty()).then_some(self.sum),
            AggKind::Avg => (!self.is_empty()).then(|| self.sum / self.count as f64),
            AggKind::Min => (!self.is_empty()).then_some(self.min),
            AggKind::Max => (!self.is_empty()).then_some(self.max),
        }
    }
}

/// A fixed-bucket histogram used by the portal to render value
/// *distributions* for sensor groups (the Restaurant Finder's "distribution of
/// waiting times for each group" from Section I).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Readings below `lo` / above `hi`.
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram of `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `buckets == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn insert(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = (((v - self.lo) / width) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// `true` when `other` uses the same `[lo, hi)` range and bucket count,
    /// i.e. when [`Histogram::merge`] would accept it. Lets a scatter-gather
    /// merger test compatibility instead of panicking.
    pub fn same_binning(&self, other: &Histogram) -> bool {
        self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len()
    }

    /// Merges another histogram with identical binning.
    ///
    /// # Panics
    /// Panics when the binning differs.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.hi, other.hi, "histogram hi mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl PartialAgg {
        /// An aggregate over a slice of values.
        pub(crate) fn from_values(values: &[f64]) -> Self {
            let mut a = PartialAgg::empty();
            for &v in values {
                a.insert(v);
            }
            a
        }
    }

    #[test]
    fn empty_finalize_semantics() {
        let a = PartialAgg::empty();
        assert_eq!(a.finalize(AggKind::Count), Some(0.0));
        assert_eq!(a.finalize(AggKind::Sum), None);
        assert_eq!(a.finalize(AggKind::Avg), None);
        assert_eq!(a.finalize(AggKind::Min), None);
        assert_eq!(a.finalize(AggKind::Max), None);
    }

    #[test]
    fn insert_then_finalize() {
        let a = PartialAgg::from_values(&[3.0, 1.0, 2.0]);
        assert_eq!(a.finalize(AggKind::Count), Some(3.0));
        assert_eq!(a.finalize(AggKind::Sum), Some(6.0));
        assert_eq!(a.finalize(AggKind::Avg), Some(2.0));
        assert_eq!(a.finalize(AggKind::Min), Some(1.0));
        assert_eq!(a.finalize(AggKind::Max), Some(3.0));
    }

    #[test]
    fn merge_identity() {
        let mut a = PartialAgg::from_values(&[1.0, 2.0]);
        let before = a;
        a.merge(&PartialAgg::empty());
        assert_eq!(a, before);
        let mut e = PartialAgg::empty();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn try_remove_midrange_succeeds() {
        let mut a = PartialAgg::from_values(&[1.0, 2.0, 3.0]);
        assert!(a.try_remove(2.0));
        assert_eq!(a.finalize(AggKind::Count), Some(2.0));
        assert_eq!(a.finalize(AggKind::Sum), Some(4.0));
        // Extremes untouched.
        assert_eq!(a.finalize(AggKind::Min), Some(1.0));
        assert_eq!(a.finalize(AggKind::Max), Some(3.0));
    }

    #[test]
    fn try_remove_extreme_fails_and_preserves_state() {
        let mut a = PartialAgg::from_values(&[1.0, 2.0, 3.0]);
        let before = a;
        assert!(!a.try_remove(1.0));
        assert!(!a.try_remove(3.0));
        assert_eq!(a, before);
    }

    #[test]
    fn try_remove_last_element_empties() {
        let mut a = PartialAgg::from_value(5.0);
        assert!(a.try_remove(5.0));
        assert!(a.is_empty());
    }

    #[test]
    fn try_remove_from_empty_fails() {
        let mut a = PartialAgg::empty();
        assert!(!a.try_remove(1.0));
    }

    #[test]
    fn histogram_buckets_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 25.0] {
            h.insert(v);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.insert(0.25);
        b.insert(0.75);
        b.insert(0.25);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn histogram_merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let b = Histogram::new(0.0, 1.0, 3);
        a.merge(&b);
    }

    proptest! {
        /// Merging partials is equivalent to aggregating the concatenation.
        #[test]
        fn merge_equals_concat(xs in proptest::collection::vec(-1e6..1e6f64, 0..20),
                               ys in proptest::collection::vec(-1e6..1e6f64, 0..20)) {
            let a = PartialAgg::from_values(&xs);
            let b = PartialAgg::from_values(&ys);
            let merged = a.merged(&b);
            let mut all = xs.clone();
            all.extend_from_slice(&ys);
            let direct = PartialAgg::from_values(&all);
            prop_assert_eq!(merged.count, direct.count);
            prop_assert!((merged.sum - direct.sum).abs() <= 1e-6 * (1.0 + direct.sum.abs()));
            prop_assert_eq!(merged.min, direct.min);
            prop_assert_eq!(merged.max, direct.max);
        }

        /// A successful try_remove leaves an aggregate consistent with the
        /// remaining multiset for count/sum.
        #[test]
        fn remove_is_consistent(xs in proptest::collection::vec(0.0..100.0f64, 2..20),
                                idx in 0usize..19) {
            let idx = idx % xs.len();
            let mut a = PartialAgg::from_values(&xs);
            let removed = xs[idx];
            if a.try_remove(removed) {
                let mut rest = xs.clone();
                rest.remove(idx);
                let direct = PartialAgg::from_values(&rest);
                prop_assert_eq!(a.count, direct.count);
                prop_assert!((a.sum - direct.sum).abs() <= 1e-6 * (1.0 + direct.sum.abs()));
            }
        }

        /// Merge is commutative.
        #[test]
        fn merge_commutes(xs in proptest::collection::vec(-1e3..1e3f64, 0..10),
                          ys in proptest::collection::vec(-1e3..1e3f64, 0..10)) {
            let a = PartialAgg::from_values(&xs);
            let b = PartialAgg::from_values(&ys);
            let ab = a.merged(&b);
            let ba = b.merged(&a);
            prop_assert_eq!(ab.count, ba.count);
            prop_assert!((ab.sum - ba.sum).abs() <= 1e-9 * (1.0 + ab.sum.abs()));
            prop_assert_eq!(ab.min, ba.min);
            prop_assert_eq!(ab.max, ba.max);
        }
    }
}
