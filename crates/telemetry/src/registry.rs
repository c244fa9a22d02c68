//! The lock-free metrics registry: named counters and log-bucketed
//! histograms with create-on-first-use handles and snapshot/diff support.
//!
//! A [`Registry`] maps metric names to shared atomic cells. Handles
//! ([`Counter`], [`Histogram`]) are `Arc`s onto those cells: cloning is
//! cheap, recording is a relaxed atomic op, and the registry's lock is only
//! touched on first use of a name (and when snapshotting).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i)` — log-2 resolution over the
/// full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

const RELAXED: Ordering = Ordering::Relaxed;

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle. Clones share the same cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, RELAXED);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(RELAXED)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-bucketed histogram handle over `u64` observations (typically
/// microseconds or batch sizes). Bucket `i` covers `[2^(i-1), 2^i)`;
/// bucket 0 covers exactly zero.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// The bucket index an observation lands in.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, RELAXED);
        self.0.count.fetch_add(1, RELAXED);
        self.0.sum.fetch_add(v, RELAXED);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(RELAXED)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(RELAXED)
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *b = cell.load(RELAXED);
        }
        HistogramSnapshot {
            count: self.0.count.load(RELAXED),
            sum: self.0.sum.load(RELAXED),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Approximate quantile `q` in `[0, 1]`: the midpoint of the first
    /// bucket whose cumulative count reaches `q · count` (log-2 bucket
    /// resolution). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = 1u64 << (i - 1);
                let hi = bucket_upper(i);
                // Rank-interpolate within the log-2 bucket: the rank'th
                // observation is the `into`'th of `b` in this bucket, so
                // place it proportionally between the bucket bounds instead
                // of collapsing every in-bucket rank to one point (which
                // overstated low quantiles by up to 2x).
                let into = rank - (seen - b);
                let frac = into as f64 / b as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1) as f64
    }

    /// Mean observation (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise difference `self − older` (saturating).
    pub fn diff(&self, older: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(older.buckets[i]);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(older.count),
            sum: self.sum.saturating_sub(older.sum),
            buckets,
        }
    }
}

/// A point-in-time copy of every metric in a registry. Maps are ordered, so
/// two snapshots of identical state expose identically (determinism).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Interval metrics: counters and histograms become `self − older`
    /// (names absent from `older` keep their value).
    pub fn diff(&self, older: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let prev = older.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(prev))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| match older.histograms.get(k) {
                Some(prev) => (k.clone(), h.diff(prev)),
                None => (k.clone(), h.clone()),
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Tables {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named-metric registry. See the crate docs for the naming scheme.
#[derive(Default)]
pub struct Registry {
    tables: RwLock<Tables>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.tables.read().counters.get(name) {
            return c.clone();
        }
        let mut tables = self.tables.write();
        tables
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.tables.read().histograms.get(name) {
            return h.clone();
        }
        let mut tables = self.tables.write();
        tables
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| {
                Histogram(Arc::new(HistogramCore {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }))
            })
            .clone()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let tables = self.tables.read();
        Snapshot {
            counters: tables
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            histograms: tables
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry every built-in instrumentation site records
/// into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_identity() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "handles to one name share the cell");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_observe_and_quantile() {
        let r = Registry::new();
        let h = r.histogram("lat_us");
        for v in [0u64, 1, 2, 3, 100, 100, 100, 1000, 1000, 100_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 102_306);
        // p50 lands in the bucket holding the 100s: [64, 127].
        let p50 = s.quantile(0.5);
        assert!((64.0..=127.0).contains(&p50), "p50 = {p50}");
        // p100 lands in the bucket holding 100_000: [65536, 131071].
        let p100 = s.quantile(1.0);
        assert!((65_536.0..=131_071.0).contains(&p100), "p100 = {p100}");
        assert_eq!(HistogramSnapshot::default_empty().quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        // All mass in one bucket: [512, 1023] holds 1000 observations. The
        // quantile must spread ranks across the bucket span instead of
        // collapsing them all to one point — p10 < p50 < p99, with p50 near
        // the bucket middle and p99 near (but not beyond) the upper bound.
        let r = Registry::new();
        let h = r.histogram("spread_us");
        for _ in 0..1000 {
            h.observe(700);
        }
        let s = h.snapshot();
        let (p10, p50, p99) = (s.quantile(0.10), s.quantile(0.50), s.quantile(0.99));
        assert!(p10 < p50 && p50 < p99, "p10={p10} p50={p50} p99={p99}");
        assert!(
            (p50 - 767.5).abs() < 2.0,
            "p50 = {p50}, want ~bucket middle"
        );
        assert!(p99 <= 1023.0, "p99 = {p99} beyond the bucket upper bound");
        assert!(p99 > 1000.0, "p99 = {p99} should approach the upper bound");
        // A lone observation fills its whole bucket: frac = 1/1 puts every
        // quantile at the upper bound, never beyond it.
        let one = r.histogram("one_us");
        one.observe(700);
        assert_eq!(one.snapshot().quantile(0.5), 1023.0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> HistogramSnapshot {
            HistogramSnapshot {
                count: 0,
                sum: 0,
                buckets: [0; HISTOGRAM_BUCKETS],
            }
        }
    }

    #[test]
    fn snapshot_diff_subtracts() {
        let r = Registry::new();
        let c = r.counter("c_total");
        let h = r.histogram("h_us");
        c.add(3);
        h.observe(10);
        let before = r.snapshot();
        c.add(4);
        h.observe(10);
        h.observe(20);
        let after = r.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counters["c_total"], 4);
        assert_eq!(d.histograms["h_us"].count, 2);
        assert_eq!(d.histograms["h_us"].sum, 30);
        // Diffing a snapshot with itself is all-zero.
        let z = after.diff(&after);
        assert!(z.counters.values().all(|&v| v == 0));
        assert!(z.histograms.values().all(|h| h.count == 0));
    }
}
