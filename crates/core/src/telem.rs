//! Cached handles onto the global telemetry registry for this crate's hot
//! paths.
//!
//! Instrumentation sites must not pay the registry's name lookup (a
//! read-lock + hash) per event, so each subsystem's handles are created once
//! and held in `OnceLock` statics. Per-level counters are pre-created as
//! fixed arrays indexed by `min(level, LEVEL_BUCKETS - 1)`, keeping the hot
//! path a single relaxed atomic increment with no allocation. All handles
//! target [`colr_telemetry::global`].

use std::sync::OnceLock;

use colr_telemetry::{global, Counter, Histogram};

use crate::lookup::Mode;

/// Per-level counter arrays cover levels `0..LEVEL_BUCKETS-1`; deeper levels
/// share the final bucket (labelled `N+`), far beyond the paper's tree
/// heights.
pub const LEVEL_BUCKETS: usize = 12;

fn per_level(name: &str) -> [Counter; LEVEL_BUCKETS] {
    std::array::from_fn(|i| {
        if i + 1 == LEVEL_BUCKETS {
            global().counter(&format!("{name}{{level=\"{i}+\"}}"))
        } else {
            global().counter(&format!("{name}{{level=\"{i}\"}}"))
        }
    })
}

#[inline]
fn level_bucket(level: u16) -> usize {
    (level as usize).min(LEVEL_BUCKETS - 1)
}

/// Handles for the tree's cache counters (`colr_tree_*`).
pub(crate) struct TreeTelem {
    /// A node's slot cache covered a contained terminal, by node level.
    cache_hits: [Counter; LEVEL_BUCKETS],
    /// Whole slots dropped by the roll trigger.
    pub(crate) slots_rolled: Counter,
    /// Readings cached by insert/write-back.
    pub(crate) cache_inserts: Counter,
}

impl TreeTelem {
    pub(crate) fn cache_hit(&self, level: u16) {
        self.cache_hits[level_bucket(level)].inc();
    }
}

pub(crate) fn tree() -> &'static TreeTelem {
    static T: OnceLock<TreeTelem> = OnceLock::new();
    T.get_or_init(|| TreeTelem {
        cache_hits: per_level("colr_tree_cache_hits_total"),
        slots_rolled: global().counter("colr_tree_slots_rolled_total"),
        cache_inserts: global().counter("colr_tree_cache_inserts_total"),
    })
}

/// Handles for per-query counters (`colr_query_*`) and the probe-side
/// counters the lookup path drives (`colr_probe_*`).
pub(crate) struct QueryTelem {
    queries_rtree: Counter,
    queries_hier: Counter,
    queries_colr: Counter,
    /// Modelled end-to-end query latency, µs.
    pub(crate) latency_us: Histogram,
    /// Probe requests issued (successful or not).
    pub(crate) probes_issued: Counter,
    /// Probe-wave batch sizes.
    pub(crate) probe_batch_size: Histogram,
    /// Modelled probe-wave latency (RTT waves + per-probe overhead), µs.
    pub(crate) probe_wave_us: Histogram,
}

impl QueryTelem {
    pub(crate) fn count_query(&self, mode: Mode) {
        match mode {
            Mode::RTree => self.queries_rtree.inc(),
            Mode::HierCache => self.queries_hier.inc(),
            Mode::Colr => self.queries_colr.inc(),
        }
    }
}

pub(crate) fn query() -> &'static QueryTelem {
    static T: OnceLock<QueryTelem> = OnceLock::new();
    T.get_or_init(|| QueryTelem {
        queries_rtree: global().counter("colr_query_total{mode=\"rtree\"}"),
        queries_hier: global().counter("colr_query_total{mode=\"hier_cache\"}"),
        queries_colr: global().counter("colr_query_total{mode=\"colr\"}"),
        latency_us: global().histogram("colr_query_latency_us"),
        probes_issued: global().counter("colr_probe_issued_total"),
        probe_batch_size: global().histogram("colr_probe_batch_size"),
        probe_wave_us: global().histogram("colr_probe_wave_us"),
    })
}

/// Trees bulk-built (`colr_build_trees_total`).
pub(crate) fn trees_built() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| global().counter("colr_build_trees_total"))
}

/// Circuit breakers tripped open by any resilient prober
/// (`colr_resilient_breaker_opened_total`).
pub(crate) fn breakers_opened() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| global().counter("colr_resilient_breaker_opened_total"))
}
