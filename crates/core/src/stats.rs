//! Per-query instrumentation and the modelled cost of query processing.
//!
//! The paper's evaluation reports *internal data-structure statistics*
//! (Fig 3), *sensor probe counts*, and *processing latency* (Fig 4–5).
//! [`QueryStats`] collects the structural counters during a lookup, and
//! [`latency_ms`] converts them into a deterministic simulated latency so the
//! latency figures are reproducible on any machine. Its constants are
//! calibrated against the relative costs the paper reports (probing live sensors is
//! orders of magnitude more expensive than touching an index node; COLR-Tree
//! lands around ~40 ms per query at the default workload scale).

/// Structural counters accumulated while processing one query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Index nodes visited during traversal (internal + leaf).
    pub nodes_traversed: u64,
    /// Nodes whose slot cache satisfied (part of) the query — the nested plot
    /// of Fig 3.
    pub cache_nodes_used: u64,
    /// Slot-cache slots combined to produce answers.
    pub slots_combined: u64,
    /// Raw cached readings that contributed to the answer.
    pub readings_from_cache: u64,
    /// Sensors probed (requests issued, including failed ones).
    pub sensors_probed: u64,
    /// Probe waves issued (primary waves of `PROBE_PARALLELISM` sensors plus
    /// retry waves). Lets cold-run reports attribute latency to round-trips.
    pub probe_waves: u64,
    /// Probes that returned no data (sensor unavailable).
    pub probes_failed: u64,
    /// Cache entries scanned (flat-cache baseline work).
    pub entries_scanned: u64,
    /// Readings inserted into the cache as a result of this query's probes.
    pub cache_inserts: u64,
    /// Individual probes re-issued by a resilient retry layer.
    pub probes_retried: u64,
    /// Retry waves issued after primary waves; each costs one RTT.
    pub retry_waves: u64,
    /// Simulated time spent waiting in retry backoff, ms.
    pub retry_backoff_ms: u64,
    /// Probes skipped because the sensor's circuit breaker was open
    /// (counted within `sensors_probed` and `probes_failed`).
    pub breaker_skipped: u64,
    /// Failed probes whose retries were abandoned on the deadline budget.
    pub deadline_clipped: u64,
}

impl QueryStats {
    /// Probes that successfully returned data. A failure count can only
    /// exceed the probe count through a merge of inconsistent records, so
    /// this saturates rather than panicking in release builds.
    pub fn probes_succeeded(&self) -> u64 {
        self.sensors_probed.saturating_sub(self.probes_failed)
    }

    /// Adds another stats record into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        debug_assert!(
            other.probes_failed <= other.sensors_probed,
            "merging inconsistent stats: {} failures > {} probes",
            other.probes_failed,
            other.sensors_probed
        );
        self.nodes_traversed += other.nodes_traversed;
        self.cache_nodes_used += other.cache_nodes_used;
        self.slots_combined += other.slots_combined;
        self.readings_from_cache += other.readings_from_cache;
        self.sensors_probed += other.sensors_probed;
        self.probe_waves += other.probe_waves;
        self.probes_failed += other.probes_failed;
        self.entries_scanned += other.entries_scanned;
        self.cache_inserts += other.cache_inserts;
        self.probes_retried += other.probes_retried;
        self.retry_waves += other.retry_waves;
        self.retry_backoff_ms += other.retry_backoff_ms;
        self.breaker_skipped += other.breaker_skipped;
        self.deadline_clipped += other.deadline_clipped;
    }
}

// The deterministic latency model of one query:
//
// `latency = nodes·NODE_VISIT_MS + slots·SLOT_COMBINE_MS
//           + entries·ENTRY_SCAN_MS + probe_waves·PROBE_RTT_MS
//           + probes·PROBE_OVERHEAD_MS`
//
// Probes within a query are issued in parallel waves of `PROBE_PARALLELISM`
// (SENSORMAP probes sensors concurrently, Section V); each wave costs one
// round-trip plus a small per-probe marshalling overhead.

/// Cost of visiting one index node, in ms.
pub const NODE_VISIT_MS: f64 = 0.05;
/// Cost of combining one cached slot, in ms.
pub const SLOT_COMBINE_MS: f64 = 0.02;
/// Cost of scanning one flat-cache entry, in ms.
pub const ENTRY_SCAN_MS: f64 = 0.001;
/// Round-trip time of one parallel probe wave, in ms.
pub const PROBE_RTT_MS: f64 = 25.0;
/// Number of concurrent probes per wave.
pub const PROBE_PARALLELISM: u64 = 128;
/// Marshalling/processing overhead per probe, in ms.
pub const PROBE_OVERHEAD_MS: f64 = 0.05;

/// Primary waves `probes` concurrent probes go out in.
pub fn primary_waves(probes: u64) -> u64 {
    probes.div_ceil(PROBE_PARALLELISM)
}

/// Simulated end-to-end processing latency for `stats`, in milliseconds.
/// Reads the waves the executor counted (`probe_waves`: primary plus retry
/// waves, one RTT each) rather than re-deriving them.
pub fn latency_ms(stats: &QueryStats) -> f64 {
    stats.nodes_traversed as f64 * NODE_VISIT_MS
        + stats.slots_combined as f64 * SLOT_COMBINE_MS
        + stats.entries_scanned as f64 * ENTRY_SCAN_MS
        + stats.probe_waves as f64 * PROBE_RTT_MS
        + stats.sensors_probed as f64 * PROBE_OVERHEAD_MS
        // Fault-tolerance surcharge: each re-issued probe pays marshalling
        // overhead again, and backoff waits elapse on the simulated clock
        // verbatim.
        + stats.probes_retried as f64 * PROBE_OVERHEAD_MS
        + stats.retry_backoff_ms as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_counter() {
        let a = QueryStats {
            nodes_traversed: 1,
            cache_nodes_used: 2,
            slots_combined: 3,
            readings_from_cache: 4,
            sensors_probed: 5,
            probe_waves: 3,
            probes_failed: 1,
            entries_scanned: 6,
            cache_inserts: 7,
            probes_retried: 8,
            retry_waves: 9,
            retry_backoff_ms: 10,
            breaker_skipped: 1,
            deadline_clipped: 2,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.nodes_traversed, 2);
        assert_eq!(b.cache_nodes_used, 4);
        assert_eq!(b.slots_combined, 6);
        assert_eq!(b.readings_from_cache, 8);
        assert_eq!(b.sensors_probed, 10);
        assert_eq!(b.probe_waves, 6);
        assert_eq!(b.probes_failed, 2);
        assert_eq!(b.entries_scanned, 12);
        assert_eq!(b.cache_inserts, 14);
        assert_eq!(b.probes_retried, 16);
        assert_eq!(b.retry_waves, 18);
        assert_eq!(b.retry_backoff_ms, 20);
        assert_eq!(b.breaker_skipped, 2);
        assert_eq!(b.deadline_clipped, 4);
        assert_eq!(b.probes_succeeded(), 8);
    }

    #[test]
    fn retries_charge_rtt_overhead_and_backoff() {
        let s = QueryStats {
            sensors_probed: 4,
            probe_waves: 3,
            probes_retried: 3,
            retry_waves: 2,
            retry_backoff_ms: 150,
            ..Default::default()
        };
        // 1 primary wave + 2 retry waves at 25 ms, 7 marshalled probes at
        // 0.05 ms, plus 150 ms of simulated backoff.
        let want = 3.0 * PROBE_RTT_MS + 7.0 * PROBE_OVERHEAD_MS + 150.0;
        assert!((latency_ms(&s) - want).abs() < 1e-9, "{}", latency_ms(&s));
    }

    #[test]
    fn latency_zero_for_empty_stats() {
        assert_eq!(latency_ms(&QueryStats::default()), 0.0);
    }

    #[test]
    fn probe_waves_are_ceiled() {
        assert_eq!(primary_waves(0), 0);
        assert_eq!(primary_waves(1), 1);
        assert_eq!(primary_waves(PROBE_PARALLELISM), 1);
        assert_eq!(primary_waves(PROBE_PARALLELISM + 1), 2);
        let two_waves = QueryStats {
            probe_waves: 2,
            ..Default::default()
        };
        assert_eq!(latency_ms(&two_waves), 2.0 * PROBE_RTT_MS);
    }

    #[test]
    fn probing_dominates_traversal() {
        // The cost model must encode the paper's premise: collecting from
        // sensors is far more expensive than touching index nodes.
        let probe_one = QueryStats {
            sensors_probed: 1,
            probe_waves: 1,
            ..Default::default()
        };
        let visit_hundred = QueryStats {
            nodes_traversed: 100,
            ..Default::default()
        };
        assert!(latency_ms(&probe_one) > latency_ms(&visit_hundred));
    }
}
