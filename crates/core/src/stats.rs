//! Per-query instrumentation and the modelled cost of query processing.
//!
//! The paper's evaluation reports *internal data-structure statistics*
//! (Fig 3), *sensor probe counts*, and *processing latency* (Fig 4–5).
//! [`QueryStats`] collects the structural counters during a lookup, and
//! [`CostModel`] converts them into a deterministic simulated latency so the
//! latency figures are reproducible on any machine. Defaults are calibrated
//! against the relative costs the paper reports (probing live sensors is
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
    /// Probe waves issued (primary waves of `probe_parallelism` sensors plus
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

/// Deterministic latency model for one query.
///
/// `latency = nodes·node_visit + slots·slot_combine + entries·entry_scan
///           + probe_waves·probe_rtt + probes·probe_overhead`
///
/// Probes within a query are issued in parallel waves of `probe_parallelism`
/// (SENSORMAP probes sensors concurrently, Section V); each wave costs one
/// round-trip plus a small per-probe marshalling overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of visiting one index node, in ms.
    pub node_visit_ms: f64,
    /// Cost of combining one cached slot, in ms.
    pub slot_combine_ms: f64,
    /// Cost of scanning one flat-cache entry, in ms.
    pub entry_scan_ms: f64,
    /// Round-trip time of one parallel probe wave, in ms.
    pub probe_rtt_ms: f64,
    /// Number of concurrent probes per wave.
    pub probe_parallelism: u64,
    /// Marshalling/processing overhead per probe, in ms.
    pub probe_overhead_ms: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            node_visit_ms: 0.05,
            slot_combine_ms: 0.02,
            entry_scan_ms: 0.001,
            probe_rtt_ms: 25.0,
            probe_parallelism: 128,
            probe_overhead_ms: 0.05,
        }
    }
}

impl CostModel {
    /// Primary waves `probes` concurrent probes go out in (a parallelism of
    /// zero means strictly serial probing).
    pub fn primary_waves(&self, probes: u64) -> u64 {
        probes.div_ceil(self.probe_parallelism.max(1))
    }

    /// Simulated end-to-end processing latency for `stats`, in milliseconds.
    /// Reads the waves the executor counted (`probe_waves`: primary plus
    /// retry waves, one RTT each) rather than re-deriving them.
    pub fn latency_ms(&self, stats: &QueryStats) -> f64 {
        stats.nodes_traversed as f64 * self.node_visit_ms
            + stats.slots_combined as f64 * self.slot_combine_ms
            + stats.entries_scanned as f64 * self.entry_scan_ms
            + stats.probe_waves as f64 * self.probe_rtt_ms
            + stats.sensors_probed as f64 * self.probe_overhead_ms
            // Fault-tolerance surcharge: each re-issued probe pays
            // marshalling overhead again, and backoff waits elapse on the
            // simulated clock verbatim.
            + stats.probes_retried as f64 * self.probe_overhead_ms
            + stats.retry_backoff_ms as f64
    }
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
        let m = CostModel {
            node_visit_ms: 0.0,
            slot_combine_ms: 0.0,
            entry_scan_ms: 0.0,
            probe_rtt_ms: 10.0,
            probe_parallelism: 128,
            probe_overhead_ms: 0.5,
        };
        let s = QueryStats {
            sensors_probed: 4,
            probe_waves: 3,
            probes_retried: 3,
            retry_waves: 2,
            retry_backoff_ms: 150,
            ..Default::default()
        };
        // 1 primary wave + 2 retry waves at 10 ms, 7 marshalled probes at
        // 0.5 ms, plus 150 ms of simulated backoff.
        assert_eq!(m.latency_ms(&s), 30.0 + 3.5 + 150.0);
    }

    #[test]
    fn latency_zero_for_empty_stats() {
        let m = CostModel::default();
        assert_eq!(m.latency_ms(&QueryStats::default()), 0.0);
    }

    #[test]
    fn probe_waves_are_ceiled() {
        let m = CostModel {
            node_visit_ms: 0.0,
            slot_combine_ms: 0.0,
            entry_scan_ms: 0.0,
            probe_rtt_ms: 10.0,
            probe_parallelism: 4,
            probe_overhead_ms: 0.0,
        };
        let mk = |p: u64| QueryStats {
            sensors_probed: p,
            probe_waves: m.primary_waves(p),
            ..Default::default()
        };
        assert_eq!(m.latency_ms(&mk(1)), 10.0);
        assert_eq!(m.latency_ms(&mk(4)), 10.0);
        assert_eq!(m.latency_ms(&mk(5)), 20.0);
        assert_eq!(m.latency_ms(&mk(0)), 0.0);
    }

    #[test]
    fn probing_dominates_traversal_by_default() {
        // The cost model must encode the paper's premise: collecting from
        // sensors is far more expensive than touching index nodes.
        let m = CostModel::default();
        let probe_one = QueryStats {
            sensors_probed: 1,
            probe_waves: 1,
            ..Default::default()
        };
        let visit_hundred = QueryStats {
            nodes_traversed: 100,
            ..Default::default()
        };
        assert!(m.latency_ms(&probe_one) > m.latency_ms(&visit_hundred));
    }

    #[test]
    fn zero_parallelism_serialises_probes() {
        let m = CostModel {
            probe_parallelism: 0,
            probe_rtt_ms: 5.0,
            probe_overhead_ms: 0.0,
            node_visit_ms: 0.0,
            slot_combine_ms: 0.0,
            entry_scan_ms: 0.0,
        };
        let s = QueryStats {
            sensors_probed: 3,
            probe_waves: m.primary_waves(3),
            ..Default::default()
        };
        assert_eq!(m.latency_ms(&s), 15.0);
    }
}
