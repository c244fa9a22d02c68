//! Reusable per-query scratch buffers for the sampling hot path.
//!
//! Algorithm 1 used to allocate half a dozen `Vec`s per query (the pending
//! priority queue, per-node child split buffers, candidate sets, cached
//! readings, probe selections). On the warm path — where a query is
//! answered entirely from slot caches — those allocations dominated the
//! per-query cost. [`QueryScratch`] owns all of them; a thread-local
//! instance is leased to each query via [`with_scratch`] and returned with
//! its capacity intact, so steady-state queries allocate nothing.
//!
//! The lease is a `Cell::take`/`replace` pair rather than a `RefCell`
//! borrow: a re-entrant query on the same thread (e.g. a probe service that
//! calls back into the tree) simply finds an empty default scratch and pays
//! the allocations once, instead of panicking on a double borrow.

use std::cell::Cell;

use crate::lookup::ProbePlan;
use crate::reading::{Reading, SensorId};
use crate::sampling::ScaledPq;

/// All heap buffers one query traversal needs, pooled for reuse.
#[derive(Default)]
pub(crate) struct QueryScratch {
    /// Pending-node priority queue (Algorithm 2's scaled heap).
    pub(crate) pq: ScaledPq,
    /// Per-node child split: child identifiers (arena index or `NodeId.0`).
    pub(crate) kid_nodes: Vec<u32>,
    /// Per-node child split: overlap weights, parallel to `kid_nodes`.
    pub(crate) kid_ow: Vec<f64>,
    /// Per-node child split: sensor children of a partially overlapped leaf.
    pub(crate) kid_sensors: Vec<SensorId>,
    /// Availability `a_i` of each of `kid_sensors`, as resolved for the query.
    pub(crate) kid_avail: Vec<f64>,
    /// Leaf-cache triage of `kid_sensors`: the fresh cached reading, if any.
    pub(crate) kid_fresh: Vec<Option<Reading>>,
    /// Fresh cached readings found by a terminal scan.
    pub(crate) cached: Vec<Reading>,
    /// Probe candidates found by a terminal scan.
    pub(crate) candidates: Vec<SensorId>,
    /// Probe selections awaiting the query's single collect step.
    pub(crate) plan: ProbePlan,
    /// DFS stack for subtree scans (node ids / arena indices).
    pub(crate) stack: Vec<u32>,
    /// Per-child overlap classification of the SoA rectangle tests
    /// (0 = disjoint, 1 = partial, 2 = contained).
    pub(crate) class: Vec<u8>,
}

thread_local! {
    static SCRATCH: Cell<QueryScratch> = Cell::new(QueryScratch::default());
}

/// Leases the thread's scratch to `f`, restoring it (with its grown
/// capacities) afterwards.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut QueryScratch) -> T) -> T {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.replace(scratch);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_capacity_survives_reuse() {
        with_scratch(|s| {
            s.candidates.reserve(1024);
            s.candidates.push(SensorId(1));
        });
        with_scratch(|s| {
            assert!(s.candidates.capacity() >= 1024, "capacity was not pooled");
            // Contents are whatever the previous query left; users clear
            // before use. The lease itself must not clear (that would be a
            // correctness crutch hiding missing clears in the hot path).
            s.candidates.clear();
        });
    }

    #[test]
    fn reentrant_lease_gets_a_fresh_scratch() {
        with_scratch(|outer| {
            outer.candidates.push(SensorId(7));
            with_scratch(|inner| {
                assert!(inner.candidates.is_empty(), "re-entrant lease shared");
            });
            assert_eq!(outer.candidates.len(), 1);
        });
    }
}
