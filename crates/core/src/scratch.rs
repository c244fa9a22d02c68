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
use crate::lsm::LayerScratch;
use crate::reading::{Reading, SensorId};
use crate::sampling::ScaledPq;

/// All heap buffers one query traversal needs, pooled for reuse.
#[derive(Default)]
pub(crate) struct QueryScratch {
    /// Pending-node priority queue (Algorithm 2's scaled heap).
    pub(crate) pq: ScaledPq,
    /// Per-node child split: the children's ids (`NodeId.0`).
    pub(crate) kid_nodes: Vec<u32>,
    /// Per-node child split: overlap weights, parallel to `kid_nodes`.
    pub(crate) kid_ow: Vec<f64>,
    /// Per-node child split: sensor children of a partially overlapped leaf.
    pub(crate) kid_sensors: Vec<SensorId>,
    /// Each of `kid_sensors`' place among its leaf's sensors, which is where
    /// the leaf's cache keeps its raw reading.
    pub(crate) kid_places: Vec<u32>,
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
    /// Where an interactive LSM query's successes sit in its answer,
    /// awaiting its one write-back.
    pub(crate) got: Vec<u32>,
    /// The LSM executor's per-component buffers, which index `plan`, and
    /// its write-back's routing buffers.
    pub(crate) layers: LayerScratch,
    /// DFS stack for subtree scans (node ids / arena indices).
    pub(crate) stack: Vec<u32>,
    /// Per-child overlap classification of the SoA rectangle tests
    /// (0 = disjoint, 1 = partial, 2 = contained).
    pub(crate) class: Vec<u8>,
    /// How many groups and readings this thread's recent answers held: what
    /// the next answer's vectors start at, so that a warm request does not
    /// grow them element by element (see [`SizeHint`]).
    pub(crate) groups_hint: SizeHint,
    pub(crate) readings_hint: SizeHint,
}

/// A decaying high-water mark of a result vector's length. The answer owns
/// its vectors (they leave with it), so what is pooled is only how long they
/// tend to get: each answer raises the mark to its own length or lets it
/// sink by an eighth, and the mark is capped so that one fleet-wide fill
/// does not make every later answer reserve for another.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SizeHint(usize);

impl SizeHint {
    /// The most elements a hint reserves for.
    const CAP: usize = 4096;

    /// An empty vector with room for what recent answers held.
    pub(crate) fn vec<T>(self) -> Vec<T> {
        Vec::with_capacity(self.0)
    }

    /// Folds in the length an answer's vector reached.
    pub(crate) fn note(&mut self, len: usize) {
        self.0 = len.max(self.0 - self.0 / 8).min(Self::CAP);
    }
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
    fn size_hint_follows_the_answers_and_forgets_an_outlier() {
        let mut hint = SizeHint::default();
        assert_eq!(hint.vec::<u8>().capacity(), 0);
        hint.note(50);
        assert_eq!(hint.vec::<u64>().capacity(), 50);
        hint.note(40);
        assert_eq!(hint.0, 44, "sinks by an eighth, not to the last length");
        hint.note(1_000_000);
        assert_eq!(hint.0, SizeHint::CAP);
        for _ in 0..64 {
            hint.note(50);
        }
        assert!((50..58).contains(&hint.0), "settled at {}", hint.0);
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
