//! The query-lifecycle tracer: structured span events in bounded per-thread
//! ring buffers.
//!
//! Instrumentation sites call [`Tracer::record`] with a [`SpanKind`], a
//! timestamp, a duration and one free detail word (a count — nodes
//! traversed, sensors probed, …). Events land in the calling thread's ring
//! buffer (created on first use, capacity-bounded, oldest-first overwrite)
//! and carry a global sequence number, so [`Tracer::drain`] can merge the
//! rings back into one deterministic order.
//!
//! Every timestamp is the caller's: the portal stamps each span of a query
//! with that query's simulated instant, in microseconds, so one query's
//! spans share one clock and traces are reproducible run to run.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;

use parking_lot::Mutex;

/// Default per-thread ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A phase of the query lifecycle (or of cache maintenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// SQL text → AST.
    Parse,
    /// AST → physical `Query` plan.
    Plan,
    /// Index descent (detail = nodes traversed).
    Traverse,
    /// A cached aggregate served a terminal (detail = cache nodes used).
    CacheHit,
    /// Slot-cache slots combined into answers (detail = slots).
    SlotCombine,
    /// A parallel probe wave issued to live sensors (detail = probes).
    ProbeWave,
    /// Probe results written back into the caches (detail = readings).
    WriteBack,
    /// A `ShardedPortal::execute_many` batch (detail = batch size).
    Batch,
}

impl SpanKind {
    /// Stable lowercase name (used by exposition and tests).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Parse => "parse",
            SpanKind::Plan => "plan",
            SpanKind::Traverse => "traverse",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::SlotCombine => "slot_combine",
            SpanKind::ProbeWave => "probe_wave",
            SpanKind::WriteBack => "write_back",
            SpanKind::Batch => "batch",
        }
    }
}

/// One recorded span event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order (merge key across threads).
    pub seq: u64,
    /// Lifecycle phase.
    pub kind: SpanKind,
    /// Start timestamp in microseconds, as the caller stamped it.
    pub at_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free detail word — a count whose meaning depends on `kind`.
    pub detail: u64,
}

type Ring = Arc<Mutex<VecDeque<TraceEvent>>>;

/// Hands each [`Tracer`] its own id, never reused in the process.
static NEXT_TRACER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The ring this thread last recorded into and its tracer's id: the
    /// map of rings is read only when the thread changes tracer.
    static LAST_RING: RefCell<Option<(u64, Ring)>> = const { RefCell::new(None) };
}

/// The span/event tracer. One global instance ([`tracer`]) serves the
/// built-in instrumentation; tests can build private ones.
pub struct Tracer {
    id: u64,
    rings: Mutex<HashMap<ThreadId, Ring>>,
    seq: AtomicU64,
    enabled: AtomicBool,
    capacity: usize,
}

impl Tracer {
    /// A tracer whose per-thread rings hold at most `capacity` events.
    /// Recording starts enabled; gate it with [`Tracer::set_enabled`].
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            rings: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            capacity: capacity.max(1),
        }
    }

    /// Enables or disables recording. Disabled recording is one relaxed
    /// load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event stamped `at_us`.
    pub fn record(&self, kind: SpanKind, at_us: u64, dur_us: u64, detail: u64) {
        if !self.enabled() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            seq,
            kind,
            at_us,
            dur_us,
            detail,
        };
        LAST_RING.with_borrow_mut(|last| {
            let ring = match last {
                Some((id, ring)) if *id == self.id => ring,
                _ => &last.insert((self.id, self.thread_ring())).1,
            };
            let mut ring = ring.lock();
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(ev);
        });
    }

    /// Drains every thread's ring, returning all buffered events in global
    /// sequence order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        // Detach every per-thread FIFO first, so the merge runs without any
        // ring lock held. Each FIFO is already seq-ascending (sequence
        // numbers are handed out by one global counter and appended in
        // acquisition order within a thread), so a k-way head merge
        // reconstructs the stable global order directly.
        let mut queues: Vec<VecDeque<TraceEvent>> = {
            let rings = self.rings.lock();
            rings
                .values()
                .map(|ring| std::mem::take(&mut *ring.lock()))
                .collect()
        };
        queues.retain(|q| !q.is_empty());
        let total = queues.iter().map(|q| q.len()).sum();
        let mut out = Vec::with_capacity(total);
        while !queues.is_empty() {
            let mut best = 0;
            let mut best_seq = u64::MAX;
            for (i, q) in queues.iter().enumerate() {
                let seq = q.front().expect("empty queues are pruned").seq;
                if seq < best_seq {
                    best_seq = seq;
                    best = i;
                }
            }
            out.push(queues[best].pop_front().expect("head exists"));
            if queues[best].is_empty() {
                queues.swap_remove(best);
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
        out
    }

    /// Number of currently buffered events across all threads.
    pub fn buffered(&self) -> usize {
        self.rings.lock().values().map(|r| r.lock().len()).sum()
    }

    fn thread_ring(&self) -> Ring {
        let id = std::thread::current().id();
        let mut rings = self.rings.lock();
        rings
            .entry(id)
            .or_insert_with(|| Arc::new(Mutex::new(VecDeque::with_capacity(self.capacity))))
            .clone()
    }
}

/// The process-wide tracer the built-in instrumentation records into.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(DEFAULT_RING_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain_in_sequence_order() {
        let t = Tracer::new(16);
        t.record(SpanKind::Parse, 1, 2, 0);
        t.record(SpanKind::Plan, 3, 1, 0);
        t.record(SpanKind::ProbeWave, 4, 50, 12);
        let evs = t.drain();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, SpanKind::Parse);
        assert_eq!(evs[2].detail, 12);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(t.drain().len(), 0, "drain empties the rings");
    }

    #[test]
    fn ring_is_bounded_drop_oldest() {
        let t = Tracer::new(4);
        for i in 0..10 {
            t.record(SpanKind::Traverse, i, 0, i);
        }
        let evs = t.drain();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].detail, 6, "oldest events dropped");
        assert_eq!(evs[3].detail, 9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(8);
        t.set_enabled(false);
        t.record(SpanKind::Parse, 0, 0, 0);
        t.record(SpanKind::Plan, 0, 0, 0);
        assert_eq!(t.buffered(), 0);
        t.set_enabled(true);
        t.record(SpanKind::Parse, 0, 0, 0);
        assert_eq!(t.buffered(), 1);
    }

    #[test]
    fn per_thread_rings_merge_on_drain() {
        let t = Tracer::new(64);
        std::thread::scope(|scope| {
            for k in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..8 {
                        t.record(SpanKind::ProbeWave, k * 100 + i, 0, k);
                    }
                });
            }
        });
        let evs = t.drain();
        assert_eq!(evs.len(), 32);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn cross_thread_merge_is_seq_stable_and_order_preserving() {
        // Heavier interleaving than the smoke above: 8 threads race 64
        // records each through one tracer, yielding between records to
        // scramble scheduling. The drain must recover a strictly increasing
        // global sequence, keep every event, and preserve each thread's own
        // record order within the merged stream.
        let t = Tracer::new(1024);
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 64;
        std::thread::scope(|scope| {
            for k in 0..THREADS {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        t.record(SpanKind::Traverse, i, 0, k * 1_000 + i);
                        std::thread::yield_now();
                    }
                });
            }
        });
        let evs = t.drain();
        assert_eq!(evs.len(), (THREADS * PER_THREAD) as usize);
        assert!(
            evs.windows(2).all(|w| w[0].seq < w[1].seq),
            "global sequence order violated by the merge"
        );
        for k in 0..THREADS {
            let own: Vec<u64> = evs
                .iter()
                .filter(|e| e.detail / 1_000 == k)
                .map(|e| e.detail % 1_000)
                .collect();
            let expect: Vec<u64> = (0..PER_THREAD).collect();
            assert_eq!(own, expect, "thread {k} lost its in-thread order");
        }
        // A drained tracer is empty; a second drain yields nothing.
        assert!(t.drain().is_empty());
    }

    #[test]
    fn two_tracers_on_one_thread_keep_their_own_rings_across_drains() {
        let (a, b) = (Tracer::new(16), Tracer::new(16));
        a.record(SpanKind::Parse, 1, 0, 1);
        b.record(SpanKind::Plan, 2, 0, 2);
        a.record(SpanKind::Traverse, 3, 0, 3);
        let details = |t: &Tracer| t.drain().iter().map(|e| e.detail).collect::<Vec<_>>();
        assert_eq!(details(&a), [1, 3]);
        assert_eq!(details(&b), [2]);
        // The thread's ring is still the one its tracer drains.
        a.record(SpanKind::CacheHit, 4, 0, 4);
        a.record(SpanKind::SlotCombine, 5, 0, 5);
        assert_eq!(a.buffered(), 2);
        assert_eq!(details(&a), [4, 5]);
        b.record(SpanKind::WriteBack, 6, 0, 6);
        assert_eq!(details(&b), [6]);
        assert_eq!(a.buffered() + b.buffered(), 0);
    }

    #[test]
    fn span_kind_names_are_stable() {
        assert_eq!(SpanKind::CacheHit.name(), "cache_hit");
        assert_eq!(SpanKind::WriteBack.name(), "write_back");
    }
}
