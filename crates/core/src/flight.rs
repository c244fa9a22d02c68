//! The per-query flight recorder: hierarchical stage capture for one query.
//!
//! A [`FlightRecord`] accumulates per-stage counts and simulated durations —
//! admission wait, parse, plan, per-level traversal, probe waves (with
//! retry/breaker/deadline accounting and deadline-budget consumption), and
//! slot-cache write-back — at *exactly* the sites that mutate
//! [`QueryStats`], so the stage tree's totals are bit-identical to the
//! query's stats ([`FlightRecord::parity`] checks every counter).
//!
//! Recording is sampling-gated and allocation-free on the warm path:
//! the recorder lives in a thread-local pool (one active record, one spare —
//! the same lease discipline as `scratch.rs`), instrumentation hooks go
//! through [`with`], which is a single thread-local flag read when no record
//! is active, and [`recycle`] returns a harvested record to the pool with
//! its buffers' capacity intact. Nothing here consumes RNG or changes any
//! float computation, so recorded and unrecorded runs produce bit-identical
//! answers.

use std::cell::Cell;
use std::fmt::Write as _;

use crate::stats::QueryStats;

/// Per-level traversal slots; deeper levels share the last bucket (far
/// beyond the paper's tree heights, matching `telem::LEVEL_BUCKETS`).
pub const FLIGHT_LEVELS: usize = 16;

/// Traversal counters for one tree level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelStage {
    /// Nodes popped/visited at this level.
    pub nodes: u64,
    /// Contained terminals served from a node's slot-cache aggregate.
    pub cache_hits: u64,
    /// Contained terminals whose aggregate fell short of coverage.
    pub cache_misses: u64,
    /// Slot-cache slots combined at this level.
    pub slots_combined: u64,
}

/// A query's probe dispatch (its single collect step): the waves it issued
/// and how much of the deadline budget it consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaveStage {
    /// Sensors probed in this dispatch (including failures).
    pub probes: u64,
    /// Primary + retry waves charged to `QueryStats::probe_waves`.
    pub waves: u64,
    /// Probes that returned no data.
    pub failed: u64,
    /// Individual probes re-issued by the retry layer.
    pub retries: u64,
    /// Retry waves after the primary wave.
    pub retry_waves: u64,
    /// Simulated backoff waited before retry waves, ms.
    pub backoff_ms: u64,
    /// Probes skipped on an open circuit breaker.
    pub breaker_skipped: u64,
    /// Retries abandoned on the deadline budget.
    pub deadline_clipped: u64,
    /// Deadline budget remaining when the dispatch started, ms.
    pub budget_before_ms: u64,
    /// Modelled wall time of the dispatch, µs.
    pub dur_us: u64,
}

/// One retry wave inside the resilient probe layer (finer-grained than the
/// [`WaveStage`] roll-up: which round, how many sensors were still failing,
/// and the backoff charged before the round).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryRound {
    /// Retry round index (1 = first retry after the primary wave).
    pub round: u64,
    /// Sensors re-probed in this round.
    pub retrying: u64,
    /// Backoff charged before this round, ms.
    pub backoff_ms: u64,
}

/// The hierarchical stage capture for one query. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FlightRecord {
    /// Query ordinal (service-level) or caller-chosen tag.
    pub ordinal: u64,
    /// Modelled admission queue wait deducted from the deadline budget, ms.
    pub admission_wait_ms: u64,
    /// SQL length parsed, bytes (0 when the query arrived pre-parsed or the
    /// recorder was armed after parsing).
    pub parse_sql_len: u64,
    /// Planned sample-size target `R` (0 when the mode doesn't sample).
    pub plan_target: f64,
    /// Planned terminal level `T`.
    pub plan_terminal_level: u16,
    /// Probe deadline budget at plan time, ms.
    pub plan_deadline_ms: u64,
    /// Per-level traversal stages, indexed by `min(level, FLIGHT_LEVELS-1)`.
    pub levels: [LevelStage; FLIGHT_LEVELS],
    /// Probe dispatches — one per probing query per index (a routed query
    /// records one per shard).
    pub waves: Vec<WaveStage>,
    /// Retry rounds from the resilient probe layer, in issue order.
    pub retry_rounds: Vec<RetryRound>,
    /// Raw cached readings that contributed to the answer.
    pub readings_from_cache: u64,
    /// Write-back events (cache-updating probe dispatches).
    pub write_backs: u64,
    /// Readings inserted into the slot caches by write-back.
    pub cache_inserts: u64,
    /// Slot-cache slots freshly opened by inserts while recording.
    pub wb_slots_opened: u64,
    /// Inserts merged into an already-open slot while recording.
    pub wb_slots_merged: u64,
    /// Inserts rejected as outside the cache window while recording.
    pub wb_rejected: u64,
    /// The query's final stats, copied at finalization.
    pub final_stats: QueryStats,
    /// Modelled end-to-end latency, ms.
    pub latency_ms: f64,
    /// Degradation accounting: requested sample target and delivered sample.
    pub requested: f64,
    /// Fresh readings delivered (cache + successful probes).
    pub sampled: u64,
}

impl FlightRecord {
    /// Resets every stage, keeping buffer capacity for reuse.
    pub fn clear(&mut self) {
        let mut waves = std::mem::take(&mut self.waves);
        let mut rounds = std::mem::take(&mut self.retry_rounds);
        waves.clear();
        rounds.clear();
        *self = FlightRecord::default();
        self.waves = waves;
        self.retry_rounds = rounds;
    }

    #[inline]
    fn level_mut(&mut self, level: u16) -> &mut LevelStage {
        &mut self.levels[(level as usize).min(FLIGHT_LEVELS - 1)]
    }

    /// Records one node visit at `level`.
    #[inline]
    pub fn node(&mut self, level: u16) {
        self.level_mut(level).nodes += 1;
    }

    /// Records a slot-cache aggregate hit at `level` combining `slots`.
    #[inline]
    pub fn cache_hit(&mut self, level: u16, slots: u64) {
        let l = self.level_mut(level);
        l.cache_hits += 1;
        l.slots_combined += slots;
    }

    /// Records a coverage miss of a contained terminal's aggregate.
    #[inline]
    pub fn cache_miss(&mut self, level: u16) {
        self.level_mut(level).cache_misses += 1;
    }

    /// Records `n` raw cached readings contributing to the answer.
    #[inline]
    pub fn cached_readings(&mut self, n: u64) {
        self.readings_from_cache += n;
    }

    /// Records one probe dispatch.
    #[inline]
    pub fn wave(&mut self, w: WaveStage) {
        self.waves.push(w);
    }

    /// Records one resilient retry round.
    #[inline]
    pub fn retry_round(&mut self, round: u64, retrying: u64, backoff_ms: u64) {
        self.retry_rounds.push(RetryRound {
            round,
            retrying,
            backoff_ms,
        });
    }

    /// Records a write-back of `inserted` readings into the slot caches.
    #[inline]
    pub fn write_back(&mut self, inserted: u64) {
        self.write_backs += 1;
        self.cache_inserts += inserted;
    }

    /// Records the fate of one slot-cache insert: a freshly opened slot or
    /// a merge into an already-open one.
    #[inline]
    pub fn slot_write(&mut self, opened: bool) {
        if opened {
            self.wb_slots_opened += 1;
        } else {
            self.wb_slots_merged += 1;
        }
    }

    /// Copies the query's final stats and modelled latency into the record.
    pub fn finalize(&mut self, stats: &QueryStats, latency_ms: f64) {
        self.final_stats = *stats;
        self.latency_ms = latency_ms;
    }

    /// Checks that the stage tree's totals are bit-identical to the final
    /// [`QueryStats`]; returns the first mismatch as an error message.
    pub fn parity(&self) -> Result<(), String> {
        let s = &self.final_stats;
        let lvl = |f: fn(&LevelStage) -> u64| self.levels.iter().map(f).sum::<u64>();
        let wav = |f: fn(&WaveStage) -> u64| self.waves.iter().map(f).sum::<u64>();
        let checks: [(&str, u64, u64); 12] = [
            ("nodes_traversed", lvl(|l| l.nodes), s.nodes_traversed),
            (
                "cache_nodes_used",
                lvl(|l| l.cache_hits),
                s.cache_nodes_used,
            ),
            (
                "slots_combined",
                lvl(|l| l.slots_combined),
                s.slots_combined,
            ),
            (
                "readings_from_cache",
                self.readings_from_cache,
                s.readings_from_cache,
            ),
            ("sensors_probed", wav(|w| w.probes), s.sensors_probed),
            ("probe_waves", wav(|w| w.waves), s.probe_waves),
            ("probes_failed", wav(|w| w.failed), s.probes_failed),
            ("probes_retried", wav(|w| w.retries), s.probes_retried),
            ("retry_waves", wav(|w| w.retry_waves), s.retry_waves),
            (
                "retry_backoff_ms",
                wav(|w| w.backoff_ms),
                s.retry_backoff_ms,
            ),
            (
                "breaker_skipped",
                wav(|w| w.breaker_skipped),
                s.breaker_skipped,
            ),
            (
                "deadline_clipped",
                wav(|w| w.deadline_clipped),
                s.deadline_clipped,
            ),
        ];
        for (name, recorded, stat) in checks {
            if recorded != stat {
                return Err(format!(
                    "flight/stats divergence on {name}: stages say {recorded}, QueryStats says {stat}"
                ));
            }
        }
        if self.cache_inserts != s.cache_inserts {
            return Err(format!(
                "flight/stats divergence on cache_inserts: stages say {}, QueryStats says {}",
                self.cache_inserts, s.cache_inserts
            ));
        }
        Ok(())
    }

    /// Renders the stage tree as indented text (the `EXPLAIN ANALYZE` body).
    pub fn render_tree(&self) -> String {
        let mut out = String::with_capacity(512);
        let s = &self.final_stats;
        let _ = writeln!(out, "flight record (query #{})", self.ordinal);
        let _ = writeln!(out, "├─ admission   wait={}ms", self.admission_wait_ms);
        let _ = writeln!(out, "├─ parse       sql={}B", self.parse_sql_len);
        let _ = writeln!(
            out,
            "├─ plan        R={} T={} deadline={}ms",
            self.plan_target, self.plan_terminal_level, self.plan_deadline_ms
        );
        let active_levels = self
            .levels
            .iter()
            .filter(|l| *l != &LevelStage::default())
            .count();
        let _ = writeln!(
            out,
            "├─ traverse    {} node(s) over {} level(s)",
            s.nodes_traversed, active_levels
        );
        for (i, l) in self.levels.iter().enumerate().rev() {
            if *l == LevelStage::default() {
                continue;
            }
            let _ = writeln!(
                out,
                "│    level {:>2}  nodes={} cache_hits={} cache_misses={} slots={}",
                i, l.nodes, l.cache_hits, l.cache_misses, l.slots_combined
            );
        }
        let _ = writeln!(
            out,
            "├─ probe       {} dispatch(es), {} probed, {} failed, {} breaker-skipped",
            self.waves.len(),
            s.sensors_probed,
            s.probes_failed,
            s.breaker_skipped
        );
        for (i, w) in self.waves.iter().enumerate() {
            let _ = writeln!(
                out,
                "│    wave {:>4}  probes={} waves={} failed={} retries={} budget={}ms->{}ms dur={}us",
                i + 1,
                w.probes,
                w.waves,
                w.failed,
                w.retries,
                w.budget_before_ms,
                w.budget_before_ms.saturating_sub(w.backoff_ms),
                w.dur_us
            );
        }
        for r in &self.retry_rounds {
            let _ = writeln!(
                out,
                "│    retry {:>3}  retrying={} backoff={}ms",
                r.round, r.retrying, r.backoff_ms
            );
        }
        let _ = writeln!(
            out,
            "├─ cache       readings_from_cache={} cache_nodes={} slots={}",
            s.readings_from_cache, s.cache_nodes_used, s.slots_combined
        );
        let _ = writeln!(
            out,
            "├─ write-back  events={} readings={} slots_opened={} slots_merged={} rejected={}",
            self.write_backs,
            self.cache_inserts,
            self.wb_slots_opened,
            self.wb_slots_merged,
            self.wb_rejected
        );
        let fulfillment = if self.requested > 0.0 {
            self.sampled as f64 / self.requested
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "└─ totals      latency={:.3}ms requested={} sampled={} fulfillment={:.3}",
            self.latency_ms, self.requested, self.sampled, fulfillment
        );
        out
    }

    /// Renders the record as a self-contained JSON object (embedded verbatim
    /// in watchdog breach reports).
    pub fn to_json(&self) -> String {
        let s = &self.final_stats;
        let mut j = String::with_capacity(512);
        let _ = write!(
            j,
            "{{\"flight\": {{\"ordinal\": {}, \"admission_wait_ms\": {}, \"parse_sql_len\": {}, ",
            self.ordinal, self.admission_wait_ms, self.parse_sql_len
        );
        let _ = write!(
            j,
            "\"plan\": {{\"target\": {}, \"terminal_level\": {}, \"deadline_ms\": {}}}, ",
            self.plan_target, self.plan_terminal_level, self.plan_deadline_ms
        );
        j.push_str("\"levels\": [");
        let mut first = true;
        for (i, l) in self.levels.iter().enumerate() {
            if *l == LevelStage::default() {
                continue;
            }
            if !first {
                j.push_str(", ");
            }
            first = false;
            let _ = write!(
                j,
                "{{\"level\": {i}, \"nodes\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"slots\": {}}}",
                l.nodes, l.cache_hits, l.cache_misses, l.slots_combined
            );
        }
        j.push_str("], \"waves\": [");
        for (i, w) in self.waves.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            let _ = write!(
                j,
                "{{\"probes\": {}, \"waves\": {}, \"failed\": {}, \"retries\": {}, \
                 \"backoff_ms\": {}, \"breaker_skipped\": {}, \"deadline_clipped\": {}, \
                 \"budget_before_ms\": {}, \"dur_us\": {}}}",
                w.probes,
                w.waves,
                w.failed,
                w.retries,
                w.backoff_ms,
                w.breaker_skipped,
                w.deadline_clipped,
                w.budget_before_ms,
                w.dur_us
            );
        }
        j.push_str("], \"retry_rounds\": [");
        for (i, r) in self.retry_rounds.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            let _ = write!(
                j,
                "{{\"round\": {}, \"retrying\": {}, \"backoff_ms\": {}}}",
                r.round, r.retrying, r.backoff_ms
            );
        }
        let _ = write!(
            j,
            "], \"write_backs\": {{\"events\": {}, \"slots_opened\": {}, \"slots_merged\": {}, \
             \"rejected\": {}}}, \"stats\": {{\"nodes_traversed\": {}, \"cache_nodes_used\": {}, \
             \"slots_combined\": {}, \"readings_from_cache\": {}, \"sensors_probed\": {}, \
             \"probes_failed\": {}, \"cache_inserts\": {}}}, \"latency_ms\": {:.3}, \
             \"requested\": {}, \"sampled\": {}}}}}",
            self.write_backs,
            self.wb_slots_opened,
            self.wb_slots_merged,
            self.wb_rejected,
            s.nodes_traversed,
            s.cache_nodes_used,
            s.slots_combined,
            s.readings_from_cache,
            s.sensors_probed,
            s.probes_failed,
            s.cache_inserts,
            self.latency_ms,
            self.requested,
            self.sampled
        );
        j
    }
}

// ---------------------------------------------------------------------------
// Thread-local recorder pool
// ---------------------------------------------------------------------------

struct Pool {
    /// Fast gate: instrumentation hooks read only this flag when no record
    /// is active (one thread-local load + branch on the warm path).
    active: Cell<bool>,
    record: Cell<Option<Box<FlightRecord>>>,
    /// One recycled record kept warm per thread, so sampling 1-in-N queries
    /// allocates only on a thread's first recorded query.
    spare: Cell<Option<Box<FlightRecord>>>,
}

thread_local! {
    static POOL: Pool = const {
        Pool {
            active: Cell::new(false),
            record: Cell::new(None),
            spare: Cell::new(None),
        }
    };
}

/// Arms the recorder for the current thread's next query, tagging the record
/// with `ordinal`. Reuses the thread's spare record when one exists. An
/// already-active record is replaced (and its allocation recycled).
pub fn begin(ordinal: u64) {
    POOL.with(|p| {
        let mut rec = p
            .record
            .take()
            .or_else(|| p.spare.take())
            .unwrap_or_default();
        rec.clear();
        rec.ordinal = ordinal;
        p.record.set(Some(rec));
        p.active.set(true);
    });
}

/// `true` while a record is armed on this thread.
#[inline]
pub fn is_active() -> bool {
    POOL.with(|p| p.active.get())
}

/// Runs `f` against the active record, if any. The no-record path is a
/// single thread-local flag read; instrumentation sites call this
/// unconditionally.
#[inline]
pub fn with(f: impl FnOnce(&mut FlightRecord)) {
    POOL.with(|p| {
        if !p.active.get() {
            return;
        }
        // take/replace keeps the hook re-entrancy-safe: a nested hook sees
        // an empty cell and no-ops instead of aliasing.
        if let Some(mut rec) = p.record.take() {
            f(&mut rec);
            p.record.set(Some(rec));
        }
    });
}

/// Disarms and returns the active record (None when nothing was armed).
pub fn take() -> Option<Box<FlightRecord>> {
    POOL.with(|p| {
        p.active.set(false);
        p.record.take()
    })
}

/// Returns a harvested record to the thread's pool, buffers' capacity
/// intact, for the next [`begin`].
pub fn recycle(mut rec: Box<FlightRecord>) {
    rec.clear();
    POOL.with(|p| p.spare.set(Some(rec)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_hooks_are_noops() {
        assert!(!is_active());
        with(|_| panic!("must not run without an active record"));
        assert!(take().is_none());
    }

    #[test]
    fn begin_record_take_recycle_roundtrip() {
        begin(7);
        assert!(is_active());
        with(|r| {
            r.node(3);
            r.node(3);
            r.cache_hit(2, 5);
            r.cached_readings(4);
            r.wave(WaveStage {
                probes: 10,
                waves: 1,
                ..Default::default()
            });
        });
        let rec = take().expect("armed record");
        assert!(!is_active());
        assert_eq!(rec.ordinal, 7);
        assert_eq!(rec.levels[3].nodes, 2);
        assert_eq!(rec.levels[2].cache_hits, 1);
        assert_eq!(rec.levels[2].slots_combined, 5);
        assert_eq!(rec.readings_from_cache, 4);
        assert_eq!(rec.waves.len(), 1);
        recycle(rec);
        // The spare is reused, cleared.
        begin(8);
        let rec = take().expect("reused record");
        assert_eq!(rec.ordinal, 8);
        assert_eq!(rec.levels[3].nodes, 0);
        assert!(rec.waves.is_empty());
    }

    #[test]
    fn parity_detects_divergence() {
        let mut r = FlightRecord::default();
        r.node(2);
        r.final_stats.nodes_traversed = 1;
        assert!(r.parity().is_ok());
        r.final_stats.nodes_traversed = 2;
        let err = r.parity().unwrap_err();
        assert!(err.contains("nodes_traversed"), "{err}");
    }

    #[test]
    fn render_and_json_cover_the_stages() {
        let mut r = FlightRecord {
            ordinal: 3,
            admission_wait_ms: 2,
            parse_sql_len: 64,
            plan_target: 30.0,
            plan_terminal_level: 2,
            plan_deadline_ms: 2_000,
            requested: 30.0,
            sampled: 28,
            ..Default::default()
        };
        r.node(4);
        r.cache_hit(3, 6);
        r.wave(WaveStage {
            probes: 12,
            waves: 1,
            budget_before_ms: 2_000,
            dur_us: 25_600,
            ..Default::default()
        });
        r.retry_round(1, 3, 50);
        r.write_back(12);
        r.final_stats = QueryStats {
            nodes_traversed: 1,
            cache_nodes_used: 1,
            slots_combined: 6,
            sensors_probed: 12,
            probe_waves: 1,
            cache_inserts: 12,
            ..Default::default()
        };
        r.latency_ms = 25.6;
        assert!(r.parity().is_ok());
        let tree = r.render_tree();
        for needle in [
            "admission",
            "parse",
            "plan",
            "level  4",
            "wave",
            "retry",
            "write-back",
        ] {
            assert!(tree.contains(needle), "missing {needle} in:\n{tree}");
        }
        let json = r.to_json();
        for needle in [
            "\"flight\"",
            "\"levels\"",
            "\"waves\"",
            "\"retry_rounds\"",
            "\"stats\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
