//! The portal *service*: one shard of a [`crate::ShardedPortal`].
//!
//! A [`PortalService`] is a cheaply cloneable, `Send + Sync` handle that any
//! number of client threads drive concurrently through `&self` methods. The
//! router builds one per shard (there is no other constructor) and hands it
//! out through [`crate::ShardedPortal::shard`] for the per-shard controls:
//! closing, a watchdog, resilience feedback, snapshots. It is built from three
//! pieces:
//!
//! * **One published cut.** The LSM index publishes each merge's cut
//!   ([`LsmState`]: its levels, L0, primary level and ordinal) by swapping
//!   one `Arc`, and that cut is the service's snapshot. A query reads it once
//!   ([`PortalService::snapshot`]) and plans and executes against it; a
//!   reindex merges *off the hot path* and publishes the next cut. Readers
//!   never block on a level build: in-flight queries finish on the cut they
//!   read, new arrivals land on the new one.
//! * **Online registration + the reindexer.** [`PortalService::register_sensor`]
//!   is one push into the LSM index's mutable L0, visible to the very next
//!   query; [`PortalService::reindex`] (pumped by the router, explicitly or
//!   from its background [`crate::Reindexer`] thread) merges L0 and the
//!   trailing small levels
//!   into one freshly bulk-built level, *carrying over* every still-fresh raw
//!   cached reading — slot caches are globally aligned by absolute expiry
//!   slot, so carried readings expire at exactly the boundary they would have
//!   without the merge — and publishes a cut anchored on its primary level.
//! * **Admission control.** A bounded in-flight counter models the portal's
//!   request queue: up to [`AdmissionConfig::max_in_flight`] queries execute
//!   at once, the next [`AdmissionConfig::queue_capacity`] are admitted with
//!   a modelled queue wait *deducted from their probe-retry deadline budget*
//!   (the resilient prober's budget machinery — a query that waited in the
//!   queue has less time left to retry probes), and everything beyond that
//!   is shed with [`PortalError::Overloaded`]. Shed/queued/served depths are
//!   recorded in the `colr_service_*` telemetry family.
//!
//! Determinism: every interactive query draws a fresh RNG seeded from
//! `(service seed, query ordinal)` — the same splitmix64 derivation batch
//! execution has always used — so, for a given cut, the answer to ordinal
//! `i` does not depend on which thread ran it.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use colr_geo::Region;
use colr_telemetry::{global, Counter, Gauge, SloWatchdog};
use colr_tree::{
    derive_seed, flight, AggKind, ClockHandle, ColrTree, Histogram, LiveAvailability, LsmState,
    LsmStats, LsmTree, Mode, ProbeService, Query, QueryOutput, QueryStats, ResilientProber,
    SensorId, SensorMeta, TimeDelta, Timestamp,
};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ast::SelectQuery;
use crate::error::PortalError;
use crate::planner::Planner;
use crate::portal::{
    BatchResult, DegradationReport, GroupView, IndexStrategy, PortalConfig, PortalResult,
};
use crate::request::{ExplainLevel, QueryRequest, QueryResponse};

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Cached handles for the portal-level counters (`colr_portal_*`).
pub(crate) struct PortalTelem {
    /// Queries answered (interactive and batched).
    pub(crate) queries: Counter,
    /// SQL strings that failed to parse.
    pub(crate) parse_errors: Counter,
    /// `execute_many` batches run.
    pub(crate) batches: Counter,
    /// Queries per batch.
    pub(crate) batch_size: colr_telemetry::Histogram,
}

pub(crate) fn portal_telem() -> &'static PortalTelem {
    static T: OnceLock<PortalTelem> = OnceLock::new();
    T.get_or_init(|| PortalTelem {
        queries: global().counter("colr_portal_queries_total"),
        parse_errors: global().counter("colr_portal_parse_errors_total"),
        batches: global().counter("colr_portal_batches_total"),
        batch_size: global().histogram("colr_portal_batch_size"),
    })
}

/// Cached handles for the service-level counters (`colr_service_*`).
struct ServiceTelem {
    /// Queries admitted and served through a service handle.
    served: Counter,
    /// Queries shed by the admission controller.
    shed: Counter,
    /// Queries admitted into the wait queue (beyond the execution slots).
    queued: Counter,
    /// Merged cuts published (initial build excluded).
    reindexes: Counter,
    /// Sensors registered through service handles.
    registrations: Counter,
    /// Cached readings carried across merges.
    carryover: Counter,
    /// The published cut's ordinal.
    generation: Gauge,
    /// Queries currently in flight (executing + queued).
    in_flight: Gauge,
    /// Queue position of each admitted-but-queued query.
    queue_depth: colr_telemetry::Histogram,
}

fn service_telem() -> &'static ServiceTelem {
    static T: OnceLock<ServiceTelem> = OnceLock::new();
    T.get_or_init(|| ServiceTelem {
        served: global().counter("colr_service_queries_total"),
        shed: global().counter("colr_service_shed_total"),
        queued: global().counter("colr_service_queued_total"),
        reindexes: global().counter("colr_service_reindexes_total"),
        registrations: global().counter("colr_service_registrations_total"),
        carryover: global().counter("colr_service_carryover_readings_total"),
        generation: global().gauge("colr_service_generation"),
        in_flight: global().gauge("colr_service_in_flight"),
        queue_depth: global().histogram("colr_service_queue_depth"),
    })
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Modelled (simulated-time) wait per occupied queue slot ahead of an
/// admitted-but-queued query. The total wait is deducted from the query's
/// probe-retry deadline budget, so a query that queued long has less budget
/// left for retry waves.
const QUEUE_WAIT_PER_SLOT: TimeDelta = TimeDelta::from_millis(2);

/// Admission-controller limits: how many queries may execute at once and
/// how many may wait. Each one waiting is charged 2 ms per query ahead of it
/// against its deadline budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Queries allowed to execute concurrently before arrivals are queued.
    pub max_in_flight: usize,
    /// Bounded wait-queue length; arrivals beyond `max_in_flight +
    /// queue_capacity` are shed with [`PortalError::Overloaded`]. The
    /// default, 250, caps the modelled wait at 500 ms: a query queued
    /// longer would reach execution with no useful deadline budget left.
    pub queue_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 64,
            queue_capacity: 250,
        }
    }
}

/// RAII in-flight slot: decrements the counter (and the gauge) when the
/// query finishes, succeeds or not.
#[derive(Debug)]
struct InFlightGuard<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let after = self.counter.fetch_sub(1, Ordering::AcqRel) - 1;
        service_telem().in_flight.set(after as i64);
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A view of one published cut of the shard's [`LsmTree`] (its caches stay
/// live — every level is internally synchronised): the levels, L0, primary
/// level and ordinal the merge that published it fixed.
/// [`Snapshot::tree`] therefore stays a stable reference for planners and
/// inspectors while churn proceeds underneath.
pub struct Snapshot {
    lsm: Arc<LsmTree>,
    cut: Arc<LsmState>,
}

impl Snapshot {
    /// The primary level's tree: the planning and inspection anchor
    /// (queries still fan out across every level).
    pub fn tree(&self) -> &ColrTree {
        self.cut.primary().tree()
    }

    /// The LSM index the cut was published by.
    pub fn lsm(&self) -> &Arc<LsmTree> {
        &self.lsm
    }

    /// The cut itself.
    pub fn cut(&self) -> &Arc<LsmState> {
        &self.cut
    }

    /// The planner over the primary level's tree: a view of the diameters
    /// the tree stores, made without allocating.
    pub fn planner(&self) -> Planner<'_> {
        Planner::new(self.tree())
    }

    /// The cut's publication ordinal (0 = the initial build).
    pub fn ordinal(&self) -> u64 {
        self.cut.ordinal()
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

struct ServiceCore<P> {
    probe: P,
    clock: ClockHandle,
    /// The incremental index: a reindex publishes a new cut of it, never a
    /// new `LsmTree`.
    lsm: Arc<LsmTree>,
    /// Next dense sensor id to hand out.
    next_sensor_id: AtomicU32,
    /// Global query ordinal: seeds the per-query RNG.
    ordinal: AtomicU64,
    in_flight: AtomicUsize,
    closed: AtomicBool,
    mode: Mode,
    max_sensors_per_query: Option<usize>,
    admission: AdmissionConfig,
    seed: u64,
    /// Record one flight per this many interactive queries (0 = off;
    /// `EXPLAIN ANALYZE` always records regardless).
    flight_every: u64,
    /// Interactive queries seen by the sampling gate.
    flight_counter: AtomicU64,
    /// Optional SLO watchdog fed one observation per interactive query.
    watchdog: RwLock<Option<Arc<SloWatchdog>>>,
}

/// A cloneable, thread-safe handle to one shared portal back end. See the
/// module docs for the architecture; clones share everything (the index,
/// clock, probe service, admission state).
pub struct PortalService<P> {
    core: Arc<ServiceCore<P>>,
}

impl<P> Clone for PortalService<P> {
    fn clone(&self) -> Self {
        PortalService {
            core: Arc::clone(&self.core),
        }
    }
}

impl<P: ProbeService> PortalService<P> {
    /// Builds the index over `sensors` and wraps it in a service handle
    /// probing live data through `probe`, on `clock` — the timeline every
    /// shard of a [`crate::ShardedPortal`] shares.
    pub(crate) fn with_clock(
        sensors: Vec<SensorMeta>,
        probe: P,
        config: PortalConfig,
        clock: ClockHandle,
    ) -> PortalService<P> {
        let population = sensors.len() as u32;
        let IndexStrategy::Lsm(lsm_cfg) = config.index;
        let lsm = Arc::new(LsmTree::new(sensors, config.tree, lsm_cfg, config.seed));
        service_telem().generation.set(0);
        PortalService {
            core: Arc::new(ServiceCore {
                probe,
                clock,
                lsm,
                next_sensor_id: AtomicU32::new(population),
                ordinal: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                mode: config.mode,
                max_sensors_per_query: config.max_sensors_per_query,
                admission: config.admission,
                seed: config.seed,
                flight_every: config.flight_record_every,
                flight_counter: AtomicU64::new(0),
                watchdog: RwLock::new(None),
            }),
        }
    }

    // -- accessors ---------------------------------------------------------

    /// The shared simulation clock (advance it from any thread).
    pub fn clock(&self) -> &ClockHandle {
        &self.core.clock
    }

    /// Current simulated instant.
    pub fn now(&self) -> Timestamp {
        self.core.clock.now()
    }

    /// The probe service.
    pub fn probe(&self) -> &P {
        &self.core.probe
    }

    /// A view of the index's published cut: one read of the publication
    /// lock. The snapshot stays valid (and its caches stay live) for as long
    /// as it is held, even across later merges.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            lsm: self.core.lsm.clone(),
            cut: self.core.lsm.cut(),
        }
    }

    /// The published cut's ordinal (monotone; starts at 0, one more per
    /// merge that published).
    pub fn generation(&self) -> u64 {
        self.core.lsm.cut().ordinal()
    }

    /// Queries currently in flight (executing + queued).
    pub fn in_flight(&self) -> usize {
        self.core.in_flight.load(Ordering::Acquire)
    }

    /// Closes the front door: every subsequent query returns
    /// [`PortalError::Closed`]. In-flight queries finish normally.
    pub fn close(&self) {
        self.core.closed.store(true, Ordering::Release);
    }

    /// Attaches an SLO watchdog: every subsequent interactive query feeds it
    /// one `(latency, fulfillment)` observation, plus the query's flight
    /// record (as JSON) whenever one was captured. On an objective breach
    /// the watchdog snapshots the registry diff and the last K flight
    /// records into a structured [`colr_telemetry::BreachReport`].
    pub fn attach_watchdog(&self, watchdog: Arc<SloWatchdog>) {
        *self.core.watchdog.write() = Some(watchdog);
    }

    /// The attached SLO watchdog, if any.
    pub fn watchdog(&self) -> Option<Arc<SloWatchdog>> {
        self.core.watchdog.read().clone()
    }

    // -- registration & reindexing ----------------------------------------

    /// Registers a new publisher (Section III-A): one push into the index's
    /// mutable L0 level, visible to the very next query. Merges compact it
    /// downward later, off the hot path — the paper's "batch registrations,
    /// reconstruct periodically" lifecycle.
    pub fn register_sensor(
        &self,
        location: colr_geo::Point,
        expiry: TimeDelta,
        availability: f64,
        kind: u16,
    ) -> SensorId {
        let id = self.core.next_sensor_id.fetch_add(1, Ordering::Relaxed);
        let meta = SensorMeta::new(id, location, expiry, availability).with_kind(kind);
        self.core.lsm.register(meta);
        service_telem().registrations.inc();
        meta.id
    }

    /// Retires a publisher: an O(1) tombstone. The sensor is masked out of
    /// sampling, weights and cached aggregates immediately and physically
    /// dropped when a merge next rewrites its level. Returns `true` when the
    /// sensor was known and not already retired.
    pub fn retire_sensor(&self, id: SensorId) -> bool {
        self.core.lsm.retire(id)
    }

    /// `true` when L0 has reached its occupancy bound and a merge is due.
    /// The argument is ignored (a signature `benchmark/` freezes).
    pub fn wants_reindex(&self, _min_pending: usize) -> bool {
        self.core.lsm.wants_merge()
    }

    /// The incremental index behind this service. Always `Some` (a signature
    /// `benchmark/` freezes).
    pub fn lsm(&self) -> Option<&Arc<LsmTree>> {
        Some(&self.core.lsm)
    }

    /// LSM shape statistics. Always `Some` (a signature `benchmark/`
    /// freezes).
    pub fn index_stats(&self) -> Option<LsmStats> {
        Some(self.core.lsm.stats())
    }

    /// Folds the registered sensors into the index *online*: compacts L0
    /// (and the trailing small-level run) into a fresh bulk-built level via
    /// [`LsmTree::merge`] off the hot path — still-fresh cached readings are
    /// carried across, and globally aligned slotting means they expire at
    /// the same instants they would have without the merge — and publishes
    /// the cut, anchored on its primary level. A merge with nothing to
    /// compact publishes nothing. Queries running against the old cut finish
    /// undisturbed. Returns the live population.
    pub fn reindex(&self) -> usize {
        let core = &*self.core;
        let report = core.lsm.merge(core.clock.now());
        let t = service_telem();
        t.carryover.add(report.carried_entries as u64);
        if let Some(ordinal) = report.published {
            t.reindexes.inc();
            t.generation.set(ordinal as i64);
        }
        core.lsm.stats().live_sensors
    }

    // -- admission ---------------------------------------------------------

    /// Admits or sheds one query. On admission, returns the RAII in-flight
    /// slot and the modelled queue wait to charge against the query's
    /// deadline budget.
    fn admit(&self) -> Result<(InFlightGuard<'_>, TimeDelta), PortalError> {
        let core = &*self.core;
        if core.closed.load(Ordering::Acquire) {
            return Err(PortalError::Closed);
        }
        let t = service_telem();
        let prior = core.in_flight.fetch_add(1, Ordering::AcqRel);
        // The guard is armed immediately so every early return decrements.
        let guard = InFlightGuard {
            counter: &core.in_flight,
        };
        t.in_flight.set((prior + 1) as i64);
        let a = &core.admission;
        if prior < a.max_in_flight {
            return Ok((guard, TimeDelta::ZERO));
        }
        let depth = prior - a.max_in_flight + 1;
        if depth > a.queue_capacity {
            t.shed.inc();
            return Err(PortalError::Overloaded { in_flight: prior });
        }
        let wait = QUEUE_WAIT_PER_SLOT.mul_f64(depth as f64);
        t.queued.inc();
        t.queue_depth.observe(depth as u64);
        Ok((guard, wait))
    }

    // -- queries -----------------------------------------------------------

    /// Executes one [`QueryRequest`] — the service's single interactive
    /// entry point, under admission control, with an RNG derived from
    /// `(seed, ordinal)`. Concurrent-safe: any number of handles may call
    /// this at once.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryResponse, PortalError> {
        let snap = self.snapshot();
        if req.explain() == ExplainLevel::Plan {
            // Planning only: no admission slot, no ordinal, no RNG.
            return Ok(self.plan_response(&snap, req));
        }
        let ordinal = self.core.ordinal.fetch_add(1, Ordering::Relaxed);
        self.execute_seeded(&snap, req, derive_seed(self.core.seed, ordinal), ordinal)
    }

    /// [`PortalService::execute`] on `snap`, a snapshot of this service, with
    /// a caller-derived seed and ordinal — the router's hook: it runs each
    /// shard on the snapshot it counted that shard on, and derives one seed
    /// per `(router ordinal, shard)` so a routed fan-out replays
    /// bit-identically regardless of shard completion order.
    pub(crate) fn execute_seeded(
        &self,
        snap: &Snapshot,
        req: &QueryRequest,
        seed: u64,
        ordinal: u64,
    ) -> Result<QueryResponse, PortalError> {
        debug_assert!(req.explain() != ExplainLevel::Plan, "plans never execute");
        debug_assert!(Arc::ptr_eq(&snap.lsm, &self.core.lsm), "its own snapshot");
        let analyze = req.explain() == ExplainLevel::Analyze;
        if analyze {
            // Arm the always-on recorder; every error path below must disarm
            // to avoid leaking an active recorder onto this thread.
            flight::begin(ordinal);
            if req.sql_len() > 0 {
                flight::with(|f| f.parse_sql_len = req.sql_len());
            }
        }
        let (_slot, queue_wait) = match self.admit() {
            Ok(admitted) => admitted,
            Err(e) => {
                if analyze {
                    if let Some(rec) = flight::take() {
                        flight::recycle(rec);
                    }
                }
                return Err(e);
            }
        };
        let mut rng = StdRng::seed_from_u64(seed);
        service_telem().served.inc();
        let result = self.run_inner(snap, req.select(), &mut rng, queue_wait);
        let (explain, flight_json) = if analyze {
            // The recorder stays armed through EXPLAIN ANALYZE; were no
            // record to come back, the plan would be rendered without it.
            let rec = flight::take();
            let mut out = self.explain(snap, req.select());
            out.push('\n');
            if let Some(rec) = &rec {
                out.push_str(&rec.render_tree());
            }
            let d = &result.degradation;
            let _ = writeln!(
                out,
                "degradation: requested={} sampled={} fulfillment={:.3} \
                 breaker_skipped={} deadline_clipped={} probes_retried={}",
                d.requested,
                d.sampled,
                d.fulfillment(),
                d.breaker_skipped,
                d.deadline_clipped,
                d.probes_retried
            );
            let json = rec.map(|rec| {
                match rec.parity() {
                    Ok(()) => out.push_str("parity: stage totals == QueryStats (bit-exact)"),
                    Err(e) => {
                        let _ = write!(out, "parity: FAILED — {e}");
                    }
                }
                let json = rec.to_json();
                flight::recycle(rec);
                json
            });
            (Some(out), json)
        } else {
            (None, None)
        };
        Ok(QueryResponse {
            result,
            explain,
            flight: flight_json,
            shards: Vec::new(),
        })
    }

    /// The [`ExplainLevel::Plan`] response on `snap`: the plan text and an
    /// empty result, without executing anything.
    pub(crate) fn plan_response(&self, snap: &Snapshot, req: &QueryRequest) -> QueryResponse {
        QueryResponse {
            result: PortalResult::default(),
            explain: Some(self.explain(snap, req.select())),
            flight: None,
            shards: Vec::new(),
        }
    }

    /// Executes a batch of parsed queries against one snapshot, fanning out
    /// over `threads` workers, under admission control (the batch occupies
    /// one admission slot, and every plan pays its queue wait). Every query
    /// runs frozen against the cut read at batch start, with its own RNG
    /// seeded from `(seed, query index)`; probe write-backs are applied
    /// afterwards in query-index order, so results are independent of the
    /// thread count and of scheduling. `threads == 0` uses the machine's
    /// available parallelism. Reached through
    /// [`crate::ShardedPortal::execute_many`].
    pub(crate) fn execute_many(
        &self,
        queries: &[SelectQuery],
        threads: usize,
    ) -> Result<BatchResult, PortalError>
    where
        P: Sync,
    {
        let (_slot, queue_wait) = self.admit()?;
        let snap = self.snapshot();
        service_telem().served.inc();
        let core = &*self.core;
        let now = core.clock.now();
        // Freeze the cut the batch plans against for the whole batch: every
        // level plus the L0 population at batch start, so a merge published
        // mid-batch changes no in-flight answer.
        snap.cut.advance(now);
        let frozen = snap.cut.freeze();
        let plans: Vec<Query> = queries
            .iter()
            .map(|q| self.plan(&snap, q, queue_wait))
            .collect();
        let telem = portal_telem();
        telem.batches.inc();
        telem.batch_size.observe(plans.len() as u64);
        telem.queries.add(plans.len() as u64);

        let threads = if threads == 0 {
            colr_tree::build::available_cores()
        } else {
            threads
        }
        .min(plans.len().max(1));
        let probe = &core.probe;
        let mode = core.mode;
        let seed = core.seed;
        let lsm = &core.lsm;
        let run_query = |i: usize| {
            let (q, plan) = (&queries[i], &plans[i]);
            if q.counts_population() {
                return (counted(q, |r, k| frozen.count_in(r, k)), Vec::new());
            }
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
            let (out, deferred) = lsm.execute_frozen(&frozen, plan, mode, probe, now, &mut rng);
            let requested = requested_target(plan, mode);
            (Self::finish(q.agg.kind(), requested, out), deferred)
        };

        // Work-stealing by shared index: each worker claims the next
        // unprocessed query until the batch is drained, and hands what it
        // ran back through its join (which re-raises its panic).
        let next = AtomicUsize::new(0);
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < plans.len());
        let work = || Vec::from_iter(std::iter::from_fn(claim).map(|i| (i, run_query(i))));
        let mut outcomes = if threads <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
                let joined = workers.into_iter().map(|w| w.join());
                let ran = joined.map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)));
                ran.flatten().collect()
            })
        };
        outcomes.sort_unstable_by_key(|&(i, _)| i);

        // Deferred write-backs land in query-index order, so the post-batch
        // cache state matches a sequential run of the same batch.
        let mut stats = QueryStats::default();
        let mut readings_applied = 0;
        let mut results = Vec::with_capacity(plans.len());
        let mut degradation = DegradationReport::default();
        for (_, (result, deferred)) in outcomes {
            readings_applied += lsm.apply_deferred(&deferred, now);
            stats.merge(&result.stats);
            degradation.merge(&result.degradation);
            results.push(result);
        }
        Ok(BatchResult {
            results,
            stats,
            readings_applied,
            degradation,
        })
    }

    // -- execution internals ----------------------------------------------

    /// Interactive execution against `snap` with a caller-supplied RNG;
    /// `queue_wait` is deducted from the probe deadline budget.
    fn run_inner(
        &self,
        snap: &Snapshot,
        q: &SelectQuery,
        rng: &mut StdRng,
        queue_wait: TimeDelta,
    ) -> PortalResult {
        let core = &*self.core;
        let mode = core.mode;
        // Flight gate: an externally-armed recorder (EXPLAIN ANALYZE) stays
        // under its caller's control; otherwise the 1-in-N sampler may arm
        // one for this query. Recording never touches the RNG or any float
        // op, so recorded and unrecorded queries return identical answers.
        let external = flight::is_active();
        let self_armed = if !external && core.flight_every > 0 {
            let n = core.flight_counter.fetch_add(1, Ordering::Relaxed);
            let hit = n.is_multiple_of(core.flight_every);
            if hit {
                flight::begin(n);
            }
            hit
        } else {
            false
        };
        portal_telem().queries.inc();
        flight::with(|f| f.admission_wait_ms = queue_wait.millis());
        let result = if q.counts_population() {
            counted(q, |r, k| snap.cut.count_in(r, k))
        } else {
            let now = core.clock.now();
            let plan = self.plan(snap, q, queue_wait);
            flight::with(|f| {
                f.plan_target = plan.sample_size.unwrap_or(0.0);
                f.plan_terminal_level = plan.terminal_level;
                f.plan_deadline_ms = plan.probe_deadline.millis();
            });
            let out = core
                .lsm
                .execute_in(&snap.cut, &plan, mode, &core.probe, now, rng);
            Self::finish(q.agg.kind(), requested_target(&plan, mode), out)
        };
        let watchdog = core.watchdog.read().clone();
        let mut flight_json = None;
        if flight::is_active() {
            flight::with(|f| {
                f.finalize(&result.stats, result.latency_ms);
                f.requested = result.degradation.requested;
                f.sampled = result.degradation.sampled;
                if watchdog.is_some() {
                    flight_json = Some(f.to_json());
                }
            });
            if self_armed {
                if let Some(rec) = flight::take() {
                    flight::recycle(rec);
                }
            }
            // An external record stays armed for its caller to take.
        }
        if let Some(w) = watchdog {
            w.observe(
                (result.latency_ms * 1_000.0) as u64,
                result.degradation.fulfillment(),
                flight_json,
            );
        }
        result
    }

    /// The plan text of `q`, naming a sample target only in the mode that
    /// samples: its `SAMPLESIZE`, else the portal's cap.
    fn explain(&self, snap: &Snapshot, q: &SelectQuery) -> String {
        let target = q
            .sample_size
            .or(self.core.max_sensors_per_query)
            .filter(|_| self.core.mode == Mode::Colr);
        snap.planner().explain(q, target)
    }

    /// Plans a query against `snap`, applying the portal-wide collection cap
    /// when the query didn't choose a sample size, and deducting the
    /// admission `queue_wait` from the probe deadline budget.
    fn plan(&self, snap: &Snapshot, q: &SelectQuery, queue_wait: TimeDelta) -> Query {
        let mut plan: Query = snap.planner().plan(q);
        if plan.sample_size.is_none() {
            if let Some(cap) = self.core.max_sensors_per_query {
                plan = plan.with_sample_size(cap as f64);
            }
        }
        plan.probe_deadline = plan.probe_deadline - queue_wait;
        plan
    }

    /// Converts a raw engine output into the portal's result shape.
    fn finish(kind: AggKind, requested: f64, out: QueryOutput) -> PortalResult {
        let groups: Vec<GroupView> = out
            .groups
            .iter()
            .map(|g| GroupView {
                bbox: g.bbox,
                count: g.agg.count,
                value: g.agg.finalize(kind),
                from_cache: g.from_cache,
            })
            .collect();
        // Distribution: the raw readings, binned adaptively. A group served
        // from a cached aggregate has none to add.
        let histogram = (!out.readings.is_empty()).then(|| {
            let (lo, hi) = out
                .readings
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
                    (lo.min(r.value), hi.max(r.value))
                });
            let hi = if hi > lo { hi + 1e-9 } else { lo + 1.0 };
            let mut h = Histogram::new(lo, hi, 10);
            for r in &out.readings {
                h.insert(r.value);
            }
            h
        });
        let sampled: u64 = out.groups.iter().map(|g| g.agg.count).sum();
        let degradation = DegradationReport {
            requested,
            sampled,
            breaker_skipped: out.stats.breaker_skipped,
            deadline_clipped: out.stats.deadline_clipped,
            probes_retried: out.stats.probes_retried,
            worst: None,
        };
        PortalResult {
            groups,
            value: out.aggregate(kind),
            histogram,
            stats: out.stats,
            latency_ms: out.latency_ms,
            degradation,
        }
    }
}

impl<Q: ProbeService> PortalService<ResilientProber<Q>> {
    /// Closes the availability feedback loop for a resilient service: builds
    /// a [`LiveAvailability`] map over the *current* cut, installs it on
    /// that cut's primary tree (so Algorithm 1's oversampling reads live
    /// means) and on the prober (so every probe outcome trains the
    /// estimates). Returns the shared map for inspection.
    ///
    /// The map is installed on the primary level's tree only; when a merge
    /// publishes a cut with a different primary level, call this again to
    /// re-enable feedback there.
    pub fn enable_resilience_feedback(&self, alpha: f64) -> Arc<LiveAvailability> {
        let live = self.snapshot().tree().enable_live_availability(alpha);
        self.core.probe.attach_availability(live.clone());
        live
    }
}

// ---------------------------------------------------------------------------

/// A bare `count(*)`'s answer: one group of the `n` live sensors `count_in` finds.
fn counted(q: &SelectQuery, count_in: impl FnOnce(&Region, Option<u16>) -> u64) -> PortalResult {
    let region = q.within.region();
    let n = count_in(&region, q.sensor_type);
    let value = Some(n as f64);
    let group = GroupView {
        bbox: region.bounding_rect(),
        count: n,
        value,
        from_cache: false,
    };
    PortalResult {
        groups: (n > 0).then_some(group).into_iter().collect(),
        value,
        degradation: DegradationReport {
            requested: n as f64,
            sampled: n,
            ..DegradationReport::default()
        },
        ..PortalResult::default()
    }
}

/// The sample-size target a plan will aim for, for degradation accounting:
/// only the COLR mode samples, the baselines collect everything in range.
fn requested_target(plan: &Query, mode: Mode) -> f64 {
    if matches!(mode, Mode::Colr) {
        plan.sample_size.unwrap_or(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedPortal;
    use colr_geo::Point;
    use colr_tree::probe::AlwaysAvailable;
    use colr_tree::LsmConfig;
    use colr_tree::Reading;
    use parking_lot::Mutex;
    use rand::RngCore;

    const EXPIRY_MS: u64 = 300_000;

    fn grid_sensors(n: usize, side: usize) -> Vec<SensorMeta> {
        (0..n)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % side) as f64, (i / side) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
            })
            .collect()
    }

    /// A one-shard portal over the 16 × 16 grid: its batches are the
    /// shard's frozen batches.
    fn portal(config: PortalConfig) -> ShardedPortal<AlwaysAvailable> {
        let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        ShardedPortal::new(grid_sensors(256, 16), probe, 1, config)
    }

    /// The shard of [`portal`]: the grid in id order, as built.
    fn service(config: PortalConfig) -> PortalService<AlwaysAvailable> {
        portal(config).shard(0).clone()
    }

    fn portal_in(mode: Mode) -> ShardedPortal<AlwaysAvailable> {
        portal(PortalConfig {
            mode,
            ..Default::default()
        })
    }

    fn service_in(mode: Mode) -> PortalService<AlwaysAvailable> {
        portal_in(mode).shard(0).clone()
    }

    fn hier_service() -> PortalService<AlwaysAvailable> {
        service_in(Mode::HierCache)
    }

    /// Lowers `sql` through the one SQL path and executes it.
    fn run(svc: &PortalService<AlwaysAvailable>, sql: &str) -> Result<PortalResult, PortalError> {
        Ok(svc.execute(&QueryRequest::from_sql(sql)?)?.result)
    }

    #[test]
    fn service_handles_are_send_sync_and_share_state() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let svc = hier_service();
        assert_send_sync(&svc);
        let other = svc.clone();
        svc.clock().advance(TimeDelta::from_secs(5));
        assert_eq!(other.now(), Timestamp(5_000));
        let res = run(
            &other,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
             SAMPLESIZE 500",
        )
        .expect("query through a clone");
        assert_eq!(res.value, Some(64.0));
        // The clone's query warmed the caches the original sees.
        assert!(svc.snapshot().tree().cached_readings() > 0);
    }

    #[test]
    fn queries_take_shared_self_from_many_threads() {
        let svc = hier_service();
        svc.clock().advance(TimeDelta::from_secs(1));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let handle = svc.clone();
                scope.spawn(move || {
                    let x0 = (t % 4) as f64 * 4.0 - 0.5;
                    let sql = format!(
                        "SELECT count(*) FROM sensor WHERE location WITHIN \
                         RECT({x0}, -0.5, {}, 15.5) SAMPLESIZE 500",
                        x0 + 4.0
                    );
                    for _ in 0..5 {
                        run(&handle, &sql).expect("concurrent query");
                    }
                });
            }
        });
        assert_eq!(svc.in_flight(), 0);
    }

    #[test]
    fn registrations_reindex_online_with_carryover() {
        let svc = hier_service();
        svc.clock().advance(TimeDelta::from_secs(1));
        let warm_sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
                        SAMPLESIZE 500";
        run(&svc, warm_sql).unwrap();
        let cached_before = svc.snapshot().tree().cached_readings();
        assert!(cached_before > 0);

        for i in 0..3 {
            let id = svc.register_sensor(
                Point::new(105.0 + i as f64, 105.0),
                TimeDelta::from_mins(5),
                1.0,
                0,
            );
            assert_eq!(id.index(), 256 + i);
        }
        let unmerged = || svc.index_stats().expect("always Some").l0_occupancy;
        assert_eq!(unmerged(), 3);
        assert_eq!(svc.generation(), 0);
        assert_eq!(svc.reindex(), 259);
        assert_eq!(svc.generation(), 1);
        assert_eq!(unmerged(), 0);

        // Carry-over: the warmed readings survived the swap...
        assert_eq!(svc.snapshot().tree().cached_readings(), cached_before);
        let warm = run(&svc, warm_sql).unwrap();
        assert_eq!(warm.stats.sensors_probed, 0, "carried cache should serve");
        // ...and the new population answers.
        let new_region = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(100,100,110,110)",
        )
        .unwrap();
        assert_eq!(new_region.value, Some(3.0));
    }

    #[test]
    fn old_generation_snapshot_survives_a_swap() {
        let svc = hier_service();
        svc.clock().advance(TimeDelta::from_secs(1));
        let old = svc.snapshot();
        // Enough arrivals that the merge absorbs (and so replaces) the level
        // the old generation pins: 256 < level_ratio 4 × 65.
        for i in 0..65 {
            svc.register_sensor(
                Point::new(100.0 + i as f64, 100.0),
                TimeDelta::from_mins(5),
                1.0,
                0,
            );
        }
        svc.reindex();
        assert_eq!(old.ordinal(), 0);
        assert_eq!(old.tree().sensors().len(), 256);
        assert_eq!(svc.snapshot().tree().sensors().len(), 321);
        assert_eq!(svc.snapshot().ordinal(), 1);
    }

    /// `count(*)` over a corner of the grid at `CLUSTER d`, sampled.
    fn clustered(d: f64) -> SelectQuery {
        SelectQuery {
            cluster: Some(d),
            ..crate::parse(
                "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,9,9) SAMPLESIZE 20",
            )
            .unwrap()
        }
    }

    const CLUSTERS: [f64; 5] = [1.0, 10.0, 50.0, 500.0, 5000.0];

    /// Registers `n` sensors in a row off the grid, at (100 + i, 100).
    fn register_row(svc: &PortalService<AlwaysAvailable>, n: usize) {
        for i in 0..n {
            svc.register_sensor(
                Point::new(100.0 + i as f64, 100.0),
                TimeDelta::from_mins(5),
                1.0,
                0,
            );
        }
    }

    #[test]
    fn a_snapshot_plans_as_a_fresh_planner_over_its_primary_tree() {
        let svc = hier_service();
        let agrees_with_a_fresh_planner = |snap: &Snapshot| {
            let fresh = Planner::new(snap.tree());
            assert_eq!(format!("{:?}", snap.planner()), format!("{fresh:?}"));
            for d in CLUSTERS {
                let cluster = Some(d);
                assert_eq!(
                    snap.planner().terminal_level(cluster),
                    fresh.terminal_level(cluster)
                );
                let q = clustered(d);
                assert_eq!(
                    format!("{:?}", snap.planner().plan(&q)),
                    format!("{:?}", fresh.plan(&q))
                );
                assert_eq!(snap.planner().explain(&q, None), fresh.explain(&q, None));
            }
        };
        let initial = svc.snapshot();
        agrees_with_a_fresh_planner(&initial);

        // A small batch merges into a level of its own beside the base level:
        // the primary stays.
        register_row(&svc, 3);
        svc.reindex();
        let kept = svc.snapshot();
        assert_eq!(kept.ordinal(), 1);
        assert_eq!(kept.cut().primary().key(), initial.cut().primary().key());
        agrees_with_a_fresh_planner(&kept);

        // Arrivals enough to absorb — and so rewrite — the base level (256 <
        // level_ratio 4 × 68): a new primary.
        register_row(&svc, 65);
        svc.reindex();
        let rewritten = svc.snapshot();
        assert_eq!(rewritten.ordinal(), 2);
        assert_eq!(rewritten.tree().sensors().len(), 256 + 68);
        assert_ne!(rewritten.cut().primary().key(), kept.cut().primary().key());
        agrees_with_a_fresh_planner(&rewritten);
    }

    #[test]
    fn a_reindex_that_compacts_nothing_publishes_nothing() {
        let svc = hier_service();
        // A level of 64 beside the base of 256 (not small beside 64).
        register_row(&svc, 64);
        svc.reindex();
        assert_eq!(svc.generation(), 1);
        // Retires leave the base 56 live beside the new level's 64, but no
        // merge is due: the newer level is neither small nor tombstoned, so
        // nothing is absorbed.
        for id in 0..200 {
            assert!(svc.retire_sensor(SensorId(id)));
        }
        let before = svc.snapshot();
        assert_eq!(before.cut().primary().key(), 0);
        svc.reindex();
        let after = svc.snapshot();
        assert_eq!(svc.generation(), 1);
        assert_eq!(after.ordinal(), 1);
        assert!(Arc::ptr_eq(after.cut(), before.cut()), "nothing published");
        assert_eq!(after.cut().primary().key(), 0, "the primary is the cut's");
        for d in CLUSTERS {
            let q = clustered(d);
            assert_eq!(
                format!("{:?}", after.planner().plan(&q)),
                format!("{:?}", before.planner().plan(&q))
            );
        }
    }

    #[test]
    fn admission_sheds_beyond_queue_capacity() {
        let svc = service(PortalConfig {
            mode: Mode::HierCache,
            admission: AdmissionConfig {
                max_in_flight: 1,
                queue_capacity: 1,
            },
            ..Default::default()
        });
        svc.clock().advance(TimeDelta::from_secs(1));
        // Saturate the execution slot + queue from this thread by holding
        // fake in-flight slots, then observe the shed.
        svc.core.in_flight.store(2, Ordering::Release);
        let err = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1)",
        )
        .unwrap_err();
        assert_eq!(err, PortalError::Overloaded { in_flight: 2 });
        svc.core.in_flight.store(0, Ordering::Release);
        // With the pressure gone the same query is served.
        assert!(run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1)"
        )
        .is_ok());
    }

    #[test]
    fn queued_queries_pay_from_their_deadline_budget() {
        let svc = service(PortalConfig {
            mode: Mode::HierCache,
            ..Default::default()
        });
        let a = AdmissionConfig::default();
        // With every execution slot taken, the next arrival queues at depth
        // 1 and pays 2 ms of its budget.
        svc.core.in_flight.store(a.max_in_flight, Ordering::Release);
        let (slot, wait) = svc.admit().expect("queued");
        assert_eq!(wait, TimeDelta::from_millis(2));
        drop(slot);
        // Depth 250 still queues, with 500 ms of its budget gone; depth 251
        // is shed.
        let depth_250 = a.max_in_flight + 249;
        svc.core.in_flight.store(depth_250, Ordering::Release);
        let (slot, wait) = svc.admit().expect("queued at depth 250");
        assert_eq!(wait, TimeDelta::from_millis(500));
        drop(slot);
        svc.core.in_flight.store(depth_250 + 1, Ordering::Release);
        let err = svc.admit().unwrap_err();
        assert_eq!(
            err,
            PortalError::Overloaded {
                in_flight: depth_250 + 1
            }
        );
        svc.core.in_flight.store(0, Ordering::Release);
    }

    /// Answers as [`AlwaysAvailable`] does and records every retry budget
    /// it is handed.
    struct BudgetProbe {
        budgets: Mutex<Vec<u64>>,
    }

    impl ProbeService for BudgetProbe {
        fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
            let expiry_ms = EXPIRY_MS;
            AlwaysAvailable { expiry_ms }.probe_batch(ids, now)
        }

        fn probe_batch_report(
            &self,
            ids: &[SensorId],
            now: Timestamp,
            retry_budget_ms: u64,
        ) -> colr_tree::ProbeReport {
            self.budgets.lock().push(retry_budget_ms);
            colr_tree::ProbeReport::plain(self.probe_batch(ids, now))
        }
    }

    #[test]
    fn a_queued_batch_pays_its_queue_wait() {
        let probe = |_: usize, _: &[SensorMeta]| BudgetProbe {
            budgets: Mutex::new(Vec::new()),
        };
        let config = PortalConfig {
            mode: Mode::HierCache,
            ..Default::default()
        };
        let portal = ShardedPortal::new(grid_sensors(256, 16), probe, 1, config);
        let svc = portal.shard(0);
        svc.clock().advance(TimeDelta::from_secs(1));
        // Every execution slot taken: the batch queues at depth 1, 2 ms.
        let max_in_flight = AdmissionConfig::default().max_in_flight;
        svc.core.in_flight.store(max_in_flight, Ordering::Release);
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
                   SAMPLESIZE 500";
        portal.query_many_sql(&[sql, sql], 1).unwrap();
        svc.core.in_flight.store(0, Ordering::Release);
        let budgets = svc.probe().budgets.lock().clone();
        assert_eq!(budgets, [1_998, 1_998], "one wave a query, 2 s less 2 ms");
    }

    #[test]
    fn closed_service_rejects_queries() {
        let svc = hier_service();
        svc.clock().advance(TimeDelta::from_secs(1));
        svc.close();
        let err = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,1,1)",
        )
        .unwrap_err();
        assert_eq!(err, PortalError::Closed);
        assert_eq!(svc.in_flight(), 0);
    }

    /// One sampling query per region shape.
    const SHAPES: [&str; 3] = [
        "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,10.5,12.5) \
         SAMPLESIZE 24",
        "SELECT count(*) FROM sensor WHERE location WITHIN POLYGON((0 0, 15 0, 8 14)) \
         SAMPLESIZE 31",
        "SELECT sum(value) FROM sensor WHERE location WITHIN CIRCLE(8, 8, 6.5) SAMPLESIZE 17",
    ];

    /// The bare-tree side of the parity tests below: the same population,
    /// tree config and seed the service was built from, planned by a planner
    /// over that tree, with no service, LSM or admission layer in between.
    fn bare_tree(config: &PortalConfig) -> ColrTree {
        ColrTree::build(grid_sensors(256, 16), config.tree.clone(), config.seed)
    }

    /// The stream a fresh index hands its one level for a request seeded
    /// `seed`: component 0's, under the request's first draw. [`SHAPES`] ask
    /// for whole sample sizes, so rounding the target draws nothing before it
    /// and the target handed down is the plan's own.
    fn level_stream(seed: u64) -> StdRng {
        let base = StdRng::seed_from_u64(seed).next_u64();
        StdRng::seed_from_u64(derive_seed(base, 1))
    }

    // With the parity suites on either side this closes the reference chain:
    // router ≡ service (the `router` module's tests), service ≡ bare tree
    // driven by hand (here), a one-level index ≡ its tree driven by hand
    // (colr-tree's lsm tests).
    #[test]
    fn default_service_replays_the_bare_tree_on_interactive_queries() {
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        for seed in [3_u64, 41, 2026] {
            let config = PortalConfig {
                seed,
                ..Default::default()
            };
            let tree = bare_tree(&config);
            let planner = Planner::new(&tree);
            let svc = service(config);
            svc.clock().advance(TimeDelta::from_secs(1));
            let mut ordinal = 0;
            // Two passes: the second replays against caches warmed by the
            // first, so the cache-first branch of Algorithm 1 is covered too.
            for pass in 0..2 {
                for sql in SHAPES {
                    let req = QueryRequest::from_sql(sql).unwrap();
                    let got = svc.execute(&req).unwrap().result;
                    let plan = planner.plan(req.select());
                    let mut rng = level_stream(derive_seed(seed, ordinal));
                    let out = tree.execute(&plan, Mode::Colr, &probe, svc.now(), &mut rng);
                    let want = PortalService::<AlwaysAvailable>::finish(
                        req.select().agg.kind(),
                        requested_target(&plan, Mode::Colr),
                        out,
                    );
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "seed {seed} pass {pass} diverged on {sql}"
                    );
                    ordinal += 1;
                }
                svc.clock().advance(TimeDelta::from_secs(2));
            }
        }
    }

    #[test]
    fn default_service_replays_the_bare_tree_on_batches_at_any_thread_count() {
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        for seed in [3_u64, 41, 2026] {
            for threads in [1_usize, 2, 8] {
                let config = PortalConfig {
                    seed,
                    ..Default::default()
                };
                let tree = bare_tree(&config);
                let planner = Planner::new(&tree);
                let portal = portal(config);
                let svc = portal.shard(0);
                svc.clock().advance(TimeDelta::from_secs(1));
                let now = svc.now();
                // Cold, then warm: deferred write-backs must have cached the
                // same readings on both sides.
                for pass in 0..2 {
                    let got = portal.query_many_sql(&SHAPES, threads).unwrap();
                    tree.advance(now);
                    let frozen: Vec<_> = SHAPES
                        .iter()
                        .enumerate()
                        .map(|(i, sql)| {
                            let req = QueryRequest::from_sql(sql).unwrap();
                            let plan = planner.plan(req.select());
                            let mut rng = level_stream(derive_seed(seed, i as u64));
                            let (out, deferred) =
                                tree.execute_frozen(&plan, Mode::Colr, &probe, now, &mut rng);
                            (req, plan, out, deferred)
                        })
                        .collect();
                    let mut applied = 0;
                    for (i, (req, plan, out, deferred)) in frozen.into_iter().enumerate() {
                        applied += tree.apply_readings(&deferred, now);
                        let want = PortalService::<AlwaysAvailable>::finish(
                            req.select().agg.kind(),
                            requested_target(&plan, Mode::Colr),
                            out,
                        );
                        assert_eq!(
                            format!("{:?}", got.results[i]),
                            format!("{want:?}"),
                            "seed {seed}, {threads} thread(s), pass {pass}: query {i} diverged"
                        );
                    }
                    assert_eq!(got.readings_applied, applied);
                }
            }
        }
    }

    #[test]
    fn per_ordinal_results_are_deterministic_across_services() {
        let run = || -> Vec<Option<f64>> {
            let svc = service(PortalConfig {
                mode: Mode::Colr,
                ..Default::default()
            });
            svc.clock().advance(TimeDelta::from_secs(1));
            (0..6)
                .map(|i| {
                    let x0 = (i % 3) as f64 * 4.0 - 0.5;
                    run(
                        &svc,
                        &format!(
                            "SELECT count(*) FROM sensor WHERE location WITHIN \
                         RECT({x0}, -0.5, {}, 15.5) SAMPLESIZE 20",
                            x0 + 4.0
                        ),
                    )
                    .unwrap()
                    .value
                })
                .collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn background_reindexer_folds_in_registrations() {
        // An L0 bound of one sensor: every registration makes a merge due.
        let portal = portal(PortalConfig {
            mode: Mode::HierCache,
            index: IndexStrategy::Lsm(LsmConfig {
                l0_capacity: 1,
                ..Default::default()
            }),
            ..Default::default()
        });
        let svc = portal.shard(0);
        svc.clock().advance(TimeDelta::from_secs(1));
        let reindexer = portal.spawn_reindexer(std::time::Duration::from_millis(1));
        for i in 0..5 {
            portal.register_sensor(
                Point::new(50.0 + i as f64, 50.0),
                TimeDelta::from_mins(5),
                1.0,
                0,
            );
        }
        // Wait (wall clock) for the background thread to pump.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while svc.generation() == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let pumped = reindexer.stop();
        assert!(pumped >= 1, "reindexer never pumped");
        assert!(svc.generation() >= 1);
        assert_eq!(svc.index_stats().expect("always Some").live_sensors, 261);
    }

    #[test]
    fn registration_queue_is_safe_under_contention() {
        let svc = hier_service();
        svc.clock().advance(TimeDelta::from_secs(1));
        let mut ids: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|t| {
                    let handle = svc.clone();
                    scope.spawn(move || {
                        (0..100)
                            .map(|i| {
                                handle
                                    .register_sensor(
                                        Point::new(100.0 + t as f64, 100.0 + i as f64),
                                        TimeDelta::from_mins(5),
                                        1.0,
                                        0,
                                    )
                                    .index()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("registrar panicked"))
                .collect()
        });
        assert_eq!(ids.len(), 800);
        ids.sort_unstable();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, 256 + i);
        }
        let all = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-1,-1,300,300)",
        )
        .unwrap();
        assert_eq!(all.value, Some(1056.0));
    }

    #[test]
    fn end_to_end_sql_count() {
        let svc = service_in(Mode::HierCache);
        svc.clock().advance(TimeDelta::from_secs(1));
        let res = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5, -0.5, 7.5, 7.5) \
             SAMPLESIZE 500",
        )
        .expect("query runs");
        assert_eq!(res.value, Some(64.0));
        assert!(res.latency_ms > 0.0);
        assert!(!res.groups.is_empty());
    }

    #[test]
    fn sql_samplesize_limits_probes() {
        let svc = service_in(Mode::Colr);
        svc.clock().advance(TimeDelta::from_secs(1));
        let res = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
                 SAMPLESIZE 20",
        )
        .expect("query runs");
        assert!(
            res.stats.sensors_probed < 64,
            "probed {} of 256 for SAMPLESIZE 20",
            res.stats.sensors_probed
        );
    }

    #[test]
    fn polygon_query_via_sql() {
        let svc = service_in(Mode::RTree);
        svc.clock().advance(TimeDelta::from_secs(1));
        let res = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN \
                 POLYGON((-0.5 -0.5, 15.7 -0.5, -0.5 15.7))",
        )
        .expect("query runs");
        // Sensors with x + y <= 15 (below the hypotenuse x+y≈15.2): 136.
        assert_eq!(res.value, Some(136.0));
    }

    #[test]
    fn avg_histogram_present_with_raw_readings() {
        let svc = service_in(Mode::HierCache);
        svc.clock().advance(TimeDelta::from_secs(1));
        // The viewport is one leaf's box, so a warm cache covers it.
        let sql = "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,3.5,2.5)";
        let res = run(&svc, sql).expect("query runs");
        assert!(res.value.is_some());
        let h = res.histogram.expect("histogram from raw readings");
        assert_eq!(h.total(), 12);
        // Warm, the same query is answered from cached aggregates alone:
        // no raw reading, so no distribution.
        svc.clock().advance(TimeDelta::from_secs(1));
        let warm = run(&svc, sql).expect("query runs");
        assert_eq!(warm.stats.sensors_probed, 0);
        assert!(
            warm.groups.iter().all(|g| g.from_cache),
            "{:?}",
            warm.groups
        );
        assert_eq!(warm.value, res.value);
        assert!(warm.histogram.is_none());
    }

    #[test]
    fn warm_cache_reduces_latency() {
        let svc = service_in(Mode::HierCache);
        svc.clock().advance(TimeDelta::from_secs(1));
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
             AND time BETWEEN now()-5 AND now() mins SAMPLESIZE 500";
        let cold = run(&svc, sql).unwrap();
        svc.clock().advance(TimeDelta::from_secs(1));
        let warm = run(&svc, sql).unwrap();
        assert!(warm.latency_ms < cold.latency_ms);
        assert!(warm.stats.sensors_probed < cold.stats.sensors_probed);
    }

    #[test]
    fn portal_cap_applies_without_samplesize() {
        let svc = service(PortalConfig {
            mode: Mode::Colr,
            max_sensors_per_query: Some(10),
            ..Default::default()
        });
        svc.clock().advance(TimeDelta::from_secs(1));
        let res = run(
            &svc,
            "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5)",
        )
        .unwrap();
        assert!(
            res.stats.sensors_probed <= 30,
            "portal cap ignored: probed {}",
            res.stats.sensors_probed
        );
        // A bare count is the population, which no cap shapes.
        let count = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5)",
        )
        .unwrap();
        assert_eq!(count.value, Some(256.0));
        assert_eq!(count.stats.sensors_probed, 0);
    }

    #[test]
    fn explain_sql_describes_without_executing() {
        let svc = service_in(Mode::Colr);
        let req = QueryRequest::from_sql(
            "EXPLAIN SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,8,8) \
             CLUSTER 4 SAMPLESIZE 25",
        )
        .unwrap();
        let text = svc.execute(&req).unwrap().explain.expect("plan text");
        assert!(text.contains("R=25"), "{text}");
        assert!(text.contains("CLUSTER 4"), "{text}");
        // No probes happened.
        assert_eq!(svc.probe().expiry_ms, EXPIRY_MS); // probe untouched, state readable
    }

    #[test]
    fn parse_errors_bubble_up_as_portal_errors() {
        let svc = service_in(Mode::Colr);
        let err = run(&svc, "SELECT nonsense").unwrap_err();
        assert!(matches!(err, PortalError::Parse(_)));
    }

    #[test]
    fn execute_many_is_thread_count_invariant() {
        let sqls: Vec<String> = (0..12)
            .map(|i| {
                let x0 = (i % 4) as f64 * 4.0 - 0.5;
                format!(
                    "SELECT count(*) FROM sensor WHERE location WITHIN \
                     RECT({x0}, -0.5, {}, 15.5) SAMPLESIZE 20",
                    x0 + 4.0
                )
            })
            .collect();
        let sql_refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let mut batches = Vec::new();
        for threads in [1usize, 4] {
            let portal = portal_in(Mode::Colr);
            portal.clock().advance(TimeDelta::from_secs(1));
            batches.push(
                portal
                    .query_many_sql(&sql_refs, threads)
                    .expect("batch runs"),
            );
        }
        let (seq, par) = (&batches[0], &batches[1]);
        assert_eq!(seq.results.len(), par.results.len());
        assert_eq!(seq.readings_applied, par.readings_applied);
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.value, b.value);
            assert_eq!(a.groups.len(), b.groups.len());
            for (ga, gb) in a.groups.iter().zip(&b.groups) {
                assert_eq!(ga.count, gb.count);
                assert_eq!(ga.value, gb.value);
            }
        }
        assert_eq!(format!("{:?}", seq.stats), format!("{:?}", par.stats));
        assert_eq!(seq.degradation, par.degradation);
    }

    #[test]
    fn execute_many_applies_writebacks_after_batch() {
        let portal = portal_in(Mode::HierCache);
        let svc = portal.shard(0);
        svc.clock().advance(TimeDelta::from_secs(1));
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
                   SAMPLESIZE 500";
        let batch = portal.query_many_sql(&[sql], 2).unwrap();
        // Frozen execution probed the region, then wrote the readings back.
        assert_eq!(batch.stats.sensors_probed, 64);
        assert_eq!(batch.readings_applied, 64);
        assert_eq!(svc.snapshot().tree().cached_readings(), 64);
        // A follow-up interactive query is served warm.
        svc.clock().advance(TimeDelta::from_secs(1));
        let warm = run(svc, sql).unwrap();
        assert_eq!(warm.stats.sensors_probed, 0);
    }

    #[test]
    fn batch_queries_share_one_snapshot() {
        // Two identical queries in one batch both see the cold cache: the
        // batch is a snapshot, so the second query must NOT be served from
        // the first one's write-backs (unlike sequential interactive mode).
        let portal = portal_in(Mode::HierCache);
        let svc = portal.shard(0);
        svc.clock().advance(TimeDelta::from_secs(1));
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
                   SAMPLESIZE 500";
        let batch = portal.query_many_sql(&[sql, sql], 2).unwrap();
        assert_eq!(batch.stats.sensors_probed, 128, "both queries probed cold");
        // Duplicate write-backs collapse: the second apply replaces the first.
        assert_eq!(svc.snapshot().tree().cached_readings(), 64);
    }

    #[test]
    fn batch_degradation_merges_and_reports_worst() {
        let portal = portal_in(Mode::Colr);
        portal.clock().advance(TimeDelta::from_secs(1));
        let sqls = [
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
             SAMPLESIZE 20",
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5) \
             SAMPLESIZE 10",
        ];
        let batch = portal.query_many_sql(&sqls, 2).unwrap();
        assert_eq!(batch.degradation.requested, 30.0);
        let summed: u64 = batch.results.iter().map(|r| r.degradation.sampled).sum();
        assert_eq!(batch.degradation.sampled, summed);
        let worst = batch.worst_fulfillment();
        assert!(batch
            .results
            .iter()
            .all(|r| r.degradation.fulfillment() >= worst));
        // A fully available fleet can still under-deliver: each terminal
        // rounds its share on its own (ROADMAP 2b). What every stream gives
        // is a sample, and no more of it than the viewport holds.
        for (r, in_viewport) in batch.results.iter().zip([256, 64]) {
            let sampled = r.degradation.sampled;
            assert!((1..=in_viewport).contains(&sampled), "sampled {sampled}");
        }
    }

    #[test]
    fn cluster_controls_group_granularity() {
        let svc = service_in(Mode::RTree);
        svc.clock().advance(TimeDelta::from_secs(1));
        let fine = run(
            &svc,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
                 CLUSTER 1 SAMPLESIZE 500",
        )
        .unwrap();
        let svc2 = service_in(Mode::RTree);
        svc2.clock().advance(TimeDelta::from_secs(1));
        let coarse = run(
            &svc2,
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5) \
                 CLUSTER 1000 SAMPLESIZE 500",
        )
        .unwrap();
        assert!(
            fine.groups.len() >= coarse.groups.len(),
            "fine {} < coarse {}",
            fine.groups.len(),
            coarse.groups.len()
        );
        // Same total either way.
        assert_eq!(fine.value, coarse.value);
    }
}
