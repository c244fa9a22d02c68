//! The spatially sharded portal: a deterministic scatter-gather router over
//! per-shard [`PortalService`]s, and the one way to build a portal.
//!
//! A [`ShardedPortal`] partitions the sensor population spatially with the
//! same k-means grid the bulk build uses ([`colr_tree::kmeans_partition`]),
//! runs one full `PortalService` per shard (own LSM index, own
//! admission controller, own reindexer — all on **one shared clock**), and
//! routes each viewport query by lifting Algorithm 1's split one level up:
//! the sample target `R` is divided across the shards in proportion to the
//! live sensors each holds in the viewport ([`colr_tree::LsmState::count_in`]),
//! as the LSM divides it across its levels. Because the per-shard seeds
//! derive from `(router seed, query ordinal, shard index)`, a routed query
//! replays bit-identically regardless of shard completion order — and a
//! router over a single shard forwards each request to that shard unchanged,
//! so it answers bit-identically to the shard alone (this module's tests).
//! A routed query sees the fleet as one cut: each shard runs on the snapshot
//! it was counted on, and the move gate keeps a rebalance out of the count.
//!
//! The gather side merges per-shard [`PortalResult`]s into one response:
//! groups concatenate in shard order, [`QueryStats`] sum, latency is the
//! fan-out critical path (max), the aggregate recombines by its
//! [`AggKind`], and the [`DegradationReport`]s fold through the associative
//! [`DegradationReport::merge`]. A shard that sheds, trips its deadline, or
//! is closed **degrades the merged fulfillment instead of failing the
//! query**; only when every overlapping shard declines does the router
//! return [`PortalError::ShardUnavailable`].
//!
//! Registration is router-level: a new sensor goes straight into the L0 of
//! the shard whose centroid is nearest and is handed back as a ticket; if
//! the centroids have drifted by the time that shard next merges, the sensor
//! migrates to its new nearest shard first (rebalance-on-merge, counted by
//! `colr_router_rebalanced_total`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use colr_geo::{Point, Rect};
use colr_telemetry::{global, Counter};
use colr_tree::{
    apportion, derive_seed, kmeans_partition, unit_draw, AggKind, Claim, ClockHandle, Histogram,
    IdTable, LocationFold, Mode, ProbeService, QueryStats, SensorId, SensorMeta, TimeDelta,
    Timestamp,
};
use parking_lot::{Mutex, RwLock};

use crate::ast::SelectQuery;
use crate::error::PortalError;
use crate::portal::{BatchResult, DegradationReport, PortalConfig, PortalResult};
use crate::request::{ExplainLevel, QueryRequest, QueryResponse, ShardOutcome};
use crate::service::{PortalService, Snapshot};

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Cached handles for the router-level counters (`colr_router_*`).
struct RouterTelem {
    /// Per-shard failures, absorbed into a degraded merge or not.
    shard_errors: Counter,
    /// L0 sensors migrated to another shard because the centroids drifted
    /// after they registered.
    rebalanced: Counter,
}

fn router_telem() -> &'static RouterTelem {
    static T: OnceLock<RouterTelem> = OnceLock::new();
    T.get_or_init(|| RouterTelem {
        shard_errors: global().counter("colr_router_shard_errors_total"),
        rebalanced: global().counter("colr_router_rebalanced_total"),
    })
}

// ---------------------------------------------------------------------------
// Shard map
// ---------------------------------------------------------------------------

/// One entry of the router's shard map: where a shard sits and how much it
/// holds, refreshed at every merge.
#[derive(Debug, Clone, Copy)]
pub struct ShardInfo {
    /// Shard index (stable for the router's lifetime).
    pub index: usize,
    /// Bounding box of the shard's current index root.
    pub bbox: Rect,
    /// Mean location of the shard's sensors — the k-means centroid the
    /// rebalancer measures registration distance against.
    pub centroid: Point,
    /// Live sensors in the shard's index.
    pub sensors: usize,
}

/// Where a live registration ticket's sensor sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    /// Shard index.
    shard: u32,
    /// The per-shard id the sensor registered under.
    id: SensorId,
}

struct RouterCore<P> {
    shards: Vec<PortalService<P>>,
    map: RwLock<Vec<ShardInfo>>,
    /// The move gate, first in the lock order: a rebalance's batch of moves
    /// holds it for write, a routed query for read while it counts.
    moves: RwLock<()>,
    /// Ticket → current placement. Tickets are dense `usize`s in issue
    /// order, so the chunked table holds memory in proportion to the *live*
    /// ones; a ticket with no placement is retired (or was never issued).
    tickets: Mutex<IdTable<Placement>>,
    /// The next ticket to issue.
    next_ticket: AtomicUsize,
    clock: ClockHandle,
    ordinal: AtomicU64,
    /// Round-robin pointer for [`ShardedPortal::reindex`].
    next_reindex: AtomicUsize,
    seed: u64,
    mode: Mode,
    max_sensors_per_query: Option<usize>,
}

/// A cloneable, thread-safe scatter-gather router over spatial shards. See
/// the module docs for the architecture; clones share everything.
pub struct ShardedPortal<P> {
    core: Arc<RouterCore<P>>,
}

impl<P> Clone for ShardedPortal<P> {
    fn clone(&self) -> Self {
        ShardedPortal {
            core: Arc::clone(&self.core),
        }
    }
}

impl<P: ProbeService> ShardedPortal<P> {
    /// Partitions `sensors` into (at most) `shard_count` spatial shards with
    /// the bulk build's k-means grid and runs one [`PortalService`] per
    /// shard, all on one shared clock. `probe_factory` is called once per
    /// shard with the shard index and its (renumbered) population, so each
    /// shard gets its own probe backend over exactly its sensors.
    ///
    /// Each shard's population is renumbered to the dense in-order ids
    /// [`colr_tree::ColrTree::build`] requires; ordering within a shard
    /// preserves the original registration order. With `shard_count == 1`
    /// the single shard is the identity partition, and the router answers
    /// bit-identically to that shard alone. An empty fleet is one shard
    /// over no sensors, whatever `shard_count` asks for.
    pub fn new<F>(
        sensors: Vec<SensorMeta>,
        mut probe_factory: F,
        shard_count: usize,
        config: PortalConfig,
    ) -> ShardedPortal<P>
    where
        F: FnMut(usize, &[SensorMeta]) -> P,
    {
        let points: Vec<Point> = sensors.iter().map(|m| m.location).collect();
        let mut groups = kmeans_partition(&points, shard_count.max(1), config.seed);
        if groups.is_empty() {
            groups.push(Vec::new());
        }
        assert!(
            u32::try_from(groups.len()).is_ok(),
            "shard indices fit a ticket"
        );
        let clock = ClockHandle::new();
        let mut shards = Vec::with_capacity(groups.len());
        let mut map = Vec::with_capacity(groups.len());
        for (s, group) in groups.iter_mut().enumerate() {
            group.sort_unstable();
            let metas: Vec<SensorMeta> = group
                .iter()
                .enumerate()
                .map(|(j, &orig)| {
                    let m = sensors[orig];
                    SensorMeta::new(j as u32, m.location, m.expiry, m.availability)
                        .with_kind(m.kind)
                })
                .collect();
            let probe = probe_factory(s, &metas);
            let shard = PortalService::with_clock(metas, probe, config.clone(), clock.clone());
            map.push(shard_info(s, &shard));
            shards.push(shard);
        }
        ShardedPortal {
            core: Arc::new(RouterCore {
                shards,
                map: RwLock::new(map),
                moves: RwLock::new(()),
                tickets: Mutex::new(IdTable::new()),
                next_ticket: AtomicUsize::new(0),
                clock,
                ordinal: AtomicU64::new(0),
                next_reindex: AtomicUsize::new(0),
                seed: config.seed,
                mode: config.mode,
                max_sensors_per_query: config.max_sensors_per_query,
            }),
        }
    }

    // -- accessors ---------------------------------------------------------

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// Direct handle to shard `s` (e.g. to close it for an outage drill, or
    /// to inspect its snapshots).
    pub fn shard(&self, s: usize) -> &PortalService<P> {
        &self.core.shards[s]
    }

    /// The clock every shard shares.
    pub fn clock(&self) -> &ClockHandle {
        &self.core.clock
    }

    /// Current simulated instant.
    pub fn now(&self) -> Timestamp {
        self.core.clock.now()
    }

    /// A snapshot of the shard map (refreshed at every reindex).
    pub fn shard_map(&self) -> Vec<ShardInfo> {
        self.core.map.read().clone()
    }

    /// The first shard whose L0 has reached its occupancy bound and wants a
    /// merge (`None` when every L0 is within bounds).
    pub fn shard_wanting_merge(&self) -> Option<usize> {
        self.core
            .shards
            .iter()
            .position(|shard| shard.wants_reindex(usize::MAX))
    }

    // -- registration & rebalance-on-merge ---------------------------------

    /// Registers a new publisher with the *router*. Returns the router-level
    /// registration ticket (per-shard [`colr_tree::SensorId`]s are assigned
    /// at placement and are not comparable across shards; retire through
    /// [`ShardedPortal::retire_sensor`] with the ticket).
    ///
    /// The sensor registers O(1) into the nearest shard's L0 and is
    /// queryable immediately; if the centroids drift, the next merge of that
    /// shard migrates it (rebalance-on-merge).
    pub fn register_sensor(
        &self,
        location: Point,
        expiry: TimeDelta,
        availability: f64,
        kind: u16,
    ) -> usize {
        let core = &*self.core;
        let shard = nearest_shard(&core.map.read(), location);
        let id = core.shards[shard].register_sensor(location, expiry, availability, kind);
        // The counter publishes nothing: the placement goes in under the
        // table's lock, before the ticket is handed out.
        let ticket = core.next_ticket.fetch_add(1, Ordering::Relaxed);
        let placement = Placement {
            shard: shard as u32,
            id,
        };
        core.tickets.lock().insert(ticket, placement);
        ticket
    }

    /// Retires the publisher behind a registration ticket on its shard
    /// ([`PortalService::retire_sensor`], an O(1) tombstone). Returns `true`
    /// when the ticket was live.
    pub fn retire_sensor(&self, ticket: usize) -> bool {
        let core = &*self.core;
        // The table's lock is released before the shard is asked.
        let placement = core.tickets.lock().remove(ticket);
        placement.is_some_and(|p| core.shards[p.shard as usize].retire_sensor(p.id))
    }

    /// Reindexes shard `s` and refreshes its shard map entry from the cut it
    /// published. Returns the shard's new population size.
    ///
    /// L0 sensors whose nearest centroid has drifted to another shard are
    /// migrated *before* the merge compacts L0 (rebalance-on-merge), then the
    /// shard's merge is pumped.
    pub fn reindex_shard(&self, s: usize) -> usize {
        let core = &*self.core;
        self.rebalance_l0(s);
        let n = core.shards[s].reindex();
        core.map.write()[s] = shard_info(s, &core.shards[s]);
        n
    }

    /// Rebalance-on-merge: moves shard `s`'s L0 sensors whose nearest
    /// centroid has drifted to another shard — tombstone on `s`, O(1)
    /// re-register into the destination's L0 — so the imminent merge only
    /// compacts sensors that actually belong to `s`. Destinations are read
    /// off one look at the map; on one shard there is nowhere to move. A
    /// routed query sees all of the batch or none of it (the move gate).
    fn rebalance_l0(&self, s: usize) {
        let core = &*self.core;
        if core.shards.len() == 1 {
            return;
        }
        let metas = core.shards[s].snapshot().lsm().l0_sensor_metas();
        let moves: Vec<(SensorMeta, usize)> = {
            let map = core.map.read();
            let dest = |meta: SensorMeta| (meta, nearest_shard(&map, meta.location));
            metas
                .into_iter()
                .map(dest)
                .filter(|&(_, d)| d != s)
                .collect()
        };
        if moves.is_empty() {
            return;
        }
        let _gate = core.moves.write();
        // Only router-registered sensors live in L0, so each has a ticket;
        // one pass over the table finds the batch's, to keep retire-by-ticket
        // pointing at each sensor's new home.
        let mut tickets = core.tickets.lock();
        let mut found: HashMap<SensorId, Option<&mut Placement>> =
            moves.iter().map(|(meta, _)| (meta.id, None)).collect();
        for placement in tickets.values_mut().filter(|p| p.shard == s as u32) {
            if let Some(slot) = found.get_mut(&placement.id) {
                *slot = Some(placement);
            }
        }
        let mut moved = 0;
        for (meta, dest) in moves {
            let Some(placement) = found.remove(&meta.id).flatten() else {
                continue;
            };
            if !core.shards[s].retire_sensor(meta.id) {
                continue;
            }
            let id = core.shards[dest].register_sensor(
                meta.location,
                meta.expiry,
                meta.availability,
                meta.kind,
            );
            *placement = Placement {
                shard: dest as u32,
                id,
            };
            moved += 1;
        }
        router_telem().rebalanced.add(moved);
    }

    /// Round-robin [`ShardedPortal::reindex_shard`] — each call pumps the
    /// next shard, so a periodic caller cycles the whole fleet. Returns that
    /// shard's new population size.
    pub fn reindex(&self) -> usize {
        let s = self.core.next_reindex.fetch_add(1, Ordering::Relaxed) % self.shard_count();
        self.reindex_shard(s)
    }

    /// Reindexes every shard once, in index order. Returns the total
    /// population.
    pub fn reindex_all(&self) -> usize {
        (0..self.shard_count()).map(|s| self.reindex_shard(s)).sum()
    }

    // -- queries -----------------------------------------------------------

    /// Routes one [`QueryRequest`]: splits `R` across the shards by their
    /// live sensors in the viewport, executes each slice on the snapshot its
    /// shard was counted on, seeded from `(router seed, ordinal, shard)`, and
    /// merges the answers. Fails only when *every* overlapping shard
    /// declines; partial failures degrade the merged fulfillment instead.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryResponse, PortalError> {
        let core = &*self.core;
        let t = router_telem();
        let gate = core.moves.read();
        let (mut targets, cut) = self.overlap_targets(req.select());
        // A bare count, which probes nothing, holds the gate to the end; any
        // other query lets it go, so no probe can hold up a rebalance.
        let counted = req.select().counts_population();
        let _gate = counted.then_some(gate);
        if req.explain() == ExplainLevel::Plan {
            return Ok(self.plan_across(req, &targets, &cut));
        }
        let ordinal = core.ordinal.fetch_add(1, Ordering::Relaxed);
        let base = derive_seed(core.seed, ordinal);
        if targets.len() <= 1 {
            // Single-target fast path: forward the request unchanged so the
            // shard's answer (samples, stats, degradation) passes through
            // verbatim — this is what makes a 1-shard router bit-identical
            // to the bare service.
            let s = targets.first().map_or(0, |t| t.id);
            let answer = core.shards[s].execute_seeded(&cut[s], req, shard_seed(base, s), ordinal);
            return match answer {
                Ok(mut resp) => {
                    resp.shards = vec![answered(s)];
                    Ok(resp)
                }
                Err(cause) => {
                    t.shard_errors.inc();
                    Err(PortalError::ShardUnavailable {
                        shard: s,
                        cause: Box::new(cause),
                    })
                }
            };
        }
        // Fan-out. Split R only when the configured mode actually samples;
        // the baselines collect everything in range, so each shard just
        // answers the full request over its own population. So does a bare
        // `count(*)`, and the count a shard was weighed by is its shortfall.
        let cap = core
            .max_sensors_per_query
            .filter(|_| core.mode == Mode::Colr && !counted);
        let target_r = req.select().sample_size.or(cap);
        // The leftover units fall by `derive_seed(base, 0)`, which seeds no
        // shard (shard 0 runs under `base` itself), so the split replays per
        // `(seed, ordinal)` like the slices it hands out.
        let split = target_r.filter(|_| core.mode == Mode::Colr);
        if let Some(r) = split {
            apportion(r, &mut targets, unit_draw(derive_seed(base, 0)));
        }
        let mut outcomes = Vec::with_capacity(targets.len());
        let mut answers: Vec<(usize, QueryResponse)> = Vec::with_capacity(targets.len());
        let mut merged_degradation = DegradationReport::default();
        let mut first_failure: Option<(usize, PortalError)> = None;
        for target in &targets {
            let s = target.id;
            let share = split.map(|_| target.share);
            if share == Some(0) && target_r != Some(0) {
                // Apportionment starved this shard: skip it without paying
                // its admission slot; its zero slice is already accounted.
                // `SAMPLESIZE 0` starves nobody: every shard answers its
                // empty slice, so the gather below has answers to merge.
                continue;
            }
            let sub = match share {
                Some(r) => req.with_sample_share(r),
                None => req.clone(),
            };
            let unsplit = if counted { target.weight } else { 0.0 };
            let requested = share.map_or(unsplit, |r| r as f64);
            let answer = core.shards[s].execute_seeded(&cut[s], &sub, shard_seed(base, s), ordinal);
            let error = match answer {
                Ok(resp) => {
                    merged_degradation.merge(&resp.result.degradation);
                    answers.push((s, resp));
                    None
                }
                Err(e) => {
                    t.shard_errors.inc();
                    // The dead shard's slice of R goes unserved: merge a
                    // synthetic all-shortfall report so the fulfillment (and
                    // worst_fulfillment) reflect the outage.
                    merged_degradation.merge(&DegradationReport {
                        requested,
                        ..Default::default()
                    });
                    first_failure.get_or_insert_with(|| (s, e.clone()));
                    Some(e)
                }
            };
            outcomes.push(ShardOutcome {
                shard: s,
                requested,
                error,
            });
        }
        // Every shard a fan-out skips holds a zero slice of a non-zero R, and
        // apportioning never zeroes them all: no answer means a failure.
        match first_failure {
            Some((shard, cause)) if answers.is_empty() => Err(PortalError::ShardUnavailable {
                shard,
                cause: Box::new(cause),
            }),
            _ => Ok(self.merge(req, answers, merged_degradation, outcomes)),
        }
    }

    /// Executes a batch through the router. A single-shard router runs it on
    /// its shard as one frozen batch: every query against the index and
    /// caches as they stood at batch start, over `threads` workers (0 = the
    /// machine's parallelism), write-backs applied afterwards in submission
    /// order, so the result does not depend on the thread count. A
    /// multi-shard router routes the queries one by one, writing back inline
    /// — already deterministic by construction, so the thread hint is
    /// ignored.
    pub fn execute_many(
        &self,
        queries: &[SelectQuery],
        threads: usize,
    ) -> Result<BatchResult, PortalError>
    where
        P: Sync,
    {
        if self.shard_count() == 1 {
            return self.core.shards[0].execute_many(queries, threads);
        }
        let mut results = Vec::with_capacity(queries.len());
        let mut stats = QueryStats::default();
        let mut degradation = DegradationReport::default();
        for q in queries {
            let resp = self.execute(&QueryRequest::new(q.clone()))?;
            stats.merge(&resp.result.stats);
            degradation.merge(&resp.result.degradation);
            results.push(resp.result);
        }
        Ok(BatchResult {
            results,
            // Routed queries write their readings back as they run.
            readings_applied: stats.cache_inserts as usize,
            stats,
            degradation,
        })
    }

    /// Parses and executes a batch of dialect SQL queries via
    /// [`ShardedPortal::execute_many`]. Fails fast on the first parse error;
    /// a batch returns results only, so an `EXPLAIN` prefix changes nothing.
    pub fn query_many_sql(&self, sqls: &[&str], threads: usize) -> Result<BatchResult, PortalError>
    where
        P: Sync,
    {
        let parsed: Vec<SelectQuery> = sqls
            .iter()
            .map(|sql| QueryRequest::from_sql(sql).map(QueryRequest::into_select))
            .collect::<Result<_, _>>()?;
        self.execute_many(&parsed, threads)
    }

    // -- routing internals -------------------------------------------------

    /// The shards holding live sensors in the query's region, weighed by how
    /// many ([`colr_tree::LsmState::count_in`]) on the cut returned with them,
    /// a snapshot per shard. A lone shard is not counted: no target is shard 0.
    fn overlap_targets(&self, select: &SelectQuery) -> (Vec<Claim>, Vec<Snapshot>) {
        let shards = &self.core.shards;
        let cut: Vec<Snapshot> = shards.iter().map(PortalService::snapshot).collect();
        if shards.len() == 1 {
            return (Vec::new(), cut);
        }
        let region = select.within.region();
        let count = |snap: &Snapshot| snap.cut().count_in(&region, select.sensor_type);
        let live = cut.iter().map(count).enumerate().filter(|&(_, n)| n > 0);
        let targets = live.map(|(s, n)| Claim::new(s, n as f64)).collect();
        (targets, cut)
    }

    /// The [`ExplainLevel::Plan`] path: no execution, so gather each target
    /// shard's plan text (prefixed with its shard header when fanned out).
    fn plan_across(&self, req: &QueryRequest, claims: &[Claim], cut: &[Snapshot]) -> QueryResponse {
        let core = &*self.core;
        if claims.len() <= 1 {
            let s = claims.first().map_or(0, |t| t.id);
            let mut resp = core.shards[s].plan_response(&cut[s], req);
            resp.shards = vec![answered(s)];
            return resp;
        }
        let mut text = String::new();
        let mut outcomes = Vec::with_capacity(claims.len());
        for s in claims.iter().map(|t| t.id) {
            let resp = core.shards[s].plan_response(&cut[s], req);
            if !text.is_empty() {
                text.push('\n');
            }
            text.push_str(&format!("— shard {s} —\n"));
            text.push_str(resp.explain.as_deref().unwrap_or(""));
            outcomes.push(answered(s));
        }
        QueryResponse {
            result: PortalResult::default(),
            explain: Some(text),
            flight: None,
            shards: outcomes,
        }
    }

    /// Gathers per-shard answers (in shard order) into one response.
    fn merge(
        &self,
        req: &QueryRequest,
        answers: Vec<(usize, QueryResponse)>,
        degradation: DegradationReport,
        outcomes: Vec<ShardOutcome>,
    ) -> QueryResponse {
        let kind = req.select().agg.kind();
        let mut groups = Vec::new();
        let mut stats = QueryStats::default();
        let mut latency_ms = 0.0f64;
        let mut histogram: Option<Histogram> = None;
        let mut histogram_ok = true;
        let mut value_acc: Option<f64> = None;
        let mut avg_weight = 0.0f64;
        let mut explains = Vec::new();
        let mut flights = Vec::new();
        for (s, resp) in answers {
            let r = resp.result;
            stats.merge(&r.stats);
            // The fan-out runs (conceptually) in parallel: the merged
            // latency is the critical path, not the sum.
            latency_ms = latency_ms.max(r.latency_ms);
            if let Some(h) = r.histogram {
                match &mut histogram {
                    None if histogram_ok => histogram = Some(h),
                    Some(acc) if acc.same_binning(&h) => acc.merge(&h),
                    _ => {
                        // Shards binned differently (adaptive raw-reading
                        // bins): a merged distribution would be meaningless.
                        histogram_ok = false;
                        histogram = None;
                    }
                }
            }
            if let Some(v) = r.value {
                let n: u64 = r.groups.iter().map(|g| g.count).sum();
                value_acc = Some(match (value_acc, kind) {
                    (None, AggKind::Avg) => v * n as f64,
                    (None, _) => v,
                    (Some(acc), AggKind::Count | AggKind::Sum) => acc + v,
                    (Some(acc), AggKind::Min) => acc.min(v),
                    (Some(acc), AggKind::Max) => acc.max(v),
                    (Some(acc), AggKind::Avg) => acc + v * n as f64,
                });
                if kind == AggKind::Avg {
                    avg_weight += n as f64;
                }
            }
            groups.extend(r.groups);
            if let Some(e) = resp.explain {
                explains.push((s, e));
            }
            if let Some(f) = resp.flight {
                flights.push(f);
            }
        }
        let value = match (value_acc, kind) {
            (Some(acc), AggKind::Avg) if avg_weight > 0.0 => Some(acc / avg_weight),
            (Some(_), AggKind::Avg) => None,
            (v, _) => v,
        };
        let explain = (!explains.is_empty()).then(|| {
            explains
                .into_iter()
                .map(|(s, e)| format!("— shard {s} —\n{e}"))
                .collect::<Vec<_>>()
                .join("\n")
        });
        let flight = (!flights.is_empty()).then(|| format!("[{}]", flights.join(",")));
        QueryResponse {
            result: PortalResult {
                groups,
                value,
                histogram,
                stats,
                latency_ms,
                degradation,
            },
            explain,
            flight,
            shards: outcomes,
        }
    }
}

impl<P: ProbeService + Send + Sync + 'static> ShardedPortal<P> {
    /// Spawns a background thread that pumps [`ShardedPortal::reindex_shard`]
    /// (rebalance included) on any shard whose L0 has reached its occupancy
    /// bound, parking for `poll` (wall clock) whenever none has. The
    /// alternative to calling `reindex` explicitly.
    pub fn spawn_reindexer(&self, poll: std::time::Duration) -> Reindexer {
        let router = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut pumped = 0u64;
            while !flag.load(Ordering::Acquire) {
                match router.shard_wanting_merge() {
                    Some(s) => {
                        router.reindex_shard(s);
                        pumped += 1;
                    }
                    None => std::thread::park_timeout(poll),
                }
            }
            pumped
        });
        Reindexer {
            stop,
            handle: Some(handle),
        }
    }
}

/// A detached background reindexer thread
/// ([`ShardedPortal::spawn_reindexer`]); stop (or drop) it to join the
/// thread.
pub struct Reindexer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

impl Reindexer {
    /// Stops the background thread and returns how many reindexes it pumped.
    pub fn stop(mut self) -> u64 {
        self.shutdown().unwrap_or(0)
    }

    fn shutdown(&mut self) -> Option<u64> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::Release);
        handle.thread().unpark();
        handle.join().ok()
    }
}

impl Drop for Reindexer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The shard of `map` whose centroid is nearest to `location` (ties to the
/// lower index).
fn nearest_shard(map: &[ShardInfo], location: Point) -> usize {
    let mut best = 0;
    let mut best_d2 = f64::INFINITY;
    for info in map {
        let dx = info.centroid.x - location.x;
        let dy = info.centroid.y - location.y;
        let d2 = dx * dx + dy * dy;
        if d2 < best_d2 {
            best_d2 = d2;
            best = info.index;
        }
    }
    best
}

/// The outcome of shard `shard` answering the request it was handed whole.
fn answered(shard: usize) -> ShardOutcome {
    ShardOutcome {
        shard,
        requested: 0.0,
        error: None,
    }
}

/// The seed shard `s` executes ordinal `base`'s slice under. Shard 0 reuses
/// `base` itself so a single-shard router replays the bare service's exact
/// RNG stream; other shards re-derive from their absolute index.
fn shard_seed(base: u64, s: usize) -> u64 {
    if s == 0 {
        base
    } else {
        derive_seed(base, s as u64)
    }
}

/// Reads one shard map entry off the shard's published cut. The live
/// population spans every level plus L0, so the extent, centroid and count
/// are its [`LocationFold`] rather than one tree root's: the LSM keeps the
/// fold of the levels a merge left as they were, so this costs what a merge
/// does, not what the shard holds. A fully retired shard keeps its primary
/// level's.
fn shard_info<P: ProbeService>(index: usize, shard: &PortalService<P>) -> ShardInfo {
    let snap = shard.snapshot();
    let fold = snap
        .lsm()
        .live_location_fold()
        .or_else(|| LocationFold::over(snap.tree().sensors().iter().map(|m| m.location)));
    match fold {
        Some(fold) => ShardInfo {
            index,
            bbox: fold.bbox,
            centroid: Point::new(
                fold.sum_x / fold.count as f64,
                fold.sum_y / fold.count as f64,
            ),
            sensors: fold.count,
        },
        None => ShardInfo {
            index,
            bbox: snap.tree().node(snap.tree().root()).bbox,
            centroid: Point::new(0.0, 0.0),
            sensors: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portal::IndexStrategy;
    use colr_tree::probe::AlwaysAvailable;
    use colr_tree::LsmConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`shard_info`] as it was computed while it copied the shard: every
    /// live location into a `Vec` (the fully retired shard's from its primary
    /// level), then the extent and the sums over the copy.
    fn shard_info_by_copy<P: ProbeService>(index: usize, shard: &PortalService<P>) -> ShardInfo {
        let snap = shard.snapshot();
        let mut locations = Vec::new();
        snap.lsm().for_each_live_location(|p| locations.push(p));
        if locations.is_empty() {
            locations = snap.tree().sensors().iter().map(|m| m.location).collect();
        }
        let Some((first, rest)) = locations.split_first() else {
            return ShardInfo {
                index,
                bbox: snap.tree().node(snap.tree().root()).bbox,
                centroid: Point::new(0.0, 0.0),
                sensors: 0,
            };
        };
        let mut bbox = Rect::new(*first, *first);
        let mut cx = first.x;
        let mut cy = first.y;
        for p in rest {
            bbox.expand_to_point(p);
            cx += p.x;
            cy += p.y;
        }
        let n = locations.len() as f64;
        ShardInfo {
            index,
            bbox,
            centroid: Point::new(cx / n, cy / n),
            sensors: locations.len(),
        }
    }

    const EXPIRY_MS: u64 = 300_000;
    const SIDE: usize = 32;

    /// The router of `tests/hostile_input.rs`: a 32 × 32 grid, `l0_capacity`
    /// 8, nothing registered yet.
    fn router(shards: usize) -> ShardedPortal<AlwaysAvailable> {
        let sensors: Vec<SensorMeta> = (0..SIDE * SIDE)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
            })
            .collect();
        let config = PortalConfig {
            seed: 20_080_407,
            index: IndexStrategy::Lsm(LsmConfig {
                l0_capacity: 8,
                ..Default::default()
            }),
            ..Default::default()
        };
        let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        ShardedPortal::new(sensors, probe, shards, config)
    }

    /// Registers arrivals `which` of the churned router's lattice.
    fn register(
        router: &ShardedPortal<AlwaysAvailable>,
        which: std::ops::Range<usize>,
    ) -> Vec<usize> {
        which
            .map(|i| {
                let at = Point::new((i * 7 % 32) as f64 + 0.5, (i * 11 % 32) as f64 + 0.5);
                router.register_sensor(at, TimeDelta::from_millis(EXPIRY_MS), 1.0, 0)
            })
            .collect()
    }

    /// A map entry's fields, floats by their bits.
    fn bits(i: &ShardInfo) -> (usize, [(u64, u64); 3], usize) {
        let corners = [i.bbox.min, i.bbox.max, i.centroid];
        (
            i.index,
            corners.map(|p| (p.x.to_bits(), p.y.to_bits())),
            i.sensors,
        )
    }

    /// Refreshes every shard's entry and checks it equals the copy-based
    /// reference to the bit.
    fn refresh_matches_the_copy(
        router: &ShardedPortal<AlwaysAvailable>,
        row: &str,
    ) -> Vec<ShardInfo> {
        (0..router.shard_count())
            .map(|s| {
                let got = shard_info(s, router.shard(s));
                let want = shard_info_by_copy(s, router.shard(s));
                assert_eq!(bits(&got), bits(&want), "{row}, shard {s}");
                got
            })
            .collect()
    }

    /// Every shard's entry as the fold computes it now equals the copy-based
    /// reference to the bit — as does the map itself after a `reindex_all`.
    /// Returns the live total.
    fn assert_matches_the_copy(router: &ShardedPortal<AlwaysAvailable>, row: &str) -> usize {
        refresh_matches_the_copy(router, row);
        router.reindex_all();
        let after = refresh_matches_the_copy(router, &format!("{row}, reindexed"));
        let map = router.shard_map();
        assert_eq!(
            map.iter().map(bits).collect::<Vec<_>>(),
            after.iter().map(bits).collect::<Vec<_>>(),
            "{row}: the map holds what the fold computed"
        );
        map.iter().map(|i| i.sensors).sum()
    }

    #[test]
    fn shard_info_by_one_pass_equals_the_copy_to_the_bit() {
        for shards in [1, 4] {
            // A fresh shard: one level.
            assert_eq!(
                assert_matches_the_copy(&router(shards), "fresh"),
                SIDE * SIDE
            );

            // Churned as in `tests/hostile_input.rs`: 40 registrations, a
            // merge after the 32nd, every third retired — a tombstoned level
            // sensor and a part-retired L0 before the reindex, levels after.
            let churned = router(shards);
            let mut tickets = register(&churned, 0..32);
            churned.reindex_all();
            tickets.extend(register(&churned, 32..40));
            for &ticket in tickets.iter().step_by(3) {
                assert!(churned.retire_sensor(ticket));
            }
            assert_eq!(
                assert_matches_the_copy(&churned, "churned"),
                SIDE * SIDE + 40 - 14
            );

            // Two levels and an empty L0.
            let two = router(shards);
            register(&two, 0..24);
            two.reindex_all();
            let stats: Vec<_> = (0..two.shard_count())
                .map(|s| two.shard(s).index_stats().expect("always Some"))
                .collect();
            assert!(stats.iter().all(|s| s.l0_occupancy == 0));
            assert!(stats.iter().any(|s| s.levels == 2));
            assert_eq!(
                assert_matches_the_copy(&two, "two levels"),
                SIDE * SIDE + 24
            );

            // Every sensor retired: the live pass is empty and the entry
            // falls back to the primary level's sensors; once merged away the
            // population is empty, a level over no sensors.
            let retired = router(shards);
            for s in 0..retired.shard_count() {
                let n = retired.shard(s).snapshot().tree().sensors().len();
                for j in 0..n {
                    assert!(retired.shard(s).retire_sensor(SensorId(j as u32)));
                }
                let info = shard_info(s, retired.shard(s));
                assert_eq!(info.sensors, n, "the fallback counts the primary level");
            }
            assert_eq!(assert_matches_the_copy(&retired, "retired"), 0);

            // The fold's memo: one router refreshed before and after each of
            // no change, a base-level retire and a merge that replaces the
            // trailing level (two levels throughout).
            let memo = router(shards);
            register(&memo, 0..24);
            memo.reindex_all();
            let levels = |s: usize| memo.shard(s).index_stats().expect("always Some").levels;
            refresh_matches_the_copy(&memo, "memo, no change, before");
            refresh_matches_the_copy(&memo, "memo, no change, after");
            for s in 0..memo.shard_count() {
                assert!(memo.shard(s).retire_sensor(SensorId(s as u32)));
            }
            refresh_matches_the_copy(&memo, "memo, base-level retire");
            register(&memo, 24..40);
            refresh_matches_the_copy(&memo, "memo, merge, before");
            let mut replaced = 0;
            for s in 0..memo.shard_count() {
                let (two, merges) = (levels(s) == 2, memo.shard(s).generation());
                memo.shard(s).reindex();
                if two && levels(s) == 2 && memo.shard(s).generation() > merges {
                    replaced += 1;
                }
            }
            assert!(replaced > 0, "a merge replaced a trailing level");
            refresh_matches_the_copy(&memo, "memo, merge, after");
        }
    }

    /// A clustered population: `per_cluster` sensors jittered around each
    /// centre, ids dense in generation order.
    fn clustered_sensors(centres: &[(f64, f64)], per_cluster: usize, seed: u64) -> Vec<SensorMeta> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sensors = Vec::with_capacity(centres.len() * per_cluster);
        for &(cx, cy) in centres {
            for _ in 0..per_cluster {
                let id = sensors.len() as u32;
                let x = cx + rng.random_range(-8.0..8.0);
                let y = cy + rng.random_range(-8.0..8.0);
                sensors.push(SensorMeta::new(
                    id,
                    Point::new(x, y),
                    TimeDelta::from_millis(PARITY_EXPIRY_MS),
                    1.0,
                ));
            }
        }
        sensors
    }

    const PARITY_EXPIRY_MS: u64 = 600_000;

    fn parity_config(seed: u64) -> PortalConfig {
        PortalConfig {
            seed,
            mode: Mode::Colr,
            ..Default::default()
        }
    }

    fn parity_probe() -> AlwaysAvailable {
        AlwaysAvailable {
            expiry_ms: PARITY_EXPIRY_MS,
        }
    }

    /// The shard a one-shard router over `sensors` runs, built on its own
    /// clock with no router in front.
    fn bare_shard(sensors: &[SensorMeta], seed: u64) -> PortalService<AlwaysAvailable> {
        PortalService::with_clock(
            sensors.to_vec(),
            parity_probe(),
            parity_config(seed),
            ClockHandle::new(),
        )
    }

    /// Everything except wall-clock latency must match exactly.
    fn assert_results_identical(a: &PortalResult, b: &PortalResult, ctx: &str) {
        assert_eq!(
            format!("{:?}", a.groups),
            format!("{:?}", b.groups),
            "{ctx}: groups diverged"
        );
        assert_eq!(a.value, b.value, "{ctx}: aggregate value diverged");
        assert_eq!(
            format!("{:?}", a.histogram),
            format!("{:?}", b.histogram),
            "{ctx}: histogram diverged"
        );
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "{ctx}: collection stats diverged"
        );
        assert_eq!(a.degradation, b.degradation, "{ctx}: degradation diverged");
    }

    /// The three predicate shapes, each with an explicit sampling target so
    /// the seeded sampler is actually exercised.
    fn shape_sqls() -> [&'static str; 3] {
        [
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(2, 2, 50, 50) SAMPLESIZE 24",
            "SELECT avg(value) FROM sensor WHERE location WITHIN \
             POLYGON((0 0, 70 0, 70 70, 0 70)) SAMPLESIZE 32",
            "SELECT sum(value) FROM sensor WHERE location WITHIN CIRCLE(60, 60, 15) SAMPLESIZE 16",
        ]
    }

    // The forward proven against the shard it forwards to: a one-shard
    // router derives its shard-0 seed as the identity, so the RNG stream —
    // and therefore every sample, group, stat and degradation field —
    // replays exactly, across seeds, predicate shapes and batch thread counts.
    #[test]
    fn single_shard_router_is_bit_identical_to_bare_service() {
        let sensors = clustered_sensors(&[(12.0, 12.0), (60.0, 60.0)], 200, 1);
        for seed in [7u64, 99, 20_080_407] {
            let bare = bare_shard(&sensors, seed);
            let routed = ShardedPortal::new(
                sensors.clone(),
                |_, _| parity_probe(),
                1,
                parity_config(seed),
            );
            bare.clock().advance_to(Timestamp(5_000));
            routed.clock().advance_to(Timestamp(5_000));
            // Interleave cold and warm passes: the second round replays each
            // viewport against carried-over caches, so cache attribution is
            // compared too, not just probe-path sampling.
            for round in 0..2 {
                for sql in shape_sqls() {
                    let req = QueryRequest::from_sql(sql).expect("shape SQL parses");
                    let a = bare.execute(&req).expect("bare query").result;
                    let b = routed.execute(&req).expect("routed query").result;
                    assert_results_identical(&a, &b, &format!("seed {seed} round {round} `{sql}`"));
                }
            }
        }
    }

    #[test]
    fn single_shard_batches_match_at_any_thread_count() {
        let sensors = clustered_sensors(&[(12.0, 12.0), (60.0, 60.0)], 200, 1);
        let batch: Vec<_> = shape_sqls()
            .iter()
            .map(|sql| crate::parse(sql).expect("shape SQL parses"))
            .collect();
        let seed = 7;
        let bare = bare_shard(&sensors, seed);
        bare.clock().advance_to(Timestamp(5_000));
        let reference = bare.execute_many(&batch, 1).expect("bare batch");
        for threads in [1usize, 8] {
            let routed = ShardedPortal::new(
                sensors.clone(),
                |_, _| parity_probe(),
                1,
                parity_config(seed),
            );
            routed.clock().advance_to(Timestamp(5_000));
            let got = routed.execute_many(&batch, threads).expect("routed batch");
            assert_eq!(reference.results.len(), got.results.len());
            for (i, (a, b)) in reference.results.iter().zip(&got.results).enumerate() {
                assert_results_identical(a, b, &format!("threads {threads} query {i}"));
            }
            assert_eq!(
                format!("{:?}", reference.stats),
                format!("{:?}", got.stats),
                "threads {threads}: batch stats diverged"
            );
            assert_eq!(
                reference.degradation, got.degradation,
                "threads {threads}: batch degradation diverged"
            );
        }
    }

    #[test]
    fn a_routed_batch_reports_the_readings_it_wrote_back() {
        let sensors: Vec<SensorMeta> = (0..16 * 16)
            .map(|i| {
                let at = Point::new((i % 16) as f64, (i / 16) as f64);
                SensorMeta::new(i as u32, at, TimeDelta::from_millis(PARITY_EXPIRY_MS), 1.0)
            })
            .collect();
        let router = ShardedPortal::new(sensors, |_, _| parity_probe(), 4, parity_config(7));
        router.clock().advance_to(Timestamp(5_000));
        let batch: Vec<_> = [
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0, 0, 15, 15) SAMPLESIZE 40",
            "SELECT avg(value) FROM sensor WHERE location WITHIN RECT(2, 2, 9, 9) SAMPLESIZE 12",
        ]
        .iter()
        .map(|sql| crate::parse(sql).expect("SQL parses"))
        .collect();
        let got = router.execute_many(&batch, 1).expect("routed batch");
        assert!(
            got.stats.cache_inserts > 0,
            "a cold batch probes and writes back"
        );
        assert_eq!(got.readings_applied as u64, got.stats.cache_inserts);
    }

    #[test]
    fn an_empty_fleet_is_one_shard_that_registers_reindexes_and_retires() {
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-10,-10,10,10)";
        let req = QueryRequest::from_sql(sql).expect("count SQL parses");
        for shards in [1, 4] {
            let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            };
            let router = ShardedPortal::new(Vec::new(), probe, shards, PortalConfig::default());
            assert_eq!(router.shard_count(), 1, "{shards} asked");
            router.clock().advance(TimeDelta::from_secs(1));
            let count = || router.execute(&req).expect("count").result.value;
            assert_eq!(count(), Some(0.0), "{shards} asked: empty");
            let expiry = TimeDelta::from_millis(EXPIRY_MS);
            let ticket = router.register_sensor(Point::new(1.0, 2.0), expiry, 1.0, 0);
            assert_eq!(count(), Some(1.0), "{shards} asked: registered");
            assert_eq!(router.reindex(), 1);
            assert_eq!(count(), Some(1.0), "{shards} asked: reindexed");
            assert!(router.retire_sensor(ticket));
            assert_eq!(count(), Some(0.0), "{shards} asked: retired");
        }
    }

    #[test]
    fn shard_zero_replays_the_base_stream() {
        assert_eq!(shard_seed(1234, 0), 1234);
        assert_ne!(shard_seed(1234, 1), 1234);
        assert_ne!(shard_seed(1234, 1), shard_seed(1234, 2));
    }
}
