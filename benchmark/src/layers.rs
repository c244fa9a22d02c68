//! Per-layer attribution: single-threaded replays that stop at successive
//! depths of the stack, and direct timed calls into single layers.
//!
//! A replay issues a workload's first requests on one thread against a
//! world built from the run's seed. Worlds built from one seed are twins:
//! replaying the same requests makes their caches and clocks evolve alike, so
//! what a deeper replay measures is the inner part of what the shallower one
//! measured, and the differences are the layers' self times.

use std::time::Instant;

use colr_engine::{parse_statement, ExplainLevel, QueryRequest};
use colr_geo::Region;
use colr_tree::{ColrConfig, ColrTree, Mode, QueryStats, SlotCache, SlotConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::load::{check_census, Churner, ClientTally};
use crate::probe::{self, Charge};
use crate::sys;
use crate::trace;
use crate::world::{sql_for, Workload, World, SAMPLE_CAP};

/// Register/retire steps the replays interleave before each `churn_mix`
/// read: the writer thread's measured rate (≈64k ops/s, two ops a step)
/// over the reader's 4000 requests/s.
pub const CHURN_STEPS_PER_READ: usize = 8;

/// How deep into the stack a replay's timed call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// `QueryRequest::from_sql` + `ShardedPortal::execute`: the whole path.
    Router,
    /// `PortalService::execute` on each shard the router targeted.
    Service,
    /// `Planner::plan`, then `LsmTree::execute` on each targeted shard.
    Lsm,
}

/// The shards one routed request was split over: `(shard, share of R)`,
/// share 0 meaning the request was forwarded unchanged.
pub type Split = Vec<(u32, u32)>;

/// What one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests replayed.
    pub requests: u64,
    /// Wall nanoseconds of the replay's steps, interleaved churn included.
    pub wall_ns: u64,
    /// Σ nanoseconds inside the depth's timed call(s).
    pub call_ns: u64,
    /// Σ nanoseconds inside `Planner::plan` ([`Depth::Lsm`]).
    pub plan_ns: u64,
    /// Σ terminal levels the planner chose ([`Depth::Lsm`]).
    pub terminal_levels: u64,
    /// Sub-requests executed ([`Depth::Service`] and [`Depth::Lsm`]).
    pub calls: u64,
    /// Requests shed by a shard's admission control.
    pub shed: u64,
    /// Bytes the extra `parse_statement` calls allocated (traced only).
    pub parse_bytes: u64,
    /// Heap allocations made inside the timed calls ([`Depth::Router`]).
    pub allocs: u64,
    /// Counters of the answers, as the load generator books them
    /// ([`Depth::Router`]), and every depth's audit failures.
    pub tally: ClientTally,
    /// Probe counters ([`Depth::Service`] and [`Depth::Lsm`]).
    pub charge: Charge,
    /// Engine counters ([`Depth::Service`] and [`Depth::Lsm`]).
    pub stats: QueryStats,
    /// Churn interleaved with the reads (`churn_mix`).
    pub churn: Option<ChurnCounts>,
}

/// What the interleaved churn of a replay did.
#[derive(Debug, Default, Clone)]
pub struct ChurnCounts {
    /// Inline merges.
    pub merges: u64,
    /// Wall time of each merge, ms.
    pub merge_ms: Vec<f64>,
    /// Mean LSM level count right after a merge.
    pub levels_mean: f64,
    /// Largest L0 occupancy seen.
    pub l0_max: usize,
    /// Most tombstones seen.
    pub tombstones_max: usize,
}

/// Replays a workload's measured requests one at a time at one depth.
///
/// The traced run advances four replayers over four twin worlds in short
/// turns, so that a slow spell of the host slows every depth's numbers alike
/// and their differences stay meaningful.
pub struct Replayer<'w> {
    world: &'w World,
    depth: Depth,
    record_spans: bool,
    churner: Option<Churner<'w>>,
    out: Replay,
    /// How the router split the last request ([`Depth::Router`]).
    pub last_split: Split,
}

impl<'w> Replayer<'w> {
    /// A replayer over `world` at `depth`. With `record_spans` its steps
    /// record into this thread's armed recorder; without, they suspend it.
    pub fn new(world: &'w World, depth: Depth, record_spans: bool) -> Replayer<'w> {
        Replayer {
            world,
            depth,
            record_spans,
            churner: (world.workload == Workload::ChurnMix).then(|| Churner::new(world)),
            out: Replay::default(),
            last_split: Split::new(),
        }
    }

    /// Replays measured request `i`. `split` is the router's split of that
    /// request, from the [`Depth::Router`] replayer of a twin world; that
    /// depth itself ignores it.
    pub fn step(&mut self, i: usize, split: &[(u32, u32)]) {
        trace::suspend(!self.record_spans);
        probe::time_backend(self.depth == Depth::Lsm);
        probe::take();
        let started = Instant::now();
        trace::set_request(i as u32);
        let world = self.world;
        let slot = world.slot(i);
        let request = &world.inputs.requests[slot];
        if let Some(churner) = self.churner.as_mut() {
            for _ in 0..CHURN_STEPS_PER_READ {
                churner.step();
            }
        }
        if !world.workload.frozen_clock() {
            world.portal.clock().advance_to(request.spec.at);
        }
        let out = &mut self.out;
        out.requests += 1;
        if self.depth == Depth::Router {
            let traced = trace::armed();
            let allocs0 = sys::thread_allocs().0;
            let t0 = Instant::now();
            let answer = trace::span("request", || {
                if traced {
                    let bytes0 = sys::thread_allocs().1;
                    let parsed = trace::span("parser.parse", || parse_statement(&request.sql));
                    out.parse_bytes += sys::thread_allocs().1 - bytes0;
                    drop(parsed);
                }
                let req = trace::span("request.from_sql", || QueryRequest::from_sql(&request.sql))?;
                trace::span("router.execute", || world.portal.execute(&req))
            });
            out.call_ns += t0.elapsed().as_nanos() as u64;
            out.allocs += sys::thread_allocs().0 - allocs0;
            let charge = probe::take();
            out.tally.attempted += 1;
            self.last_split.clear();
            match answer {
                Ok(resp) => {
                    self.last_split.extend(
                        resp.shards
                            .iter()
                            .filter(|o| o.error.is_none())
                            .map(|o| (o.shard as u32, o.requested as u32)),
                    );
                    out.tally.book(world, slot, &resp, charge);
                }
                Err(e) => {
                    out.shed += u64::from(e.is_overload());
                    out.tally.audit.fail(format!("request {slot}: {e}"));
                }
            }
        }
        // The deeper depths; a router-depth replayer is handed no split.
        for &(shard, share) in split {
            let narrowed;
            let sql = if share == 0 {
                &request.sql
            } else {
                narrowed = sql_for(world.workload, &request.spec, Some(share as usize));
                &narrowed
            };
            let req = QueryRequest::from_sql(sql).expect("generated SQL parses");
            let service = world.portal.shard(shard as usize);
            out.calls += 1;
            if self.depth == Depth::Service {
                let t0 = Instant::now();
                let answer = service.execute(&req);
                out.call_ns += t0.elapsed().as_nanos() as u64;
                match answer {
                    Ok(resp) => out.stats.merge(&resp.result.stats),
                    Err(e) => {
                        out.shed += u64::from(e.is_overload());
                        out.tally
                            .audit
                            .fail(format!("request {slot} on shard {shard}: {e}"));
                    }
                }
            } else {
                let generation = service.snapshot();
                let t0 = Instant::now();
                let mut plan = generation.planner().plan(req.select());
                out.plan_ns += t0.elapsed().as_nanos() as u64;
                if plan.sample_size.is_none() {
                    plan = plan.with_sample_size(SAMPLE_CAP as f64);
                }
                out.terminal_levels += u64::from(plan.terminal_level);
                let lsm = service.lsm().expect("the portal runs the LSM index");
                let now = world.portal.clock().now();
                let mut rng =
                    StdRng::seed_from_u64(world.seed ^ ((i as u64) << 8) ^ u64::from(shard));
                let t0 = Instant::now();
                let answer = lsm.execute(&plan, Mode::Colr, service.probe(), now, &mut rng);
                out.call_ns += t0.elapsed().as_nanos() as u64;
                out.stats.merge(&answer.stats);
            }
        }
        out.charge.add(&probe::take());
        out.wall_ns += started.elapsed().as_nanos() as u64;
    }

    /// Ends the replay: drains and audits the churn, and checks the answers
    /// against the census.
    pub fn finish(mut self) -> Replay {
        trace::suspend(true);
        probe::time_backend(false);
        if let Some(mut churner) = self.churner.take() {
            churner.drain_and_audit(&mut self.out.tally.audit);
            let merges = churner.merge_ms.len() as u64;
            self.out.churn = Some(ChurnCounts {
                merges,
                levels_mean: churner.levels_sum as f64 / merges.max(1) as f64,
                merge_ms: std::mem::take(&mut churner.merge_ms),
                l0_max: churner.l0_max,
                tombstones_max: churner.tombstones_max,
            });
        }
        check_census(self.world, &mut self.out.tally);
        self.out
    }
}

/// Direct timed calls into single layers, on inputs drawn from the workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Micro {
    /// `ShardedPortal::execute` of an `EXPLAIN` (plan only), ns.
    pub router_plan_only_ns: f64,
    /// `EXPLAIN ANALYZE` minus the plain request, ns.
    pub flight_analyze_extra_ns: f64,
    /// Mean flight-record JSON size, bytes.
    pub flight_json_bytes: f64,
    /// One viewport × shard-box overlap, ns.
    pub geo_overlap_ns: f64,
    /// `ColrTree::build` over the fleet, ms.
    pub tree_build_ms: f64,
    /// `SlotCache::usable`, ns.
    pub slot_usable_ns: f64,
    /// `SlotCache::insert`, ns.
    pub slot_insert_ns: f64,
    /// `SlotCache::roll_to`, ns.
    pub slot_roll_ns: f64,
}

/// Requests the explain and flight measurements sample.
const MICRO_SAMPLE: usize = 256;

/// Runs the direct calls against `world`, after its replay: the clock stays
/// where the replay left it, so repeated requests are answered alike.
pub fn micro(world: &World) -> Micro {
    let mut m = Micro::default();
    let sample = MICRO_SAMPLE.min(world.scale.traced).max(1);
    let requests: Vec<_> = (0..sample)
        .map(|i| &world.inputs.requests[world.slot(i)])
        .collect();

    let (mut plan_ns, mut plain_ns, mut analyze_ns, mut json_bytes) = (0u64, 0u64, 0u64, 0usize);
    for request in &requests {
        let plain = QueryRequest::from_sql(&request.sql).expect("generated SQL parses");
        let explain = plain.clone().with_explain(ExplainLevel::Plan);
        let analyze = plain.clone().with_explain(ExplainLevel::Analyze);
        let t0 = Instant::now();
        let planned = world.portal.execute(&explain);
        plan_ns += t0.elapsed().as_nanos() as u64;
        drop(planned);
        // Once untimed, so the timed pair below finds the same warm caches.
        let _ = world.portal.execute(&plain);
        let t0 = Instant::now();
        let answered = world.portal.execute(&plain);
        plain_ns += t0.elapsed().as_nanos() as u64;
        drop(answered);
        let t0 = Instant::now();
        let analyzed = world.portal.execute(&analyze);
        analyze_ns += t0.elapsed().as_nanos() as u64;
        json_bytes += analyzed.map_or(0, |r| r.flight.map_or(0, |f| f.len()));
    }
    probe::take();
    let n = sample as f64;
    m.router_plan_only_ns = plan_ns as f64 / n;
    m.flight_analyze_extra_ns = (analyze_ns as f64 - plain_ns as f64) / n;
    m.flight_json_bytes = json_bytes as f64 / n;

    let boxes: Vec<_> = world.portal.shard_map().iter().map(|s| s.bbox).collect();
    let regions: Vec<Region> = world
        .inputs
        .requests
        .iter()
        .map(|r| Region::from(r.spec.rect))
        .collect();
    let t0 = Instant::now();
    let mut covered = 0.0;
    for region in &regions {
        for bbox in &boxes {
            covered += region.overlap_fraction(bbox);
        }
    }
    std::hint::black_box(covered);
    m.geo_overlap_ns = t0.elapsed().as_nanos() as f64 / (regions.len() * boxes.len()) as f64;

    let fleet = world.inputs.sensors.clone();
    let t0 = Instant::now();
    let tree = ColrTree::build(fleet, ColrConfig::default(), world.seed);
    m.tree_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(tree);

    slot_cache_calls(world, &mut m);
    m
}

/// Times `SlotCache::{roll_to, insert, usable}` on a stand-alone cache fed
/// the workload's own stream: each request's arrival instant and staleness
/// bound, with a fleet sensor's reading lifetime. Calls are timed sixteen at
/// a time so the clock reads do not outweigh them.
fn slot_cache_calls(world: &World, m: &mut Micro) {
    const CHUNK: usize = 16;
    let config = SlotConfig::for_window(world.inputs.t_max, ColrConfig::default().num_slots);
    let mut cache = SlotCache::new(config);
    let sensors = &world.inputs.sensors;
    let events: Vec<_> = (0..world.scale.traced.max(CHUNK))
        .map(|i| {
            let spec = &world.inputs.requests[world.slot(i)].spec;
            let at = if world.workload.frozen_clock() {
                world.portal.clock().now()
            } else {
                spec.at
            };
            (at, at + sensors[i % sensors.len()].expiry, spec.staleness)
        })
        .collect();
    let (mut roll_ns, mut insert_ns, mut usable_ns) = (0u64, 0u64, 0u64);
    let mut sink = 0u64;
    for chunk in events.chunks_exact(CHUNK) {
        let t0 = Instant::now();
        for &(at, _, _) in chunk {
            sink += cache.roll_to(config.base_at(at)) as u64;
        }
        roll_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for (k, &(at, expires_at, _)) in chunk.iter().enumerate() {
            sink += u64::from(cache.insert(expires_at, at, k as f64, config.base_at(at)));
        }
        insert_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for &(at, _, staleness) in chunk {
            sink += cache.usable(at, staleness).1;
        }
        usable_ns += t0.elapsed().as_nanos() as u64;
    }
    std::hint::black_box(sink);
    let calls = (events.len() / CHUNK * CHUNK) as f64;
    m.slot_roll_ns = roll_ns as f64 / calls;
    m.slot_insert_ns = insert_ns as f64 / calls;
    m.slot_usable_ns = usable_ns as f64 / calls;
}
