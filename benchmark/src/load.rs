//! The load generator: closed-loop clients, the open-loop reader and the
//! churn writer, and the measured block they make up.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use colr_engine::QueryResponse;
use colr_tree::QueryStats;

use crate::audit::{self, Audit, Census};
use crate::probe::{self, Charge};
use crate::sys;
use crate::trace;
use crate::world::{full_extent_count_sql, Workload, World, CHURN_POOL};

/// Arrival rate of `churn_mix`'s open-loop reader.
pub const OPEN_LOOP_RATE: f64 = 4_000.0;
/// Registered sensors kept live; older ones are retired first-in first-out.
pub const COHORT: usize = 4_096;

/// What one load thread measured.
#[derive(Debug, Default)]
pub struct ClientTally {
    /// Requests issued.
    pub attempted: u64,
    /// Latency of each answered request, ms: wall time of `from_sql` +
    /// `execute` (from the due instant in an open loop) plus the charged
    /// network time.
    pub latency_ms: Vec<f64>,
    /// How late each open-loop request started, µs (empty in a closed loop).
    pub lag_us: Vec<f64>,
    /// On-CPU nanoseconds of the thread over its loop.
    pub cpu_ns: u64,
    /// Probes, waves and failures over the loop.
    pub charge: Charge,
    /// Σ min(1, sampled / requested).
    pub fulfillment: f64,
    /// Σ shards touched.
    pub fanout: u64,
    /// Σ `degradation.sampled`.
    pub sampled: u64,
    /// Engine counters summed over the answers.
    pub stats: QueryStats,
    /// Heap allocations the thread made over its loop.
    pub allocs: u64,
    /// FNV-1a over each answer's `sampled` and value bits, in issue order.
    pub checksum: u64,
    /// `(request slot, sampled)` of each answer that passed its own checks,
    /// kept for the census bound.
    pub answered: Vec<(u32, u32)>,
    /// Failures seen so far.
    pub audit: Audit,
}

impl ClientTally {
    fn new(capacity: usize) -> ClientTally {
        ClientTally {
            latency_ms: Vec::with_capacity(capacity),
            answered: Vec::with_capacity(capacity),
            checksum: 0xcbf2_9ce4_8422_2325,
            ..Default::default()
        }
    }

    /// Books one answer: its counters, and the checks it must pass alone.
    pub fn book(&mut self, world: &World, slot: usize, resp: &QueryResponse, charge: Charge) {
        let d = &resp.result.degradation;
        self.charge.add(&charge);
        self.fulfillment += if d.requested > 0.0 {
            (d.sampled as f64 / d.requested).min(1.0)
        } else {
            1.0
        };
        self.fanout += resp.shards.len() as u64;
        self.sampled += d.sampled;
        self.stats.merge(&resp.result.stats);
        for word in [d.sampled, resp.result.value.map_or(0, f64::to_bits)] {
            self.checksum = (self.checksum ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        match audit::check_response(world.workload, resp, &charge) {
            Ok(()) => self.answered.push((slot as u32, d.sampled as u32)),
            Err(why) => self.audit.fail(format!("request {slot}: {why}")),
        }
    }

    fn absorb(&mut self, other: ClientTally) {
        self.attempted += other.attempted;
        self.latency_ms.extend(other.latency_ms);
        self.lag_us.extend(other.lag_us);
        self.cpu_ns += other.cpu_ns;
        self.charge.add(&other.charge);
        self.fulfillment += other.fulfillment;
        self.fanout += other.fanout;
        self.sampled += other.sampled;
        self.stats.merge(&other.stats);
        self.allocs += other.allocs;
        self.checksum ^= other.checksum;
        self.answered.extend(other.answered);
        self.audit.merge(other.audit);
    }
}

/// One client thread's loop over the measured operations `first`,
/// `first + stride`, … (`count` of them). `pace` makes it an open loop: each
/// request has a due instant, is timed from it, and waits for it by spinning
/// (a sleep would be late by more than the 250 µs period).
fn client_loop(
    world: &World,
    first: usize,
    stride: usize,
    count: usize,
    pace: Option<Duration>,
) -> ClientTally {
    let mut tally = ClientTally::new(count);
    probe::take();
    let allocs0 = sys::thread_allocs().0;
    let cpu0 = sys::thread_cpu_ns();
    let epoch = Instant::now();
    for k in 0..count {
        let slot = world.slot(first + k * stride);
        let request = &world.inputs.requests[slot];
        if !world.workload.frozen_clock() {
            world.portal.clock().advance_to(request.spec.at);
        }
        let sent = match pace {
            Some(period) => {
                let due = epoch + period * k as u32;
                let mut now = Instant::now();
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                tally.lag_us.push((now - due).as_secs_f64() * 1e6);
                due
            }
            None => Instant::now(),
        };
        let answer = world.query(&request.sql);
        let wall_ms = sent.elapsed().as_secs_f64() * 1e3;
        let charge = probe::take();
        tally.attempted += 1;
        match answer {
            Ok(resp) => {
                tally.latency_ms.push(wall_ms + charge.charged_ms());
                tally.book(world, slot, &resp, charge);
            }
            Err(e) => tally.audit.fail(format!("request {slot}: {e}")),
        }
    }
    tally.cpu_ns = sys::thread_cpu_ns() - cpu0;
    tally.allocs = sys::thread_allocs().0 - allocs0;
    tally
}

/// Registers and retires sensors through the router, merging inline
/// whenever the shard asks: used by the churn writer thread and, one step
/// per read, by the single-threaded replays.
pub struct Churner<'w> {
    world: &'w World,
    cohort: VecDeque<usize>,
    /// Sensors registered so far.
    pub registered: u64,
    /// Sensors retired so far.
    pub retired: u64,
    /// Wall time of each inline merge, ms.
    pub merge_ms: Vec<f64>,
    /// Σ LSM levels seen right after each merge.
    pub levels_sum: u64,
    /// Largest L0 occupancy seen (sampled right before each merge).
    pub l0_max: usize,
    /// Most tombstones seen (sampled right before each merge).
    pub tombstones_max: usize,
}

impl<'w> Churner<'w> {
    /// A churner over `world` (which must be `churn_mix`'s).
    pub fn new(world: &'w World) -> Churner<'w> {
        Churner {
            world,
            cohort: VecDeque::with_capacity(COHORT + 1),
            registered: 0,
            retired: 0,
            merge_ms: Vec::new(),
            levels_sum: 0,
            l0_max: 0,
            tombstones_max: 0,
        }
    }

    /// Register + retire operations so far.
    pub fn ops(&self) -> u64 {
        self.registered + self.retired
    }

    /// One register, the retire it pushes out of the cohort, and the merge
    /// it makes due.
    pub fn step(&mut self) {
        let world = self.world;
        let at = world.inputs.churn_pool[self.registered as usize % CHURN_POOL];
        let ticket = trace::span("lsm.register", || {
            world.portal.register_sensor(at, world.inputs.t_max, 1.0, 0)
        });
        self.registered += 1;
        self.cohort.push_back(ticket);
        if self.cohort.len() > COHORT {
            let oldest = self.cohort.pop_front().expect("cohort is non-empty");
            let was_live = trace::span("lsm.retire", || world.portal.retire_sensor(oldest));
            assert!(was_live, "cohort ticket {oldest} was already retired");
            self.retired += 1;
        }
        let shard = world.portal.shard(0);
        if shard.wants_reindex(usize::MAX) {
            let before = shard.index_stats().expect("the portal runs the LSM index");
            self.l0_max = self.l0_max.max(before.l0_occupancy);
            self.tombstones_max = self.tombstones_max.max(before.tombstones);
            let started = Instant::now();
            trace::span("lsm.merge", || world.portal.reindex());
            self.merge_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let after = shard.index_stats().expect("the portal runs the LSM index");
            self.levels_sum += after.levels as u64;
        }
    }

    /// Merges until the shard asks for no more, then checks the books: the
    /// index holds exactly initial + registered − retired sensors, and an
    /// over-asking full-extent `count(*)` finds every one of them.
    pub fn drain_and_audit(&mut self, audit: &mut Audit) {
        let world = self.world;
        let shard = world.portal.shard(0);
        while shard.wants_reindex(usize::MAX) {
            world.portal.reindex();
        }
        let expected = world.inputs.sensors.len() as u64 + self.registered - self.retired;
        let live = shard
            .index_stats()
            .expect("the portal runs the LSM index")
            .live_sensors as u64;
        if live != expected {
            audit.fail(format!(
                "index holds {live} live sensors, the books say {expected}"
            ));
        }
        match world.query(&full_extent_count_sql(&world.inputs.extent)) {
            Ok(resp) if resp.result.degradation.sampled == expected => {}
            Ok(resp) => audit.fail(format!(
                "full-extent count(*) = {}, the books say {expected}",
                resp.result.degradation.sampled
            )),
            Err(e) => audit.fail(format!("full-extent count(*) failed: {e}")),
        }
        probe::take();
    }
}

/// What the churn writer thread measured.
#[derive(Debug, Default)]
pub struct WriterTally {
    /// Register + retire operations.
    pub ops: u64,
    /// On-CPU nanoseconds of the writer thread, inline merges included.
    pub cpu_ns: u64,
    /// Wall time of each merge, ms.
    pub merge_ms: Vec<f64>,
}

/// One measured block: every load thread's tally folded together.
#[derive(Debug)]
pub struct Block {
    /// The reads, folded over the client threads.
    pub reads: ClientTally,
    /// The churn writer (`churn_mix` only).
    pub writer: Option<WriterTally>,
    /// Wall seconds from the first request to the last answer.
    pub wall_s: f64,
}

impl Block {
    /// Operations completed by the unthrottled threads per second of their
    /// on-CPU time: requests on the closed-loop workloads, register + retire
    /// operations on `churn_mix` (whose reader is paced, so its cost shows in
    /// the latencies instead).
    pub fn ops_per_core_s(&self) -> f64 {
        match &self.writer {
            Some(w) => w.ops as f64 / (w.cpu_ns as f64 / 1e9),
            None => self.reads.latency_ms.len() as f64 / (self.reads.cpu_ns as f64 / 1e9),
        }
    }
}

/// Runs the measured block of `world`'s workload with its own thread layout,
/// then the audits that need the whole block.
pub fn run_block(world: &World) -> Block {
    let block = world.scale.block;
    let started = Instant::now();
    let mut writer = None;
    let mut reads = ClientTally::default();
    match world.workload {
        Workload::LiveLocal | Workload::WarmPan | Workload::RoutedWide => {
            // Client `c` of `n` issues operations c, c + n, …, each on a
            // thread of its own so per-thread tallies start from zero.
            let clients = world.workload.load_threads();
            let tallies: Vec<ClientTally> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| s.spawn(move || client_loop(world, c, clients, block / clients, None)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            for tally in tallies {
                reads.absorb(tally);
            }
        }
        Workload::ChurnMix => {
            let stop = AtomicBool::new(false);
            let period = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
            let (tally, (written, books)) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let mut churner = Churner::new(world);
                    let cpu0 = sys::thread_cpu_ns();
                    while !stop.load(Ordering::Relaxed) {
                        churner.step();
                    }
                    let tally = WriterTally {
                        ops: churner.ops(),
                        cpu_ns: sys::thread_cpu_ns() - cpu0,
                        merge_ms: std::mem::take(&mut churner.merge_ms),
                    };
                    let mut audit = Audit::default();
                    churner.drain_and_audit(&mut audit);
                    (tally, audit)
                });
                let reader = s.spawn(|| {
                    let tally = client_loop(world, 0, 1, block, Some(period));
                    stop.store(true, Ordering::Relaxed);
                    tally
                });
                (
                    reader.join().expect("reader thread"),
                    writer.join().expect("writer thread"),
                )
            });
            reads.absorb(tally);
            reads.audit.merge(books);
            writer = Some(written);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    check_census(world, &mut reads);
    Block {
        reads,
        writer,
        wall_s,
    }
}

/// No answer may report more samples than there are live sensors in its
/// viewport, by a flat count over the benchmark's own sensor list. Under
/// churn every pool location counts as possibly live.
pub fn check_census(world: &World, reads: &mut ClientTally) {
    if reads.answered.is_empty() {
        return;
    }
    let mut points: Vec<_> = world.inputs.sensors.iter().map(|m| m.location).collect();
    points.extend_from_slice(&world.inputs.churn_pool);
    let census = Census::new(points);
    let mut bound_of: Vec<Option<u64>> = vec![None; world.inputs.requests.len()];
    for (slot, sampled) in std::mem::take(&mut reads.answered) {
        let slot = slot as usize;
        let bound = *bound_of[slot]
            .get_or_insert_with(|| census.count_in(&world.inputs.requests[slot].spec.rect));
        if u64::from(sampled) > bound {
            reads.audit.fail(format!(
                "request {slot}: sampled {sampled} of at most {bound} sensors in view"
            ));
        }
    }
}
