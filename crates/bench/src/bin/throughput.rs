//! Multi-client query throughput benchmark.
//!
//! Drives a batch of seeded viewport queries against ONE shared COLR-Tree
//! (simulated wide-area network) from 1..=N worker threads and writes
//! `BENCH_throughput.json` with queries/sec, probes/query, slot-cache hit
//! ratio and p50/p95/p99 per-query wall-clock latency per thread count — the
//! perf trajectory for the concurrent query engine.
//!
//! ```text
//! throughput [--sensors N] [--queries N] [--threads a,b,...] [--rtt-us N]
//!            [--service-ms N] [--telemetry on|off] [--out FILE] [--quick]
//! ```
//!
//! `--telemetry off` disables the global metrics registry and tracer before
//! the timed runs, for measuring the instrumentation's own overhead
//! (the hot paths then reduce to one relaxed atomic load per site).
//!
//! `--quick` is the CI regression gate: a small fleet, no WAN sleep, and one
//! warm arena-vs-pointer comparison. It writes nothing and exits non-zero if
//! the arena layout's warm q/s falls below 90% of the pointer layout's —
//! catching >10% hot-path regressions in seconds.
//!
//! The workload is communication-bound, as in the paper's setting: every
//! probe batch pays a simulated WAN round-trip (`--rtt-us`, default 200µs —
//! deliberately far below real WAN RTTs so the benchmark stays fast). A
//! single-threaded portal serialises those round-trips across clients; the
//! concurrent executor overlaps them, which is exactly the throughput this
//! benchmark tracks. Queries run frozen against a fixed snapshot (as in
//! `Portal::execute_many`), so every thread count executes the identical
//! per-query work for the same derived seeds and the comparison is pure
//! scheduling.
//!
//! The final phase (`service_concurrent`, window set by `--service-ms`) runs
//! the same warm viewport mix closed-loop through one shared
//! [`PortalService`] handle — every client calls `query` on `&self` — while
//! a storm thread registers publishers and swaps index generations
//! underneath them; it reports q/s, tail latency and how many reindexes the
//! clients rode through.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use colr_bench::hotpath::{
    cpu_qps, cpu_qps_recorded, grid_sensors, process_cpu_seconds, run, viewport_queries,
    viewport_queries_at, warm_caches, WanProbe, EXPIRY,
};
use colr_engine::{
    AdmissionConfig, AggSpec, IndexStrategy, PortalConfig, PortalService, QueryRequest,
    SelectQuery, ShardedPortal, SpatialPredicate,
};
use colr_geo::Rect;
use colr_sensors::{ConstantField, SimNetwork};
use colr_tree::{ColrConfig, ColrTree, HotPathLayout, LsmConfig, Mode, SensorMeta, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Args {
    sensors: usize,
    queries: usize,
    threads: Vec<usize>,
    rtt_us: u64,
    service_ms: u64,
    telemetry: bool,
    out: String,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sensors: 10_000,
        queries: 600,
        threads: vec![1, 2, 4, 8],
        rtt_us: 200,
        service_ms: 3_000,
        telemetry: true,
        out: "BENCH_throughput.json".to_owned(),
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sensors" => {
                args.sensors = it.next().and_then(|v| v.parse().ok()).expect("--sensors N")
            }
            "--queries" => {
                args.queries = it.next().and_then(|v| v.parse().ok()).expect("--queries N")
            }
            "--threads" => {
                let list = it.next().expect("--threads a,b,...");
                args.threads = list
                    .split(',')
                    .map(|t| t.parse().expect("thread count"))
                    .collect();
            }
            "--rtt-us" => args.rtt_us = it.next().and_then(|v| v.parse().ok()).expect("--rtt-us N"),
            "--service-ms" => {
                args.service_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--service-ms N")
            }
            "--telemetry" => {
                args.telemetry = match it.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    other => panic!("--telemetry on|off, got {other:?}"),
                }
            }
            "--out" => args.out = it.next().expect("--out FILE"),
            "--quick" => args.quick = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// The same seeded viewport mix lowered to portal AST queries for the
/// service phase (staleness pinned to the expiry so the two phases demand
/// identical freshness; explicit `SAMPLESIZE 64` as in the raw runs).
fn viewport_select_queries(n: usize, side: usize, seed: u64) -> Vec<SelectQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let w = rng.random_range(8..=24) as f64;
            let x0 = rng.random_range(0.0..(side as f64 - w).max(1.0));
            let y0 = rng.random_range(0.0..(side as f64 - w).max(1.0));
            SelectQuery {
                agg: AggSpec::Count,
                within: SpatialPredicate::Rect(Rect::from_coords(
                    x0 - 0.5,
                    y0 - 0.5,
                    x0 + w + 0.5,
                    y0 + w + 0.5,
                )),
                staleness: Some(EXPIRY),
                cluster: None,
                sample_size: Some(64),
                sensor_type: None,
            }
        })
        .collect()
}

struct ServiceRunResult {
    clients: usize,
    ops: usize,
    queries_per_sec: f64,
    p50_latency_ms: f64,
    p95_latency_ms: f64,
    p99_latency_ms: f64,
    reindexes: u64,
    shed: u64,
}

/// Closed-loop multi-client phase: `clients` threads spin on one shared
/// [`PortalService`] handle for `window`, each looping "pick next viewport,
/// `query` through `&self`, record latency", while a storm thread registers
/// publishers and swaps index generations underneath them (cache carry-over
/// keeps the viewports warm across swaps).
fn run_service_concurrent<P: colr_tree::ProbeService + Send + Sync>(
    svc: &PortalService<P>,
    queries: &[SelectQuery],
    clients: usize,
    window: Duration,
) -> ServiceRunResult {
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let shed = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let gen_before = svc.generation();
    let wall = Instant::now();
    std::thread::scope(|scope| {
        // The reindex storm: keep registering publishers (outside every
        // viewport, so answers stay comparable) and republishing the index
        // while the clients run.
        let storm = scope.spawn(|| {
            let mut k = 0u32;
            while !stop.load(Ordering::Relaxed) {
                svc.register_sensor(
                    colr_geo::Point::new(-20.0 - k as f64, -20.0),
                    EXPIRY,
                    1.0,
                    0,
                );
                k += 1;
                svc.reindex();
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let mut workers = Vec::new();
        for _ in 0..clients {
            workers.push(scope.spawn(|| {
                let mut local = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let q = &queries[i % queries.len()];
                    let start = Instant::now();
                    match svc.query(q) {
                        Ok(_) => local.push(start.elapsed().as_nanos() as u64),
                        Err(e) if e.is_overload() => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("service query failed: {e}"),
                    }
                }
                local
            }));
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            latencies
                .lock()
                .expect("latency sink")
                .extend(w.join().expect("client thread"));
        }
        storm.join().expect("storm thread");
    });
    let elapsed = wall.elapsed().as_secs_f64();
    let mut lat = latencies.into_inner().expect("latency sink");
    lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx] as f64 / 1e6
    };
    ServiceRunResult {
        clients,
        ops: lat.len(),
        queries_per_sec: lat.len() as f64 / elapsed,
        p50_latency_ms: pct(0.50),
        p95_latency_ms: pct(0.95),
        p99_latency_ms: pct(0.99),
        reindexes: svc.generation() - gen_before,
        shed: shed.load(Ordering::Relaxed),
    }
}

/// One shard reindex pump per this many routed queries in the sharded storm
/// phase — frequent enough that republish cost dominates the loop (as it
/// does in the service storm), rare enough that the warm query path still
/// registers.
const SHARD_REINDEX_EVERY: usize = 32;

/// One timed slice of the sharded storm loop: `total` warm queries with a
/// reindex pump every [`SHARD_REINDEX_EVERY`], measured in CPU time (the
/// loop is single-threaded; wall clock on a shared host is too noisy).
fn storm_slice_cpu_qps(
    total: usize,
    mut query: impl FnMut(usize),
    mut reindex: impl FnMut(),
) -> f64 {
    let t0 = process_cpu_seconds().expect("process CPU clock");
    for i in 0..total {
        if i % SHARD_REINDEX_EVERY == 0 {
            reindex();
        }
        query(i);
    }
    let dt = process_cpu_seconds().expect("process CPU clock") - t0;
    total as f64 / dt.max(1e-9)
}

/// The sharded storm phase: the warm viewport mix routed through a
/// [`ShardedPortal`] at each shard count, with a round-robin shard reindex
/// pump every [`SHARD_REINDEX_EVERY`] queries — the same
/// query-while-republishing regime as the service storm, minus the WAN
/// sleep so CPU time is the whole story. A bare [`PortalService`] runs the
/// identical loop (its pump republishes the full population every time) as
/// the no-router baseline. Returns `(bare_cpu_qps, [(shards, cpu_qps)])`,
/// each best-of `reps` interleaved slices.
///
/// Slice length is calibrated per configuration so every timed slice spans
/// roughly `target_secs` of CPU time: `/proc/self/stat` ticks at 10ms, so a
/// fixed query count would quantize the fast configurations much harder
/// than the slow ones and scramble the shard-count ordering.
fn sharded_storm_phase(
    sensors: &[SensorMeta],
    side: usize,
    shard_counts: &[usize],
    n_queries: usize,
    target_secs: f64,
    reps: usize,
) -> (f64, Vec<(usize, f64)>) {
    let now = Timestamp(1_000);
    let select_queries = viewport_select_queries(n_queries, side, 4321);
    let reqs: Vec<QueryRequest> = select_queries
        .iter()
        .map(|q| QueryRequest::new(q.clone()))
        .collect();
    let config = PortalConfig {
        default_staleness: EXPIRY,
        mode: Mode::Colr,
        max_sensors_per_query: None,
        seed: 42,
        admission: AdmissionConfig {
            max_in_flight: 1024,
            queue_capacity: 1024,
            ..Default::default()
        },
        ..Default::default()
    };
    let probe = |metas: &[SensorMeta]| WanProbe {
        inner: SimNetwork::new(
            metas.to_vec(),
            ConstantField {
                base: 0.0,
                step: 0.01,
            },
            7,
        ),
        rtt: Duration::ZERO,
    };
    let bare = PortalService::new(sensors.to_vec(), probe(sensors), config.clone());
    bare.clock().advance_to(now);
    for r in &reqs {
        bare.execute(r).expect("bare warm query");
    }
    let mut routers = Vec::new();
    for &k in shard_counts {
        let router =
            ShardedPortal::new(sensors.to_vec(), |_, metas| probe(metas), k, config.clone());
        router.clock().advance_to(now);
        for r in &reqs {
            router.execute(r).expect("router warm query");
        }
        routers.push(router);
    }
    // Configuration 0 is the bare service; 1.. are the routers in
    // `shard_counts` order.
    let run_config = |cfg: usize, total: usize| -> f64 {
        if cfg == 0 {
            storm_slice_cpu_qps(
                total,
                |i| {
                    bare.execute(&reqs[i % reqs.len()]).expect("bare query");
                },
                || {
                    bare.reindex();
                },
            )
        } else {
            let router = &routers[cfg - 1];
            storm_slice_cpu_qps(
                total,
                |i| {
                    router.execute(&reqs[i % reqs.len()]).expect("routed query");
                },
                || {
                    router.reindex();
                },
            )
        }
    };
    // Calibrate each configuration's slice to ~`target_secs` of CPU time
    // (whole pump blocks, bounded both ways).
    let n_cfg = routers.len() + 1;
    let mut slices = vec![0usize; n_cfg];
    for (cfg, slot) in slices.iter_mut().enumerate() {
        let approx = run_config(cfg, 4 * SHARD_REINDEX_EVERY);
        let blocks = (approx * target_secs / SHARD_REINDEX_EVERY as f64).ceil() as usize;
        *slot = (blocks.clamp(4, 256)) * SHARD_REINDEX_EVERY;
    }
    // Best-of interleaved slices, same rationale as the layout gate: host
    // noise only ever *inflates* CPU time, so each configuration's quietest
    // window is the fairest estimate of its true cost. The visit order
    // flips every rep so no configuration always samples the same phase of
    // a load swing.
    let mut best = vec![0.0f64; n_cfg];
    for rep in 0..reps {
        for k in 0..n_cfg {
            let cfg = if rep % 2 == 0 { k } else { n_cfg - 1 - k };
            best[cfg] = best[cfg].max(run_config(cfg, slices[cfg]));
        }
    }
    (
        best[0],
        shard_counts
            .iter()
            .copied()
            .zip(best[1..].iter().copied())
            .collect(),
    )
}

/// The `--quick` CI gate: a small fleet with no WAN sleep, both layouts
/// warmed identically, then single-threaded warm q/s measured in *CPU time*
/// (wall clock on a shared CI host is too noisy to gate on). Exits non-zero
/// when the arena layout regresses below 90% of the pointer layout's warm
/// q/s. Writes no JSON — it guards, it doesn't record.
fn run_quick() {
    let (sensors, side) = grid_sensors(4_096);
    let now = Timestamp(1_000);
    // Terminal level 4 shifts work into traversal + weighted partitioning —
    // the code the layouts actually differ on — so a hot-path regression
    // moves this ratio instead of hiding under shared cache-scan cost.
    let queries = viewport_queries_at(400, side, 1234, 4);
    let setup = |layout: HotPathLayout| {
        let tree = ColrTree::build(
            sensors.clone(),
            ColrConfig {
                layout,
                ..Default::default()
            },
            42,
        );
        tree.advance(now);
        let net = WanProbe {
            inner: SimNetwork::new(
                sensors.clone(),
                ConstantField {
                    base: 0.0,
                    step: 0.01,
                },
                7,
            ),
            rtt: Duration::ZERO,
        };
        warm_caches(&tree, &net, &queries, now, 5678);
        (tree, net)
    };
    let (ptr_tree, ptr_net) = setup(HotPathLayout::Pointer);
    let (arena_tree, arena_net) = setup(HotPathLayout::Arena);
    // Interleaved slices, best-of per layout: a shared CI host slows CPU
    // time itself (cache pollution, frequency drift), so each layout's best
    // slice — the one that caught a quiet window — is the fairest estimate.
    let arena_round = |reps: usize, slice: f64| {
        let mut pointer = 0.0f64;
        let mut arena = 0.0f64;
        for rep in 0..reps {
            if rep % 2 == 0 {
                pointer = pointer.max(cpu_qps(&ptr_tree, &ptr_net, &queries, now, 5678, slice));
                arena = arena.max(cpu_qps(&arena_tree, &arena_net, &queries, now, 5678, slice));
            } else {
                arena = arena.max(cpu_qps(&arena_tree, &arena_net, &queries, now, 5678, slice));
                pointer = pointer.max(cpu_qps(&ptr_tree, &ptr_net, &queries, now, 5678, slice));
            }
        }
        (pointer, arena)
    };
    let (mut pointer, mut arena) = arena_round(5, 0.25);
    if arena / pointer < 0.9 {
        // Borderline readings are usually 10ms-tick quantisation plus a
        // noisy neighbour; escalate to longer slices before failing (still
        // best-of — noise only ever inflates CPU time).
        eprintln!(
            "quick gate: borderline ratio {:.3}, re-measuring with longer slices",
            arena / pointer
        );
        let (p2, a2) = arena_round(7, 0.8);
        pointer = pointer.max(p2);
        arena = arena.max(a2);
    }
    let ratio = arena / pointer;
    eprintln!(
        "quick gate (best-of CPU-time q/s): pointer {pointer:.0}, arena {arena:.0}, \
         ratio {ratio:.3}"
    );
    if ratio < 0.9 {
        eprintln!("FAIL: arena warm q/s regressed >10% below the pointer layout");
        std::process::exit(1);
    }
    eprintln!("OK: arena layout within gate (>= 0.9x pointer warm q/s)");

    // Second gate: the flight recorder's warm-path overhead. Recording
    // every query (begin → execute → take → recycle, as a
    // `flight_record_every = 1` portal would) must keep at least 95% of the
    // unrecorded warm q/s — the recorder is pooled and allocation-free on
    // the warm path, so anything worse is a hot-path regression.
    let recorder_round = |reps: usize, slice: f64| {
        let mut plain = 0.0f64;
        let mut recorded = 0.0f64;
        for rep in 0..reps {
            if rep % 2 == 0 {
                plain = plain.max(cpu_qps(&ptr_tree, &ptr_net, &queries, now, 5678, slice));
                recorded = recorded.max(cpu_qps_recorded(
                    &ptr_tree, &ptr_net, &queries, now, 5678, slice,
                ));
            } else {
                recorded = recorded.max(cpu_qps_recorded(
                    &ptr_tree, &ptr_net, &queries, now, 5678, slice,
                ));
                plain = plain.max(cpu_qps(&ptr_tree, &ptr_net, &queries, now, 5678, slice));
            }
        }
        (plain, recorded)
    };
    let (mut plain, mut recorded) = recorder_round(5, 0.25);
    for slice in [0.8, 1.2, 1.6] {
        if recorded / plain >= 0.95 {
            break;
        }
        eprintln!(
            "recorder gate: borderline ratio {:.3}, re-measuring with {slice}s slices",
            recorded / plain
        );
        let (p2, r2) = recorder_round(7, slice);
        plain = plain.max(p2);
        recorded = recorded.max(r2);
    }
    let rec_ratio = recorded / plain;
    eprintln!(
        "recorder gate (best-of CPU-time q/s): off {plain:.0}, on {recorded:.0}, \
         ratio {rec_ratio:.3}"
    );
    if rec_ratio < 0.95 {
        eprintln!("FAIL: flight recorder costs >5% of warm q/s");
        std::process::exit(1);
    }
    eprintln!("OK: flight recorder within gate (>= 0.95x unrecorded warm q/s)");

    // Third gate: sharding must actually buy throughput under the storm
    // regime. A 4-shard router republishes a quarter of the population per
    // reindex pump, so its warm q/s under the pump loop must clear 1.5x the
    // single-shard router's on the same host. The fleet is sized so each
    // shard stays on the bulk loader's partitioned-kmeans path (> 4096
    // sensors per shard), where republish cost shrinks with population.
    let (storm_sensors, storm_side) = grid_sensors(20_000);
    let (_bare, rows) = sharded_storm_phase(&storm_sensors, storm_side, &[1, 4], 128, 0.2, 3);
    let one = rows[0].1;
    let four = rows[1].1;
    let shard_ratio = four / one;
    eprintln!(
        "sharded gate (best-of CPU-time q/s under reindex pump): 1 shard {one:.0}, \
         4 shards {four:.0}, ratio {shard_ratio:.3}"
    );
    if shard_ratio < 1.5 {
        eprintln!("FAIL: 4-shard warm q/s under the storm pump is below 1.5x single-shard");
        std::process::exit(1);
    }
    eprintln!("OK: 4-shard router within gate (>= 1.5x single-shard warm q/s)");

    // Fourth gate: the incremental LSM index must not tax the warm query
    // path. A single-level LSM forwards to the same tree the monolithic
    // service publishes (bit-identical answers, see the parity tests), so
    // its warm q/s through the service front door must hold at least 90% of
    // the monolithic service's — anything less is per-query overhead in the
    // LSM dispatch layer.
    let select_queries = viewport_select_queries(400, side, 1234);
    let service_for = |index: IndexStrategy| {
        let svc = PortalService::new(
            sensors.clone(),
            WanProbe {
                inner: SimNetwork::new(
                    sensors.clone(),
                    ConstantField {
                        base: 0.0,
                        step: 0.01,
                    },
                    7,
                ),
                rtt: Duration::ZERO,
            },
            PortalConfig {
                default_staleness: EXPIRY,
                mode: Mode::Colr,
                max_sensors_per_query: None,
                seed: 42,
                index,
                ..Default::default()
            },
        );
        svc.clock().advance_to(now);
        for q in &select_queries {
            svc.query(q).expect("warm service query");
        }
        svc
    };
    let mono_svc = service_for(IndexStrategy::Monolithic);
    let lsm_svc = service_for(IndexStrategy::Lsm(LsmConfig::default()));
    let svc_cpu_qps =
        |svc: &PortalService<WanProbe<SimNetwork<ConstantField>>>, slice: f64| -> f64 {
            let t0 = process_cpu_seconds().expect("process CPU clock");
            let mut n = 0usize;
            loop {
                svc.query(&select_queries[n % select_queries.len()])
                    .expect("timed service query");
                n += 1;
                if n.is_multiple_of(64)
                    && process_cpu_seconds().expect("process CPU clock") - t0 >= slice
                {
                    break;
                }
            }
            n as f64 / (process_cpu_seconds().expect("process CPU clock") - t0)
        };
    let lsm_round = |reps: usize, slice: f64| {
        let mut mono = 0.0f64;
        let mut lsm = 0.0f64;
        for rep in 0..reps {
            if rep % 2 == 0 {
                mono = mono.max(svc_cpu_qps(&mono_svc, slice));
                lsm = lsm.max(svc_cpu_qps(&lsm_svc, slice));
            } else {
                lsm = lsm.max(svc_cpu_qps(&lsm_svc, slice));
                mono = mono.max(svc_cpu_qps(&mono_svc, slice));
            }
        }
        (mono, lsm)
    };
    let (mut mono, mut lsm) = lsm_round(5, 0.25);
    // Best-of converges both sides to their quiet-host ceiling, but one
    // borderline round can still catch asymmetric load; keep escalating
    // until the ratio clears or the slices stop helping.
    for slice in [0.8, 1.2, 1.6] {
        if lsm / mono >= 0.9 {
            break;
        }
        eprintln!(
            "lsm gate: borderline ratio {:.3}, re-measuring with {slice}s slices",
            lsm / mono
        );
        let (m2, l2) = lsm_round(7, slice);
        mono = mono.max(m2);
        lsm = lsm.max(l2);
    }
    let lsm_ratio = lsm / mono;
    eprintln!(
        "lsm gate (best-of CPU-time q/s): monolithic {mono:.0}, lsm {lsm:.0}, \
         ratio {lsm_ratio:.3}"
    );
    if lsm_ratio < 0.9 {
        eprintln!("FAIL: LSM warm q/s regressed >10% below the monolithic index");
        std::process::exit(1);
    }
    eprintln!("OK: LSM index within gate (>= 0.9x monolithic warm q/s)");
}

fn main() {
    let args = parse_args();
    if args.quick {
        run_quick();
        return;
    }
    if !args.telemetry {
        colr_telemetry::global().set_enabled(false);
        colr_telemetry::tracer().set_enabled(false);
    }
    let (sensors, side) = grid_sensors(args.sensors);
    eprintln!("building tree over {} sensors...", sensors.len());
    let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 42);
    let service_sensors = sensors.clone();
    let net = WanProbe {
        inner: SimNetwork::new(
            sensors,
            ConstantField {
                base: 0.0,
                step: 0.01,
            },
            7,
        ),
        rtt: Duration::from_micros(args.rtt_us),
    };

    let now = Timestamp(1_000);
    tree.advance(now);

    // Calibrate what `sleep(rtt)` actually costs on this host: OS timer
    // granularity can stretch a 200µs request past 1ms, which multiplies
    // into every cold-row wave. Recording the measured value makes cold q/s
    // comparable across hosts (and across days on a shared one).
    let rtt_actual_us = {
        let reps = 32;
        let t = Instant::now();
        for _ in 0..reps {
            std::thread::sleep(Duration::from_micros(args.rtt_us));
        }
        t.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    eprintln!(
        "sleep({}us) measures as {:.0}us on this host",
        args.rtt_us, rtt_actual_us
    );

    let queries = viewport_queries(args.queries, side, 1234);
    let mut runs = Vec::new();
    for &t in &args.threads {
        // Untimed rehearsal so allocator and page-cache effects hit every
        // thread count equally.
        run(&tree, &net, &queries[..queries.len().min(64)], t, now, 999);
        let r = run(&tree, &net, &queries, t, now, 5678);
        eprintln!(
            "threads={:<2} q/s={:>10.0} probes/q={:>6.2} hit={:.3} waves/q={:.2} p50={:.3}ms p95={:.3}ms p99={:.3}ms",
            r.threads,
            r.queries_per_sec,
            r.probes_per_query,
            r.cache_hit_ratio,
            r.probe_waves_per_query,
            r.p50_latency_ms,
            r.p95_latency_ms,
            r.p99_latency_ms
        );
        runs.push(r);
    }

    // Warm phase: the cold runs all execute against the same frozen snapshot
    // (hit ratio 0 by construction), so apply one batch's write-backs and
    // measure once more at the widest thread count — the slot caches now
    // serve the viewports and the hit ratio is the interesting number.
    let max_threads = args.threads.iter().copied().max().unwrap_or(1);
    warm_caches(&tree, &net, &queries, now, 5678);
    let warm = run(&tree, &net, &queries, max_threads, now, 5678);
    eprintln!(
        "warm threads={:<2} q/s={:>10.0} probes/q={:>6.2} hit={:.3} p50={:.3}ms p95={:.3}ms p99={:.3}ms",
        warm.threads,
        warm.queries_per_sec,
        warm.probes_per_query,
        warm.cache_hit_ratio,
        warm.p50_latency_ms,
        warm.p95_latency_ms,
        warm.p99_latency_ms
    );

    // Flight-recorder overhead on the warm single-threaded hot path: the
    // same caches, CPU-time q/s with the recorder off vs armed for every
    // query (best-of interleaved slices, as in the quick gate).
    let mut rec_off = 0.0f64;
    let mut rec_on = 0.0f64;
    for rep in 0..5 {
        if rep % 2 == 0 {
            rec_off = rec_off.max(cpu_qps(&tree, &net, &queries, now, 5678, 0.25));
            rec_on = rec_on.max(cpu_qps_recorded(&tree, &net, &queries, now, 5678, 0.25));
        } else {
            rec_on = rec_on.max(cpu_qps_recorded(&tree, &net, &queries, now, 5678, 0.25));
            rec_off = rec_off.max(cpu_qps(&tree, &net, &queries, now, 5678, 0.25));
        }
    }
    let rec_ratio = rec_on / rec_off;
    eprintln!(
        "flight recorder warm cpu-time q/s: off {rec_off:.0}, on {rec_on:.0}, ratio {rec_ratio:.3}"
    );

    // Service phase: the identical warm viewport mix, but closed-loop
    // through one shared PortalService handle (`query` on `&self` from
    // every client) while a storm thread swaps index generations.
    eprintln!("building service generation 0...");
    let svc = PortalService::new(
        service_sensors.clone(),
        WanProbe {
            inner: SimNetwork::new(
                service_sensors,
                ConstantField {
                    base: 0.0,
                    step: 0.01,
                },
                7,
            ),
            rtt: Duration::from_micros(args.rtt_us),
        },
        PortalConfig {
            default_staleness: EXPIRY,
            mode: Mode::Colr,
            max_sensors_per_query: None,
            seed: 42,
            admission: AdmissionConfig {
                max_in_flight: 1024,
                queue_capacity: 1024,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    svc.clock().advance_to(now);
    let select_queries = viewport_select_queries(args.queries, side, 1234);
    // Untimed warm pass: every viewport probed once, write-backs landed, so
    // the timed window measures the warm service path like `warm_run` does.
    let warm_next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..max_threads {
            scope.spawn(|| loop {
                let i = warm_next.fetch_add(1, Ordering::Relaxed);
                if i >= select_queries.len() {
                    break;
                }
                svc.query(&select_queries[i]).expect("service warm query");
            });
        }
    });
    let service = run_service_concurrent(
        &svc,
        &select_queries,
        max_threads,
        Duration::from_millis(args.service_ms),
    );
    eprintln!(
        "service clients={:<2} q/s={:>10.0} p50={:.3}ms p95={:.3}ms p99={:.3}ms reindexes={} shed={}",
        service.clients,
        service.queries_per_sec,
        service.p50_latency_ms,
        service.p95_latency_ms,
        service.p99_latency_ms,
        service.reindexes,
        service.shed
    );

    // Sharded storm phase: the warm viewport mix scattered across a
    // ShardedPortal at 1/2/4/8 shards, with a round-robin shard reindex pump
    // every SHARD_REINDEX_EVERY queries, plus a bare-service baseline under
    // the identical loop. CPU-time q/s, best-of interleaved slices. The
    // phase runs its own larger fleet so every shard's population stays on
    // the bulk loader's partitioned-kmeans path (> 4096 sensors): below
    // that threshold the loader switches to direct Lloyd clustering, whose
    // cost is not proportionally smaller, and the per-shard republish no
    // longer shrinks with the shard count.
    eprintln!("sharded storm phase (shards 1/2/4/8 + bare baseline, 40k sensors)...");
    let (storm_sensors, storm_side) = grid_sensors(40_000);
    let shard_counts = [1usize, 2, 4, 8];
    let (bare_qps, sharded_rows) =
        sharded_storm_phase(&storm_sensors, storm_side, &shard_counts, 256, 0.4, 7);
    eprintln!("bare service   cpu q/s={bare_qps:>10.0} (full-population reindex pump)");
    for &(k, qps) in &sharded_rows {
        eprintln!(
            "shards={k:<2}       cpu q/s={qps:>10.0} ({:.2}x bare)",
            qps / bare_qps
        );
    }
    let single_shard_ratio = sharded_rows
        .iter()
        .find(|(k, _)| *k == 1)
        .map(|(_, qps)| qps / bare_qps)
        .unwrap_or(1.0);

    let single = runs
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.queries_per_sec);
    let best = runs
        .iter()
        .map(|r| r.queries_per_sec)
        .fold(0.0f64, f64::max);
    let speedup = single.map(|s| best / s).unwrap_or(1.0);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"concurrent_query_throughput\",\n");
    json.push_str(&format!("  \"sensors\": {},\n", args.sensors));
    json.push_str(&format!("  \"queries_per_run\": {},\n", args.queries));
    json.push_str(&format!("  \"probe_rtt_us\": {},\n", args.rtt_us));
    json.push_str(&format!("  \"probe_rtt_actual_us\": {rtt_actual_us:.0},\n"));
    json.push_str(&format!(
        "  \"telemetry\": \"{}\",\n",
        if args.telemetry { "on" } else { "off" }
    ));
    json.push_str(
        "  \"mode\": \"Colr\",\n  \"workload\": \"seeded viewports, R=64, simulated WAN RTT per probe batch\",\n",
    );
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        // Cold rows (hit ratio rounds to 0.0000) are dominated by the WAN
        // round-trips, so they carry the probe-wave latency breakdown: how
        // many waves each query paid, how many probes were retried, and the
        // modelled backoff those retries spent.
        let wave_breakdown = if r.cache_hit_ratio < 0.00005 {
            format!(
                " \"probe_waves_per_query\": {:.3}, \"retries_per_query\": {:.3}, \
                 \"retry_backoff_ms_per_query\": {:.3},",
                r.probe_waves_per_query, r.retries_per_query, r.retry_backoff_ms_per_query
            )
        } else {
            String::new()
        };
        json.push_str(&format!(
            "    {{\"threads\": {}, \"queries_per_sec\": {:.1}, \"probes_per_query\": {:.3}, \
             \"cache_hit_ratio\": {:.4},{} \"p50_latency_ms\": {:.4}, \"p95_latency_ms\": {:.4}, \
             \"p99_latency_ms\": {:.4}}}{}\n",
            r.threads,
            r.queries_per_sec,
            r.probes_per_query,
            r.cache_hit_ratio,
            wave_breakdown,
            r.p50_latency_ms,
            r.p95_latency_ms,
            r.p99_latency_ms,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"warm_run\": {{\"threads\": {}, \"queries_per_sec\": {:.1}, \"probes_per_query\": {:.3}, \
         \"cache_hit_ratio\": {:.4}, \"p50_latency_ms\": {:.4}, \"p95_latency_ms\": {:.4}, \
         \"p99_latency_ms\": {:.4}}},\n",
        warm.threads,
        warm.queries_per_sec,
        warm.probes_per_query,
        warm.cache_hit_ratio,
        warm.p50_latency_ms,
        warm.p95_latency_ms,
        warm.p99_latency_ms
    ));
    json.push_str(&format!(
        "  \"flight_recorder\": {{\"warm_cpu_qps_recorder_off\": {rec_off:.1}, \
         \"warm_cpu_qps_recorder_on\": {rec_on:.1}, \"throughput_ratio\": {rec_ratio:.4}}},\n"
    ));
    json.push_str(&format!(
        "  \"service_concurrent\": {{\"clients\": {}, \"ops\": {}, \"queries_per_sec\": {:.1}, \
         \"p50_latency_ms\": {:.4}, \"p95_latency_ms\": {:.4}, \"p99_latency_ms\": {:.4}, \
         \"reindexes_during_run\": {}, \"shed\": {}}},\n",
        service.clients,
        service.ops,
        service.queries_per_sec,
        service.p50_latency_ms,
        service.p95_latency_ms,
        service.p99_latency_ms,
        service.reindexes,
        service.shed
    ));
    json.push_str(&format!(
        "  \"sharded\": {{\"workload\": \"warm routed viewports, R=64, round-robin shard reindex \
         pump every {SHARD_REINDEX_EVERY} queries, CPU-time q/s\", \
         \"bare_service_cpu_qps\": {bare_qps:.1}, \
         \"single_shard_ratio\": {single_shard_ratio:.4}, \"runs\": [\n"
    ));
    for (i, &(k, qps)) in sharded_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {k}, \"cpu_queries_per_sec\": {qps:.1}, \"vs_bare\": {:.4}}}{}\n",
            qps / bare_qps,
            if i + 1 < sharded_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!("  \"speedup_vs_single_thread\": {speedup:.2}\n"));
    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write BENCH_throughput.json");
    eprintln!("wrote {} (speedup {:.2}x)", args.out, speedup);
}
