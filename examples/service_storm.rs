//! Service-layer concurrency smoke: many client threads drive one shared
//! one-shard [`ShardedPortal`] handle through `&self` while the main thread
//! keeps republishing the index.
//!
//! Asserts the properties CI cares about end to end: no panics under
//! contention, zero reader downtime (every query answered), no torn
//! answers (every count names a population that existed), a monotone
//! generation counter from every thread's viewpoint, and cache carry-over
//! across each swap. A second phase injects a regional outage under an
//! SLO watchdog and asserts the fulfillment breach report carries flight
//! records. Prints `service_storm OK` on success (ci.sh greps for it).
//!
//! With `--shards N` the storm runs against N spatial shards instead: clients scatter-gather through the unified
//! [`QueryRequest`] surface while the main thread registers publishers near
//! a shard boundary and republishes every shard (rebalance-on-merge),
//! then closes one shard and asserts the outage degrades the merged answer
//! instead of failing it. Prints `service_storm sharded OK` on success.
//!
//! With `--churn` the storm runs the sensor-churn soak against a small-L0
//! index ([`IndexStrategy::Lsm`] carries the shape): a writer thread
//! sustains thousands of register/retire ops per second while clients
//! query and a merge thread compacts L0 — asserting the churn rate clears
//! 2,000 ops/sec, no query stalls or torn answers, and L0 occupancy stays
//! bounded by the merge cadence. Prints `service_storm churn OK`.
//!
//! ```sh
//! cargo run --example service_storm
//! cargo run --example service_storm -- --shards 4
//! cargo run --example service_storm -- --churn
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{
    LsmConfig, Mode, ProbeService, Reading, SensorId, SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::engine::{IndexStrategy, PortalConfig, QueryRequest, ShardedPortal};
use colr_repro::geo::Point;
use colr_repro::telemetry::{SloConfig, SloWatchdog};

const SIDE: usize = 32;
const BASE: usize = SIDE * SIDE; // 1024 sensors
const EXPIRY_MS: u64 = 300_000;
const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 200;
const SWAPS: usize = 4;
const NEW_PER_SWAP: usize = 8;

fn always() -> AlwaysAvailable {
    AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut shards: Option<usize> = None;
    let mut churn = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => {
                shards = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--shards N"),
                )
            }
            "--churn" => churn = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if churn {
        churn_phase();
        return;
    }
    if let Some(k) = shards {
        sharded_phase(k);
        return;
    }
    let sensors: Vec<SensorMeta> = (0..BASE)
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
        mode: Mode::HierCache, // exact counts: any torn read is visible
        ..Default::default()
    };
    let svc = ShardedPortal::new(sensors, |_, _| always(), 1, config);
    svc.clock().advance(TimeDelta::from_secs(1));
    let req = QueryRequest::from_sql(&format!(
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,{},{})",
        SIDE as f64 - 0.5,
        SIDE as f64 - 0.5
    ))
    .expect("storm SQL parses");
    // New publishers land inside the viewport and each is visible to the
    // very next query, so every population from the base to the final one
    // exists at some instant; a count outside that range is a torn read.
    let valid = BASE as f64..=(BASE + SWAPS * NEW_PER_SWAP) as f64;

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            let handle = svc.clone();
            let req = &req;
            clients.push(scope.spawn(move || {
                let mut last_answer = 0.0f64;
                let mut last_gen = 0u64;
                for _ in 0..QUERIES_PER_CLIENT {
                    let g = handle.shard(0).generation();
                    assert!(g >= last_gen, "generation regressed {last_gen} -> {g}");
                    last_gen = g;
                    let res = handle.execute(req).expect("zero reader downtime");
                    let a = res.result.value.expect("count defined");
                    assert!(a >= last_answer, "answer regressed {last_answer} -> {a}");
                    last_answer = a;
                }
                (last_answer, last_gen)
            }));
        }

        // The forced-reindex storm, overlapping the clients.
        for swap in 0..SWAPS {
            for i in 0..NEW_PER_SWAP {
                svc.register_sensor(
                    Point::new(5.1 + i as f64 * 0.05, 5.1 + swap as f64 * 0.05),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                    0,
                );
            }
            let before = svc.shard(0).snapshot().tree().cached_readings();
            svc.reindex();
            let after = svc.shard(0).snapshot().tree().cached_readings();
            assert!(
                after >= before,
                "carry-over lost cached readings: {before} -> {after}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        for client in clients {
            let (answer, generation) = client.join().expect("client thread panicked");
            assert!(
                valid.contains(&answer),
                "torn answer {answer}, valid {valid:?}"
            );
            assert!(generation <= SWAPS as u64);
        }
    });

    assert_eq!(
        svc.shard(0).generation(),
        SWAPS as u64,
        "one generation per swap"
    );
    assert_eq!(svc.shard(0).in_flight(), 0, "admission slots all released");
    // Asked cold: a warm count leaves out an arrival no query reached before
    // its merge put it beside cached neighbours (the coverage gate).
    svc.clock().advance(TimeDelta::from_millis(EXPIRY_MS));
    let final_count = svc.execute(&req).unwrap().result.value.unwrap();
    assert_eq!(final_count, (BASE + SWAPS * NEW_PER_SWAP) as f64);
    println!(
        "service_storm clients={CLIENTS} queries={} swaps={SWAPS} final_population={final_count}",
        CLIENTS * QUERIES_PER_CLIENT,
    );

    outage_phase();
    println!("service_storm OK");
}

/// The sharded storm (`--shards N`): clients scatter-gather through one
/// [`ShardedPortal`] via the unified [`QueryRequest`] surface while the main
/// thread registers publishers near the inter-shard boundary and
/// republishes every shard — the rebalance-on-reindex path — then injects a
/// regional outage by closing one shard and asserts the merged answer
/// degrades instead of failing.
fn sharded_phase(shards: usize) {
    const SHARD_CLIENTS: usize = 4;
    const SHARD_QUERIES: usize = 100;

    let sensors: Vec<SensorMeta> = (0..BASE)
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
        mode: Mode::Colr,
        ..Default::default()
    };
    let router = ShardedPortal::new(sensors, |_, _| always(), shards, config);
    router.clock().advance(TimeDelta::from_secs(1));
    assert_eq!(router.shard_count(), shards);

    let extent = SIDE as f64 - 0.5;
    let spanning_sql = format!(
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,{extent},{extent}) \
         SAMPLESIZE 64"
    );
    let half = SIDE as f64 / 2.0 - 0.5;
    let mut sqls = vec![spanning_sql.clone()];
    for (x0, y0, x1, y1) in [
        (-0.5, -0.5, half, half),
        (half, -0.5, extent, half),
        (-0.5, half, half, extent),
        (half, half, extent, extent),
    ] {
        sqls.push(format!(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT({x0},{y0},{x1},{y1}) \
             SAMPLESIZE 16"
        ));
    }
    let reqs: Vec<QueryRequest> = sqls
        .iter()
        .map(|sql| QueryRequest::from_sql(sql).expect("storm SQL parses"))
        .collect();

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..SHARD_CLIENTS {
            let handle = router.clone();
            let reqs = &reqs;
            clients.push(scope.spawn(move || {
                for i in 0..SHARD_QUERIES {
                    let resp = handle
                        .execute(&reqs[(c + i) % reqs.len()])
                        .expect("zero reader downtime through the router");
                    assert!(!resp.shards.is_empty(), "no fan-out outcome recorded");
                    assert!(
                        resp.shards.iter().all(|o| o.error.is_none()),
                        "healthy fleet reported a shard error"
                    );
                }
            }));
        }

        // Registrations near the boundary between the first and last shard's
        // territories, republishing every shard each swap — exactly the path
        // rebalance-on-merge arbitrates.
        let map = router.shard_map();
        let (a, b) = (map[0].centroid, map[map.len() - 1].centroid);
        let mid = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
        for swap in 0..SWAPS {
            for i in 0..NEW_PER_SWAP {
                router.register_sensor(
                    Point::new(mid.x + i as f64 * 0.05, mid.y + swap as f64 * 0.05),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                    0,
                );
            }
            router.reindex_all();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        for client in clients {
            client.join().expect("sharded client panicked");
        }
    });

    let population: usize = router.shard_map().iter().map(|s| s.sensors).sum();
    assert_eq!(
        population,
        BASE + SWAPS * NEW_PER_SWAP,
        "every registration landed in exactly one shard"
    );

    // Regional outage: one dead shard degrades the merged answer (and is
    // named in the fan-out outcomes) instead of failing the query.
    if shards > 1 {
        let dead = shards - 1;
        router.shard(dead).close();
        let resp = router
            .execute(&QueryRequest::from_sql(&spanning_sql).expect("spanning SQL"))
            .expect("a regional outage must degrade the answer, not fail it");
        assert!(
            resp.result.degradation.worst_fulfillment() < 1.0,
            "dead shard's unmet share must breach merged fulfillment"
        );
        assert!(
            resp.shards
                .iter()
                .any(|o| o.shard == dead && o.error.is_some()),
            "dead shard must be named in the fan-out outcomes"
        );
    }

    println!(
        "service_storm sharded OK shards={shards} clients={SHARD_CLIENTS} \
         queries={} population={population}",
        SHARD_CLIENTS * SHARD_QUERIES,
    );
}

/// The churn soak (`--churn`): sensor churn as a first-class workload
/// against the incremental LSM index.
///
/// A writer thread sustains register/retire churn (throttled to a steady
/// tens-of-thousands ops/sec so the merge thread's cadence, not raw lock
/// throughput, is what the soak exercises), client threads query the whole
/// viewport concurrently, and a merge thread compacts L0 whenever it
/// reaches its occupancy bound. Churned sensors live outside the viewport,
/// so every query must answer the exact base population — any torn or
/// stale answer is visible. Asserts:
///
/// * sustained churn ≥ 2,000 register/retire ops/sec under query load;
/// * no query-path stall: every query answered, worst wall latency under
///   [`CHURN_STALL_MS`] even while merges republish underneath;
/// * bounded L0: occupancy never drifts past cap + one merge's backlog.
fn churn_phase() {
    const CHURN_CLIENTS: usize = 4;
    const L0_CAP: usize = 256;
    /// Live churn cohort: the writer retires the oldest churned sensor
    /// once this many are in flight, so register/retire stay balanced.
    const COHORT: usize = 512;
    const WINDOW_MS: u64 = 600;
    const MIN_OPS_PER_SEC: f64 = 2_000.0;
    /// Worst acceptable single-query wall latency. Generous — the point is
    /// catching a query path that blocks behind a merge, not benchmarking.
    const CHURN_STALL_MS: u64 = 250;

    let sensors: Vec<SensorMeta> = (0..BASE)
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
        mode: Mode::Colr,
        // Uncapped: the count query contacts every viewport sensor, so the
        // answer is exact and any torn read is visible.
        max_sensors_per_query: None,
        index: IndexStrategy::Lsm(LsmConfig {
            l0_capacity: L0_CAP,
            level_ratio: 4,
        }),
        ..Default::default()
    };
    let svc = ShardedPortal::new(sensors, |_, _| always(), 1, config);
    svc.clock().advance(TimeDelta::from_secs(1));
    let req = QueryRequest::from_sql(&format!(
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,{},{})",
        SIDE as f64 - 0.5,
        SIDE as f64 - 0.5
    ))
    .expect("storm SQL parses");

    let stop = AtomicBool::new(false);
    let churn_ops = AtomicU64::new(0);
    let queries_answered = AtomicU64::new(0);
    let worst_latency_ns = AtomicU64::new(0);
    let max_l0 = AtomicUsize::new(0);
    let merges = AtomicU64::new(0);
    let wall = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CHURN_CLIENTS {
            let handle = svc.clone();
            let req = &req;
            let stop = &stop;
            let queries_answered = &queries_answered;
            let worst_latency_ns = &worst_latency_ns;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let t0 = std::time::Instant::now();
                    let res = handle.execute(req).expect("no query-path downtime").result;
                    let dt = t0.elapsed().as_nanos() as u64;
                    worst_latency_ns.fetch_max(dt, Ordering::Relaxed);
                    // Churned sensors live outside the viewport: the count
                    // must name the base population, every time.
                    assert_eq!(res.value, Some(BASE as f64), "torn answer under churn");
                    queries_answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The churn writer: register into L0, retire the oldest once the
        // cohort is full. Throttled in small batches so the merge thread
        // (not the writer's lock throughput) sets the pace.
        {
            let handle = svc.clone();
            let stop = &stop;
            let churn_ops = &churn_ops;
            scope.spawn(move || {
                let mut cohort: VecDeque<usize> = VecDeque::with_capacity(COHORT + 1);
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // 64 ops per (coarse) sleep tick: ~5-10k ops/sec on a
                    // shared host — comfortably past the 2k floor while the
                    // merge pump still sets the pace.
                    for _ in 0..64 {
                        let ticket = handle.register_sensor(
                            Point::new(
                                -40.0 - (k % 64) as f64 * 0.2,
                                -40.0 - ((k / 64) % 64) as f64 * 0.2,
                            ),
                            TimeDelta::from_millis(EXPIRY_MS),
                            1.0,
                            0,
                        );
                        k += 1;
                        cohort.push_back(ticket);
                        let mut ops = 1;
                        if cohort.len() > COHORT {
                            let old = cohort.pop_front().expect("cohort non-empty");
                            assert!(handle.retire_sensor(old), "cohort sensor was live");
                            ops += 1;
                        }
                        churn_ops.fetch_add(ops, Ordering::Relaxed);
                    }
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            });
        }
        // The merge pump: compact L0 whenever it hits its bound, watching
        // the high-water mark.
        {
            let handle = svc.clone();
            let stop = &stop;
            let max_l0 = &max_l0;
            let merges = &merges;
            scope.spawn(move || {
                let shard = handle.shard(0);
                while !stop.load(Ordering::Relaxed) {
                    let stats = shard.index_stats().expect("always Some");
                    max_l0.fetch_max(stats.l0_occupancy, Ordering::Relaxed);
                    if shard.wants_reindex(usize::MAX) {
                        handle.reindex();
                        merges.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(WINDOW_MS));
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = wall.elapsed().as_secs_f64();

    let ops = churn_ops.load(Ordering::Relaxed);
    let ops_per_sec = ops as f64 / elapsed;
    let answered = queries_answered.load(Ordering::Relaxed);
    let worst_ms = worst_latency_ns.load(Ordering::Relaxed) as f64 / 1e6;
    let high_water = max_l0.load(Ordering::Relaxed);
    let merge_count = merges.load(Ordering::Relaxed);
    assert!(
        ops_per_sec >= MIN_OPS_PER_SEC,
        "churn too slow: {ops_per_sec:.0} ops/sec < {MIN_OPS_PER_SEC} under query load"
    );
    assert!(answered > 0, "no queries answered during the soak");
    assert!(
        worst_ms < CHURN_STALL_MS as f64,
        "query-path stall: worst latency {worst_ms:.1}ms during churn"
    );
    // Bounded L0: the cap plus one merge's worth of writer backlog. The
    // writer adds at most ~16k registrations/sec, so a merge pause would
    // have to exceed ~100ms to breach this — that *is* the stall we soak
    // for.
    let l0_bound = L0_CAP + 2 * COHORT;
    assert!(
        high_water <= l0_bound,
        "L0 unbounded under churn: high water {high_water} > {l0_bound}"
    );
    assert!(merge_count > 0, "the merge pump never ran");

    // Drain: merge until quiescent, then the answer must still be exact and
    // the retired cohort must be physically gone from the directory.
    while svc.shard(0).wants_reindex(usize::MAX) {
        svc.reindex();
    }
    svc.reindex();
    let final_count = svc.execute(&req).unwrap().result.value.unwrap();
    assert_eq!(final_count, BASE as f64, "population drifted under churn");
    let stats = svc.shard(0).index_stats().expect("always Some");
    assert!(
        stats.live_sensors <= BASE + COHORT + 1,
        "retired churn sensors still counted live: {}",
        stats.live_sensors
    );
    println!(
        "service_storm churn ops={ops} ops_per_sec={ops_per_sec:.0} queries={answered} \
         worst_query_ms={worst_ms:.2} merges={merge_count} max_l0={high_water} \
         levels={} live={}",
        stats.levels, stats.live_sensors,
    );
    println!("service_storm churn OK");
}

/// Sensors in the eastern half of the grid go dark; every query keeps
/// getting answered (degraded), and the SLO watchdog must notice.
struct RegionalOutage {
    locations: Vec<Point>,
    cutoff_x: f64,
}

impl ProbeService for RegionalOutage {
    fn probe_batch(&self, ids: &[SensorId], now: Timestamp) -> Vec<Option<Reading>> {
        ids.iter()
            .map(|&id| {
                let loc = self.locations[id.0 as usize];
                if loc.x >= self.cutoff_x {
                    return None;
                }
                Some(Reading {
                    sensor: id,
                    value: id.0 as f64,
                    timestamp: now,
                    expires_at: now + TimeDelta::from_millis(EXPIRY_MS),
                })
            })
            .collect()
    }
}

/// Phase two: a fresh portal under a half-dark fleet, flight-recording
/// every query, with a fulfillment watchdog attached. The breach report
/// must arrive and must embed flight records for the offending queries.
fn outage_phase() {
    let sensors: Vec<SensorMeta> = (0..BASE)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
        })
        .collect();
    let outage = |_: usize, sensors: &[SensorMeta]| RegionalOutage {
        locations: sensors.iter().map(|m| m.location).collect(),
        cutoff_x: SIDE as f64 / 2.0,
    };
    let config = PortalConfig {
        mode: Mode::Colr,
        flight_record_every: 1,
        ..Default::default()
    };
    let svc = ShardedPortal::new(sensors, outage, 1, config);
    svc.clock().advance(TimeDelta::from_secs(1));
    let watchdog = Arc::new(SloWatchdog::new(SloConfig {
        window: 32,
        min_samples: 8,
        p99_latency_us: None,
        min_fulfillment: Some(0.9),
        keep_flight_records: 4,
        cooldown: 16,
    }));
    svc.shard(0).attach_watchdog(watchdog.clone());
    let sql = format!(
        "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,{},{}) SAMPLESIZE 200",
        SIDE as f64 - 0.5,
        SIDE as f64 - 0.5
    );
    let req = QueryRequest::from_sql(&sql).expect("storm SQL parses");
    for _ in 0..16 {
        svc.execute(&req).expect("degraded, never refused");
    }
    let breaches = watchdog.breaches();
    assert!(
        !breaches.is_empty(),
        "half-dark fleet must breach fulfillment >= 0.9"
    );
    let report = &breaches[0];
    assert!(report.reason.contains("fulfillment"), "{}", report.reason);
    assert!(
        report.flight_records > 0,
        "breach report carries no flight records"
    );
    println!(
        "service_storm outage_phase breaches={} first_reason={:?} flight_records={}",
        breaches.len(),
        report.reason,
        report.flight_records,
    );
}
