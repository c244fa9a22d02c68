//! End-to-end coverage of the online index lifecycle behind a one-shard
//! [`ShardedPortal`]:
//!
//! (a) **Swap parity under fire.** Eight-plus client threads hammer one
//!     portal handle while the main thread publishes new index generations
//!     mid-storm. Every answer must be the count of a population that
//!     existed — never a torn mix — every query must succeed (zero reader
//!     downtime), each thread's answers must never step back, and the
//!     generation counter must be monotone from every thread's viewpoint.
//! (b) **Carry-over expiry alignment.** Slot caches align expiry to global
//!     absolute slots, so a reading carried across a merge must expire at
//!     exactly the slot boundary it would have hit without it. A service
//!     whose warmed level is merged away and an untouched control are stepped
//!     through the boundary in lockstep and must probe identically at every
//!     instant.
//! (c) **Per-ordinal determinism.** Replaying the same query sequence on a
//!     freshly built identical service reproduces the same answers,
//!     because each query's RNG is derived from `(seed, ordinal)`.
//! (d) **A multi-wave fill is never seen half-written.** The torn count the
//!     storm of (a) used to meet by luck (ROADMAP 1(i)), reproduced on
//!     purpose: a writer parked between the two write-backs of one cold
//!     request, a reader released into exactly that gap.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::stats::PROBE_PARALLELISM;
use colr_repro::colr::{Mode, ProbeService, SensorMeta, TimeDelta};
use colr_repro::engine::{
    AdmissionConfig, PortalConfig, PortalError, PortalResult, QueryRequest, ShardedPortal,
};
use colr_repro::geo::Point;

const EXPIRY_MS: u64 = 300_000;
const SIDE: usize = 16;
const BASE: usize = SIDE * SIDE; // 256

/// Lowers `sql` through the one SQL path and executes it.
fn run<P: ProbeService>(svc: &ShardedPortal<P>, sql: &str) -> Result<PortalResult, PortalError> {
    Ok(svc.execute(&QueryRequest::from_sql(sql)?)?.result)
}

fn grid_sensors() -> Vec<SensorMeta> {
    (0..BASE)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
        })
        .collect()
}

fn service(mode: Mode) -> ShardedPortal<AlwaysAvailable> {
    service_probing(
        mode,
        AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        },
    )
}

fn service_probing<P: ProbeService>(mode: Mode, probe: P) -> ShardedPortal<P> {
    let config = PortalConfig {
        mode,
        // Generous slots so the storm tests exercise swapping, not
        // shedding (admission behaviour has its own tests).
        admission: AdmissionConfig {
            max_in_flight: 1024,
            queue_capacity: 1024,
        },
        ..Default::default()
    };
    let mut probe = Some(probe);
    let probe = |_: usize, _: &[SensorMeta]| probe.take().expect("one shard, one backend");
    ShardedPortal::new(grid_sensors(), probe, 1, config)
}

/// Arrivals enough that a merge absorbs — and so rewrites — the 256-sensor
/// base level: a level is absorbed while it is smaller than the default
/// `level_ratio` (4) times the sensors already being merged.
const ABSORBING: usize = BASE / 4 + 1;

const FULL_GRID: &str =
    "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,15.5,15.5)";

#[test]
fn concurrent_queries_straddle_swaps_without_tearing() {
    const CLIENTS: usize = 8;
    const SWAPS: usize = 3;
    const NEW_PER_SWAP: usize = 4;

    let svc = service(Mode::HierCache);
    svc.clock().advance(TimeDelta::from_secs(1));
    let stop = AtomicBool::new(false);

    // Valid answers: 256 before any swap, one more for each arrival (new
    // sensors are registered *inside* the queried rect and each is visible to
    // the very next query, so every population from 256 up to the final one
    // exists at some instant — any value outside would be a torn read).
    let valid = BASE as f64..=(BASE + SWAPS * NEW_PER_SWAP) as f64;

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            let handle = svc.clone();
            let stop = &stop;
            clients.push(scope.spawn(move || {
                let mut answers = Vec::new();
                let mut generations = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    generations.push(handle.shard(0).generation());
                    let res = run(&handle, FULL_GRID).expect("zero reader downtime");
                    answers.push(res.value.expect("count is always defined"));
                }
                (answers, generations)
            }));
        }

        // The reindex storm: register publishers inside the viewport and
        // swap generations while the clients run.
        for swap in 0..SWAPS {
            std::thread::sleep(std::time::Duration::from_millis(30));
            for i in 0..NEW_PER_SWAP {
                svc.register_sensor(
                    Point::new(3.25 + i as f64 * 0.1, 3.25 + swap as f64 * 0.1),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                    0,
                );
            }
            svc.reindex();
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);

        for client in clients {
            let (answers, generations) = client.join().expect("client thread panicked");
            assert!(!answers.is_empty(), "client observed no answers");
            // Never torn: every answer names a population that existed.
            for a in &answers {
                assert!(valid.contains(a), "torn answer {a}, valid: {valid:?}");
            }
            // Per-thread monotone: a later query never sees an older
            // population's answer (snapshots only move forward).
            let mut last = answers[0];
            for &a in &answers {
                assert!(a >= last, "answer regressed from {last} to {a}");
                last = a;
            }
            // Generation counter is monotone from every thread.
            let mut g_last = generations[0];
            for &g in &generations {
                assert!(g >= g_last, "generation regressed from {g_last} to {g}");
                g_last = g;
            }
        }
    });

    assert_eq!(svc.shard(0).generation(), SWAPS as u64);
    assert_eq!(svc.shard(0).in_flight(), 0);
    // The final population answers through a fresh query too — asked cold,
    // because a warm count leaves out an arrival that no query reached
    // before its merge put it beside cached neighbours (the coverage gate;
    // ROADMAP 5e).
    svc.clock().advance(TimeDelta::from_millis(EXPIRY_MS));
    let final_count = run(&svc, FULL_GRID).unwrap().value.unwrap();
    assert_eq!(final_count, (BASE + SWAPS * NEW_PER_SWAP) as f64);
}

/// The name of the thread [`ParkingProbe`] parks.
const WRITER: &str = "parked-writer";

/// [`AlwaysAvailable`], except that the second batch the thread named
/// [`WRITER`] asks for waits until the test lets it go. `ColrTree::complete`
/// draws outcomes lazily, so a request's second `probe_batch` comes after
/// its first wave's readings were written back and before any of its
/// second's: the writer is parked between its two `apply_readings`, holding
/// no lock.
struct ParkingProbe {
    inner: AlwaysAvailable,
    writer_batches: AtomicUsize,
    parked: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl ProbeService for ParkingProbe {
    fn probe_batch(
        &self,
        ids: &[colr_repro::colr::SensorId],
        now: colr_repro::colr::Timestamp,
    ) -> Vec<Option<colr_repro::colr::Reading>> {
        if std::thread::current().name() == Some(WRITER)
            && self.writer_batches.fetch_add(1, Ordering::SeqCst) == 1
        {
            // A send or receive that fails is the test thread gone (it
            // panicked): carry on, so the scope joins and the panic shows.
            let _ = self.parked.lock().unwrap().send(());
            let _ = self.release.lock().unwrap().recv();
        }
        self.inner.probe_batch(ids, now)
    }
}

#[test]
fn a_reader_between_two_waves_of_one_fill_sees_the_whole_population() {
    let (parked_tx, parked) = channel();
    let (release, release_rx) = channel();
    let svc = service_probing(
        Mode::HierCache,
        ParkingProbe {
            inner: AlwaysAvailable {
                expiry_ms: EXPIRY_MS,
            },
            writer_batches: AtomicUsize::new(0),
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
        },
    );
    svc.clock().advance(TimeDelta::from_secs(1));
    let wave = PROBE_PARALLELISM as usize;
    assert_eq!(BASE, 2 * wave, "the cold request is exactly two waves");

    let (between, after) = std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name(WRITER.into())
            .spawn_scoped(scope, || run(&svc, FULL_GRID).unwrap())
            .unwrap();
        parked
            .recv_timeout(Duration::from_secs(60))
            .expect("the writer asks for a second wave");
        // Exactly between the writer's two write-backs, and no lock of the
        // tree is held there: this takes the maintenance mutex, and the
        // reader below writes back what it probes.
        assert_eq!(svc.shard(0).snapshot().tree().cached_readings(), wave);
        let between = run(&svc, FULL_GRID).unwrap();
        release.send(()).unwrap();
        (between, writer.join().expect("writer thread panicked"))
    });

    // Not 255: the leaf the wave boundary cuts holds eight of its nine
    // readings there, enough to pass the coverage gate as if it were whole.
    assert_eq!(
        between.value,
        Some(BASE as f64),
        "torn answer between waves"
    );
    assert_eq!(after.value, Some(BASE as f64));
    assert_eq!(after.stats.sensors_probed, BASE as u64);
    // Once the fill is through, the same nodes serve from cache again.
    let warm = run(&svc, FULL_GRID).unwrap();
    assert_eq!(warm.value, Some(BASE as f64));
    assert_eq!(warm.stats.sensors_probed, 0);
    assert_eq!(svc.shard(0).in_flight(), 0);
}

#[test]
fn carried_cache_expires_at_the_same_aligned_boundary() {
    let reindexed = service(Mode::HierCache);
    let control = service(Mode::HierCache);
    let warm_rect = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(-0.5,-0.5,7.5,7.5)";

    // Warm both caches at t = 1 s with the same viewport.
    for svc in [&reindexed, &control] {
        svc.clock().advance(TimeDelta::from_secs(1));
        let cold = run(svc, warm_rect).unwrap();
        assert_eq!(cold.stats.sensors_probed, 64);
    }
    let cached = control.shard(0).snapshot().tree().cached_readings();
    assert!(cached > 0);

    // Mid-lifetime, merge the warmed level of one of them into a new one
    // (the arrivals sit outside the viewport); the control is untouched.
    // The carried entries keep their original fetch instants.
    reindexed.clock().advance(TimeDelta::from_secs(149));
    control.clock().advance(TimeDelta::from_secs(149));
    for i in 0..ABSORBING {
        reindexed.register_sensor(
            Point::new(100.0 + i as f64, 100.0),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
            0,
        );
    }
    assert_eq!(reindexed.reindex(), BASE + ABSORBING);
    assert_eq!(
        reindexed.shard(0).snapshot().tree().sensors().len(),
        BASE + ABSORBING
    );
    assert_eq!(reindexed.shard(0).generation(), 1);
    assert_eq!(
        reindexed.shard(0).snapshot().tree().cached_readings(),
        cached
    );

    // Step both services through the expiry boundary (readings fetched at
    // t=1 s with a 300 s expiry die just after t=301 s) and demand
    // identical probe behaviour at every instant: the carried entries must
    // expire exactly when the control's do — same aligned slot boundary —
    // not sooner (carry-over reset freshness) or later (leaked lifetime).
    let mut transitions = Vec::new();
    for step_secs in [100, 50, 25, 20, 10, 3, 1, 1, 1] {
        let step = TimeDelta::from_secs(step_secs);
        reindexed.clock().advance(step);
        control.clock().advance(step);
        assert_eq!(reindexed.now(), control.now());
        let a = run(&reindexed, warm_rect).unwrap();
        let b = run(&control, warm_rect).unwrap();
        assert_eq!(
            a.stats.sensors_probed,
            b.stats.sensors_probed,
            "probe divergence at {}",
            control.now()
        );
        assert_eq!(a.value, b.value);
        transitions.push(a.stats.sensors_probed);
    }
    // The boundary was actually crossed inside the window: warm before,
    // re-probed after (otherwise this test would vacuously pass).
    assert!(
        transitions.contains(&0) && transitions.iter().any(|&p| p > 0),
        "expiry boundary not exercised: {transitions:?}"
    );
}

#[test]
fn replayed_ordinals_reproduce_answers_exactly() {
    let run = || -> Vec<Option<f64>> {
        let svc = service(Mode::Colr);
        svc.clock().advance(TimeDelta::from_secs(1));
        let mut answers = Vec::new();
        for i in 0..10 {
            let x0 = (i % 3) as f64 * 4.0 - 0.5;
            let sql = format!(
                "SELECT count(*) FROM sensor WHERE location WITHIN \
                 RECT({x0}, -0.5, {}, 15.5) SAMPLESIZE 25",
                x0 + 4.0
            );
            answers.push(run(&svc, &sql).unwrap().value);
        }
        answers
    };
    assert_eq!(run(), run());
}

#[test]
fn snapshot_held_across_swap_stays_queryable() {
    // A client that cloned the generation Arc before a swap keeps a fully
    // working index — the service never tears a snapshot out from under a
    // reader, it only stops handing it out.
    let svc = service(Mode::HierCache);
    svc.clock().advance(TimeDelta::from_secs(1));
    let old = svc.shard(0).snapshot();
    for i in 0..ABSORBING {
        svc.register_sensor(
            Point::new(3.3 + i as f64 * 0.01, 3.3),
            TimeDelta::from_millis(EXPIRY_MS),
            1.0,
            0,
        );
    }
    svc.reindex();

    assert_eq!(old.ordinal(), 0);
    assert_eq!(old.tree().sensors().len(), BASE);
    assert_eq!(
        svc.shard(0).snapshot().tree().sensors().len(),
        BASE + ABSORBING
    );
    // The retired generation still executes queries (through the front door
    // the answer comes from the new one).
    assert_eq!(
        run(&svc, FULL_GRID).unwrap().value,
        Some((BASE + ABSORBING) as f64)
    );
}
