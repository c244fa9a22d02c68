//! Concurrency correctness of the shared-state COLR-Tree.
//!
//! (a) `ShardedPortal::execute_many` over a shuffled batch must yield, per query,
//!     the same `GroupView`s at any worker-thread count — the per-query RNG
//!     seeds are derived from (portal seed, submission index), and the batch
//!     runs frozen against one snapshot, so scheduling cannot leak into
//!     results.
//! (b) Sixteen threads hammering ONE tree with mixed Colr / HierCache
//!     queries must finish without panics, keep cache occupancy within the
//!     configured budget, and leave every structural invariant intact.

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{ColrConfig, ColrTree, Mode, Query, SensorMeta, TimeDelta, Timestamp};
use colr_repro::engine::{parse, PortalConfig, SelectQuery, ShardedPortal};
use colr_repro::geo::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EXPIRY_MS: u64 = 600_000;

fn grid_sensors(n: usize) -> (Vec<SensorMeta>, usize) {
    let side = (n as f64).sqrt().ceil() as usize;
    let sensors = (0..n)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                colr_repro::geo::Point::new((i % side) as f64, (i / side) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                1.0,
            )
        })
        .collect();
    (sensors, side)
}

/// A one-shard portal: its batches are its shard's frozen batches.
fn portal(sensors: Vec<SensorMeta>, seed: u64) -> ShardedPortal<AlwaysAvailable> {
    let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let config = PortalConfig {
        seed,
        ..Default::default()
    };
    ShardedPortal::new(sensors, probe, 1, config)
}

/// Seeded viewport batch, Fisher–Yates shuffled so submission order differs
/// from spatial order (the determinism must come from derived seeds, not
/// from any accidental ordering).
fn shuffled_batch(side: usize, n: usize, seed: u64) -> Vec<SelectQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch: Vec<SelectQuery> = (0..n)
        .map(|_| {
            let w = rng.random_range(3..=8);
            let x0 = rng.random_range(0..side.saturating_sub(w).max(1));
            let y0 = rng.random_range(0..side.saturating_sub(w).max(1));
            let sql = format!(
                "SELECT avg(value) FROM sensor WHERE location WITHIN \
                 RECT({}, {}, {}, {}) SAMPLESIZE 20",
                x0 as f64 - 0.5,
                y0 as f64 - 0.5,
                (x0 + w) as f64 + 0.5,
                (y0 + w) as f64 + 0.5,
            );
            parse(&sql).expect("viewport SQL parses")
        })
        .collect();
    for i in (1..batch.len()).rev() {
        let j = rng.random_range(0..i + 1);
        batch.swap(i, j);
    }
    batch
}

#[test]
fn parallel_execute_many_matches_sequential() {
    let (sensors, side) = grid_sensors(900);
    let batch = shuffled_batch(side, 24, 99);

    let seq = portal(sensors.clone(), 7);
    let par = portal(sensors, 7);
    let a = seq.execute_many(&batch, 1).expect("batch");
    let b = par.execute_many(&batch, 8).expect("batch");

    assert_eq!(a.results.len(), b.results.len());
    for (i, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
        assert_eq!(ra.value, rb.value, "portal value diverged at query {i}");
        assert_eq!(
            ra.groups.len(),
            rb.groups.len(),
            "group count diverged at query {i}"
        );
        for (ga, gb) in ra.groups.iter().zip(&rb.groups) {
            assert_eq!(ga.count, gb.count, "group size diverged at query {i}");
            assert_eq!(ga.value, gb.value, "group value diverged at query {i}");
            assert_eq!(
                ga.from_cache, gb.from_cache,
                "cache attribution diverged at query {i}"
            );
        }
        assert_eq!(
            format!("{:?}", ra.stats),
            format!("{:?}", rb.stats),
            "collection stats diverged at query {i}"
        );
    }
    assert_eq!(a.readings_applied, b.readings_applied);
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
}

/// Probe failures must not reintroduce scheduling dependence: `FailEveryKth`
/// fails the j-th probe of sensor `s` as a pure function of `(s, j)`, so a
/// batch of disjoint-region queries — where each sensor is owned by exactly
/// one query per round — yields identical results at any thread count, round
/// after round, even as the per-sensor ordinals advance.
#[test]
fn deterministic_probe_failures_are_thread_count_invariant() {
    use colr_repro::colr::probe::FailEveryKth;

    let (sensors, _) = grid_sensors(256); // 16 x 16
    let quadrants = [
        "RECT(-0.5, -0.5, 7.5, 7.5)",
        "RECT(7.5, -0.5, 15.5, 7.5)",
        "RECT(-0.5, 7.5, 7.5, 15.5)",
        "RECT(7.5, 7.5, 15.5, 15.5)",
    ];
    let batch: Vec<SelectQuery> = quadrants
        .iter()
        .map(|r| {
            parse(&format!(
                "SELECT count(*) FROM sensor WHERE location WITHIN {r} SAMPLESIZE 500"
            ))
            .expect("quadrant SQL parses")
        })
        .collect();

    let make_portal = |seed| {
        let config = PortalConfig {
            seed,
            mode: Mode::RTree,
            ..Default::default()
        };
        ShardedPortal::new(
            sensors.clone(),
            |_, _| FailEveryKth::new(EXPIRY_MS, 3),
            1,
            config,
        )
    };
    let seq = make_portal(7);
    let par = make_portal(7);
    for round in 0..3 {
        // Step past the default staleness so every round re-probes and the
        // per-sensor failure ordinals advance.
        seq.clock().advance(TimeDelta::from_mins(6));
        par.clock().advance(TimeDelta::from_mins(6));
        let a = seq.execute_many(&batch, 1).expect("batch");
        let b = par.execute_many(&batch, 8).expect("batch");
        assert!(a.stats.probes_failed > 0, "round {round}: no failures");
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "round {round}: stats diverged across thread counts"
        );
        for (i, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
            assert_eq!(ra.value, rb.value, "round {round} query {i}");
        }
    }
}

#[test]
fn hammer_sixteen_threads_respects_cache_budget() {
    const THREADS: usize = 16;
    const QUERIES_PER_THREAD: usize = 25;
    const BUDGET: usize = 200;

    let (sensors, side) = grid_sensors(1_024);
    let config = ColrConfig {
        cache_capacity: Some(BUDGET),
        ..Default::default()
    };
    let tree = ColrTree::build(sensors, config, 11);
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let now = Timestamp(5_000);
    tree.advance(now);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tree = &tree;
            let probe = &probe;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1_000 + t as u64);
                for i in 0..QUERIES_PER_THREAD {
                    let w = rng.random_range(2..=6);
                    let x0 = rng.random_range(0..side - w) as f64;
                    let y0 = rng.random_range(0..side - w) as f64;
                    let query = Query::range(
                        Rect::from_coords(
                            x0 - 0.5,
                            y0 - 0.5,
                            x0 + w as f64 + 0.5,
                            y0 + w as f64 + 0.5,
                        ),
                        TimeDelta::from_millis(EXPIRY_MS),
                    )
                    .with_terminal_level(2)
                    .with_sample_size(16.0);
                    let mode = if (t + i) % 2 == 0 {
                        Mode::Colr
                    } else {
                        Mode::HierCache
                    };
                    let out = tree.execute(&query, mode, probe, now, &mut rng);
                    assert!(
                        out.stats.sensors_probed as usize + tree.cached_readings() > 0,
                        "query produced no collection at all"
                    );
                }
            });
        }
    });

    assert!(
        tree.cached_readings() <= BUDGET,
        "cache occupancy {} exceeds budget {BUDGET}",
        tree.cached_readings()
    );
    tree.validate()
        .expect("structural invariants after hammering");
}
