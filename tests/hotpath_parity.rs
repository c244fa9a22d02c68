//! Bit-identical parity between the pointer-tree and arena sampling paths.
//!
//! The arena layout (`HotPathLayout::Arena`) is a pure performance
//! optimisation: Algorithm 1 must consume the *same RNG draws with the same
//! arguments in the same order* as the pointer path, so that switching
//! layouts never changes a sample, a group, or a statistic. These tests
//! enforce the gate the optimisation shipped under:
//!
//! (a) Across multiple build seeds and worker-thread counts, a frozen batch
//!     over a 1k-sensor fleet answers identically (values, groups, stats —
//!     compared via exhaustive `Debug` strings) on both layouts, cold *and*
//!     warm (the second pass runs against caches the first pass filled).
//! (b) The geometric fast paths are rectangle-only; polygon, circle, and
//!     type-filtered queries must take the scalar route and still match
//!     draw for draw — verified by comparing outputs *and* proving both
//!     RNGs arrive at the same stream position afterwards.
//! (c) The same holds on the live-availability branch: with a live map
//!     enabled on both trees and fed identical probe failures, every `a_i`
//!     the walk reads differs from the frozen means the arena mirrors, and
//!     the streams still match across seeds, shapes and thread counts.

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{
    ColrConfig, ColrTree, HotPathLayout, Mode, Query, SensorId, SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::engine::{parse, PortalConfig, PortalService, SelectQuery};
use colr_repro::geo::{Circle, Point, Polygon, Rect, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EXPIRY_MS: u64 = 600_000;
const SIDE: usize = 32; // 1_024 sensors

fn fleet() -> Vec<SensorMeta> {
    (0..SIDE * SIDE)
        .map(|i| {
            let mut m = SensorMeta::new(
                i as u32,
                Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                TimeDelta::from_millis(EXPIRY_MS),
                0.9,
            );
            m.kind = (i % 3) as u16;
            m
        })
        .collect()
}

fn portal(layout: HotPathLayout, seed: u64) -> PortalService<AlwaysAvailable> {
    PortalService::new(
        fleet(),
        AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        },
        PortalConfig {
            seed,
            tree: ColrConfig {
                layout,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

fn viewport_batch(seed: u64) -> Vec<SelectQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..24)
        .map(|_| {
            let w = rng.random_range(3..=10);
            let x0 = rng.random_range(0..SIDE - w);
            let y0 = rng.random_range(0..SIDE - w);
            let sql = format!(
                "SELECT avg(value) FROM sensor WHERE location WITHIN \
                 RECT({}, {}, {}, {}) SAMPLESIZE 25",
                x0 as f64 - 0.5,
                y0 as f64 - 0.5,
                (x0 + w) as f64 + 0.5,
                (y0 + w) as f64 + 0.5,
            );
            parse(&sql).expect("viewport SQL parses")
        })
        .collect()
}

/// Asserts two batch results are indistinguishable, down to Debug strings.
fn assert_batches_equal(
    tag: &str,
    a: &colr_repro::engine::BatchResult,
    b: &colr_repro::engine::BatchResult,
) {
    assert_eq!(a.results.len(), b.results.len(), "{tag}: result count");
    for (i, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
        assert_eq!(ra.value, rb.value, "{tag}: value diverged at query {i}");
        assert_eq!(
            format!("{:?}", ra.groups),
            format!("{:?}", rb.groups),
            "{tag}: groups diverged at query {i}"
        );
        assert_eq!(
            format!("{:?}", ra.stats),
            format!("{:?}", rb.stats),
            "{tag}: stats diverged at query {i}"
        );
    }
    assert_eq!(
        a.readings_applied, b.readings_applied,
        "{tag}: writeback count"
    );
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "{tag}: batch stats"
    );
}

#[test]
fn arena_stream_is_bit_identical_across_seeds_and_threads() {
    for seed in [3u64, 17, 91] {
        let batch = viewport_batch(seed.wrapping_mul(1_000_003));
        // The pointer portal at one thread is the reference stream; the
        // arena portal must reproduce it at every thread count (parity AND
        // thread-count invariance in one matrix).
        let reference = portal(HotPathLayout::Pointer, seed);
        let cold_ref = reference.execute_many(&batch, 1).expect("batch");
        let warm_ref = reference.execute_many(&batch, 1).expect("batch");
        assert!(
            warm_ref.stats.readings_from_cache > 0 || warm_ref.stats.cache_nodes_used > 0,
            "seed {seed}: warm pass never touched a cache — parity not exercised"
        );
        for threads in [1usize, 2, 8] {
            let arena = portal(HotPathLayout::Arena, seed);
            let cold = arena.execute_many(&batch, threads).expect("batch");
            let warm = arena.execute_many(&batch, threads).expect("batch");
            assert_batches_equal(
                &format!("seed {seed} threads {threads} cold"),
                &cold_ref,
                &cold,
            );
            assert_batches_equal(
                &format!("seed {seed} threads {threads} warm"),
                &warm_ref,
                &warm,
            );
        }
    }
}

#[test]
fn scalar_route_matches_for_polygon_circle_and_kind_filters() {
    let config = |layout| ColrConfig {
        layout,
        ..Default::default()
    };
    let ptr = ColrTree::build(fleet(), config(HotPathLayout::Pointer), 5);
    let arena = ColrTree::build(fleet(), config(HotPathLayout::Arena), 5);
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let staleness = TimeDelta::from_mins(5);
    let queries: Vec<Query> = vec![
        // Triangle cutting across many leaf MBRs.
        Query::range(
            Region::Polygon(Polygon::new(vec![
                Point::new(-0.5, -0.5),
                Point::new(28.0, 4.0),
                Point::new(6.0, 27.0),
            ])),
            staleness,
        )
        .with_sample_size(30.0),
        // Circle over the fleet centre.
        Query::range(
            Region::Circle(Circle::new(Point::new(15.5, 15.5), 9.0)),
            staleness,
        )
        .with_sample_size(30.0),
        // Rect + kind filter: weights must come from the kind tables.
        Query::range(Rect::from_coords(1.5, 1.5, 22.5, 22.5), staleness)
            .with_sample_size(25.0)
            .with_kind_filter(1),
        // Polygon + kind filter (both scalar routes at once).
        Query::range(
            Region::Polygon(Polygon::new(vec![
                Point::new(2.0, 2.0),
                Point::new(29.0, 3.0),
                Point::new(20.0, 30.0),
                Point::new(1.0, 20.0),
            ])),
            staleness,
        )
        .with_sample_size(20.0)
        .with_kind_filter(2),
    ];
    let mut rng_a = StdRng::seed_from_u64(4242);
    let mut rng_b = StdRng::seed_from_u64(4242);
    for (qi, query) in queries.iter().enumerate() {
        for round in 0..3u64 {
            // Rounds 0 and 1 share an instant (round 1 is warm); round 2
            // moves past staleness so caches expire and probing resumes.
            let now = Timestamp(1_000 + (round / 2) * 600_000);
            let a = ptr.execute(query, Mode::Colr, &probe, now, &mut rng_a);
            let b = arena.execute(query, Mode::Colr, &probe, now, &mut rng_b);
            assert_eq!(
                format!("{:?}", (&a.readings, &a.groups, &a.stats)),
                format!("{:?}", (&b.readings, &b.groups, &b.stats)),
                "query {qi} round {round} diverged"
            );
            // Both paths must have consumed the exact same number of RNG
            // draws: the next raw draw from each stream agrees.
            assert_eq!(
                rng_a.random::<u64>(),
                rng_b.random::<u64>(),
                "query {qi} round {round}: RNG streams desynchronised"
            );
        }
    }
}

/// Switches `tree` to live availability and feeds it a fixed pattern of
/// probe outcomes, so its estimates differ from the frozen build-time means
/// at every sensor and every node.
fn degrade(tree: &ColrTree) {
    let live = tree.enable_live_availability(0.2);
    for i in 0..SIDE * SIDE {
        for round in 0..3 {
            live.record(SensorId(i as u32), (i + round) % 4 != 0);
        }
    }
    for id in tree.node_ids() {
        assert_ne!(
            tree.node_avail(id),
            tree.node(id).avail_mean,
            "{id:?}: live estimate still equals the frozen mean"
        );
    }
}

#[test]
fn live_availability_stream_is_bit_identical_across_seeds_shapes_and_threads() {
    // Seeds × thread counts: the batch matrix of (a), on degraded trees.
    for seed in [3u64, 17, 91] {
        let batch = viewport_batch(seed.wrapping_mul(1_000_003));
        let reference = portal(HotPathLayout::Pointer, seed);
        degrade(reference.snapshot().tree());
        let cold_ref = reference.execute_many(&batch, 1).expect("batch");
        let warm_ref = reference.execute_many(&batch, 1).expect("batch");
        let frozen = portal(HotPathLayout::Pointer, seed);
        assert_ne!(
            frozen
                .execute_many(&batch, 1)
                .expect("batch")
                .stats
                .sensors_probed,
            cold_ref.stats.sensors_probed,
            "seed {seed}: live estimates never changed a target — branch not exercised"
        );
        for threads in [1usize, 2, 8] {
            let arena = portal(HotPathLayout::Arena, seed);
            degrade(arena.snapshot().tree());
            let cold = arena.execute_many(&batch, threads).expect("batch");
            let warm = arena.execute_many(&batch, threads).expect("batch");
            assert_batches_equal(
                &format!("live seed {seed} threads {threads} cold"),
                &cold_ref,
                &cold,
            );
            assert_batches_equal(
                &format!("live seed {seed} threads {threads} warm"),
                &warm_ref,
                &warm,
            );
        }
    }

    // Shapes: partial rectangles (per-sensor leaf terminals), the scalar
    // polygon/circle route and a kind filter, cold then warm then expired.
    let config = |layout| ColrConfig {
        layout,
        ..Default::default()
    };
    let ptr = ColrTree::build(fleet(), config(HotPathLayout::Pointer), 5);
    let arena = ColrTree::build(fleet(), config(HotPathLayout::Arena), 5);
    degrade(&ptr);
    degrade(&arena);
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let staleness = TimeDelta::from_mins(5);
    let queries = [
        Query::range(Rect::from_coords(2.2, 3.3, 17.7, 12.1), staleness).with_sample_size(30.0),
        Query::range(
            Region::Polygon(Polygon::new(vec![
                Point::new(-0.5, -0.5),
                Point::new(28.0, 4.0),
                Point::new(6.0, 27.0),
            ])),
            staleness,
        )
        .with_sample_size(30.0),
        Query::range(
            Region::Circle(Circle::new(Point::new(15.5, 15.5), 9.0)),
            staleness,
        )
        .with_sample_size(30.0),
        Query::range(Rect::from_coords(1.5, 1.5, 22.5, 22.5), staleness)
            .with_sample_size(25.0)
            .with_kind_filter(1),
    ];
    let mut rng_a = StdRng::seed_from_u64(4242);
    let mut rng_b = StdRng::seed_from_u64(4242);
    for (qi, query) in queries.iter().enumerate() {
        for round in 0..3u64 {
            let now = Timestamp(1_000 + (round / 2) * 600_000);
            let a = ptr.execute(query, Mode::Colr, &probe, now, &mut rng_a);
            let b = arena.execute(query, Mode::Colr, &probe, now, &mut rng_b);
            assert_eq!(
                format!("{:?}", (&a.readings, &a.groups, &a.stats)),
                format!("{:?}", (&b.readings, &b.groups, &b.stats)),
                "live query {qi} round {round} diverged"
            );
            assert_eq!(
                rng_a.random::<u64>(),
                rng_b.random::<u64>(),
                "live query {qi} round {round}: RNG streams desynchronised"
            );
        }
    }
}
