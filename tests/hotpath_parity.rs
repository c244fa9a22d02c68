//! The arena walk answers exactly as the deleted pointer walk did.
//!
//! Algorithm 1 used to exist twice — over the pointer tree and over the
//! arena — and this file compared the two draw for draw. The pointer walk is
//! gone; what it proved is kept as data. At parent commit `18a1f92` (the last
//! one with a layout switch) the pointer side of each comparison below was run
//! and an FNV-1a-64 digest taken of every `Debug` string the comparison read,
//! plus the RNG's next raw draw after each bare-tree query. The one walk that
//! remains must reproduce those constants:
//!
//! (a) frozen batches over a 1k-sensor fleet, three build seeds, cold and
//!     warm, at 1, 2 and 8 worker threads;
//! (b) polygon, circle and kind-filtered queries on the bare tree (the scalar
//!     route: no rectangle fast path applies), cold / warm / expired;
//! (c) both again with live availability on and fed a fixed failure pattern,
//!     so every `a_i` the walk reads differs from the frozen means the arena
//!     mirrors.
//!
//! (d) wide, over-asking batches of SQL without `CLUSTER`, recorded at parent
//!     `4b276bc` (PR 17) before a covered internal node could end the walk:
//!     the cold pass must not move — a failed coverage gate touches nothing —
//!     and the warm pass, where the rule acts, is pinned as recorded with it.
//!
//! (e) the *state* the maintenance paths leave behind, recorded at parent
//!     `2ed747d` (PR 18) before write-back, eviction index and roll were
//!     rewritten: after a fixed seeded trace of batches (sensors repeated
//!     inside a batch), replacements, removals, rolls — some longer than the
//!     window — and capacity evictions, every node's slot ring, every leaf's
//!     raw entries and the eviction order must be what the old code left,
//!     to the bit, as must a fresh tree the entries are restored into.
//!
//! (f) the *trees* the bulk build produces and the shard map
//!     `kmeans_partition` cuts, recorded at parent `f339d36` (PR 19) before
//!     Lloyd's assignment step stopped asking every centre: every node of a
//!     clustered fleet of 1 … 40,000 sensors (both sides of the direct / grid
//!     threshold and of a one-leaf tree) at 1, 2 and 8 build threads, and
//!     the eight groups the router would shard that fleet into. One more
//!     tree, the 40,000-sensor fleet packed by STR, was recorded later on
//!     the code that still numbered nodes in push order, with the
//!     position-naming digest below.
//!
//! (g) the two baseline modes, `Mode::HierCache` and `Mode::RTree`, on the bare
//!     tree, recorded at parent `f608995` (PR 20) while both still descended
//!     the builder's pointer nodes: a rectangle cutting leaves, a polygon, a
//!     circle and a kind filter, cold / warm / expired.
//!
//! A digest mismatch means an answer, a statistic or an RNG position moved.
//! If that is an intended algorithm change (REDISTRIBUTE on a wave's realised
//! shortfall, say), re-record: every assertion prints the digest it computed.
//!
//! Re-recorded once, in PR 24: the batch digests of (a), (c) and (d) — the
//! cases that go through the portal. Until then a fresh service handed
//! its one level the request's raw RNG; now it runs the executor a churned
//! one runs, and the level walks under `derive_seed(rng.next_u64(), 1)`. The
//! walk did not change — (b), (e), (f), (g) and the shape digests of (c) are
//! on the bare tree and did not move — and what ties the new constants to it
//! is an identity, checked bit for bit: a one-level index answers exactly as
//! its tree driven by hand with that stream (`colr-tree`'s lsm tests; the
//! two parity tests of `engine/src/service.rs` for the service over it, at
//! 1 / 2 / 8 batch threads). CHANGES.md lists the 18 constants old → new.
//!
//! Re-recorded once more, with no code change under them: every digest that
//! prints a node — the trees of (f), the cache state of (e), the groups of
//! (b), (c)'s shapes and (g) — now names it by its breadth-first position in
//! the arena (root 0, each node's children one run), not by the builder's
//! push order, so no constant here depends on how nodes are labelled. The
//! batch digests of (a), (c), (d) carry no node and did not move; nor did
//! the trees of one node (sizes 1 and 10). `NodeId` then became that
//! position, and every constant here passed the renumbering unchanged.
//!
//! The batch cases run a one-shard `ShardedPortal`, the only way to build a
//! portal: the router hands a one-shard batch to its shard as it is, and
//! every constant here passed that move unchanged.
//!
//! Re-recorded a third time, again with no answer under them moving: the 16
//! shape digests of (b), (c) and (g) print each `GroupResult`, and its
//! `hist` field went with the per-slot histograms. The same code with
//! `hist: None` written back into that `Debug` string reproduces every
//! old constant; the batch, state and tree digests carry no `GroupResult`
//! and did not move. CHANGES.md lists the 16 constants old → new.

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{
    kmeans_partition, BuildStrategy, Children, ColrConfig, ColrTree, Mode, NodeId, Query, Reading,
    SensorId, SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::engine::{parse, BatchResult, PortalConfig, SelectQuery, ShardedPortal};
use colr_repro::geo::{Circle, Point, Polygon, Rect, Region};
use colr_repro::workload::PlacementModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EXPIRY_MS: u64 = 600_000;
const SIDE: usize = 32; // 1_024 sensors
const SEEDS: [u64; 3] = [3, 17, 91];

/// `(cold, warm)` batch digests per build seed, frozen availability.
const FROZEN_BATCHES: [(u64, u64); 3] = [
    (0x98a3_90c3_e8a6_2972, 0xe992_9c1e_fb61_b21b),
    (0x4d3a_8d31_cf66_547d, 0xb52f_00b0_5d61_bd1b),
    (0x519f_81af_85fb_07d7, 0xb9ed_7b07_be08_db5a),
];
/// `(cold, warm)` batch digests per build seed, live availability.
const LIVE_BATCHES: [(u64, u64); 3] = [
    (0x711d_bc87_bd98_6ae9, 0xd24b_6d39_8f2c_9871),
    (0x6d98_41a9_534a_f8f0, 0xc66e_563a_c755_1bfc),
    (0x4d4b_4829_f5bd_262b, 0x0f56_e202_c6f9_831d),
];
/// One digest per query of [`scalar_queries`] (three rounds each).
const FROZEN_SHAPES: [u64; 4] = [
    0x121b_2f6f_a17d_2476,
    0xae75_60c3_7230_a9a1,
    0x94f3_6c2d_5753_6c1f,
    0xb306_c9b7_ce04_cda6,
];
/// One digest per query of [`live_queries`] (three rounds each).
const LIVE_SHAPES: [u64; 4] = [
    0x27d4_620a_133d_3fdf,
    0x77f7_3be5_aa48_dbd6,
    0x1e16_9bd1_9b63_3fc4,
    0x80be_491c_7463_6e2b,
];

/// Cold-pass batch digests per build seed for [`wide_batch`] — SQL without a
/// `CLUSTER` clause over viewports that contain whole internal nodes. With
/// cold caches the covered-node rule changes nothing: until the stream moved
/// (see the module doc) these were the constants recorded at parent
/// `4b276bc`, before a covered internal node could end the walk.
const WIDE_COLD: [u64; 3] = [
    0x3d31_af59_a37a_d7fc,
    0x56d3_4e15_5583_73d4,
    0xd007_1967_923a_bc36,
];
/// Warm-pass digests of the same batches, recorded with the rule in place
/// (contained internal nodes answer from their own slot caches).
const WIDE_WARM: [u64; 3] = [
    0x79f3_d338_5924_47db,
    0x3060_58cf_137c_89c9,
    0x0e62_bcdb_39e0_04fc,
];

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

/// A one-shard portal: its batches are its shard's frozen batches.
fn portal(seed: u64) -> ShardedPortal<AlwaysAvailable> {
    let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let config = PortalConfig {
        seed,
        ..Default::default()
    };
    ShardedPortal::new(fleet(), probe, 1, config)
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

/// FNV-1a-64 over the bytes of everything fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Everything the pointer-vs-arena batch comparison read: per query the
/// value, groups and stats, then the write-back count and the batch stats.
fn batch_digest(b: &BatchResult) -> u64 {
    let mut d = Digest::new();
    for r in &b.results {
        d.eat(&format!("{:?}", r.value));
        d.eat(&format!("{:?}", r.groups));
        d.eat(&format!("{:?}", r.stats));
    }
    d.eat(&format!("{:?}", b.readings_applied));
    d.eat(&format!("{:?}", b.stats));
    d.0
}

/// Runs `queries` on `tree`, three rounds each (rounds 0 and 1 share an
/// instant, so round 1 is warm; round 2 moves past staleness so caches expire
/// and probing resumes), and digests per query every reading, group and
/// statistic plus the RNG's next raw draw after each execution.
fn shape_digests(tree: &ColrTree, mode: Mode, queries: &[Query]) -> Vec<u64> {
    let probe = AlwaysAvailable {
        expiry_ms: EXPIRY_MS,
    };
    let mut rng = StdRng::seed_from_u64(4242);
    queries
        .iter()
        .map(|query| {
            let mut d = Digest::new();
            for round in 0..3u64 {
                let now = Timestamp(1_000 + (round / 2) * 600_000);
                let out = tree.execute(query, mode, &probe, now, &mut rng);
                d.eat(&format!("{:?}", (&out.readings, &out.groups, &out.stats)));
                d.eat(&format!("{:?}", rng.random::<u64>()));
            }
            d.0
        })
        .collect()
}

#[track_caller]
fn assert_digest(what: &str, got: u64, recorded: u64) {
    assert_eq!(
        got, recorded,
        "{what}: digest {got:#018x}, recorded {recorded:#018x}"
    );
}

/// The batch matrix: per seed the cold and warm pass must reproduce the
/// recorded digests at every thread count (parity AND thread-count invariance
/// in one matrix).
fn assert_batch_matrix(tag: &str, recorded: &[(u64, u64); 3], prepare: impl Fn(&ColrTree)) {
    for (&seed, &(cold_ref, warm_ref)) in SEEDS.iter().zip(recorded) {
        let batch = viewport_batch(seed.wrapping_mul(1_000_003));
        for threads in [1usize, 2, 8] {
            let svc = portal(seed);
            prepare(svc.shard(0).snapshot().tree());
            let cold = svc.execute_many(&batch, threads).expect("batch");
            let warm = svc.execute_many(&batch, threads).expect("batch");
            assert!(
                warm.stats.readings_from_cache > 0 || warm.stats.cache_nodes_used > 0,
                "{tag} seed {seed}: warm pass never touched a cache — parity not exercised"
            );
            let what = format!("{tag} seed {seed} threads {threads}");
            assert_digest(&format!("{what} cold"), batch_digest(&cold), cold_ref);
            assert_digest(&format!("{what} warm"), batch_digest(&warm), warm_ref);
        }
    }
}

/// Wide viewports without `CLUSTER`, asking for enough that one cold pass
/// leaves most of the fleet cached; every third request is kind-filtered.
fn wide_batch(seed: u64) -> Vec<SelectQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..24)
        .map(|i| {
            let w = rng.random_range(14..=30);
            let x0 = rng.random_range(0..=SIDE - 1 - w);
            let y0 = rng.random_range(0..=SIDE - 1 - w);
            let kind = if i % 3 == 2 { " AND type = 1" } else { "" };
            let sql = format!(
                "SELECT avg(value) FROM sensor WHERE location WITHIN \
                 RECT({}, {}, {}, {}){kind} SAMPLESIZE 400",
                x0 as f64 - 0.5,
                y0 as f64 - 0.5,
                (x0 + w) as f64 + 0.5,
                (y0 + w) as f64 + 0.5,
            );
            parse(&sql).expect("viewport SQL parses")
        })
        .collect()
}

#[test]
fn wide_unclustered_batches_keep_cold_answers_and_pin_warm_ones() {
    for (i, &seed) in SEEDS.iter().enumerate() {
        let batch = wide_batch(seed.wrapping_mul(7_919));
        for threads in [1usize, 4] {
            let svc = portal(seed);
            let generation = svc.shard(0).snapshot();
            let tree = generation.tree();
            let widest_leaf = tree
                .node_ids()
                .map(|id| tree.node(id))
                .filter(|n| n.is_leaf())
                .map(|n| n.weight)
                .max()
                .expect("the tree has leaves");
            let cold = svc.execute_many(&batch, threads).expect("batch");
            let warm = svc.execute_many(&batch, threads).expect("batch");
            let what = format!("wide seed {seed} threads {threads}");
            assert_digest(&format!("{what} cold"), batch_digest(&cold), WIDE_COLD[i]);
            assert_digest(&format!("{what} warm"), batch_digest(&warm), WIDE_WARM[i]);
            let above_leaves = warm
                .results
                .iter()
                .flat_map(|r| &r.groups)
                .filter(|g| g.from_cache && g.count > widest_leaf)
                .count();
            assert!(
                above_leaves > 0,
                "{what}: no warm group holds more readings than a leaf has sensors"
            );
        }
    }
}

#[test]
fn arena_stream_is_bit_identical_across_seeds_and_threads() {
    assert_batch_matrix("frozen", &FROZEN_BATCHES, |_| {});
}

fn triangle() -> Region {
    // Cuts across many leaf MBRs.
    Region::Polygon(Polygon::new(vec![
        Point::new(-0.5, -0.5),
        Point::new(28.0, 4.0),
        Point::new(6.0, 27.0),
    ]))
}

fn centre_circle() -> Region {
    Region::Circle(Circle::new(Point::new(15.5, 15.5), 9.0))
}

fn scalar_queries() -> Vec<Query> {
    let staleness = TimeDelta::from_mins(5);
    vec![
        Query::range(triangle(), staleness).with_sample_size(30.0),
        Query::range(centre_circle(), staleness).with_sample_size(30.0),
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
    ]
}

#[test]
fn scalar_route_matches_for_polygon_circle_and_kind_filters() {
    let tree = ColrTree::build(fleet(), ColrConfig::default(), 5);
    let got = shape_digests(&tree, Mode::Colr, &scalar_queries());
    for (qi, (&got, &recorded)) in got.iter().zip(&FROZEN_SHAPES).enumerate() {
        assert_digest(&format!("query {qi}"), got, recorded);
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
            live.node(id),
            tree.node(id).avail_mean,
            "{id:?}: live estimate still equals the frozen mean"
        );
    }
}

/// Partial rectangles (per-sensor leaf terminals), the scalar polygon/circle
/// route and a kind filter.
fn live_queries() -> Vec<Query> {
    let staleness = TimeDelta::from_mins(5);
    vec![
        Query::range(Rect::from_coords(2.2, 3.3, 17.7, 12.1), staleness).with_sample_size(30.0),
        Query::range(triangle(), staleness).with_sample_size(30.0),
        Query::range(centre_circle(), staleness).with_sample_size(30.0),
        Query::range(Rect::from_coords(1.5, 1.5, 22.5, 22.5), staleness)
            .with_sample_size(25.0)
            .with_kind_filter(1),
    ]
}

#[test]
fn live_availability_stream_is_bit_identical_across_seeds_shapes_and_threads() {
    // Seeds × thread counts: the batch matrix of (a), on degraded trees.
    assert_batch_matrix("live", &LIVE_BATCHES, degrade);
    for (live, frozen) in LIVE_BATCHES.iter().zip(&FROZEN_BATCHES) {
        assert_ne!(
            live, frozen,
            "live estimates never changed an answer — branch not exercised"
        );
    }

    // Shapes, cold then warm then expired.
    let tree = ColrTree::build(fleet(), ColrConfig::default(), 5);
    degrade(&tree);
    let got = shape_digests(&tree, Mode::Colr, &live_queries());
    for (qi, (&got, &recorded)) in got.iter().zip(&LIVE_SHAPES).enumerate() {
        assert_digest(&format!("live query {qi}"), got, recorded);
    }
}

/// One digest per query of [`baseline_queries`] (three rounds each), per
/// baseline mode.
const BASELINE_SHAPES: [(Mode, [u64; 4]); 2] = [
    (
        Mode::HierCache,
        [
            0x3eac_0cb4_0d46_a77a,
            0x7785_ea5d_ff84_8463,
            0xca44_372b_4ad3_6a2a,
            0x1758_76d9_2556_6402,
        ],
    ),
    (
        Mode::RTree,
        [
            0x3ae7_bb43_b82e_3712,
            0x561e_860e_3d8a_3fba,
            0xa824_2bca_766f_00ac,
            0x8482_97b3_d2f8_6d58,
        ],
    ),
];

/// What the baseline modes answer in full: no sample size, groups at the
/// default terminal level.
fn baseline_queries() -> Vec<Query> {
    let staleness = TimeDelta::from_mins(5);
    vec![
        Query::range(Rect::from_coords(2.2, 3.3, 17.7, 12.1), staleness),
        Query::range(triangle(), staleness),
        Query::range(centre_circle(), staleness),
        Query::range(Rect::from_coords(1.5, 1.5, 22.5, 22.5), staleness).with_kind_filter(1),
    ]
}

#[test]
fn baseline_modes_answer_as_the_pointer_descent_did() {
    for (mode, recorded) in &BASELINE_SHAPES {
        let tree = ColrTree::build(fleet(), ColrConfig::default(), 5);
        let got = shape_digests(&tree, *mode, &baseline_queries());
        for (qi, (&got, &recorded)) in got.iter().zip(recorded).enumerate() {
            assert_digest(&format!("{mode:?} query {qi}"), got, recorded);
        }
        // The tree is warm again at the last round's instant: the coverage
        // gate must have been among what the digests saw.
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for query in baseline_queries() {
            let out = tree.execute(&query, *mode, &probe, Timestamp(601_000), &mut rng);
            assert_eq!(
                out.groups.iter().any(|g| g.from_cache),
                *mode == Mode::HierCache,
                "{mode:?}: {:?}",
                out.stats
            );
        }
    }
}

/// `(traced tree, fresh tree its entries were restored into)` per capacity
/// of [`maintenance_trace_digests`]: unconstrained, then 150 readings.
const MAINTENANCE_STATE: [(u64, u64); 2] = [
    (0xfdfc_36ea_b4f2_6043, 0x0f37_11e9_a868_4808),
    (0xe4eb_84d2_e0e8_c253, 0xb76a_d96e_5874_4225),
];

/// Everything cache maintenance owns: per node the slot ring (absolute
/// index, aggregate bits, freshness watermark, per-kind sub-aggregates) over
/// every slot a ring could hold around `now` — slots below the window base
/// included, which must be absent — per leaf the raw entries, then the
/// eviction order as `cached_entries` exports it.
fn cache_state_digest(tree: &ColrTree, now: Timestamp) -> u64 {
    let mut d = Digest::new();
    let here = tree.slot_config().slot_of(now);
    for id in tree.node_ids() {
        let c = tree.cache_snapshot(id);
        for abs in here.saturating_sub(12)..=here + 12 {
            if let Some(s) = c.cache.slot(abs) {
                let bits = |a: &colr_repro::colr::PartialAgg| {
                    (a.count, a.sum.to_bits(), a.min.to_bits(), a.max.to_bits())
                };
                let kinds: Vec<_> = s.by_kind.iter().map(|(k, a)| (*k, bits(a))).collect();
                d.eat(&format!(
                    "{id:?} {abs} {:?} {:?} {kinds:?}",
                    bits(&s.agg),
                    s.min_ts
                ));
            }
        }
        for e in &c.entries {
            let r = e.reading;
            d.eat(&format!(
                "{id:?} {:?} {:#x} {:?} {:?} {:?}",
                r.sensor,
                r.value.to_bits(),
                r.timestamp,
                r.expires_at,
                e.fetched_at
            ));
        }
    }
    for e in tree.cached_entries() {
        d.eat(&format!("{:?} {:?}", e.reading.sensor, e.fetched_at));
    }
    d.eat(&format!("{}", tree.cached_readings()));
    d.0
}

/// Drives one tree through 600 seeded maintenance operations and digests its
/// cache state every 40 of them, then restores its entries into a fresh tree
/// over the same fleet and digests that.
fn maintenance_trace_digests(cache_capacity: Option<usize>) -> (u64, u64) {
    let config = ColrConfig {
        cache_capacity,
        ..Default::default()
    };
    let tree = ColrTree::build(fleet(), config.clone(), 5);
    let mut rng = StdRng::seed_from_u64(0x18_2ed7);
    let mut now = Timestamp(1_000);
    let mut d = Digest::new();
    let reading = |rng: &mut StdRng, now: Timestamp| {
        // Three in four land in a hot block, so replacements are the rule.
        let sensor = if rng.random_range(0..4) > 0 {
            rng.random_range(300..420)
        } else {
            rng.random_range(0..SIDE * SIDE)
        };
        Reading {
            sensor: SensorId(sensor as u32),
            value: rng.random_range(-40.0..120.0),
            timestamp: now.saturating_sub(TimeDelta::from_millis(rng.random_range(0..20_000))),
            expires_at: now + TimeDelta::from_millis(rng.random_range(5_000..EXPIRY_MS)),
        }
    };
    for step in 0..600 {
        match rng.random_range(0..20) {
            0..=10 => {
                let n = rng.random_range(1..48);
                let mut batch: Vec<Reading> = (0..n).map(|_| reading(&mut rng, now)).collect();
                if n > 4 && rng.random_range(0..3) == 0 {
                    // The same sensor twice in one batch: last write wins.
                    let mut again = reading(&mut rng, now);
                    again.sensor = batch[1].sensor;
                    batch.push(again);
                }
                d.eat(&format!("{}", tree.apply_readings(&batch, now)));
            }
            11..=13 => d.eat(&format!(
                "{}",
                tree.insert_reading(reading(&mut rng, now), now)
            )),
            14 => {
                let sensor = SensorId(rng.random_range(300..420));
                d.eat(&format!("{:?}", tree.remove_cached(sensor)));
            }
            15..=18 => {
                now += TimeDelta::from_millis(rng.random_range(1_000..90_000));
                tree.advance(now);
            }
            _ => {
                // Rarely, past the whole window in one step.
                if rng.random_range(0..4) == 0 {
                    now += TimeDelta::from_millis(EXPIRY_MS + 200_000);
                }
                // No explicit advance: the next write-back rolls.
            }
        }
        if step % 40 == 39 {
            tree.validate().expect("tree invariants hold mid-trace");
            d.eat(&format!("{:#x}", cache_state_digest(&tree, now)));
        }
    }
    assert!(
        tree.cached_readings() > 100,
        "the trace ends on a warm tree"
    );
    let fresh = ColrTree::build(fleet(), config, 5);
    // Entries that expired since the source last rolled are dropped here.
    let restored = fresh.restore_entries(&tree.cached_entries(), now);
    assert_eq!(restored, fresh.cached_readings());
    assert!(restored > 100, "the carry-over is not trivial");
    fresh.validate().expect("restored tree invariants");
    (d.0, cache_state_digest(&fresh, now))
}

#[test]
fn maintenance_leaves_the_cache_state_the_old_paths_left() {
    for (cap, &(traced, restored)) in [None, Some(150)].into_iter().zip(&MAINTENANCE_STATE) {
        let got = maintenance_trace_digests(cap);
        assert_digest(&format!("capacity {cap:?} traced"), got.0, traced);
        assert_digest(&format!("capacity {cap:?} restored"), got.1, restored);
    }
}

/// Fleet sizes of [`bulk_build_reproduces_the_trees_recorded_at_the_parent`]:
/// a one-leaf tree, `B` and `B + 1` sensors, and both sides of the build's
/// direct / grid-partitioned threshold, up to the benchmark's fleet.
const BUILD_SIZES: [usize; 6] = [1, 10, 11, 4_096, 4_097, 40_000];
/// One digest per size of [`BUILD_SIZES`] (the same at 1, 2 and 8 threads).
const BUILT_TREES: [u64; 6] = [
    0x605e_ce72_6919_ba38,
    0x9f12_5f88_b7cd_8a1e,
    0x6035_3379_6174_f598,
    0x28f2_17fe_84fc_f368,
    0x3b55_7170_f9ba_f5b1,
    0x4e1b_becd_81ef_153f,
];
/// The 40,000-sensor fleet packed by `BuildStrategy::Str`.
const STR_TREE: u64 = 0xf4e1_921d_e4f3_9a02;
/// The 8-shard `kmeans_partition` of the 40,000-sensor fleet.
const SHARD_MAP: u64 = 0x345f_9c39_4934_638b;

/// The benchmark map's shape: 200 Zipf-weighted Gaussian cities, strays
/// clamped onto the extent's edges (so some coordinates coincide exactly).
fn clustered_fleet(n: usize) -> Vec<SensorMeta> {
    PlacementModel::live_local()
        .place(Rect::from_coords(0.0, 0.0, 4_000.0, 2_500.0), n, 20_080_407)
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            SensorMeta::new(
                i as u32,
                at,
                TimeDelta::from_millis(EXPIRY_MS),
                0.5 + (i % 5) as f64 * 0.1,
            )
            .with_kind((i % 3) as u16)
        })
        .collect()
}

/// Everything the build decides: per node its level, box, weight, per-kind
/// weights, availability mean and child or sensor list, in node-id order.
fn tree_digest(tree: &ColrTree) -> u64 {
    let mut d = Digest::new();
    for id in tree.node_ids() {
        let n = tree.node(id);
        let b = n.bbox;
        d.eat(&format!(
            "{id:?} {} {:#x} {:#x} {:#x} {:#x} {} {:?} {:#x} {:?}",
            n.level,
            b.min.x.to_bits(),
            b.min.y.to_bits(),
            b.max.x.to_bits(),
            b.max.y.to_bits(),
            n.weight,
            n.kind_weights,
            n.avail_mean.to_bits(),
            n.parent,
        ));
        match &n.children {
            Children::Internal(c) => {
                let c: Vec<NodeId> = c.iter().collect();
                d.eat(&format!("I{c:?}"))
            }
            Children::Leaf(s) => d.eat(&format!("L{s:?}")),
        }
    }
    d.eat(&format!("{:?} {}", tree.root(), tree.leaf_level()));
    d.0
}

#[test]
fn bulk_build_reproduces_the_trees_recorded_at_the_parent() {
    let fleet = clustered_fleet(40_000);
    for (&n, &recorded) in BUILD_SIZES.iter().zip(&BUILT_TREES) {
        // `place` draws the cities, then the sensors in order: a shorter
        // fleet is a prefix of a longer one.
        for threads in [1usize, 2, 8] {
            let tree = ColrTree::build_with_threads(
                fleet[..n].to_vec(),
                ColrConfig::default(),
                19,
                threads,
            );
            tree.validate().expect("built tree invariants");
            assert_digest(
                &format!("build n {n} threads {threads}"),
                tree_digest(&tree),
                recorded,
            );
        }
    }
    let config = ColrConfig {
        build: BuildStrategy::Str,
        ..ColrConfig::default()
    };
    let tree = ColrTree::build_with_threads(fleet.clone(), config, 19, 1);
    tree.validate().expect("STR tree invariants");
    assert_digest("STR build", tree_digest(&tree), STR_TREE);
    let points: Vec<Point> = fleet.iter().map(|m| m.location).collect();
    let mut d = Digest::new();
    d.eat(&format!("{:?}", kmeans_partition(&points, 8, 20_080_407)));
    assert_digest("shard map", d.0, SHARD_MAP);
}
