//! A covered subtree answers in one visit — checked against a flat scan.
//!
//! A request that names no `CLUSTER` resolution may end its sampling walk at
//! any contained node whose own slot cache covers it (`Query::cover_level`
//! 0). Nothing here compares the walk with itself alone: the reference is a
//! flat scan of the sensor list and of the raw cached readings.
//!
//! (a) Whatever the caches hold, the groups never represent more readings
//!     than a flat count of fresh cached readings inside the viewport, never
//!     the same sensor twice (group nodes are pairwise non-ancestral), and a
//!     cache-served group's box lies inside the viewport.
//! (b) When every reading was fetched at one instant the covered answer is
//!     the leaf-level answer: same `sampled`, count, min and max; sum and avg
//!     to 1e-9 relative (the additions run in another order); no more groups.
//! (c) A node filled to just under `COVERAGE_THRESHOLD` is not used,
//!     one reading more and it is; an over-asking `count(*)` is exact at any
//!     fill.
//! (d) With `CLUSTER d` no group is coarser than `T(d)`.
//!
//! The clock is frozen within each case and the backend is dark unless a case
//! says otherwise, so only cached data can appear in an answer.

use std::collections::HashSet;

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::sampling::COVERAGE_THRESHOLD;
use colr_repro::colr::{
    AggKind, ColrConfig, ColrTree, Mode, NodeId, ProbeService, Query, QueryOutput, Reading,
    SensorId, SensorMeta, TimeDelta, Timestamp,
};
use colr_repro::engine::{parse, Planner};
use colr_repro::geo::{Circle, Point, Polygon, Rect, Region};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: usize = 32; // 1,024 sensors: root, ~10 internal nodes, ~100 leaves

/// A backend nobody answers from: an answer holds cached data only, and the
/// caches stay as the case set them up.
struct Dark;

impl ProbeService for Dark {
    fn probe_batch(&self, ids: &[SensorId], _now: Timestamp) -> Vec<Option<Reading>> {
        vec![None; ids.len()]
    }
}

/// Expiry between 2 and 10 minutes by sensor, so one fetch instant spreads
/// over several slots.
fn expiry_ms(i: usize) -> u64 {
    120_000 + (i as u64 * 37 % 9) * 60_000
}

fn fleet() -> Vec<SensorMeta> {
    (0..SIDE * SIDE)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % SIDE) as f64, (i / SIDE) as f64),
                TimeDelta::from_millis(expiry_ms(i)),
                1.0,
            )
            .with_kind((i % 3) as u16)
        })
        .collect()
}

fn tree() -> ColrTree {
    ColrTree::build(fleet(), ColrConfig::default(), 7)
}

/// Caches a reading of each sensor in `ids`, fetched at `at`.
fn fetch(tree: &ColrTree, ids: impl IntoIterator<Item = usize>, at: Timestamp) {
    tree.advance(at);
    let readings: Vec<Reading> = ids
        .into_iter()
        .map(|i| Reading {
            sensor: SensorId(i as u32),
            value: ((i * 31) % 101) as f64 - 50.0,
            timestamp: at,
            expires_at: at + TimeDelta::from_millis(expiry_ms(i)),
        })
        .collect();
    assert_eq!(tree.apply_readings(&readings, at), readings.len());
}

fn viewports() -> [(&'static str, Region); 3] {
    [
        ("rect", Rect::from_coords(-0.5, -0.5, 25.5, 28.5).into()),
        (
            "polygon",
            Region::Polygon(Polygon::new(vec![
                Point::new(-0.5, -0.5),
                Point::new(30.5, 1.5),
                Point::new(27.5, 30.5),
                Point::new(1.5, 24.5),
            ])),
        ),
        (
            "circle",
            Region::Circle(Circle::new(Point::new(15.5, 15.5), 14.0)),
        ),
    ]
}

/// A request without a grouping floor, as the planner lowers SQL that has no
/// `CLUSTER` clause.
fn unclustered(tree: &ColrTree, region: &Region, staleness: TimeDelta, kind: Option<u16>) -> Query {
    let q = Query::range(region.clone(), staleness)
        .with_terminal_level(tree.leaf_level())
        .with_cover_level(0);
    match kind {
        Some(k) => q.with_kind_filter(k),
        None => q,
    }
}

/// The flat scan: every raw cached reading that is fresh at `now` and whose
/// sensor the query matches.
fn fresh_in_viewport(tree: &ColrTree, query: &Query, now: Timestamp) -> HashSet<SensorId> {
    tree.cached_entries()
        .into_iter()
        .map(|e| e.reading)
        .filter(|r| r.is_fresh(now, query.staleness) && query.matches_sensor(tree.sensor(r.sensor)))
        .map(|r| r.sensor)
        .collect()
}

fn ancestors(tree: &ColrTree, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(tree.node(id).parent, |&p| tree.node(p).parent)
}

fn sampled(out: &QueryOutput) -> u64 {
    out.groups.iter().map(|g| g.agg.count).sum()
}

fn shallowest_group(tree: &ColrTree, out: &QueryOutput) -> u16 {
    out.groups
        .iter()
        .map(|g| tree.node(g.node).level)
        .min()
        .expect("the answer has groups")
}

#[test]
fn groups_never_exceed_a_flat_count_nor_repeat_a_sensor() {
    let tree = tree();
    // Half the fleet read early, everyone else (and a re-read third of the
    // early half) late: at the late instant the short-lived early readings
    // have expired and the rest are stale under the one-minute bound, so the
    // internal slots they sit in are disqualified while their leaves still
    // hold fresh neighbours.
    let early = Timestamp(1_000);
    let now = Timestamp(200_000);
    fetch(&tree, (0..SIDE * SIDE).filter(|i| i % 2 == 0), early);
    fetch(
        &tree,
        (0..SIDE * SIDE).filter(|i| i % 2 == 1 || i % 6 == 0),
        now,
    );
    let mut rng = StdRng::seed_from_u64(17);
    let mut above_leaves = 0;
    for (shape, region) in viewports() {
        for kind in [None, Some(1)] {
            for staleness in [TimeDelta::from_mins(1), TimeDelta::from_mins(10)] {
                for r in [40.0, 1e8] {
                    let query = unclustered(&tree, &region, staleness, kind).with_sample_size(r);
                    let what = format!("{shape} kind {kind:?} staleness {staleness} R {r}");
                    let flat = fresh_in_viewport(&tree, &query, now);
                    let out = tree.execute(&query, Mode::Colr, &Dark, now, &mut rng);
                    assert!(
                        sampled(&out) <= flat.len() as u64,
                        "{what}: groups hold {} readings, a flat scan finds {} fresh ones",
                        sampled(&out),
                        flat.len()
                    );
                    let nodes: HashSet<NodeId> = out.groups.iter().map(|g| g.node).collect();
                    assert_eq!(
                        nodes.len(),
                        out.groups.len(),
                        "{what}: a node answered twice"
                    );
                    for g in &out.groups {
                        assert!(
                            ancestors(&tree, g.node).all(|a| !nodes.contains(&a)),
                            "{what}: {:?} answered under an ancestor that also answered",
                            g.node
                        );
                        if g.from_cache {
                            assert!(
                                query.region.contains_rect(&g.bbox),
                                "{what}: cached group {:?} reaches outside the viewport",
                                g.node
                            );
                        }
                    }
                    let mut seen = HashSet::new();
                    for reading in &out.readings {
                        assert!(
                            flat.contains(&reading.sensor),
                            "{what}: {reading:?} not in the scan"
                        );
                        assert!(seen.insert(reading.sensor), "{what}: {reading:?} twice");
                    }
                    if shallowest_group(&tree, &out) < tree.leaf_level() {
                        above_leaves += 1;
                    }
                }
            }
        }
    }
    assert!(
        above_leaves > 0,
        "no request ever ended at an internal node"
    );
}

#[test]
fn one_fetch_instant_gives_the_leaf_level_answer() {
    let tree = tree();
    let now = Timestamp(1_000);
    fetch(&tree, 0..SIDE * SIDE, now);
    let staleness = TimeDelta::from_mins(5);
    let mut fewer_groups = 0;
    for (shape, region) in viewports() {
        for kind in [None, Some(1)] {
            let covered = unclustered(&tree, &region, staleness, kind).with_sample_size(60.0);
            let leaf_level = covered.clone().with_cover_level(u16::MAX);
            let what = format!("{shape} kind {kind:?}");
            let run =
                |q: &Query| tree.execute(q, Mode::Colr, &Dark, now, &mut StdRng::seed_from_u64(23));
            let (a, b) = (run(&covered), run(&leaf_level));
            assert_eq!(shallowest_group(&tree, &b), tree.leaf_level(), "{what}");
            assert_eq!(sampled(&a), sampled(&b), "{what}: sampled");
            for agg in [AggKind::Count, AggKind::Min, AggKind::Max] {
                assert_eq!(a.aggregate(agg), b.aggregate(agg), "{what}: {agg:?}");
            }
            for agg in [AggKind::Sum, AggKind::Avg] {
                let (x, y) = (a.aggregate(agg).unwrap(), b.aggregate(agg).unwrap());
                assert!(
                    (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                    "{what}: {agg:?} {x} vs {y}"
                );
            }
            assert!(a.groups.len() <= b.groups.len(), "{what}: more groups");
            assert!(a.stats.nodes_traversed <= b.stats.nodes_traversed, "{what}");
            if a.groups.len() < b.groups.len() {
                fewer_groups += 1;
            }
        }
    }
    assert!(
        fewer_groups > 0,
        "no viewport contained a covered internal node"
    );
}

#[test]
fn the_gate_is_the_coverage_threshold_and_an_over_asking_count_stays_exact() {
    let probe_tree = tree();
    // An internal node below the root, and a viewport that just contains it.
    let node = probe_tree
        .node_ids()
        .find(|&id| probe_tree.node(id).level == 1 && !probe_tree.node(id).is_leaf())
        .expect("a level-1 internal node");
    let bbox = probe_tree.node(node).bbox;
    let region: Region = Rect::from_coords(
        bbox.min.x - 0.25,
        bbox.min.y - 0.25,
        bbox.max.x + 0.25,
        bbox.max.y + 0.25,
    )
    .into();
    let members: Vec<usize> = fleet()
        .iter()
        .filter(|m| ancestors(&probe_tree, probe_tree.home_leaf(m.id)).any(|a| a == node))
        .map(|m| m.id.index())
        .collect();
    let weight = probe_tree.node(node).weight as usize;
    assert_eq!(members.len(), weight);
    let in_viewport = fleet()
        .iter()
        .filter(|m| region.contains_point(&m.location))
        .count() as u64;
    let threshold = (weight as f64 * COVERAGE_THRESHOLD).ceil() as usize;
    let now = Timestamp(1_000);
    let staleness = TimeDelta::from_mins(5);
    let answered_by = |out: &QueryOutput| out.groups.iter().any(|g| g.node == node);

    // Just under the threshold the node is passed over; one more and it answers.
    let tree = self::tree();
    let small = unclustered(&tree, &region, staleness, None).with_sample_size(4.0);
    fetch(&tree, members[..threshold - 1].iter().copied(), now);
    let under = tree.execute(
        &small,
        Mode::Colr,
        &Dark,
        now,
        &mut StdRng::seed_from_u64(5),
    );
    assert!(
        !answered_by(&under),
        "used at {} of {weight}",
        threshold - 1
    );
    fetch(&tree, [members[threshold - 1]], now);
    let at = tree.execute(
        &small,
        Mode::Colr,
        &Dark,
        now,
        &mut StdRng::seed_from_u64(5),
    );
    assert!(answered_by(&at), "not used at {threshold} of {weight}");

    // An over-asking count wants the whole population, so only full coverage
    // ends the walk: at every other fill it descends and probes the rest.
    let over = unclustered(&tree, &region, staleness, None).with_sample_size(1e8);
    for fill in [
        0,
        threshold - 1,
        threshold,
        weight * 3 / 4,
        weight - 1,
        weight,
    ] {
        let tree = self::tree();
        fetch(&tree, members[..fill].iter().copied(), now);
        let probe = AlwaysAvailable { expiry_ms: 300_000 };
        let out = tree.execute(
            &over,
            Mode::Colr,
            &probe,
            now,
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(
            sampled(&out),
            in_viewport,
            "fill {fill} of {weight}: count(*)"
        );
        assert_eq!(answered_by(&out), fill == weight, "fill {fill} of {weight}");
    }
}

#[test]
fn a_cluster_clause_is_a_floor_no_group_goes_above() {
    let tree = tree();
    let now = Timestamp(1_000);
    fetch(&tree, 0..SIDE * SIDE, now);
    let planner = Planner::new(&tree);
    let d = planner.level_diameter(1).expect("level 1 exists") * 0.9;
    let viewport = "RECT(-0.5, -0.5, 29.5, 30.5)";
    let run = |cluster: &str| {
        let sql = format!(
            "SELECT avg(value) FROM sensor WHERE location WITHIN {viewport}{cluster} SAMPLESIZE 60"
        );
        let plan = planner.plan(&parse(&sql).expect("SQL parses"));
        let out = tree.execute(&plan, Mode::Colr, &Dark, now, &mut StdRng::seed_from_u64(3));
        (plan, out)
    };
    let (plan, grouped) = run(&format!(" CLUSTER {d}"));
    assert_eq!(
        plan.terminal_level, 1,
        "CLUSTER {d} should resolve to level 1"
    );
    assert!(
        shallowest_group(&tree, &grouped) >= plan.terminal_level,
        "a group coarser than T = {}",
        plan.terminal_level
    );
    let (_, deep) = run(" CLUSTER 0.001");
    assert_eq!(shallowest_group(&tree, &deep), tree.leaf_level());
    // The same viewport without the clause may stop wherever it is covered.
    let (_, free) = run("");
    assert!(shallowest_group(&tree, &free) < tree.leaf_level());
}
