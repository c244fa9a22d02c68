//! Bulk construction (Section III-C).
//!
//! COLR-Tree assumes sensor locations change rarely, so the tree is built
//! bottom-up in batch mode "by iteratively computing sensor clusters with a
//! k-means algorithm": sensors are clustered into `⌈n/B⌉` leaves, leaf
//! centroids into the level above, and so on until at most `B` nodes remain
//! under the root. An STR (sort-tile-recursive) packing strategy — in the
//! spirit of the Kamel–Faloutsos bulk loading the paper cites — is provided
//! as an alternative for ablation.
//!
//! Large inputs are clustered with *grid-partitioned* k-means: the plane is
//! divided into cells of a few thousand points and Lloyd's algorithm runs
//! within each cell with a proportional share of `k`. This keeps construction
//! near-linear while preserving the spatial-compactness property the paper
//! relies on (near-uniform node weights per level, Section VII-B).
//!
//! ## The assignment step
//!
//! Lloyd's assignment step asks, for every point, which centre is nearest.
//! Asking all `k` of them costs `n·k` distances a round — `k = ⌈n/B⌉`, so
//! 13 M for the 4,096-sensor level an LSM merge rebuilds. Instead the points
//! of a `lloyd_from` call are filed once into cells of at most
//! `POINTS_PER_CELL` (halved at the median of the longer side of the box the
//! halvings leave, so cells are small where points are dense — sides and
//! medians read off one `u64` key per point, its coordinates quantised with
//! one scale for both axes, the keys sorted once in each axis's order and
//! each halving's other list split to match), each with the exact bounding
//! box `b` of its `f64` points, and every round files its centres
//! in a uniform grid, `CentreGrid`, about two a grid cell. Every round
//! assigns a cell as a whole: `reach` is the largest computed `distance_sq`
//! from one of its points to the centre that point is assigned now, the
//! cell's *candidates* are the centres `CentreGrid::candidates` finds within
//! `reach` of `b`, and each point keeps, over that list, the all-centres
//! scan's answer — lowest `(distance_sq, index)` from `(∞, 0)`, each pair
//! packed into one integer `key` so a centre costs one `min`. The filed
//! points are copied into cell order once, each beside the centre it is
//! assigned now, and a cell's list is read once, each centre against every
//! point of the cell, so the points' minima are independent chains; the
//! assignments go back to point order before each update step. Before the
//! first round every point of a cell is assigned one centre,
//! `CentreGrid::start` of `b`'s centre: a near one keeps the list short.
//! About 8.5 distances and bounds a point per round on the clustered map,
//! against `k` = 410 (a unit test holds it ≤ 64).
//!
//! The search is *exact* — the same assignment as the all-centres scan for
//! every input, from any start assignment, so the same centroid sums, re-seed
//! draws, trees and shard maps, bit for bit. It rests on one fact:
//! subtraction, multiplication and addition round monotonically, so a bound
//! computed by the same operations as `distance_sq` from coordinates that
//! are no nearer is no larger *as computed*. For a cell, with `p` any of its
//! points and `d*` the scan's answer distance for `p`:
//!
//! - `d* ≤ reach`: `d*` is the least computed distance and `reach` is one
//!   of them (or more). For a centre or distance that is not finite, or one
//!   that overflows, `reach` is +∞, which closes no side and keeps every
//!   filed centre: the cell's points scan them all.
//! - Every centre at computed distance `≤ reach` from `p` is a candidate,
//!   so every centre at `d*` is, and the list's scan returns the lowest
//!   index among them — the all-centres answer. Such a centre is finite
//!   (else its distance is ∞ or NaN), so it is filed in the grid. It lies
//!   in the final block: beyond the left side every centre has
//!   `c.x ≤ left[x0] < b.min.x ≤ p.x` (the block starts at `b.min.x`'s
//!   column and `col` is monotone), so `fl(p.x − c.x) ≥ fl(b.min.x −
//!   left[x0])`, and its computed distance is at least that squared, which
//!   is `> reach` once the side is closed; likewise on the other three
//!   sides with `b`'s own edges. And `closest_sq(b, c)` — per axis the gap
//!   from `c` to `b`'s nearer edge (0 inside), squared and summed — is at
//!   most its computed distance from `p`, so the filter `≤ reach` keeps it.
//!   The filter keeps without a branch: every centre of the block is written
//!   at the list's end, and the end moves past it when its bound is at most
//!   `reach`.
//!
//! Points with a non-finite coordinate are filed in no cell and scan every
//! centre. Every centre the scan can pick is a finite one, which the grid
//! holds; the update step runs in point order, and nothing here draws from
//! the RNG. The all-centres loop survives as the `#[cfg(test)]` reference
//! the search is compared against. The cells are the same whichever way a
//! halving finds its median: the presorted lists give each half the keys
//! that selecting in place gives it (also kept as a `#[cfg(test)]`
//! reference), in another order.
//!
//! The loop hands back its groups flat (`Groups`: one list of items, a
//! counting sort by centre on the last update step's counts), in the order
//! the reference's list per centre has them: centres by index, empty ones
//! left out, members in point order. The builder's nodes are flat too: each
//! holds runs of three builder-wide lists (`Scaffold`).
//!
//! ## A merge's seeded start
//!
//! Nothing above asks where the centres came from, so one loop,
//! `lloyd_from`, runs from whatever start `start_centres` gives it. Only a
//! merge's leaf level, when clustered directly (≤ `DIRECT_KMEANS_MAX`
//! points), is seeded: from the absorbed levels' live leaf centroids, the
//! `k` heaviest, topped up by the cold start's draws, for `SEEDED_ROUNDS`
//! rounds. Every other clustering starts cold and runs `KMEANS_ROUNDS`, bit
//! for bit as before. Why, and what it measures: DESIGN §6.
//!
//! ## Parallel construction
//!
//! Grid cells are independent, so each clustering level fans its cells out
//! over a scoped thread pool ([`ColrTree::build_with_threads`]). Every cell
//! draws its k-means seed from the build RNG *in cell order before* any
//! thread starts, and results are merged back in the same order — the built
//! tree is bit-identical for a fixed `(sensors, config, seed)` regardless of
//! the thread count. Levels themselves run sequentially (level `l` clusters
//! the centroids produced by level `l+1`).

use std::ops::Range;
use std::sync::OnceLock;

use colr_geo::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::reading::{SensorId, SensorMeta};
use crate::slot_cache::SlotConfig;
use crate::time::TimeDelta;
use crate::tree::{BuildStrategy, ColrConfig, ColrTree};

/// Target branching factor `B`: a level of `n` nodes is clustered into
/// `⌈n/B⌉` parents.
const BRANCHING: usize = 10;
/// Points above this count are clustered per grid cell.
const DIRECT_KMEANS_MAX: usize = 4096;
/// Lloyd rounds of a k-means started cold.
const KMEANS_ROUNDS: usize = 8;
/// Lloyd rounds of a leaf level started from seeds.
const SEEDED_ROUNDS: usize = 3;
/// Target points per grid cell for partitioned k-means.
const TARGET_CELL: usize = 1024;

/// The machine's core count, asked of the OS once per process: the workers
/// [`ColrTree::build`] and a merge's level build may fan grid cells out
/// over, and a batch's default thread count.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl ColrTree {
    /// Bulk-builds a COLR-Tree over `sensors`, clustering grid cells on all
    /// available cores.
    ///
    /// Construction is deterministic for a given `(sensors, config, seed)`
    /// — independent of the machine's core count; the seed feeds the k-means
    /// initialisation.
    pub fn build(sensors: Vec<SensorMeta>, config: ColrConfig, seed: u64) -> ColrTree {
        Self::build_with_threads(sensors, config, seed, available_cores())
    }

    /// [`ColrTree::build`] with an explicit worker-thread count (`1` =
    /// fully sequential). The output is bit-identical across thread counts.
    pub fn build_with_threads(
        sensors: Vec<SensorMeta>,
        config: ColrConfig,
        seed: u64,
        threads: usize,
    ) -> ColrTree {
        Self::build_seeded(sensors, config, seed, threads, &[])
    }

    /// [`ColrTree::build_with_threads`] with the leaf level's k-means started
    /// from `seeds`, each a point and the number of sensors it stands for.
    pub(crate) fn build_seeded(
        sensors: Vec<SensorMeta>,
        config: ColrConfig,
        seed: u64,
        threads: usize,
        seeds: &[(Point, usize)],
    ) -> ColrTree {
        for (i, s) in sensors.iter().enumerate() {
            assert_eq!(
                s.id.index(),
                i,
                "sensor ids must be dense and in order (SensorId(i) at index i)"
            );
        }
        let t_max = sensors
            .iter()
            .map(|s| s.expiry)
            .max()
            .unwrap_or(TimeDelta::from_mins(10));
        let slot_config = SlotConfig::for_window(t_max, config.num_slots);
        let mut builder = Builder::new(seed, threads);

        if sensors.is_empty() {
            builder.push_leaf(&sensors, &[]);
        } else {
            builder.build_levels(&sensors, &config, seeds);
        }

        let tree = ColrTree::assemble(config, slot_config, t_max, sensors, builder.scaffold);
        crate::telem::trees_built().inc();
        tree
    }
}

/// One node as the builder pushes it: build-time scaffolding, named by its
/// index in [`Scaffold::nodes`] (push order: leaves first, the root last),
/// its lists runs of the scaffold's three builder-wide lists.
/// [`crate::arena::SamplingArena::flatten`] reads the finished scaffold once
/// — the node ids, levels and parent links fall out of its breadth-first
/// pass — and [`ColrTree::assemble`] drops it; nothing after the build sees
/// a `Node` or its index.
#[derive(Debug)]
pub(crate) struct Node {
    /// Minimum bounding rectangle of the descendant sensors.
    pub(crate) bbox: Rect,
    pub(crate) children: Children,
    /// Number of descendant sensors — the sampling weight `w_i`.
    pub(crate) weight: u64,
    /// The run of [`Scaffold::kinds`] holding the descendant sensor counts
    /// per sensor type, sorted by kind.
    pub(crate) kind_weights: Range<usize>,
    /// Mean historical availability of the descendant sensors.
    pub(crate) avail_mean: f64,
}

/// A scaffolding node's children: a run of [`Scaffold::children`] (builder
/// indices) or of [`Scaffold::members`] (sensors).
#[derive(Debug)]
pub(crate) enum Children {
    Internal(Range<usize>),
    Leaf(Range<usize>),
}

/// The builder's nodes and the three lists their runs index.
#[derive(Debug, Default)]
pub(crate) struct Scaffold {
    pub(crate) nodes: Vec<Node>,
    /// Every internal node's children (builder indices), run by run.
    pub(crate) children: Vec<usize>,
    /// Every leaf's sensors, run by run.
    pub(crate) members: Vec<SensorId>,
    /// Every node's `(kind, descendant sensors of that kind)` rows, run by
    /// run.
    pub(crate) kinds: Vec<(u16, u64)>,
}

impl Scaffold {
    /// The builder indices of `node`'s children (empty at a leaf).
    pub(crate) fn children(&self, node: &Node) -> &[usize] {
        match &node.children {
            Children::Internal(run) => &self.children[run.clone()],
            Children::Leaf(_) => &[],
        }
    }

    /// The sensors of a leaf (empty at an internal node).
    pub(crate) fn members(&self, node: &Node) -> &[SensorId] {
        match &node.children {
            Children::Internal(_) => &[],
            Children::Leaf(run) => &self.members[run.clone()],
        }
    }

    /// `node`'s `(kind, descendant sensors of that kind)` rows, by kind.
    pub(crate) fn kind_weights(&self, node: &Node) -> &[(u16, u64)] {
        &self.kinds[node.kind_weights.clone()]
    }
}

/// Adds `add` sensors of `kind` to the run `kinds[from..]`, kept sorted by
/// kind: the last run, so an insert shifts only its own rows.
fn merge_kind_weight(kinds: &mut Vec<(u16, u64)>, from: usize, kind: u16, add: u64) {
    match kinds[from..].binary_search_by_key(&kind, |(k, _)| *k) {
        Ok(i) => kinds[from + i].1 += add,
        Err(i) => kinds.insert(from + i, (kind, add)),
    }
}

/// Groups of items as one flat list: group `g` is
/// `items[ends[g - 1]..ends[g]]` (from 0 for the first).
#[derive(Debug, Default)]
struct Groups {
    items: Vec<usize>,
    ends: Vec<usize>,
}

impl Groups {
    /// Appends a group.
    fn push(&mut self, group: impl IntoIterator<Item = usize>) {
        self.items.extend(group);
        self.ends.push(self.items.len());
    }

    /// The groups in order.
    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let group = &self.items[start..end];
            start = end;
            group
        })
    }
}

struct Builder {
    scaffold: Scaffold,
    rng: StdRng,
    threads: usize,
}

impl Builder {
    fn new(seed: u64, threads: usize) -> Builder {
        Builder {
            scaffold: Scaffold::default(),
            rng: StdRng::seed_from_u64(seed),
            threads: threads.max(1),
        }
    }

    /// Pushes the leaf over sensors `members` (indices into `sensors`).
    fn push_leaf(&mut self, sensors: &[SensorMeta], members: &[usize]) -> usize {
        let s = &mut self.scaffold;
        let id = s.nodes.len();
        let start = s.members.len();
        s.members
            .extend(members.iter().map(|&i| SensorId(i as u32)));
        let bbox = bounding(members.iter().map(|&i| &sensors[i].location))
            .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 0.0, 0.0));
        let weight = members.len() as u64;
        let avail_mean = if members.is_empty() {
            1.0
        } else {
            members
                .iter()
                .map(|&i| sensors[i].availability)
                .sum::<f64>()
                / members.len() as f64
        };
        let kinds = s.kinds.len();
        for &i in members {
            merge_kind_weight(&mut s.kinds, kinds, sensors[i].kind, 1);
        }
        s.nodes.push(Node {
            bbox,
            children: Children::Leaf(start..s.members.len()),
            weight,
            kind_weights: kinds..s.kinds.len(),
            avail_mean,
        });
        id
    }

    /// Pushes the internal node over `members` (builder indices).
    fn push_internal(&mut self, members: impl IntoIterator<Item = usize>) -> usize {
        let s = &mut self.scaffold;
        let id = s.nodes.len();
        let start = s.children.len();
        s.children.extend(members);
        let (run, nodes) = (&s.children[start..], &s.nodes);
        debug_assert!(
            !run.is_empty(),
            "no group is empty: `lloyd_from` drops them, `str_pack` and `grid_kmeans` make none"
        );
        let bbox = Rect::bounding_rects(run.iter().map(|&m| &nodes[m].bbox))
            .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 0.0, 0.0));
        let weight: u64 = run.iter().map(|&m| nodes[m].weight).sum();
        let avail_mean = if weight == 0 {
            1.0
        } else {
            run.iter()
                .map(|&m| {
                    let n = &nodes[m];
                    n.avail_mean * n.weight as f64
                })
                .sum::<f64>()
                / weight as f64
        };
        // The children's rows all lie before `kinds`, which only this run
        // grows past.
        let kinds = s.kinds.len();
        for &m in run {
            for row in nodes[m].kind_weights.clone() {
                let (kind, add) = s.kinds[row];
                merge_kind_weight(&mut s.kinds, kinds, kind, add);
            }
        }
        s.nodes.push(Node {
            bbox,
            children: Children::Internal(start..s.children.len()),
            weight,
            kind_weights: kinds..s.kinds.len(),
            avail_mean,
        });
        id
    }

    /// Pushes every level, leaves first, the root last. The leaf level's
    /// k-means starts from the `k` heaviest of `seeds`.
    fn build_levels(
        &mut self,
        sensors: &[SensorMeta],
        config: &ColrConfig,
        seeds: &[(Point, usize)],
    ) {
        let b = BRANCHING;
        // --- Leaf level ---
        let points: Vec<Point> = sensors.iter().map(|s| s.location).collect();
        let ids: Vec<usize> = (0..sensors.len()).collect();
        let k = sensors.len().div_ceil(b).max(1);
        let groups = self.group(&points, &ids, k, config.build, &heaviest(seeds, k));
        let mut current: Vec<usize> = groups
            .iter()
            .map(|members| self.push_leaf(sensors, members))
            .collect();

        // --- Internal levels ---
        while current.len() > b {
            let centroids: Vec<Point> = current
                .iter()
                .map(|&id| self.scaffold.nodes[id].bbox.center())
                .collect();
            let idxs: Vec<usize> = (0..current.len()).collect();
            let k = current.len().div_ceil(b).max(1);
            let groups = self.group(&centroids, &idxs, k, config.build, &[]);
            current = groups
                .iter()
                .map(|members| self.push_internal(members.iter().map(|&i| current[i])))
                .collect();
        }
        if current.len() > 1 {
            self.push_internal(current);
        }
    }

    /// Clusters `items` (parallel to `points`) into at most `k` non-empty
    /// groups. Given `seeds`, a direct k-means starts from them and runs
    /// [`SEEDED_ROUNDS`] rounds.
    fn group(
        &mut self,
        points: &[Point],
        items: &[usize],
        k: usize,
        strategy: BuildStrategy,
        seeds: &[Point],
    ) -> Groups {
        debug_assert_eq!(points.len(), items.len());
        if k <= 1 || points.len() <= 1 {
            return Groups {
                items: items.to_vec(),
                ends: vec![items.len()],
            };
        }
        match strategy {
            BuildStrategy::KMeans => {
                if points.len() > DIRECT_KMEANS_MAX {
                    self.grid_kmeans(points, items, k)
                } else {
                    let rounds = match seeds {
                        [] => KMEANS_ROUNDS,
                        _ => SEEDED_ROUNDS,
                    };
                    let rng = &mut self.rng;
                    let centers = start_centres(points, k, seeds, rng);
                    lloyd_from(points, items, centers, rounds, rng, POINTS_PER_CELL)
                }
            }
            BuildStrategy::Str => str_pack(points, items, k),
        }
    }

    /// Grid-partitioned k-means for large inputs: cluster each spatial cell
    /// independently with a proportional share of `k`, fanning the cells out
    /// over `self.threads` scoped workers.
    ///
    /// Determinism: every cell's RNG seed is drawn from the build RNG in cell
    /// order before any worker starts, and each worker writes its cells'
    /// groups into their own places of one output in cell order, so the
    /// grouping does not depend on the thread count or scheduling.
    fn grid_kmeans(&mut self, points: &[Point], items: &[usize], k: usize) -> Groups {
        debug_assert!(points.len() > DIRECT_KMEANS_MAX);
        let n = points.len();
        let Some(bbox) = Rect::bounding(points) else {
            return Groups::default();
        };
        let g = ((n as f64 / TARGET_CELL as f64).sqrt().ceil() as usize).max(1);
        let w = bbox.width().max(f64::MIN_POSITIVE);
        let h = bbox.height().max(f64::MIN_POSITIVE);
        // Counting sort by cell: one gathered copy of `points` / `items` that
        // every cell's job borrows its run of (input order within a cell).
        let cell_of: Vec<usize> = points
            .iter()
            .map(|p| {
                let cx = (((p.x - bbox.min.x) / w * g as f64) as usize).min(g - 1);
                let cy = (((p.y - bbox.min.y) / h * g as f64) as usize).min(g - 1);
                cy * g + cx
            })
            .collect();
        let mut starts = vec![0usize; g * g + 1];
        for &c in &cell_of {
            starts[c] += 1;
        }
        let mut end = 0;
        for s in starts.iter_mut() {
            end += *s;
            *s = end;
        }
        let mut cell_points = vec![Point::new(0.0, 0.0); n];
        let mut cell_items = vec![0usize; n];
        for i in (0..n).rev() {
            let at = &mut starts[cell_of[i]];
            *at -= 1;
            cell_points[*at] = points[i];
            cell_items[*at] = items[i];
        }
        struct Job<'a> {
            points: &'a [Point],
            items: &'a [usize],
            share: usize,
            seed: u64,
        }
        let jobs: Vec<Job> = starts
            .windows(2)
            .filter(|cell| cell[1] > cell[0])
            .map(|cell| Job {
                points: &cell_points[cell[0]..cell[1]],
                items: &cell_items[cell[0]..cell[1]],
                share: ((k as f64 * (cell[1] - cell[0]) as f64 / n as f64).round() as usize)
                    .clamp(1, cell[1] - cell[0]),
                seed: self.rng.next_u64(),
            })
            .collect();

        // Each batch of jobs fills its own places of `per_cell`; a worker's
        // panic is re-raised where the scope joins it.
        let run = |batch: &[Job], out: &mut [Groups]| {
            for (job, out) in batch.iter().zip(out) {
                let mut rng = StdRng::seed_from_u64(job.seed);
                *out = lloyd(job.points, job.items, job.share, &mut rng);
            }
        };
        let mut per_cell: Vec<Groups> = Vec::new();
        per_cell.resize_with(jobs.len(), Groups::default);
        if self.threads <= 1 || jobs.len() <= 1 {
            run(&jobs, &mut per_cell);
        } else {
            let chunk = jobs.len().div_ceil(self.threads);
            std::thread::scope(|scope| {
                for (batch, out) in jobs.chunks(chunk).zip(per_cell.chunks_mut(chunk)) {
                    scope.spawn(move || run(batch, out));
                }
            });
        }
        let mut groups = Groups::default();
        for group in per_cell.iter().flat_map(Groups::iter) {
            groups.push(group.iter().copied());
        }
        groups
    }
}

/// Clusters `points` into at most `k` non-empty spatial groups using the
/// same Lloyd's k-means the bulk build runs per level, returning the point
/// indices of each group (indices ascending within a group, groups ordered
/// by their smallest member).
///
/// This is the shard-map primitive: a sharded portal partitions its sensor
/// population with exactly the clustering the tree itself is built from, so
/// shard extents line up with the index's own notion of spatial locality.
/// Deterministic for a given `(points, k, seed)`.
pub fn kmeans_partition(points: &[Point], k: usize, seed: u64) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let items: Vec<usize> = (0..n).collect();
    if k <= 1 || n <= 1 {
        return vec![items];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups: Vec<Vec<usize>> = lloyd(points, &items, k, &mut rng)
        .iter()
        .map(<[usize]>::to_vec)
        .collect();
    // `lloyd` keeps members in input order (ascending); order the groups
    // themselves by first member so shard numbering is stable to read.
    groups.sort_by_key(|g| g[0]);
    groups
}

/// Plain Lloyd's k-means with random distinct seeding, [`KMEANS_ROUNDS`]
/// rounds.
fn lloyd(points: &[Point], items: &[usize], k: usize, rng: &mut StdRng) -> Groups {
    let centers = start_centres(points, k, &[], rng);
    lloyd_from(points, items, centers, KMEANS_ROUNDS, rng, POINTS_PER_CELL)
}

/// The points of the `k` heaviest `seeds` (ties to the earlier), in the
/// order given.
fn heaviest(seeds: &[(Point, usize)], k: usize) -> Vec<Point> {
    let mut rank: Vec<usize> = (0..seeds.len()).collect();
    rank.sort_by_key(|&i| std::cmp::Reverse(seeds[i].1));
    rank.truncate(k);
    rank.sort_unstable();
    rank.iter().map(|&i| seeds[i].0).collect()
}

/// The `min(k, n)` centres Lloyd's loop starts from: the first of `seeds`,
/// then distinct points of `points` drawn by a partial Fisher–Yates (with
/// no seeds, the cold start). The draw order is built only to draw from.
fn start_centres(points: &[Point], k: usize, seeds: &[Point], rng: &mut StdRng) -> Vec<Point> {
    let n = points.len();
    let k = k.min(n);
    let mut centers = seeds[..seeds.len().min(k)].to_vec();
    let draws = k - centers.len();
    if draws > 0 {
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..draws {
            let j = rng.random_range(i..n);
            order.swap(i, j);
        }
        centers.extend(order[..draws].iter().map(|&i| points[i]));
    }
    centers
}

/// Lloyd's loop from `centers`: `rounds` (at least one) assignment and
/// update steps, with the assignment step's cells holding at most
/// `per_cell` points each — a parameter so the tests can take cells down to
/// one point. Exact for any start. The groups are the centres' in index
/// order, empty ones left out, members in point order.
fn lloyd_from(
    points: &[Point],
    items: &[usize],
    mut centers: Vec<Point>,
    rounds: usize,
    rng: &mut StdRng,
    per_cell: usize,
) -> Groups {
    let n = points.len();
    let k = centers.len();
    // The first assignment step overwrites `assign` whole.
    let mut assign = vec![0usize; n];
    let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
    let mut grid = CentreGrid::default();
    let cells = PointCells::file(points, per_cell);
    // The filed points copied into cell order once, each beside the centre
    // it is assigned now: a cell's passes read one contiguous run.
    let filed: Vec<Point> = cells.order.iter().map(|&i| points[i as usize]).collect();
    let mut near = vec![0u32; filed.len()];
    let (mut candidates, mut best) = (Vec::new(), Vec::new());
    for round in 0..rounds.max(1) {
        // Assignment step, a cell at a time: no point of a cell is farther
        // from its nearest centre than from the one it is assigned now, so
        // its points scan the centres within that `reach` of the cell's box.
        // Before the first round a cell's points are assigned one start.
        grid.rebuild(&centers);
        for (bbox, run) in &cells.cells {
            let (at, near) = (&filed[run.clone()], &mut near[run.clone()]);
            if round == 0 {
                near.fill(grid.start(&bbox.center()) as u32);
            }
            count_distances(at.len());
            // A computed distance is +0 or more, +∞ or NaN, whose bits order
            // as the values do with NaN above +∞: their largest, capped at
            // +∞, is the largest distance, or +∞ when any is NaN.
            let mut reach = 0u64;
            for (p, &c) in at.iter().zip(near.iter()) {
                reach = reach.max(p.distance_sq(&centers[c as usize]).to_bits());
            }
            let reach = f64::from_bits(reach.min(f64::INFINITY.to_bits()));
            let list = grid.candidates(bbox, reach, &mut candidates);
            // Each point keeps its lowest key over the list, read once: a
            // centre is scanned against every point of the cell in turn, so
            // the points' minima are independent chains.
            count_distances(list.len() * at.len());
            best.clear();
            best.resize(at.len(), UNSEEN);
            for &(centre, i) in list {
                for (p, best) in at.iter().zip(best.iter_mut()) {
                    *best = (*best).min(key(p.distance_sq(&centre), i));
                }
            }
            for (c, &best) in near.iter_mut().zip(&best) {
                *c = centre_of(best) as u32;
            }
        }
        // Back to point order, which the update step sums in.
        for (&i, &c) in cells.order.iter().zip(&near) {
            assign[i as usize] = c as usize;
        }
        for &i in &cells.wild {
            assign[i as usize] = nearest_in(&grid.slots, &points[i as usize]);
        }
        // Update step (sums in point order).
        sums.fill((0.0, 0.0, 0));
        for (i, p) in points.iter().enumerate() {
            let s = &mut sums[assign[i]];
            s.0 += p.x;
            s.1 += p.y;
            s.2 += 1;
        }
        for (c, center) in centers.iter_mut().enumerate() {
            let (sx, sy, cnt) = sums[c];
            if cnt > 0 {
                *center = Point::new(sx / cnt as f64, sy / cnt as f64);
            } else {
                // Re-seed empty cluster at a random point.
                *center = points[rng.random_range(0..n)];
            }
        }
    }
    // Counting sort by centre: the last update step counted each centre's
    // members, and each count becomes the centre's cursor into `items`.
    let mut groups = Groups {
        items: vec![0; n],
        ends: Vec::with_capacity(k),
    };
    let mut end = 0;
    for s in &mut sums {
        let count = s.2;
        s.2 = end;
        end += count;
        if count > 0 {
            groups.ends.push(end);
        }
    }
    for (i, &a) in assign.iter().enumerate() {
        let at = &mut sums[a].2;
        groups.items[*at] = items[i];
        *at += 1;
    }
    groups
}

/// Points per cell of [`PointCells`] in the build (at most; at least half).
const POINTS_PER_CELL: usize = 8;

/// The points of one [`lloyd`] call, filed once into cells of at most a
/// given number by halving at the median of the longer side (so a cell is
/// small where the points are dense), each cell with the exact bounding box
/// of its points: the box its candidate lists are found for. The halvings
/// run on one `u64` key per point — both coordinates quantised to
/// [`QUANT_BITS`] over the filed box, the point's index in the low 32 bits
/// — and the sides they compare are those of the quantised box the halvings
/// leave; only a finished cell is boxed from its `f64` points.
struct PointCells {
    /// Per cell: its points' bounding box and the run of `order` listing
    /// them.
    cells: Vec<(Rect, Range<usize>)>,
    /// Point indices, cell by cell.
    order: Vec<u32>,
    /// Points with a non-finite coordinate, in no cell: they scan every
    /// centre.
    wild: Vec<u32>,
}

/// Bits of each quantised coordinate of a [`PointCells`] filing key.
const QUANT_BITS: u32 = 16;
/// The largest quantised coordinate.
const QUANT_MAX: u64 = (1 << QUANT_BITS) - 1;
/// Where a filing key holds its quantised x and y.
const AXIS_SHIFT: [u32; 2] = [64 - QUANT_BITS, 64 - 2 * QUANT_BITS];

impl PointCells {
    fn file(points: &[Point], per_cell: usize) -> PointCells {
        let (mut by_x, wild, span) = filing_keys(points);
        let mut cells = Vec::new();
        if !by_x.is_empty() {
            // The keys in each axis's order, sorted once: `by_y` by the y
            // field then the index, `by_x` by the whole key.
            let mut by_y = vec![0; by_x.len()];
            let mut scratch = vec![0; by_x.len()];
            sort_by_field(&by_x, &mut by_y, AXIS_SHIFT[1], &mut scratch);
            sort_by_field(&by_y, &mut by_x, AXIS_SHIFT[0], &mut scratch);
            let mut halving = Halving {
                points,
                per_cell: per_cell.max(1),
                cells: &mut cells,
                scratch,
            };
            halving.split(&mut by_x, &mut by_y, span, 0);
        }
        let order = by_x.iter().map(|&key| key as u32).collect();
        PointCells { cells, order, wild }
    }
}

/// The filing key of every point with finite coordinates, in point order;
/// the points with a non-finite one; and per axis the span of the keys'
/// quantised field.
fn filing_keys(points: &[Point]) -> (Vec<u64>, Vec<u32>, [(u64, u64); 2]) {
    let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
    let mut wild = Vec::new();
    let mut keys = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        if finite(p) {
            keys.push(i as u64);
        } else {
            wild.push(i as u32);
        }
    }
    let Some(bbox) = bounding(keys.iter().map(|&i| &points[i as usize])) else {
        return (keys, wild, [(0, 0); 2]);
    };
    // One scale for both axes, so quantised sides compare as the real sides
    // do. A cast saturates (NaN to 0), so every key's fields are in range
    // whatever the box.
    let side = bbox.width().max(bbox.height());
    let scale = if side > 0.0 {
        QUANT_MAX as f64 / side
    } else {
        0.0
    };
    let quantise = |v: f64, from: f64| (((v - from) * scale) as u64).min(QUANT_MAX);
    for key in &mut keys {
        let p = &points[*key as usize];
        *key |=
            quantise(p.x, bbox.min.x) << AXIS_SHIFT[0] | quantise(p.y, bbox.min.y) << AXIS_SHIFT[1];
    }
    let span = [
        (0, quantise(bbox.max.x, bbox.min.x)),
        (0, quantise(bbox.max.y, bbox.min.y)),
    ];
    (keys, wild, span)
}

/// Sorts `keys` into `out` by their quantised field at `shift`, equal fields
/// in the order given: two counting passes over a byte each, the first into
/// `low`.
fn sort_by_field(keys: &[u64], out: &mut [u64], shift: u32, low: &mut [u64]) {
    let byte = |key: u64, pass: u32| (key >> (shift + 8 * pass)) as u8 as usize;
    let mut ends = [[0usize; 256]; 2];
    for &key in keys {
        ends[0][byte(key, 0)] += 1;
        ends[1][byte(key, 1)] += 1;
    }
    for ends in &mut ends {
        let mut end = 0;
        for at in ends.iter_mut() {
            end += *at;
            *at = end;
        }
    }
    // Last to first, so each run keeps the order it was read in.
    let mut pass = |pass: usize, from: &[u64], to: &mut [u64]| {
        for &key in from.iter().rev() {
            let at = &mut ends[pass][byte(key, pass as u32)];
            *at -= 1;
            to[*at] = key;
        }
    };
    pass(0, keys, low);
    pass(1, low, out);
}

/// The halvings of a [`PointCells`] filing and where they file.
struct Halving<'a> {
    points: &'a [Point],
    per_cell: usize,
    cells: &'a mut Vec<(Rect, Range<usize>)>,
    /// Where a halving partitions the other axis's list.
    scratch: Vec<u64>,
}

impl Halving<'_> {
    /// Files one run — `order[from..]` to be, its keys inside `span` (per
    /// axis, the lowest and highest quantised coordinate it may hold), in
    /// key order in `by_x` and by the y field then the index in `by_y` — as
    /// one cell under the exact bounding box of its points when it holds at
    /// most `per_cell`, else halves it at the median of `span`'s longer side
    /// and files each half inside its side of the cut. The halves of the cut
    /// axis's list are its two ends; the other list is split to match by a
    /// stable partition, so both stay in their orders.
    fn split(&mut self, by_x: &mut [u64], by_y: &mut [u64], span: [(u64, u64); 2], from: usize) {
        let n = by_x.len();
        if n <= self.per_cell {
            let points = by_x.iter().map(|&key| &self.points[key as u32 as usize]);
            if let Some(exact) = bounding(points) {
                self.cells.push((exact, from..from + n));
            }
            return;
        }
        let mid = n / 2;
        let axis = usize::from(span[0].1 - span[0].0 < span[1].1 - span[1].0);
        let (cut_list, other) = match axis {
            0 => (&*by_x, &mut *by_y),
            _ => (&*by_y, &mut *by_x),
        };
        // A key orders by its x field first, and shifted up past that field
        // by its y field first: either order is the field's, ties broken.
        let order = |key: u64| key << (QUANT_BITS * axis as u32);
        let median = cut_list[mid];
        let cut = (median >> AXIS_SHIFT[axis]) & QUANT_MAX;
        let scratch = &mut self.scratch[..n];
        let (mut lower, mut upper) = (0, mid);
        for &key in other.iter() {
            let up = order(key) >= order(median);
            scratch[if up { upper } else { lower }] = key;
            lower += usize::from(!up);
            upper += usize::from(up);
        }
        other.copy_from_slice(scratch);
        let (mut low, mut high) = (span, span);
        (low[axis].1, high[axis].0) = (cut, cut);
        let (x_low, x_high) = by_x.split_at_mut(mid);
        let (y_low, y_high) = by_y.split_at_mut(mid);
        self.split(x_low, y_low, low, from);
        self.split(x_high, y_high, high, from + mid);
    }
}

/// The bounding box of `points`, `None` when there are none.
fn bounding<'a>(mut points: impl Iterator<Item = &'a Point>) -> Option<Rect> {
    let mut bbox = Rect::point(*points.next()?);
    points.for_each(|p| bbox.expand_to_point(p));
    Some(bbox)
}

/// The candidate scan: the lowest `(distance_sq, index)` of `p` over `run`
/// from `(∞, 0)` — the all-centres scan's answer, when `run` holds every
/// centre that scan could pick.
#[inline]
fn nearest_in(run: &[(Point, u32)], p: &Point) -> usize {
    let mut best = UNSEEN;
    scan(run, p, &mut best);
    centre_of(best)
}

/// A scan's `(distance_sq, index)` as one integer: the distance's bits
/// above the index. A computed `distance_sq` is +0 or more, +∞ or NaN, and
/// the bits of those order as the values do with every NaN above +∞, so the
/// lowest key is the lowest `(distance_sq, index)` and a NaN never wins.
#[inline]
const fn key(d: f64, index: u32) -> u128 {
    ((d.to_bits() as u128) << 64) | index as u128
}

/// The key a scan starts from: `(∞, 0)`.
const UNSEEN: u128 = key(f64::INFINITY, 0);

/// The centre index a scan's key names.
#[inline]
fn centre_of(best: u128) -> usize {
    best as u32 as usize
}

/// Keeps the lowest `(distance_sq, index)` key of `p` seen over `run`.
#[inline]
fn scan(run: &[(Point, u32)], p: &Point, best: &mut u128) {
    count_distances(run.len());
    for &(center, i) in run {
        *best = (*best).min(key(p.distance_sq(&center), i));
    }
}

/// No computed `distance_sq` from a point of `b` to `c` is below this: per
/// axis, the gap from `c` to `b`'s nearer side (0 inside), squared and
/// summed as `distance_sq` does. Each gap is a comparison's pick, which
/// compiles to a `max` without a branch.
#[inline]
fn closest_sq(b: &Rect, c: &Point) -> f64 {
    count_distances(1);
    let gap = |below: f64, above: f64| {
        let gap = if below > above { below } else { above };
        if gap > 0.0 {
            gap
        } else {
            0.0
        }
    };
    let gx = gap(b.min.x - c.x, c.x - b.max.x);
    let gy = gap(b.min.y - c.y, c.y - b.max.y);
    gx * gx + gy * gy
}

/// Counts `n` distances (or bounds on one) evaluated on this thread, for the
/// test that holds the assignment step to a fraction of the centres.
#[inline]
fn count_distances(n: usize) {
    #[cfg(test)]
    tests::DISTANCES_EVALUATED.with(|d| d.set(d.get() + n as u64));
    let _ = n;
}

/// The centres of one Lloyd round in a uniform grid, for the assignment
/// step's start and candidate lists.
///
/// Buffers are reused across [`CentreGrid::rebuild`]s.
#[derive(Default)]
struct CentreGrid {
    cols: usize,
    rows: usize,
    /// Minimum corner of the finite centres' bounding box.
    origin: Point,
    /// Columns (rows) per unit of x (y); 0 along an axis with no spread.
    per_x: f64,
    per_y: f64,
    /// CSR cell lists: cell `c = row * cols + col` holds
    /// `slots[starts[c]..starts[c + 1]]`, centre indices ascending.
    starts: Vec<u32>,
    /// A centre's location beside its index, so a cell scans contiguously:
    /// every finite centre, so every one the all-centres scan can pick.
    slots: Vec<(Point, u32)>,
    /// Scratch of `rebuild`: each centre's cell ([`NO_CELL`] if not finite).
    cell_of: Vec<u32>,
    /// `left[c]`: the largest x of any centre in a column before `c`;
    /// `right[c]`: the smallest x of any centre in a column after `c`;
    /// `below` / `above` likewise per row. ∓∞ where there is none.
    left: Vec<f64>,
    right: Vec<f64>,
    below: Vec<f64>,
    above: Vec<f64>,
}

/// [`CentreGrid::cell_of`] of a centre with a non-finite coordinate. Its
/// distance to anything is ∞ or NaN, whose key is never below a scan's start.
const NO_CELL: u32 = u32::MAX;

impl CentreGrid {
    /// Grid column of `x`. Non-decreasing in `x` over all finite `x` (each
    /// step — subtract, scale by a non-negative, truncate, clamp — is), which
    /// is the one property [`CentreGrid::candidates`]'s bounds rest on.
    #[inline]
    fn col(&self, x: f64) -> usize {
        (((x - self.origin.x) * self.per_x) as usize).min(self.cols - 1)
    }

    #[inline]
    fn row(&self, y: f64) -> usize {
        (((y - self.origin.y) * self.per_y) as usize).min(self.rows - 1)
    }

    /// Re-files `centers`: about two per cell over their bounding box, one
    /// column (row) along an axis they do not spread on.
    fn rebuild(&mut self, centers: &[Point]) {
        let finite = |c: &Point| c.x.is_finite() && c.y.is_finite();
        let (mut lo, mut hi) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        let mut filed = 0usize;
        for c in centers.iter().filter(|c| finite(c)) {
            lo = Point::new(lo.x.min(c.x), lo.y.min(c.y));
            hi = Point::new(hi.x.max(c.x), hi.y.max(c.y));
            filed += 1;
        }
        let g = ((filed as f64 / 2.0).sqrt().ceil() as usize).max(1);
        let (w, h) = (hi.x - lo.x, hi.y - lo.y);
        self.origin = lo;
        (self.cols, self.per_x) = if w > 0.0 { (g, g as f64 / w) } else { (1, 0.0) };
        (self.rows, self.per_y) = if h > 0.0 { (g, g as f64 / h) } else { (1, 0.0) };
        let (cols, rows) = (self.cols, self.rows);

        // Pass 1: each centre's cell, the cell counts, and per column (row)
        // the extreme coordinates filed in it.
        for (edge, len, fill) in [
            (&mut self.left, cols, f64::NEG_INFINITY),
            (&mut self.right, cols, f64::INFINITY),
            (&mut self.below, rows, f64::NEG_INFINITY),
            (&mut self.above, rows, f64::INFINITY),
        ] {
            edge.clear();
            edge.resize(len, fill);
        }
        self.starts.clear();
        self.starts.resize(cols * rows + 1, 0);
        self.cell_of.clear();
        for c in centers {
            if !finite(c) {
                self.cell_of.push(NO_CELL);
                continue;
            }
            let (cx, cy) = (self.col(c.x), self.row(c.y));
            self.left[cx] = self.left[cx].max(c.x);
            self.right[cx] = self.right[cx].min(c.x);
            self.below[cy] = self.below[cy].max(c.y);
            self.above[cy] = self.above[cy].min(c.y);
            let cell = cy * cols + cx;
            self.starts[cell] += 1;
            self.cell_of.push(cell as u32);
        }
        // A column's own extremes become those of the columns strictly
        // before (after) it.
        fn beyond<'a>(
            own: impl Iterator<Item = &'a mut f64>,
            none: f64,
            pick: fn(f64, f64) -> f64,
        ) {
            let mut run = none;
            for own in own {
                run = pick(run, std::mem::replace(own, run));
            }
        }
        beyond(self.left.iter_mut(), f64::NEG_INFINITY, f64::max);
        beyond(self.right.iter_mut().rev(), f64::INFINITY, f64::min);
        beyond(self.below.iter_mut(), f64::NEG_INFINITY, f64::max);
        beyond(self.above.iter_mut().rev(), f64::INFINITY, f64::min);
        // Pass 2: counts to cell ends, then file the centres last to first,
        // which leaves `starts` at the cell starts and each cell ascending.
        let mut end = 0u32;
        for s in self.starts.iter_mut() {
            end += *s;
            *s = end;
        }
        self.slots.clear();
        self.slots.resize(filed, (Point::new(0.0, 0.0), 0));
        for (i, &cell) in self.cell_of.iter().enumerate().rev() {
            if cell != NO_CELL {
                let at = &mut self.starts[cell as usize];
                *at -= 1;
                self.slots[*at as usize] = (centers[i], i as u32);
            }
        }
    }

    /// The centres filed in cells `from..=to` of one row (adjacent in
    /// `slots`).
    #[inline]
    fn run(&self, from: usize, to: usize) -> &[(Point, u32)] {
        &self.slots[self.starts[from] as usize..self.starts[to + 1] as usize]
    }

    /// The start assignment of a cell of points whose box centre is `p`:
    /// of the centres in the first ring of grid cells around `p`'s own that
    /// holds any, the one nearest `p` (0 when no centre is filed).
    fn start(&self, p: &Point) -> usize {
        let cols = self.cols;
        let (cx, cy) = (self.col(p.x), self.row(p.y));
        let mut best = UNSEEN;
        for ring in 0..cols.max(self.rows) {
            // The rings inside this one hold no centre, so the block they
            // make with it holds what the ring does.
            let (x0, x1) = (cx.saturating_sub(ring), (cx + ring).min(cols - 1));
            let mut found = false;
            for y in cy.saturating_sub(ring)..=(cy + ring).min(self.rows - 1) {
                let run = self.run(y * cols + x0, y * cols + x1);
                found |= !run.is_empty();
                scan(run, p, &mut best);
            }
            if found {
                break;
            }
        }
        centre_of(best)
    }

    /// The centres that can be within `reach` of a point of `b` by computed
    /// `distance_sq` — every one that is, and some that are not — written
    /// into `out`, which is grown to the filed centres' count. A `reach` of
    /// +∞ closes no side and keeps every filed centre: the scan over all of
    /// them that a non-finite distance calls for.
    ///
    /// The block of cells starts at those `b` spans and grows on each side
    /// until the side is closed: `(b.min.x − left[x0])²`, computed as
    /// `distance_sq` computes, is a bound on the distance from `b` to every
    /// centre beyond the left side, and the side closes when it is
    /// *strictly* above `reach` (likewise on the other three sides). Every
    /// centre of the block is written at the list's end, and the end moves
    /// past it when its [`closest_sq`] is at most `reach`: a keep without a
    /// branch, never past the centres written.
    fn candidates<'a>(
        &self,
        b: &Rect,
        reach: f64,
        out: &'a mut Vec<(Point, u32)>,
    ) -> &'a [(Point, u32)] {
        let cols = self.cols;
        let (mut x0, mut x1) = (self.col(b.min.x), self.col(b.max.x));
        let (mut y0, mut y1) = (self.row(b.min.y), self.row(b.max.y));
        let closed = |edge: f64, at: f64| {
            let gap = at - edge;
            gap * gap > reach
        };
        while x0 > 0 && !closed(self.left[x0], b.min.x) {
            x0 -= 1;
        }
        while x1 + 1 < cols && !closed(self.right[x1], b.max.x) {
            x1 += 1;
        }
        while y0 > 0 && !closed(self.below[y0], b.min.y) {
            y0 -= 1;
        }
        while y1 + 1 < self.rows && !closed(self.above[y1], b.max.y) {
            y1 += 1;
        }
        if out.len() < self.slots.len() {
            out.resize(self.slots.len(), (Point::new(0.0, 0.0), 0));
        }
        let mut kept = 0;
        for y in y0..=y1 {
            for &centre in self.run(y * cols + x0, y * cols + x1) {
                out[kept] = centre;
                kept += usize::from(closest_sq(b, &centre.0) <= reach);
            }
        }
        &out[..kept]
    }
}

/// Sort-tile-recursive packing into `k` groups.
fn str_pack(points: &[Point], items: &[usize], k: usize) -> Groups {
    let n = points.len();
    let k = k.min(n).max(1);
    let group_size = n.div_ceil(k);
    let slabs = (k as f64).sqrt().ceil() as usize;
    let slab_size = n.div_ceil(slabs);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .x
            .partial_cmp(&points[b].x)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut groups = Groups::default();
    for slab in order.chunks_mut(slab_size.max(1)) {
        slab.sort_by(|&a, &b| {
            points[a]
                .y
                .partial_cmp(&points[b].y)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for chunk in slab.chunks(group_size.max(1)) {
            groups.push(chunk.iter().map(|&i| items[i]));
        }
    }
    groups
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tree::{BuildStrategy, NodeId};

    thread_local! {
        /// Distances (and bounds on one) the assignment step has evaluated
        /// on this thread.
        pub(super) static DISTANCES_EVALUATED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn grid_sensors(side: usize) -> Vec<SensorMeta> {
        let mut out = Vec::new();
        for y in 0..side {
            for x in 0..side {
                out.push(SensorMeta::new(
                    (y * side + x) as u32,
                    Point::new(x as f64, y as f64),
                    TimeDelta::from_mins(5),
                    0.9,
                ));
            }
        }
        out
    }

    #[test]
    fn builds_valid_tree_kmeans() {
        let tree = ColrTree::build(grid_sensors(20), ColrConfig::default(), 42);
        tree.validate().expect("valid tree");
        assert_eq!(tree.sensors().len(), 400);
        assert_eq!(tree.node(tree.root()).weight, 400);
        assert!(tree.leaf_level() >= 1);
    }

    #[test]
    fn builds_valid_tree_str() {
        let config = ColrConfig {
            build: BuildStrategy::Str,
            ..Default::default()
        };
        let tree = ColrTree::build(grid_sensors(20), config, 42);
        tree.validate().expect("valid tree");
        assert_eq!(tree.node(tree.root()).weight, 400);
    }

    #[test]
    fn empty_tree_is_valid() {
        let tree = ColrTree::build(Vec::new(), ColrConfig::default(), 1);
        tree.validate().expect("valid empty tree");
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.node(tree.root()).weight, 0);
    }

    #[test]
    fn single_sensor_tree() {
        let sensors = vec![SensorMeta::new(
            0,
            Point::new(1.0, 2.0),
            TimeDelta::from_mins(5),
            1.0,
        )];
        let tree = ColrTree::build(sensors, ColrConfig::default(), 1);
        tree.validate().expect("valid");
        assert_eq!(tree.node(tree.root()).weight, 1);
        assert_eq!(tree.leaf_level(), 0);
        assert!(tree.node(tree.root()).is_leaf());
    }

    #[test]
    #[should_panic(expected = "dense and in order")]
    fn rejects_sparse_sensor_ids() {
        let sensors = vec![SensorMeta::new(
            5,
            Point::new(0.0, 0.0),
            TimeDelta::from_mins(5),
            1.0,
        )];
        ColrTree::build(sensors, ColrConfig::default(), 1);
    }

    #[test]
    fn t_max_is_max_sensor_expiry() {
        let mut sensors = grid_sensors(3);
        sensors[4].expiry = TimeDelta::from_mins(42);
        let tree = ColrTree::build(sensors, ColrConfig::default(), 1);
        assert_eq!(tree.t_max(), TimeDelta::from_mins(42));
    }

    /// The arena against the scaffolding it was flattened from: every field
    /// the builder decided, bit for bit, and what the flattening pass adds —
    /// breadth-first ids (the root 0, each node's children the next run, in
    /// builder order), depths, parent links.
    #[test]
    fn flatten_keeps_every_field_of_the_builders_nodes() {
        let mut sensors = grid_sensors(12);
        for (i, s) in sensors.iter_mut().enumerate() {
            s.kind = (i % 3) as u16;
        }
        let mut builder = Builder::new(7, 1);
        builder.build_levels(&sensors, &ColrConfig::default(), &[]);
        let scaffold = builder.scaffold;
        let nodes = &scaffold.nodes;
        let arena = crate::arena::SamplingArena::flatten(&scaffold, &sensors);
        assert_eq!(arena.node_count(), nodes.len());
        assert_eq!((arena.level(0), arena.parent(NodeId(0))), (0, None));
        // The builder's index of each arena node, by the queue it must be.
        let mut order = vec![nodes.len() - 1];
        let mut seen_sensors = 0usize;
        for idx in 0..arena.node_count() {
            let node = &nodes[order[idx]];
            assert_eq!(arena.weight(idx).to_bits(), (node.weight as f64).to_bits());
            assert_eq!(arena.avail_mean(idx).to_bits(), node.avail_mean.to_bits());
            let kind_weights = scaffold.kind_weights(node);
            assert_eq!(arena.kind_weights(idx), kind_weights);
            for &(kind, weight) in kind_weights {
                assert_eq!(arena.kind_weight(idx, kind), weight);
            }
            assert_eq!(arena.kind_weight(idx, 7), 0, "no sensor of kind 7");
            let bb = arena.bbox(idx);
            assert_eq!(bb.min.x.to_bits(), node.bbox.min.x.to_bits());
            assert_eq!(bb.min.y.to_bits(), node.bbox.min.y.to_bits());
            assert_eq!(bb.max.x.to_bits(), node.bbox.max.x.to_bits());
            assert_eq!(bb.max.y.to_bits(), node.bbox.max.y.to_bits());
            match &node.children {
                Children::Internal(run) => {
                    let ch = &scaffold.children[run.clone()];
                    // Children are the next run of ids, in builder order.
                    assert_eq!(arena.child_range(idx), order.len()..order.len() + ch.len());
                    order.extend(ch);
                    assert!(arena.leaf_sensors(idx).is_empty());
                    for (at, &c) in arena.child_range(idx).zip(ch) {
                        assert_eq!(arena.parent(NodeId(at as u32)), Some(NodeId(idx as u32)));
                        assert_eq!(arena.level(at), arena.level(idx) + 1);
                        // The child weight slice is bitwise the children's
                        // weights: the split denominator of a contained node.
                        let w = nodes[c].weight as f64;
                        assert_eq!(arena.weight(at).to_bits(), w.to_bits());
                    }
                }
                Children::Leaf(run) => {
                    let members = &scaffold.members[run.clone()];
                    assert!(arena.child_range(idx).is_empty());
                    assert_eq!(arena.sensor_len(idx), members.len());
                    assert_eq!(arena.leaf_sensors(idx), members);
                    assert_eq!(arena.level(idx), arena.level(arena.node_count() - 1));
                    seen_sensors += members.len();
                    for (j, &s) in members.iter().enumerate() {
                        let slot = arena.sensor_start(idx) + j;
                        assert_eq!(arena.sensor(slot), s);
                        let meta = &sensors[s.index()];
                        assert_eq!(arena.sensor_loc(slot), meta.location);
                        assert_eq!(arena.sensor_kind(slot), meta.kind);
                        assert_eq!(arena.sensor_avail(slot), meta.availability);
                    }
                }
            }
        }
        assert_eq!(order.len(), nodes.len());
        assert_eq!(seen_sensors, 144);
    }

    #[test]
    fn leaf_fanout_is_near_branching_factor() {
        let tree = ColrTree::build(grid_sensors(30), ColrConfig::default(), 7);
        let leaves: Vec<_> = tree
            .node_ids()
            .filter(|&id| tree.node(id).is_leaf())
            .collect();
        let avg = 900.0 / leaves.len() as f64;
        assert!(
            (4.0..=20.0).contains(&avg),
            "average leaf fanout {avg} too far from branching 10"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = ColrTree::build(grid_sensors(10), ColrConfig::default(), 9);
        let b = ColrTree::build(grid_sensors(10), ColrConfig::default(), 9);
        assert_eq!(a.node_count(), b.node_count());
        for id in a.node_ids() {
            assert_eq!(a.node(id).bbox, b.node(id).bbox);
            assert_eq!(a.node(id).weight, b.node(id).weight);
        }
    }

    #[test]
    fn grid_kmeans_handles_large_inputs() {
        // Above DIRECT_KMEANS_MAX to exercise the partitioned path.
        let tree = ColrTree::build(grid_sensors(72), ColrConfig::default(), 3); // 5184 sensors
        tree.validate().expect("valid large tree");
        assert_eq!(tree.node(tree.root()).weight, 5184);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // Large enough to exercise the partitioned (parallel) path.
        let sensors = grid_sensors(72); // 5184 sensors
        let seq = ColrTree::build_with_threads(sensors.clone(), ColrConfig::default(), 11, 1);
        for threads in [2, 4, 7] {
            let par =
                ColrTree::build_with_threads(sensors.clone(), ColrConfig::default(), 11, threads);
            assert_eq!(seq.node_count(), par.node_count(), "{threads} threads");
            for id in seq.node_ids() {
                assert_eq!(
                    format!("{:?}", seq.node(id)),
                    format!("{:?}", par.node(id)),
                    "node {id:?} differs at {threads} threads"
                );
            }
            for s in 0..sensors.len() {
                assert_eq!(
                    seq.home_leaf(SensorId(s as u32)),
                    par.home_leaf(SensorId(s as u32)),
                    "sensor {s} homed differently at {threads} threads"
                );
            }
        }
    }

    /// The benchmark map's shape without the workload crate (which depends
    /// on this one): Gaussian cities of harmonic weights, strays clamped onto
    /// the extent's edge so some coordinates coincide exactly.
    pub(crate) fn city_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let cities: Vec<Point> = (0..200)
            .map(|_| {
                Point::new(
                    rng.random_range(0.0..4_000.0),
                    rng.random_range(0.0..2_500.0),
                )
            })
            .collect();
        let total: f64 = (1..=200).map(|r| 1.0 / r as f64).sum();
        (0..n)
            .map(|_| {
                let mut u = rng.random::<f64>() * total;
                let mut city = 0;
                while city < 199 && u > 1.0 / (city + 1) as f64 {
                    u -= 1.0 / (city + 1) as f64;
                    city += 1;
                }
                // Box–Muller.
                let r = (-2.0 * (1.0 - rng.random::<f64>()).ln()).sqrt() * 47.0;
                let t = std::f64::consts::TAU * rng.random::<f64>();
                Point::new(
                    (cities[city].x + r * t.cos()).clamp(0.0, 4_000.0),
                    (cities[city].y + r * t.sin()).clamp(0.0, 2_500.0),
                )
            })
            .collect()
    }

    fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    rng.random_range(0.0..4_000.0),
                    rng.random_range(0.0..2_500.0),
                )
            })
            .collect()
    }

    /// The all-centres scan, kept as the reference the assignment step's
    /// search is compared against.
    fn nearest_of_all(centers: &[Point], p: &Point) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (c, center) in centers.iter().enumerate() {
            let d = p.distance_sq(center);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// The scan's rule as it was written before its pairs were packed into
    /// one key: the lowest `(distance_sq, index)`, a NaN distance comparing
    /// false and never replacing anything. Kept as the reference [`scan`] is
    /// compared against.
    fn scan_by_rule(run: &[(Point, u32)], p: &Point, best: &mut (f64, usize)) {
        for &(center, i) in run {
            let d = p.distance_sq(&center);
            if d < best.0 || (d == best.0 && (i as usize) < best.1) {
                *best = (d, i as usize);
            }
        }
    }

    /// [`scan`] and [`scan_by_rule`] from `(∞, 0)` over `runs` in turn, the
    /// best carried from one run to the next as [`CentreGrid::start`]
    /// carries it: the same distance bits and index after every run.
    #[track_caller]
    fn assert_scans_agree(runs: &[&[(Point, u32)]], p: &Point) {
        let (mut packed, mut rule) = (UNSEEN, (f64::INFINITY, 0usize));
        for (at, run) in runs.iter().enumerate() {
            scan(run, p, &mut packed);
            scan_by_rule(run, p, &mut rule);
            assert_eq!(
                ((packed >> 64) as u64, centre_of(packed)),
                (rule.0.to_bits(), rule.1),
                "after run {at} of {p:?}"
            );
        }
    }

    #[test]
    fn an_all_nan_run_leaves_the_packed_scan_where_it_started() {
        let nan = |i: u32| (Point::new(f64::NAN, i as f64), i);
        let run = [nan(0), nan(3), (Point::new(1.0, f64::NAN), 1)];
        for p in [Point::new(0.0, 0.0), Point::new(f64::NAN, f64::NAN)] {
            let mut best = UNSEEN;
            scan(&run, &p, &mut best);
            assert_eq!(best, UNSEEN);
            assert_eq!(centre_of(best), 0);
            assert_scans_agree(&[&run, &run[1..]], &p);
        }
        // NaN of either sign is above +∞ by its bits.
        assert!(key(-f64::NAN, 0) > UNSEEN && key(f64::NAN, 0) > UNSEEN);
    }

    /// [`lloyd`] with the assignment step's cells holding at most `per_cell`
    /// points each.
    fn lloyd_in_cells(
        points: &[Point],
        items: &[usize],
        k: usize,
        iterations: usize,
        rng: &mut StdRng,
        per_cell: usize,
    ) -> Groups {
        let centers = start_centres(points, k, &[], rng);
        lloyd_from(points, items, centers, iterations, rng, per_cell)
    }

    /// The groups in order, for comparing with the references' lists.
    fn listed(groups: &Groups) -> Vec<&[usize]> {
        groups.iter().collect()
    }

    /// [`lloyd`] as it was before the grid: the same seeding, update step and
    /// re-seed draws around [`nearest_of_all`], and the groups built as they
    /// were before they went flat — a list per centre, a push per point, the
    /// empty ones dropped.
    fn lloyd_of_all(
        points: &[Point],
        items: &[usize],
        k: usize,
        iterations: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<usize>> {
        let centers = start_of_all(points, k, &[], rng);
        lloyd_of_all_from(points, items, centers, iterations, rng)
    }

    /// The start [`start_centres`] must choose, written out plainly: the
    /// first `min(k, n)` of `seeds`, then distinct points drawn by a partial
    /// Fisher–Yates over the point indices.
    fn start_of_all(points: &[Point], k: usize, seeds: &[Point], rng: &mut StdRng) -> Vec<Point> {
        let n = points.len();
        let k = k.min(n);
        let mut centers: Vec<Point> = seeds.iter().take(k).copied().collect();
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..k - centers.len() {
            let j = rng.random_range(i..n);
            order.swap(i, j);
            centers.push(points[order[i]]);
        }
        centers
    }

    /// The all-centres loop from given start centres.
    fn lloyd_of_all_from(
        points: &[Point],
        items: &[usize],
        mut centers: Vec<Point>,
        iterations: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<usize>> {
        let n = points.len();
        let k = centers.len();
        let mut assign = vec![0usize; n];
        for _ in 0..iterations.max(1) {
            for (i, p) in points.iter().enumerate() {
                assign[i] = nearest_of_all(&centers, p);
            }
            let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
            for (i, p) in points.iter().enumerate() {
                let s = &mut sums[assign[i]];
                s.0 += p.x;
                s.1 += p.y;
                s.2 += 1;
            }
            for (c, center) in centers.iter_mut().enumerate() {
                let (sx, sy, cnt) = sums[c];
                if cnt > 0 {
                    *center = Point::new(sx / cnt as f64, sy / cnt as f64);
                } else {
                    *center = points[rng.random_range(0..n)];
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &a) in assign.iter().enumerate() {
            groups[a].push(items[i]);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }

    /// [`lloyd_from`] from `centers` against the all-centres loop from the
    /// same start, groups and the RNG's next draw, for 1, 2 and 8 rounds and
    /// cells of one point and of [`POINTS_PER_CELL`].
    #[track_caller]
    fn assert_lloyd_from_matches(what: &str, centers: &[Point], points: &[Point]) {
        let items: Vec<usize> = (0..points.len()).collect();
        for rounds in [1, 2, 8] {
            for per_cell in [1, POINTS_PER_CELL] {
                let (mut a, mut b) = (StdRng::seed_from_u64(19), StdRng::seed_from_u64(19));
                assert_eq!(
                    listed(&lloyd_from(
                        points,
                        &items,
                        centers.to_vec(),
                        rounds,
                        &mut a,
                        per_cell
                    )),
                    lloyd_of_all_from(points, &items, centers.to_vec(), rounds, &mut b),
                    "{what}: groups differ from {} centres, {rounds} rounds, cells of {per_cell}",
                    centers.len()
                );
                assert_eq!(a.next_u64(), b.next_u64(), "{what}: RNG position differs");
            }
        }
    }

    #[track_caller]
    fn assert_lloyd_matches(what: &str, points: &[Point], k: usize) {
        let items: Vec<usize> = (0..points.len()).collect();
        for rounds in [1, 8] {
            let (mut a, mut b) = (StdRng::seed_from_u64(19), StdRng::seed_from_u64(19));
            assert_eq!(
                listed(&lloyd_in_cells(
                    points,
                    &items,
                    k,
                    rounds,
                    &mut a,
                    POINTS_PER_CELL
                )),
                lloyd_of_all(points, &items, k, rounds, &mut b),
                "{what}: groups differ at k = {k}, {rounds} rounds"
            );
            assert_eq!(a.next_u64(), b.next_u64(), "{what}: RNG position differs");
        }
    }

    /// Every `step`-th point: a cheap stand-in for a set of centres.
    fn every(points: &[Point], step: usize) -> Vec<Point> {
        points.iter().step_by(step).copied().collect()
    }

    #[test]
    fn lloyd_from_given_centres_groups_and_draws_as_the_all_centres_loop() {
        let uniform = uniform_points(1_500, 1);
        let cities = city_points(1_500, 2);
        assert_lloyd_from_matches("uniform", &every(&uniform, 10), &uniform);
        assert_lloyd_from_matches("cities", &every(&cities, 10), &cities);
        // A centre per point, one centre, two centres.
        assert_lloyd_from_matches("k = n", &cities, &cities);
        assert_lloyd_from_matches("k = 1", &cities[..1], &cities);
        assert_lloyd_from_matches("k = 2", &cities[..2], &cities);
        // Every point and every centre twice: each minimum is a tie.
        let twice: Vec<Point> = cities.iter().flat_map(|&p| [p, p]).collect();
        assert_lloyd_from_matches("duplicated", &every(&twice, 5), &twice);
        assert_lloyd_from_matches("all centres equal", &[cities[7]; 40], &cities);
        // Five places forty times over, thirty centres on them: ties send
        // every point to one of the first five, so the other twenty-five
        // centres end every round empty and re-seed.
        let copies: Vec<Point> = (0..40).flat_map(|_| cities[..5].to_vec()).collect();
        assert_lloyd_from_matches("mostly empty", &copies[..30], &copies);
        // A zero-width and a zero-height grid, with points on and off the line.
        let on_x: Vec<Point> = uniform.iter().map(|p| Point::new(p.x, 3.0)).collect();
        let on_y: Vec<Point> = uniform.iter().map(|p| Point::new(-7.0, p.y)).collect();
        for (what, line) in [("horizontal", &on_x), ("vertical", &on_y)] {
            assert_lloyd_from_matches(what, &every(line, 10), line);
            assert_lloyd_from_matches(what, &every(line, 10), &uniform);
        }
        // Points far outside the centres' box, up to where the distance
        // overflows to ∞ and the scan's answer is centre 0.
        let far: Vec<Point> = [1e4, 1e9, 1e154, 1e200, f64::MAX]
            .into_iter()
            .flat_map(|r| {
                [
                    Point::new(r, 1_000.0),
                    Point::new(-r, 1_000.0),
                    Point::new(2_000.0, r),
                    Point::new(2_000.0, -r),
                    Point::new(-r, r),
                ]
            })
            .collect();
        assert_lloyd_from_matches("far points", &every(&cities, 10), &far);
        assert_lloyd_from_matches("far centres", &far, &cities);
        assert_lloyd_from_matches("far both", &far, &far);
        // Non-finite coordinates, in the points and in the centres (first,
        // last, all).
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let wild: Vec<Point> = odd
            .into_iter()
            .flat_map(|v| [Point::new(v, 5.0), Point::new(5.0, v), Point::new(v, v)])
            .collect();
        assert_lloyd_from_matches("wild points", &every(&cities, 10), &wild);
        for at in [0, 75, 149] {
            for &w in &wild {
                let mut centers = every(&cities, 10);
                centers[at] = w;
                assert_lloyd_from_matches("a wild centre", &centers, &cities[..200]);
                assert_lloyd_from_matches("a wild centre", &centers, &wild);
            }
        }
        assert_lloyd_from_matches("only wild centres", &wild, &cities[..200]);
        assert_lloyd_from_matches("no centres in the grid", &wild, &wild);
    }

    #[test]
    fn lloyd_groups_and_draws_as_the_all_centres_loop() {
        let cities = city_points(1_200, 3);
        let uniform = uniform_points(1_200, 4);
        // Duplicates leave clusters empty, so the re-seed draws are compared.
        let twice: Vec<Point> = cities[..400].iter().flat_map(|&p| [p, p]).collect();
        let on_x: Vec<Point> = uniform.iter().map(|p| Point::new(p.x, 3.0)).collect();
        let on_y: Vec<Point> = uniform.iter().map(|p| Point::new(-7.0, p.y)).collect();
        // Five places forty times over: at k = 30 most centres end empty.
        let copies: Vec<Point> = (0..40).flat_map(|_| cities[..5].to_vec()).collect();
        assert_lloyd_matches("mostly empty", &copies, 30);
        let mut wild = cities[..300].to_vec();
        wild[5] = Point::new(f64::NAN, 1.0);
        wild[50] = Point::new(f64::INFINITY, 1.0);
        wild[150] = Point::new(2.0, f64::NEG_INFINITY);
        for (what, points) in [
            ("cities", &cities),
            ("uniform", &uniform),
            ("duplicated", &twice),
            ("horizontal", &on_x),
            ("vertical", &on_y),
            ("non-finite", &wild),
        ] {
            for k in [1, 2, points.len().div_ceil(10), points.len()] {
                assert_lloyd_matches(what, points, k);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The loop from any start centres, as many as the points or more:
        /// coordinates off a coarse lattice (so exact ties between centres
        /// are the rule), off the reals, and now and then huge or not finite.
        #[test]
        fn lloyd_from_any_centres_groups_and_draws_as_the_all_centres_loop(
            centers in proptest::collection::vec(any_point(), 1..60),
            points in proptest::collection::vec(any_point(), 1..40),
        ) {
            assert_lloyd_from_matches("proptest", &centers, &points);
        }

        /// The cell assignment against the all-centres loop, groups and the
        /// RNG's next draw: points off the same lattice (ties are the rule),
        /// the same set twice (duplicates, empty clusters and their re-seed
        /// draws), cells down to one point (zero-width boxes), and now and
        /// then a huge or non-finite coordinate.
        #[test]
        fn cell_assignment_groups_and_draws_as_the_all_centres_loop(
            base in proptest::collection::vec(any_point(), 1..48),
            twice in 0usize..2,
            k in 1usize..40,
            iterations in 1usize..9,
            per_cell in proptest::strategy::Strategy::prop_map(0usize..3, |i| [1, 2, POINTS_PER_CELL][i]),
            seed in 0u64..1_000,
        ) {
            let mut points = base.clone();
            if twice == 1 {
                points.extend_from_slice(&base);
            }
            let items: Vec<usize> = (0..points.len()).collect();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(
                listed(&lloyd_in_cells(&points, &items, k, iterations, &mut a, per_cell)),
                lloyd_of_all(&points, &items, k, iterations, &mut b),
            );
            assert_eq!(a.next_u64(), b.next_u64(), "RNG position");
        }

        /// The packed scan against the rule it replaced, over centres off
        /// the lattice (exact ties), now and then ±∞ or NaN, the whole set
        /// again under higher indices (every distance a tie the lower index
        /// wins), in either index order, cut into runs a best is carried
        /// across.
        #[test]
        fn the_packed_scan_keeps_what_the_rule_keeps(
            centres in proptest::collection::vec(any_point(), 0..40),
            twice in 0usize..2,
            reversed in 0usize..2,
            cuts in proptest::collection::vec(0usize..80, 0..4),
            p in any_point(),
        ) {
            let mut run: Vec<(Point, u32)> =
                centres.iter().enumerate().map(|(i, &c)| (c, i as u32)).collect();
            if twice == 1 {
                let n = run.len() as u32;
                run.extend(centres.iter().enumerate().map(|(i, &c)| (c, n + i as u32)));
            }
            if reversed == 1 {
                run.reverse();
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(run.len())).collect();
            cuts.sort_unstable();
            let mut runs = Vec::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([run.len()]) {
                runs.push(&run[from..to]);
                from = to;
            }
            assert_scans_agree(&runs, &p);
        }

        /// The presorted filing against the selecting one over points off
        /// the lattice (duplicates and ties on every cut), now and then huge
        /// or not finite, in cells down to one point.
        #[test]
        fn any_points_file_the_cells_selection_filed(
            points in proptest::collection::vec(any_point(), 0..120),
            per_cell in proptest::strategy::Strategy::prop_map(0usize..3, |i| [1, 2, POINTS_PER_CELL][i]),
        ) {
            assert_files_as_selection(&points, per_cell);
        }

        /// [`CentreGrid::candidates`] on its own: over centre sets off the
        /// lattice (so centres tie on grid edges), duplicated, squeezed onto
        /// one row or one column, now and then far or not finite, for any
        /// finite box and any `reach` (+∞ keeps them all), the list is
        /// exactly the filed centres whose [`closest_sq`] is at most `reach`,
        /// and it holds every centre within `reach` of the box's corners and
        /// centre by computed `distance_sq`.
        #[test]
        fn candidates_are_the_centres_within_reach_of_the_box(
            centres in proptest::collection::vec(any_point(), 0..60),
            twice in 0usize..2,
            squeeze in 0usize..3,
            corners in (finite_coord(), finite_coord(), finite_coord(), finite_coord()),
            reach in any_reach(),
        ) {
            let mut centres = centres;
            if twice == 1 {
                centres.extend_from_slice(&centres.clone());
            }
            for c in &mut centres {
                match squeeze {
                    1 => c.y = 2.0,
                    2 => c.x = -1.0,
                    _ => {}
                }
            }
            let b = Rect::from_coords(corners.0, corners.1, corners.2, corners.3);
            let mut grid = CentreGrid::default();
            grid.rebuild(&centres);
            let mut found: Vec<u32> = grid
                .candidates(&b, reach, &mut Vec::new())
                .iter()
                .map(|&(_, i)| i)
                .collect();
            found.sort_unstable();
            let filed = |c: &Point| c.x.is_finite() && c.y.is_finite();
            let within: Vec<u32> = (0..centres.len() as u32)
                .filter(|&i| filed(&centres[i as usize]) && closest_sq(&b, &centres[i as usize]) <= reach)
                .collect();
            assert_eq!(found, within, "box {b:?}, reach {reach}");
            let probes = [
                b.min,
                b.max,
                Point::new(b.min.x, b.max.y),
                Point::new(b.max.x, b.min.y),
                b.center(),
            ];
            for q in probes {
                for (i, c) in centres.iter().enumerate() {
                    if filed(c) && q.distance_sq(c) <= reach {
                        assert!(
                            found.binary_search(&(i as u32)).is_ok(),
                            "centre {i} {c:?} is within {reach} of {q:?} but not a candidate of {b:?}"
                        );
                    }
                }
            }
        }

        /// The loop from given start centres against the all-centres loop
        /// from the same start, groups and the RNG's next draw: seeds off
        /// the points' lattice (duplicates of each other and of points, so
        /// clusters go empty and re-seed), now and then non-finite, and
        /// fewer of them than `k` as often as more (topped up by draws).
        #[test]
        fn a_seeded_start_groups_and_draws_as_the_all_centres_loop(
            points in proptest::collection::vec(any_point(), 1..48),
            seeds in proptest::collection::vec(any_point(), 0..48),
            k in 1usize..40,
            rounds in 1usize..9,
            per_cell in proptest::strategy::Strategy::prop_map(0usize..3, |i| [1, 2, POINTS_PER_CELL][i]),
            seed in 0u64..1_000,
        ) {
            let items: Vec<usize> = (0..points.len()).collect();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let start = start_centres(&points, k, &seeds, &mut a);
            let reference = start_of_all(&points, k, &seeds, &mut b);
            assert_eq!(format!("{start:?}"), format!("{reference:?}"), "start");
            assert_eq!(
                listed(&lloyd_from(&points, &items, start, rounds, &mut a, per_cell)),
                lloyd_of_all_from(&points, &items, reference, rounds, &mut b),
            );
            assert_eq!(a.next_u64(), b.next_u64(), "RNG position");
        }
    }

    #[test]
    fn the_heaviest_seeds_are_kept_in_the_order_given() {
        let p = |x: f64| Point::new(x, 0.0);
        let seeds = [
            (p(0.0), 3),
            (p(1.0), 5),
            (p(2.0), 3),
            (p(3.0), 1),
            (p(4.0), 5),
        ];
        assert_eq!(heaviest(&seeds, 9), seeds.map(|s| s.0));
        assert_eq!(
            heaviest(&seeds, 3),
            [p(0.0), p(1.0), p(4.0)],
            "ties to the earlier"
        );
        assert_eq!(heaviest(&seeds, 4), [p(0.0), p(1.0), p(2.0), p(4.0)]);
        assert!(heaviest(&seeds, 0).is_empty());
    }

    /// A box corner's coordinate: off the lattice [`any_point`] draws from,
    /// off the reals, now and then far.
    fn finite_coord() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            6 => (-5i32..6).prop_map(f64::from),
            3 => -5.0..5.0f64,
            1 => prop_oneof![Just(1e9), Just(-1e200), Just(f64::MAX)],
        ]
    }

    /// A `reach`: zero, a lattice square, a real, huge, or +∞.
    fn any_reach() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            2 => Just(0.0),
            4 => (0i32..7).prop_map(|r| f64::from(r * r)),
            3 => 0.0..64.0f64,
            1 => prop_oneof![Just(1e18), Just(1e300), Just(f64::MAX), Just(f64::INFINITY)],
        ]
    }

    /// The cells of [`PointCells::file`] as each halving made them before
    /// the keys were sorted once per axis: the run's median selected in
    /// place by `select_nth_unstable`. Kept as the reference the presorted
    /// halvings are compared against. Per cell: its box and its points.
    fn cells_by_selection(points: &[Point], per_cell: usize) -> Vec<(Rect, Vec<u32>)> {
        fn split(
            points: &[Point],
            run: &mut [u64],
            span: [(u64, u64); 2],
            per_cell: usize,
            cells: &mut Vec<(Rect, Vec<u32>)>,
        ) {
            if run.len() <= per_cell {
                if let Some(exact) = bounding(run.iter().map(|&key| &points[key as u32 as usize])) {
                    cells.push((exact, run.iter().map(|&key| key as u32).collect()));
                }
                return;
            }
            let mid = run.len() / 2;
            let axis = usize::from(span[0].1 - span[0].0 < span[1].1 - span[1].0);
            if axis == 0 {
                run.select_nth_unstable(mid);
            } else {
                run.select_nth_unstable_by_key(mid, |&key| key << QUANT_BITS);
            }
            let cut = (run[mid] >> AXIS_SHIFT[axis]) & QUANT_MAX;
            let (mut low, mut high) = (span, span);
            (low[axis].1, high[axis].0) = (cut, cut);
            let (lower, upper) = run.split_at_mut(mid);
            split(points, lower, low, per_cell, cells);
            split(points, upper, high, per_cell, cells);
        }
        let (mut keys, _, span) = filing_keys(points);
        let mut cells = Vec::new();
        split(points, &mut keys, span, per_cell, &mut cells);
        cells
    }

    /// [`PointCells::file`] against [`cells_by_selection`]: the same cells
    /// in the same order, each with the same points (in any order) under
    /// the same box, bit for bit, and the non-finite points left out.
    #[track_caller]
    fn assert_files_as_selection(points: &[Point], per_cell: usize) {
        let filed = PointCells::file(points, per_cell);
        let reference = cells_by_selection(points, per_cell);
        assert_eq!(filed.cells.len(), reference.len(), "cells of {per_cell}");
        let bits = |b: &Rect| [b.min.x, b.min.y, b.max.x, b.max.y].map(f64::to_bits);
        for ((bbox, run), (exact, members)) in filed.cells.iter().zip(&reference) {
            assert_eq!(bits(bbox), bits(exact), "cells of {per_cell}");
            let mut found = filed.order[run.clone()].to_vec();
            let mut members = members.clone();
            found.sort_unstable();
            members.sort_unstable();
            assert_eq!(found, members, "cells of {per_cell}");
        }
        let filed_count = reference.iter().map(|(_, m)| m.len()).sum::<usize>();
        assert_eq!(filed.order.len(), filed_count);
        assert_eq!(filed.order.len() + filed.wild.len(), points.len());
    }

    #[test]
    fn presorted_halvings_file_the_cells_selection_filed() {
        for per_cell in [1, 2, POINTS_PER_CELL, 64] {
            assert_files_as_selection(&city_points(4_096, 6), per_cell);
            assert_files_as_selection(&uniform_points(1_000, 5), per_cell);
            let twice: Vec<Point> = city_points(300, 8).iter().flat_map(|&p| [p, p]).collect();
            assert_files_as_selection(&twice, per_cell);
            assert_files_as_selection(&[Point::new(3.0, -2.0); 50], per_cell);
        }
        assert_files_as_selection(&[], POINTS_PER_CELL);
    }

    fn any_point() -> impl proptest::strategy::Strategy<Value = Point> {
        use proptest::prelude::*;
        let coord = || {
            prop_oneof![
                6 => (-4i32..5).prop_map(f64::from),
                3 => -4.0..4.0f64,
                1 => prop_oneof![
                    Just(1e9), Just(-1e200), Just(f64::MAX),
                    Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN),
                ],
            ]
        };
        (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
    }

    /// At a merge's size (`n` = 4,096, `k` = 410: 410 distances per point per
    /// iteration for the all-centres scan) the assignment step must stay a
    /// search: a bound that never closes a side, or a `reach` that keeps
    /// every centre, would still be exact. Counted: every distance the start
    /// assignment, the reach computations and the candidate scans evaluate,
    /// and every `closest_sq` bound.
    #[test]
    fn grid_search_evaluates_a_fraction_of_the_centres() {
        for (what, points) in [
            ("uniform", uniform_points(4_096, 5)),
            ("cities", city_points(4_096, 6)),
        ] {
            let items: Vec<usize> = (0..points.len()).collect();
            let before = DISTANCES_EVALUATED.with(|n| n.get());
            lloyd(&points, &items, 410, &mut StdRng::seed_from_u64(19));
            let evaluated = DISTANCES_EVALUATED.with(|n| n.get()) - before;
            let per_point = evaluated as f64 / (4_096.0 * KMEANS_ROUNDS as f64);
            assert!(
                per_point <= 64.0,
                "{what}: {per_point:.2} distances per point per round"
            );
            println!("{what}: {per_point:.2} distances per point per round");
        }
    }

    /// The build RNG's next raw draw after the levels are clustered, recorded
    /// at the parent of PR 19 (all-centres assignment) per fleet size of
    /// [`BUILD_RNG_SIZES`]: the assignment search must leave every seeding,
    /// re-seeding and per-cell seed draw where it was. The trees themselves
    /// are pinned in `tests/hotpath_parity.rs`.
    const BUILD_RNG_SIZES: [usize; 6] = [1, 10, 11, 4_096, 4_097, 40_000];
    const BUILD_RNG_NEXT: [u64; 6] = [
        0xf23c_be59_ba2b_d02e,
        0xf23c_be59_ba2b_d02e,
        0xe33b_e856_a907_850c,
        0x2f24_a276_c061_5a1f,
        0x351d_6eb8_5623_3d22,
        0xaff4_11f3_09df_de90,
    ];

    #[test]
    fn build_leaves_the_rng_where_the_all_centres_loop_left_it() {
        for (&n, &recorded) in BUILD_RNG_SIZES.iter().zip(&BUILD_RNG_NEXT) {
            let sensors: Vec<SensorMeta> = city_points(n, 7)
                .into_iter()
                .enumerate()
                .map(|(i, at)| SensorMeta::new(i as u32, at, TimeDelta::from_mins(5), 0.9))
                .collect();
            for threads in [1, 2, 8] {
                let mut builder = Builder::new(19, threads);
                builder.build_levels(&sensors, &ColrConfig::default(), &[]);
                let next = builder.rng.next_u64();
                assert_eq!(
                    next, recorded,
                    "n {n} threads {threads}: next draw {next:#018x}, recorded {recorded:#018x}"
                );
            }
        }
    }

    #[test]
    fn str_pack_groups_cover_all_items() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let items: Vec<usize> = (0..100).collect();
        let groups = str_pack(&pts, &items, 10);
        let mut all = groups.items;
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn availability_is_weighted_mean() {
        let mut sensors = grid_sensors(4); // 16 sensors, avail 0.9
        for s in sensors.iter_mut().take(8) {
            s.availability = 0.5;
        }
        let tree = ColrTree::build(sensors, ColrConfig::default(), 1);
        let root_avail = tree.node(tree.root()).avail_mean;
        assert!((root_avail - 0.7).abs() < 1e-9, "got {root_avail}");
    }
}
