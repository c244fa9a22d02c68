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
//! ## Parallel construction
//!
//! Grid cells are independent, so each clustering level fans its cells out
//! over a scoped thread pool ([`ColrTree::build_with_threads`]). Every cell
//! draws its k-means seed from the build RNG *in cell order before* any
//! thread starts, and results are merged back in the same order — the built
//! tree is bit-identical for a fixed `(sensors, config, seed)` regardless of
//! the thread count. Levels themselves run sequentially (level `l` clusters
//! the centroids produced by level `l+1`).

use colr_geo::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::reading::{SensorId, SensorMeta};
use crate::slot_cache::SlotConfig;
use crate::time::TimeDelta;
use crate::tree::{BuildStrategy, Children, ColrConfig, ColrTree, Node, NodeId};

/// Points above this count are clustered per grid cell.
const DIRECT_KMEANS_MAX: usize = 4096;
/// Target points per grid cell for partitioned k-means.
const TARGET_CELL: usize = 1024;

impl ColrTree {
    /// Bulk-builds a COLR-Tree over `sensors`, clustering grid cells on all
    /// available cores.
    ///
    /// Construction is deterministic for a given `(sensors, config, seed)`
    /// — independent of the machine's core count; the seed feeds the k-means
    /// initialisation.
    pub fn build(sensors: Vec<SensorMeta>, config: ColrConfig, seed: u64) -> ColrTree {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::build_with_threads(sensors, config, seed, threads)
    }

    /// [`ColrTree::build`] with an explicit worker-thread count (`1` =
    /// fully sequential). The output is bit-identical across thread counts.
    pub fn build_with_threads(
        sensors: Vec<SensorMeta>,
        config: ColrConfig,
        seed: u64,
        threads: usize,
    ) -> ColrTree {
        assert!(config.branching >= 2, "branching factor must be >= 2");
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
        let mut slot_config = SlotConfig::for_window(t_max, config.num_slots);
        if let Some(spec) = config.slot_histograms {
            slot_config = slot_config.with_histogram(spec);
        }
        let mut builder = Builder {
            nodes: Vec::new(),
            sensor_leaf: vec![NodeId(0); sensors.len()],
            rng: StdRng::seed_from_u64(seed),
            threads: threads.max(1),
        };

        let root = if sensors.is_empty() {
            builder.push_leaf(&sensors, Vec::new())
        } else {
            builder.build_levels(&sensors, &config)
        };

        let telem = crate::telem::build();
        let assemble_start = std::time::Instant::now();
        let tree = ColrTree::assemble(
            config,
            slot_config,
            t_max,
            sensors,
            builder.nodes,
            root,
            builder.sensor_leaf,
        );
        telem
            .assemble_phase_us
            .observe(assemble_start.elapsed().as_micros() as u64);
        telem.trees.inc();
        tree
    }

    /// Rebuilds the index over a (possibly updated) sensor set, discarding
    /// all cached data — the paper's periodic reconstruction to reflect
    /// sensor relocation.
    pub fn rebuild(&mut self, sensors: Vec<SensorMeta>, seed: u64) {
        *self = ColrTree::build(sensors, self.config.clone(), seed);
    }
}

struct Builder {
    nodes: Vec<Node>,
    sensor_leaf: Vec<NodeId>,
    rng: StdRng,
    threads: usize,
}

impl Builder {
    fn merge_kind_weight(kw: &mut Vec<(u16, u64)>, kind: u16, add: u64) {
        match kw.binary_search_by_key(&kind, |(k, _)| *k) {
            Ok(i) => kw[i].1 += add,
            Err(i) => kw.insert(i, (kind, add)),
        }
    }

    fn push_leaf(&mut self, sensors: &[SensorMeta], members: Vec<SensorId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let points: Vec<Point> = members
            .iter()
            .map(|s| sensors[s.index()].location)
            .collect();
        let bbox = Rect::bounding(&points).unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 0.0, 0.0));
        let weight = members.len() as u64;
        let avail_mean = if members.is_empty() {
            1.0
        } else {
            members
                .iter()
                .map(|s| sensors[s.index()].availability)
                .sum::<f64>()
                / members.len() as f64
        };
        let mut kind_weights: Vec<(u16, u64)> = Vec::new();
        for &s in &members {
            self.sensor_leaf[s.index()] = id;
            Self::merge_kind_weight(&mut kind_weights, sensors[s.index()].kind, 1);
        }
        self.nodes.push(Node {
            level: 0,
            bbox,
            parent: None,
            children: Children::Leaf(members),
            weight,
            kind_weights,
            avail_mean,
        });
        id
    }

    fn push_internal(&mut self, members: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let bbox = Rect::bounding_rects(members.iter().map(|&m| &self.nodes[m.index()].bbox))
            .expect("internal node has children");
        let weight: u64 = members.iter().map(|&m| self.nodes[m.index()].weight).sum();
        let avail_mean = if weight == 0 {
            1.0
        } else {
            members
                .iter()
                .map(|&m| {
                    let n = &self.nodes[m.index()];
                    n.avail_mean * n.weight as f64
                })
                .sum::<f64>()
                / weight as f64
        };
        let mut kind_weights: Vec<(u16, u64)> = Vec::new();
        for &m in &members {
            self.nodes[m.index()].parent = Some(id);
            for (k, w) in self.nodes[m.index()].kind_weights.clone() {
                Self::merge_kind_weight(&mut kind_weights, k, w);
            }
        }
        self.nodes.push(Node {
            level: 0,
            bbox,
            parent: None,
            children: Children::Internal(members),
            weight,
            kind_weights,
            avail_mean,
        });
        id
    }

    fn build_levels(&mut self, sensors: &[SensorMeta], config: &ColrConfig) -> NodeId {
        let telem = crate::telem::build();
        let b = config.branching;
        // --- Leaf level ---
        let leaf_start = std::time::Instant::now();
        let points: Vec<Point> = sensors.iter().map(|s| s.location).collect();
        let ids: Vec<usize> = (0..sensors.len()).collect();
        let k = sensors.len().div_ceil(b).max(1);
        let groups = self.group(&points, &ids, k, config.build);
        let mut current: Vec<NodeId> = groups
            .into_iter()
            .map(|members| {
                let members = members.into_iter().map(|i| SensorId(i as u32)).collect();
                self.push_leaf(sensors, members)
            })
            .collect();
        telem
            .leaf_phase_us
            .observe(leaf_start.elapsed().as_micros() as u64);

        // --- Internal levels ---
        let internal_start = std::time::Instant::now();
        while current.len() > b {
            let centroids: Vec<Point> = current
                .iter()
                .map(|&id| self.nodes[id.index()].bbox.center())
                .collect();
            let idxs: Vec<usize> = (0..current.len()).collect();
            let k = current.len().div_ceil(b).max(1);
            let groups = self.group(&centroids, &idxs, k, config.build);
            current = groups
                .into_iter()
                .map(|members| {
                    let members = members.into_iter().map(|i| current[i]).collect();
                    self.push_internal(members)
                })
                .collect();
        }
        let root = if current.len() == 1 {
            current[0]
        } else {
            self.push_internal(current)
        };
        telem
            .internal_phase_us
            .observe(internal_start.elapsed().as_micros() as u64);
        root
    }

    /// Clusters `items` (parallel to `points`) into at most `k` non-empty
    /// groups.
    fn group(
        &mut self,
        points: &[Point],
        items: &[usize],
        k: usize,
        strategy: BuildStrategy,
    ) -> Vec<Vec<usize>> {
        debug_assert_eq!(points.len(), items.len());
        if k <= 1 || points.len() <= 1 {
            return vec![items.to_vec()];
        }
        match strategy {
            BuildStrategy::KMeans { iterations } => {
                if points.len() > DIRECT_KMEANS_MAX {
                    self.grid_kmeans(points, items, k, iterations)
                } else {
                    lloyd(points, items, k, iterations, &mut self.rng)
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
    /// order before any worker starts, and cell results are concatenated in
    /// that same order, so the grouping does not depend on the thread count
    /// or scheduling.
    fn grid_kmeans(
        &mut self,
        points: &[Point],
        items: &[usize],
        k: usize,
        iterations: usize,
    ) -> Vec<Vec<usize>> {
        let n = points.len();
        let bbox = Rect::bounding(points).expect("non-empty");
        let g = ((n as f64 / TARGET_CELL as f64).sqrt().ceil() as usize).max(1);
        let w = bbox.width().max(f64::MIN_POSITIVE);
        let h = bbox.height().max(f64::MIN_POSITIVE);
        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); g * g]; // indices into points
        for (i, p) in points.iter().enumerate() {
            let cx = (((p.x - bbox.min.x) / w * g as f64) as usize).min(g - 1);
            let cy = (((p.y - bbox.min.y) / h * g as f64) as usize).min(g - 1);
            cells[cy * g + cx].push(i);
        }
        struct Job {
            points: Vec<Point>,
            items: Vec<usize>,
            share: usize,
            seed: u64,
        }
        let jobs: Vec<Job> = cells
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(|cell| Job {
                points: cell.iter().map(|&i| points[i]).collect(),
                items: cell.iter().map(|&i| items[i]).collect(),
                share: ((k as f64 * cell.len() as f64 / n as f64).round() as usize)
                    .clamp(1, cell.len()),
                seed: self.rng.next_u64(),
            })
            .collect();

        let run = |job: &Job| {
            let mut rng = StdRng::seed_from_u64(job.seed);
            lloyd(&job.points, &job.items, job.share, iterations, &mut rng)
        };
        let per_cell: Vec<Vec<Vec<usize>>> = if self.threads <= 1 || jobs.len() <= 1 {
            jobs.iter().map(run).collect()
        } else {
            let chunk = jobs.len().div_ceil(self.threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .chunks(chunk)
                    .map(|batch| scope.spawn(move || batch.iter().map(run).collect::<Vec<_>>()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("k-means worker panicked"))
                    .collect()
            })
        };
        per_cell.into_iter().flatten().collect()
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
/// Deterministic for a given `(points, k, iterations, seed)`.
pub fn kmeans_partition(
    points: &[Point],
    k: usize,
    iterations: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let items: Vec<usize> = (0..n).collect();
    if k <= 1 || n <= 1 {
        return vec![items];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups = lloyd(points, &items, k, iterations.max(1), &mut rng);
    // `lloyd` pushes members in input order (ascending); order the groups
    // themselves by first member so shard numbering is stable to read.
    groups.sort_by_key(|g| g[0]);
    groups
}

/// Plain Lloyd's k-means with random distinct seeding.
fn lloyd(
    points: &[Point],
    items: &[usize],
    k: usize,
    iterations: usize,
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    let n = points.len();
    let k = k.min(n);
    crate::telem::build()
        .kmeans_iterations
        .add(iterations.max(1) as u64);
    // Seed with k distinct random points (partial Fisher–Yates).
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        order.swap(i, j);
    }
    let mut centers: Vec<Point> = order[..k].iter().map(|&i| points[i]).collect();
    let mut assign = vec![0usize; n];
    for _ in 0..iterations.max(1) {
        // Assignment step.
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, center) in centers.iter().enumerate() {
                let d = p.distance_sq(center);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assign[i] = best;
        }
        // Update step.
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
                // Re-seed empty cluster at a random point.
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

/// Sort-tile-recursive packing into `k` groups.
fn str_pack(points: &[Point], items: &[usize], k: usize) -> Vec<Vec<usize>> {
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
    let mut groups = Vec::with_capacity(k);
    for slab in order.chunks(slab_size.max(1)) {
        let mut slab: Vec<usize> = slab.to_vec();
        slab.sort_by(|&a, &b| {
            points[a]
                .y
                .partial_cmp(&points[b].y)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for chunk in slab.chunks(group_size.max(1)) {
            groups.push(chunk.iter().map(|&i| items[i]).collect());
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BuildStrategy;

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

    #[test]
    fn str_pack_groups_cover_all_items() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let items: Vec<usize> = (0..100).collect();
        let groups = str_pack(&pts, &items, 10);
        let mut all: Vec<usize> = groups.into_iter().flatten().collect();
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
