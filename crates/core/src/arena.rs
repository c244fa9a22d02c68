//! The tree's topology: one flat, read-only arena that every walk runs over.
//!
//! The bulk loader builds a tree as scaffolding ([`crate::build`]): nodes
//! in push order whose children, sensors and per-kind rows are runs of three
//! builder-wide lists, children wherever it happened to push them.
//! `SamplingArena::flatten` lays that out once, for reading, and the
//! scaffolding is dropped: queries, cache maintenance, the relational backend
//! and [`ColrTree::node`] all read this arena and nothing else.
//!
//! * **BFS order, children contiguous** — a node's children occupy the index
//!   range `child_start .. child_start + child_len`, so the partition loop is
//!   a linear walk, not a pointer chase.
//! * **Structure-of-arrays MBRs** — `min_x/min_y/max_x/max_y` are separate
//!   `f64` arrays. Classifying a run of children against a rectangular
//!   viewport is a branch-free pass over four contiguous slices, processed
//!   four lanes at a time so LLVM lowers it to SIMD compares
//!   ([`SamplingArena::classify_children`]).
//! * **One weight per node** — `weight[i]` is `w_i`; a node's child weights
//!   are the slice `weight[child_start .. child_start + child_len]`, which is
//!   all Algorithm 1's proportional split of a fully contained node reads.
//!   Per-kind weights are one CSR table beside it.
//! * **Flattened sensors** — leaf sensor ids, locations, and kinds in three
//!   parallel arrays, so terminal scans touch no `SensorMeta`.
//! * **One numbering** — a node's [`NodeId`] *is* its arena index: walks,
//!   node caches, parent links, write-back keys and
//!   [`crate::lookup::GroupResult::node`] all name a node by its BFS
//!   position, so nothing translates between them. The builder's own
//!   numbering of its scaffolding does not outlive `flatten`.
//!
//! # What the fast paths may assume
//!
//! The walk keeps Algorithm 1's deterministic proportional split and
//! restricts its geometric shortcuts to `Region::Rect`, where `<=`/`>=`
//! comparisons are exact and transitive: a viewport containing a node's MBR
//! contains every descendant MBR and sensor, so skipped per-child overlap
//! tests and per-sensor point tests are provably no-ops. Polygon and circle
//! regions use EPSILON-based predicates without that guarantee and take the
//! scalar route: every overlap and point test is made. Either way the sample
//! stream is the one the deleted pointer walk produced — the
//! `hotpath_parity` integration test pins digests recorded from it, and
//! `sampling_properties` checks the theorems against a flat scan.

use colr_geo::{Point, Rect, Region};
use rand::Rng;

use crate::avail::LiveAvailability;
use crate::build;
use crate::lookup::{GroupResult, ProbePlan, Query, QueryOutput};
use crate::reading::{Reading, SensorId, SensorMeta};
use crate::sampling::{MIN_AVAILABILITY, TARGET_EPS};
use crate::scratch::QueryScratch;
use crate::stats::QueryStats;
use crate::time::Timestamp;
use crate::tree::{Children, ColrTree, NodeId, NodeRange, NodeRef};

/// The immutable structure of a [`ColrTree`], flattened from the builder's
/// nodes once per build and shared by the tree's clones.
#[derive(Debug)]
pub struct SamplingArena {
    // --- per-node SoA (arena BFS order, root at index 0) ---------------
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
    /// The same MBRs packed AoS: single-node reads (`bbox`, one-off
    /// intersect/containment tests) touch one cache line here instead of
    /// four scattered coordinate arrays; the SoA slices above exist for the
    /// four-lane `classify_children` sweep.
    rect: Vec<Rect>,
    level: Vec<u16>,
    /// The sampling weight `w_i` (descendant sensors) as `f64`.
    weight: Vec<f64>,
    /// The frozen `a_i` of the subtree: mean build-time availability.
    avail_mean: Vec<f64>,
    child_start: Vec<u32>,
    child_len: Vec<u32>,
    sensor_start: Vec<u32>,
    sensor_len: Vec<u32>,
    /// CSR over `kind_weights`: node `i`'s `(kind, descendant sensors of that
    /// kind)` rows, sorted by kind, are `kind_start[i] .. kind_start[i + 1]`.
    kind_start: Vec<u32>,
    kind_weights: Vec<(u16, u64)>,
    /// The parent's index ([`NO_PARENT`] at the root).
    parent: Vec<u32>,
    // --- flattened leaf sensors (leaf order) ---------------------------
    sensors: Vec<SensorId>,
    sensor_x: Vec<f64>,
    sensor_y: Vec<f64>,
    sensor_kind: Vec<u16>,
    /// `SensorMeta::availability`, the frozen `a_i` of the sensor.
    sensor_avail: Vec<f64>,
    // --- per sensor id ---------------------------------------------------
    /// Where each sensor is homed: the other direction of `sensors`.
    home: Vec<Home>,
}

const NO_PARENT: u32 = u32::MAX;

/// A sensor's home: its leaf and its place among that leaf's sensors (leaf
/// order), which is also the place of its raw reading in the leaf's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Home {
    pub(crate) leaf: NodeId,
    pub(crate) place: u32,
}

impl SamplingArena {
    /// Flattens the builder's finished nodes into arena form. Children of
    /// each node are laid out contiguously in BFS order, the root at arena
    /// index 0; levels and parent links are what that pass finds (the leaf
    /// level is uniform by construction, so the last node's is the tree's).
    /// The builder pushes the root last, and its children runs hold indices
    /// into `scaffold.nodes`; the queue of those in BFS order is the pass's
    /// only record of that numbering, and it is dropped with the pass.
    pub(crate) fn flatten(scaffold: &build::Scaffold, sensors: &[SensorMeta]) -> SamplingArena {
        let nodes = &scaffold.nodes;
        let n = nodes.len();
        let mut a = SamplingArena {
            min_x: Vec::with_capacity(n),
            min_y: Vec::with_capacity(n),
            max_x: Vec::with_capacity(n),
            max_y: Vec::with_capacity(n),
            rect: Vec::with_capacity(n),
            level: Vec::with_capacity(n),
            weight: Vec::with_capacity(n),
            avail_mean: Vec::with_capacity(n),
            child_start: Vec::with_capacity(n),
            child_len: Vec::with_capacity(n),
            sensor_start: Vec::with_capacity(n),
            sensor_len: Vec::with_capacity(n),
            kind_start: Vec::with_capacity(n + 1),
            kind_weights: Vec::with_capacity(scaffold.kinds.len()),
            parent: Vec::with_capacity(n),
            sensors: Vec::with_capacity(sensors.len()),
            sensor_x: Vec::with_capacity(sensors.len()),
            sensor_y: Vec::with_capacity(sensors.len()),
            sensor_kind: Vec::with_capacity(sensors.len()),
            sensor_avail: Vec::with_capacity(sensors.len()),
            home: vec![
                Home {
                    leaf: NodeId(0),
                    place: 0
                };
                sensors.len()
            ],
        };
        // The builder's index of the node at each arena index.
        let mut queue: Vec<usize> = Vec::with_capacity(n);
        queue.push(n - 1);
        a.level.push(0);
        a.parent.push(NO_PARENT);
        let mut idx = 0;
        while idx < queue.len() {
            let node = &nodes[queue[idx]];
            a.min_x.push(node.bbox.min.x);
            a.min_y.push(node.bbox.min.y);
            a.max_x.push(node.bbox.max.x);
            a.max_y.push(node.bbox.max.y);
            a.rect.push(node.bbox);
            a.weight.push(node.weight as f64);
            a.avail_mean.push(node.avail_mean);
            a.kind_start.push(a.kind_weights.len() as u32);
            a.kind_weights
                .extend_from_slice(scaffold.kind_weights(node));
            let (children, leaf) = (scaffold.children(node), scaffold.members(node));
            a.child_start.push(queue.len() as u32);
            a.child_len.push(children.len() as u32);
            for &child in children {
                queue.push(child);
                a.level.push(a.level[idx] + 1);
                a.parent.push(idx as u32);
            }
            a.sensor_start.push(a.sensors.len() as u32);
            a.sensor_len.push(leaf.len() as u32);
            for (place, &s) in leaf.iter().enumerate() {
                let meta = &sensors[s.index()];
                let place = place as u32;
                a.home[s.index()] = Home {
                    leaf: NodeId(idx as u32),
                    place,
                };
                a.sensors.push(s);
                a.sensor_x.push(meta.location.x);
                a.sensor_y.push(meta.location.y);
                a.sensor_kind.push(meta.kind);
                a.sensor_avail.push(meta.availability);
            }
            idx += 1;
        }
        a.kind_start.push(a.kind_weights.len() as u32);
        assert_eq!(queue.len(), n, "every built node hangs off the root");
        a
    }

    /// The node `id` as one borrowed view: what [`ColrTree::node`] returns.
    pub(crate) fn node(&self, id: NodeId) -> NodeRef<'_> {
        let idx = id.index();
        let kids = self.child_range(idx);
        NodeRef {
            level: self.level[idx],
            bbox: self.rect[idx],
            parent: self.parent(id),
            children: if !kids.is_empty() {
                Children::Internal(NodeRange(kids.start as u32, kids.end as u32))
            } else {
                Children::Leaf(self.leaf_sensors(idx))
            },
            weight: self.weight[idx] as u64,
            kind_weights: self.kind_weights(idx),
            avail_mean: self.avail_mean[idx],
        }
    }

    /// The parent of node `id` (`None` at the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.parent[id.index()];
        (parent != NO_PARENT).then_some(NodeId(parent))
    }

    /// The home of sensor `id`; `None` beyond the population.
    #[inline]
    pub(crate) fn home(&self, id: SensorId) -> Option<Home> {
        self.home.get(id.index()).copied()
    }

    /// The leaf sensor `id` is homed at; `id` must be below the population,
    /// every one of which `flatten` homes.
    #[inline]
    pub(crate) fn home_leaf(&self, id: SensorId) -> NodeId {
        self.home[id.index()].leaf
    }

    /// The arena indices of the node's children (empty at a leaf).
    #[inline]
    pub fn child_range(&self, idx: usize) -> std::ops::Range<usize> {
        let start = self.child_start[idx] as usize;
        start..start + self.child_len[idx] as usize
    }

    /// The sensors homed at a leaf, in leaf order (empty at an internal node).
    #[inline]
    pub fn leaf_sensors(&self, idx: usize) -> &[SensorId] {
        let start = self.sensor_start[idx] as usize;
        &self.sensors[start..start + self.sensor_len[idx] as usize]
    }

    /// The node's `(kind, descendant sensors of that kind)` rows, by kind.
    #[inline]
    pub fn kind_weights(&self, idx: usize) -> &[(u16, u64)] {
        &self.kind_weights[self.kind_start[idx] as usize..self.kind_start[idx + 1] as usize]
    }

    /// Number of descendant sensors of one kind.
    #[inline]
    pub fn kind_weight(&self, idx: usize, kind: u16) -> u64 {
        crate::tree::weight_of_kind(self.kind_weights(idx), kind)
    }

    /// The index of node `idx`'s row for `kind` among every node's rows end
    /// to end; `None` when the node holds no sensor of that kind.
    #[inline]
    pub(crate) fn kind_row(&self, idx: usize, kind: u16) -> Option<usize> {
        let rows = self.kind_weights(idx);
        let i = rows.binary_search_by_key(&kind, |(k, _)| *k).ok()?;
        Some(self.kind_start[idx] as usize + i)
    }

    /// One descent over the nodes `region` reaches: `whole` for each node it
    /// contains (not entered), `point` for each slot of a cut leaf inside it
    /// of `kind`. A rectangle takes the walk's fast paths, other regions its
    /// scalar predicates.
    pub(crate) fn descend(
        &self,
        region: &Region,
        kind: Option<u16>,
        stack: &mut Vec<u32>,
        class: &mut Vec<u8>,
        mut whole: impl FnMut(usize),
        mut point: impl FnMut(usize),
    ) {
        let kind_ok = |j: &usize| kind.is_none_or(|k| self.sensor_kind[*j] == k);
        let rect = match region {
            Region::Rect(q) => Some(q),
            _ => None,
        };
        stack.clear();
        stack.push(0);
        while let Some(idx) = stack.pop() {
            let (idx, bbox) = (idx as usize, self.bbox(idx as usize));
            // Below the root a rectangle's nodes were classified in their
            // parent's child run, which pushes only the cut ones.
            if rect.is_none() || idx == 0 {
                if !region.intersects_rect(&bbox) {
                    continue;
                }
                if region.contains_rect(&bbox) {
                    whole(idx);
                    continue;
                }
            }
            let (kids, start) = (self.child_range(idx), self.sensor_start(idx));
            let slots = (start..start + self.sensor_len(idx)).filter(kind_ok);
            match rect {
                Some(q) => slots
                    .filter(|&j| self.sensor_in_rect(j, q))
                    .for_each(&mut point),
                None => slots
                    .filter(|&j| region.contains_point(&self.sensor_loc(j)))
                    .for_each(&mut point),
            }
            let Some(q) = rect else {
                stack.extend(kids.map(|c| c as u32));
                continue;
            };
            self.classify_children(kids.start, kids.len(), q, class);
            for (c, &cl) in kids.zip(class.iter()) {
                match cl {
                    2 => whole(c),
                    1 => stack.push(c as u32),
                    _ => {}
                }
            }
        }
    }

    /// Number of nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.level.len()
    }

    /// The node's MBR.
    #[inline]
    pub fn bbox(&self, idx: usize) -> Rect {
        self.rect[idx]
    }

    /// The node's level (root is 0).
    #[inline]
    pub fn level(&self, idx: usize) -> u16 {
        self.level[idx]
    }

    /// The node's sampling weight `w_i` as `f64`.
    #[inline]
    pub fn weight(&self, idx: usize) -> f64 {
        self.weight[idx]
    }

    /// The node's frozen mean availability.
    #[inline]
    pub fn avail_mean(&self, idx: usize) -> f64 {
        self.avail_mean[idx]
    }

    /// Number of children (0 for leaves).
    #[inline]
    pub fn child_len(&self, idx: usize) -> usize {
        self.child_len[idx] as usize
    }

    /// First flat-sensor slot of a leaf.
    #[inline]
    pub fn sensor_start(&self, idx: usize) -> usize {
        self.sensor_start[idx] as usize
    }

    /// Number of sensors under a leaf.
    #[inline]
    pub fn sensor_len(&self, idx: usize) -> usize {
        self.sensor_len[idx] as usize
    }

    /// Sensor id at flat slot `j`.
    #[inline]
    pub fn sensor(&self, j: usize) -> SensorId {
        self.sensors[j]
    }

    /// Sensor kind at flat slot `j`.
    #[inline]
    pub fn sensor_kind(&self, j: usize) -> u16 {
        self.sensor_kind[j]
    }

    /// Frozen availability (`SensorMeta::availability`) at flat slot `j`.
    #[inline]
    pub fn sensor_avail(&self, j: usize) -> f64 {
        self.sensor_avail[j]
    }

    /// Sensor location at flat slot `j`.
    #[inline]
    pub fn sensor_loc(&self, j: usize) -> Point {
        Point::new(self.sensor_x[j], self.sensor_y[j])
    }

    /// Mirrors [`Rect::intersects`] against the packed MBR.
    #[inline]
    pub fn intersects(&self, idx: usize, q: &Rect) -> bool {
        let r = &self.rect[idx];
        r.min.x <= q.max.x && r.max.x >= q.min.x && r.min.y <= q.max.y && r.max.y >= q.min.y
    }

    /// Mirrors `q.contains_rect(bbox(idx))` against the packed MBR.
    #[inline]
    pub fn contained_in(&self, idx: usize, q: &Rect) -> bool {
        let r = &self.rect[idx];
        q.min.x <= r.min.x && q.min.y <= r.min.y && q.max.x >= r.max.x && q.max.y >= r.max.y
    }

    /// Mirrors `q.contains_point(sensor_loc(j))` against the SoA coordinates.
    #[inline]
    pub fn sensor_in_rect(&self, j: usize, q: &Rect) -> bool {
        self.sensor_x[j] >= q.min.x
            && self.sensor_x[j] <= q.max.x
            && self.sensor_y[j] >= q.min.y
            && self.sensor_y[j] <= q.max.y
    }

    /// Classifies the child run `start .. start + len` against viewport `q`:
    /// `class[j]` is 0 (disjoint), 1 (partial overlap), or 2 (contained in
    /// `q`). The body is branch-free and processed four lanes at a time over
    /// the four coordinate slices, which the compiler vectorises; the
    /// comparisons are exactly [`Rect::intersects`] / `contains_rect`, so the
    /// classes agree with the scalar predicates bit for bit.
    pub fn classify_children(&self, start: usize, len: usize, q: &Rect, class: &mut Vec<u8>) {
        class.clear();
        class.resize(len, 0);
        let minx = &self.min_x[start..start + len];
        let miny = &self.min_y[start..start + len];
        let maxx = &self.max_x[start..start + len];
        let maxy = &self.max_y[start..start + len];
        #[inline(always)]
        fn lane(q: &Rect, minx: f64, miny: f64, maxx: f64, maxy: f64) -> u8 {
            let inter =
                (minx <= q.max.x) & (maxx >= q.min.x) & (miny <= q.max.y) & (maxy >= q.min.y);
            let cont =
                (q.min.x <= minx) & (q.min.y <= miny) & (q.max.x >= maxx) & (q.max.y >= maxy);
            inter as u8 + (inter & cont) as u8
        }
        let mut j = 0;
        while j + 4 <= len {
            class[j] = lane(q, minx[j], miny[j], maxx[j], maxy[j]);
            class[j + 1] = lane(q, minx[j + 1], miny[j + 1], maxx[j + 1], maxy[j + 1]);
            class[j + 2] = lane(q, minx[j + 2], miny[j + 2], maxx[j + 2], maxy[j + 2]);
            class[j + 3] = lane(q, minx[j + 3], miny[j + 3], maxx[j + 3], maxy[j + 3]);
            j += 4;
        }
        while j < len {
            class[j] = lane(q, minx[j], miny[j], maxx[j], maxy[j]);
            j += 1;
        }
    }
}

impl ColrTree {
    /// Algorithm 1's layered sampling over the slot-cache tree — the one
    /// query walk. Traversal state is arena indices, MBR tests run against
    /// the SoA coordinate slices, and fully contained rectangular nodes split
    /// over their child weight slice with no overlap tests. Every `a_i`
    /// comes from `live`, the availability source `select` resolved once for
    /// the whole query; with `live` unset it is the arena's frozen build-time
    /// mean, so the walk does not touch the availability lock for it.
    /// `sample_size` is the target this tree is asked for (see
    /// [`ColrTree::select`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_colr_arena<R: Rng + ?Sized>(
        &self,
        query: &Query,
        sample_size: Option<f64>,
        live: Option<&LiveAvailability>,
        now: Timestamp,
        rng: &mut R,
        plan: &mut ProbePlan,
        scratch: &mut QueryScratch,
    ) -> QueryOutput {
        let arena = self.sampling_arena();
        let qr: Option<Rect> = match &query.region {
            Region::Rect(r) => Some(*r),
            _ => None,
        };
        let terminal_level = query.terminal_level.min(self.leaf_level());
        let cover_level = query.cover_level.min(terminal_level);
        let oversampling = self.config.enable_oversampling;
        let node_avail = |idx: usize| {
            match live {
                Some(live) => live.node(NodeId(idx as u32)),
                None => arena.avail_mean(idx),
            }
            .max(MIN_AVAILABILITY)
        };
        let sensor_avail = |j: usize| match live {
            Some(live) => live.sensor(arena.sensor(j)),
            None => arena.sensor_avail(j),
        };
        let mut stats = QueryStats::default();
        // Started at what this thread's recent answers held: grown from
        // nothing, `groups` alone would be reallocated five times a request.
        let mut groups: Vec<GroupResult> = scratch.groups_hint.vec();
        let mut readings: Vec<Reading> = scratch.readings_hint.vec();

        let target = sample_size.unwrap_or(arena.weight(0));
        let mut pq = std::mem::take(&mut scratch.pq);
        pq.reset(self.config.enable_redistribution);
        pq.push(0, target, false);

        while let Some((idx, r_eff, scaled)) = pq.pop() {
            let idx = idx as usize;
            stats.nodes_traversed += 1;
            crate::flight::with(|f| f.node(arena.level(idx)));
            let intersects = match &qr {
                Some(q) => arena.intersects(idx, q),
                None => query.region.intersects_rect(&arena.bbox(idx)),
            };
            if !intersects {
                pq.redistribute(r_eff);
                continue;
            }
            let contained = match &qr {
                Some(q) => arena.contained_in(idx, q),
                None => query.region.contains_rect(&arena.bbox(idx)),
            };

            // --- Terminal: probe/serve this subtree; above the terminal
            // level, down to the cover level, a node whose own slot cache
            // covers it answers the same way and the walk goes on otherwise.
            if contained && arena.level(idx) >= cover_level {
                let avail = if oversampling { node_avail(idx) } else { 1.0 };
                let fulfilled = if arena.level(idx) >= terminal_level {
                    Some(self.serve_terminal(
                        arena,
                        idx,
                        qr.is_some(),
                        r_eff,
                        scaled,
                        avail,
                        query,
                        now,
                        rng,
                        &mut stats,
                        &mut groups,
                        &mut readings,
                        plan,
                        scratch,
                    ))
                } else {
                    self.serve_covered(
                        arena,
                        idx,
                        r_eff,
                        scaled,
                        avail,
                        query,
                        now,
                        &mut stats,
                        &mut groups,
                    )
                };
                if let Some(fulfilled) = fulfilled {
                    let want = if scaled { r_eff * avail } else { r_eff };
                    if fulfilled + TARGET_EPS < want {
                        pq.redistribute(want - fulfilled);
                    }
                    continue;
                }
            }

            // --- Partition the target among children ----------------------
            scratch.kid_nodes.clear();
            scratch.kid_ow.clear();
            scratch.kid_sensors.clear();
            scratch.kid_places.clear();
            scratch.kid_avail.clear();
            let mut denom = 0.0f64;
            let clen = arena.child_len(idx);
            if clen > 0 {
                let cstart = arena.child_range(idx).start;
                match (&qr, query.kind_filter) {
                    (Some(_), None) if contained => {
                        // Every child of a contained node is contained
                        // (rect comparisons are transitive), so each overlap
                        // fraction is exactly 1.0 and the split denominator
                        // is the in-order sum of the child weights.
                        let ws = &arena.weight[cstart..cstart + clen];
                        for (j, &ow) in ws.iter().enumerate() {
                            if ow > TARGET_EPS {
                                scratch.kid_nodes.push((cstart + j) as u32);
                                scratch.kid_ow.push(ow);
                            }
                            denom += ow;
                        }
                    }
                    (Some(q), None) => {
                        // Partial viewport overlap: classify the child run
                        // with the SIMD-friendly pass, then compute exact
                        // overlap fractions only for partially covered kids.
                        arena.classify_children(cstart, clen, q, &mut scratch.class);
                        for j in 0..clen {
                            let c = cstart + j;
                            let ow = match scratch.class[j] {
                                0 => 0.0,
                                2 => arena.weight(c),
                                _ => {
                                    arena.weight(c) * query.region.overlap_fraction(&arena.bbox(c))
                                }
                            };
                            if ow > TARGET_EPS {
                                scratch.kid_nodes.push(c as u32);
                                scratch.kid_ow.push(ow);
                                denom += ow;
                            }
                        }
                    }
                    _ => {
                        // Polygon/circle regions or kind-filtered queries:
                        // every overlap is computed (their EPSILON-based
                        // predicates are not transitive, so no geometric
                        // shortcuts here).
                        for j in 0..clen {
                            let c = cstart + j;
                            let w = match query.kind_filter {
                                None => arena.weight(c),
                                Some(k) => arena.kind_weight(c, k) as f64,
                            };
                            let ow = w * query.region.overlap_fraction(&arena.bbox(c));
                            if ow > TARGET_EPS {
                                scratch.kid_nodes.push(c as u32);
                                scratch.kid_ow.push(ow);
                                denom += ow;
                            }
                        }
                    }
                }
            } else {
                // Leaf partition (only reachable when not contained): match
                // sensors against the query. For rectangular viewports the
                // point test runs on the SoA coordinates.
                let sstart = arena.sensor_start(idx);
                let slen = arena.sensor_len(idx);
                match &qr {
                    Some(q) => {
                        for j in sstart..sstart + slen {
                            let kind_ok =
                                query.kind_filter.is_none_or(|k| arena.sensor_kind(j) == k);
                            if kind_ok && arena.sensor_in_rect(j, q) {
                                scratch.kid_sensors.push(arena.sensor(j));
                                scratch.kid_places.push((j - sstart) as u32);
                                scratch.kid_avail.push(sensor_avail(j));
                                denom += 1.0;
                            }
                        }
                    }
                    None => {
                        for j in sstart..sstart + slen {
                            let s = arena.sensor(j);
                            if query.matches_sensor(self.sensor(s)) {
                                scratch.kid_sensors.push(s);
                                scratch.kid_places.push((j - sstart) as u32);
                                scratch.kid_avail.push(sensor_avail(j));
                                denom += 1.0;
                            }
                        }
                    }
                }
            }
            if denom <= TARGET_EPS {
                // Dead end: give the whole target back to pending nodes.
                pq.redistribute(r_eff);
                continue;
            }

            let mut assigned = 0.0;
            let fulfilled = self.serve_leaf_sensors(
                NodeId(idx as u32),
                arena.bbox(idx),
                r_eff * 1.0 / denom,
                scaled,
                query,
                now,
                rng,
                &mut stats,
                &mut groups,
                &mut readings,
                plan,
                scratch,
            );
            for i in 0..scratch.kid_nodes.len() {
                let c = scratch.kid_nodes[i] as usize;
                let ow = scratch.kid_ow[i];
                let share = r_eff * ow / denom;
                if share <= TARGET_EPS {
                    continue;
                }
                let terminal = match &qr {
                    Some(q) => arena.contained_in(c, q),
                    None => query.region.contains_rect(&arena.bbox(c)),
                } && arena.level(c) >= terminal_level;
                // A terminal child is served (and scaled) when popped, which
                // keeps the traversal order and redistribution simple; any
                // other is scaled up here if it sits at level O and no
                // ancestor has done it.
                let scale_up = !terminal
                    && !scaled
                    && arena.level(c) == crate::sampling::OVERSAMPLE_LEVEL
                    && oversampling;
                let push_target = if scale_up {
                    share / node_avail(c)
                } else {
                    share
                };
                pq.push(c as u32, push_target, scaled || scale_up);
                assigned += share;
            }

            let lag = r_eff - fulfilled - assigned;
            if lag > TARGET_EPS {
                pq.redistribute(lag);
            }
        }
        debug_assert!(pq.is_empty());
        scratch.pq = pq;
        scratch.groups_hint.note(groups.len());
        scratch.readings_hint.note(readings.len());

        QueryOutput {
            groups,
            readings,
            stats,
            latency_ms: 0.0,
        }
    }

    /// Classifies each sensor under arena node `idx` matching the query
    /// (region and type filter) as *cached fresh* (appending its reading to
    /// `cached`) or *uncached* (a probe candidate), visiting nodes in
    /// reverse-DFS order with `stack` as storage and taking each leaf's cache
    /// lock once; visited nodes below `idx` are counted into `stats`. The
    /// candidate order fixes the Fisher–Yates draws over it, so it is part of
    /// the sample stream. When `rect_contained` the per-node intersect tests
    /// and per-sensor point tests are skipped outright: a rectangle
    /// containing the terminal's MBR contains every descendant MBR and sensor
    /// location.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn terminal_scan_arena(
        &self,
        arena: &SamplingArena,
        idx: usize,
        rect_contained: bool,
        query: &Query,
        now: Timestamp,
        stats: &mut QueryStats,
        cached: &mut Vec<Reading>,
        candidates: &mut Vec<SensorId>,
        stack: &mut Vec<u32>,
    ) {
        let staleness = query.staleness;
        stack.clear();
        stack.push(idx as u32);
        let mut first = true;
        while let Some(cur) = stack.pop() {
            let cur = cur as usize;
            // The terminal itself was already counted by the caller.
            if !first {
                stats.nodes_traversed += 1;
                crate::flight::with(|f| f.node(arena.level(cur)));
            }
            first = false;
            if !rect_contained && !query.region.intersects_rect(&arena.bbox(cur)) {
                continue;
            }
            if arena.child_len(cur) > 0 {
                stack.extend(arena.child_range(cur).map(|c| c as u32));
            } else {
                let sstart = arena.sensor_start(cur);
                let slen = arena.sensor_len(cur);
                self.with_cache(NodeId(cur as u32), |nc| {
                    // A sensor's raw reading sits at its place in the leaf.
                    let mut triage = |place: usize, s: SensorId| match nc
                        .entries
                        .fresh_at(place, now, staleness)
                    {
                        Some(reading) => cached.push(reading),
                        None => candidates.push(s),
                    };
                    if rect_contained && query.kind_filter.is_none() {
                        // Contained, unfiltered viewport: every sensor of the
                        // leaf qualifies — the loop is just cache triage.
                        for (place, &s) in arena.leaf_sensors(cur).iter().enumerate() {
                            triage(place, s);
                        }
                        return;
                    }
                    for j in sstart..sstart + slen {
                        let kind_ok = query.kind_filter.is_none_or(|k| arena.sensor_kind(j) == k);
                        if !kind_ok {
                            continue;
                        }
                        if !rect_contained && !query.region.contains_point(&arena.sensor_loc(j)) {
                            continue;
                        }
                        triage(j - sstart, arena.sensor(j));
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::SensorMeta;
    use crate::time::TimeDelta;
    use crate::tree::ColrConfig;

    fn grid_tree(side: usize) -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..side * side)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % side) as f64, (i / side) as f64),
                    TimeDelta::from_mins(5),
                    0.9,
                )
            })
            .collect();
        ColrTree::build(sensors, ColrConfig::default(), 7)
    }

    #[test]
    fn classify_matches_scalar_predicates() {
        let tree = grid_tree(10);
        let arena = tree.sampling_arena();
        let viewports = [
            Rect::from_coords(-1.0, -1.0, 20.0, 20.0),
            Rect::from_coords(2.0, 2.0, 5.5, 7.5),
            Rect::from_coords(3.0, 3.0, 3.0, 3.0),
            Rect::from_coords(40.0, 40.0, 50.0, 50.0),
        ];
        let mut class = Vec::new();
        for idx in 0..arena.node_count() {
            let clen = arena.child_len(idx);
            if clen == 0 {
                continue;
            }
            let start = arena.child_range(idx).start;
            for q in &viewports {
                arena.classify_children(start, clen, q, &mut class);
                for (j, &got) in class.iter().enumerate().take(clen) {
                    let bb = arena.bbox(start + j);
                    let expect = if !q.intersects(&bb) {
                        0
                    } else if q.contains_rect(&bb) {
                        2
                    } else {
                        1
                    };
                    assert_eq!(got, expect, "node {idx} child {j} vs {q:?}");
                }
            }
        }
    }
}
