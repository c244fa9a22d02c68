//! The COLR-Tree structure and its cache-maintenance operations.
//!
//! A [`ColrTree`] is an R-Tree bulk-built bottom-up over the registered
//! sensors (Section III-C), where **every node carries a slot cache**
//! (Section IV-B): leaves cache raw readings, internal nodes cache per-slot
//! partial aggregates over their descendants' readings. All caches share one
//! globally aligned slotting scheme, so maintenance is strictly bottom-up:
//!
//! * **insert/update** — a probed reading lands in its home leaf and its
//!   value is added to the matching slot of every ancestor; replacing an
//!   existing reading first decrements the old value (rebuilding any slot
//!   whose aggregate cannot be decremented — the min/max case). A write-back
//!   is applied from one flat list of `(node, plan)` keys, a key per reading:
//!   sorted, equal nodes are neighbours with their readings in arrival
//!   order, so one walk of the list applies a level with one stripe hold per
//!   touched node; the keys then move to the parents and the list is sorted
//!   and walked again, leaves to root. Within a node the readings go in
//!   arrival order, a reading's removal of what it replaced before its own
//!   insertion — the order one-at-a-time insertion takes the floating-point
//!   sums in, so every aggregate is bit-identical to it. No per-node list is
//!   ever built; the buffers are pooled behind the maintenance mutex;
//! * **roll** — when simulated time crosses a slot boundary the window
//!   slides. Every node that *opens* a slot is listed under that slot in a
//!   ring of per-expiry-slot buckets (`num_slots + 1` of them, the window
//!   mapped one to one), so the roll drains the expired buckets and visits
//!   exactly the listed nodes: the slot is dropped there and, at a leaf, the
//!   raw readings it covered are expunged in the same hold. A roll costs
//!   what expired, not what exists;
//! * **evict** — a tree-wide raw-cache capacity constraint is enforced by
//!   evicting the *least recently fetched* readings from the *oldest* slot
//!   (Section IV-A's replacement policy). The same buckets hold a
//!   `(fetched_at, sensor)` tuple per cached reading, appended on insert and
//!   put in order only when eviction or [`ColrTree::cached_entries`] asks:
//!   walked from the window base up they are the global
//!   `(slot, fetched_at, sensor)` order. Deletion is lazy — a reading
//!   replaced or removed leaves its tuple behind, and a reader of the
//!   bucket checks each tuple against the leaf entry it names.
//!
//! ## Where the structure lives
//!
//! The topology is one flat, read-only [`crate::arena::SamplingArena`]: the
//! bulk loader's nodes are flattened into it when the build ends and dropped
//! (`ColrTree::assemble`). Every walk — Algorithm 1, the two baseline
//! modes, a write-back climbing parent links — reads it, and
//! [`ColrTree::node`] hands out a borrowed [`NodeRef`] view of it for
//! everything that wants a node's fields by name. A node has one name, its
//! [`NodeId`], which is its breadth-first position in the arena: a walk, a
//! node's stripe cache, a parent link and a write-back key all index by it.
//!
//! ## Concurrency
//!
//! The static index (the arena, the sensor registry) is immutable
//! after construction and read without synchronisation. The *mutable* state —
//! every node's cache — lives outside it, sharded over [`CACHE_STRIPES`]
//! reader–writer locks, so concurrent queries can read (and write back to)
//! disjoint parts of the tree without contending on a single lock. A node's
//! stripe is its run of `2^s` consecutive ids, runs dealt to the stripes in
//! turn, `s = ilog2(max(1, node_count / CACHE_STRIPES))` fixed at assembly:
//! siblings and a level's nodes are consecutive ids, so one viewport's walk
//! takes a handful of stripes, not all of them, and two clients on different
//! viewports seldom share a lock line. A stripe is three flat slabs
//! (`Stripe`): a 16-byte head per node,
//! the nodes' slot rings end to end as 48-byte cells, and one place per leaf
//! sensor for its raw reading. A visit is lock → head → one contiguous run
//! of cells, handed to the caller as a borrowed [`NodeCache`]; nothing in a
//! node's cache is a heap allocation of its own. Cross-node bookkeeping (the
//! window base, the bucket ring, the cached-reading count) sits behind one
//! maintenance mutex that serialises mutators; a query takes it only to roll
//! the window or to wait out a write-back in flight (see
//! [`ColrTree::advance`]), so one that is purely cache-served touches only the
//! stripes it reads.
//!
//! Lock ordering is `maint → (one stripe at a time)`: mutators hold the
//! maintenance lock across a whole logical operation and acquire stripe locks
//! one node at a time; readers hold at most one stripe lock at any instant
//! and never take the maintenance lock while holding a stripe. This makes
//! deadlock impossible by construction. Concurrent readers may observe a
//! bottom-up update mid-flight (a leaf updated, an ancestor not yet) — the
//! same transient inconsistency the paper's portal tolerates between cache
//! triggers; per-node state is always internally consistent. Four things a
//! reader relies on, each restated where the code keeps it: `settled_below`
//! is 0 for the whole `maint` hold of a write-back, so a query that starts
//! meanwhile waits at `advance`; each node a duplicate-free run touches is
//! written under one stripe hold (a slot that could not be decremented is
//! recomputed inside that hold at a leaf, right after it at an internal
//! node); a write-back longer than a probe wave, applied a wave at a time
//! (`ColrTree::apply_readings`), marks the nodes it is filling first
//! (`ColrTree::mark_filling`), and the coverage gate serves none of them
//! until the last chunk is in; and a roll publishes
//! `cache_base + 1` only after every node that held an expired slot has been
//! cleared.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use colr_geo::Rect;
use parking_lot::{Mutex, RwLock};

use crate::arena::{Home, SamplingArena};
use crate::reading::{Reading, SensorId, SensorMeta};
use crate::slot_cache::{
    Cell, RemoveOutcome, Side, Slot, SlotCache, SlotConfig, SlotRing, SlotRingMut, NO_KIND,
};
use crate::time::{TimeDelta, Timestamp};

/// Number of reader–writer locks the per-node caches are sharded over.
pub const CACHE_STRIPES: usize = 64;

/// The log2 length of a stripe run in a tree of `node_count` nodes: one to
/// two runs a stripe.
fn stripe_shift(node_count: usize) -> u32 {
    (node_count / CACHE_STRIPES).max(1).ilog2()
}

/// Where node `id` lives: its stripe and its position there. Run
/// `id >> shift` goes to stripe `run % CACHE_STRIPES`, and a stripe's runs
/// sit end to end in its slabs, so its positions are dense.
#[inline]
fn stripe_slot(shift: u32, id: usize) -> (usize, usize) {
    let run = id >> shift;
    let within = id & ((1 << shift) - 1);
    (run % CACHE_STRIPES, (run / CACHE_STRIPES) << shift | within)
}

/// Mean bounding-box diagonal per level, root first, each level's diagonals
/// summed in node-id order. Breadth-first order leaves no level empty.
fn mean_level_diameters(arena: &SamplingArena) -> Box<[f64]> {
    let levels = arena.level(arena.node_count() - 1) as usize + 1;
    let mut sums = vec![(0.0f64, 0usize); levels];
    for id in 0..arena.node_count() {
        let bbox = arena.bbox(id);
        let (sum, count) = &mut sums[arena.level(id) as usize];
        *sum += (bbox.width().powi(2) + bbox.height().powi(2)).sqrt();
        *count += 1;
    }
    sums.into_iter()
        .map(|(sum, count)| sum / count as f64)
        .collect()
}

/// A node's id: its breadth-first position in the arena — the root is 0 and
/// each node's children are one contiguous run of ids, a level's nodes one
/// run after the level above. The same number keys the node's cache, its
/// parent link and every result that names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The ids of an internal node's children: one contiguous run, `.0 .. .1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRange(pub(crate) u32, pub(crate) u32);

impl NodeRange {
    /// The children's ids, in child order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (self.0..self.1).map(NodeId)
    }
}

/// A node's children: internal nodes point at other nodes, leaves at sensors.
#[derive(Debug, Clone, Copy)]
pub enum Children<'a> {
    /// Child nodes of an internal node.
    Internal(NodeRange),
    /// Sensors homed at a leaf, a slice of the arena.
    Leaf(&'a [SensorId]),
}

/// A raw reading cached at a leaf, with the instant it was fetched (for the
/// least-recently-fetched replacement policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedEntry {
    /// The cached reading.
    pub reading: Reading,
    /// When the portal fetched it from the sensor.
    pub fetched_at: Timestamp,
}

impl CachedEntry {
    /// What an empty place of a leaf's entries holds. No cached reading
    /// expires at instant 0 (only a live one is ever cached), and the value
    /// is fresh at no instant, so a scan that asks only for fresh readings
    /// need not ask whether the place is taken.
    const ABSENT: CachedEntry = CachedEntry {
        reading: Reading {
            sensor: SensorId(u32::MAX),
            value: 0.0,
            timestamp: Timestamp(0),
            expires_at: Timestamp(0),
        },
        fetched_at: Timestamp(0),
    };

    #[inline]
    fn is_absent(&self) -> bool {
        self.reading.expires_at == Timestamp(0)
    }
}

/// A leaf's raw cached readings: one place per sensor homed at the leaf, in
/// leaf order ([`NodeRef::children`]), some of them empty. Empty at an
/// internal node.
#[derive(Debug, Clone, Copy)]
pub struct LeafEntries<'a>(&'a [CachedEntry]);

impl<'a> LeafEntries<'a> {
    /// The cached entry of the leaf's `place`-th sensor, if it has one.
    #[inline]
    pub fn at(&self, place: usize) -> Option<&'a CachedEntry> {
        self.0.get(place).filter(|e| !e.is_absent())
    }

    /// The cached reading of the leaf's `place`-th sensor if it is fresh at
    /// `now` under `staleness` — one test, as an empty place is never fresh.
    #[inline]
    pub(crate) fn fresh_at(
        &self,
        place: usize,
        now: Timestamp,
        staleness: TimeDelta,
    ) -> Option<Reading> {
        let reading = self.0[place].reading;
        reading.is_fresh(now, staleness).then_some(reading)
    }

    /// The entries held, in leaf order.
    pub fn iter(&self) -> impl Iterator<Item = &'a CachedEntry> {
        self.into_iter()
    }
}

impl<'a> IntoIterator for &LeafEntries<'a> {
    type Item = &'a CachedEntry;
    type IntoIter = std::iter::Filter<std::slice::Iter<'a, CachedEntry>, fn(&&CachedEntry) -> bool>;

    fn into_iter(self) -> Self::IntoIter {
        let held: fn(&&CachedEntry) -> bool = |e| !e.is_absent();
        self.0.iter().filter(held)
    }
}

/// The mutable cache state of one node, borrowed from its stripe for the
/// length of a [`ColrTree::with_cache`] hold: its slot cache of partial
/// aggregates and (at leaves) the raw cached readings. Kept apart from the
/// structure so queries can share the immutable arena while cache access goes
/// through the striped locks.
#[derive(Debug, Clone, Copy)]
pub struct NodeCache<'a> {
    /// The node's slot cache (leaf caches mirror their raw entries so parent
    /// updates are uniform).
    pub cache: SlotRing<'a>,
    /// Raw cached readings; non-empty only at leaves.
    pub entries: LeafEntries<'a>,
    /// Requests that are writing readings back below this node a wave at a
    /// time and have not written the last (`ColrTree::mark_filling`).
    /// While it is non-zero the node's count is part of a fill, not a
    /// population, and the coverage gate does not serve it.
    pub(crate) filling: u32,
    id: NodeId,
    arena: &'a SamplingArena,
}

impl<'a> NodeCache<'a> {
    /// The cached entry for `sensor`, if any: its place is looked up, not
    /// searched for.
    pub fn entry(&self, sensor: SensorId) -> Option<&'a CachedEntry> {
        let home = self.arena.home(sensor).filter(|h| h.leaf == self.id)?;
        self.entries.at(home.place as usize)
    }
}

/// [`NodeCache`] with the right to change it ([`ColrTree::with_cache_mut`]).
pub(crate) struct NodeCacheMut<'a> {
    pub(crate) cache: SlotRingMut<'a>,
    /// The leaf's places (see [`LeafEntries`]), [`CachedEntry::ABSENT`] where
    /// empty.
    entries: &'a mut [CachedEntry],
    filling: &'a mut u32,
}

/// A copy of one node's cache that owns itself ([`ColrTree::cache_snapshot`]).
#[derive(Debug, Clone)]
pub struct NodeCacheSnapshot {
    /// The node's slot cache.
    pub cache: SlotCache,
    /// Raw cached readings, by sensor id; non-empty only at leaves.
    pub entries: Vec<CachedEntry>,
}

/// What a stripe keeps per node beside its ring.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// See [`NodeCache::filling`].
    filling: u32,
    /// Which sensor kinds the node's ring has held (see [`SlotRing`]).
    kinds: u32,
    /// The leaf's places in the stripe's `entries` (an empty range at an
    /// internal node).
    entry_start: u32,
    entry_len: u32,
}

/// The cache state of every node of one lock stripe, each at its position
/// there (`stripe_slot`): three slabs and the side tables most nodes never
/// need, so a visit reads its head and one contiguous run of cells.
#[derive(Debug, Clone)]
pub(crate) struct Stripe {
    heads: Vec<Head>,
    /// `ring` cells per node, node-major.
    cells: Vec<Cell>,
    /// One place per sensor of each leaf, leaf by leaf, each leaf's in leaf
    /// order.
    entries: Vec<CachedEntry>,
    side: Side,
}

/// One tree node — the immutable structural part, as a borrowed view of the
/// arena ([`ColrTree::node`]); the node's cache lives in the tree's
/// lock-striped cache table (see [`ColrTree::with_cache`]).
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    /// Depth from the root (root is level 0, as in the paper).
    pub level: u16,
    /// Minimum bounding rectangle of the descendant sensors.
    pub bbox: Rect,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children.
    pub children: Children<'a>,
    /// Number of descendant sensors — the sampling weight `w_i`.
    pub weight: u64,
    /// Descendant sensor counts per sensor type (sorted by kind). Lets
    /// type-filtered queries partition targets and check aggregate coverage
    /// against the right population.
    pub kind_weights: &'a [(u16, u64)],
    /// Mean historical availability of descendant sensors — the `a_i` used
    /// by oversampling.
    pub avail_mean: f64,
}

/// The weight of `kind` in a node's `(kind, weight)` rows, sorted by kind.
pub(crate) fn weight_of_kind(rows: &[(u16, u64)], kind: u16) -> u64 {
    rows.binary_search_by_key(&kind, |(k, _)| *k)
        .map_or(0, |i| rows[i].1)
}

impl NodeRef<'_> {
    /// `true` when the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.children, Children::Leaf(_))
    }

    /// Number of descendant sensors of one type.
    pub fn weight_of_kind(&self, kind: u16) -> u64 {
        weight_of_kind(self.kind_weights, kind)
    }
}

/// How the bulk loader clusters sensors (Section III-C uses k-means; STR
/// packing — the Kamel–Faloutsos style the paper cites — is provided as an
/// ablation alternative).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BuildStrategy {
    /// Bottom-up iterative k-means clustering (the paper's construction).
    #[default]
    KMeans,
    /// Sort-Tile-Recursive packing.
    Str,
}

/// Configuration of a COLR-Tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ColrConfig {
    /// Number of slots `m` in every slot cache.
    pub num_slots: usize,
    /// Tree-wide cap on cached raw readings (`None` = unconstrained). The
    /// paper varies this between 16% and 32% of the sensor population.
    pub cache_capacity: Option<usize>,
    /// Bulk-load strategy.
    pub build: BuildStrategy,
    /// Ablation switch: when `false`, layered sampling skips the
    /// availability scale-up of Algorithm 1 (targets are taken at face
    /// value, so failures directly shrink the sample).
    pub enable_oversampling: bool,
    /// Ablation switch: when `false`, Algorithm 2's redistribution is
    /// disabled (shortfalls are simply lost).
    pub enable_redistribution: bool,
}

impl Default for ColrConfig {
    fn default() -> Self {
        ColrConfig {
            num_slots: 8,
            cache_capacity: None,
            build: BuildStrategy::default(),
            enable_oversampling: true,
            enable_redistribution: true,
        }
    }
}

/// One expiry slot's share of the cross-node bookkeeping: which readings
/// were cached with an expiry inside the slot, and which nodes' slot caches
/// opened it. Both lists are append-only until the slot slides out of the
/// window, when the roll drains them.
#[derive(Debug, Clone, Default)]
struct SlotBucket {
    /// `(fetched_at, sensor)` of every reading cached into this slot. A
    /// reading since replaced or removed leaves its tuple behind; whoever
    /// reads the bucket skips it by checking the leaf entry
    /// ([`ColrTree::bucket_entry`]).
    readings: Vec<Fetched>,
    /// `readings` is in `(fetched_at, sensor)` order with no tuple twice.
    ordered: bool,
    /// Every node whose slot cache opened this slot — a superset of the
    /// nodes holding it now (a removal can empty a slot), and a node is
    /// listed again if it re-opens one.
    nodes: Vec<NodeId>,
}

/// A cached reading's place in its bucket's eviction order — `(fetched_at,
/// sensor)`, which is how the derived ordering compares — in 12 bytes
/// rather than a padded 16: the buckets hold one per reading cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fetched([u32; 3]);

impl Fetched {
    fn new(at: Timestamp, sensor: SensorId) -> Fetched {
        let ms = at.millis();
        Fetched([(ms >> 32) as u32, ms as u32, sensor.0])
    }

    fn at(self) -> Timestamp {
        Timestamp(u64::from(self.0[0]) << 32 | u64::from(self.0[1]))
    }

    fn sensor(self) -> SensorId {
        SensorId(self.0[2])
    }
}

impl SlotBucket {
    /// Sorts `readings` into eviction order, least recently fetched first,
    /// which only capacity eviction and `cached_entries` ask for.
    fn put_in_order(&mut self) {
        if !self.ordered {
            self.readings.sort_unstable();
            self.readings.dedup();
            self.ordered = true;
        }
    }
}

/// One validated reading of a write-back run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    entry: CachedEntry,
    /// The leaf entry `entry` replaced, known once the leaf has been written.
    old: Option<CachedEntry>,
    leaf: NodeId,
    /// The sensor's place among its leaf's entries.
    place: u32,
    kind: u16,
}

/// A write-back's buffers, reused across calls (they sit behind the
/// maintenance mutex like everything else here) and cut back to
/// [`POOL_KEEP`] elements after an unusually large batch.
#[derive(Debug, Clone, Default)]
struct Pool {
    /// `apply_readings`' batch as entries.
    batch: Vec<CachedEntry>,
    /// `(sensor, position in the batch)`, for finding repeated sensors.
    by_sensor: Vec<(SensorId, u32)>,
    plans: Vec<Plan>,
    /// The flat run list, one [`run_key`] per plan.
    keys: Vec<u64>,
    /// The slots of the node in hand that a removal could not decrement.
    rebuilds: Vec<u64>,
}

/// A write-back's sort key: the node a plan is about to touch in the high
/// half, the plan's index (its arrival position in the run) in the low half,
/// so that sorting groups a level's plans by node and leaves each node's in
/// arrival order. The index fits: a run names no sensor twice, and sensor ids
/// are `u32`.
fn run_key(node: NodeId, plan: usize) -> u64 {
    u64::from(node.0) << 32 | plan as u64
}

/// Pooled buffers keep at most this many elements between write-backs: a
/// probe wave's worth of keys, not a merge carry-over's.
const POOL_KEEP: usize = 1024;

/// Hands a used buffer back to its pool.
fn recycle<T>(pooled: &mut Vec<T>, mut used: Vec<T>) {
    used.clear();
    used.shrink_to(POOL_KEEP);
    *pooled = used;
}

/// Cross-node cache bookkeeping, guarded by one mutex so that logical
/// mutations (insert + ancestor updates + eviction) are serialised while
/// readers proceed through the stripes.
#[derive(Debug, Clone)]
pub(crate) struct Maintenance {
    /// Oldest slot that can still hold live readings.
    pub(crate) cache_base: u64,
    /// Total raw readings cached across all leaves.
    pub(crate) total_cached: usize,
    /// Ring of `num_slots + 1` per-expiry-slot buckets, slot `s` at
    /// `s % len`: the window `[cache_base, cache_base + len)` maps onto it
    /// one to one. Walked from `cache_base` up, each bucket in
    /// `(fetched_at, sensor)` order, it is the global eviction order.
    buckets: Vec<SlotBucket>,
    pool: Pool,
}

impl Maintenance {
    fn new(num_slots: usize) -> Maintenance {
        Maintenance {
            cache_base: 0,
            total_cached: 0,
            buckets: vec![SlotBucket::default(); num_slots + 1],
            pool: Pool::default(),
        }
    }

    fn bucket(&self, slot: u64) -> &SlotBucket {
        &self.buckets[(slot % self.buckets.len() as u64) as usize]
    }

    fn bucket_mut(&mut self, slot: u64) -> &mut SlotBucket {
        let len = self.buckets.len() as u64;
        &mut self.buckets[(slot % len) as usize]
    }

    /// One past the youngest slot the window holds.
    fn window_top(&self) -> u64 {
        self.cache_base + self.buckets.len() as u64
    }
}

/// The marks of one multi-wave fill ([`ColrTree::mark_filling`]), cleared
/// when it drops — the request returned, or a probe backend panicked and the
/// request is unwinding; either way no mark outlives its request.
pub(crate) struct Filling<'a> {
    tree: &'a ColrTree,
    nodes: Vec<NodeId>,
}

impl Drop for Filling<'_> {
    fn drop(&mut self) {
        for &id in &self.nodes {
            self.tree
                .with_cache_mut(id, |c| *c.filling = c.filling.saturating_sub(1));
        }
    }
}

/// The COLR-Tree: a bulk-built R-Tree whose every node carries a slot cache,
/// plus the tree-wide raw-cache accounting.
///
/// All cache-touching operations take `&self`: reads go through the striped
/// cache locks, mutations additionally serialise on the maintenance mutex.
/// A `ColrTree` can therefore be shared across query threads directly (e.g.
/// behind an `Arc`) with no external locking.
#[derive(Debug)]
pub struct ColrTree {
    pub(crate) config: ColrConfig,
    pub(crate) slot_config: SlotConfig,
    pub(crate) t_max: TimeDelta,
    pub(crate) sensors: Vec<SensorMeta>,
    /// Per-node caches, sharded by runs of `2^stripe_shift` consecutive ids
    /// (`stripe_slot`).
    pub(crate) stripes: Vec<RwLock<Stripe>>,
    /// The log2 length of a stripe run, fixed at assembly.
    stripe_shift: u32,
    /// Serialises mutators and holds the cross-node accounting.
    pub(crate) maint: Mutex<Maintenance>,
    /// Window bases below this need no maintenance: `cache_base + 1`,
    /// stored (`Release`) under `maint` once a roll has cleared every node
    /// that held an expired slot, and loaded (`Acquire`) by [`ColrTree::advance`] before it touches
    /// `maint`; 0 while a write-back is in flight, so a query starting then
    /// still waits it out.
    pub(crate) settled_below: AtomicU64,
    /// Optional live availability estimates (fault-tolerance layer).
    /// When set, Algorithm 1 consults these instead of the frozen
    /// build-time `avail_mean` / `SensorMeta::availability`.
    pub(crate) live_avail: RwLock<Option<Arc<crate::avail::LiveAvailability>>>,
    /// The node structure, flattened from the builder's nodes: what every
    /// walk reads. Immutable, so clones share it.
    pub(crate) arena: Arc<crate::arena::SamplingArena>,
    /// Mean node bounding-box diagonal per level, root first, fixed at
    /// assembly ([`ColrTree::level_diameters`]).
    level_diameters: Box<[f64]>,
}

impl Clone for ColrTree {
    fn clone(&self) -> Self {
        let maint = self.maint.lock().clone();
        ColrTree {
            config: self.config.clone(),
            slot_config: self.slot_config,
            t_max: self.t_max,
            sensors: self.sensors.clone(),
            stripes: self
                .stripes
                .iter()
                .map(|s| {
                    let mut stripe = s.read().clone();
                    // A fill in flight clears its marks on `self` only.
                    stripe.heads.iter_mut().for_each(|h| h.filling = 0);
                    RwLock::new(stripe)
                })
                .collect(),
            stripe_shift: self.stripe_shift,
            settled_below: AtomicU64::new(maint.cache_base + 1),
            maint: Mutex::new(maint),
            // Estimates describe the same physical sensors, so clones share
            // the map (and keep learning from each other's probes).
            live_avail: RwLock::new(self.live_avail.read().clone()),
            arena: self.arena.clone(),
            level_diameters: self.level_diameters.clone(),
        }
    }
}

impl ColrTree {
    /// Assembles a tree from bulk-built parts: flattens the builder's nodes
    /// into the arena (BFS numbering, children contiguous, SoA bounding boxes,
    /// levels and parent links), drops them, and lays out an empty cache for
    /// every node: per stripe a head and a ring of cells per node and a place
    /// per leaf sensor, each slab one allocation.
    pub(crate) fn assemble(
        config: ColrConfig,
        slot_config: SlotConfig,
        t_max: TimeDelta,
        sensors: Vec<SensorMeta>,
        scaffold: crate::build::Scaffold,
    ) -> ColrTree {
        let arena = SamplingArena::flatten(&scaffold, &sensors);
        let node_count = arena.node_count();
        let level_diameters = mean_level_diameters(&arena);
        let ring = slot_config.num_slots + 1;
        let shift = stripe_shift(node_count);
        // Ids in order fill each stripe's positions in order.
        let mut heads: Vec<Vec<Head>> = (0..CACHE_STRIPES)
            .map(|_| Vec::with_capacity(2 << shift))
            .collect();
        let mut places = [0u32; CACHE_STRIPES];
        for id in 0..node_count {
            let stripe = stripe_slot(shift, id).0;
            let entry_len = arena.sensor_len(id) as u32;
            heads[stripe].push(Head {
                filling: 0,
                kinds: NO_KIND,
                entry_start: places[stripe],
                entry_len,
            });
            places[stripe] += entry_len;
        }
        let stripes = heads.into_iter().zip(places).map(|(heads, places)| {
            let cells = heads.len() * ring;
            RwLock::new(Stripe {
                heads,
                cells: vec![Cell::EMPTY; cells],
                entries: vec![CachedEntry::ABSENT; places as usize],
                side: Side::new(cells),
            })
        });
        ColrTree {
            config,
            slot_config,
            t_max,
            sensors,
            stripes: stripes.collect(),
            stripe_shift: shift,
            maint: Mutex::new(Maintenance::new(slot_config.num_slots)),
            settled_below: AtomicU64::new(0),
            live_avail: RwLock::new(None),
            arena: Arc::new(arena),
            level_diameters,
        }
    }

    // ------------------------------------------------------------------
    // Cache access
    // ------------------------------------------------------------------

    /// Runs `f` with shared access to the cache of node `id`.
    ///
    /// Holds the node's stripe read lock for the duration of `f`; do not
    /// call tree mutators (or `with_cache_mut`) from inside the closure.
    pub fn with_cache<T>(&self, id: NodeId, f: impl FnOnce(NodeCache<'_>) -> T) -> T {
        let (stripe, pos) = stripe_slot(self.stripe_shift, id.index());
        let guard = match self.stripes[stripe].try_read() {
            Some(g) => g,
            None => {
                crate::telem::tree().stripe_read_contention.inc();
                self.stripes[stripe].read()
            }
        };
        let head = guard.heads[pos];
        let ring = self.slot_config.num_slots + 1;
        let at = pos * ring;
        f(NodeCache {
            cache: SlotRing {
                config: &self.slot_config,
                cells: &guard.cells[at..at + ring],
                kinds: head.kinds,
                side: &guard.side,
                at,
            },
            entries: LeafEntries(
                &guard.entries[head.entry_start as usize..][..head.entry_len as usize],
            ),
            filling: head.filling,
            id,
            arena: &self.arena,
        })
    }

    /// Runs `f` with exclusive access to the cache of node `id`.
    ///
    /// Holds the node's stripe write lock for the duration of `f`; same
    /// re-entrancy rule as [`ColrTree::with_cache`].
    pub(crate) fn with_cache_mut<T>(&self, id: NodeId, f: impl FnOnce(NodeCacheMut<'_>) -> T) -> T {
        let (stripe, pos) = stripe_slot(self.stripe_shift, id.index());
        let mut guard = match self.stripes[stripe].try_write() {
            Some(g) => g,
            None => {
                crate::telem::tree().stripe_write_contention.inc();
                self.stripes[stripe].write()
            }
        };
        let Stripe {
            heads,
            cells,
            entries,
            side,
        } = &mut *guard;
        let head = &mut heads[pos];
        let ring = self.slot_config.num_slots + 1;
        let at = pos * ring;
        f(NodeCacheMut {
            cache: SlotRingMut {
                config: &self.slot_config,
                cells: &mut cells[at..at + ring],
                kinds: &mut head.kinds,
                side,
                at,
            },
            entries: &mut entries[head.entry_start as usize..][..head.entry_len as usize],
            filling: &mut head.filling,
        })
    }

    /// A point-in-time copy of the cache of node `id` (for inspection and
    /// tests; queries use [`ColrTree::with_cache`] to avoid the copy).
    pub fn cache_snapshot(&self, id: NodeId) -> NodeCacheSnapshot {
        self.with_cache(id, |c| {
            let mut cache = SlotCache::new(self.slot_config);
            for abs in c.cache.held_slots() {
                let slot = c.cache.slot(abs);
                debug_assert!(
                    slot.is_some(),
                    "`held_slots` lists only slots the ring holds"
                );
                if let Some(slot) = slot {
                    cache.set_slot(abs, slot);
                }
            }
            let mut entries: Vec<CachedEntry> = c.entries.iter().copied().collect();
            entries.sort_unstable_by_key(|e| e.reading.sensor);
            NodeCacheSnapshot { cache, entries }
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tree configuration.
    pub fn config(&self) -> &ColrConfig {
        &self.config
    }

    /// The slot-cache configuration shared by every node.
    pub fn slot_config(&self) -> &SlotConfig {
        &self.slot_config
    }

    /// The maximum sensor expiry (`t_max`), which the slot window covers.
    pub fn t_max(&self) -> TimeDelta {
        self.t_max
    }

    /// The root node id: always `NodeId(0)`.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// A node's structural fields, as a view of the arena.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        self.arena.node(id)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.arena.node_count()
    }

    /// Level of the leaves (tree height; root is level 0): the last node's,
    /// since breadth-first order ends on the deepest level.
    pub fn leaf_level(&self) -> u16 {
        self.arena.level(self.node_count() - 1)
    }

    /// Mean node bounding-box diagonal per level, root first — the spatial
    /// resolution of each level, which the planner maps `CLUSTER d` onto.
    /// Computed once, at assembly.
    pub fn level_diameters(&self) -> &[f64] {
        &self.level_diameters
    }

    /// All registered sensors, indexed by [`SensorId`].
    pub fn sensors(&self) -> &[SensorMeta] {
        &self.sensors
    }

    /// Metadata of one sensor.
    pub fn sensor(&self, id: SensorId) -> &SensorMeta {
        &self.sensors[id.index()]
    }

    /// The leaf a sensor is homed at. `id` must be one of the tree's
    /// sensors, as for [`ColrTree::sensor`]: the flattening homes every one.
    pub fn home_leaf(&self, id: SensorId) -> NodeId {
        self.arena.home_leaf(id)
    }

    /// Number of raw readings currently cached tree-wide.
    pub fn cached_readings(&self) -> usize {
        self.maint.lock().total_cached
    }

    /// The flattened node structure every walk runs over, built once per
    /// generation by the bulk loader.
    pub fn sampling_arena(&self) -> &crate::arena::SamplingArena {
        &self.arena
    }

    // ------------------------------------------------------------------
    // Live availability (fault-tolerance layer)
    // ------------------------------------------------------------------

    /// Switches Algorithm 1 from the frozen build-time availability means
    /// to a live EWMA map seeded from them, and returns the map so a probe
    /// layer (e.g. `ResilientProber::attach_availability`) can feed it.
    /// Idempotent: a second call returns the existing map. `rebuild`
    /// discards the map (the arena it indexes is gone) — re-enable
    /// and re-attach after rebuilding.
    pub fn enable_live_availability(&self, alpha: f64) -> Arc<crate::avail::LiveAvailability> {
        let mut slot = self.live_avail.write();
        if let Some(live) = &*slot {
            return live.clone();
        }
        let live = Arc::new(crate::avail::LiveAvailability::from_tree(self, alpha));
        *slot = Some(live.clone());
        live
    }

    /// The live availability map, when enabled.
    pub fn live_availability(&self) -> Option<Arc<crate::avail::LiveAvailability>> {
        self.live_avail.read().clone()
    }

    /// Reverts Algorithm 1 to the frozen build-time availability means.
    pub fn disable_live_availability(&self) {
        *self.live_avail.write() = None;
    }

    /// Iterates over node ids in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    // ------------------------------------------------------------------
    // Window maintenance (the roll trigger)
    // ------------------------------------------------------------------

    /// Slides the slot window forward to cover `now`, expiring whole slots at
    /// every node that holds one and expunging the raw readings they covered
    /// (Section VI-B's roll trigger). Idempotent; called by every public
    /// operation. Returns without touching `maint` when the window already
    /// covers `now` and no write-back is in flight.
    pub fn advance(&self, now: Timestamp) {
        if self.slot_config.base_at(now) < self.settled_below.load(Ordering::Acquire) {
            return;
        }
        let mut maint = self.maint.lock();
        self.advance_locked(&mut maint, now);
        self.settled_below
            .store(maint.cache_base + 1, Ordering::Release);
    }

    /// The roll proper. Drains the buckets of the slots that slid out and
    /// visits only the nodes listed there — the ones whose slot caches opened
    /// an expired slot — dropping the slot and, at a leaf, the raw readings
    /// it covered under one stripe hold per node. `cache_base` moves (and
    /// [`ColrTree::advance`] publishes `cache_base + 1`) only after the last
    /// of them is clear. Returns how many node slots were dropped.
    fn advance_locked(&self, maint: &mut Maintenance, now: Timestamp) -> usize {
        let new_base = self.slot_config.base_at(now);
        if new_base <= maint.cache_base {
            return 0;
        }
        let telem = crate::telem::tree();
        // A window that idled for longer than it is wide still only had
        // `num_slots + 1` slots to lose.
        let expired = (new_base - maint.cache_base).min(maint.buckets.len() as u64);
        telem.slots_rolled.add(expired);
        let mut dropped = 0;
        let mut expunged = 0;
        for slot in maint.cache_base..maint.cache_base + expired {
            let bucket = maint.bucket_mut(slot);
            bucket.readings.clear();
            for id in bucket.nodes.drain(..) {
                let (slots, readings) = self.with_cache_mut(id, |mut c| {
                    let mut expunged = 0;
                    for e in c.entries.iter_mut().filter(|e| !e.is_absent()) {
                        if self.slot_config.slot_of(e.reading.expires_at) < new_base {
                            *e = CachedEntry::ABSENT;
                            expunged += 1;
                        }
                    }
                    (c.cache.drop_slot(slot), expunged)
                });
                dropped += usize::from(slots);
                expunged += readings;
            }
        }
        maint.total_cached -= expunged;
        maint.cache_base = new_base;
        telem.readings_expunged.add(expunged as u64);
        telem.cached_readings.set(maint.total_cached as i64);
        dropped
    }

    // ------------------------------------------------------------------
    // Reading insertion / update (slot insert + update triggers)
    // ------------------------------------------------------------------

    /// Caches a freshly collected reading, updating the leaf raw cache and
    /// every ancestor's slot aggregate, then enforces the cache capacity.
    ///
    /// Returns `true` when the reading was cached (expired readings and
    /// readings beyond the window are dropped).
    pub fn insert_reading(&self, reading: Reading, now: Timestamp) -> bool {
        let mut maint = self.maint.lock();
        let entry = CachedEntry {
            reading,
            fetched_at: now,
        };
        self.insert_entries_locked(&mut maint, &[entry], now) == 1
    }

    /// Batch insertion with *per-node atomicity*: every removal and
    /// insertion the batch performs on one node's cache happens under a
    /// single stripe-lock hold, so a concurrent reader sees either none or
    /// all of the batch's effect on that node. This is what keeps the
    /// coverage-gated cache lookup sound under concurrency — a reader must
    /// never observe a half-applied write-back whose partial count passes
    /// the coverage threshold and gets served as a torn aggregate.
    ///
    /// A sensor repeated within the batch splits it into duplicate-free
    /// runs applied in order, preserving sequential last-write-wins
    /// semantics. Returns how many entries were cached.
    fn insert_entries_locked(
        &self,
        maint: &mut Maintenance,
        entries: &[CachedEntry],
        now: Timestamp,
    ) -> usize {
        // A request wider than a wave writes back a wave at a time, and
        // between two of them a node can pass the coverage gate half-filled.
        // A query that starts while one is being applied must therefore wait
        // at `advance` as it always has: the fast path stays closed (0) for
        // this whole hold of `maint`, rolls and evictions included.
        self.settled_below.store(0, Ordering::Release);
        // Sorted by sensor, a repeat is two neighbours: `(position, position
        // of the same sensor's previous entry)`, in batch order. A run ends
        // where an entry's previous one falls inside it.
        let mut by_sensor = std::mem::take(&mut maint.pool.by_sensor);
        by_sensor.extend(
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| (e.reading.sensor, i as u32)),
        );
        by_sensor.sort_unstable();
        let mut repeats: Vec<(usize, usize)> = by_sensor
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| (w[1].1 as usize, w[0].1 as usize))
            .collect();
        repeats.sort_unstable();
        recycle(&mut maint.pool.by_sensor, by_sensor);
        let mut inserted = 0;
        let mut start = 0;
        for (at, previous) in repeats {
            if previous >= start {
                inserted += self.apply_run_locked(maint, &entries[start..at], now);
                start = at;
            }
        }
        inserted += self.apply_run_locked(maint, &entries[start..], now);
        self.settled_below
            .store(maint.cache_base + 1, Ordering::Release);
        inserted
    }

    /// Applies one duplicate-free run of entries (see
    /// [`ColrTree::insert_entries_locked`]) from one flat list of
    /// [`run_key`]s, a key per reading. Sorted, a node's plans are
    /// neighbours in arrival order, so walking the list applies the level
    /// with one stripe hold per touched node; inside a hold a plan's removal
    /// of the reading it replaced comes before its own insertion, and plans
    /// go in arrival order — the order the floating-point sums have always
    /// been taken in. Then every key moves to its node's parent and the
    /// list is sorted and walked again, leaves to root. The leaf's hold also
    /// swaps the raw entry, which is where a plan learns what it replaced.
    fn apply_run_locked(
        &self,
        maint: &mut Maintenance,
        run: &[CachedEntry],
        now: Timestamp,
    ) -> usize {
        if run.is_empty() {
            return 0;
        }
        self.advance_locked(maint, now);
        let base = maint.cache_base;
        let mut plans = std::mem::take(&mut maint.pool.plans);
        for &entry in run {
            let reading = entry.reading;
            let slot = self.slot_config.slot_of(reading.expires_at);
            if slot < base || slot >= maint.window_top() || !reading.is_live(now) {
                continue;
            }
            // An unknown sensor has no home (population changed under
            // carry-over).
            let Some(Home { leaf, place }) = self.arena.home(reading.sensor) else {
                continue;
            };
            plans.push(Plan {
                entry,
                old: None,
                leaf,
                place,
                kind: self.sensors[reading.sensor.index()].kind,
            });
        }
        let mut keys = std::mem::take(&mut maint.pool.keys);
        keys.extend(plans.iter().enumerate().map(|(i, p)| run_key(p.leaf, i)));
        let telem = crate::telem::tree();
        let mut rebuilds = std::mem::take(&mut maint.pool.rebuilds);
        // Bottom-up (the leaf level is uniform): apply the list at this
        // level, then re-key every plan to its node's parent and go again.
        let leaf_level = self.leaf_level();
        for level in (0..=leaf_level).rev() {
            let at_leaves = level == leaf_level;
            keys.sort_unstable();
            for node_run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                let id = NodeId((node_run[0] >> 32) as u32);
                rebuilds.clear();
                self.with_cache_mut(id, |mut c| {
                    for &key in node_run {
                        let plan = &mut plans[key as u32 as usize];
                        let reading = plan.entry.reading;
                        if at_leaves {
                            let place = &mut c.entries[plan.place as usize];
                            let old = std::mem::replace(place, plan.entry);
                            plan.old = (!old.is_absent()).then_some(old);
                        }
                        if let Some(old) = plan.old.map(|e| e.reading) {
                            if c.cache
                                .try_remove_kind(old.expires_at, old.value, plan.kind)
                                == RemoveOutcome::NeedsRebuild
                            {
                                telem.slot_rebuilds.inc();
                                let slot = self.slot_config.slot_of(old.expires_at);
                                if !rebuilds.contains(&slot) {
                                    rebuilds.push(slot);
                                }
                            }
                        }
                        let opened = c.cache.insert_opening(
                            reading.expires_at,
                            reading.timestamp,
                            reading.value,
                            plan.kind,
                            base,
                        );
                        if opened == Some(true) {
                            // What lets the roll find this node again.
                            maint
                                .bucket_mut(self.slot_config.slot_of(reading.expires_at))
                                .nodes
                                .push(id);
                        }
                    }
                    // A slot that could not be decremented over-counts the
                    // reading it lost until it is recomputed from the level
                    // below, which this run has already finished with. A
                    // leaf's level below is its own raw entries: recomputed
                    // before the hold ends, no reader sees the over-count.
                    if at_leaves {
                        for &slot in &rebuilds {
                            let rebuilt = self.slot_of_entries(LeafEntries(&*c.entries), slot);
                            c.cache.set_slot(slot, rebuilt);
                        }
                    }
                });
                // An internal node's is its children, each behind a stripe
                // of its own, so its rebuild follows the hold at once rather
                // than inside it (one stripe at a time): the over-count is
                // visible for the length of one rebuild, not for the rest of
                // the run.
                if !at_leaves {
                    for &slot in &rebuilds {
                        self.rebuild_slot(id, slot);
                    }
                }
            }
            for key in &mut keys {
                if let Some(parent) = self.arena.parent(NodeId((*key >> 32) as u32)) {
                    *key = run_key(parent, *key as u32 as usize);
                }
            }
        }
        for plan in &plans {
            // A replaced reading's tuple stays where it is, now stale.
            if plan.old.is_none() {
                maint.total_cached += 1;
            }
            let reading = plan.entry.reading;
            let bucket = maint.bucket_mut(self.slot_config.slot_of(reading.expires_at));
            bucket
                .readings
                .push(Fetched::new(plan.entry.fetched_at, reading.sensor));
            bucket.ordered = false;
        }
        let applied = plans.len();
        telem.cache_inserts.add(applied as u64);
        telem.cached_readings.set(maint.total_cached as i64);
        recycle(&mut maint.pool.plans, plans);
        recycle(&mut maint.pool.keys, keys);
        recycle(&mut maint.pool.rebuilds, rebuilds);

        self.enforce_capacity_locked(maint);
        applied
    }

    /// Marks the home leaf of every sensor `readings` name, and each ancestor
    /// up to the root, as being filled: [`ColrTree::apply_readings`] calls
    /// this before it writes a batch in more than one chunk, and until the
    /// returned guard drops the coverage gate (`serve_cached_aggregate`)
    /// serves none of the marked nodes — to the gate the chunks land at
    /// once. A mark is a count, so overlapping fills nest, and it is set and
    /// read under the node's stripe lock like the rest of its cache.
    fn mark_filling(&self, readings: impl Iterator<Item = Reading>) -> Filling<'_> {
        // Readings arrive leaf by leaf, so most repeats are neighbours. A
        // sensor that is not the tree's has no home, and nothing to mark.
        let mut level: Vec<NodeId> = Vec::new();
        for leaf in readings.filter_map(|r| Some(self.arena.home(r.sensor)?.leaf)) {
            if level.last() != Some(&leaf) {
                level.push(leaf);
            }
        }
        // Leaves to root; a level's nodes share a depth, so sorting one
        // level at a time finds every repeat.
        let mut nodes = Vec::new();
        while !level.is_empty() {
            level.sort_unstable();
            level.dedup();
            nodes.extend_from_slice(&level);
            level = level
                .iter()
                .filter_map(|&id| self.arena.parent(id))
                .collect();
        }
        for &id in &nodes {
            self.with_cache_mut(id, |c| *c.filling += 1);
        }
        Filling { tree: self, nodes }
    }

    /// Applies a batch of probe results in order — the one write-back — a
    /// probe wave's worth at a time, each chunk under its own maintenance
    /// hold, so the pooled buffers stay wave-sized however wide the fill.
    /// Each node a chunk touches is updated in one critical section, and a
    /// batch of more than one chunk marks the nodes it fills first
    /// (`ColrTree::mark_filling`). The batch is walked again for that, so
    /// a caller that routes readings here from a longer list hands over the
    /// route, not a copy. Returns how many readings were cached.
    pub fn apply_readings<R: std::borrow::Borrow<Reading>>(
        &self,
        readings: impl IntoIterator<Item = R, IntoIter: Clone>,
        now: Timestamp,
    ) -> usize {
        let readings = readings.into_iter().map(|r| *r.borrow());
        let wave = crate::stats::PROBE_PARALLELISM as usize;
        let long = readings.clone().nth(wave).is_some();
        let _filling = long.then(|| self.mark_filling(readings.clone()));
        let mut rest = readings.peekable();
        let mut applied = 0;
        while rest.peek().is_some() {
            #[cfg(test)]
            tests::before_chunk(self);
            let mut maint = self.maint.lock();
            let mut batch = std::mem::take(&mut maint.pool.batch);
            batch.extend(rest.by_ref().take(wave).map(|reading| CachedEntry {
                reading,
                fetched_at: now,
            }));
            let inserted = self.insert_entries_locked(&mut maint, &batch, now);
            recycle(&mut maint.pool.batch, batch);
            applied += inserted;
        }
        applied
    }

    /// Every raw cached reading with its original fetch instant, in global
    /// eviction order (oldest expiry slot first). This is the payload an
    /// online reindex carries from a retiring index generation into its
    /// replacement ([`ColrTree::restore_entries`]); slot alignment is global,
    /// so the entries land in the same absolute expiry slots on the other
    /// side.
    pub fn cached_entries(&self) -> Vec<CachedEntry> {
        let mut maint = self.maint.lock();
        let mut out = Vec::with_capacity(maint.total_cached);
        for slot in maint.cache_base..maint.window_top() {
            let bucket = maint.bucket_mut(slot);
            bucket.put_in_order();
            // Stale tuples met on the way are dropped for good.
            bucket.readings.retain(|&fetched| {
                let live = self.bucket_entry(slot, fetched);
                out.extend(live);
                live.is_some()
            });
        }
        out
    }

    /// The cached reading a bucket tuple stands for, if it still does: the
    /// sensor's leaf entry, provided it was fetched when the tuple says and
    /// expires in `slot`. A reading replaced or removed since fails the
    /// check, which is how the buckets delete lazily.
    fn bucket_entry(&self, slot: u64, fetched: Fetched) -> Option<CachedEntry> {
        let home = self.arena.home(fetched.sensor())?;
        self.with_cache(home.leaf, |c| c.entries.at(home.place as usize).copied())
            .filter(|e| {
                e.fetched_at == fetched.at()
                    && self.slot_config.slot_of(e.reading.expires_at) == slot
            })
    }

    /// Re-caches entries exported by [`ColrTree::cached_entries`] from
    /// another tree over the same (or a grown) sensor population, preserving
    /// each entry's `fetched_at` so the least-recently-fetched eviction order
    /// is unchanged by the transfer. Expired entries, entries outside the
    /// slot window at `now`, and entries for unknown sensors are skipped.
    /// Returns how many entries were restored.
    pub fn restore_entries(&self, entries: &[CachedEntry], now: Timestamp) -> usize {
        let mut maint = self.maint.lock();
        self.insert_entries_locked(&mut maint, entries, now)
    }

    /// Removes the cached reading of `sensor` (if any) from the leaf and all
    /// ancestor aggregates. Used for updates and evictions. A sensor that is
    /// not the tree's has none to remove.
    pub fn remove_cached(&self, sensor: SensorId) -> Option<Reading> {
        let mut maint = self.maint.lock();
        self.remove_cached_locked(&mut maint, sensor)
    }

    fn remove_cached_locked(&self, maint: &mut Maintenance, sensor: SensorId) -> Option<Reading> {
        let Home { leaf, place } = self.arena.home(sensor)?;
        let entry = self.with_cache_mut(leaf, |c| {
            std::mem::replace(&mut c.entries[place as usize], CachedEntry::ABSENT)
        });
        if entry.is_absent() {
            return None;
        }
        maint.total_cached -= 1;
        crate::telem::tree()
            .cached_readings
            .set(maint.total_cached as i64);
        // The reading's bucket tuple stays behind, stale from here on.
        let slot = self.slot_config.slot_of(entry.reading.expires_at);

        // Decrement bottom-up; rebuild any slot that cannot be decremented.
        let kind = self.sensors[sensor.index()].kind;
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            let outcome = self.with_cache_mut(id, |mut c| {
                c.cache
                    .try_remove_kind(entry.reading.expires_at, entry.reading.value, kind)
            });
            match outcome {
                RemoveOutcome::Removed | RemoveOutcome::Absent => {}
                RemoveOutcome::NeedsRebuild => {
                    crate::telem::tree().slot_rebuilds.inc();
                    self.rebuild_slot(id, slot);
                }
            }
            cur = self.arena.parent(id);
        }
        Some(entry.reading)
    }

    /// Recomputes one slot of one node from the level below (leaf: from raw
    /// entries; internal: from the children's same slot) — the fallback for
    /// non-decrementable aggregates. Child caches are read one at a time
    /// before the node's own stripe is locked, so at most one stripe lock is
    /// ever held.
    fn rebuild_slot(&self, id: NodeId, slot: u64) {
        let children = self.arena.child_range(id.index());
        let rebuilt = if children.is_empty() {
            self.with_cache(id, |c| self.slot_of_entries(c.entries, slot))
        } else {
            let mut rebuilt = Slot::empty();
            for ch in children {
                self.with_cache(NodeId(ch as u32), |c| {
                    c.cache.merge_slot_into(slot, &mut rebuilt)
                });
            }
            rebuilt
        };
        self.with_cache_mut(id, |mut c| c.cache.set_slot(slot, rebuilt));
    }

    /// What a leaf's slot `slot` should hold, recomputed from its raw
    /// `entries` in ascending sensor order — the order the sums have always
    /// been taken in. A k-means leaf's places ascend already; an STR leaf's
    /// are put in order first.
    fn slot_of_entries(&self, entries: LeafEntries<'_>, slot: u64) -> Slot {
        let of_slot = |e: &&CachedEntry| self.slot_config.slot_of(e.reading.expires_at) == slot;
        let mut rebuilt = Slot::empty();
        let add = |e: &CachedEntry| {
            let kind = self.sensors[e.reading.sensor.index()].kind;
            rebuilt.add_reading(e.reading.value, e.reading.timestamp, kind);
        };
        if entries.iter().is_sorted_by_key(|e| e.reading.sensor) {
            entries.iter().filter(of_slot).for_each(add);
        } else {
            let mut by_sensor: Vec<&CachedEntry> = entries.iter().filter(of_slot).collect();
            by_sensor.sort_unstable_by_key(|e| e.reading.sensor);
            by_sensor.into_iter().for_each(add);
        }
        rebuilt
    }

    /// Enforces the tree-wide raw-cache capacity by evicting least recently
    /// fetched readings from the oldest slot (Section IV-A's policy): the
    /// bucket ring from `cache_base` up, each bucket put in
    /// `(fetched_at, sensor)` order when it is its turn.
    fn enforce_capacity_locked(&self, maint: &mut Maintenance) {
        let Some(cap) = self.config.cache_capacity else {
            return;
        };
        let mut slot = maint.cache_base;
        while maint.total_cached > cap && slot < maint.window_top() {
            let bucket = maint.bucket_mut(slot);
            bucket.put_in_order();
            // Lent out while the victims climb their ancestor chains, which
            // touches no bucket.
            let mut readings = std::mem::take(&mut bucket.readings);
            let mut tried = 0;
            for &fetched in &readings {
                if maint.total_cached <= cap {
                    break;
                }
                tried += 1;
                if self.bucket_entry(slot, fetched).is_some()
                    && self.remove_cached_locked(maint, fetched.sensor()).is_some()
                {
                    crate::telem::tree().evictions.inc();
                }
            }
            readings.drain(..tried);
            maint.bucket_mut(slot).readings = readings;
            slot += 1;
        }
    }

    /// Debug validation: checks the structural invariants of the tree and
    /// cache accounting. Used by tests; O(n).
    pub fn validate(&self) -> Result<(), String> {
        let maint = self.maint.lock();
        // The numbering is breadth-first: the root is 0 and the only node
        // without a parent, levels never decrease in id order, and each
        // node's children are the next run of ids after the previous node's.
        let mut next_child = 1;
        let (mut level, mut held) = (0, 0);
        // Parent bbox contains child bboxes; weights add up.
        for id in self.node_ids() {
            let node = self.node(id);
            if node.parent.is_none() != (id.0 == 0) || node.level < level {
                return Err(format!("{id:?} breaks breadth-first order"));
            }
            level = node.level;
            match node.children {
                Children::Internal(children) => {
                    if children.iter().next() != Some(NodeId(next_child)) {
                        return Err(format!("children of {id:?} do not follow on"));
                    }
                    next_child += children.iter().len() as u32;
                    let mut w = 0;
                    for c in children.iter() {
                        let child = self.node(c);
                        if child.parent != Some(id) {
                            return Err(format!("child {c:?} has wrong parent"));
                        }
                        if child.level != node.level + 1 {
                            return Err(format!("child {c:?} has wrong level"));
                        }
                        if !node.bbox.contains_rect(&child.bbox) {
                            return Err(format!("bbox of {id:?} does not contain child {c:?}"));
                        }
                        w += child.weight;
                    }
                    if w != node.weight {
                        return Err(format!(
                            "weight mismatch at {id:?}: {} vs sum {}",
                            node.weight, w
                        ));
                    }
                }
                Children::Leaf(sensors) => {
                    if node.level != self.leaf_level() {
                        return Err(format!("leaf {id:?} not at leaf level"));
                    }
                    if node.weight != sensors.len() as u64 {
                        return Err(format!("leaf {id:?} weight mismatch"));
                    }
                    held += sensors.len();
                    for (place, &s) in sensors.iter().enumerate() {
                        let home = Home {
                            leaf: id,
                            place: place as u32,
                        };
                        if self.arena.home(s) != Some(home) {
                            return Err(format!("sensor {s:?} home-leaf mismatch"));
                        }
                        if !node.bbox.contains_point(&self.sensors[s.index()].location) {
                            return Err(format!("sensor {s:?} outside leaf bbox"));
                        }
                    }
                }
            }
        }
        if next_child as usize != self.node_count() {
            return Err(format!("{} nodes, {next_child} reached", self.node_count()));
        }
        // Every held sensor's home is where it is held, so with all of them
        // held, every sensor's home leaf holds it at its place.
        if held != self.sensors.len() {
            return Err(format!("{held} of {} sensors held", self.sensors.len()));
        }
        // Cache accounting.
        let counted: usize = self
            .stripes
            .iter()
            .map(|s| LeafEntries(&s.read().entries).iter().count())
            .sum();
        if counted != maint.total_cached {
            return Err(format!(
                "total_cached {} != actual {}",
                maint.total_cached, counted
            ));
        }
        // What the targeted roll relies on: nothing older than the window
        // base is held anywhere, and every node holding a slot is listed in
        // that slot's bucket.
        let ring = maint.buckets.len() as u64;
        let openers: Vec<Vec<NodeId>> = maint
            .buckets
            .iter()
            .map(|b| {
                let mut nodes = b.nodes.clone();
                nodes.sort_unstable();
                nodes
            })
            .collect();
        for id in self.node_ids() {
            let stray = self.with_cache(id, |c| {
                let raw = c
                    .entries
                    .iter()
                    .map(|e| self.slot_config.slot_of(e.reading.expires_at));
                c.cache.held_slots().chain(raw).find(|&slot| {
                    slot < maint.cache_base
                        || slot >= maint.window_top()
                        || openers[(slot % ring) as usize].binary_search(&id).is_err()
                })
            });
            if let Some(slot) = stray {
                return Err(format!(
                    "{id:?} holds slot {slot}, outside the window at base {} or not in its bucket",
                    maint.cache_base
                ));
            }
        }
        // The bucket ring stands for exactly the cached readings.
        let mut live = 0;
        for slot in maint.cache_base..maint.window_top() {
            let mut readings = maint.bucket(slot).readings.clone();
            readings.sort_unstable();
            readings.dedup();
            live += readings
                .iter()
                .filter(|&&fetched| self.bucket_entry(slot, fetched).is_some())
                .count();
        }
        if live != maint.total_cached {
            return Err(format!(
                "bucket ring holds {live} live readings != cached {}",
                maint.total_cached
            ));
        }
        if let Some(cap) = self.config.cache_capacity {
            if maint.total_cached > cap {
                return Err(format!(
                    "cache over capacity: {} > {cap}",
                    maint.total_cached
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use colr_geo::Point;
    use std::cell::RefCell;

    /// What a test runs on its thread before each chunk of an
    /// `apply_readings`, with the tree being written.
    type ChunkHook = Box<dyn FnMut(&ColrTree)>;

    thread_local! {
        static BEFORE_CHUNK: RefCell<Option<ChunkHook>> = const { RefCell::new(None) };
    }

    /// Runs this thread's hook, if one is set ([`on_each_chunk`]); no lock
    /// of the tree is held here.
    pub(crate) fn before_chunk(tree: &ColrTree) {
        BEFORE_CHUNK.with(|hook| {
            if let Some(f) = hook.borrow_mut().as_mut() {
                f(tree);
            }
        });
    }

    /// Sets (or, with `None`, clears) the hook [`before_chunk`] runs on this
    /// thread. The hook must not write back to a tree itself.
    pub(crate) fn on_each_chunk(hook: Option<ChunkHook>) {
        BEFORE_CHUNK.with(|h| *h.borrow_mut() = hook);
    }

    fn grid_tree(sensors: u32) -> ColrTree {
        let metas = (0..sensors)
            .map(|i| {
                SensorMeta::new(
                    i,
                    Point::new((i % 64) as f64, (i / 64) as f64),
                    TimeDelta::from_mins(5),
                    0.9,
                )
            })
            .collect();
        ColrTree::build(metas, ColrConfig::default(), 42)
    }

    #[test]
    fn a_roll_visits_the_nodes_that_held_the_expired_slot_and_no_others() {
        let tree = grid_tree(4_000);
        assert!(tree.node_count() > 400, "the tree is not trivially small");
        let now = Timestamp(1_000);
        let reading = Reading {
            sensor: SensorId(1_234),
            value: 7.0,
            timestamp: now,
            expires_at: now + TimeDelta::from_mins(5),
        };
        assert!(tree.insert_reading(reading, now));
        assert_eq!(tree.validate(), Ok(()), "one cached reading");

        let mut maint = tree.maint.lock();
        // Still inside the reading's slot: nothing to drop anywhere.
        assert_eq!(tree.advance_locked(&mut maint, reading.expires_at), 0);
        assert_eq!(maint.total_cached, 1);
        // Past it: the leaf and its ancestors, one slot each.
        let after = reading.expires_at + tree.slot_config.slot_width;
        let dropped = tree.advance_locked(&mut maint, after);
        assert_eq!(dropped, tree.leaf_level() as usize + 1);
        assert_eq!(maint.total_cached, 0);
        drop(maint);
        assert_eq!(tree.validate(), Ok(()), "rolled tree");
        assert!(tree
            .node_ids()
            .all(|id| tree.with_cache(id, |c| c.cache.held_slots().count() == 0)));
    }

    /// A sensor id beyond the tree's population has no home: removing its
    /// reading removes nothing, and restoring one restores nothing.
    #[test]
    fn a_sensor_that_is_not_the_trees_has_nothing_cached() {
        let tree = grid_tree(100);
        let now = Timestamp(1_000);
        let reading = Reading {
            sensor: SensorId(100),
            value: 7.0,
            timestamp: now,
            expires_at: now + TimeDelta::from_mins(5),
        };
        assert_eq!(tree.remove_cached(reading.sensor), None);
        let entry = CachedEntry {
            reading,
            fetched_at: now,
        };
        assert_eq!(tree.restore_entries(&[entry], now), 0);
        assert_eq!(tree.cached_readings(), 0);
        // Nor a fill mark: a write-back longer than a wave marks the homes
        // of its readings, and this one has none.
        let known = (0..100).map(|s| Reading {
            sensor: SensorId(s),
            ..reading
        });
        let batch: Vec<Reading> = known.chain(std::iter::repeat_n(reading, 50)).collect();
        assert_eq!(tree.apply_readings(&batch, now), 100);
        assert_eq!(tree.cached_readings(), 100);
    }

    /// The cache state of a built tree is flat: per stripe three slabs whose
    /// lengths the structure fixes, and two side tables that a one-kind fleet
    /// without histograms never allocates — at most five allocations a
    /// stripe, none per node, none per slot, before and after it fills.
    #[test]
    fn cache_state_is_at_most_five_allocations_a_stripe() {
        let tree = grid_tree(40_000);
        let ring = tree.slot_config.num_slots + 1;
        let now = Timestamp(1_000);
        let readings: Vec<Reading> = (0..40_000)
            .step_by(3)
            .map(|s| Reading {
                sensor: SensorId(s),
                value: f64::from(s % 17),
                timestamp: now,
                expires_at: now + TimeDelta::from_millis(1 + u64::from(s % 9) * 30_000),
            })
            .collect();
        for filled in [false, true] {
            if filled {
                assert_eq!(tree.apply_readings(&readings, now), readings.len());
                assert_eq!(tree.validate(), Ok(()));
            }
            let mut places = 0;
            for (i, stripe) in tree.stripes.iter().enumerate() {
                let stripe = stripe.read();
                let ids =
                    (0..tree.node_count()).filter(|&id| stripe_slot(tree.stripe_shift, id).0 == i);
                assert_eq!(stripe.heads.len(), ids.clone().count());
                assert_eq!(stripe.cells.len(), stripe.heads.len() * ring);
                let homed: usize = ids
                    .map(|id| match tree.node(NodeId(id as u32)).children {
                        Children::Leaf(sensors) => sensors.len(),
                        Children::Internal(_) => 0,
                    })
                    .sum();
                assert_eq!(stripe.entries.len(), homed);
                assert!(!stripe.side.is_allocated(), "stripe {i}, filled: {filled}");
                places += homed;
            }
            assert_eq!(places, 40_000, "one place per sensor");
        }
        assert_eq!(tree.cached_readings(), readings.len());
    }

    /// Every id has its own place, each stripe's places are `0..len` with no
    /// gap and follow the ids in order (so assembly lays a stripe out by
    /// walking the ids once), and no stripe holds more than two runs.
    #[test]
    fn the_stripe_mapping_is_a_bijection_onto_dense_positions() {
        let big = grid_tree(40_000).node_count();
        for n in [1, 2, 63, 64, 65, 457, 4_452, big] {
            let shift = stripe_shift(n);
            let mut by_stripe = vec![Vec::new(); CACHE_STRIPES];
            for id in 0..n {
                let (stripe, pos) = stripe_slot(shift, id);
                by_stripe[stripe].push((pos, id));
            }
            for mut held in by_stripe {
                held.sort_unstable();
                let positions: Vec<usize> = held.iter().map(|&(pos, _)| pos).collect();
                assert_eq!(positions, (0..held.len()).collect::<Vec<_>>(), "{n} nodes");
                assert!(
                    held.windows(2).all(|w| w[0].1 < w[1].1),
                    "positions follow ids"
                );
                assert!(
                    held.len() <= 2 << shift,
                    "{n} nodes: at most two runs a stripe"
                );
            }
        }
    }

    /// A child run lies in the stripes of the id runs it spans, one after
    /// the other: one stripe, or two when it crosses a run boundary, for
    /// every child run no longer than a stripe run. Where the stripe runs
    /// are longer than the fan-out (the 40k-sensor tree), most child runs
    /// lie in one stripe.
    #[test]
    fn a_child_run_lies_in_the_stripes_of_the_runs_it_spans() {
        for sensors in [4_000, 40_000] {
            let tree = grid_tree(sensors);
            let shift = tree.stripe_shift;
            let (mut whole, mut runs) = (0, 0);
            for id in tree.node_ids() {
                let Children::Internal(kids) = tree.node(id).children else {
                    continue;
                };
                let (start, end) = (kids.0 as usize, kids.1 as usize);
                let mut stripes: Vec<usize> =
                    (start..end).map(|c| stripe_slot(shift, c).0).collect();
                stripes.dedup();
                let spanned = ((end - 1) >> shift) - (start >> shift) + 1;
                assert_eq!(stripes.len(), spanned, "{id:?}: {stripes:?}");
                assert!(stripes
                    .windows(2)
                    .all(|w| w[1] == (w[0] + 1) % CACHE_STRIPES));
                if end - start <= 1 << shift {
                    assert!(spanned <= 2, "{id:?}: {stripes:?}");
                }
                runs += 1;
                whole += usize::from(spanned == 1);
            }
            if sensors == 40_000 {
                assert!(
                    2 * whole > runs,
                    "{whole} of {runs} child runs in one stripe"
                );
            }
        }
    }

    #[test]
    fn slots_rolled_counts_the_ring_not_the_epoch() {
        let tree = grid_tree(64);
        let counter = &crate::telem::tree().slots_rolled;
        let before = counter.get();
        // A first advance to a far instant crosses ~13 million slot
        // boundaries from base 0; the ring only ever had nine slots to lose.
        tree.advance(Timestamp(1_000_000_000_000));
        let rolled = counter.get() - before;
        assert!(rolled > tree.slot_config.num_slots as u64);
        // Other tests in this binary roll their own trees meanwhile.
        assert!(rolled < 100_000, "rolled {rolled} slots");
    }
}
