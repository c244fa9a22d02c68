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
//!   whose aggregate cannot be decremented — the min/max case);
//! * **roll** — when simulated time crosses a slot boundary the window
//!   slides: the all-expired slots are dropped at every node at once, and the
//!   raw readings they covered are expunged from the leaves;
//! * **evict** — a tree-wide raw-cache capacity constraint is enforced by
//!   evicting the *least recently fetched* readings from the *oldest* slot
//!   (Section IV-A's replacement policy), maintained here as a global
//!   `(slot, fetched_at, sensor)` ordering.
//!
//! ## What walks this structure
//!
//! The pointer tree here (`Vec<Node>`, children wherever the builder pushed
//! them) is what gets *built* and *maintained*: cache write-back climbs its
//! parent links, the two baseline modes ([`crate::lookup::Mode::RTree`],
//! [`crate::lookup::Mode::HierCache`]) and the relational backend descend
//! it. Algorithm 1 does not: the bulk loader flattens every finished
//! tree into a [`crate::arena::SamplingArena`], and the one sampling walk
//! runs over that (see [`crate::arena`]).
//!
//! ## Concurrency
//!
//! The static index (nodes, bounding boxes, sensor registry) is immutable
//! after construction and read without synchronisation. The *mutable* state —
//! every node's [`NodeCache`] — lives outside the node arena, sharded over
//! [`CACHE_STRIPES`] reader–writer locks keyed by node id, so concurrent
//! queries can read (and write back to) disjoint parts of the tree without
//! contending on a single lock. Cross-node bookkeeping (the window base, the
//! eviction order, the cached-reading count) sits behind one maintenance
//! mutex that serialises mutators; a query takes it only to roll the window
//! or to wait out a write-back in flight (see [`ColrTree::advance`]), so one
//! that is purely cache-served touches only the stripes it reads.
//!
//! Lock ordering is `maint → (one stripe at a time)`: mutators hold the
//! maintenance lock across a whole logical operation and acquire stripe locks
//! one node at a time; readers hold at most one stripe lock at any instant
//! and never take the maintenance lock while holding a stripe. This makes
//! deadlock impossible by construction. Concurrent readers may observe a
//! bottom-up update mid-flight (a leaf updated, an ancestor not yet) — the
//! same transient inconsistency the paper's portal tolerates between cache
//! triggers; per-node state is always internally consistent.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use colr_geo::{Point, Rect, Region};
use parking_lot::{Mutex, RwLock};

use crate::reading::{Reading, SensorId, SensorMeta};
use crate::slot_cache::{RemoveOutcome, Slot, SlotCache, SlotConfig};
use crate::stats::CostModel;
use crate::time::{TimeDelta, Timestamp};

/// Number of reader–writer locks the per-node caches are sharded over.
/// A power of two so the stripe of a node is a mask away.
pub const CACHE_STRIPES: usize = 64;
const STRIPE_SHIFT: u32 = CACHE_STRIPES.trailing_zeros();

/// Index of a node in the tree arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node's children: internal nodes point at other nodes, leaves at sensors.
#[derive(Debug, Clone)]
pub enum Children {
    /// Child nodes of an internal node.
    Internal(Vec<NodeId>),
    /// Sensors homed at a leaf.
    Leaf(Vec<SensorId>),
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

/// The mutable cache state of one node: its slot cache of partial aggregates
/// and (at leaves) the raw cached readings. Split out of [`Node`] so queries
/// can share the immutable tree structure while cache access goes through
/// the striped locks.
#[derive(Debug, Clone)]
pub struct NodeCache {
    /// The node's slot cache (leaf caches mirror their raw entries so parent
    /// updates are uniform).
    pub cache: SlotCache,
    /// Raw cached readings; non-empty only at leaves. Kept sorted by sensor
    /// id for O(log) lookup (leaf fanout is small).
    pub entries: Vec<CachedEntry>,
}

impl NodeCache {
    fn new(slot_config: SlotConfig) -> Self {
        NodeCache {
            cache: SlotCache::new(slot_config),
            entries: Vec::new(),
        }
    }

    fn entry_pos(&self, sensor: SensorId) -> Result<usize, usize> {
        self.entries
            .binary_search_by_key(&sensor, |e| e.reading.sensor)
    }

    /// The cached entry for `sensor`, if any.
    pub fn entry(&self, sensor: SensorId) -> Option<&CachedEntry> {
        self.entry_pos(sensor).ok().map(|i| &self.entries[i])
    }
}

/// One tree node — the immutable structural part; the node's cache lives in
/// the tree's lock-striped cache table (see [`ColrTree::with_cache`]).
#[derive(Debug, Clone)]
pub struct Node {
    /// Depth from the root (root is level 0, as in the paper).
    pub level: u16,
    /// Minimum bounding rectangle of the descendant sensors.
    pub bbox: Rect,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children.
    pub children: Children,
    /// Number of descendant sensors — the sampling weight `w_i`.
    pub weight: u64,
    /// Descendant sensor counts per sensor type (sorted by kind). Lets
    /// type-filtered queries partition targets and check aggregate coverage
    /// against the right population.
    pub kind_weights: Vec<(u16, u64)>,
    /// Mean historical availability of descendant sensors — the `a_i` used
    /// by oversampling.
    pub avail_mean: f64,
}

impl Node {
    /// `true` when the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.children, Children::Leaf(_))
    }

    /// Number of descendant sensors of one type.
    pub fn weight_of_kind(&self, kind: u16) -> u64 {
        self.kind_weights
            .binary_search_by_key(&kind, |(k, _)| *k)
            .map(|i| self.kind_weights[i].1)
            .unwrap_or(0)
    }

    /// The sampling weight for an optionally type-filtered query.
    pub fn query_weight(&self, kind_filter: Option<u16>) -> u64 {
        match kind_filter {
            None => self.weight,
            Some(k) => self.weight_of_kind(k),
        }
    }
}

/// How the bulk loader clusters sensors (Section III-C uses k-means; STR
/// packing — the Kamel–Faloutsos style the paper cites — is provided as an
/// ablation alternative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuildStrategy {
    /// Bottom-up iterative k-means clustering (the paper's construction).
    KMeans {
        /// Lloyd iterations per clustering level.
        iterations: usize,
    },
    /// Sort-Tile-Recursive packing.
    Str,
}

impl Default for BuildStrategy {
    fn default() -> Self {
        BuildStrategy::KMeans { iterations: 8 }
    }
}

/// Configuration of a COLR-Tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ColrConfig {
    /// Target branching factor `B` (cluster count per level is `⌈n/B⌉`).
    pub branching: usize,
    /// Number of slots `m` in every slot cache.
    pub num_slots: usize,
    /// Tree-wide cap on cached raw readings (`None` = unconstrained). The
    /// paper varies this between 16% and 32% of the sensor population.
    pub cache_capacity: Option<usize>,
    /// Bulk-load strategy.
    pub build: BuildStrategy,
    /// When set, every slot cache also maintains per-slot value histograms
    /// with this binning, letting the portal serve group *distributions*
    /// (Section I's "distribution of waiting times") straight from cache.
    pub slot_histograms: Option<crate::agg::HistogramSpec>,
    /// Ablation switch: when `false`, layered sampling skips the
    /// availability scale-up of Algorithm 1 (targets are taken at face
    /// value, so failures directly shrink the sample).
    pub enable_oversampling: bool,
    /// Ablation switch: when `false`, Algorithm 2's redistribution is
    /// disabled (shortfalls are simply lost).
    pub enable_redistribution: bool,
    /// Fraction of a node's descendants a cached aggregate must cover before
    /// the hierarchical-cache lookup terminates early at that node
    /// (Section IV-B's "aggregate is indeed cached"). 1.0 demands full
    /// coverage; the default tolerates partially expired coverage, which is
    /// what lets the hierarchical cache cut traversals in Fig 3.
    pub cache_coverage_threshold: f64,
    /// Latency model used to convert query stats into processing latency.
    pub cost: CostModel,
}

impl Default for ColrConfig {
    fn default() -> Self {
        ColrConfig {
            branching: 10,
            num_slots: 8,
            cache_capacity: None,
            build: BuildStrategy::default(),
            slot_histograms: None,
            enable_oversampling: true,
            enable_redistribution: true,
            cache_coverage_threshold: 0.5,
            cost: CostModel::default(),
        }
    }
}

/// Cross-node cache bookkeeping, guarded by one mutex so that logical
/// mutations (insert + ancestor updates + eviction) are serialised while
/// readers proceed through the stripes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Maintenance {
    /// Oldest slot that can still hold live readings.
    pub(crate) cache_base: u64,
    /// Total raw readings cached across all leaves.
    pub(crate) total_cached: usize,
    /// Global eviction order: `(slot_of_expiry, fetched_at, sensor)`.
    pub(crate) evict_index: BTreeSet<(u64, Timestamp, SensorId)>,
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
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// Level of the leaves (`= height`; root is level 0).
    pub(crate) leaf_level: u16,
    /// Home leaf of each sensor.
    pub(crate) sensor_leaf: Vec<NodeId>,
    /// Per-node caches, sharded by `id % CACHE_STRIPES`; node `id` sits at
    /// position `id / CACHE_STRIPES` within its stripe.
    pub(crate) stripes: Vec<RwLock<Vec<NodeCache>>>,
    /// Serialises mutators and holds the cross-node accounting.
    pub(crate) maint: Mutex<Maintenance>,
    /// Window bases below this need no maintenance: `cache_base + 1`,
    /// stored (`Release`) under `maint` once a roll has reached every node
    /// and loaded (`Acquire`) by [`ColrTree::advance`] before it touches
    /// `maint`; 0 while a write-back is in flight, so a query starting then
    /// still waits it out.
    pub(crate) settled_below: AtomicU64,
    /// Optional live availability estimates (fault-tolerance layer).
    /// When set, Algorithm 1 consults these instead of the frozen
    /// build-time `avail_mean` / `SensorMeta::availability`.
    pub(crate) live_avail: RwLock<Option<Arc<crate::avail::LiveAvailability>>>,
    /// Flattened structure-of-arrays mirror of `nodes` — what Algorithm 1
    /// walks. Built with the tree, immutable after; shared by clones (it
    /// mirrors the same immutable node structure).
    pub(crate) arena: Arc<crate::arena::SamplingArena>,
}

impl Clone for ColrTree {
    fn clone(&self) -> Self {
        let maint = self.maint.lock().clone();
        ColrTree {
            config: self.config.clone(),
            slot_config: self.slot_config,
            t_max: self.t_max,
            sensors: self.sensors.clone(),
            nodes: self.nodes.clone(),
            root: self.root,
            leaf_level: self.leaf_level,
            sensor_leaf: self.sensor_leaf.clone(),
            stripes: self
                .stripes
                .iter()
                .map(|s| RwLock::new(s.read().clone()))
                .collect(),
            settled_below: AtomicU64::new(maint.cache_base + 1),
            maint: Mutex::new(maint),
            // Estimates describe the same physical sensors, so clones share
            // the map (and keep learning from each other's probes).
            live_avail: RwLock::new(self.live_avail.read().clone()),
            arena: self.arena.clone(),
        }
    }
}

impl ColrTree {
    /// Assembles a tree from bulk-built parts: assigns levels, flattens the
    /// finished structure into the query-time arena (BFS numbering, children
    /// contiguous, SoA bounding boxes) and creates empty caches for every
    /// node.
    pub(crate) fn assemble(
        config: ColrConfig,
        slot_config: SlotConfig,
        t_max: TimeDelta,
        sensors: Vec<SensorMeta>,
        mut nodes: Vec<Node>,
        root: NodeId,
        sensor_leaf: Vec<NodeId>,
    ) -> ColrTree {
        // BFS from the root; the leaf level is uniform by construction.
        let mut leaf_level = 0;
        let mut queue = std::collections::VecDeque::from([(root, 0u16)]);
        while let Some((id, level)) = queue.pop_front() {
            nodes[id.index()].level = level;
            leaf_level = leaf_level.max(level);
            if let Children::Internal(children) = &nodes[id.index()].children {
                queue.extend(children.iter().map(|&c| (c, level + 1)));
            }
        }
        let arena = Arc::new(crate::arena::SamplingArena::flatten(&nodes, root, &sensors));
        let mut stripes: Vec<Vec<NodeCache>> = (0..CACHE_STRIPES).map(|_| Vec::new()).collect();
        for i in 0..nodes.len() {
            stripes[i & (CACHE_STRIPES - 1)].push(NodeCache::new(slot_config));
        }
        ColrTree {
            config,
            slot_config,
            t_max,
            sensors,
            nodes,
            root,
            leaf_level,
            sensor_leaf,
            stripes: stripes.into_iter().map(RwLock::new).collect(),
            maint: Mutex::new(Maintenance::default()),
            settled_below: AtomicU64::new(0),
            live_avail: RwLock::new(None),
            arena,
        }
    }

    #[inline]
    fn stripe_slot(id: NodeId) -> (usize, usize) {
        (id.index() & (CACHE_STRIPES - 1), id.index() >> STRIPE_SHIFT)
    }

    // ------------------------------------------------------------------
    // Cache access
    // ------------------------------------------------------------------

    /// Runs `f` with shared access to the cache of node `id`.
    ///
    /// Holds the node's stripe read lock for the duration of `f`; do not
    /// call tree mutators (or `with_cache_mut`) from inside the closure.
    pub fn with_cache<T>(&self, id: NodeId, f: impl FnOnce(&NodeCache) -> T) -> T {
        let (stripe, pos) = Self::stripe_slot(id);
        let guard = match self.stripes[stripe].try_read() {
            Some(g) => g,
            None => {
                crate::telem::tree().stripe_read_contention.inc();
                self.stripes[stripe].read()
            }
        };
        f(&guard[pos])
    }

    /// Runs `f` with exclusive access to the cache of node `id`.
    ///
    /// Holds the node's stripe write lock for the duration of `f`; same
    /// re-entrancy rule as [`ColrTree::with_cache`].
    pub fn with_cache_mut<T>(&self, id: NodeId, f: impl FnOnce(&mut NodeCache) -> T) -> T {
        let (stripe, pos) = Self::stripe_slot(id);
        let mut guard = match self.stripes[stripe].try_write() {
            Some(g) => g,
            None => {
                crate::telem::tree().stripe_write_contention.inc();
                self.stripes[stripe].write()
            }
        };
        f(&mut guard[pos])
    }

    /// A point-in-time copy of the cache of node `id` (for inspection and
    /// tests; queries use [`ColrTree::with_cache`] to avoid the copy).
    pub fn cache_snapshot(&self, id: NodeId) -> NodeCache {
        self.with_cache(id, |c| c.clone())
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

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Level of the leaves (tree height; root is level 0).
    pub fn leaf_level(&self) -> u16 {
        self.leaf_level
    }

    /// All registered sensors, indexed by [`SensorId`].
    pub fn sensors(&self) -> &[SensorMeta] {
        &self.sensors
    }

    /// Metadata of one sensor.
    pub fn sensor(&self, id: SensorId) -> &SensorMeta {
        &self.sensors[id.index()]
    }

    /// The leaf a sensor is homed at.
    pub fn home_leaf(&self, id: SensorId) -> NodeId {
        self.sensor_leaf[id.index()]
    }

    /// Number of raw readings currently cached tree-wide.
    pub fn cached_readings(&self) -> usize {
        self.maint.lock().total_cached
    }

    /// The flattened structure-of-arrays mirror of the node structure that
    /// Algorithm 1 walks, built once per generation by the bulk loader.
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
    /// discards the map (the node arena it indexes is gone) — re-enable
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

    /// Iterates over node ids in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    // ------------------------------------------------------------------
    // Window maintenance (the roll trigger)
    // ------------------------------------------------------------------

    /// Slides the slot window forward to cover `now`, expiring whole slots at
    /// every node and expunging the raw readings they covered (Section VI-B's
    /// roll trigger). Idempotent; called by every public operation. Returns
    /// without touching `maint` when the window already covers `now` and no
    /// write-back is in flight.
    pub fn advance(&self, now: Timestamp) {
        if self.slot_config.base_at(now) < self.settled_below.load(Ordering::Acquire) {
            return;
        }
        let mut maint = self.maint.lock();
        self.advance_locked(&mut maint, now);
        self.settled_below
            .store(maint.cache_base + 1, Ordering::Release);
    }

    fn advance_locked(&self, maint: &mut Maintenance, now: Timestamp) {
        let new_base = self.slot_config.base_at(now);
        if new_base <= maint.cache_base {
            return;
        }
        let telem = crate::telem::tree();
        telem.slots_rolled.add(new_base - maint.cache_base);
        // Expunge raw readings living in slots that slid out.
        while let Some(&key @ (slot, _, sensor)) = maint.evict_index.iter().next() {
            if slot >= new_base {
                break;
            }
            maint.evict_index.remove(&key);
            let leaf = self.sensor_leaf[sensor.index()];
            let removed = self.with_cache_mut(leaf, |c| match c.entry_pos(sensor) {
                Ok(pos) => {
                    c.entries.remove(pos);
                    true
                }
                Err(_) => false,
            });
            if removed {
                maint.total_cached -= 1;
                telem.readings_expunged.inc();
            }
        }
        // Drop the expired aggregate slots everywhere.
        for stripe in &self.stripes {
            let mut guard = stripe.write();
            for cache in guard.iter_mut() {
                cache.cache.roll_to(new_base);
            }
        }
        maint.cache_base = new_base;
        telem.cached_readings.set(maint.total_cached as i64);
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
        // at `advance` as it always has: close the fast path for the hold.
        self.settled_below.store(0, Ordering::Release);
        let mut inserted = 0;
        let mut run: Vec<CachedEntry> = Vec::with_capacity(entries.len());
        let mut seen: BTreeSet<SensorId> = BTreeSet::new();
        for e in entries {
            if !seen.insert(e.reading.sensor) {
                inserted += self.apply_run_locked(maint, &run, now);
                run.clear();
                seen.clear();
                seen.insert(e.reading.sensor);
            }
            run.push(*e);
        }
        inserted += self.apply_run_locked(maint, &run, now);
        self.settled_below
            .store(maint.cache_base + 1, Ordering::Release);
        inserted
    }

    /// Applies one duplicate-free run of entries (see
    /// [`ColrTree::insert_entries_locked`]): validates, swaps raw leaf
    /// entries grouped per leaf, then applies each node's slot-aggregate
    /// deltas bottom-up — one critical section per touched node, removal of
    /// a replaced reading and insertion of its successor inside the same
    /// hold.
    fn apply_run_locked(
        &self,
        maint: &mut Maintenance,
        run: &[CachedEntry],
        now: Timestamp,
    ) -> usize {
        struct Planned {
            entry: CachedEntry,
            old: Option<CachedEntry>,
        }
        enum AggOp {
            Remove { expires_at: Timestamp, value: f64 },
            Insert(Reading),
        }
        struct NodeOps {
            id: NodeId,
            level: u16,
            ops: Vec<(AggOp, u16)>,
        }
        if run.is_empty() {
            return 0;
        }
        self.advance_locked(maint, now);
        let window_top = maint.cache_base + self.config.num_slots as u64 + 1;
        let mut plans: Vec<Planned> = Vec::with_capacity(run.len());
        for &entry in run {
            let reading = entry.reading;
            if reading.sensor.index() >= self.sensors.len() {
                continue; // unknown sensor (population changed under carry-over)
            }
            let slot = self.slot_config.slot_of(reading.expires_at);
            if slot < maint.cache_base || slot >= window_top || !reading.is_live(now) {
                continue;
            }
            let leaf = self.sensor_leaf[reading.sensor.index()];
            let old = self.with_cache(leaf, |c| c.entry(reading.sensor).copied());
            plans.push(Planned { entry, old });
        }
        if plans.is_empty() {
            return 0;
        }

        // Raw leaf entries: replace-and-insert per leaf in one hold.
        let mut by_leaf: Vec<(NodeId, Vec<usize>)> = Vec::new();
        for (i, p) in plans.iter().enumerate() {
            let leaf = self.sensor_leaf[p.entry.reading.sensor.index()];
            match by_leaf.iter_mut().find(|(id, _)| *id == leaf) {
                Some((_, idxs)) => idxs.push(i),
                None => by_leaf.push((leaf, vec![i])),
            }
        }
        for (leaf, idxs) in &by_leaf {
            self.with_cache_mut(*leaf, |c| {
                for &i in idxs {
                    let p = &plans[i];
                    let sensor = p.entry.reading.sensor;
                    if let Ok(pos) = c.entry_pos(sensor) {
                        c.entries.remove(pos);
                    }
                    match c.entry_pos(sensor) {
                        Ok(_) => unreachable!("entry was just removed"),
                        Err(pos) => c.entries.insert(pos, p.entry),
                    }
                }
            });
        }
        let telem = crate::telem::tree();
        for p in &plans {
            if let Some(old) = &p.old {
                maint.total_cached -= 1;
                let old_slot = self.slot_config.slot_of(old.reading.expires_at);
                maint
                    .evict_index
                    .remove(&(old_slot, old.fetched_at, old.reading.sensor));
            }
            let slot = self.slot_config.slot_of(p.entry.reading.expires_at);
            maint.total_cached += 1;
            maint
                .evict_index
                .insert((slot, p.entry.fetched_at, p.entry.reading.sensor));
            telem.cache_inserts.inc();
        }
        telem.cached_readings.set(maint.total_cached as i64);

        // Slot aggregates: group each root-ward chain's deltas per node
        // (arrival order within a node), then apply bottom-up.
        let base = maint.cache_base;
        let mut node_ops: Vec<NodeOps> = Vec::new();
        for p in &plans {
            let reading = p.entry.reading;
            let kind = self.sensors[reading.sensor.index()].kind;
            let mut cur = Some(self.sensor_leaf[reading.sensor.index()]);
            while let Some(id) = cur {
                let node = self.node(id);
                let ops = match node_ops.iter_mut().find(|n| n.id == id) {
                    Some(n) => &mut n.ops,
                    None => {
                        node_ops.push(NodeOps {
                            id,
                            level: node.level,
                            ops: Vec::new(),
                        });
                        &mut node_ops.last_mut().expect("just pushed").ops
                    }
                };
                if let Some(old) = &p.old {
                    ops.push((
                        AggOp::Remove {
                            expires_at: old.reading.expires_at,
                            value: old.reading.value,
                        },
                        kind,
                    ));
                }
                ops.push((AggOp::Insert(reading), kind));
                cur = node.parent;
            }
        }
        node_ops.sort_by(|a, b| b.level.cmp(&a.level).then(a.id.cmp(&b.id)));
        let mut rebuilds: Vec<(NodeId, u64)> = Vec::new();
        for NodeOps { id, ops, .. } in &node_ops {
            let mut needs: Vec<u64> = Vec::new();
            self.with_cache_mut(*id, |c| {
                for (op, kind) in ops {
                    match op {
                        AggOp::Remove { expires_at, value } => {
                            match c.cache.try_remove_kind(*expires_at, *value, *kind) {
                                RemoveOutcome::Removed | RemoveOutcome::Absent => {}
                                RemoveOutcome::NeedsRebuild => {
                                    needs.push(self.slot_config.slot_of(*expires_at));
                                }
                            }
                        }
                        AggOp::Insert(r) => {
                            c.cache
                                .insert_kind(r.expires_at, r.timestamp, r.value, *kind, base);
                        }
                    }
                }
            });
            for slot in needs {
                telem.slot_rebuilds.inc();
                if !rebuilds.contains(&(*id, slot)) {
                    rebuilds.push((*id, slot));
                }
            }
        }
        // Rebuilt slots are recomputed from the (already final) level below,
        // outside the node's own critical section — the transient window is
        // a slot that over-counts one replaced reading, never a torn fill.
        for (id, slot) in rebuilds {
            self.rebuild_slot(id, slot);
        }

        self.enforce_capacity_locked(maint);
        plans.len()
    }

    /// Applies a batch of probe results in order — the deferred write-back
    /// of a *frozen* execution (see [`ColrTree::execute_frozen`]) and the
    /// immediate write-back of interactive queries both land here. One
    /// maintenance acquisition covers the whole batch, and each touched
    /// node cache is updated in a single critical section, so concurrent
    /// readers never observe a half-applied write-back. Returns how many
    /// readings were cached.
    pub fn apply_readings(&self, readings: &[Reading], now: Timestamp) -> usize {
        let mut maint = self.maint.lock();
        let entries: Vec<CachedEntry> = readings
            .iter()
            .map(|&reading| CachedEntry {
                reading,
                fetched_at: now,
            })
            .collect();
        let applied = self.insert_entries_locked(&mut maint, &entries, now);
        if applied > 0 {
            colr_telemetry::tracer().record_now(
                colr_telemetry::SpanKind::WriteBack,
                0,
                applied as u64,
            );
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
        let maint = self.maint.lock();
        maint
            .evict_index
            .iter()
            .filter_map(|&(_, _, sensor)| {
                let leaf = self.sensor_leaf[sensor.index()];
                self.with_cache(leaf, |c| c.entry(sensor).copied())
            })
            .collect()
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
    /// ancestor aggregates. Used for updates and evictions.
    pub fn remove_cached(&self, sensor: SensorId) -> Option<Reading> {
        let mut maint = self.maint.lock();
        self.remove_cached_locked(&mut maint, sensor)
    }

    fn remove_cached_locked(&self, maint: &mut Maintenance, sensor: SensorId) -> Option<Reading> {
        let leaf = self.sensor_leaf[sensor.index()];
        let entry = self.with_cache_mut(leaf, |c| {
            c.entry_pos(sensor).ok().map(|pos| c.entries.remove(pos))
        })?;
        maint.total_cached -= 1;
        crate::telem::tree()
            .cached_readings
            .set(maint.total_cached as i64);
        let slot = self.slot_config.slot_of(entry.reading.expires_at);
        maint.evict_index.remove(&(slot, entry.fetched_at, sensor));

        // Decrement bottom-up; rebuild any slot that cannot be decremented.
        let kind = self.sensors[sensor.index()].kind;
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            let outcome = self.with_cache_mut(id, |c| {
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
            cur = self.node(id).parent;
        }
        Some(entry.reading)
    }

    /// Recomputes one slot of one node from the level below (leaf: from raw
    /// entries; internal: from the children's same slot) — the fallback for
    /// non-decrementable aggregates. Child caches are read one at a time
    /// before the node's own stripe is locked, so at most one stripe lock is
    /// ever held.
    fn rebuild_slot(&self, id: NodeId, slot: u64) {
        fn merge_kind(
            by_kind: &mut Vec<(u16, crate::agg::PartialAgg)>,
            kind: u16,
            add: &crate::agg::PartialAgg,
        ) {
            match by_kind.binary_search_by_key(&kind, |(k, _)| *k) {
                Ok(i) => by_kind[i].1.merge(add),
                Err(i) => by_kind.insert(i, (kind, *add)),
            }
        }
        let hist_spec = self.slot_config.histogram;
        let mut agg = crate::agg::PartialAgg::empty();
        let mut min_ts = Timestamp(u64::MAX);
        let mut by_kind: Vec<(u16, crate::agg::PartialAgg)> = Vec::new();
        let mut hist = hist_spec.map(|spec| spec.empty());
        match &self.nodes[id.index()].children {
            Children::Leaf(_) => {
                self.with_cache(id, |c| {
                    for e in &c.entries {
                        if self.slot_config.slot_of(e.reading.expires_at) == slot {
                            agg.insert(e.reading.value);
                            min_ts = min_ts.min(e.reading.timestamp);
                            let kind = self.sensors[e.reading.sensor.index()].kind;
                            merge_kind(
                                &mut by_kind,
                                kind,
                                &crate::agg::PartialAgg::from_value(e.reading.value),
                            );
                            if let Some(h) = &mut hist {
                                h.insert(e.reading.value);
                            }
                        }
                    }
                });
            }
            Children::Internal(children) => {
                for &ch in children {
                    let child_slot = self.with_cache(ch, |c| c.cache.slot(slot).cloned());
                    if let Some(s) = child_slot {
                        agg.merge(&s.agg);
                        min_ts = min_ts.min(s.min_ts);
                        for (k, a) in &s.by_kind {
                            merge_kind(&mut by_kind, *k, a);
                        }
                        if let (Some(h), Some(sh)) = (&mut hist, &s.hist) {
                            h.merge(sh);
                        }
                    }
                }
            }
        }
        let rebuilt = Slot {
            agg,
            min_ts,
            by_kind,
            hist,
        };
        self.with_cache_mut(id, |c| c.cache.set_slot(slot, rebuilt));
    }

    /// Enforces the tree-wide raw-cache capacity by evicting least recently
    /// fetched readings from the oldest slot (Section IV-A's policy).
    fn enforce_capacity_locked(&self, maint: &mut Maintenance) {
        let Some(cap) = self.config.cache_capacity else {
            return;
        };
        while maint.total_cached > cap {
            let Some(&(_, _, sensor)) = maint.evict_index.iter().next() else {
                break;
            };
            if self.remove_cached_locked(maint, sensor).is_some() {
                crate::telem::tree().evictions.inc();
            }
        }
    }

    // ------------------------------------------------------------------
    // Subtree walks
    // ------------------------------------------------------------------

    /// Collects the fresh cached readings under `id` within `region` at
    /// `now` with freshness bound `staleness`.
    pub fn fresh_cached_readings(
        &self,
        id: NodeId,
        region: &Region,
        now: Timestamp,
        staleness: TimeDelta,
    ) -> Vec<Reading> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            let node = self.node(cur);
            if !region.intersects_rect(&node.bbox) {
                continue;
            }
            match &node.children {
                Children::Leaf(_) => {
                    self.with_cache(cur, |c| {
                        for e in &c.entries {
                            if e.reading.is_fresh(now, staleness)
                                && region.contains_point(
                                    &self.sensors[e.reading.sensor.index()].location,
                                )
                            {
                                out.push(e.reading);
                            }
                        }
                    });
                }
                Children::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
        out
    }

    /// Location of a sensor.
    pub fn sensor_location(&self, id: SensorId) -> Point {
        self.sensors[id.index()].location
    }

    /// Clears every cache in the tree (used between experiment phases).
    pub fn clear_caches(&self) {
        let mut maint = self.maint.lock();
        for stripe in &self.stripes {
            let mut guard = stripe.write();
            for cache in guard.iter_mut() {
                cache.cache.clear();
                cache.entries.clear();
            }
        }
        maint.evict_index.clear();
        maint.total_cached = 0;
        crate::telem::tree().cached_readings.set(0);
    }

    /// Debug validation: checks the structural invariants of the tree and
    /// cache accounting. Used by tests; O(n).
    pub fn validate(&self) -> Result<(), String> {
        let maint = self.maint.lock();
        // Parent bbox contains child bboxes; weights add up.
        for id in self.node_ids() {
            let node = self.node(id);
            match &node.children {
                Children::Internal(children) => {
                    if children.is_empty() {
                        return Err(format!("internal node {id:?} has no children"));
                    }
                    let mut w = 0;
                    for &c in children {
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
                    if node.level != self.leaf_level {
                        return Err(format!("leaf {id:?} not at leaf level"));
                    }
                    if node.weight != sensors.len() as u64 {
                        return Err(format!("leaf {id:?} weight mismatch"));
                    }
                    for &s in sensors {
                        if self.sensor_leaf[s.index()] != id {
                            return Err(format!("sensor {s:?} home-leaf mismatch"));
                        }
                        if !node.bbox.contains_point(&self.sensors[s.index()].location) {
                            return Err(format!("sensor {s:?} outside leaf bbox"));
                        }
                    }
                }
            }
        }
        // Cache accounting.
        let counted: usize = self
            .stripes
            .iter()
            .map(|s| s.read().iter().map(|c| c.entries.len()).sum::<usize>())
            .sum();
        if counted != maint.total_cached {
            return Err(format!(
                "total_cached {} != actual {}",
                maint.total_cached, counted
            ));
        }
        if maint.evict_index.len() != maint.total_cached {
            return Err(format!(
                "evict index size {} != cached {}",
                maint.evict_index.len(),
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
