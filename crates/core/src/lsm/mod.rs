//! LSM-style incremental COLR-Tree index: continuous sensor churn without
//! stop-the-world rebuilds.
//!
//! A bulk-built COLR-Tree can only take new sensors by being rebuilt, and
//! cannot drop one at all. This module wraps it in a log-structured
//! collection of levels:
//!
//! * **L0** — a small mutable top level ([`L0Level`]). `register` is one
//!   vector push; the sensor is visible to the very next query.
//! * **Immutable levels** — bulk-built COLR-Trees ([`LsmLevel`]) over
//!   geometrically larger populations. Retires tombstone in place: the
//!   sensor is masked out of probes, weights, and slot caches immediately,
//!   and dropped physically by the next merge that touches its level.
//! * **Merges** — [`LsmTree::merge`] drains L0 plus a trailing run of small
//!   (or heavily tombstoned) levels into one freshly bulk-built level,
//!   carrying still-fresh cached readings across through
//!   [`crate::tree::ColrTree::restore_entries`]. It builds off to the side
//!   and publishes in `LsmTree::publish_merge`, the one write hold of
//!   `state`, which [`LsmTree::cut`], `register` and `retire` wait out. Its
//!   leaf k-means starts from the absorbed levels' live leaf centroids, if
//!   any (`build.rs`, "A merge's seeded start").
//!
//! Algorithm 1's sampling becomes *layered*: a query's sample target `R`
//! splits across components (levels + L0) by their live sensors in its
//! region, the count the shard router splits shards by, using the same
//! unbiased apportionment. Expectation is preserved end-to-end (Theorems 1/2:
//! floors plus systematically sampled remainders sum to exactly the
//! stochastically rounded `R` with every component's expected share its
//! ideal one, and each component applies Algorithm 1's availability
//! oversampling internally). There is one way through: a fresh index — one
//! level, nothing retired, an empty L0 — is the same loop run once,
//! uncounted, and answers exactly as its level's tree does when handed the
//! rounded target and component 0's stream.
//!
//! And one way back: a query writes nothing into the cut it read until it
//! has run. Its successes go to wherever their sensors live then: where it
//! found them while its cut is still the published one, through the
//! directory once a merge has published ([`LsmTree::apply_deferred`]). A
//! merge carries what was written into the levels it absorbs while it
//! built, so none is lost.

mod level;

use std::ops::Range;
use std::sync::Arc;

use colr_geo::{Point, Rect};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use level::Parked;
pub use level::{L0Level, LsmLevel};

use crate::agg::PartialAgg;
use crate::id_table::IdTable;
use crate::lookup::{finish, GroupResult, Mode, Query, QueryOutput, Wave};
use crate::probe::ProbeService;
use crate::reading::{Reading, SensorId, SensorMeta};
use crate::sampling::{stochastic_round, MIN_AVAILABILITY};
use crate::scratch::QueryScratch;
use crate::stats::QueryStats;
use crate::time::Timestamp;
use crate::tree::{CachedEntry, ColrConfig, NodeId};

/// Sentinel `GroupResult::node` for groups produced by the flat L0 level,
/// which has no tree node to point at.
pub const L0_GROUP_NODE: NodeId = NodeId(u32::MAX);

/// Shape parameters of the level structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmConfig {
    /// Soft L0 occupancy bound: [`LsmTree::wants_merge`] turns true once L0
    /// holds this many sensors. Registration never blocks on it — the bound
    /// is advisory, enforced by whoever drives merges.
    pub l0_capacity: usize,
    /// Geometric growth factor between adjacent levels: a merge absorbs the
    /// trailing run of levels while the next level in is smaller than
    /// `level_ratio ×` the population already being merged.
    pub level_ratio: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            l0_capacity: 1024,
            level_ratio: 4,
        }
    }
}

/// What one [`LsmTree::merge`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MergeReport {
    /// Immutable levels absorbed into the new level.
    pub absorbed_levels: usize,
    /// Live sensors in the freshly built level.
    pub merged_sensors: usize,
    /// Cached readings carried into the new level (post-filter: still live,
    /// in-window, sensor survived the merge).
    pub carried_entries: usize,
    /// Tombstoned sensors physically dropped.
    pub dropped_tombstones: usize,
    /// Wall-clock build+publish time, µs.
    pub duration_us: u64,
    /// Level count after publication.
    pub levels_after: usize,
    /// L0 occupancy after publication (sensors registered mid-merge).
    pub l0_after: usize,
    /// The ordinal of the cut the merge published; `None` when there was
    /// nothing to compact and nothing was published.
    pub published: Option<u64>,
}

/// Point-in-time shape of the level structure, for dashboards and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LsmStats {
    /// Immutable levels currently published.
    pub levels: usize,
    /// Sensors parked in L0 (live).
    pub l0_occupancy: usize,
    /// Live sensors across all components.
    pub live_sensors: usize,
    /// Tombstoned sensors awaiting physical removal.
    pub tombstones: usize,
    /// Merges completed since construction.
    pub merges: u64,
}

/// Where a global sensor currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SensorLoc {
    /// Parked in the published L0, at this position.
    L0 { pos: u32 },
    /// In the immutable level with this key, at this local index.
    Level { key: u64, local: u32 },
}

/// One directory entry: a known sensor's location and whether it has been
/// retired. A retired sensor keeps its entry until a merge drops it
/// physically, so a merge racing the retire re-applies the tombstone to the
/// level it built.
#[derive(Debug, Clone, Copy)]
struct Placed {
    loc: SensorLoc,
    retired: bool,
}

/// Global id → [`Placed`], in a chunked [`IdTable`].
struct Directory {
    table: IdTable<Placed>,
}

impl Directory {
    /// Records a registration parked in L0 at `pos`.
    fn park(&mut self, id: SensorId, pos: u32) {
        let loc = SensorLoc::L0 { pos };
        let retired = false;
        self.table.insert(id.index(), Placed { loc, retired });
    }

    /// Marks `id` retired and returns where it lives; `None` when it is
    /// unknown or already retired.
    fn retire(&mut self, id: SensorId) -> Option<SensorLoc> {
        let placed = self.table.get_mut(id.index())?;
        if std::mem::replace(&mut placed.retired, true) {
            return None;
        }
        Some(placed.loc)
    }
}

/// One published cut of the level structure: the index's one snapshot.
/// Immutable once published; readers clone the `Arc` ([`LsmTree::cut`]) and
/// plan and execute against it while merges prepare the next cut on the
/// side. Its primary level and ordinal are fixed where it is published,
/// under `state`'s write lock.
pub struct LsmState {
    /// Oldest/largest first; merges append the freshly built level.
    levels: Vec<Arc<LsmLevel>>,
    l0: Arc<L0Level>,
    /// Index into `levels` of the planning anchor ([`primary_of`]).
    primary: usize,
    /// Cuts published before this one: 0 for the initial build, one more
    /// per merge.
    ordinal: u64,
}

/// The level whose tree anchors planning: most live sensors, ties to the
/// oldest.
fn primary_of(levels: &[Arc<LsmLevel>]) -> usize {
    let by_live = (0..levels.len()).rev().max_by_key(|&i| levels[i].live());
    by_live.unwrap_or(0)
}

impl LsmState {
    /// The level whose tree anchors planning and inspection, chosen when the
    /// cut was published (queries still fan out across every level). For a
    /// fresh index this is its one level.
    pub fn primary(&self) -> &Arc<LsmLevel> {
        &self.levels[self.primary]
    }

    /// The cut's publication ordinal: 0 for the initial build, one more per
    /// merge.
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }

    /// Rolls every component's cache window forward to `now`.
    pub fn advance(&self, now: Timestamp) {
        for level in &self.levels {
            level.tree().advance(now);
        }
        self.l0.advance(now);
    }

    /// Captures this cut for batch execution, L0 copied. The caller is
    /// expected to [`LsmState::advance`] to the batch instant first.
    pub fn freeze(self: &Arc<Self>) -> LsmSnapshot {
        let l0 = self.l0.snapshot();
        LsmSnapshot {
            state: self.clone(),
            l0,
        }
    }

    /// The cut's live sensors of `kind` (any kind when `None`) inside
    /// `region`, every level's and L0's: what the shard router splits by.
    pub fn count_in(&self, region: &colr_geo::Region, kind: Option<u16>) -> u64 {
        self.count_levels_in(region, kind) + self.l0.count_in(region, kind)
    }

    /// [`LsmState::count_in`] over the levels alone.
    fn count_levels_in(&self, region: &colr_geo::Region, kind: Option<u16>) -> u64 {
        crate::scratch::with_scratch(|s| {
            let count = |l: &Arc<LsmLevel>| l.count_in(region, kind, &mut s.stack, &mut s.class);
            self.levels.iter().map(count).map(|n| n.0).sum::<u64>()
        })
    }
}

/// A frozen cut for batch execution: queries of one batch all run against
/// this snapshot (levels by `Arc`, L0 by value), with probe results applied
/// after the batch by [`LsmTree::apply_deferred`] in submission order.
pub struct LsmSnapshot {
    state: Arc<LsmState>,
    l0: Vec<Parked>,
}

impl LsmSnapshot {
    /// [`LsmState::count_in`] over the frozen cut, L0 as its copy holds it.
    pub fn count_in(&self, region: &colr_geo::Region, kind: Option<u16>) -> u64 {
        let in_l0 = self.l0.iter().filter(|p| p.meta.is_in(region, kind));
        self.state.count_levels_in(region, kind) + in_l0.count() as u64
    }
}

/// The bounding box, coordinate sums and count of a run of locations, the
/// sums started from the first location and the rest added in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationFold {
    /// The locations' bounding box.
    pub bbox: Rect,
    /// Their x coordinates summed.
    pub sum_x: f64,
    /// Their y coordinates summed.
    pub sum_y: f64,
    /// How many there are.
    pub count: usize,
}

impl LocationFold {
    /// The fold of `points` in order; `None` when there are none.
    pub fn over(points: impl IntoIterator<Item = Point>) -> Option<LocationFold> {
        let mut acc = None;
        points
            .into_iter()
            .for_each(|p| LocationFold::add(&mut acc, p));
        acc
    }

    /// Folds `p` into `acc`.
    fn add(acc: &mut Option<LocationFold>, p: Point) {
        let Some(fold) = acc else {
            let bbox = Rect::new(p, p);
            *acc = Some(LocationFold {
                bbox,
                sum_x: p.x,
                sum_y: p.y,
                count: 1,
            });
            return;
        };
        fold.bbox.expand_to_point(&p);
        fold.sum_x += p.x;
        fold.sum_y += p.y;
        fold.count += 1;
    }
}

/// The incremental index: an `Arc`-swapped level stack (`LsmState`) plus the
/// global directory that routes churn to the right component.
///
/// Lock order (deadlock freedom): `state` → `directory` → a component's own
/// locks (L0's, a level tree's). The `merge_lock` serialises merges and is
/// always taken first, before any of them; `fold_memo` is taken with no
/// other held, and only L0's after it. Every directory change but a
/// merge's is made under `state`'s read lock and a merge's publication under
/// its write lock, so a location read under either names a component of the
/// published cut: an L0 position is a position in the published L0. A
/// write-back through the directory reads it and writes its components
/// under the read lock, which orders it before or after a publication,
/// never across one; a query's, written where it found its readings, reads
/// the published ordinal under `carry` after writing instead.
pub struct LsmTree {
    config: ColrConfig,
    lsm: LsmConfig,
    seed: u64,
    state: RwLock<Arc<LsmState>>,
    /// Global id → current location and retired bit. Updated at
    /// register/retire/merge.
    directory: Mutex<Directory>,
    merge_lock: Mutex<()>,
    /// The published ordinal, and what the write-backs owe a merge that is
    /// building.
    carry: Mutex<Carry>,
    /// [`LsmTree::live_location_fold`]'s fold after each level of the cut
    /// it last ran on, with the level's key and the tombstones counted
    /// before the level was folded.
    fold_memo: Mutex<Vec<(u64, u64, Option<LocationFold>)>>,
}

impl LsmTree {
    /// Builds the base level over `sensors` (ascending by id) with an empty
    /// L0. `seed` is the base level's build seed: its tree is the one
    /// [`crate::tree::ColrTree::build`] makes of the same population,
    /// renumbered dense, under that seed.
    pub fn new(sensors: Vec<SensorMeta>, config: ColrConfig, lsm: LsmConfig, seed: u64) -> LsmTree {
        let base = Arc::new(LsmLevel::build(0, &sensors, config.clone(), seed, &[]));
        let mut table = IdTable::new();
        for (j, m) in sensors.iter().enumerate() {
            let loc = SensorLoc::Level {
                key: 0,
                local: j as u32,
            };
            let retired = false;
            table.insert(m.id.index(), Placed { loc, retired });
        }
        let directory = Directory { table };
        LsmTree {
            config,
            lsm,
            seed,
            state: RwLock::new(Arc::new(LsmState {
                levels: vec![base],
                l0: Arc::new(L0Level::new()),
                primary: 0,
                ordinal: 0,
            })),
            directory: Mutex::new(directory),
            merge_lock: Mutex::new(()),
            carry: Mutex::new(Carry::default()),
            fold_memo: Mutex::new(Vec::new()),
        }
    }

    /// The tree-shape configuration every level is built with.
    pub fn config(&self) -> &ColrConfig {
        &self.config
    }

    /// The published cut: one read of `state`, one `Arc` clone. Everything a
    /// query plans and executes against comes from the one cut it read.
    pub fn cut(&self) -> Arc<LsmState> {
        self.state.read().clone()
    }

    /// Current shape counters.
    pub fn stats(&self) -> LsmStats {
        let state = self.state.read().clone();
        let tombstones: usize = state
            .levels
            .iter()
            .map(|l| l.tombstone_count() as usize)
            .sum::<usize>()
            + state.l0.tombstone_count();
        LsmStats {
            levels: state.levels.len(),
            l0_occupancy: state.l0.live(),
            live_sensors: state.levels.iter().map(|l| l.live()).sum::<usize>() + state.l0.live(),
            tombstones,
            merges: state.ordinal,
        }
    }

    /// `true` once L0 has outgrown its soft capacity and a merge is due.
    /// One lock, the state's read lock: L0's length is read without its own
    /// (the bound is advisory, so a push in flight may count either way).
    pub fn wants_merge(&self) -> bool {
        self.state.read().l0.len() >= self.lsm.l0_capacity.max(1)
    }

    /// Registers a sensor: one push into L0, visible to the next query.
    /// The read guard is held across the push so a concurrent merge
    /// publication (which holds the write lock) can never miss it, and the
    /// directory's lock too, so a write-back of a query that saw the push
    /// finds the sensor's entry.
    pub fn register(&self, meta: SensorMeta) {
        let state = self.state.read();
        let mut directory = self.directory.lock();
        let pos = state.l0.push(meta);
        directory.park(meta.id, pos);
    }

    /// Retires a sensor wherever it lives: tombstoned out of probes, sample
    /// weights, and cached slot aggregates immediately; physically dropped
    /// by the next merge touching its component. Returns `false` for
    /// unknown or already-retired sensors.
    pub fn retire(&self, id: SensorId) -> bool {
        let state = self.state.read();
        let Some(loc) = self.directory.lock().retire(id) else {
            return false;
        };
        // The bit is set, so no other retire reaches this sensor's
        // component; the read guard keeps that component published.
        let hit = match loc {
            SensorLoc::L0 { pos } => state.l0.tombstone(pos),
            SensorLoc::Level { key, local } => state
                .levels
                .iter()
                .find(|l| l.key() == key)
                .is_some_and(|l| l.tombstone(SensorId(local))),
        };
        debug_assert!(hit, "the directory names a live sensor of the cut");
        hit
    }

    /// Calls `visit` with the location of every live sensor of one published
    /// cut, copying nothing: levels in state order, each by ascending local
    /// index with tombstoned sensors skipped, then L0 in registration order.
    /// L0's read lock is held while its sensors are visited, so `visit` must
    /// not come back into this index.
    pub fn for_each_live_location(&self, mut visit: impl FnMut(colr_geo::Point)) {
        let state = self.state.read().clone();
        for level in &state.levels {
            level.for_each_live_location(&mut visit);
        }
        state.l0.for_each_live_location(&mut visit);
    }

    /// The [`LocationFold`] of every live location of one published cut,
    /// in [`LsmTree::for_each_live_location`]'s order; `None` when none is
    /// live.
    ///
    /// The fold after each level is kept, keyed by the level's key and its
    /// tombstone count read before the level is folded. Tombstones are only
    /// ever added, so an unchanged count is an unchanged set (a retire that
    /// races the fold lands on either side of it), and the next call resumes
    /// from the longest prefix of levels still as they were: after a merge,
    /// the levels it replaced and L0. The additions are one pass's, in its
    /// order on its values.
    pub fn live_location_fold(&self) -> Option<LocationFold> {
        let state = self.cut();
        let mut memo = self.fold_memo.lock();
        let kept = memo
            .iter()
            .zip(&state.levels)
            .take_while(|((key, dead, _), level)| {
                *key == level.key() && *dead == level.tombstone_count()
            })
            .count();
        memo.truncate(kept);
        let mut acc = memo.last().and_then(|&(_, _, fold)| fold);
        for level in &state.levels[kept..] {
            let dead = level.tombstone_count();
            level.for_each_live_location(&mut |p| LocationFold::add(&mut acc, p));
            memo.push((level.key(), dead, acc));
        }
        let fold = &mut |p| LocationFold::add(&mut acc, p);
        state.l0.for_each_live_location(fold);
        acc
    }

    /// Live sensors currently parked in L0 (the shard router's
    /// rebalance-on-merge input: only unmerged sensors are cheap to move).
    pub fn l0_sensor_metas(&self) -> Vec<SensorMeta> {
        let state = self.state.read().clone();
        state.l0.snapshot().into_iter().map(|p| p.meta).collect()
    }

    // ------------------------------------------------------------------
    // Query execution
    // ------------------------------------------------------------------

    /// Processes `query` across the published cut ([`LsmTree::execute_in`]
    /// on [`LsmTree::cut`]).
    pub fn execute<P, R>(
        &self,
        query: &Query,
        mode: Mode,
        probe: &P,
        now: Timestamp,
        rng: &mut R,
    ) -> QueryOutput
    where
        P: ProbeService + ?Sized,
        R: Rng + ?Sized,
    {
        self.execute_in(&self.cut(), query, mode, probe, now, rng)
    }

    /// Processes `query` across `cut`, and no other — the LSM analogue of
    /// [`crate::tree::ColrTree::execute`]: every component rolls its window
    /// to `now`, L0's candidates are read once, the query runs as a batch's
    /// does, and its successes are written back through the directory
    /// ([`LsmTree::apply_deferred`]) before it returns.
    ///
    /// The sample target splits across components by live weight
    /// ([`apportion`]) and each component runs under an independent RNG
    /// stream derived from one draw of the caller's RNG.
    pub fn execute_in<P, R>(
        &self,
        cut: &LsmState,
        query: &Query,
        mode: Mode,
        probe: &P,
        now: Timestamp,
        rng: &mut R,
    ) -> QueryOutput
    where
        P: ProbeService + ?Sized,
        R: Rng + ?Sized,
    {
        cut.advance(now);
        let l0 = cut.l0.candidates(query);
        crate::scratch::with_scratch(|scratch| {
            let mut got = std::mem::take(&mut scratch.got);
            let mut out =
                self.exec_layered(cut, &l0, query, mode, probe, now, rng, scratch, &mut got);
            let successes = got.iter().map(|&i| &out.readings[i as usize]);
            let homes = &mut scratch.layers.homes;
            let inserted = self.write_back(Some(cut), successes, now, homes);
            out.stats.cache_inserts += inserted as u64;
            clear_pooled(&mut got);
            scratch.got = got;
            out
        })
    }

    /// [`LsmTree::execute`] against a frozen snapshot: no component advances
    /// its window, L0's candidates come from the snapshot's copy, and the
    /// successes (global ids) are returned for a later
    /// [`LsmTree::apply_deferred`] instead of being written back.
    pub fn execute_frozen<P, R>(
        &self,
        snap: &LsmSnapshot,
        query: &Query,
        mode: Mode,
        probe: &P,
        now: Timestamp,
        rng: &mut R,
    ) -> (QueryOutput, Vec<Reading>)
    where
        P: ProbeService + ?Sized,
        R: Rng + ?Sized,
    {
        let l0: Vec<Parked> = snap
            .l0
            .iter()
            .filter(|p| query.matches_sensor(&p.meta))
            .copied()
            .collect();
        let (state, mut got) = (&snap.state, Vec::new());
        let out = crate::scratch::with_scratch(|s| {
            self.exec_layered(state, &l0, query, mode, probe, now, rng, s, &mut got)
        });
        let deferred = got.iter().map(|&i| out.readings[i as usize]).collect();
        (out, deferred)
    }

    /// The one write-back: caches `readings` (global ids) wherever their
    /// sensors live *now* — an interactive query's right after it, a batch's
    /// after the batch. A reading of a sensor merged since its query read
    /// the cut lands in the new level; a retired sensor's is dropped.
    /// Returns the number of readings cached.
    pub fn apply_deferred(&self, readings: &[Reading], now: Timestamp) -> usize {
        let readings = readings.iter();
        crate::scratch::with_scratch(|s| self.write_back(None, readings, now, &mut s.layers.homes))
    }

    /// [`LsmTree::apply_deferred`] with the thread's pooled buffers.
    ///
    /// An interactive query passes the cut it read, and `homes` then holds
    /// where it found each reading there. While that cut is the published
    /// one those are the homes, written without `state`'s lock or the
    /// directory's: a query waiting for either would wait for the writer.
    /// A publication sets the ordinal as it takes the log, so the ordinal
    /// is read again after writing: unchanged, the readings are logged for
    /// a merge building (or were in its carry-over); changed, they go again
    /// through the directory. That pass, under `state`'s read lock, gives
    /// each reading its home, and each component takes its readings in
    /// their order.
    fn write_back<'a>(
        &self,
        found_in: Option<&LsmState>,
        readings: impl Iterator<Item = &'a Reading> + Clone,
        now: Timestamp,
        homes: &mut Vec<(u32, u32)>,
    ) -> usize {
        if readings.clone().next().is_none() {
            return 0;
        }
        let mut inserted = None;
        if let Some(cut) = found_in.filter(|cut| self.carry.lock().published == cut.ordinal) {
            let written = apply_routed(cut, readings.clone(), homes, now);
            let mut carry = self.carry.lock();
            if carry.published == cut.ordinal {
                carry.record(readings.clone(), now);
                inserted = Some(written);
            }
        }
        let inserted = inserted.unwrap_or_else(|| {
            homes.clear();
            let state = self.state.read();
            let l0 = state.levels.len() as u32;
            let at = |key| state.levels.iter().position(|l| l.key() == key);
            let home = |loc| match loc {
                SensorLoc::L0 { pos } => (l0, pos),
                SensorLoc::Level { key, local } => (at(key).map_or(u32::MAX, |i| i as u32), local),
            };
            let directory = self.directory.lock();
            let placed = |r: &Reading| directory.table.get(r.sensor.index()).copied();
            let live = readings.clone().map(|r| placed(r).filter(|p| !p.retired));
            homes.extend(live.map(|p| p.map_or((u32::MAX, 0), |p| home(p.loc))));
            drop(directory);
            let written = apply_routed(&state, readings.clone(), homes, now);
            // Logged after writing, under the read lock: a merge whose cut or
            // carry-over missed these readings opened the log before that.
            self.carry.lock().record(readings, now);
            written
        });
        crate::flight::with(|f| f.write_back(inserted as u64));
        clear_pooled(homes);
        inserted
    }

    /// Layered execution over one cut, L0's candidates given: split → every
    /// component selects → one wave → every component completes. Where
    /// each success lands in the answer's readings (global ids) is appended
    /// to `got`, the one list the caller writes back from.
    #[allow(clippy::too_many_arguments)]
    fn exec_layered<P, R>(
        &self,
        state: &LsmState,
        l0_cands: &[Parked],
        query: &Query,
        mode: Mode,
        probe: &P,
        now: Timestamp,
        rng: &mut R,
        scratch: &mut QueryScratch,
        got: &mut Vec<u32>,
    ) -> QueryOutput
    where
        P: ProbeService + ?Sized,
        R: Rng + ?Sized,
    {
        // Only Mode::Colr with an explicit target is layered — other modes
        // visit every component with the query unchanged.
        let r_int = match (mode, query.sample_size) {
            (Mode::Colr, Some(r)) => Some(stochastic_round(r, rng)),
            _ => None,
        };
        // One draw of the caller's RNG seeds every component's independent
        // stream (`i + 1`), so results do not depend on component execution
        // order, and the apportionment's `u` (stream 0).
        let base = rng.next_u64();
        let mut plan = std::mem::take(&mut scratch.plan);
        plan.clear();
        let mut layers = std::mem::take(&mut scratch.layers);
        let LayerScratch {
            split,
            scale,
            parts,
            wire,
            homes,
        } = &mut layers;
        split.clear();
        scale.clear();
        clear_pooled(wire);
        clear_pooled(homes);

        // --- Split: the components with something to answer, levels in
        // state order and L0 last, each weighed by its live sensors in the
        // region (L0's are its candidates) and handed its share.
        let (region, kind) = (&query.region, query.kind_filter);
        let lone = state.levels.len() == 1 && l0_cands.is_empty();
        for (i, level) in state.levels.iter().enumerate() {
            // Uncounted with nothing to split, or alone and nothing retired.
            let (live, built) = if r_int.is_none() || (lone && level.tombstone_count() == 0) {
                let n =
                    level.len() as u64 * u64::from(r_int.is_none() || level.reaches(region, kind));
                (n, n)
            } else {
                level.count_in(region, kind, &mut scratch.stack, &mut scratch.class)
            };
            if live > 0 {
                split.push(Claim::new(i, live as f64));
                if built > live {
                    scale.push((i, built as f64 / live as f64));
                }
            }
        }
        if !l0_cands.is_empty() {
            split.push(Claim::new(state.levels.len(), l0_cands.len() as f64));
        }
        if let Some(r_int) = r_int {
            apportion(r_int, split, unit_draw(derive_seed(base, 0)));
        }

        // --- Select: every component walks; no sensor is contacted ------
        let mut stats = QueryStats::default();
        let mut l0_part = None;
        for claim in split.iter() {
            let share = r_int.map(|_| claim.share);
            if share == Some(0) {
                continue;
            }
            let mut comp_rng = StdRng::seed_from_u64(derive_seed(base, claim.id as u64 + 1));
            let Some(level) = state.levels.get(claim.id) else {
                l0_part = select_l0(l0_cands, query, mode, now, &mut comp_rng, share, &mut stats);
                continue;
            };
            // The walk spreads a target over the tombstoned sensors in the
            // region too and the collect step drops those picks: ask for
            // enough that the live ones keep the whole share.
            let up = scale.iter().find(|s| s.0 == claim.id).map_or(1.0, |s| s.1);
            let target = share.map(|share| share as f64 * up);
            let (fixes_from, ids_from) = (plan.fixes.len(), plan.ids.len());
            let out =
                level
                    .tree()
                    .select(query, target, mode, now, &mut comp_rng, &mut plan, scratch);
            let (fixes, ids) = (fixes_from..plan.fixes.len(), ids_from..plan.ids.len());
            parts.push((claim.id, out, fixes, ids));
        }

        // --- Collect: one wave over every component's selections, in
        // component order. Local ids go out as global ids; tombstoned
        // sensors never reach the wire and read as unavailable.
        // Liveness is read once, here: a retire racing the query must
        // not shift outcomes between sensors.
        wire.reserve(plan.ids.len());
        for (level, _, _, ids) in parts.iter() {
            let level = &state.levels[*level];
            let picks = plan.ids[ids.clone()].iter();
            let live = picks.filter(|&&s| !level.is_tombstoned(s));
            wire.extend(live.map(|&s| level.global_id(s)));
        }
        if let Some(part) = &l0_part {
            wire.extend(part.to_probe.iter().map(|&i| l0_cands[i as usize].meta.id));
        }
        let mut wave = Wave::new(probe, wire, query, now);
        // A pick went out iff the next id of the wire not yet matched is
        // its own: the wire is the record of who was asked.
        let mut sent = wire.iter().peekable();

        // --- Complete: each component folds in its slice of the wave ----
        got.reserve(wire.len());
        homes.reserve(wire.len());
        let mut groups = Vec::new();
        let mut readings = Vec::new();
        for (at, mut out, fixes, ids) in parts.drain(..) {
            let level = &state.levels[at];
            let mut outcomes = plan.ids[ids].iter().map(|&sensor| {
                let asked = sent.next_if_eq(&&level.global_id(sensor)).is_some();
                let arrived = if asked { wave.next().flatten() } else { None };
                arrived.map(|r| Reading { sensor, ..r })
            });
            let got_from = got.len();
            let tree = level.tree();
            tree.complete(&mut out, &plan, fixes, &mut outcomes, got, mode);
            // Where the level's successes land in the answer, and where
            // they live in the cut.
            for i in &mut got[got_from..] {
                homes.push((at as u32, out.readings[*i as usize].sensor.0));
                *i += readings.len() as u32;
            }
            for r in &mut out.readings {
                r.sensor = level.global_id(r.sensor);
            }
            // The first component's vectors are taken whole: a one-level
            // index copies nothing.
            if groups.is_empty() && readings.is_empty() {
                groups = out.groups;
                readings = out.readings;
            } else {
                groups.append(&mut out.groups);
                readings.append(&mut out.readings);
            }
            stats.merge(&out.stats);
        }
        if let Some(mut part) = l0_part {
            // The rest of the wave is L0's, in `to_probe` order.
            let asked = part.to_probe.iter().zip(wave.by_ref());
            for (&i, r) in asked.filter_map(|(i, r)| Some((i, r?))) {
                // No cache in R-Tree mode: its results are never
                // written back.
                if mode != Mode::RTree {
                    got.push((readings.len() + part.readings.len()) as u32);
                    homes.push((state.levels.len() as u32, l0_cands[i as usize].pos));
                }
                part.group.agg.insert(r.value);
                part.readings.push(r);
            }
            part.group.results = part.readings.len() as u64;
            groups.push(part.group);
            readings.append(&mut part.readings);
        }
        wave.charge(&mut stats);
        scratch.plan = plan;
        scratch.layers = layers;
        let mut out = QueryOutput {
            groups,
            readings,
            stats,
            latency_ms: 0.0,
        };
        finish(mode, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Merge
    // ------------------------------------------------------------------

    /// Compacts L0 and a trailing run of small or heavily tombstoned levels
    /// into one freshly bulk-built level, carrying still-fresh cached
    /// readings across. Queries keep running against the old cut throughout;
    /// publication is one `Arc` swap. Returns what happened (a no-op report
    /// when there is nothing to compact).
    ///
    /// Safe to call from a background thread; merges serialise on an
    /// internal lock.
    pub fn merge(&self, now: Timestamp) -> MergeReport {
        let _serial = self.merge_lock.lock();
        let start = std::time::Instant::now();
        match self.build_merge(now) {
            Ok(built) => self.publish_merge(built, now, start),
            Err(no_op) => no_op,
        }
    }

    /// The first half of [`LsmTree::merge`]: cuts L0 and the trailing levels
    /// and builds their replacement off to the side, or returns the no-op
    /// report when there is nothing to compact.
    fn build_merge(&self, now: Timestamp) -> Result<BuiltMerge, MergeReport> {
        let state = self.state.read().clone();
        // Every write-back from here on is logged for the publication to
        // carry; the cut and the carry-over below take what came before.
        self.carry.lock().log = Some(Vec::new());
        // The batch: L0's prefix as long as L0 is now. Sensors registered
        // after this point stay in L0 across the publication.
        let (cut, batch, mut dropped) = state.l0.cut();

        // Absorb the trailing (newest, smallest) run of levels while each is
        // small relative to the pool being merged, or mostly tombstoned.
        let mut pool = batch.len();
        let mut absorb_from = state.levels.len();
        while absorb_from > 0 {
            let level = &state.levels[absorb_from - 1];
            let half_dead = !level.is_empty() && level.tombstone_count() * 2 >= level.len() as u64;
            let small = level.live() < self.lsm.level_ratio.max(2) * pool.max(1);
            if small || half_dead {
                pool += level.live();
                absorb_from -= 1;
            } else {
                break;
            }
        }
        let absorbed = &state.levels[absorb_from..];
        if batch.is_empty() && absorbed.iter().all(|l| l.tombstone_count() == 0) {
            // Nothing new and nothing to purge: leave the structure alone
            // rather than churn identical levels.
            self.carry.lock().log = None;
            return Err(MergeReport {
                levels_after: state.levels.len(),
                l0_after: state.l0.live(),
                ..MergeReport::default()
            });
        }

        // Build the merged level off to the side. Each absorbed sensor's
        // tombstone mark is read once: built over, or dropped. A live one
        // also counts into its home leaf's mean; the means, weighted by
        // their counts, seed the merged level (levels in cut order, leaves
        // in arena order).
        let mut metas: Vec<SensorMeta> = Vec::with_capacity(pool);
        let mut seeds = Vec::new();
        for level in absorbed {
            let mut leaves = vec![(0.0, 0.0, 0usize); level.tree().node_count()];
            for j in 0..level.len() {
                let local = SensorId(j as u32);
                if level.is_tombstoned(local) {
                    dropped.push(level.global_id(local).0);
                } else {
                    let meta = level.global_meta(j);
                    let leaf = &mut leaves[level.tree().home_leaf(local).index()];
                    leaf.0 += meta.location.x;
                    leaf.1 += meta.location.y;
                    leaf.2 += 1;
                    metas.push(meta);
                }
            }
            let live = leaves.into_iter().filter(|l| l.2 > 0);
            seeds.extend(live.map(|(x, y, n)| (Point::new(x / n as f64, y / n as f64), n)));
        }
        metas.extend(batch.iter().map(|p| p.meta));
        metas.sort_by_key(|m| m.id.0);
        // Merges serialise, so the cut taken is the published one, and the
        // merge's ordinal keys its level.
        let merge_ordinal = state.ordinal + 1;
        let level = Arc::new(LsmLevel::build(
            merge_ordinal,
            &metas,
            self.config.clone(),
            derive_seed(self.seed, merge_ordinal),
            &seeds,
        ));
        level.tree().advance(now);

        // Carry-over: the absorbed levels' cached readings plus L0's,
        // translated to the new level's local ids; `restore_entries` drops
        // anything expired, out of window, or belonging to a dropped sensor.
        let mut carry: Vec<CachedEntry> = Vec::new();
        for level in absorbed {
            carry.extend(level.cached_entries_global());
        }
        carry.extend(batch.iter().filter_map(|p| p.entry));
        let carried = level.tree().restore_entries(&level.to_local(carry), now);
        Ok(BuiltMerge {
            state,
            absorb_from,
            cut,
            dropped,
            level,
            carried,
        })
    }

    /// The second half of [`LsmTree::merge`]: under `state`'s write lock,
    /// carries what was cached since the build took its carry-over, swaps
    /// the built level in for what it absorbed, re-routes the directory,
    /// re-applies the retires that raced the build, parks the suffix in a
    /// new L0 and drops the tombstones — array stores, one per sensor the
    /// merge moved or dropped.
    fn publish_merge(
        &self,
        built: BuiltMerge,
        now: Timestamp,
        start: std::time::Instant,
    ) -> MergeReport {
        let BuiltMerge {
            state,
            absorb_from,
            cut,
            mut dropped,
            level,
            mut carried,
        } = built;
        let key = level.key();
        // Queries kept writing back while the level was building, and the
        // log holds what they wrote (the new level keeps its own sensors'
        // readings). What is logged so far is carried before the lock is
        // taken: nothing else writes into a level not yet published.
        let early = self.carry.lock().log.as_mut().map(std::mem::take);
        carried += level
            .tree()
            .restore_entries(&level.to_local(early.unwrap_or_default()), now);
        let (levels_after, l0_after, ordinal) = {
            let mut published = self.state.write();
            let ordinal = published.ordinal + 1;
            // The rest is carried under it. A write-back through the
            // directory routes under `state`'s read lock, and one that wrote
            // where its query found the readings looks at the ordinal after
            // writing: from here on either goes to the new level. Before the
            // retires are re-applied, which purge what they must.
            let logged = {
                let mut carry = self.carry.lock();
                carry.published = ordinal;
                carry.log.take().unwrap_or_default()
            };
            carried += level.tree().restore_entries(&level.to_local(logged), now);
            let after = state.l0.after_cut(cut);
            let mut directory = self.directory.lock();
            for j in 0..level.len() {
                let local = SensorId(j as u32);
                let global = level.global_id(local);
                if let Some(placed) = directory.table.get_mut(global.index()) {
                    placed.loc = SensorLoc::Level {
                        key,
                        local: local.0,
                    };
                    if placed.retired {
                        level.tombstone(local);
                    }
                }
            }
            dropped.extend(after.dropped);
            for &id in &dropped {
                directory.table.remove(id as usize);
            }
            for (pos, (meta, _)) in after.rest.iter().enumerate() {
                if let Some(placed) = directory.table.get_mut(meta.id.index()) {
                    placed.loc = SensorLoc::L0 { pos: pos as u32 };
                }
            }
            let l0_after = after.rest.len();
            let new_l0 = Arc::new(L0Level::with_contents(after.rest));
            let mut levels: Vec<Arc<LsmLevel>> = state.levels[..absorb_from].to_vec();
            levels.push(level.clone());
            let levels_after = levels.len();
            let primary = primary_of(&levels);
            *published = Arc::new(LsmState {
                levels,
                l0: new_l0,
                primary,
                ordinal,
            });
            (levels_after, l0_after, ordinal)
        };

        MergeReport {
            absorbed_levels: state.levels.len() - absorb_from,
            merged_sensors: level.live(),
            carried_entries: carried,
            dropped_tombstones: dropped.len(),
            duration_us: start.elapsed().as_micros() as u64,
            levels_after,
            l0_after,
            published: Some(ordinal),
        }
    }
}

/// A merge's level, built by [`LsmTree::build_merge`] from the cut it took
/// and waiting for [`LsmTree::publish_merge`].
struct BuiltMerge {
    /// The cut the merge took.
    state: Arc<LsmState>,
    /// The cut's levels from this index on were absorbed.
    absorb_from: usize,
    /// L0's length at the cut: the batch is its prefix.
    cut: usize,
    /// Global ids tombstoned at the cut in what the merge took: dropped.
    dropped: Vec<u32>,
    level: Arc<LsmLevel>,
    /// Cached readings carried into `level` so far.
    carried: usize,
}

/// What write-backs owe merges, under one lock.
#[derive(Default)]
struct Carry {
    /// The ordinal of the published cut, set by a publication as it takes
    /// the log.
    published: u64,
    /// While a merge builds, every reading written back since it took its
    /// cut (global ids), for its publication to carry.
    log: Option<Vec<CachedEntry>>,
}

impl Carry {
    /// Logs `readings`, cached at `now`, when a merge is building.
    fn record<'a>(&mut self, readings: impl Iterator<Item = &'a Reading>, now: Timestamp) {
        if let Some(log) = self.log.as_mut() {
            let fetched_at = now;
            log.extend(readings.map(|&reading| CachedEntry {
                reading,
                fetched_at,
            }));
        }
    }
}

/// Writes each of `readings` (global ids) into its home in `state`, each
/// component taking its readings in their order. `homes` is parallel: a
/// reading's component's index in `state` (L0's is the levels' count, a
/// retired sensor's none) and its local id or L0 position there. A level's
/// are purged again of a retire that raced the write. Returns the number of
/// readings cached.
fn apply_routed<'a>(
    state: &LsmState,
    readings: impl Iterator<Item = &'a Reading> + Clone,
    homes: &[(u32, u32)],
    now: Timestamp,
) -> usize {
    let routed = readings.zip(homes);
    let to = |at: u32| {
        let mine = routed.clone().filter(move |(_, home)| home.0 == at);
        mine.map(|(r, &(_, i))| (i, *r))
    };
    let mut inserted = 0;
    for (at, level) in (0..).zip(&state.levels) {
        let mine = to(at).map(|(local, r)| Reading {
            sensor: SensorId(local),
            ..r
        });
        inserted += level.tree().apply_readings(mine.clone(), now);
        level.purge_retired(mine);
    }
    inserted + state.l0.insert_readings(to(state.levels.len() as u32), now)
}

/// The layered executor's buffers, pooled in the thread's
/// [`crate::scratch::QueryScratch`] beside the plan they index.
#[derive(Default)]
pub(crate) struct LayerScratch {
    /// The components that answer, with their shares of the target.
    split: Vec<Claim>,
    /// The levels of `split` with tombstones in the region: built / live.
    scale: Vec<(usize, f64)>,
    /// Per level that selected, in `split` order: its index in the cut, its
    /// walk's answer so far, and which fixes and ids of the plan are its own.
    parts: Vec<(usize, QueryOutput, Range<usize>, Range<usize>)>,
    /// The plan's ids as the wave sends them: global, tombstoned picks left
    /// out, L0's selections last.
    wire: Vec<SensorId>,
    /// Per reading written back: its component's index in the cut and its
    /// local id or L0 position there (`u32::MAX` for a retired sensor).
    homes: Vec<(u32, u32)>,
}

/// Empties a pooled buffer and trims it to what an ordinary request needs,
/// so one fleet-wide fill does not keep its size for the thread's life.
fn clear_pooled<T>(buf: &mut Vec<T>) {
    buf.clear();
    buf.shrink_to(crate::lookup::ProbePlan::POOLED);
}

/// What the flat L0 component selected: its group and cached readings so
/// far, and the sensors it adds to the query's wave.
struct L0Part {
    group: GroupResult,
    readings: Vec<Reading>,
    /// The candidates it asks the wave for, by index.
    to_probe: Vec<u32>,
}

/// Selects from the L0 component's candidates (there is at least one, or L0
/// would not be a component): a flat scan with Algorithm 1's
/// availability-compensated sampling when a share is assigned, cache-first
/// collection otherwise. Returns `None` when L0 contributes no group.
fn select_l0<R: Rng + ?Sized>(
    cands: &[Parked],
    query: &Query,
    mode: Mode,
    now: Timestamp,
    rng: &mut R,
    share: Option<usize>,
    stats: &mut QueryStats,
) -> Option<L0Part> {
    let n = cands.len();
    stats.entries_scanned += n as u64;
    // Selection: apportioned share with availability oversampling
    // (Algorithm 1 applied to a flat level), or everything.
    let mut order: Vec<usize> = (0..n).collect();
    let (selected, target) = match share {
        Some(r) => {
            let target = r.min(n);
            let avail_mean = cands.iter().map(|p| p.meta.availability).sum::<f64>() / n as f64;
            let attempt =
                stochastic_round(target as f64 / avail_mean.max(MIN_AVAILABILITY), rng).min(n);
            for i in 0..attempt {
                let j = rng.random_range(i..n);
                order.swap(i, j);
            }
            (&order[..attempt], target as f64)
        }
        None => (&order[..n], n as f64),
    };
    if selected.is_empty() {
        return None;
    }
    let mut readings = Vec::with_capacity(selected.len());
    // Expanding the box by the point it starts at changes no bit.
    let first = cands[selected[0]].meta.location;
    let mut bbox = colr_geo::Rect::new(first, first);
    let mut to_probe = Vec::new();
    let mut agg = PartialAgg::empty();
    for &i in selected {
        let Parked { meta, entry, .. } = &cands[i];
        bbox.expand_to_point(&meta.location);
        match entry {
            Some(e) if mode != Mode::RTree && e.reading.is_fresh(now, query.staleness) => {
                agg.insert(e.reading.value);
                readings.push(e.reading);
            }
            _ => to_probe.push(i as u32),
        }
    }
    stats.readings_from_cache += readings.len() as u64;
    crate::flight::with(|f| f.cached_readings(readings.len() as u64));
    let group = GroupResult {
        node: L0_GROUP_NODE,
        bbox,
        agg,
        from_cache: to_probe.is_empty(),
        target,
        results: readings.len() as u64,
    };
    Some(L0Part {
        group,
        readings,
        to_probe,
    })
}

/// One claimant of a split by [`apportion`]: an LSM component here, a shard
/// in the engine's router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// The caller's index for the claimant.
    pub id: usize,
    /// What it claims by: its live weight in the viewport.
    pub weight: f64,
    /// The whole units [`apportion`] handed it.
    pub share: usize,
}

impl Claim {
    /// A claim of `weight` by claimant `id`, nothing handed out yet.
    pub fn new(id: usize, weight: f64) -> Claim {
        let share = 0;
        Claim { id, weight, share }
    }
}

/// Apportions `r` whole units across `claims` in proportion to their
/// weights, writing each claimant's `share` in place — Algorithm 1's
/// proportional split lifted to whole units, across LSM components here and
/// across shards in the engine's router. Each claimant gets the floor of its
/// ideal share; the leftover units are handed out by systematic sampling over
/// the fractional parts from the one uniform `u ∈ [0, 1)`: laid end to end
/// the fractions span `[0, leftover)`, and the claimant whose stretch holds
/// `u + k` takes unit `k`. So a claimant's expected share is exactly its
/// ideal (Theorem 2 survives the split at any `r`, where a largest-remainder
/// rule hands the same claimants the leftover every time), shares sum to `r`,
/// and the result is a function of `(r, claims, u)` — callers take `u` from
/// [`unit_draw`] of a seed derived per query, so a query still replays.
///
/// The ideals are `f64`, exact only up to 2^53, and no population is that
/// large: `r` is capped there, so an absurd target (`SAMPLESIZE 1e30`
/// saturates to `usize::MAX`) can neither overflow the floor sum nor spin
/// the leftover loop.
pub fn apportion(r: usize, claims: &mut [Claim], u: f64) {
    let r = r.min(1 << 53);
    let total: f64 = claims.iter().map(|c| c.weight).sum();
    if total <= 0.0 {
        for (i, c) in claims.iter_mut().enumerate() {
            c.share = if i == 0 { r } else { 0 };
        }
        return;
    }
    let ideal = |c: &Claim| r as f64 * c.weight / total;
    let mut leftover = r;
    for c in claims.iter_mut() {
        c.share = ideal(c).floor() as usize;
        leftover = leftover.saturating_sub(c.share);
    }
    let last = claims.len() - 1;
    let (mut reach, mut next) = (0.0, u);
    for (i, c) in claims.iter_mut().enumerate() {
        let ideal = ideal(c);
        reach += ideal - ideal.floor();
        // The last claimant takes whatever rounding error left unplaced.
        while leftover > 0 && (next < reach || i == last) {
            c.share += 1;
            leftover -= 1;
            next += 1.0;
        }
    }
}

/// The uniform `[0, 1)` value of a 64-bit seed's top 53 bits — how
/// [`apportion`]'s callers turn `derive_seed(base, 0)` into its `u` without
/// consuming a draw of any RNG stream.
pub fn unit_draw(seed: u64) -> f64 {
    (seed >> 11) as f64 / (1u64 << 53) as f64
}

/// splitmix64 finaliser: derives the seed of stream `i` under `seed`, so
/// neighbouring indices get decorrelated streams. The engine's per-query
/// seeds (interactive ordinals, batch indices, shards) and the LSM's
/// per-component and per-merge seeds all come from here.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests;
