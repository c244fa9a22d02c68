//! The two kinds of LSM level: immutable bulk-built COLR-Tree levels with a
//! local↔global id translation boundary, and the small mutable L0 that
//! absorbs registrations the instant they arrive.
//!
//! [`crate::tree::ColrTree::build`] requires dense in-order sensor ids, so
//! every immutable level renumbers its population to local ids `0..n` and
//! keeps the sorted `global` map alongside. Everything that crosses the
//! level boundary — probes going out, readings coming back — is translated
//! by the layered executor's collect step, so the portal's probe service
//! only ever sees global ids and a level tree only ever sees its own local
//! ids.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use parking_lot::RwLock;

use colr_geo::Region;

use crate::lookup::Query;
use crate::reading::{Reading, SensorId, SensorMeta};
use crate::time::Timestamp;
use crate::tree::{CachedEntry, ColrConfig, ColrTree};

/// One immutable LSM level: a bulk-built COLR-Tree over a locally renumbered
/// population, plus the translation map back to global ids and the tombstone
/// mask for sensors retired since the level was built.
pub struct LsmLevel {
    /// Unique, monotone level key (stable across publications; the write-back
    /// router and the directory validate against it).
    key: u64,
    tree: ColrTree,
    /// Local index → global id, ascending (levels are built over populations
    /// sorted by global id).
    global: Vec<SensorId>,
    /// Per-local-sensor tombstone mask. A tombstoned sensor is masked out of
    /// probes (it reads as permanently unavailable) and its cached readings
    /// are purged, so it can never appear in an answer; the merge that next
    /// touches this level drops it physically.
    tombstoned: Box<[AtomicBool]>,
    tombstones: AtomicU64,
    /// Per arena node: its descendant sensors not yet tombstoned.
    live_nodes: Box<[AtomicU32]>,
    /// Per row of the arena's per-kind table: its sensors not yet tombstoned.
    live_rows: Box<[AtomicU32]>,
}

impl LsmLevel {
    /// Builds a level over `metas` (carrying *global* ids, sorted ascending)
    /// by renumbering to the dense local ids the bulk builder requires; its
    /// leaf k-means starts from `seeds` ([`ColrTree::build_seeded`]).
    pub(crate) fn build(
        key: u64,
        metas: &[SensorMeta],
        config: ColrConfig,
        seed: u64,
        seeds: &[(colr_geo::Point, usize)],
    ) -> LsmLevel {
        debug_assert!(
            metas.windows(2).all(|w| w[0].id.0 < w[1].id.0),
            "level populations must be sorted by global id"
        );
        let global: Vec<SensorId> = metas.iter().map(|m| m.id).collect();
        let local: Vec<SensorMeta> = metas
            .iter()
            .enumerate()
            .map(|(j, m)| {
                SensorMeta::new(j as u32, m.location, m.expiry, m.availability).with_kind(m.kind)
            })
            .collect();
        let threads = crate::build::available_cores();
        let tree = ColrTree::build_seeded(local, config, seed, threads, seeds);
        let tombstoned = (0..global.len())
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let arena = tree.sampling_arena();
        let count = |n: u64| AtomicU32::new(n as u32);
        let nodes = 0..arena.node_count();
        let rows = nodes.clone().flat_map(|i| arena.kind_weights(i));
        let live_rows = rows.map(|&(_, n)| count(n)).collect();
        let live_nodes = nodes.map(|i| count(arena.weight(i) as u64)).collect();
        LsmLevel {
            key,
            tree,
            global,
            tombstoned,
            tombstones: AtomicU64::new(0),
            live_nodes,
            live_rows,
        }
    }

    /// The level's unique key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The level's index (local ids).
    pub fn tree(&self) -> &ColrTree {
        &self.tree
    }

    /// Sensors the level was built over (tombstoned included).
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// `true` when the level holds no sensors at all.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// Sensors not yet tombstoned.
    pub fn live(&self) -> usize {
        self.len() - self.tombstones.load(Ordering::Acquire) as usize
    }

    /// Tombstoned sensors awaiting physical removal by a merge.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones.load(Ordering::Acquire)
    }

    /// The global id of local sensor `local`.
    pub fn global_id(&self, local: SensorId) -> SensorId {
        self.global[local.index()]
    }

    /// The local id of global sensor `id`, if this level holds it.
    pub fn local_of(&self, id: SensorId) -> Option<SensorId> {
        self.global
            .binary_search(&id)
            .ok()
            .map(|j| SensorId(j as u32))
    }

    /// `entries` (global ids) in this level's local ids, those of sensors it
    /// does not hold left out — what a merge hands the level it built.
    pub(crate) fn to_local(&self, entries: Vec<CachedEntry>) -> Vec<CachedEntry> {
        let local = |mut e: CachedEntry| {
            e.reading.sensor = self.local_of(e.reading.sensor)?;
            Some(e)
        };
        entries.into_iter().filter_map(local).collect()
    }

    /// `true` when local sensor `local` has been tombstoned.
    pub fn is_tombstoned(&self, local: SensorId) -> bool {
        self.tombstoned[local.index()].load(Ordering::Acquire)
    }

    /// Tombstones local sensor `local`: masks it from probes, then takes it
    /// off its ancestors' live counts and purges its cached reading (from
    /// every ancestor aggregate too). `false` when it was already tombstoned.
    pub(crate) fn tombstone(&self, local: SensorId) -> bool {
        if self.tombstoned[local.index()].swap(true, Ordering::AcqRel) {
            return false;
        }
        self.tombstones.fetch_add(1, Ordering::AcqRel);
        let arena = self.tree.sampling_arena();
        let kind = self.tree.sensor(local).kind;
        let leaf = self.tree.home_leaf(local);
        for id in std::iter::successors(Some(leaf), |&id| arena.parent(id)) {
            self.live_nodes[id.index()].fetch_sub(1, Ordering::AcqRel);
            if let Some(row) = arena.kind_row(id.index(), kind) {
                self.live_rows[row].fetch_sub(1, Ordering::AcqRel);
            }
        }
        self.tree.remove_cached(local);
        true
    }

    /// Purges whichever of `written` — readings (local ids) a write-back
    /// just cached — belong to a sensor tombstoned by now. A retire purges
    /// once, when it sets the mark; a write-back that found the sensor live
    /// in the directory can cache its reading after that purge, and the
    /// sensor would be counted until the level is next merged. So the
    /// write-back looks again after it has written: the retire marks and
    /// then purges under the tree's maintenance lock, the write-back inserts
    /// under that lock and then reads the mark, and whichever comes second
    /// sees the other.
    pub(crate) fn purge_retired(&self, written: impl Iterator<Item = Reading>) {
        // A retire counts itself before it purges, so none counted is none
        // to look for: one load on an index nobody retires from.
        if self.tombstone_count() == 0 {
            return;
        }
        for r in written {
            if self.is_tombstoned(r.sensor) {
                self.tree.remove_cached(r.sensor);
            }
        }
    }

    /// `(live, built)`: the sensors of `kind` (any when `None`) in `region`,
    /// tombstoned ones as built only (the walk still spreads a target over
    /// them). A contained node adds its (kind row's) live count and weight.
    pub(crate) fn count_in(
        &self,
        region: &Region,
        kind: Option<u16>,
        stack: &mut Vec<u32>,
        class: &mut Vec<u8>,
    ) -> (u64, u64) {
        let (mut live, mut built, mut dead) = (0, 0, 0);
        if self.global.is_empty() {
            return (live, built);
        }
        let arena = self.tree.sampling_arena();
        let counts = kind.map_or(&self.live_nodes, |_| &self.live_rows);
        let (mut points, retired) = (0, self.tombstone_count() > 0);
        let whole = |idx: usize| {
            let row = kind.map_or(Some(idx), |k| arena.kind_row(idx, k));
            if let Some(row) = row {
                live += counts[row].load(Ordering::Acquire) as u64;
                built += kind.map_or(arena.weight(idx) as u64, |k| arena.kind_weight(idx, k));
            }
        };
        let point = |j: usize| {
            points += 1;
            dead += u64::from(retired && self.is_tombstoned(arena.sensor(j)));
        };
        arena.descend(region, kind, stack, class, whole, point);
        (live + points - dead, built + points)
    }

    /// Whether a query reaches the level: its region overlaps the root box,
    /// which holds a sensor of the kind asked.
    pub(crate) fn reaches(&self, region: &Region, kind: Option<u16>) -> bool {
        let root = self.tree.node(self.tree.root());
        kind.map_or(root.weight, |k| root.weight_of_kind(k)) > 0
            && region.overlap_fraction(&root.bbox) > 0.0
    }

    /// Reconstructs the *global* meta of local sensor `local`.
    pub fn global_meta(&self, local: usize) -> SensorMeta {
        let m = self.tree.sensors()[local];
        SensorMeta::new(self.global[local].0, m.location, m.expiry, m.availability)
            .with_kind(m.kind)
    }

    /// Visits the location of every live (non-tombstoned) sensor, by
    /// ascending local index.
    pub(crate) fn for_each_live_location(&self, visit: &mut impl FnMut(colr_geo::Point)) {
        for (meta, dead) in self.tree.sensors().iter().zip(self.tombstoned.iter()) {
            if !dead.load(Ordering::Acquire) {
                visit(meta.location);
            }
        }
    }

    /// The level's cached readings translated to global ids, for merge
    /// carry-over (the LSM analogue of what
    /// [`crate::tree::ColrTree::cached_entries`] feeds `restore_entries`).
    pub(crate) fn cached_entries_global(&self) -> Vec<CachedEntry> {
        self.tree
            .cached_entries()
            .into_iter()
            .map(|mut e| {
                e.reading.sensor = self.global_id(e.reading.sensor);
                e
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// L0
// ---------------------------------------------------------------------------

/// The mutable top level: a flat, append-ordered list of freshly registered
/// sensors (global ids) with a per-sensor reading cache. Registration is one
/// push under a short write lock — O(1), immediately visible to queries —
/// and the level stays small: every merge drains the prefix that existed
/// when the merge began into a bulk-built immutable level.
///
/// A sensor is addressed by its *position*, the index its registration was
/// pushed at: the LSM directory records it, retires and write-backs name it,
/// and a merge's batch is the prefix of positions below the length it cut.
/// Positions hold for the life of this `L0Level`; a merge publishes a new
/// one holding the suffix it did not take.
pub struct L0Level {
    inner: RwLock<L0Inner>,
    /// `inner.sensors.len()`, stored by every push under the write lock, so
    /// [`L0Level::len`] reads it without taking the read lock.
    len: AtomicUsize,
}

/// One live L0 sensor as a query or a merge sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parked {
    /// Its position in the L0 it was read from.
    pub(crate) pos: u32,
    pub(crate) meta: SensorMeta,
    /// Its cached reading when it was read.
    pub(crate) entry: Option<CachedEntry>,
}

/// What a merge's publication needs from the L0 it cut: see
/// [`L0Level::after_cut`].
pub(crate) struct AfterCut {
    /// The live suffix registered while the merge was building, in
    /// registration order, with its cached readings: the next L0.
    pub(crate) rest: Vec<(SensorMeta, Option<CachedEntry>)>,
    /// The suffix's retired sensors (global ids), dropped physically.
    pub(crate) dropped: Vec<u32>,
}

struct L0Inner {
    /// Registration order; global ids. Append-only between merges.
    sensors: Vec<SensorMeta>,
    /// Parallel to `sensors`: retired while parked here.
    tombstoned: Vec<bool>,
    /// How many of `tombstoned` are set.
    tombstones: usize,
    /// Parallel to `sensors`: the cached reading (L0 is flat: no slot
    /// aggregates, just the raw-reading cache the merge carries into the
    /// built level). A retired sensor's is cleared and stays clear.
    entries: Vec<Option<CachedEntry>>,
    /// No cached reading expires before this instant (a lower bound: a
    /// removal may leave it early), so until `now` reaches it
    /// [`L0Level::advance`] has nothing to drop.
    earliest_expiry: Timestamp,
}

/// The first instant at which one of `entries` stops being live.
fn earliest_expiry<'a>(entries: impl Iterator<Item = &'a Option<CachedEntry>>) -> Timestamp {
    entries
        .flatten()
        .map(|e| e.reading.expires_at)
        .min()
        .unwrap_or(Timestamp(u64::MAX))
}

impl L0Inner {
    /// The live sensors at positions `range`, with their cached readings.
    fn parked(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = Parked> + '_ {
        range
            .filter(|&pos| !self.tombstoned[pos])
            .map(|pos| Parked {
                pos: pos as u32,
                meta: self.sensors[pos],
                entry: self.entries[pos],
            })
    }
}

impl L0Level {
    pub(crate) fn new() -> L0Level {
        L0Level::with_contents(Vec::new())
    }

    /// An L0 holding `parked`, live, in the order given.
    pub(crate) fn with_contents(parked: Vec<(SensorMeta, Option<CachedEntry>)>) -> L0Level {
        let (sensors, entries): (Vec<_>, Vec<_>) = parked.into_iter().unzip();
        L0Level {
            len: AtomicUsize::new(sensors.len()),
            inner: RwLock::new(L0Inner {
                tombstoned: vec![false; sensors.len()],
                tombstones: 0,
                earliest_expiry: earliest_expiry(entries.iter()),
                sensors,
                entries,
            }),
        }
    }

    /// Appends a freshly registered sensor — the O(1) ingestion path.
    /// Returns its position.
    pub(crate) fn push(&self, meta: SensorMeta) -> u32 {
        let mut inner = self.inner.write();
        inner.sensors.push(meta);
        inner.tombstoned.push(false);
        inner.entries.push(None);
        self.len.store(inner.sensors.len(), Ordering::Release);
        (inner.sensors.len() - 1) as u32
    }

    /// Sensors currently parked in L0 (tombstoned included), read without
    /// a lock: a push that has not returned yet may or may not be counted.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// `true` when L0 holds no sensors.
    pub fn is_empty(&self) -> bool {
        self.inner.read().sensors.is_empty()
    }

    /// Live (non-tombstoned) sensors in L0.
    pub fn live(&self) -> usize {
        let inner = self.inner.read();
        inner.sensors.len() - inner.tombstones
    }

    pub(crate) fn tombstone_count(&self) -> usize {
        self.inner.read().tombstones
    }

    /// Retires the sensor at position `pos`. Returns `false` when there is
    /// none or it is already retired.
    pub(crate) fn tombstone(&self, pos: u32) -> bool {
        let mut inner = self.inner.write();
        let pos = pos as usize;
        if inner.tombstoned.get(pos) != Some(&false) {
            return false;
        }
        inner.tombstoned[pos] = true;
        inner.tombstones += 1;
        inner.entries[pos] = None;
        true
    }

    /// Live sensors matching the query's spatial + kind predicates, each
    /// with its cached reading (if any) — the L0 candidate scan. Taken under
    /// one read lock so a query sees a consistent L0 cut; probing happens
    /// after the lock is released.
    pub(crate) fn candidates(&self, query: &Query) -> Vec<Parked> {
        let inner = self.inner.read();
        let parked = inner.parked(0..inner.sensors.len());
        parked.filter(|p| query.matches_sensor(&p.meta)).collect()
    }

    /// [`LsmLevel::count_in`]'s live count for L0, under the read lock.
    pub(crate) fn count_in(&self, region: &Region, kind: Option<u16>) -> u64 {
        let inner = self.inner.read();
        let live = inner.sensors.iter().zip(&inner.tombstoned);
        live.filter(|&(m, &dead)| !dead && m.is_in(region, kind))
            .count() as u64
    }

    /// Visits the location of every live sensor in registration order, under
    /// the read lock.
    pub(crate) fn for_each_live_location(&self, visit: &mut impl FnMut(colr_geo::Point)) {
        let inner = self.inner.read();
        for (meta, &dead) in inner.sensors.iter().zip(&inner.tombstoned) {
            if !dead {
                visit(meta.location);
            }
        }
    }

    /// Every live sensor with its cached reading — the frozen-batch snapshot.
    pub(crate) fn snapshot(&self) -> Vec<Parked> {
        let inner = self.inner.read();
        inner.parked(0..inner.sensors.len()).collect()
    }

    /// A merge's cut: the length of L0 now, the live sensors below it with
    /// their cached readings (the batch), and the retired ones (global ids,
    /// dropped physically by the merge).
    pub(crate) fn cut(&self) -> (usize, Vec<Parked>, Vec<u32>) {
        let inner = self.inner.read();
        let cut = inner.sensors.len();
        let dead = (0..cut).filter(|&pos| inner.tombstoned[pos]);
        let dropped = dead.map(|pos| inner.sensors[pos].id.0).collect();
        (cut, inner.parked(0..cut).collect(), dropped)
    }

    /// Caches freshly probed readings (write-back), each at the position it
    /// was asked from, where that position still holds the reading's sensor
    /// live. Returns how many were cached.
    pub(crate) fn insert_readings(
        &self,
        got: impl Iterator<Item = (u32, Reading)>,
        fetched_at: Timestamp,
    ) -> usize {
        let mut got = got.peekable();
        if got.peek().is_none() {
            return 0;
        }
        let mut inner = self.inner.write();
        let mut inserted = 0;
        for (pos, reading) in got {
            let pos = pos as usize;
            let here = inner.sensors.get(pos).map(|m| m.id);
            if here != Some(reading.sensor) || inner.tombstoned[pos] {
                continue;
            }
            inner.earliest_expiry = inner.earliest_expiry.min(reading.expires_at);
            inner.entries[pos] = Some(CachedEntry {
                reading,
                fetched_at,
            });
            inserted += 1;
        }
        inserted
    }

    /// Drops expired cached readings (the flat analogue of the tree's slot
    /// roll at [`crate::tree::ColrTree::advance`]). Every query calls this;
    /// while nothing has expired it is one look under the read lock.
    pub(crate) fn advance(&self, now: Timestamp) {
        if self.inner.read().earliest_expiry > now {
            return;
        }
        let mut inner = self.inner.write();
        for entry in inner.entries.iter_mut() {
            if entry.is_some_and(|e| !e.reading.is_live(now)) {
                *entry = None;
            }
        }
        inner.earliest_expiry = earliest_expiry(inner.entries.iter());
    }

    /// What a merge that cut this L0 at length `cut` publishes beside its
    /// level: the suffix registered meanwhile — live sensors to park in the
    /// next L0, retired ones to drop. Called by the merge while it holds the
    /// publication write lock, so no registration or retire can race it.
    /// This L0 itself is left as it was: a query that took the outgoing cut
    /// just before publication still finds the merged sensors here, beside
    /// the levels that do not hold them yet.
    pub(crate) fn after_cut(&self, cut: usize) -> AfterCut {
        let inner = self.inner.read();
        let suffix = cut..inner.sensors.len();
        let rest = inner.parked(suffix.clone()).map(|p| (p.meta, p.entry));
        let dead = suffix.filter(|&pos| inner.tombstoned[pos]);
        AfterCut {
            rest: rest.collect(),
            dropped: dead.map(|pos| inner.sensors[pos].id.0).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LsmLevel {
        /// Every live (non-tombstoned) sensor with its global id, ascending.
        pub(crate) fn live_global_metas(&self) -> Vec<SensorMeta> {
            (0..self.len())
                .filter(|&j| !self.tombstoned[j].load(Ordering::Acquire))
                .map(|j| self.global_meta(j))
                .collect()
        }

        /// The live counts a tombstone keeps per node and per kind row, for
        /// a recount to check.
        pub(crate) fn live_counts(&self) -> (Vec<u32>, Vec<u32>) {
            let read = |c: &[AtomicU32]| c.iter().map(|n| n.load(Ordering::Acquire)).collect();
            (read(&self.live_nodes), read(&self.live_rows))
        }
    }
}
