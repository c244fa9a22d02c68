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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::RwLock;

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
}

impl LsmLevel {
    /// Builds a level over `metas` (carrying *global* ids, sorted ascending)
    /// by renumbering to the dense local ids the bulk builder requires.
    pub(crate) fn build(key: u64, metas: &[SensorMeta], config: ColrConfig, seed: u64) -> LsmLevel {
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
        let tree = ColrTree::build(local, config, seed);
        let tombstoned = (0..global.len())
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LsmLevel {
            key,
            tree,
            global,
            tombstoned,
            tombstones: AtomicU64::new(0),
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

    /// `true` when local sensor `local` has been tombstoned.
    pub fn is_tombstoned(&self, local: SensorId) -> bool {
        self.tombstoned[local.index()].load(Ordering::Acquire)
    }

    /// Tombstones local sensor `local`: masks it from probes, purges its
    /// cached reading (updating every ancestor aggregate, so slot caches
    /// never serve it again), and decrements the live weight. Returns `false`
    /// when it was already tombstoned.
    pub(crate) fn tombstone(&self, local: SensorId) -> bool {
        if self.tombstoned[local.index()].swap(true, Ordering::AcqRel) {
            return false;
        }
        self.tombstones.fetch_add(1, Ordering::AcqRel);
        self.tree.remove_cached(local);
        true
    }

    /// Purges whichever of `written` — readings (local ids) a query just
    /// wrote back, or read from the raw cache — belong to a sensor tombstoned
    /// by now. A retire purges once, when it sets the mark; a query that
    /// selected the sensor while it was live can cache its reading after that
    /// purge, and the sensor would be counted until the level is next
    /// merged. So the write-back looks again after it has written: the retire
    /// marks and then purges under the tree's maintenance lock, the query
    /// inserts under that lock and then reads the mark, and whichever comes
    /// second sees the other.
    pub(crate) fn purge_retired(&self, written: &[Reading]) {
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

    /// Fraction of the built population still live (1.0 for a fresh level).
    pub fn live_fraction(&self) -> f64 {
        if self.global.is_empty() {
            return 0.0;
        }
        self.live() as f64 / self.len() as f64
    }

    /// The level's Algorithm 1 split weight for a query: the root's
    /// (kind-filtered) sensor weight, discounted by the live fraction (node
    /// weights inside the tree still count tombstoned sensors until the next
    /// merge, so the layered executor scales the level's sub-target back up
    /// by the same fraction) and scaled by the viewport overlap, exactly as
    /// the shard router weighs its shards.
    pub fn query_weight(&self, region: &colr_geo::Region, kind_filter: Option<u16>) -> f64 {
        if self.global.is_empty() {
            return 0.0;
        }
        let root = self.tree.node(self.tree.root());
        root.query_weight(kind_filter) as f64
            * self.live_fraction()
            * region.overlap_fraction(&root.bbox)
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

    /// Every live (non-tombstoned) sensor with its global id, ascending.
    pub(crate) fn live_global_metas(&self) -> Vec<SensorMeta> {
        (0..self.len())
            .filter(|&j| !self.tombstoned[j].load(Ordering::Acquire))
            .map(|j| self.global_meta(j))
            .collect()
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
pub struct L0Level {
    inner: RwLock<L0Inner>,
}

struct L0Inner {
    /// Registration order; global ids. Append-only between merges.
    sensors: Vec<SensorMeta>,
    /// The ids in `sensors`, for membership without a scan.
    ids: HashSet<u32>,
    /// Global ids retired while still in L0.
    tombstoned: HashSet<u32>,
    /// Cached readings by global id (L0 is flat: no slot aggregates, just
    /// the raw-reading cache the merge carries into the built level).
    entries: HashMap<u32, CachedEntry>,
    /// No cached reading expires before this instant (a lower bound: a
    /// removal may leave it early), so until `now` reaches it
    /// [`L0Level::advance`] has nothing to drop.
    earliest_expiry: Timestamp,
}

/// The first instant at which one of `entries` stops being live.
fn earliest_expiry<'a>(entries: impl Iterator<Item = &'a CachedEntry>) -> Timestamp {
    entries
        .map(|e| e.reading.expires_at)
        .min()
        .unwrap_or(Timestamp(u64::MAX))
}

impl L0Level {
    pub(crate) fn new() -> L0Level {
        L0Level::with_contents(Vec::new(), Vec::new())
    }

    pub(crate) fn with_contents(sensors: Vec<SensorMeta>, entries: Vec<CachedEntry>) -> L0Level {
        let earliest_expiry = earliest_expiry(entries.iter());
        let entries = entries
            .into_iter()
            .map(|e| (e.reading.sensor.0, e))
            .collect();
        L0Level {
            inner: RwLock::new(L0Inner {
                ids: sensors.iter().map(|m| m.id.0).collect(),
                sensors,
                tombstoned: HashSet::new(),
                entries,
                earliest_expiry,
            }),
        }
    }

    /// Appends a freshly registered sensor — the O(1) ingestion path.
    pub(crate) fn push(&self, meta: SensorMeta) {
        let mut inner = self.inner.write();
        inner.ids.insert(meta.id.0);
        inner.sensors.push(meta);
    }

    /// Sensors currently parked in L0 (tombstoned included).
    pub fn len(&self) -> usize {
        self.inner.read().sensors.len()
    }

    /// `true` when L0 holds no sensors.
    pub fn is_empty(&self) -> bool {
        self.inner.read().sensors.is_empty()
    }

    /// Live (non-tombstoned) sensors in L0.
    pub fn live(&self) -> usize {
        let inner = self.inner.read();
        inner.sensors.len() - inner.tombstoned.len()
    }

    pub(crate) fn tombstone_count(&self) -> usize {
        self.inner.read().tombstoned.len()
    }

    /// Retires global sensor `id` while it is still in L0. Returns `false`
    /// when the sensor is not here or already retired.
    pub(crate) fn tombstone(&self, id: SensorId) -> bool {
        let mut inner = self.inner.write();
        if !inner.ids.contains(&id.0) || !inner.tombstoned.insert(id.0) {
            return false;
        }
        inner.entries.remove(&id.0);
        true
    }

    /// Live sensors matching the query's spatial + kind predicates, each
    /// with its cached reading (if any) — the L0 candidate scan. Taken under
    /// one read lock so a query sees a consistent L0 cut; probing happens
    /// after the lock is released.
    pub(crate) fn candidates(&self, query: &Query) -> Vec<(SensorMeta, Option<CachedEntry>)> {
        let inner = self.inner.read();
        inner
            .sensors
            .iter()
            .filter(|m| !inner.tombstoned.contains(&m.id.0) && query.matches_sensor(m))
            .map(|m| (*m, inner.entries.get(&m.id.0).copied()))
            .collect()
    }

    /// How many live sensors match the spatial + kind predicates — what the
    /// shard router weighs L0 by, counted in place under the read lock.
    pub(crate) fn count_matching(
        &self,
        region: &colr_geo::Region,
        kind_filter: Option<u16>,
    ) -> usize {
        let inner = self.inner.read();
        inner
            .sensors
            .iter()
            .filter(|m| {
                !inner.tombstoned.contains(&m.id.0)
                    && kind_filter.is_none_or(|k| m.kind == k)
                    && region.contains_point(&m.location)
            })
            .count()
    }

    /// Visits the location of every live sensor in registration order, under
    /// the read lock.
    pub(crate) fn for_each_live_location(&self, visit: &mut impl FnMut(colr_geo::Point)) {
        let inner = self.inner.read();
        for meta in &inner.sensors {
            if !inner.tombstoned.contains(&meta.id.0) {
                visit(meta.location);
            }
        }
    }

    /// Every live sensor with its cached reading — the frozen-batch snapshot
    /// and the merge input.
    pub(crate) fn snapshot(&self) -> Vec<(SensorMeta, Option<CachedEntry>)> {
        let inner = self.inner.read();
        inner
            .sensors
            .iter()
            .filter(|m| !inner.tombstoned.contains(&m.id.0))
            .map(|m| (*m, inner.entries.get(&m.id.0).copied()))
            .collect()
    }

    /// Caches a freshly probed reading (write-back) if the sensor is still
    /// live in L0. Returns how many entries were inserted.
    pub(crate) fn insert_reading(&self, reading: Reading, fetched_at: Timestamp) -> usize {
        let mut inner = self.inner.write();
        let id = reading.sensor.0;
        if inner.tombstoned.contains(&id) || !inner.ids.contains(&id) {
            return 0;
        }
        inner.earliest_expiry = inner.earliest_expiry.min(reading.expires_at);
        inner.entries.insert(
            id,
            CachedEntry {
                reading,
                fetched_at,
            },
        );
        1
    }

    /// Drops expired cached readings (the flat analogue of the tree's slot
    /// roll at [`crate::tree::ColrTree::advance`]). Every query calls this;
    /// while nothing has expired it is one look under the read lock.
    pub(crate) fn advance(&self, now: Timestamp) {
        if self.inner.read().earliest_expiry > now {
            return;
        }
        let mut inner = self.inner.write();
        inner.entries.retain(|_, e| e.reading.is_live(now));
        inner.earliest_expiry = earliest_expiry(inner.entries.values());
    }

    /// Global ids retired while parked in L0 — physically dropped (not
    /// carried anywhere) by the merge that drains them.
    pub(crate) fn tombstoned_ids(&self) -> Vec<u32> {
        self.inner.read().tombstoned.iter().copied().collect()
    }

    /// What stays parked once the sensors in `merged` live in a built level:
    /// every other live sensor — the suffix registered while the merge was
    /// building — with its cached reading. Called by the merge while it holds
    /// the publication write lock, so no registration can race the
    /// partition. This L0 itself is left as it was: a query that took the
    /// outgoing cut just before publication still finds the merged sensors
    /// here, beside the levels that do not hold them yet.
    pub(crate) fn unmerged(&self, merged: &HashSet<u32>) -> (Vec<SensorMeta>, Vec<CachedEntry>) {
        let inner = self.inner.read();
        let mut rest = Vec::new();
        let mut rest_entries = Vec::new();
        for m in &inner.sensors {
            if merged.contains(&m.id.0) || inner.tombstoned.contains(&m.id.0) {
                continue;
            }
            rest.push(*m);
            if let Some(e) = inner.entries.get(&m.id.0) {
                rest_entries.push(*e);
            }
        }
        (rest, rest_entries)
    }
}
