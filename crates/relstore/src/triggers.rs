//! The four cache-maintenance triggers (Section VI-B).
//!
//! The paper maintains the slot caches with SQL triggers that fire after
//! insertions into the leaf cache level:
//!
//! * **roll** — advances the window in slot increments and expunges every
//!   slot the window slides over, at all levels;
//! * **slot insert** — folds a new reading into its leaf cache slot;
//! * **slot delete** — handles deletions (slot rolls, capacity evictions) by
//!   refreshing the affected leaf slot;
//! * **slot update** — the only trigger on cache tables above the leaf:
//!   propagates a changed slot to the parent's cache table, cascading to the
//!   root.
//!
//! Here the triggers consume the store's change-event queue. Parent slots
//! are *recomputed* from the children's rows rather than incremented — the
//! conservative variant the paper itself requires for non-decrementable
//! aggregates (min/max), applied uniformly for simplicity.

use colr_tree::{PartialAgg, Timestamp};

use crate::schema::{RelationalColrTree, CACHE_COLS};
use crate::store::Value;
use crate::store::{ChangeEvent, RowId};

/// A cache-table row's aggregate payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CacheRow {
    pub cnt: i64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub min_ts: i64,
}

impl CacheRow {
    pub(crate) fn from_row(row: &[Value]) -> CacheRow {
        CacheRow {
            cnt: row[3].int(),
            sum: row[4].float(),
            min: row[5].float(),
            max: row[6].float(),
            min_ts: row[8].int(),
        }
    }

    fn merge(self, r: CacheRow) -> CacheRow {
        CacheRow {
            cnt: self.cnt + r.cnt,
            sum: self.sum + r.sum,
            min: self.min.min(r.min),
            max: self.max.max(r.max),
            min_ts: self.min_ts.min(r.min_ts),
        }
    }

    fn from_value(v: f64, ts: i64) -> CacheRow {
        CacheRow {
            cnt: 1,
            sum: v,
            min: v,
            max: v,
            min_ts: ts,
        }
    }

    fn to_row(self, node: i64, slot: i64, kind: i64) -> Vec<Value> {
        vec![
            node.into(),
            slot.into(),
            kind.into(),
            self.cnt.into(),
            self.sum.into(),
            self.min.into(),
            self.max.into(),
            self.cnt.into(), // value_weight
            self.min_ts.into(),
        ]
    }

    /// As a [`PartialAgg`] (for parity checks against the native tree).
    pub(crate) fn as_agg(&self) -> PartialAgg {
        PartialAgg {
            count: self.cnt as u64,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

impl RelationalColrTree {
    /// Runs the trigger cascade until the event queue drains, then enforces
    /// the cache-size constraint (which may enqueue and drain more events).
    pub fn run_triggers(&mut self, now: Timestamp) {
        self.roll_trigger(now);
        loop {
            self.drain_events();
            if !self.enforce_capacity() {
                break;
            }
        }
    }

    /// **Roll trigger**: advances the window to cover `now`, expunging the
    /// slots slid over at every level and the raw readings they held.
    pub fn roll_trigger(&mut self, now: Timestamp) {
        let new_base = self.slot_of(now);
        if new_base <= self.base_slot {
            return;
        }
        self.base_slot = new_base;
        // Whole-slot expiry is globally aligned: drop the rows directly at
        // every level — no bottom-up propagation is needed because every
        // level loses exactly the same slots.
        for level in 0..self.cache_t.len() {
            let t = self.cache_t[level];
            let slot_col = self.store.table(t).col("slot_id");
            let stale: Vec<RowId> = self
                .store
                .table(t)
                .scan()
                .filter(|(_, row)| (row[slot_col].int() as u64) < new_base)
                .map(|(rid, _)| rid)
                .collect();
            for rid in stale {
                self.store.table_mut(t).delete(rid);
            }
        }
        let slot_col = self.store.table(self.reading_t).col("slot_id");
        let dead: Vec<RowId> = self
            .store
            .table(self.reading_t)
            .scan()
            .filter(|(_, row)| (row[slot_col].int() as u64) < new_base)
            .map(|(rid, _)| rid)
            .collect();
        for rid in dead {
            self.store.table_mut(self.reading_t).delete(rid);
        }
    }

    /// Dispatches pending change events to the slot insert / delete / update
    /// triggers until the queue is empty.
    fn drain_events(&mut self) {
        while let Some(ev) = self.store.events.pop_front() {
            match ev {
                // Slot insert trigger: a reading arrived at the leaf cache
                // level.
                ChangeEvent::Inserted(t, rid) if t == self.reading_t => {
                    let row = match self.store.table(t).get(rid) {
                        Some(r) => r,
                        None => continue, // already expunged by a later roll
                    };
                    let leaf = row[6].int();
                    let slot = row[5].int();
                    self.refresh_leaf_slot(leaf, slot);
                }
                // Slot delete trigger: a reading left the leaf cache level.
                ChangeEvent::Deleted(t, old) if t == self.reading_t => {
                    let leaf = old[6].int();
                    let slot = old[5].int();
                    self.refresh_leaf_slot(leaf, slot);
                }
                ChangeEvent::Updated(t, _) if t == self.reading_t => {
                    // Readings are replaced by delete+insert, never updated
                    // in place.
                }
                // Slot update trigger: a cache row changed somewhere; refresh
                // the parent's row for the same slot.
                ChangeEvent::Inserted(t, rid) | ChangeEvent::Updated(t, rid) => {
                    if let Some(level) = self.cache_level_of(t) {
                        if let Some(row) = self.store.table(t).get(rid) {
                            let node = row[0].int();
                            let slot = row[1].int();
                            self.propagate_to_parent(level, node, slot);
                        }
                    }
                }
                ChangeEvent::Deleted(t, old) => {
                    if let Some(level) = self.cache_level_of(t) {
                        let node = old[0].int();
                        let slot = old[1].int();
                        self.propagate_to_parent(level, node, slot);
                    }
                }
            }
        }
    }

    fn cache_level_of(&self, t: crate::store::TableId) -> Option<u16> {
        self.cache_t.iter().position(|&c| c == t).map(|l| l as u16)
    }

    /// Recomputes one leaf cache slot from the reading table: one cache row
    /// per sensor type present in the slot.
    fn refresh_leaf_slot(&mut self, leaf: i64, slot: i64) {
        let t = self.store.table(self.reading_t);
        let leaf_col = t.col("leaf_node");
        let slot_col = t.col("slot_id");
        let kind_col = t.col("kind");
        let mut per_kind: std::collections::BTreeMap<i64, CacheRow> = Default::default();
        for rid in t.find(leaf_col, leaf) {
            let row = self.store.table(self.reading_t).get(rid).expect("live row");
            if row[slot_col].int() != slot {
                continue;
            }
            let v = row[1].float();
            let ts = row[2].int();
            let kind = row[kind_col].int();
            per_kind
                .entry(kind)
                .and_modify(|a| *a = a.merge(CacheRow::from_value(v, ts)))
                .or_insert_with(|| CacheRow::from_value(v, ts));
        }
        self.upsert_cache(self.leaf_level, leaf, slot, per_kind);
    }

    /// Recomputes the parent's cache row for `slot` from all of the parent's
    /// children at `level`, then upserts it one level up (cascading).
    fn propagate_to_parent(&mut self, level: u16, node: i64, slot: i64) {
        if level == 0 {
            return;
        }
        let Some(parent) = self.parent_of(node, level) else {
            return;
        };
        // Children of the parent, from the layer table one level up.
        let layer = self.store.table(self.layer_t[(level - 1) as usize]);
        let node_col = layer.col("node_id");
        let children: Vec<i64> = layer
            .find(node_col, parent)
            .into_iter()
            .map(|rid| layer.get(rid).expect("live row")[1].int())
            .collect();

        let cache = self.store.table(self.cache_t[level as usize]);
        let cnode_col = cache.col("node_id");
        let cslot_col = cache.col("slot_id");
        let ckind_col = cache.col("kind");
        let mut per_kind: std::collections::BTreeMap<i64, CacheRow> = Default::default();
        for child in children {
            for rid in cache.find(cnode_col, child) {
                let row = cache.get(rid).expect("live row");
                if row[cslot_col].int() != slot {
                    continue;
                }
                let kind = row[ckind_col].int();
                let r = CacheRow::from_row(row);
                per_kind
                    .entry(kind)
                    .and_modify(|a| *a = a.merge(r))
                    .or_insert(r);
            }
        }
        self.upsert_cache(level - 1, parent, slot, per_kind);
    }

    /// Reconciles the cache rows for `(node, slot)` at `level` against the
    /// recomputed per-type aggregates: inserts new kinds, updates changed
    /// ones, deletes vanished ones — logging one change event per mutation.
    fn upsert_cache(
        &mut self,
        level: u16,
        node: i64,
        slot: i64,
        mut per_kind: std::collections::BTreeMap<i64, CacheRow>,
    ) {
        let t = self.cache_t[level as usize];
        let table = self.store.table(t);
        let node_col = table.col("node_id");
        let slot_col = table.col("slot_id");
        let kind_col = table.col("kind");
        let existing: Vec<(RowId, i64, CacheRow)> = table
            .find(node_col, node)
            .into_iter()
            .filter_map(|rid| {
                let row = table.get(rid)?;
                (row[slot_col].int() == slot)
                    .then(|| (rid, row[kind_col].int(), CacheRow::from_row(row)))
            })
            .collect();

        for (rid, kind, old) in existing {
            match per_kind.remove(&kind) {
                None => {
                    self.store.delete(t, rid);
                }
                Some(new) => {
                    if old != new {
                        // Update every value column in place, then log one
                        // event for the slot-update trigger.
                        let row = new.to_row(node, slot, kind);
                        let table = self.store.table_mut(t);
                        for (col, val) in row.into_iter().enumerate().skip(3) {
                            table.update(rid, col, val);
                        }
                        self.store.events.push_back(ChangeEvent::Updated(t, rid));
                    }
                }
            }
        }
        for (kind, a) in per_kind {
            self.store.insert(t, a.to_row(node, slot, kind));
        }
    }

    /// Enforces the cache-size constraint by evicting the least recently
    /// fetched reading from the oldest slot. Returns `true` when anything
    /// was evicted (more trigger events are then pending).
    fn enforce_capacity(&mut self) -> bool {
        let Some(cap) = self.cache_capacity else {
            return false;
        };
        let mut evicted = false;
        while self.store.table(self.reading_t).len() > cap {
            let t = self.store.table(self.reading_t);
            let slot_col = t.col("slot_id");
            let fetched_col = t.col("fetched_at");
            let victim = t
                .scan()
                .min_by_key(|(_, row)| (row[slot_col].int(), row[fetched_col].int()))
                .map(|(rid, _)| rid);
            match victim {
                Some(rid) => {
                    self.store.delete(self.reading_t, rid);
                    evicted = true;
                }
                None => break,
            }
        }
        evicted
    }

    /// Reads the total (all sensor types combined) cache aggregate for
    /// `(node, slot)` at `level`, if any rows exist (test and parity-check
    /// helper).
    pub(crate) fn cache_row(&self, level: u16, node: i64, slot: i64) -> Option<CacheRow> {
        let t = self.store.table(self.cache_t[level as usize]);
        let node_col = t.col("node_id");
        let slot_col = t.col("slot_id");
        t.find(node_col, node)
            .into_iter()
            .filter_map(|rid| t.get(rid))
            .filter(|row| row[slot_col].int() == slot)
            .map(CacheRow::from_row)
            .reduce(CacheRow::merge)
    }

    /// Reads the cache aggregate of one sensor type for `(node, slot)`.
    pub(crate) fn cache_row_of_kind(
        &self,
        level: u16,
        node: i64,
        slot: i64,
        kind: i64,
    ) -> Option<CacheRow> {
        let t = self.store.table(self.cache_t[level as usize]);
        let node_col = t.col("node_id");
        let slot_col = t.col("slot_id");
        let kind_col = t.col("kind");
        t.find(node_col, node)
            .into_iter()
            .filter_map(|rid| t.get(rid))
            .find(|row| row[slot_col].int() == slot && row[kind_col].int() == kind)
            .map(CacheRow::from_row)
    }

    /// Public parity accessor: the cache-table aggregate for `(node, slot)`
    /// at `level` across all sensor types, as a [`PartialAgg`].
    pub fn cache_row_agg(&self, level: u16, node: i64, slot: i64) -> Option<PartialAgg> {
        self.cache_row(level, node, slot).map(|r| r.as_agg())
    }

    /// Public parity accessor: one sensor type's cache aggregate for
    /// `(node, slot)` at `level`.
    pub fn cache_row_agg_of_kind(
        &self,
        level: u16,
        node: i64,
        slot: i64,
        kind: i64,
    ) -> Option<PartialAgg> {
        self.cache_row_of_kind(level, node, slot, kind)
            .map(|r| r.as_agg())
    }

    /// Total cache rows across all levels (diagnostics).
    pub fn total_cache_rows(&self) -> usize {
        self.cache_t
            .iter()
            .map(|&t| self.store.table(t).len())
            .sum()
    }

    /// Validates the layered invariant: every cache row above the leaf level
    /// equals the merge of its children's rows for the same slot.
    pub fn validate_cache_consistency(&self) -> Result<(), String> {
        let _ = CACHE_COLS; // layout documented there
        for level in (1..=self.leaf_level).rev() {
            let t = self.store.table(self.cache_t[(level - 1) as usize]);
            for (_, row) in t.scan() {
                let node = row[0].int();
                let slot = row[1].int();
                let kind = row[2].int();
                let stored = CacheRow::from_row(row);
                // Recompute this type's aggregate from the children.
                let layer = self.store.table(self.layer_t[(level - 1) as usize]);
                let node_col = layer.col("node_id");
                let mut agg: Option<CacheRow> = None;
                for rid in layer.find(node_col, node) {
                    let child = layer.get(rid).expect("live")[1].int();
                    if let Some(r) = self.cache_row_of_kind(level, child, slot, kind) {
                        agg = Some(match agg {
                            None => r,
                            Some(a) => a.merge(r),
                        });
                    }
                }
                match agg {
                    Some(a) if a.cnt == stored.cnt && (a.sum - stored.sum).abs() < 1e-9 => {}
                    other => {
                        return Err(format!(
                            "cache row (level {level}-1, node {node}, slot {slot}, kind {kind}) = \
                             {stored:?} but children give {other:?}"
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colr_geo::Point;
    use colr_tree::{ColrConfig, ColrTree, Reading, SensorId, SensorMeta, TimeDelta};

    const EXPIRY_MS: u64 = 300_000;

    fn tree(cache_capacity: Option<usize>) -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..64)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % 8) as f64, (i / 8) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
            })
            .collect();
        let config = ColrConfig {
            cache_capacity,
            ..Default::default()
        };
        ColrTree::build(sensors, config, 7)
    }

    fn reading(sensor: u32, value: f64, ts: u64) -> Reading {
        Reading {
            sensor: SensorId(sensor),
            value,
            timestamp: Timestamp(ts),
            expires_at: Timestamp(ts + EXPIRY_MS),
        }
    }

    #[test]
    fn insert_propagates_to_root() {
        let native = tree(None);
        let mut rel = RelationalColrTree::from_tree(&native);
        let r = reading(5, 42.0, 1_000);
        assert!(rel.insert_reading(r, Timestamp(1_000)));
        let slot = rel.slot_of(r.expires_at) as i64;
        let root_row = rel.cache_row(0, rel.root_id(), slot).expect("root cached");
        assert_eq!(root_row.cnt, 1);
        assert_eq!(root_row.sum, 42.0);
        rel.validate_cache_consistency().expect("consistent");
    }

    #[test]
    fn multiple_inserts_aggregate() {
        let native = tree(None);
        let mut rel = RelationalColrTree::from_tree(&native);
        for i in 0..10u32 {
            rel.insert_reading(reading(i, i as f64, 1_000), Timestamp(1_000));
        }
        let slot = rel.slot_of(Timestamp(1_000 + EXPIRY_MS)) as i64;
        let root = rel.cache_row(0, rel.root_id(), slot).expect("cached");
        assert_eq!(root.cnt, 10);
        assert_eq!(root.sum, 45.0);
        assert_eq!(root.min, 0.0);
        assert_eq!(root.max, 9.0);
        rel.validate_cache_consistency().expect("consistent");
    }

    #[test]
    fn replacing_a_reading_updates_aggregates() {
        let native = tree(None);
        let mut rel = RelationalColrTree::from_tree(&native);
        rel.insert_reading(reading(3, 10.0, 1_000), Timestamp(1_000));
        rel.insert_reading(reading(3, 20.0, 2_000), Timestamp(2_000));
        assert_eq!(rel.cached_readings(), 1);
        let slot = rel.slot_of(Timestamp(2_000 + EXPIRY_MS)) as i64;
        let root = rel.cache_row(0, rel.root_id(), slot).expect("cached");
        assert_eq!(root.cnt, 1);
        assert_eq!(root.sum, 20.0);
        rel.validate_cache_consistency().expect("consistent");
    }

    #[test]
    fn roll_expunges_old_slots_everywhere() {
        let native = tree(None);
        let mut rel = RelationalColrTree::from_tree(&native);
        rel.insert_reading(reading(1, 1.0, 1_000), Timestamp(1_000));
        assert!(rel.total_cache_rows() > 0);
        // Jump far past expiry: everything must vanish.
        rel.run_triggers(Timestamp(EXPIRY_MS * 10));
        assert_eq!(rel.total_cache_rows(), 0);
        assert_eq!(rel.cached_readings(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_fetched() {
        let native = tree(Some(5));
        let mut rel = RelationalColrTree::from_tree(&native);
        for i in 0..10u32 {
            rel.insert_reading(
                reading(i, 1.0, 1_000 + i as u64),
                Timestamp(1_000 + i as u64),
            );
        }
        assert_eq!(rel.cached_readings(), 5);
        // Oldest-fetched sensors (0..5) evicted; the root aggregate reflects
        // only the survivors.
        let slot = rel.slot_of(Timestamp(1_000 + EXPIRY_MS)) as i64;
        let root = rel.cache_row(0, rel.root_id(), slot).expect("cached");
        assert_eq!(root.cnt, 5);
        rel.validate_cache_consistency().expect("consistent");
    }

    #[test]
    fn parity_with_native_tree_aggregates() {
        let native = tree(None);
        let mut rel = RelationalColrTree::from_tree(&native);
        // Insert the same readings into both implementations.
        for i in 0..32u32 {
            let r = reading(i * 2, (i * 3) as f64, 1_000 + i as u64 * 10);
            native.insert_reading(r, Timestamp(1_000 + i as u64 * 10));
            rel.insert_reading(r, Timestamp(1_000 + i as u64 * 10));
        }
        // Compare every node's per-slot aggregates.
        for id in native.node_ids() {
            let node = native.node(id);
            let nc = native.cache_snapshot(id);
            for slot in 0..(native.slot_config().num_slots as u64 + 2) {
                let native_slot = nc.cache.slot(slot);
                let rel_slot = rel.cache_row(node.level, id.0 as i64, slot as i64);
                match (native_slot, rel_slot) {
                    (None, None) => {}
                    (Some(ns), Some(rs)) => {
                        assert_eq!(ns.agg.count, rs.cnt as u64, "count at {id:?} slot {slot}");
                        assert!((ns.agg.sum - rs.sum).abs() < 1e-9);
                        assert_eq!(ns.agg.min, rs.min);
                        assert_eq!(ns.agg.max, rs.max);
                    }
                    (a, b) => {
                        panic!("slot presence mismatch at {id:?} slot {slot}: {a:?} vs {b:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn expired_reading_rejected() {
        let native = tree(None);
        let mut rel = RelationalColrTree::from_tree(&native);
        let r = reading(1, 1.0, 1_000);
        assert!(!rel.insert_reading(r, Timestamp(1_000 + EXPIRY_MS + 1)));
        assert_eq!(rel.cached_readings(), 0);
    }
}
