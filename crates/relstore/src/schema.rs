//! The Section VI database schema and its loader.
//!
//! One **node** table (id, level, bbox, weight, availability), one **layer
//! table per level** (`{node id, child id, child bounding box, child
//! weight}` — traversal joins adjacent layers on the child id), one **cache
//! table per level** (`{node id, slot id, value (cnt/sum/min/max), value
//! weight, min timestamp}`), a **reading** table (the leaf cache level's raw
//! readings), and a **sensor** table of registered metadata.
//!
//! The tree structure itself is bulk-built by [`colr_tree::ColrTree`] and
//! exported here row by row — the paper likewise constructs the hierarchy
//! offline (k-means batch mode) and loads it into SQL Server.

use colr_geo::Rect;
use colr_tree::{ColrTree, Reading, SensorId, Timestamp};

use crate::store::{Store, TableId};

/// Column layout of every per-level cache table.
pub(crate) const CACHE_COLS: [&str; 9] = [
    "node_id",
    "slot_id",
    "kind",
    "cnt",
    "sum",
    "min",
    "max",
    "value_weight",
    "min_ts",
];

/// Column layout of every layer table.
pub(crate) const LAYER_COLS: [&str; 7] = [
    "node_id",
    "child_id",
    "min_x",
    "min_y",
    "max_x",
    "max_y",
    "child_weight",
];

/// The relational COLR-Tree: Section VI's schema over the mini-engine, with
/// the four maintenance triggers of [`crate::triggers`] and the access
/// methods of [`crate::access`].
#[derive(Debug, Clone)]
pub struct RelationalColrTree {
    pub(crate) store: Store,
    /// `node(node_id, level, min_x, min_y, max_x, max_y, weight, avail)`.
    pub(crate) node_t: TableId,
    /// `sensor(sensor_id, x, y, expiry_ms, availability, leaf_node, kind)`.
    pub(crate) sensor_t: TableId,
    /// `reading(sensor_id, value, timestamp, expires_at, fetched_at,
    /// slot_id, leaf_node, kind)`.
    pub(crate) reading_t: TableId,
    /// One layer table per level `0..leaf_level` (edges to level `l+1`),
    /// plus the leaf layer mapping leaves to sensors.
    pub(crate) layer_t: Vec<TableId>,
    /// One cache table per level `0..=leaf_level`.
    pub(crate) cache_t: Vec<TableId>,
    pub(crate) leaf_level: u16,
    pub(crate) slot_width_ms: u64,
    pub(crate) num_slots: usize,
    /// Oldest slot that can still hold live readings (the window state the
    /// roll trigger maintains).
    pub(crate) base_slot: u64,
    pub(crate) cache_capacity: Option<usize>,
}

impl RelationalColrTree {
    /// Exports a bulk-built native tree into the relational schema.
    pub fn from_tree(tree: &ColrTree) -> RelationalColrTree {
        let mut store = Store::new();
        let node_t = store.create_table(
            "node",
            &[
                "node_id", "level", "min_x", "min_y", "max_x", "max_y", "weight", "avail",
            ],
        );
        let sensor_t = store.create_table(
            "sensor",
            &[
                "sensor_id",
                "x",
                "y",
                "expiry_ms",
                "availability",
                "leaf_node",
                "kind",
            ],
        );
        let reading_t = store.create_table(
            "reading",
            &[
                "sensor_id",
                "value",
                "timestamp",
                "expires_at",
                "fetched_at",
                "slot_id",
                "leaf_node",
                "kind",
            ],
        );
        let leaf_level = tree.leaf_level();
        let layer_t: Vec<TableId> = (0..=leaf_level)
            .map(|l| store.create_table(&format!("layer_{l}"), &LAYER_COLS))
            .collect();
        let cache_t: Vec<TableId> = (0..=leaf_level)
            .map(|l| store.create_table(&format!("cache_{l}"), &CACHE_COLS))
            .collect();

        // Populate node / layer / sensor tables from the built tree.
        for id in tree.node_ids() {
            let n = tree.node(id);
            store.insert(
                node_t,
                vec![
                    (id.0 as i64).into(),
                    (n.level as i64).into(),
                    n.bbox.min.x.into(),
                    n.bbox.min.y.into(),
                    n.bbox.max.x.into(),
                    n.bbox.max.y.into(),
                    n.weight.into(),
                    n.avail_mean.into(),
                ],
            );
            match n.children {
                colr_tree::Children::Internal(children) => {
                    for c in children.iter() {
                        let ch = tree.node(c);
                        store.insert(
                            layer_t[n.level as usize],
                            vec![
                                (id.0 as i64).into(),
                                (c.0 as i64).into(),
                                ch.bbox.min.x.into(),
                                ch.bbox.min.y.into(),
                                ch.bbox.max.x.into(),
                                ch.bbox.max.y.into(),
                                ch.weight.into(),
                            ],
                        );
                    }
                }
                colr_tree::Children::Leaf(sensors) => {
                    for &s in sensors {
                        let m = tree.sensor(s);
                        store.insert(
                            layer_t[n.level as usize],
                            vec![
                                (id.0 as i64).into(),
                                (s.0 as i64).into(),
                                m.location.x.into(),
                                m.location.y.into(),
                                m.location.x.into(),
                                m.location.y.into(),
                                1i64.into(),
                            ],
                        );
                    }
                }
            }
        }
        for m in tree.sensors() {
            store.insert(
                sensor_t,
                vec![
                    (m.id.0 as i64).into(),
                    m.location.x.into(),
                    m.location.y.into(),
                    (m.expiry.millis() as i64).into(),
                    m.availability.into(),
                    (tree.home_leaf(m.id).0 as i64).into(),
                    (m.kind as i64).into(),
                ],
            );
        }

        // Indexes on every join key.
        for &t in layer_t.iter().chain(cache_t.iter()) {
            let node_col = store.table(t).col("node_id");
            store.table_mut(t).create_index(node_col);
        }
        let c = store.table(sensor_t).col("sensor_id");
        store.table_mut(sensor_t).create_index(c);
        let c = store.table(node_t).col("node_id");
        store.table_mut(node_t).create_index(c);
        for col in ["sensor_id", "leaf_node"] {
            let c = store.table(reading_t).col(col);
            store.table_mut(reading_t).create_index(c);
        }

        // Register the trigger sources: the reading table (roll, slot
        // insert, slot delete) and every cache table (slot update).
        store.log_changes(reading_t);
        for &t in &cache_t {
            store.log_changes(t);
        }

        RelationalColrTree {
            store,
            node_t,
            sensor_t,
            reading_t,
            layer_t,
            cache_t,
            leaf_level,
            slot_width_ms: tree.slot_config().slot_width.millis(),
            num_slots: tree.slot_config().num_slots,
            base_slot: 0,
            cache_capacity: tree.config().cache_capacity,
        }
    }

    /// The backing store (read access for tests and tooling).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Absolute slot index of an instant.
    pub(crate) fn slot_of(&self, t: Timestamp) -> u64 {
        t.millis() / self.slot_width_ms
    }

    /// Number of slots per cache window (`m`).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of raw readings currently cached.
    pub fn cached_readings(&self) -> usize {
        self.store.table(self.reading_t).len()
    }

    /// The root node id: 0, as in the tree, whose ids are breadth-first.
    pub fn root_id(&self) -> i64 {
        0
    }

    /// Leaf level of the exported tree.
    pub fn leaf_level(&self) -> u16 {
        self.leaf_level
    }

    /// Bounding box of a node, read from the node table.
    pub(crate) fn node_bbox(&self, node_id: i64) -> Rect {
        let t = self.store.table(self.node_t);
        let rid = t.find(t.col("node_id"), node_id);
        let row = t.get(rid[0]).expect("node exists");
        Rect::from_coords(
            row[2].float(),
            row[3].float(),
            row[4].float(),
            row[5].float(),
        )
    }

    /// `(level, weight)` of a node.
    pub(crate) fn node_level_weight(&self, node_id: i64) -> (u16, u64) {
        let t = self.store.table(self.node_t);
        let rid = t.find(t.col("node_id"), node_id);
        let row = t.get(rid[0]).expect("node exists");
        (row[1].int() as u16, row[6].int() as u64)
    }

    /// Caches a freshly collected reading through the trigger pipeline:
    /// insert into the reading table, then run the cascade (roll →
    /// slot-insert → slot-update ... up to the root).
    pub fn insert_reading(&mut self, reading: Reading, now: Timestamp) -> bool {
        if !reading.is_live(now) {
            return false;
        }
        let slot = self.slot_of(reading.expires_at);
        if slot < self.base_slot {
            return false;
        }
        // Replace any previous reading for this sensor (the update path).
        let t = self.store.table(self.reading_t);
        let col = t.col("sensor_id");
        let existing = t.find(col, reading.sensor.0 as i64);
        for rid in existing {
            self.store.delete(self.reading_t, rid);
        }
        let leaf = self.leaf_of(reading.sensor);
        let kind = self.kind_of(reading.sensor);
        self.store.insert(
            self.reading_t,
            vec![
                (reading.sensor.0 as i64).into(),
                reading.value.into(),
                (reading.timestamp.millis() as i64).into(),
                (reading.expires_at.millis() as i64).into(),
                (now.millis() as i64).into(),
                (slot as i64).into(),
                leaf.into(),
                (kind as i64).into(),
            ],
        );
        self.run_triggers(now);
        true
    }

    /// Home leaf of a sensor, from the sensor table.
    pub(crate) fn leaf_of(&self, s: SensorId) -> i64 {
        let t = self.store.table(self.sensor_t);
        let rid = t.find(t.col("sensor_id"), s.0 as i64);
        t.get(rid[0]).expect("sensor exists")[5].int()
    }

    /// Registered type of a sensor, from the sensor table.
    pub(crate) fn kind_of(&self, s: SensorId) -> u16 {
        let t = self.store.table(self.sensor_t);
        let rid = t.find(t.col("sensor_id"), s.0 as i64);
        t.get(rid[0]).expect("sensor exists")[6].int() as u16
    }

    /// Parent of a node: the layer row one level up whose `child_id` is the
    /// node. `None` for the root.
    pub(crate) fn parent_of(&self, node_id: i64, level: u16) -> Option<i64> {
        if level == 0 {
            return None;
        }
        let layer = self.store.table(self.layer_t[(level - 1) as usize]);
        let col = layer.col("child_id");
        // child_id is unindexed in the upper layer; scan is fine (layers are
        // small) but prefer the index when the loader added one.
        layer
            .scan()
            .find(|(_, row)| row[col].int() == node_id)
            .map(|(_, row)| row[0].int())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colr_geo::Point;
    use colr_tree::{ColrConfig, SensorMeta, TimeDelta};

    pub(crate) fn small_tree() -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..64)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % 8) as f64, (i / 8) as f64),
                    TimeDelta::from_mins(5),
                    1.0,
                )
            })
            .collect();
        ColrTree::build(sensors, ColrConfig::default(), 7)
    }

    #[test]
    fn export_creates_all_tables() {
        let tree = small_tree();
        let rel = RelationalColrTree::from_tree(&tree);
        assert_eq!(rel.leaf_level(), tree.leaf_level());
        assert_eq!(rel.store().table(rel.sensor_t).len(), 64);
        assert_eq!(rel.store().table(rel.node_t).len(), tree.node_count());
        // Every level has a layer and a cache table.
        assert_eq!(rel.layer_t.len(), tree.leaf_level() as usize + 1);
        assert_eq!(rel.cache_t.len(), tree.leaf_level() as usize + 1);
        // Leaf layer rows = sensors.
        assert_eq!(
            rel.store()
                .table(rel.layer_t[tree.leaf_level() as usize])
                .len(),
            64
        );
    }

    #[test]
    fn layer_edges_match_tree_topology() {
        let tree = small_tree();
        let rel = RelationalColrTree::from_tree(&tree);
        // Sum of child edges across internal layers = node count - 1 (every
        // non-root node is someone's child).
        let edges: usize = (0..tree.leaf_level() as usize)
            .map(|l| rel.store().table(rel.layer_t[l]).len())
            .sum();
        assert_eq!(edges, tree.node_count() - 1);
    }

    #[test]
    fn node_bbox_roundtrips() {
        let tree = small_tree();
        let rel = RelationalColrTree::from_tree(&tree);
        for id in tree.node_ids() {
            assert_eq!(rel.node_bbox(id.0 as i64), tree.node(id).bbox);
            let (level, weight) = rel.node_level_weight(id.0 as i64);
            assert_eq!(level, tree.node(id).level);
            assert_eq!(weight, tree.node(id).weight);
        }
    }

    #[test]
    fn parent_lookup_matches_tree() {
        let tree = small_tree();
        let rel = RelationalColrTree::from_tree(&tree);
        for id in tree.node_ids() {
            let n = tree.node(id);
            let expected = n.parent.map(|p| p.0 as i64);
            assert_eq!(rel.parent_of(id.0 as i64, n.level), expected);
        }
    }

    #[test]
    fn leaf_of_matches_home_leaf() {
        let tree = small_tree();
        let rel = RelationalColrTree::from_tree(&tree);
        for m in tree.sensors() {
            assert_eq!(rel.leaf_of(m.id), tree.home_leaf(m.id).0 as i64);
        }
    }
}
