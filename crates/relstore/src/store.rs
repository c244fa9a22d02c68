//! A minimal in-memory relational engine: typed tables, integer secondary
//! indexes, and a change-event log for trigger dispatch.
//!
//! Deliberately small — just enough relational machinery to express the
//! paper's layered schema and its trigger cascade. Rows are `Vec<Value>`;
//! equality indexes exist on integer columns only (node ids, slot ids,
//! sensor ids — every join key in the Section VI schema is an integer).

use std::collections::{HashMap, HashSet, VecDeque};

/// A cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer (all key columns).
    Int(i64),
    /// Double-precision float (coordinates, aggregate components).
    Float(f64),
}

impl Value {
    /// The integer value.
    ///
    /// # Panics
    /// Panics when the cell is not an integer (schema misuse is a
    /// programming error in this engine).
    pub fn int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// The float value (integers widen losslessly for small magnitudes).
    pub fn float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// Identifier of a table within a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub usize);

/// Identifier of a row within a table (stable across other rows' deletions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(pub usize);

/// A heap table with optional hash indexes on integer columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (diagnostics only).
    pub name: String,
    /// Column names; row layout follows this order.
    pub columns: Vec<String>,
    rows: Vec<Option<Vec<Value>>>,
    live: usize,
    indexes: HashMap<usize, HashMap<i64, HashSet<usize>>>,
}

impl Table {
    fn new(name: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
            live: 0,
            indexes: HashMap::new(),
        }
    }

    /// Position of a column by name.
    ///
    /// # Panics
    /// Panics on an unknown column.
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column `{name}` in table `{}`", self.name))
    }

    /// Creates a hash index over an integer column.
    pub fn create_index(&mut self, col: usize) {
        let mut map: HashMap<i64, HashSet<usize>> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                map.entry(row[col].int()).or_default().insert(i);
            }
        }
        self.indexes.insert(col, map);
    }

    fn index_insert(&mut self, rowid: usize, row: &[Value]) {
        for (&col, map) in &mut self.indexes {
            map.entry(row[col].int()).or_default().insert(rowid);
        }
    }

    fn index_remove(&mut self, rowid: usize, row: &[Value]) {
        for (&col, map) in &mut self.indexes {
            if let Some(set) = map.get_mut(&row[col].int()) {
                set.remove(&rowid);
                if set.is_empty() {
                    map.remove(&row[col].int());
                }
            }
        }
    }

    /// Inserts a row, returning its id.
    pub fn insert(&mut self, row: Vec<Value>) -> RowId {
        assert_eq!(row.len(), self.columns.len(), "arity mismatch");
        let rowid = self.rows.len();
        self.index_insert(rowid, &row);
        self.rows.push(Some(row));
        self.live += 1;
        RowId(rowid)
    }

    /// Deletes a row, returning it if it existed.
    pub fn delete(&mut self, id: RowId) -> Option<Vec<Value>> {
        let row = self.rows.get_mut(id.0)?.take()?;
        self.index_remove(id.0, &row);
        self.live -= 1;
        Some(row)
    }

    /// Borrows a row.
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(id.0)?.as_deref()
    }

    /// Overwrites one cell, keeping indexes consistent.
    pub fn update(&mut self, id: RowId, col: usize, value: Value) -> bool {
        // Take the row to appease the borrow checker around index updates.
        let Some(slot) = self.rows.get_mut(id.0) else {
            return false;
        };
        let Some(mut row) = slot.take() else {
            return false;
        };
        let indexed = self.indexes.contains_key(&col);
        if indexed {
            let old = row[col].int();
            if let Some(map) = self.indexes.get_mut(&col) {
                if let Some(set) = map.get_mut(&old) {
                    set.remove(&id.0);
                    if set.is_empty() {
                        map.remove(&old);
                    }
                }
            }
        }
        row[col] = value;
        if indexed {
            let new = row[col].int();
            self.indexes
                .get_mut(&col)
                .unwrap()
                .entry(new)
                .or_default()
                .insert(id.0);
        }
        self.rows[id.0] = Some(row);
        true
    }

    /// Row ids matching `column = key` (uses the index when present, else a
    /// scan).
    pub fn find(&self, col: usize, key: i64) -> Vec<RowId> {
        if let Some(map) = self.indexes.get(&col) {
            let mut ids: Vec<RowId> = map
                .get(&key)
                .map(|s| s.iter().copied().map(RowId).collect())
                .unwrap_or_default();
            ids.sort_by_key(|r| r.0);
            ids
        } else {
            self.scan()
                .filter(|(_, row)| row[col].int() == key)
                .map(|(id, _)| id)
                .collect()
        }
    }

    /// Iterates live rows.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_deref().map(|row| (RowId(i), row)))
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// A change event, the unit the trigger engine consumes.
#[derive(Debug, Clone)]
pub enum ChangeEvent {
    /// A row was inserted into `table`.
    Inserted(TableId, RowId),
    /// A row was deleted from `table`; the old row travels with the event
    /// (SQL's `DELETED` pseudo-table).
    Deleted(TableId, Vec<Value>),
    /// A row of `table` was updated in place.
    Updated(TableId, RowId),
}

/// A collection of tables plus the pending change-event queue.
#[derive(Debug, Clone, Default)]
pub struct Store {
    tables: Vec<Table>,
    names: HashMap<String, TableId>,
    /// Pending events awaiting trigger dispatch.
    pub events: VecDeque<ChangeEvent>,
    /// Tables whose mutations are logged to `events`.
    logged: HashSet<usize>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Creates a table and returns its id.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> TableId {
        assert!(
            !self.names.contains_key(name),
            "table `{name}` already exists"
        );
        let id = TableId(self.tables.len());
        self.tables.push(Table::new(name, columns));
        self.names.insert(name.to_owned(), id);
        id
    }

    /// Enables change-event logging for a table (the SQL `CREATE TRIGGER ...
    /// ON <table>` registration).
    pub fn log_changes(&mut self, table: TableId) {
        self.logged.insert(table.0);
    }

    /// Borrows a table.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Mutably borrows a table **without** event logging (loader use only).
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.0]
    }

    /// Inserts through the event log.
    pub fn insert(&mut self, table: TableId, row: Vec<Value>) -> RowId {
        let id = self.tables[table.0].insert(row);
        if self.logged.contains(&table.0) {
            self.events.push_back(ChangeEvent::Inserted(table, id));
        }
        id
    }

    /// Deletes through the event log.
    pub fn delete(&mut self, table: TableId, row: RowId) -> Option<Vec<Value>> {
        let old = self.tables[table.0].delete(row)?;
        if self.logged.contains(&table.0) {
            self.events
                .push_back(ChangeEvent::Deleted(table, old.clone()));
        }
        Some(old)
    }

    /// Updates through the event log.
    pub fn update(&mut self, table: TableId, row: RowId, col: usize, value: Value) -> bool {
        let ok = self.tables[table.0].update(row, col, value);
        if ok && self.logged.contains(&table.0) {
            self.events.push_back(ChangeEvent::Updated(table, row));
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_table() -> (Store, TableId) {
        let mut s = Store::new();
        let t = s.create_table("t", &["id", "v"]);
        (s, t)
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let (mut s, t) = store_with_table();
        let r = s.insert(t, vec![1i64.into(), 2.5.into()]);
        assert_eq!(s.table(t).get(r).unwrap()[1].float(), 2.5);
        let old = s.delete(t, r).unwrap();
        assert_eq!(old[0].int(), 1);
        assert!(s.table(t).get(r).is_none());
        assert!(s.table(t).is_empty());
    }

    #[test]
    fn find_uses_index_and_scan_equally() {
        let (mut s, t) = store_with_table();
        for i in 0..10i64 {
            s.insert(t, vec![(i % 3).into(), (i as f64).into()]);
        }
        let scan_hits = s.table(t).find(0, 1);
        let col = s.table(t).col("id");
        s.table_mut(t).create_index(col);
        let index_hits = s.table(t).find(0, 1);
        assert_eq!(scan_hits, index_hits);
        assert_eq!(index_hits.len(), 3);
    }

    #[test]
    fn index_tracks_updates_and_deletes() {
        let (mut s, t) = store_with_table();
        s.table_mut(t).create_index(0);
        let r = s.insert(t, vec![5i64.into(), 0.0.into()]);
        assert_eq!(s.table(t).find(0, 5), vec![r]);
        s.update(t, r, 0, 6i64.into());
        assert!(s.table(t).find(0, 5).is_empty());
        assert_eq!(s.table(t).find(0, 6), vec![r]);
        s.delete(t, r);
        assert!(s.table(t).find(0, 6).is_empty());
    }

    #[test]
    fn events_logged_only_when_enabled() {
        let (mut s, t) = store_with_table();
        s.insert(t, vec![1i64.into(), 0.0.into()]);
        assert!(s.events.is_empty());
        s.log_changes(t);
        let r = s.insert(t, vec![2i64.into(), 0.0.into()]);
        s.update(t, r, 1, 1.0.into());
        s.delete(t, r);
        assert_eq!(s.events.len(), 3);
        assert!(matches!(s.events[0], ChangeEvent::Inserted(_, _)));
        assert!(matches!(s.events[1], ChangeEvent::Updated(_, _)));
        assert!(matches!(s.events[2], ChangeEvent::Deleted(_, _)));
    }

    #[test]
    fn deleted_event_carries_old_row() {
        let (mut s, t) = store_with_table();
        s.log_changes(t);
        let r = s.insert(t, vec![7i64.into(), 1.5.into()]);
        s.events.clear();
        s.delete(t, r);
        match &s.events[0] {
            ChangeEvent::Deleted(_, row) => {
                assert_eq!(row[0].int(), 7);
                assert_eq!(row[1].float(), 1.5);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_wrong_arity() {
        let (mut s, t) = store_with_table();
        s.insert(t, vec![1i64.into()]);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        let (s, t) = store_with_table();
        s.table(t).col("nope");
    }

    #[test]
    fn row_ids_stable_across_deletions() {
        let (mut s, t) = store_with_table();
        let a = s.insert(t, vec![1i64.into(), 0.0.into()]);
        let b = s.insert(t, vec![2i64.into(), 0.0.into()]);
        s.delete(t, a);
        assert_eq!(s.table(t).get(b).unwrap()[0].int(), 2);
        assert_eq!(s.table(t).len(), 1);
    }
}
