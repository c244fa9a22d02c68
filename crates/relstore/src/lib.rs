//! # colr-relstore
//!
//! A reproduction of COLR-Tree's *relational* implementation (Section VI).
//! The paper built the index entirely on SQL Server 2005: each tree level is
//! a **layer table** `{node id, child id, child bounding box, child weight}`,
//! each level has a **cache table** `{node id, slot id, value, value
//! weight}`, access methods are multiway joins from root to leaf, and cache
//! maintenance runs through four `AFTER INSERT/DELETE/UPDATE` triggers
//! (roll, slot-insert, slot-delete, slot-update).
//!
//! This crate substitutes an in-memory relational mini-engine for SQL
//! Server:
//!
//! * [`store`] — typed tables with secondary hash indexes, equality lookups,
//!   scans, and a change-event log that drives trigger cascades;
//! * [`schema`] — the layer/cache/reading/sensor table definitions and a
//!   loader that populates them from a bulk-built [`colr_tree::ColrTree`];
//! * [`triggers`] — the paper's four triggers, fired off the event log with
//!   cascading (an update raised by one trigger fires the next level's
//!   trigger, up to the root — exactly the slot-update trigger's job);
//! * [`access`] — the *sensor selection* and *cache read* access methods as
//!   per-layer joins, plus a query entry point combining them.

#![forbid(unsafe_code)]

pub mod access;
pub mod schema;
pub mod store;
pub mod triggers;

pub use access::RelQueryOutput;
pub use schema::RelationalColrTree;
pub use store::{RowId, Store, Table, TableId, Value};
