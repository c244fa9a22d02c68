//! Workspace umbrella crate for the COLR-Tree reproduction.
//!
//! Re-exports the member crates so integration tests and examples can use a
//! single dependency root. See `README.md` for the tour.

#![forbid(unsafe_code)]

pub use colr_engine as engine;
pub use colr_geo as geo;
pub use colr_relstore as relstore;
pub use colr_sensors as sensors;
pub use colr_telemetry as telemetry;
pub use colr_tree as colr;
pub use colr_workload as workload;
