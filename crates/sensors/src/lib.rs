//! # colr-sensors
//!
//! A simulated live sensor network for the COLR-Tree reproduction.
//!
//! The paper evaluates against real deployments (Windows Live Local
//! restaurants, USGS gauges, personal weather stations) that are probed over
//! the wide-area network and fail or disconnect nondeterministically. This
//! crate substitutes a deterministic simulation that exercises the same code
//! paths:
//!
//! * [`SimNetwork`] implements [`colr_tree::ProbeService`]: each probe of a
//!   sensor succeeds with the sensor's registered availability probability
//!   and returns a reading valid for the sensor's registered expiry;
//! * [`field`] provides the *value processes* behind the readings — constant,
//!   per-sensor random walks, and a spatially correlated field
//!   ([`field::SpatialField`]) reproducing the premise of the paper's Fig 7
//!   ("sensor data is often spatially correlated");
//! * per-sensor probe counters expose the *sensing workload* so experiments
//!   can check the load-uniformity property of layered sampling;
//! * [`FaultPlan`] layers deterministic fault schedules (regional outages,
//!   flapping, availability drift, latency spikes) on top of the base
//!   Bernoulli model, for fault-tolerance experiments.

#![forbid(unsafe_code)]

pub mod faults;
pub mod field;
pub mod network;

pub use faults::{FaultEvent, FaultPlan};
pub use field::{ConstantField, RandomWalkField, SpatialField, ValueField};
pub use network::SimNetwork;
