//! # colr-workload
//!
//! Deterministic generators reproducing the *shape* of the paper's
//! evaluation workload (Section VII-A): ~370k Windows Live Local restaurants
//! (heavily clustered around population centres) queried by ~106k viewport
//! queries with strong spatial locality, plus the USGS / WeatherUnderground
//! expiry-time datasets behind Fig 2.
//!
//! Everything is seeded: the same configuration always yields the same
//! sensors and queries.
//!
//! * [`placement`] — sensor placement: uniform, or a Zipf-weighted Gaussian
//!   mixture of "cities" (the Live Local restaurant directory shape);
//! * [`expiry`] — expiry-time distributions (`Uniform`, `UsgsLike`,
//!   `WeatherLike`) for sensor registration and the Fig 2 slot-size sweep;
//! * [`queries`] — viewport query generators with Zipf hotspot locality and
//!   log-uniform viewport sizes;
//! * [`scenario`] — bundles the above into ready-to-run experiment
//!   scenarios.

#![forbid(unsafe_code)]

pub mod expiry;
pub mod placement;
pub mod queries;
pub mod rand_util;
pub mod scenario;
pub mod trace;

pub use expiry::ExpiryModel;
pub use placement::PlacementModel;
pub use queries::{QuerySpec, QueryWorkload, QueryWorkloadConfig};
pub use scenario::{Scenario, ScenarioConfig};
pub use trace::{load as load_trace, save as save_trace};
