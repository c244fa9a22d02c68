//! # colr-tree
//!
//! A from-scratch reproduction of **COLR-Tree** ("Collection R-Tree", Ahmad &
//! Nath, ICDE 2008): a communication-efficient spatio-temporal index for a
//! live-sensor web portal. COLR-Tree couples an R-Tree bulk-built by k-means
//! clustering with two collection-efficiency mechanisms:
//!
//! 1. **Slot caches** ([`SlotCache`]) at every node — expiry-aware caches of
//!    partial aggregates that stay useful even though constituent readings
//!    expire at heterogeneous, publisher-specified times; and
//! 2. **Layered sampling** (Algorithm 1, [`Mode::Colr`]) — a one-pass range
//!    lookup that probes only a target number of sensors, oversampling by
//!    historical availability and redistributing shortfalls, with provable
//!    expected sample size and per-sensor uniformity.
//!
//! The crate also implements the paper's evaluation baselines (plain R-Tree
//! lookup, hierarchical cache, [`FlatCache`]), the optimal-slot-size
//! utility/cost analysis ([`slot_size`]), and the accuracy metrics of
//! Section VII ([`metrics`]).
//!
//! ## Quick start
//!
//! ```
//! use colr_geo::{Point, Rect};
//! use colr_tree::{
//!     AggKind, ColrConfig, ColrTree, Mode, Query, SensorMeta, TimeDelta, Timestamp,
//!     probe::AlwaysAvailable,
//! };
//! use rand::SeedableRng;
//!
//! // Register a 10x10 grid of sensors publishing 5-minute readings.
//! let sensors: Vec<SensorMeta> = (0..100)
//!     .map(|i| SensorMeta::new(i, Point::new((i % 10) as f64, (i / 10) as f64),
//!                              TimeDelta::from_mins(5), 0.95))
//!     .collect();
//! let tree = ColrTree::build(sensors, ColrConfig::default(), 42);
//!
//! // Ask for ~12 of the sensors in a viewport, at most 2 minutes stale.
//! // Queries take `&tree`: any number of clients can share one tree.
//! let query = Query::range(Rect::from_coords(-0.5, -0.5, 6.5, 6.5), TimeDelta::from_mins(2))
//!     .with_sample_size(12.0);
//! let probe = AlwaysAvailable { expiry_ms: 300_000 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let out = tree.execute(&query, Mode::Colr, &probe, Timestamp(1_000), &mut rng);
//!
//! assert!(out.stats.sensors_probed <= 49);
//! let _count = out.aggregate(AggKind::Count);
//! ```

#![forbid(unsafe_code)]

pub mod agg;
pub mod arena;
pub mod avail;
pub mod build;
pub mod flat_cache;
pub mod flight;
pub mod id_table;
pub mod inspect;
pub mod lookup;
pub mod lsm;
pub mod metrics;
pub mod probe;
pub mod reading;
pub mod resilient;
pub mod sampling;
pub(crate) mod scratch;
pub mod slot_cache;
pub mod slot_size;
pub mod stats;
pub(crate) mod telem;
pub mod time;
pub mod tree;

pub use agg::{AggKind, Histogram, PartialAgg};
pub use arena::SamplingArena;
pub use avail::LiveAvailability;
pub use build::kmeans_partition;
pub use flat_cache::{FlatCache, FlatOutput};
pub use flight::{FlightRecord, LevelStage, RetryRound, WaveStage};
pub use id_table::IdTable;
pub use lookup::{GroupResult, Mode, Query, QueryOutput};
pub use lsm::{
    apportion, derive_seed, unit_draw, Claim, L0Level, LocationFold, LsmConfig, LsmLevel,
    LsmSnapshot, LsmState, LsmStats, LsmTree, MergeReport,
};
pub use probe::{ProbeReport, ProbeService};
pub use reading::{Reading, SensorId, SensorMeta};
pub use resilient::{BreakerState, ResilientConfig, ResilientProber};
pub use sampling::OVERSAMPLE_LEVEL;
pub use slot_cache::{Slot, SlotCache, SlotConfig, SlotRing};
pub use slot_size::SlotSizeWorkload;
pub use stats::QueryStats;
pub use time::{ClockHandle, TimeDelta, Timestamp};
pub use tree::{
    BuildStrategy, CachedEntry, Children, ColrConfig, ColrTree, LeafEntries, NodeCache,
    NodeCacheSnapshot, NodeId, NodeRange, NodeRef, CACHE_STRIPES,
};
