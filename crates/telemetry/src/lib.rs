//! # colr-telemetry
//!
//! Runtime observability for the COLR-Tree portal. The paper's entire
//! evaluation (Figs 3–5) is built on internal data-structure statistics —
//! cache nodes used, sensors probed, processing latency — which the engine
//! reports per query via `QueryStats`. This crate makes the same signals
//! visible *in steady state*, across millions of queries, with three pieces:
//!
//! * [`Registry`] — a process-wide table of named atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed [`Histogram`]s. Handles are created on
//!   first use and cached by instrumentation sites, so the hot path is a
//!   single relaxed atomic op — no locks, no allocation.
//! * [`Tracer`] — a lightweight span/event recorder for the query lifecycle
//!   (parse → plan → traverse → cache-hit/slot-combine → probe wave →
//!   write-back) into bounded per-thread ring buffers, drainable as
//!   structured [`TraceEvent`]s. Each span carries the timestamp its caller
//!   gives it: the portal stamps a query's spans with the query's simulated
//!   instant, so traces are deterministic.
//! * Exposition — [`Snapshot::to_prometheus`] (text format 0.0.4) and
//!   [`Snapshot::to_json`], plus [`Snapshot::diff`] for interval metrics.
//! * [`SloWatchdog`] — sliding-window objectives over per-query latency and
//!   fulfillment that, on breach, snapshot the registry diff plus the last
//!   K flight records into a structured JSON [`BreachReport`].
//!
//! ## Naming scheme
//!
//! Metric names follow `colr_<subsystem>_<what>[_total|_us]`:
//! `colr_tree_*` (slot caches, stripes, maintenance), `colr_query_*`
//! (per-query execution), `colr_probe_*` (collection boundary),
//! `colr_net_*` (simulated network), `colr_build_*` (bulk construction),
//! `colr_relstore_*` (relational triggers), `colr_portal_*` (front door).
//! A single `{key="value"}` label suffix is allowed on counters and gauges;
//! histogram names must be label-free. Durations are recorded in integer
//! microseconds (`_us`).
//!
//! ## Overhead budget
//!
//! Recording into an existing handle is one relaxed load (the enabled gate)
//! plus one relaxed `fetch_add`; a histogram observation adds a
//! `leading_zeros` and two more `fetch_add`s. Disabled telemetry
//! ([`Registry::set_enabled`]) short-circuits after the load. Name lookup
//! (`registry.counter("...")`) takes a read lock and must stay out of hot
//! loops — sites cache handles in `OnceLock` statics.

#![forbid(unsafe_code)]

pub mod expose;
pub mod registry;
pub mod trace;
pub mod watchdog;

pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{tracer, SpanKind, TraceEvent, Tracer};
pub use watchdog::{BreachReport, SloConfig, SloWatchdog};
