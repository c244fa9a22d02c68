//! # colr-engine
//!
//! The SensorMap-style portal layer (Section III): the piece that sits
//! between web-frontend queries and the COLR-Tree back-end.
//!
//! * [`ast`] — the query AST for the portal dialect:
//!   `SELECT count(*) FROM sensor WHERE location WITHIN Polygon(...) AND
//!   time BETWEEN now()-10 AND now() MINS CLUSTER 10 SAMPLESIZE 30`;
//! * [`parser`] — a hand-written tokenizer + recursive-descent parser for
//!   that dialect;
//! * [`planner`] — maps the `CLUSTER` distance to a terminal level `T`
//!   (the zoom-level → threshold-level translation of Section III-C) and
//!   assembles the physical [`colr_tree::Query`];
//! * [`portal`] — the configuration going in ([`PortalConfig`]) and the
//!   result shapes coming out: per-group [`PortalResult`]s ready to overlay
//!   on a map, with their [`DegradationReport`];
//! * [`router`] — the front door, the spatially sharded [`ShardedPortal`]:
//!   the one constructor, batch entry point and reindexer, and a
//!   deterministic scatter-gather router over per-shard [`PortalService`]s,
//!   splitting the sample target `R` across overlapping shards exactly as
//!   Algorithm 1 splits it across children;
//! * [`service`] — one shard, a [`PortalService`]: cloneable `&self` handles
//!   over an LSM index published in epochs, with online registration, merges
//!   that carry the caches over, and admission control;
//! * [`request`] — the one request surface: the front door answers
//!   `execute(&`[`QueryRequest`]`)` with a [`QueryResponse`], and
//!   [`QueryRequest::from_sql`] is the one lowering from SQL text;
//! * [`error`] — the unified [`PortalError`] every front-door entry point
//!   returns.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod parser;
pub mod planner;
pub mod portal;
pub mod request;
pub mod router;
pub mod service;

pub use ast::{AggSpec, SelectQuery, SpatialPredicate};
pub use error::PortalError;
pub use parser::{parse, parse_statement, ParseError, Statement};
pub use planner::Planner;
pub use portal::{
    BatchResult, DegradationReport, GroupView, IndexStrategy, PortalConfig, PortalResult,
};
pub use request::{ExplainLevel, QueryRequest, QueryResponse, ShardOutcome};
pub use router::{Reindexer, ShardInfo, ShardedPortal};
pub use service::{AdmissionConfig, Generation, PortalService};
