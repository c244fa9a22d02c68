//! The measurement harness behind `BENCHMARK.json`: SQL text in →
//! `QueryResponse` out through `QueryRequest::from_sql` +
//! `ShardedPortal::execute` over `IndexStrategy::Lsm`, four named workloads,
//! end-to-end metrics with a correctness audit, and a traced run that
//! attributes time to layers. README.md has the catalogue.

pub mod aa;
pub mod audit;
pub mod catalogue;
pub mod json;
pub mod layers;
pub mod load;
pub mod probe;
pub mod run;
pub mod sys;
pub mod trace;
pub mod world;
