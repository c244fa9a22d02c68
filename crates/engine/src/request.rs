//! The unified request/response surface.
//!
//! Every way of asking the portal something — interactive SQL, programmatic
//! queries, `EXPLAIN`, `EXPLAIN ANALYZE`, and the sharded router's
//! scatter-gather — is one entry point:
//! `execute(&QueryRequest) -> Result<QueryResponse, PortalError>` on
//! [`crate::ShardedPortal`] (each of its shards answers the same call).
//! A [`QueryRequest`] bundles the logical query (region, filters, sample
//! target) with the explain level; a [`QueryResponse`] carries the samples, the
//! merged [`DegradationReport`](crate::DegradationReport), the optional
//! plan/flight texts, and — through a router — the per-shard outcomes.
//! [`QueryRequest::from_sql`] is the one lowering from SQL text.

use crate::ast::SelectQuery;
use crate::error::PortalError;
use crate::parser::{parse_statement, Statement};
use crate::portal::PortalResult;
use crate::service::portal_telem;

/// How much explanation a request wants alongside (or instead of) results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainLevel {
    /// Execute and return results only (the default).
    #[default]
    None,
    /// Describe the physical plan without executing (the portal's
    /// `EXPLAIN`): the response carries the plan text and an empty result.
    Plan,
    /// Execute for real under an always-on flight recorder (the portal's
    /// `EXPLAIN ANALYZE`): the response carries the results, the rendered
    /// plan + stage tree + parity verdict, and the flight-record JSON.
    Analyze,
}

/// One portal request: the logical query plus its explain level.
///
/// Build one from a parsed [`SelectQuery`] ([`QueryRequest::new`]) or from a
/// dialect SQL string ([`QueryRequest::from_sql`] — which also understands
/// the `EXPLAIN [ANALYZE]` statement forms).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    select: SelectQuery,
    explain: ExplainLevel,
    sql_len: u64,
}

impl QueryRequest {
    /// Wraps a parsed query, no explain.
    pub fn new(select: SelectQuery) -> QueryRequest {
        QueryRequest {
            select,
            explain: ExplainLevel::None,
            sql_len: 0,
        }
    }

    /// Parses a dialect SQL string into a request. `EXPLAIN <select>` maps
    /// to [`ExplainLevel::Plan`], `EXPLAIN ANALYZE <select>` to
    /// [`ExplainLevel::Analyze`], a bare `SELECT` to [`ExplainLevel::None`].
    /// A statement that fails to parse counts into
    /// `colr_portal_parse_errors_total`.
    pub fn from_sql(sql: &str) -> Result<QueryRequest, PortalError> {
        let statement = parse_statement(sql).inspect_err(|_| portal_telem().parse_errors.inc())?;
        let (select, explain) = match statement {
            Statement::Select(q) => (q, ExplainLevel::None),
            Statement::Explain {
                query,
                analyze: false,
            } => (query, ExplainLevel::Plan),
            Statement::Explain {
                query,
                analyze: true,
            } => (query, ExplainLevel::Analyze),
        };
        Ok(QueryRequest::new(select)
            .with_explain(explain)
            .with_sql_len(sql.len() as u64))
    }

    /// Sets the explain level.
    pub fn with_explain(mut self, explain: ExplainLevel) -> Self {
        self.explain = explain;
        self
    }

    /// Records the originating SQL string's length ([`QueryRequest::from_sql`]
    /// does): a non-zero length makes `execute` emit the `parse` span and a
    /// flight record under [`ExplainLevel::Analyze`] report the `parse` stage.
    pub fn with_sql_len(mut self, sql_len: u64) -> Self {
        self.sql_len = sql_len;
        self
    }

    /// The logical query.
    pub fn select(&self) -> &SelectQuery {
        &self.select
    }

    /// Unwraps the logical query, dropping the envelope.
    pub(crate) fn into_select(self) -> SelectQuery {
        self.select
    }

    /// The requested explain level.
    pub fn explain(&self) -> ExplainLevel {
        self.explain
    }

    /// Length of the originating SQL string (0 for programmatic requests).
    pub fn sql_len(&self) -> u64 {
        self.sql_len
    }

    /// A copy of this request asking the same question over a different
    /// sample target — the router's R-split primitive.
    pub(crate) fn with_sample_share(&self, share: usize) -> QueryRequest {
        let mut req = self.clone();
        req.select.sample_size = Some(share);
        req
    }
}

/// What happened on one shard of a routed request (empty for an unsharded
/// service, which is its own single shard).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index in the router's shard map.
    pub shard: usize,
    /// The slice of the sample target `R` routed to this shard (0 when the
    /// request carried no target).
    pub requested: f64,
    /// `None` when the shard answered; the shard's error when it declined
    /// (shed, closed) and the router degraded the merged fulfillment
    /// instead of failing the query.
    pub error: Option<PortalError>,
}

/// One portal answer, from a bare service or a router.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The (merged) result: samples, value, histogram, stats, and the
    /// merged degradation report.
    pub result: PortalResult,
    /// Plan text ([`ExplainLevel::Plan`]) or plan + stage tree + parity
    /// verdict ([`ExplainLevel::Analyze`]); `None` otherwise.
    pub explain: Option<String>,
    /// Flight-record JSON captured under [`ExplainLevel::Analyze`] (one
    /// JSON array of per-shard records when routed).
    pub flight: Option<String>,
    /// Per-shard outcomes of a routed request, in shard order; empty from a
    /// shard asked directly ([`crate::ShardedPortal::shard`]).
    pub shards: Vec<ShardOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sql_maps_statement_forms_to_levels() {
        let sql = "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,4,4)";
        let plain = QueryRequest::from_sql(sql).unwrap();
        assert_eq!(plain.explain(), ExplainLevel::None);
        assert_eq!(plain.sql_len(), sql.len() as u64);
        let explain = QueryRequest::from_sql(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(explain.explain(), ExplainLevel::Plan);
        let analyze = QueryRequest::from_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        assert_eq!(analyze.explain(), ExplainLevel::Analyze);
        assert!(QueryRequest::from_sql("SELECT nonsense").is_err());
    }

    #[test]
    fn sample_share_overrides_only_the_target() {
        let req = QueryRequest::from_sql(
            "SELECT count(*) FROM sensor WHERE location WITHIN RECT(0,0,4,4) SAMPLESIZE 60",
        )
        .unwrap();
        let share = req.with_sample_share(14);
        assert_eq!(share.select().sample_size, Some(14));
        assert_eq!(share.select().within, req.select().within);
        assert_eq!(req.select().sample_size, Some(60));
    }
}
