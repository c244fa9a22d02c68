//! The unified request/response surface.
//!
//! Every way of asking the portal something — interactive SQL, programmatic
//! queries, `EXPLAIN`, `EXPLAIN ANALYZE`, and the sharded router's
//! scatter-gather — is one entry point:
//! `execute(&QueryRequest) -> Result<QueryResponse, PortalError>`, offered
//! identically by [`crate::PortalService`] and [`crate::ShardedPortal`].
//! A [`QueryRequest`] bundles the logical query (region, filters, sample
//! target) with the execution envelope (probe-deadline override, mode
//! override, explain level); a [`QueryResponse`] carries the samples, the
//! merged [`DegradationReport`](crate::DegradationReport), the optional
//! plan/flight texts, and — through a router — the per-shard outcomes.
//! [`QueryRequest::from_sql`] is the one lowering from SQL text.

use colr_tree::{Mode, TimeDelta};

use crate::ast::{AggSpec, SelectQuery, SpatialPredicate};
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

/// One portal request: the logical query plus its execution envelope.
///
/// Build one from a parsed [`SelectQuery`] ([`QueryRequest::new`]), from a
/// dialect SQL string ([`QueryRequest::from_sql`] — which also understands
/// the `EXPLAIN [ANALYZE]` statement forms), or field-by-field through
/// [`QueryRequest::builder`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    select: SelectQuery,
    deadline: Option<TimeDelta>,
    mode: Option<Mode>,
    explain: ExplainLevel,
    sql_len: u64,
}

impl QueryRequest {
    /// Wraps a parsed query with default envelope (no overrides, no
    /// explain).
    pub fn new(select: SelectQuery) -> QueryRequest {
        QueryRequest {
            select,
            deadline: None,
            mode: None,
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

    /// Starts a builder for a request over `within`.
    pub fn builder(within: SpatialPredicate) -> QueryRequestBuilder {
        QueryRequestBuilder {
            req: QueryRequest::new(SelectQuery {
                agg: AggSpec::Count,
                within,
                staleness: None,
                cluster: None,
                sample_size: None,
                sensor_type: None,
            }),
        }
    }

    /// Overrides the per-probe-wave deadline budget for this request.
    pub fn with_deadline(mut self, deadline: TimeDelta) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the execution mode for this request (e.g. run one query
    /// against a baseline without reconfiguring the service).
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = Some(mode);
        self
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

    /// The probe-deadline override, if any.
    pub fn deadline(&self) -> Option<TimeDelta> {
        self.deadline
    }

    /// The mode override, if any.
    pub fn mode(&self) -> Option<Mode> {
        self.mode
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

/// Builder over every [`QueryRequest`] field. Infallible: the underlying
/// fields are all valid by construction (validation of *service* configs
/// lives in [`crate::PortalConfigBuilder`]).
#[derive(Debug, Clone)]
pub struct QueryRequestBuilder {
    req: QueryRequest,
}

impl QueryRequestBuilder {
    /// Sets the aggregate (default `count(*)`).
    pub fn agg(mut self, agg: AggSpec) -> Self {
        self.req.select.agg = agg;
        self
    }

    /// Sets the freshness bound (default: the service's configured
    /// staleness).
    pub fn staleness(mut self, staleness: TimeDelta) -> Self {
        self.req.select.staleness = Some(staleness);
        self
    }

    /// Sets the `CLUSTER d` grouping distance.
    pub fn cluster(mut self, d: f64) -> Self {
        self.req.select.cluster = Some(d);
        self
    }

    /// Sets the `SAMPLESIZE` target `R`.
    pub fn sample_size(mut self, r: usize) -> Self {
        self.req.select.sample_size = Some(r);
        self
    }

    /// Restricts to one sensor type.
    pub fn sensor_type(mut self, kind: u16) -> Self {
        self.req.select.sensor_type = Some(kind);
        self
    }

    /// Overrides the probe-deadline budget.
    pub fn deadline(mut self, deadline: TimeDelta) -> Self {
        self.req.deadline = Some(deadline);
        self
    }

    /// Overrides the execution mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.req.mode = Some(mode);
        self
    }

    /// Sets the explain level.
    pub fn explain(mut self, explain: ExplainLevel) -> Self {
        self.req.explain = explain;
        self
    }

    /// Produces the request.
    pub fn build(self) -> QueryRequest {
        self.req
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
    /// bare [`crate::PortalService`].
    pub shards: Vec<ShardOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use colr_geo::Rect;

    #[test]
    fn builder_wires_every_field() {
        let req = QueryRequest::builder(SpatialPredicate::Rect(Rect::from_coords(
            0.0, 0.0, 8.0, 8.0,
        )))
        .agg(AggSpec::Avg)
        .staleness(TimeDelta::from_mins(2))
        .cluster(4.0)
        .sample_size(30)
        .sensor_type(2)
        .deadline(TimeDelta::from_secs(1))
        .mode(Mode::HierCache)
        .explain(ExplainLevel::Plan)
        .build();
        assert_eq!(req.select().agg, AggSpec::Avg);
        assert_eq!(req.select().staleness, Some(TimeDelta::from_mins(2)));
        assert_eq!(req.select().cluster, Some(4.0));
        assert_eq!(req.select().sample_size, Some(30));
        assert_eq!(req.select().sensor_type, Some(2));
        assert_eq!(req.deadline(), Some(TimeDelta::from_secs(1)));
        assert_eq!(req.mode(), Some(Mode::HierCache));
        assert_eq!(req.explain(), ExplainLevel::Plan);
    }

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
        let req = QueryRequest::builder(SpatialPredicate::Rect(Rect::from_coords(
            0.0, 0.0, 4.0, 4.0,
        )))
        .sample_size(60)
        .build();
        let share = req.with_sample_share(14);
        assert_eq!(share.select().sample_size, Some(14));
        assert_eq!(share.select().within, req.select().within);
        assert_eq!(req.select().sample_size, Some(60));
    }
}
