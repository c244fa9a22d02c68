//! The portal query AST.

use colr_geo::{Circle, Point, Polygon, Rect, Region};
use colr_tree::{AggKind, TimeDelta};

/// What the `SELECT` clause computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggSpec {
    /// `count(*)`
    Count,
    /// `sum(value)`
    Sum,
    /// `avg(value)`
    Avg,
    /// `min(value)`
    Min,
    /// `max(value)`
    Max,
}

impl AggSpec {
    /// The physical aggregate kind.
    pub fn kind(self) -> AggKind {
        match self {
            AggSpec::Count => AggKind::Count,
            AggSpec::Sum => AggKind::Sum,
            AggSpec::Avg => AggKind::Avg,
            AggSpec::Min => AggKind::Min,
            AggSpec::Max => AggKind::Max,
        }
    }
}

/// The `WHERE location WITHIN ...` predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialPredicate {
    /// `WITHIN POLYGON((x y, x y, ...))`
    Polygon(Vec<Point>),
    /// `WITHIN RECT(min_x, min_y, max_x, max_y)`
    Rect(Rect),
    /// `WITHIN CIRCLE(cx, cy, radius)`
    Circle(Circle),
}

impl SpatialPredicate {
    /// The query region.
    pub fn region(&self) -> Region {
        match self {
            SpatialPredicate::Polygon(pts) => Region::Polygon(Polygon::new(pts.clone())),
            SpatialPredicate::Rect(r) => Region::Rect(*r),
            SpatialPredicate::Circle(c) => Region::Circle(*c),
        }
    }
}

/// A parsed portal query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// The aggregate to compute per group.
    pub agg: AggSpec,
    /// Spatial predicate.
    pub within: SpatialPredicate,
    /// Freshness window (the `time BETWEEN now()-X AND now()` clause);
    /// `None` means the portal default.
    pub staleness: Option<TimeDelta>,
    /// `CLUSTER d` grouping distance, in map units.
    pub cluster: Option<f64>,
    /// `SAMPLESIZE n` target.
    pub sample_size: Option<usize>,
    /// `type = n` sensor-type filter.
    pub sensor_type: Option<u16>,
}

impl SelectQuery {
    /// `true` for a `count(*)` without `SAMPLESIZE`: the region's live population.
    pub fn counts_population(&self) -> bool {
        self.agg == AggSpec::Count && self.sample_size.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_spec_maps_to_kind() {
        assert_eq!(AggSpec::Count.kind(), AggKind::Count);
        assert_eq!(AggSpec::Sum.kind(), AggKind::Sum);
        assert_eq!(AggSpec::Avg.kind(), AggKind::Avg);
        assert_eq!(AggSpec::Min.kind(), AggKind::Min);
        assert_eq!(AggSpec::Max.kind(), AggKind::Max);
    }

    #[test]
    fn only_a_count_without_samplesize_counts_the_population() {
        let q = |sql: &str| crate::parse(sql).expect("parses");
        let from = "FROM sensor WHERE location WITHIN RECT(0,0,4,4)";
        assert!(q(&format!("SELECT count(*) {from} AND type = 1 CLUSTER 2")).counts_population());
        assert!(!q(&format!("SELECT count(*) {from} SAMPLESIZE 5")).counts_population());
        assert!(!q(&format!("SELECT avg(value) {from}")).counts_population());
    }

    #[test]
    fn spatial_predicate_builds_regions() {
        let r = SpatialPredicate::Rect(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        assert!(matches!(r.region(), Region::Rect(_)));
        let p = SpatialPredicate::Polygon(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        assert!(matches!(p.region(), Region::Polygon(_)));
        let c = SpatialPredicate::Circle(Circle::new(Point::new(0.0, 0.0), 2.0));
        assert!(matches!(c.region(), Region::Circle(_)));
    }
}
