//! Model-based estimation over cached readings.
//!
//! The paper's related-work section notes that MauveDB-style model-based
//! views are orthogonal and that "COLR-Tree can maintain a model from its
//! cached data (e.g., ...)". This module provides that extension: an
//! inverse-distance-weighted (IDW) spatial interpolation model fitted on the
//! fly from the *fresh cached readings* in the tree. It can
//!
//! * estimate the value at an arbitrary location without probing any sensor
//!   ([`IdwModel::estimate_at`]), and
//! * approximate a region average on a grid of interpolation points
//!   ([`IdwModel::estimate_region_avg`]),
//!
//! trading accuracy for *zero* communication — a third point on the
//! cost/freshness spectrum next to cache hits and sampled probes. Estimates
//! use only readings satisfying the caller's freshness bound, so the model
//! never launders expired data.

use colr_geo::{Point, Rect, Region};

use crate::lookup::Query;
use crate::stats::QueryStats;
use crate::time::{TimeDelta, Timestamp};
use crate::tree::ColrTree;

/// Inverse-distance-weighted interpolation over cached readings.
///
/// ```
/// use colr_geo::Point;
/// use colr_tree::{ColrConfig, ColrTree, IdwModel, Reading, SensorId, SensorMeta,
///                 TimeDelta, Timestamp};
///
/// let sensors = vec![
///     SensorMeta::new(0, Point::new(0.0, 0.0), TimeDelta::from_mins(5), 1.0),
///     SensorMeta::new(1, Point::new(2.0, 0.0), TimeDelta::from_mins(5), 1.0),
/// ];
/// let mut tree = ColrTree::build(sensors, ColrConfig::default(), 1);
/// for (id, value) in [(0, 10.0), (1, 20.0)] {
///     tree.insert_reading(Reading {
///         sensor: SensorId(id),
///         value,
///         timestamp: Timestamp(1_000),
///         expires_at: Timestamp(301_000),
///     }, Timestamp(1_000));
/// }
/// // Midway between the two sensors the estimate is their average.
/// let est = IdwModel::default()
///     .estimate_at(&tree, Point::new(1.0, 0.0), Timestamp(2_000), TimeDelta::from_mins(5))
///     .unwrap();
/// assert!((est - 15.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IdwModel {
    /// Distance exponent (2.0 is the classic Shepard weight `1/d²`).
    pub power: f64,
    /// Number of nearest cached readings used per estimate.
    pub max_neighbors: usize,
    /// Search radius around the estimation point, in map units; readings
    /// further away are ignored even if fewer than `max_neighbors` are
    /// found.
    pub search_radius: f64,
}

impl Default for IdwModel {
    fn default() -> Self {
        IdwModel {
            power: 2.0,
            max_neighbors: 8,
            search_radius: f64::INFINITY,
        }
    }
}

impl IdwModel {
    /// Estimates the value at `p` from fresh cached readings; `None` when no
    /// usable reading is within the search radius.
    pub fn estimate_at(
        &self,
        tree: &ColrTree,
        p: Point,
        now: Timestamp,
        staleness: TimeDelta,
    ) -> Option<f64> {
        let candidates = self.neighbors(tree, p, now, staleness);
        if candidates.is_empty() {
            return None;
        }
        // A reading at (numerically) zero distance decides outright.
        let mut num = 0.0;
        let mut den = 0.0;
        for (dist, value) in candidates {
            if dist < 1e-12 {
                return Some(value);
            }
            let w = dist.powf(-self.power);
            num += w * value;
            den += w;
        }
        (den > 0.0).then(|| num / den)
    }

    /// Approximates the mean value over `region` by averaging IDW estimates
    /// on a `grid × grid` lattice of points inside the region. `None` when
    /// no lattice point has a usable estimate.
    pub fn estimate_region_avg(
        &self,
        tree: &ColrTree,
        region: &Region,
        now: Timestamp,
        staleness: TimeDelta,
        grid: usize,
    ) -> Option<f64> {
        assert!(grid > 0, "grid must be positive");
        let bbox = region.bounding_rect();
        let mut sum = 0.0;
        let mut n = 0usize;
        for gy in 0..grid {
            for gx in 0..grid {
                let p = Point::new(
                    bbox.min.x + bbox.width() * (gx as f64 + 0.5) / grid as f64,
                    bbox.min.y + bbox.height() * (gy as f64 + 0.5) / grid as f64,
                );
                if !region.contains_point(&p) {
                    continue;
                }
                if let Some(v) = self.estimate_at(tree, p, now, staleness) {
                    sum += v;
                    n += 1;
                }
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// The `max_neighbors` nearest fresh cached readings within the search
    /// radius, as `(distance, value)` pairs.
    fn neighbors(
        &self,
        tree: &ColrTree,
        p: Point,
        now: Timestamp,
        staleness: TimeDelta,
    ) -> Vec<(f64, f64)> {
        // Gather fresh cached readings near p: restrict the scan to the
        // search disc when finite, else the whole tree.
        let arena = tree.sampling_arena();
        let search = if self.search_radius.is_finite() {
            Rect::centered(p, self.search_radius)
        } else {
            arena.bbox(0)
        };
        let (mut readings, mut uncached, mut stack) = (Vec::new(), Vec::new(), Vec::new());
        tree.terminal_scan_arena(
            arena,
            0,
            false,
            &Query::range(search, staleness),
            now,
            &mut QueryStats::default(),
            &mut readings,
            &mut uncached,
            &mut stack,
        );
        let mut with_dist: Vec<(f64, f64)> = readings
            .into_iter()
            .filter_map(|r| {
                let d = tree.sensor_location(r.sensor).distance(&p);
                (d <= self.search_radius).then_some((d, r.value))
            })
            .collect();
        with_dist.sort_by(|a, b| a.0.total_cmp(&b.0));
        with_dist.truncate(self.max_neighbors);
        with_dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::{Reading, SensorId, SensorMeta};
    use crate::tree::ColrConfig;

    const EXPIRY_MS: u64 = 300_000;

    /// A 8x8 grid tree with cached readings whose values equal `x + 10*y`
    /// (a linear field — IDW should interpolate it well between points).
    fn seeded_tree() -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..64)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % 8) as f64, (i / 8) as f64),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
            })
            .collect();
        let tree = ColrTree::build(sensors, ColrConfig::default(), 7);
        for i in 0..64u32 {
            let loc = tree.sensor_location(SensorId(i));
            let reading = Reading {
                sensor: SensorId(i),
                value: loc.x + 10.0 * loc.y,
                timestamp: Timestamp(1_000),
                expires_at: Timestamp(1_000 + EXPIRY_MS),
            };
            tree.insert_reading(reading, Timestamp(1_000));
        }
        tree
    }

    #[test]
    fn exact_at_sensor_location() {
        let tree = seeded_tree();
        let m = IdwModel::default();
        let v = m
            .estimate_at(
                &tree,
                Point::new(3.0, 2.0),
                Timestamp(2_000),
                TimeDelta::from_mins(5),
            )
            .unwrap();
        assert!((v - 23.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn interpolates_between_sensors() {
        let tree = seeded_tree();
        let m = IdwModel::default();
        // Between (3,2)=23 and (4,2)=24: symmetric neighbours → ≈23.5.
        let v = m
            .estimate_at(
                &tree,
                Point::new(3.5, 2.0),
                Timestamp(2_000),
                TimeDelta::from_mins(5),
            )
            .unwrap();
        assert!((v - 23.5).abs() < 0.5, "got {v}");
    }

    #[test]
    fn no_estimate_from_empty_cache() {
        let sensors: Vec<SensorMeta> = (0..16)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new(i as f64, 0.0),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
            })
            .collect();
        let tree = ColrTree::build(sensors, ColrConfig::default(), 7);
        let m = IdwModel::default();
        assert!(m
            .estimate_at(
                &tree,
                Point::new(1.0, 0.0),
                Timestamp(1_000),
                TimeDelta::from_mins(5)
            )
            .is_none());
    }

    #[test]
    fn stale_readings_are_excluded() {
        let tree = seeded_tree();
        let m = IdwModel::default();
        // 2 minutes later with a 30s freshness bound: nothing usable.
        assert!(m
            .estimate_at(
                &tree,
                Point::new(3.0, 2.0),
                Timestamp(121_000),
                TimeDelta::from_secs(30)
            )
            .is_none());
    }

    #[test]
    fn expired_readings_are_excluded() {
        let tree = seeded_tree();
        // Past every expiry: cache rolls empty → no estimate.
        tree.advance(Timestamp(1_000 + EXPIRY_MS * 2));
        let m = IdwModel::default();
        assert!(m
            .estimate_at(
                &tree,
                Point::new(3.0, 2.0),
                Timestamp(1_000 + EXPIRY_MS * 2),
                TimeDelta::from_mins(10)
            )
            .is_none());
    }

    #[test]
    fn search_radius_limits_neighbors() {
        let tree = seeded_tree();
        let m = IdwModel {
            search_radius: 0.4, // no sensor within 0.4 of a cell centre offset
            ..Default::default()
        };
        assert!(m
            .estimate_at(
                &tree,
                Point::new(3.5, 2.5),
                Timestamp(2_000),
                TimeDelta::from_mins(5)
            )
            .is_none());
    }

    #[test]
    fn region_avg_tracks_linear_field() {
        let tree = seeded_tree();
        let m = IdwModel::default();
        // Over the whole grid the linear field's true mean is 3.5 + 10·3.5.
        let region = Region::Rect(Rect::from_coords(-0.5, -0.5, 7.5, 7.5));
        let est = m
            .estimate_region_avg(&tree, &region, Timestamp(2_000), TimeDelta::from_mins(5), 8)
            .unwrap();
        assert!((est - 38.5).abs() < 2.0, "got {est}");
    }

    #[test]
    fn region_avg_respects_region_shape() {
        let tree = seeded_tree();
        let m = IdwModel::default();
        // Bottom row only (y≈0): mean ≈ 3.5.
        let region = Region::Rect(Rect::from_coords(-0.5, -0.4, 7.5, 0.4));
        let est = m
            .estimate_region_avg(&tree, &region, Timestamp(2_000), TimeDelta::from_mins(5), 8)
            .unwrap();
        assert!((est - 3.5).abs() < 2.0, "got {est}");
    }

    #[test]
    #[should_panic(expected = "grid must be positive")]
    fn zero_grid_rejected() {
        let tree = seeded_tree();
        IdwModel::default().estimate_region_avg(
            &tree,
            &Region::Rect(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
            Timestamp(2_000),
            TimeDelta::from_mins(5),
            0,
        );
    }
}
