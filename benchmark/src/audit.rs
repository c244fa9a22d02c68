//! The correctness audit: what every response must satisfy, checked against
//! the benchmark's own sensor list rather than the index.

use colr_engine::QueryResponse;
use colr_geo::{Point, Rect};

use crate::probe::Charge;
use crate::world::{Workload, ROUTED_SAMPLE};

/// Audit outcome of a run: how many operations failed, and why (the first
/// few reasons only).
#[derive(Debug, Clone, Default)]
pub struct Audit {
    /// Operations (or whole-run invariants) that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Audit {
    /// Records one failure.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Audit) {
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// The checks one response must pass on its own: group counts sum to the
/// reported sample, every value is finite, a fanned-out request's shard
/// targets sum to R, and the frozen-clock read workloads contact no sensor.
pub fn check_response(
    workload: Workload,
    resp: &QueryResponse,
    charge: &Charge,
) -> Result<(), String> {
    let result = &resp.result;
    let grouped: u64 = result.groups.iter().map(|g| g.count).sum();
    if grouped != result.degradation.sampled {
        return Err(format!(
            "group counts sum to {grouped}, degradation.sampled = {}",
            result.degradation.sampled
        ));
    }
    let finite = result.value.is_none_or(f64::is_finite)
        && result
            .groups
            .iter()
            .all(|g| g.value.is_none_or(f64::is_finite));
    if !finite {
        return Err("non-finite value in the answer".to_owned());
    }
    if resp.shards.len() > 1 {
        let routed: f64 = resp.shards.iter().map(|s| s.requested).sum();
        if routed != ROUTED_SAMPLE as f64 {
            return Err(format!(
                "shard targets sum to {routed}, R = {ROUTED_SAMPLE}"
            ));
        }
    }
    if matches!(workload, Workload::WarmPan | Workload::RoutedWide) && charge.probes != 0 {
        return Err(format!("{} probes on a warm workload", charge.probes));
    }
    Ok(())
}

/// A flat list of sensor locations, sorted by x so a viewport count scans
/// only its x-range. Independent of every index structure under test.
pub struct Census {
    by_x: Vec<Point>,
}

impl Census {
    /// A census of `points`.
    pub fn new(mut points: Vec<Point>) -> Census {
        points.sort_by(|a, b| a.x.total_cmp(&b.x));
        Census { by_x: points }
    }

    /// Points inside `rect`, borders included.
    pub fn count_in(&self, rect: &Rect) -> u64 {
        let from = self.by_x.partition_point(|p| p.x < rect.min.x);
        self.by_x[from..]
            .iter()
            .take_while(|p| p.x <= rect.max.x)
            .filter(|p| p.y >= rect.min.y && p.y <= rect.max.y)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_like_a_flat_scan() {
        let points: Vec<Point> = (0..200)
            .map(|i| Point::new(f64::from(i % 20) * 1.5, f64::from(i / 20) * 2.0))
            .collect();
        let census = Census::new(points.clone());
        for rect in [
            Rect::from_coords(0.0, 0.0, 30.0, 20.0),
            Rect::from_coords(3.0, 2.0, 9.0, 8.0),
            Rect::from_coords(100.0, 0.0, 200.0, 5.0),
        ] {
            let flat = points.iter().filter(|p| rect.contains_point(p)).count() as u64;
            assert_eq!(census.count_in(&rect), flat, "{rect:?}");
        }
    }
}
