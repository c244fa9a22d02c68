//! The flat-cache baseline (Section VII-C).
//!
//! The simplest collection-aware design the paper compares against: a single
//! unindexed pool of raw sensor readings. Query processing scans the entire
//! pool for fresh readings inside the region, then probes every remaining
//! region sensor. No spatial index, no aggregates, no sampling — it bounds
//! what caching alone (without indexing) buys.

use colr_geo::Region;

use crate::probe::ProbeService;
use crate::reading::{Reading, SensorId, SensorMeta};
use crate::stats::{CostModel, QueryStats};
use crate::time::{TimeDelta, Timestamp};

/// An unindexed pool of cached raw readings over a registered sensor set.
#[derive(Debug, Clone)]
pub struct FlatCache {
    sensors: Vec<SensorMeta>,
    /// Cached reading per sensor (dense, `None` = not cached).
    cached: Vec<Option<(Reading, Timestamp)>>,
    /// Number of `Some` entries.
    occupancy: usize,
    /// Optional cap on cached readings; evicts least recently fetched.
    capacity: Option<usize>,
    cost: CostModel,
}

/// Result of a flat-cache query.
#[derive(Debug, Clone)]
pub struct FlatOutput {
    /// Readings returned (cached fresh + probed).
    pub readings: Vec<Reading>,
    /// Structural counters.
    pub stats: QueryStats,
    /// Modelled latency in milliseconds.
    pub latency_ms: f64,
}

impl FlatCache {
    /// Creates a flat cache over `sensors` with an optional capacity.
    pub fn new(sensors: Vec<SensorMeta>, capacity: Option<usize>, cost: CostModel) -> Self {
        let n = sensors.len();
        FlatCache {
            sensors,
            cached: vec![None; n],
            occupancy: 0,
            capacity,
            cost,
        }
    }

    /// Number of readings currently cached.
    pub fn cached_readings(&self) -> usize {
        self.occupancy
    }

    /// Processes a range query: scan the whole pool, use fresh cached
    /// readings in the region, probe every other sensor in the region.
    pub fn query<P: ProbeService + ?Sized>(
        &mut self,
        region: &Region,
        staleness: TimeDelta,
        probe: &P,
        now: Timestamp,
    ) -> FlatOutput {
        let mut stats = QueryStats::default();
        let mut readings = Vec::new();
        let mut to_probe: Vec<SensorId> = Vec::new();

        // The scan is over the entire pool — the flat cache has no index.
        for meta in &self.sensors {
            stats.entries_scanned += 1;
            if !region.contains_point(&meta.location) {
                continue;
            }
            match &self.cached[meta.id.index()] {
                Some((r, _)) if r.is_fresh(now, staleness) => {
                    stats.readings_from_cache += 1;
                    readings.push(*r);
                }
                _ => to_probe.push(meta.id),
            }
        }

        let outcomes = probe.probe_batch(&to_probe, now);
        stats.sensors_probed += to_probe.len() as u64;
        stats.probe_waves = self.cost.primary_waves(stats.sensors_probed);
        for outcome in outcomes {
            match outcome {
                Some(r) => {
                    self.insert(r, now);
                    stats.cache_inserts += 1;
                    readings.push(r);
                }
                None => stats.probes_failed += 1,
            }
        }
        let latency_ms = self.cost.latency_ms(&stats);
        FlatOutput {
            readings,
            stats,
            latency_ms,
        }
    }

    /// Caches a reading, evicting the least recently fetched entry when over
    /// capacity.
    pub fn insert(&mut self, reading: Reading, now: Timestamp) {
        let idx = reading.sensor.index();
        if self.cached[idx].is_none() {
            self.occupancy += 1;
        }
        self.cached[idx] = Some((reading, now));
        if let Some(cap) = self.capacity {
            while self.occupancy > cap {
                // Evict the least recently fetched entry (linear scan — the
                // flat cache is deliberately unsophisticated).
                let victim = self
                    .cached
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| e.map(|(_, f)| (f, i)))
                    .min()
                    .map(|(_, i)| i);
                match victim {
                    Some(i) => {
                        self.cached[i] = None;
                        self.occupancy -= 1;
                    }
                    None => break,
                }
            }
        }
    }

    /// Drops expired readings (housekeeping between experiment phases).
    pub fn expire(&mut self, now: Timestamp) {
        for entry in &mut self.cached {
            if matches!(entry, Some((r, _)) if !r.is_live(now)) {
                *entry = None;
                self.occupancy -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::AlwaysAvailable;
    use colr_geo::{Point, Rect};

    const EXPIRY_MS: u64 = 300_000;

    fn sensors(n: usize) -> Vec<SensorMeta> {
        (0..n)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new(i as f64, 0.0),
                    TimeDelta::from_millis(EXPIRY_MS),
                    1.0,
                )
            })
            .collect()
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::Rect(Rect::from_coords(lo, -1.0, hi, 1.0))
    }

    #[test]
    fn scans_entire_pool_every_query() {
        let mut fc = FlatCache::new(sensors(100), None, CostModel::default());
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        let out = fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(1_000),
        );
        assert_eq!(out.stats.entries_scanned, 100);
        assert_eq!(out.stats.sensors_probed, 10);
        assert_eq!(out.readings.len(), 10);
    }

    #[test]
    fn warm_cache_avoids_probes() {
        let mut fc = FlatCache::new(sensors(100), None, CostModel::default());
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(1_000),
        );
        let out = fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(2_000),
        );
        assert_eq!(out.stats.sensors_probed, 0);
        assert_eq!(out.stats.readings_from_cache, 10);
        assert_eq!(out.readings.len(), 10);
    }

    #[test]
    fn staleness_bound_forces_reprobe() {
        let mut fc = FlatCache::new(sensors(100), None, CostModel::default());
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(1_000),
        );
        let out = fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_secs(30),
            &probe,
            Timestamp(1_000 + 60_000),
        );
        assert_eq!(out.stats.sensors_probed, 10);
    }

    #[test]
    fn capacity_evicts_least_recently_fetched() {
        let mut fc = FlatCache::new(sensors(100), Some(5), CostModel::default());
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(1_000),
        );
        assert_eq!(fc.cached_readings(), 5);
    }

    #[test]
    fn expire_drops_dead_readings() {
        let mut fc = FlatCache::new(sensors(10), None, CostModel::default());
        let probe = AlwaysAvailable { expiry_ms: 1_000 };
        fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(0),
        );
        assert_eq!(fc.cached_readings(), 10);
        fc.expire(Timestamp(2_000));
        assert_eq!(fc.cached_readings(), 0);
    }

    #[test]
    fn latency_includes_scan_cost() {
        let mut fc = FlatCache::new(sensors(1_000), None, CostModel::default());
        let probe = AlwaysAvailable {
            expiry_ms: EXPIRY_MS,
        };
        // Warm then re-query: no probes, only the pool scan remains.
        fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(1_000),
        );
        let out = fc.query(
            &region(0.0, 9.5),
            TimeDelta::from_mins(5),
            &probe,
            Timestamp(2_000),
        );
        assert!(out.latency_ms > 0.0);
        assert_eq!(out.stats.entries_scanned, 1_000);
    }
}
