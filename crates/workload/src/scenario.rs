//! Ready-to-run experiment scenarios: sensors + query trace from one seed.

use colr_geo::Rect;
use colr_sensors::{FaultEvent, FaultPlan};
use colr_tree::{SensorMeta, TimeDelta, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::expiry::ExpiryModel;
use crate::placement::PlacementModel;
use crate::queries::{QueryWorkload, QueryWorkloadConfig};

/// Full description of a workload scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of sensors (the paper's restaurant directory has ~370k).
    pub sensor_count: usize,
    /// Spatial extent of the deployment.
    pub extent: Rect,
    /// Placement model.
    pub placement: PlacementModel,
    /// Expiry-time distribution.
    pub expiry: ExpiryModel,
    /// Maximum expiry duration `t_max`.
    pub t_max: TimeDelta,
    /// Historical availability range (uniform per sensor).
    pub availability: (f64, f64),
    /// Query trace configuration.
    pub queries: QueryWorkloadConfig,
    /// Master seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The default scaled-down Live-Local-like scenario: clustered sensors,
    /// hotspot viewport queries, heterogeneous expiry and availability.
    /// Preserves the shape of the paper's 370k-sensor / 106k-query workload
    /// at a size that runs in seconds.
    pub fn live_local_small() -> ScenarioConfig {
        ScenarioConfig {
            sensor_count: 40_000,
            extent: Rect::from_coords(0.0, 0.0, 4_000.0, 2_500.0),
            placement: PlacementModel::live_local(),
            expiry: ExpiryModel::Uniform,
            t_max: TimeDelta::from_mins(10),
            availability: (0.75, 1.0),
            queries: QueryWorkloadConfig {
                count: 2_000,
                ..Default::default()
            },
            seed: 20080407, // ICDE 2008
        }
    }

    /// Paper-scale workload: ~370k sensors, ~106k queries. Minutes, not
    /// seconds — used behind the experiments binary's `--full` flag.
    pub fn live_local_full() -> ScenarioConfig {
        ScenarioConfig {
            sensor_count: 370_000,
            queries: QueryWorkloadConfig {
                count: 106_000,
                ..Default::default()
            },
            ..ScenarioConfig::live_local_small()
        }
    }

    /// Builds the scenario.
    pub fn build(&self) -> Scenario {
        let locations = self
            .placement
            .place(self.extent, self.sensor_count, self.seed);
        let expiries =
            self.expiry
                .durations(self.sensor_count, self.t_max, self.seed ^ 0x5eed_e791);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xa7a1_1ab1e);
        let (alo, ahi) = self.availability;
        let sensors: Vec<SensorMeta> = locations
            .into_iter()
            .zip(expiries)
            .enumerate()
            .map(|(i, (loc, exp))| SensorMeta::new(i as u32, loc, exp, rng.random_range(alo..=ahi)))
            .collect();
        let centres = self.placement.centres(self.extent, self.seed);
        let queries =
            QueryWorkload::generate(self.extent, &centres, &self.queries, self.seed ^ 0x9ee7);
        Scenario {
            sensors,
            queries,
            extent: self.extent,
            t_max: self.t_max,
        }
    }
}

/// A built scenario: the registered sensors and the query trace.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registered sensors (dense ids).
    pub sensors: Vec<SensorMeta>,
    /// Query trace in arrival order.
    pub queries: QueryWorkload,
    /// Deployment extent.
    pub extent: Rect,
    /// Maximum expiry (`t_max`).
    pub t_max: TimeDelta,
}

impl Scenario {
    /// A rectangle covering approximately `fraction` of this scenario's
    /// sensors: the vertical strip left of the `fraction`-quantile of the
    /// sensor x-coordinates. Deterministic — driven by the placed sensors,
    /// not a new random draw — so fault experiments replay exactly.
    pub fn outage_region(&self, fraction: f64) -> Rect {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "outage fraction must be in [0, 1], got {fraction}"
        );
        if self.sensors.is_empty() || fraction == 0.0 {
            // Empty strip outside the extent: downs nothing.
            let x = self.extent.min.x - 2.0;
            return Rect::from_coords(x, self.extent.min.y, x + 1.0, self.extent.max.y);
        }
        let mut xs: Vec<f64> = self.sensors.iter().map(|m| m.location.x).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let idx = (((xs.len() as f64) * fraction).ceil() as usize)
            .clamp(1, xs.len())
            .saturating_sub(1);
        // Nudge the cut just past the quantile sensor so it is inside.
        let cut = xs[idx] + 1e-9;
        Rect::from_coords(
            self.extent.min.x - 1.0,
            self.extent.min.y - 1.0,
            cut,
            self.extent.max.y + 1.0,
        )
    }

    /// A plan downing ~`fraction` of the sensors (a vertical strip) for
    /// `[from, until)`.
    pub fn regional_outage(&self, fraction: f64, from: Timestamp, until: Timestamp) -> FaultPlan {
        FaultPlan::new().with(FaultEvent::RegionalOutage {
            region: self.outage_region(fraction),
            from,
            until,
        })
    }

    /// Partitions this scenario's sensors into `shards` spatial groups with
    /// the same k-means grid the bulk build uses
    /// ([`colr_tree::kmeans_partition`]) — the shard map a sharded portal
    /// would derive from this population. Returns per-shard index lists
    /// (each sorted ascending); deterministic in `seed`.
    pub fn shard_groups(&self, shards: usize, seed: u64) -> Vec<Vec<usize>> {
        let points: Vec<_> = self.sensors.iter().map(|m| m.location).collect();
        let mut groups = colr_tree::kmeans_partition(&points, shards.max(1), seed);
        for g in &mut groups {
            g.sort_unstable();
        }
        groups
    }

    /// How many of `rects` (one bounding box per shard) each query in the
    /// trace overlaps — the fan-out histogram a scatter-gather router would
    /// see under this workload. `fanout[i]` is the shard count for query
    /// `i`; a query overlapping nothing counts as 1 (routers still forward
    /// it somewhere).
    pub fn shard_fanout(&self, rects: &[Rect]) -> Vec<usize> {
        self.queries
            .queries
            .iter()
            .map(|q| {
                rects
                    .iter()
                    .filter(|r| q.rect.intersection(r).is_some())
                    .count()
                    .max(1)
            })
            .collect()
    }

    /// A composite stress plan over `[from, until)`: a regional outage of
    /// ~`outage_fraction` of the fleet, fleet-wide availability drifting
    /// down to `drift_floor` (and staying there), a 3x latency spike over
    /// the middle third of the window, and one flapping sensor.
    pub fn mixed_faults(
        &self,
        outage_fraction: f64,
        drift_floor: f64,
        from: Timestamp,
        until: Timestamp,
    ) -> FaultPlan {
        let span = until.0.saturating_sub(from.0);
        let mut plan = self
            .regional_outage(outage_fraction, from, until)
            .with(FaultEvent::AvailabilityDrift {
                from,
                until,
                start_factor: 1.0,
                end_factor: drift_floor,
            })
            .with(FaultEvent::LatencySpike {
                from: Timestamp(from.0 + span / 3),
                until: Timestamp(from.0 + 2 * span / 3),
                factor: 3.0,
            });
        if let Some(m) = self.sensors.last() {
            plan.push(FaultEvent::Flapping {
                sensor: m.id,
                period: TimeDelta::from_secs(30),
                up_fraction: 0.5,
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds_consistently() {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.sensor_count = 2_000;
        cfg.queries.count = 100;
        let s = cfg.build();
        assert_eq!(s.sensors.len(), 2_000);
        assert_eq!(s.queries.queries.len(), 100);
        for (i, m) in s.sensors.iter().enumerate() {
            assert_eq!(m.id.index(), i);
            assert!(s.extent.contains_point(&m.location));
            assert!(m.expiry <= s.t_max);
            assert!((0.75..=1.0).contains(&m.availability));
        }
    }

    #[test]
    fn build_is_deterministic() {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.sensor_count = 500;
        cfg.queries.count = 50;
        let a = cfg.build();
        let b = cfg.build();
        assert_eq!(a.sensors, b.sensors);
        assert_eq!(a.queries.queries, b.queries.queries);
    }

    #[test]
    fn full_config_scales_counts() {
        let cfg = ScenarioConfig::live_local_full();
        assert_eq!(cfg.sensor_count, 370_000);
        assert_eq!(cfg.queries.count, 106_000);
    }

    #[test]
    fn outage_region_covers_requested_fraction() {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.sensor_count = 4_000;
        cfg.queries.count = 1;
        let s = cfg.build();
        for fraction in [0.1, 0.3, 0.5] {
            let region = s.outage_region(fraction);
            let covered = s
                .sensors
                .iter()
                .filter(|m| region.contains_point(&m.location))
                .count() as f64
                / s.sensors.len() as f64;
            // The quantile cut lands on a sensor coordinate, so coverage can
            // only overshoot by ties at the cut — allow a small band.
            assert!(
                (covered - fraction).abs() < 0.02,
                "fraction {fraction}: covered {covered}"
            );
        }
        // Degenerate fraction downs nothing.
        let none = s.outage_region(0.0);
        assert!(!s.sensors.iter().any(|m| none.contains_point(&m.location)));
    }

    #[test]
    fn shard_groups_partition_the_population() {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.sensor_count = 1_000;
        cfg.queries.count = 1;
        let s = cfg.build();
        let groups = s.shard_groups(4, 7);
        assert!(!groups.is_empty() && groups.len() <= 4);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1_000).collect::<Vec<_>>(), "exact partition");
        for g in &groups {
            assert!(g.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        }
        // Deterministic in the seed.
        assert_eq!(groups, s.shard_groups(4, 7));
        // One shard is the identity partition.
        assert_eq!(s.shard_groups(1, 7), vec![(0..1_000).collect::<Vec<_>>()]);
    }

    #[test]
    fn shard_fanout_counts_overlapping_rects() {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.sensor_count = 1_000;
        cfg.queries.count = 200;
        let s = cfg.build();
        // Split the extent into left/right halves.
        let mid = (s.extent.min.x + s.extent.max.x) / 2.0;
        let halves = [
            Rect::from_coords(s.extent.min.x, s.extent.min.y, mid, s.extent.max.y),
            Rect::from_coords(mid, s.extent.min.y, s.extent.max.x, s.extent.max.y),
        ];
        let fanout = s.shard_fanout(&halves);
        assert_eq!(fanout.len(), 200);
        assert!(fanout.iter().all(|&f| (1..=2).contains(&f)));
        // Viewports are small relative to the extent: most stay on one side.
        let single = fanout.iter().filter(|&&f| f == 1).count();
        assert!(single > 0, "no query stayed within one shard");
        // A rect set covering nothing still routes each query somewhere.
        let nowhere = [Rect::from_coords(-10.0, -10.0, -5.0, -5.0)];
        assert!(s.shard_fanout(&nowhere).iter().all(|&f| f == 1));
    }

    #[test]
    fn mixed_faults_compose_expected_events() {
        let mut cfg = ScenarioConfig::live_local_small();
        cfg.sensor_count = 500;
        cfg.queries.count = 1;
        let s = cfg.build();
        let plan = s.mixed_faults(0.25, 0.8, Timestamp(0), Timestamp(90_000));
        assert_eq!(plan.events().len(), 4);
        // Drift is active mid-window and holds its floor afterwards.
        let mid = plan.availability_factor(Timestamp(45_000));
        assert!(mid < 1.0 && mid > 0.8);
        assert!((plan.availability_factor(Timestamp(200_000)) - 0.8).abs() < 1e-12);
        // The latency spike covers the middle third only.
        assert_eq!(plan.latency_factor(Timestamp(10_000)), 1.0);
        assert_eq!(plan.latency_factor(Timestamp(45_000)), 3.0);
    }
}
