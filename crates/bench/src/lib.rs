//! # colr-bench
//!
//! The benchmark harness reproducing the paper's evaluation (Section VII).
//! The `experiments` binary regenerates every table and figure; timing the
//! serving stack is `benchmark/`'s job (its per-layer rows).
//!
//! This library holds the shared setup (scenario construction, trace replay,
//! per-query measurement records), the [`Table`] every figure returns, and
//! the [`claims`] each run checks those tables against.

#![forbid(unsafe_code)]

pub mod claims;
mod table;

pub use table::{Cell, Table};

use colr_geo::Region;
use colr_tree::{ColrConfig, ColrTree, FlatCache, Mode, ProbeService, Query, QueryStats};
use colr_workload::{Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-query measurement record.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Collection/traversal counters.
    pub stats: QueryStats,
    /// Modelled latency, ms.
    pub latency_ms: f64,
    /// Readings represented in the answer.
    pub result_size: u64,
    /// Probe-discretisation error of this query (Fig 6).
    pub pde: f64,
}

/// Replay parameters for a query trace. Every replayed query has terminal
/// level `T` = 3 and oversample level `O` = 1.
#[derive(Debug, Clone, Copy)]
pub struct ReplayParams {
    /// Index mode.
    pub mode: Mode,
    /// `SAMPLESIZE` per query (`None` = collect everything).
    pub sample_size: Option<f64>,
    /// Staleness override; `None` keeps each query's own freshness bound.
    pub staleness_override: Option<colr_tree::TimeDelta>,
}

impl Default for ReplayParams {
    fn default() -> Self {
        ReplayParams {
            mode: Mode::Colr,
            sample_size: Some(100.0),
            staleness_override: None,
        }
    }
}

/// Replays the scenario's query trace against a tree, collecting one
/// [`Measurement`] per query.
pub fn replay<P: ProbeService>(
    tree: &ColrTree,
    scenario: &Scenario,
    probe: &P,
    params: ReplayParams,
    seed: u64,
) -> Vec<Measurement> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(scenario.queries.queries.len());
    for spec in &scenario.queries.queries {
        let staleness = params.staleness_override.unwrap_or(spec.staleness);
        let mut query = Query::range(spec.rect, staleness)
            .with_terminal_level(3)
            .with_oversample_level(1);
        if let Some(r) = params.sample_size {
            query = query.with_sample_size(r);
        }
        let res = tree.execute(&query, params.mode, probe, spec.at, &mut rng);
        out.push(Measurement {
            stats: res.stats,
            latency_ms: res.latency_ms,
            result_size: res.result_size(),
            pde: colr_tree::metrics::probe_discretisation_error(&res),
        });
    }
    out
}

/// Replays the trace against the flat-cache baseline.
pub fn replay_flat<P: ProbeService>(
    flat: &mut FlatCache,
    scenario: &Scenario,
    probe: &P,
    staleness_override: Option<colr_tree::TimeDelta>,
) -> Vec<Measurement> {
    let mut out = Vec::with_capacity(scenario.queries.queries.len());
    for spec in &scenario.queries.queries {
        let staleness = staleness_override.unwrap_or(spec.staleness);
        let region = Region::Rect(spec.rect);
        let res = flat.query(&region, staleness, probe, spec.at);
        out.push(Measurement {
            stats: res.stats,
            latency_ms: res.latency_ms,
            result_size: res.readings.len() as u64,
            pde: 0.0,
        });
    }
    out
}

/// The number of sensors inside each query's region, in trace order: the
/// "ideal result set size" of Figs 3 and 6.
pub fn ideal_sizes(scenario: &Scenario) -> Vec<u64> {
    scenario
        .queries
        .queries
        .iter()
        .map(|spec| {
            let inside = |m: &&colr_tree::SensorMeta| spec.rect.contains_point(&m.location);
            scenario.sensors.iter().filter(inside).count() as u64
        })
        .collect()
}

/// Builds the default experiment scenario (scaled-down Live-Local shape) or
/// the paper-scale one.
pub fn scenario(full: bool, queries: Option<usize>, sensors: Option<usize>) -> Scenario {
    let mut cfg = if full {
        ScenarioConfig::live_local_full()
    } else {
        ScenarioConfig::live_local_small()
    };
    if let Some(q) = queries {
        cfg.queries.count = q;
    }
    if let Some(s) = sensors {
        cfg.sensor_count = s;
    }
    cfg.build()
}

/// Builds a tree over a scenario with an optional cache capacity.
pub fn build_tree(scenario: &Scenario, cache_capacity: Option<usize>) -> ColrTree {
    let config = ColrConfig {
        cache_capacity,
        ..Default::default()
    };
    ColrTree::build(scenario.sensors.clone(), config, 1)
}

/// Mean of an iterator of f64.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colr_sensors::{RandomWalkField, SimNetwork};

    #[test]
    fn replay_produces_one_measurement_per_query() {
        let sc = scenario(false, Some(25), Some(2_000));
        let tree = build_tree(&sc, None);
        let field = RandomWalkField::new(sc.sensors.len(), 0.0, 60.0, 2.0, 9);
        let net = SimNetwork::new(sc.sensors.clone(), field, 5);
        let ms = replay(&tree, &sc, &net, ReplayParams::default(), 3);
        assert_eq!(ms.len(), 25);
        assert!(ms.iter().any(|m| m.stats.sensors_probed > 0));
    }

    #[test]
    fn colr_probes_less_than_rtree_on_average() {
        let sc = scenario(false, Some(40), Some(4_000));
        let field = RandomWalkField::new(sc.sensors.len(), 0.0, 60.0, 2.0, 9);

        let tree_r = build_tree(&sc, None);
        let net_r = SimNetwork::new(
            sc.sensors.clone(),
            RandomWalkField::new(sc.sensors.len(), 0.0, 60.0, 2.0, 9),
            5,
        );
        let rtree = replay(
            &tree_r,
            &sc,
            &net_r,
            ReplayParams {
                mode: Mode::RTree,
                sample_size: None,
                ..Default::default()
            },
            3,
        );

        let tree_c = build_tree(&sc, None);
        let net_c = SimNetwork::new(sc.sensors.clone(), field, 5);
        let colr = replay(
            &tree_c,
            &sc,
            &net_c,
            ReplayParams {
                mode: Mode::Colr,
                sample_size: Some(30.0),
                ..Default::default()
            },
            3,
        );

        let probes_r = mean(rtree.iter().map(|m| m.stats.sensors_probed as f64));
        let probes_c = mean(colr.iter().map(|m| m.stats.sensors_probed as f64));
        assert!(probes_c < probes_r, "colr {probes_c} !< rtree {probes_r}");
    }

    #[test]
    fn flat_replay_scans_pool() {
        let sc = scenario(false, Some(5), Some(1_000));
        let mut flat = FlatCache::new(sc.sensors.clone(), None);
        let field = RandomWalkField::new(sc.sensors.len(), 0.0, 60.0, 2.0, 9);
        let net = SimNetwork::new(sc.sensors.clone(), field, 5);
        let ms = replay_flat(&mut flat, &sc, &net, None);
        assert_eq!(ms.len(), 5);
        assert!(ms.iter().all(|m| m.stats.entries_scanned == 1_000));
    }
}
