//! The Restaurant Finder service from the paper's introduction, end to end:
//! restaurants publish live waiting times; users pan a map and ask for the
//! distribution of waiting times in view, grouped by neighbourhood.
//!
//! ```sh
//! cargo run --example restaurant_finder
//! ```

use colr_repro::colr::TimeDelta;
use colr_repro::engine::{PortalConfig, PortalService, QueryRequest};
use colr_repro::sensors::{RandomWalkField, SimNetwork};
use colr_repro::workload::{PlacementModel, QueryWorkloadConfig, ScenarioConfig};

fn main() {
    // A city-scale deployment: 12,000 restaurants clustered around 40
    // neighbourhood centres, each publishing its current waiting time (valid
    // for up to 10 minutes) with realistic availability.
    let mut cfg = ScenarioConfig::live_local_small();
    cfg.sensor_count = 12_000;
    cfg.placement = PlacementModel::Clustered {
        cities: 40,
        alpha: 1.0,
        spread: 0.015,
    };
    cfg.queries = QueryWorkloadConfig {
        count: 0, // we issue queries interactively below
        ..Default::default()
    };
    let scenario = cfg.build();

    // Waiting times drift as a bounded random walk between 0 and 90 minutes.
    let field = RandomWalkField::new(scenario.sensors.len(), 0.0, 90.0, 4.0, 11);
    let network = SimNetwork::new(scenario.sensors.clone(), field, 99);

    let portal = PortalService::new(scenario.sensors.clone(), network, PortalConfig::default());

    // A user pans to downtown (around the busiest neighbourhood) and asks
    // for restaurants with wait times, clustered at ~60 map units, sampling
    // at most 40 restaurants.
    let centre = scenario.sensors[0].location;
    let (x0, y0, x1, y1) = (
        centre.x - 150.0,
        centre.y - 150.0,
        centre.x + 150.0,
        centre.y + 150.0,
    );
    portal.clock().advance(TimeDelta::from_secs(5));
    let sql = format!(
        "SELECT avg(value) FROM sensor S \
         WHERE S.location WITHIN RECT({x0:.1}, {y0:.1}, {x1:.1}, {y1:.1}) \
         AND S.time BETWEEN now()-5 AND now() mins \
         CLUSTER 60 SAMPLESIZE 40"
    );
    println!("portal query:\n  {sql}\n");

    let request = QueryRequest::from_sql(&sql).expect("valid dialect query");
    let result = portal.execute(&request).expect("portal answers").result;
    println!(
        "average wait in view: {:.1} min (from {} sampled restaurants, {} probes, {:.1} ms)",
        result.value.unwrap_or(f64::NAN),
        result.groups.iter().map(|g| g.count).sum::<u64>(),
        result.stats.sensors_probed,
        result.latency_ms,
    );

    println!("\nneighbourhood groups:");
    for g in result.groups.iter().take(8) {
        println!(
            "  [{:6.1},{:6.1}] {:>3} restaurants, avg wait {:>5.1} min{}",
            g.bbox.center().x,
            g.bbox.center().y,
            g.count,
            g.value.unwrap_or(f64::NAN),
            if g.from_cache { "  (cached)" } else { "" },
        );
    }

    if let Some(h) = &result.histogram {
        println!("\nwaiting-time distribution (10 buckets): {:?}", h.counts());
    }

    // The user zooms in: smaller CLUSTER → finer groups, cache absorbs most
    // of the second query.
    portal.clock().advance(TimeDelta::from_secs(20));
    let zoomed = format!(
        "SELECT avg(value) FROM sensor \
         WHERE location WITHIN RECT({:.1}, {:.1}, {:.1}, {:.1}) \
         AND time BETWEEN now()-5 AND now() mins \
         CLUSTER 15 SAMPLESIZE 40",
        centre.x - 60.0,
        centre.y - 60.0,
        centre.x + 60.0,
        centre.y + 60.0,
    );
    let request = QueryRequest::from_sql(&zoomed).expect("valid dialect query");
    let result2 = portal.execute(&request).expect("portal answers").result;
    println!(
        "\nafter zoom-in: {} finer groups, {} probes ({} readings straight from cache)",
        result2.groups.len(),
        result2.stats.sensors_probed,
        result2.stats.readings_from_cache,
    );
}
