//! Quickstart: put a portal over a small sensor deployment, ask it the
//! population of a region and a sampled spatio-temporal average, and
//! inspect what the index did. The example checks its own answers and
//! prints `quickstart OK` when they hold.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use colr_repro::colr::probe::AlwaysAvailable;
use colr_repro::colr::{SensorMeta, TimeDelta};
use colr_repro::engine::{PortalConfig, PortalResult, QueryRequest, ShardedPortal};
use colr_repro::geo::Point;

fn main() {
    // 1. Register 400 sensors on a 20x20 grid, each publishing readings that
    //    stay valid for 5 minutes, with 95% historical availability.
    let sensors: Vec<SensorMeta> = (0..400)
        .map(|i| {
            SensorMeta::new(
                i as u32,
                Point::new((i % 20) as f64, (i / 20) as f64),
                TimeDelta::from_mins(5),
                0.95,
            )
        })
        .collect();

    // 2. Bulk-build the index (bottom-up k-means clustering, Section III-C)
    //    behind a one-shard portal. The probe service stands in for the live
    //    sensor network.
    let probe = |_: usize, _: &[SensorMeta]| AlwaysAvailable { expiry_ms: 300_000 };
    let portal = ShardedPortal::new(sensors, probe, 1, PortalConfig::default());
    let snapshot = portal.shard(0).snapshot();
    let tree = snapshot.tree();
    println!(
        "built COLR-Tree: {} nodes, {} levels, slot width {}",
        tree.node_count(),
        tree.leaf_level() + 1,
        tree.slot_config().slot_width,
    );
    portal.clock().advance(TimeDelta::from_secs(1));
    let ask = |sql: &str| -> PortalResult {
        let req = QueryRequest::from_sql(sql).expect("quickstart SQL parses");
        portal.execute(&req).expect("the portal answers").result
    };

    // 3. How many sensors are in the left half of the map? A `count(*)`
    //    without SAMPLESIZE is read from the index's live counts: exact, and
    //    no sensor is contacted.
    let left_half = "FROM sensor WHERE location WITHIN RECT(-0.5, -0.5, 9.5, 19.5)";
    let population = ask(&format!("SELECT count(*) {left_half}"));
    println!(
        "\ncount(*): {:?} sensors in the region, {} probed",
        population.value, population.stats.sensors_probed,
    );

    // 4. Their average reading, at most 2 minutes stale, from ~25 of them.
    let sampled = format!(
        "SELECT avg(value) {left_half} AND time BETWEEN now()-2 AND now() mins \
         CLUSTER 3 SAMPLESIZE 25"
    );
    let cold = ask(&sampled);
    println!(
        "cold avg(value) ≈ {:.1}: probed {} of 200 region sensors for {} readings, latency {:.1} ms",
        cold.value.unwrap_or(f64::NAN),
        cold.stats.sensors_probed,
        cold.degradation.sampled,
        cold.latency_ms,
    );

    // 5. Re-issue it a few seconds later: the slot caches answer most of it
    //    without touching the network.
    portal.clock().advance(TimeDelta::from_secs(9));
    let warm = ask(&sampled);
    println!(
        "warm avg(value) ≈ {:.1}: probed {}, served {} readings + {} aggregate nodes from cache, \
         latency {:.1} ms",
        warm.value.unwrap_or(f64::NAN),
        warm.stats.sensors_probed,
        warm.stats.readings_from_cache,
        warm.stats.cache_nodes_used,
        warm.latency_ms,
    );

    // 6. Each group is one map icon: a bounding box plus an aggregate.
    println!("\nresult groups (map icons):");
    for g in warm.groups.iter().take(5) {
        println!(
            "  bbox [{:.1},{:.1}]–[{:.1},{:.1}]  {} readings{}",
            g.bbox.min.x,
            g.bbox.min.y,
            g.bbox.max.x,
            g.bbox.max.y,
            g.count,
            if g.from_cache { "  (from cache)" } else { "" },
        );
    }
    if warm.groups.len() > 5 {
        println!("  ... and {} more", warm.groups.len() - 5);
    }

    assert_eq!(population.value, Some(200.0), "the left half holds 200");
    assert_eq!(
        population.stats.sensors_probed, 0,
        "a bare count probes nothing"
    );
    assert!(
        (1..=100).contains(&cold.stats.sensors_probed),
        "SAMPLESIZE 25 bounds the cold probes"
    );
    assert!(
        warm.stats.sensors_probed < cold.stats.sensors_probed,
        "the warm query probes less than the cold one"
    );
    println!("\nquickstart OK");
}
