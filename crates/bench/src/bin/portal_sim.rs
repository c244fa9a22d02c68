//! Full-stack portal simulation: replays a generated Live-Local-like trace
//! through the SensorMap portal layer (parser → planner → COLR-Tree →
//! simulated network) and prints an operations-style summary.
//!
//! ```text
//! portal_sim [--sensors N] [--queries N] [--mode colr|hier|rtree] [--samplesize R]
//! ```

use colr_bench::mean;
use colr_engine::{PortalConfig, PortalService, QueryRequest};
use colr_sensors::{RandomWalkField, SimNetwork};
use colr_tree::{Mode, Timestamp};
use colr_workload::{QueryWorkloadConfig, ScenarioConfig};

fn main() {
    let mut sensors = 20_000usize;
    let mut queries = 1_000usize;
    let mut mode = Mode::Colr;
    let mut samplesize = 50usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sensors" => sensors = it.next().and_then(|v| v.parse().ok()).expect("--sensors N"),
            "--queries" => queries = it.next().and_then(|v| v.parse().ok()).expect("--queries N"),
            "--samplesize" => {
                samplesize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samplesize R")
            }
            "--mode" => {
                mode = match it.next().as_deref() {
                    Some("colr") => Mode::Colr,
                    Some("hier") => Mode::HierCache,
                    Some("rtree") => Mode::RTree,
                    other => panic!("--mode colr|hier|rtree, got {other:?}"),
                }
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let mut cfg = ScenarioConfig::live_local_small();
    cfg.sensor_count = sensors;
    cfg.queries = QueryWorkloadConfig {
        count: queries,
        ..Default::default()
    };
    let sc = cfg.build();
    println!(
        "portal_sim: {sensors} sensors, {queries} queries, mode {mode:?}, SAMPLESIZE {samplesize}"
    );

    let field = RandomWalkField::new(sc.sensors.len(), 0.0, 60.0, 2.0, 9);
    let network = SimNetwork::new(sc.sensors.clone(), field, 5);
    let portal = PortalService::new(
        sc.sensors.clone(),
        network,
        PortalConfig {
            mode,
            max_sensors_per_query: Some(samplesize),
            ..Default::default()
        },
    );

    let t0 = std::time::Instant::now();
    let mut latencies = Vec::with_capacity(queries);
    let mut probes = Vec::with_capacity(queries);
    let mut cache_hits = 0u64;
    let mut empty = 0usize;
    for spec in &sc.queries.queries {
        portal.clock().advance_to(Timestamp(spec.at.millis()));
        let sql = format!(
            "SELECT avg(value) FROM sensor WHERE location WITHIN RECT({}, {}, {}, {}) \
             AND time BETWEEN now()-{} AND now() secs CLUSTER 50",
            spec.rect.min.x,
            spec.rect.min.y,
            spec.rect.max.x,
            spec.rect.max.y,
            spec.staleness.millis() / 1_000,
        );
        let req = QueryRequest::from_sql(&sql).expect("dialect query");
        let res = portal.execute(&req).expect("portal answers").result;
        latencies.push(res.latency_ms);
        probes.push(res.stats.sensors_probed as f64);
        cache_hits += res.stats.cache_nodes_used + res.stats.readings_from_cache;
        if res.value.is_none() {
            empty += 1;
        }
    }
    let wall = t0.elapsed();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| latencies[((p / 100.0) * (latencies.len() - 1) as f64) as usize];
    println!(
        "\nreplay done in {wall:.1?} ({:.0} queries/s wall-clock)",
        queries as f64 / wall.as_secs_f64()
    );
    println!(
        "modelled latency: mean {:.1} ms, p50 {:.1}, p95 {:.1}, p99 {:.1}",
        mean(latencies.iter().copied()),
        pct(50.0),
        pct(95.0),
        pct(99.0)
    );
    println!("probes/query: mean {:.1}", mean(probes.iter().copied()));
    println!("cache contributions (aggregate nodes + raw readings): {cache_hits}");
    println!("queries with empty result: {empty}");
    println!(
        "network totals: {} probes issued across {} sensors",
        portal.probe().total_probes(),
        sensors,
    );
    println!(
        "cached readings at end: {}",
        portal.snapshot().tree().cached_readings()
    );
    let span = portal.now().millis() as f64 / 60_000.0;
    println!("simulated span: {span:.1} minutes");
}
