//! Regenerates every table and figure of the COLR-Tree paper (Section VII).
//!
//! ```text
//! experiments <fig2|fig3|fig4|fig5|fig6|fig7|headline|all> [--full]
//!     [--queries N] [--sensors N] [--out DIR]
//! ```
//!
//! Default scale preserves every reported *shape* while running in seconds;
//! `--full` uses the paper's 370k sensors / 106k queries. CSV series land in
//! `--out DIR` (default `target/experiments`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use colr_bench::{build_tree, mean, replay, replay_flat, scenario, Measurement, ReplayParams};
use colr_geo::{Rect, Region};
use colr_sensors::{RandomWalkField, SimNetwork, SpatialField};
use colr_tree::{
    metrics, slot_size, BuildStrategy, ColrConfig, ColrTree, FlatCache, Mode, Query, SensorMeta,
    SlotSizeWorkload, TimeDelta, Timestamp,
};
use colr_workload::{ExpiryModel, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    command: String,
    full: bool,
    queries: Option<usize>,
    sensors: Option<usize>,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_owned(),
        full: false,
        queries: None,
        sensors: None,
        out: PathBuf::from("target/experiments"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => args.full = true,
            "--queries" => {
                args.queries = Some(it.next().and_then(|v| v.parse().ok()).expect("--queries N"))
            }
            "--sensors" => {
                args.sensors = Some(it.next().and_then(|v| v.parse().ok()).expect("--sensors N"))
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out DIR")),
            cmd if !cmd.starts_with('-') => args.command = cmd.to_owned(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn write_csv(out: &PathBuf, name: &str, header: &str, rows: &[String]) {
    fs::create_dir_all(out).expect("create out dir");
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    let path = out.join(name);
    fs::write(&path, body).expect("write csv");
    println!("  [csv] {}", path.display());
}

/// The p-th percentile of a sample (nearest-rank).
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn net_for(scenario: &Scenario, seed: u64) -> SimNetwork<RandomWalkField> {
    let field = RandomWalkField::new(scenario.sensors.len(), 0.0, 60.0, 2.0, seed);
    SimNetwork::new(scenario.sensors.clone(), field, seed)
}

// ---------------------------------------------------------------------
// Fig 2 — utility/cost ratio vs slot size
// ---------------------------------------------------------------------

fn fig2(args: &Args) {
    println!("== Fig 2: utility/cost ratio vs slot size ==");
    println!("   paper: optima at Δ≈0.5 (Uniform), ≈0.8 (USGS), ≈0.2 (Weather)\n");
    let sc = scenario(args.full, args.queries, args.sensors.or(Some(10_000)));
    let windows = sc.queries.normalized_windows(sc.t_max);
    let models = [
        ("uniform", ExpiryModel::Uniform, 10_000usize),
        ("usgs", ExpiryModel::UsgsLike, 10_000),
        ("weather", ExpiryModel::WeatherLike, 1_000),
    ];
    let grid = slot_size::default_delta_grid();
    type Series = (String, Vec<(f64, f64)>, f64);
    let mut series: Vec<Series> = Vec::new();
    for (name, model, population) in models {
        let workload = SlotSizeWorkload {
            query_windows: windows.clone(),
            collection_fraction: 0.3,
            collection_cost: 1.7,
            expiry_times: model.samples(population, 17),
        };
        let sweep = workload.sweep(&grid);
        let opt = workload.optimal_slot_size(&grid);
        series.push((name.to_owned(), sweep, opt));
    }

    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "delta", "uniform", "usgs", "weather"
    );
    let mut rows = Vec::new();
    for (i, &d) in grid.iter().enumerate() {
        let u = series[0].1[i].1;
        let g = series[1].1[i].1;
        let w = series[2].1[i].1;
        println!("{d:>6.2} {u:>12.4} {g:>12.4} {w:>12.4}");
        rows.push(format!("{d},{u},{g},{w}"));
    }
    println!();
    for (name, _, opt) in &series {
        println!("  optimal slot size [{name}]: {opt:.2}");
    }
    write_csv(&args.out, "fig2.csv", "delta,uniform,usgs,weather", &rows);
}

// ---------------------------------------------------------------------
// Fig 3 — internal node traversals vs ideal result size
// ---------------------------------------------------------------------

fn fig3(args: &Args) {
    println!("== Fig 3: node traversals vs ideal result-set size ==");
    println!("   paper: R-Tree grows linearly; hier-cache and COLR traverse far fewer;");
    println!("   COLR accesses 5-8x fewer cached nodes than hier-cache\n");
    let sc = scenario(args.full, args.queries.or(Some(1_500)), args.sensors);
    let configs = [
        ("rtree", Mode::RTree, None),
        ("hier", Mode::HierCache, None),
        ("colr", Mode::Colr, Some(100.0)),
    ];
    let edges = [0u64, 25, 100, 400, 1_600, 6_400, u64::MAX];
    let label = |b: usize| -> String {
        if edges[b + 1] == u64::MAX {
            format!(">{}", edges[b])
        } else {
            format!("{}-{}", edges[b], edges[b + 1])
        }
    };
    let mut per_config: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for (name, mode, sample) in configs {
        let mut tree = build_tree(&sc, None);
        let mut net = net_for(&sc, 5);
        let ms = replay(
            &mut tree,
            &sc,
            &mut net,
            ReplayParams {
                mode,
                sample_size: sample,
                ..Default::default()
            },
            3,
        );
        let mut nodes_bins = vec![Vec::new(); edges.len() - 1];
        let mut cached_bins = vec![Vec::new(); edges.len() - 1];
        for m in &ms {
            let b = edges
                .windows(2)
                .position(|w| m.ideal_size >= w[0] && m.ideal_size < w[1])
                .unwrap();
            nodes_bins[b].push(m.stats.nodes_traversed as f64);
            cached_bins[b].push(m.stats.cache_nodes_used as f64);
        }
        per_config.push((
            name.to_owned(),
            nodes_bins.iter().map(|b| mean(b.iter().copied())).collect(),
            cached_bins
                .iter()
                .map(|b| mean(b.iter().copied()))
                .collect(),
        ));
    }
    println!(
        "{:>12} {:>10} {:>10} {:>10} | {:>11} {:>11}",
        "result size", "rtree", "hier", "colr", "hier-cached", "colr-cached"
    );
    let mut rows = Vec::new();
    for b in 0..edges.len() - 1 {
        let r = per_config[0].1[b];
        let h = per_config[1].1[b];
        let c = per_config[2].1[b];
        let hc = per_config[1].2[b];
        let cc = per_config[2].2[b];
        println!(
            "{:>12} {r:>10.1} {h:>10.1} {c:>10.1} | {hc:>11.1} {cc:>11.1}",
            label(b)
        );
        rows.push(format!("{},{r},{h},{c},{hc},{cc}", label(b)));
    }
    write_csv(
        &args.out,
        "fig3.csv",
        "result_size_bin,rtree_nodes,hier_nodes,colr_nodes,hier_cached,colr_cached",
        &rows,
    );

    // The structural property grounding this figure (Section VII-B): "near
    // uniform distributions of internal node weights per layer".
    let tree = build_tree(&sc, None);
    println!("\n  per-layer weight uniformity (CV = stddev/mean; low = uniform):");
    for s in colr_tree::inspect::level_stats(&tree) {
        println!(
            "    level {:>2}: {:>6} nodes, mean weight {:>9.1}, CV {:.2}",
            s.level, s.nodes, s.mean_weight, s.weight_cv
        );
    }
}

// ---------------------------------------------------------------------
// Fig 4 — probes & latency vs freshness window
// ---------------------------------------------------------------------

fn fig4(args: &Args) {
    println!("== Fig 4: sensor probes & latency over varying freshness windows ==");
    println!("   paper: COLR cuts probes 30-100x; latency 3-5x below hier-cache,");
    println!("   ~40ms absolute; probe curve heels at ~4 min freshness\n");
    let sc = scenario(args.full, args.queries.or(Some(1_200)), args.sensors);
    let freshness_mins = [1u64, 2, 3, 4, 5, 6, 8, 10];
    println!(
        "{:>5} {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9}",
        "mins", "flat/colr", "hier/colr", "colr_prb", "flat_lat", "hier_lat", "colr_lat"
    );
    let mut rows = Vec::new();
    for &f in &freshness_mins {
        let staleness = Some(TimeDelta::from_mins(f));

        let mut flat = FlatCache::new(sc.sensors.clone(), None);
        let mut net = net_for(&sc, 5);
        let flat_ms = replay_flat(&mut flat, &sc, &mut net, staleness);

        let mut tree_h = build_tree(&sc, None);
        let mut net_h = net_for(&sc, 5);
        let hier_ms = replay(
            &mut tree_h,
            &sc,
            &mut net_h,
            ReplayParams {
                mode: Mode::HierCache,
                sample_size: None,
                staleness_override: staleness,
                ..Default::default()
            },
            3,
        );

        let mut tree_c = build_tree(&sc, None);
        let mut net_c = net_for(&sc, 5);
        let colr_ms = replay(
            &mut tree_c,
            &sc,
            &mut net_c,
            ReplayParams {
                mode: Mode::Colr,
                sample_size: Some(30.0),
                staleness_override: staleness,
                ..Default::default()
            },
            3,
        );

        let probes = |ms: &[Measurement]| mean(ms.iter().map(|m| m.stats.sensors_probed as f64));
        let lat = |ms: &[Measurement]| mean(ms.iter().map(|m| m.latency_ms));
        let (pf, ph, pc) = (probes(&flat_ms), probes(&hier_ms), probes(&colr_ms));
        let (lf, lh, lc) = (lat(&flat_ms), lat(&hier_ms), lat(&colr_ms));
        let colr_lat: Vec<f64> = colr_ms.iter().map(|m| m.latency_ms).collect();
        let lc95 = percentile(&colr_lat, 95.0);
        println!(
            "{f:>5} {:>11.1} {:>11.1} {pc:>11.1} | {lf:>9.1} {lh:>9.1} {lc:>9.1} (p95 {lc95:>5.1})",
            pf / pc.max(1e-9),
            ph / pc.max(1e-9),
        );
        rows.push(format!("{f},{pf},{ph},{pc},{lf},{lh},{lc},{lc95}"));
    }
    write_csv(
        &args.out,
        "fig4.csv",
        "freshness_mins,flat_probes,hier_probes,colr_probes,flat_latency_ms,hier_latency_ms,colr_latency_ms,colr_latency_p95_ms",
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 5 + Fig 6 — cache size × sample size sweeps
// ---------------------------------------------------------------------

fn fig56(args: &Args, which: &str) {
    let sc = scenario(args.full, args.queries.or(Some(1_200)), args.sensors);
    let n = sc.sensors.len();
    let cache_fracs = [0.16, 0.24, 0.32];
    let samples = [100.0, 1_000.0, 10_000.0];
    type Cell = (f64, f64, f64, f64, f64);
    let mut results: BTreeMap<(usize, usize), Cell> = BTreeMap::new();
    for (ci, &cf) in cache_fracs.iter().enumerate() {
        for (si, &r) in samples.iter().enumerate() {
            let cap = (n as f64 * cf) as usize;
            let mut tree = build_tree(&sc, Some(cap));
            let mut net = net_for(&sc, 5);
            let ms = replay(
                &mut tree,
                &sc,
                &mut net,
                ReplayParams {
                    mode: Mode::Colr,
                    sample_size: Some(r),
                    ..Default::default()
                },
                3,
            );
            let probes = mean(ms.iter().map(|m| m.stats.sensors_probed as f64));
            let lat = mean(ms.iter().map(|m| m.latency_ms));
            let nodes = mean(ms.iter().map(|m| m.stats.nodes_traversed as f64));
            let acc = mean(
                ms.iter()
                    .map(|m| metrics::target_accuracy(r, m.result_size, m.ideal_size)),
            );
            let pde = mean(ms.iter().map(|m| m.pde));
            results.insert((ci, si), (probes, lat, nodes, acc, pde));
        }
    }
    let mut rows = Vec::new();
    if which == "fig5" {
        println!("== Fig 5: cache limit × sample size → probes / latency / nodes ==");
        println!("   paper: larger caches help most at large sample sizes; sample size");
        println!("   matters most when the cache is small\n");
        println!(
            "{:>7} {:>9} {:>11} {:>12} {:>10}",
            "cache%", "sample", "probes", "latency_ms", "nodes"
        );
        for ((ci, si), &(p, l, nd, _, _)) in &results {
            println!(
                "{:>7.0} {:>9.0} {p:>11.1} {l:>12.2} {nd:>10.1}",
                cache_fracs[*ci] * 100.0,
                samples[*si]
            );
            rows.push(format!(
                "{},{},{p},{l},{nd}",
                cache_fracs[*ci], samples[*si]
            ));
        }
        write_csv(
            &args.out,
            "fig5.csv",
            "cache_frac,sample_size,probes,latency_ms,nodes_traversed",
            &rows,
        );
    } else {
        println!("== Fig 6: sampling accuracy & probe discretisation error ==");
        println!("   paper: ≥93% target accuracy at small cache, up to 99%; pde grows");
        println!("   with cache at small targets, shrinks at large targets\n");
        println!(
            "{:>7} {:>9} {:>12} {:>8}",
            "cache%", "sample", "target_acc", "pde"
        );
        for ((ci, si), &(_, _, _, acc, pde)) in &results {
            println!(
                "{:>7.0} {:>9.0} {acc:>12.3} {pde:>8.3}",
                cache_fracs[*ci] * 100.0,
                samples[*si]
            );
            rows.push(format!("{},{},{acc},{pde}", cache_fracs[*ci], samples[*si]));
        }
        write_csv(
            &args.out,
            "fig6.csv",
            "cache_frac,sample_size,target_accuracy,pde",
            &rows,
        );
    }
}

// ---------------------------------------------------------------------
// Fig 7 — approximation error vs sample size (spatially correlated data)
// ---------------------------------------------------------------------

fn fig7(args: &Args) {
    println!("== Fig 7: approximate AVG error vs sample size (200 correlated sensors) ==");
    println!("   paper: <10% relative error from ~15 of 200 USGS gauges\n");
    // 200 sensors across a Washington-state-sized extent, values from a
    // spatially correlated field (water-discharge analogue).
    let extent = Rect::from_coords(0.0, 0.0, 500.0, 400.0);
    let n = 200usize;
    let mut rng = StdRng::seed_from_u64(11);
    let sensors: Vec<SensorMeta> = (0..n)
        .map(|i| {
            use rand::Rng;
            SensorMeta::new(
                i as u32,
                colr_geo::Point::new(rng.random_range(0.0..500.0), rng.random_range(0.0..400.0)),
                TimeDelta::from_mins(10),
                1.0,
            )
        })
        .collect();
    let field = SpatialField::new(extent, 25, 900.0, 40.0, 60.0, 22.0, 23);
    let net = SimNetwork::new(sensors.clone(), field, 29);

    let region = Region::Rect(Rect::from_coords(-1.0, -1.0, 501.0, 401.0));
    let sample_sizes = [5usize, 10, 15, 20, 30, 50, 100, 200];
    let trials = 40u64;
    println!("{:>8} {:>12}", "sample", "rel_error");
    let mut rows = Vec::new();
    let mut heel: Option<usize> = None;
    for &r in &sample_sizes {
        let mut errs = Vec::new();
        for trial in 0..trials {
            let tree = ColrTree::build(sensors.clone(), ColrConfig::default(), 1);
            let mut qrng = StdRng::seed_from_u64(1000 + trial);
            let now = Timestamp(1_000 + trial);
            let query = Query::range(region.clone(), TimeDelta::from_mins(10))
                .with_terminal_level(2)
                .with_oversample_level(1)
                .with_sample_size(r as f64);
            let out = tree.execute(&query, Mode::Colr, &net, now, &mut qrng);
            // Exact answer: probe everyone through a fresh tree at the same
            // instant.
            let tree2 = ColrTree::build(sensors.clone(), ColrConfig::default(), 1);
            let exact_q =
                Query::range(region.clone(), TimeDelta::from_mins(10)).with_terminal_level(2);
            let exact_out = tree2.execute(&exact_q, Mode::RTree, &net, now, &mut qrng);
            let approx = out.aggregate(colr_tree::AggKind::Avg);
            let exact = exact_out.aggregate(colr_tree::AggKind::Avg);
            if let (Some(a), Some(e)) = (approx, exact) {
                errs.push(metrics::relative_error(a, e));
            }
        }
        let e = mean(errs.iter().copied());
        if e < 0.10 && heel.is_none() {
            heel = Some(r);
        }
        println!("{r:>8} {e:>12.4}");
        rows.push(format!("{r},{e}"));
    }
    if let Some(h) = heel {
        println!("\n  <10% error first reached at sample size {h} (paper: ~15)");
    }
    write_csv(&args.out, "fig7.csv", "sample_size,rel_error", &rows);
}

// ---------------------------------------------------------------------
// Uniformity — Theorem 2's sensing-load distribution, measured
// ---------------------------------------------------------------------

/// Replays sampled queries against a fresh-cache tree and reports the
/// distribution of per-sensor probe counts — the sensing-workload uniformity
/// Theorem 2 promises (Section V-B).
fn uniformity(args: &Args) {
    println!("== Uniformity: sensing-load distribution across sensors (Thm 2) ==\n");
    let n = args.sensors.unwrap_or(5_000);
    let queries = args.queries.unwrap_or(400);
    let sc = scenario(false, Some(0), Some(n));
    let region = Region::Rect(sc.extent);
    let net = net_for(&sc, 5);
    let mut rng = StdRng::seed_from_u64(31);
    for t in 0..queries as u64 {
        // Fresh tree per query: no cache, pure sampling behaviour.
        let tree = ColrTree::build(sc.sensors.clone(), ColrConfig::default(), 5);
        let q = Query::range(region.clone(), TimeDelta::from_mins(5))
            .with_terminal_level(3)
            .with_sample_size(50.0);
        tree.execute(&q, Mode::Colr, &net, Timestamp(1_000 + t), &mut rng);
    }
    let counts = net.probe_counts();
    let total: u64 = counts.iter().sum();
    let mean_load = total as f64 / counts.len() as f64;
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable();
    let pct = |p: f64| sorted[((p / 100.0) * (sorted.len() - 1) as f64) as usize];
    let touched = counts.iter().filter(|&&c| c > 0).count();
    println!("  sensors: {n}, queries: {queries}, target/query: 50");
    println!("  total probes: {total}  (fair share {mean_load:.2} per sensor)");
    println!(
        "  load percentiles: p10={} p50={} p90={} p99={} max={}",
        pct(10.0),
        pct(50.0),
        pct(90.0),
        pct(99.0),
        sorted.last().unwrap()
    );
    println!(
        "  sensors ever probed: {touched} / {n} ({:.1}%)",
        100.0 * touched as f64 / n as f64
    );
    let rows = vec![format!(
        "{n},{queries},{total},{mean_load},{},{},{},{},{}",
        pct(10.0),
        pct(50.0),
        pct(90.0),
        pct(99.0),
        sorted.last().unwrap()
    )];
    write_csv(
        &args.out,
        "uniformity.csv",
        "sensors,queries,total_probes,mean_load,p10,p50,p90,p99,max",
        &rows,
    );
}

// ---------------------------------------------------------------------
// Motivation — why slot caches (Section IV's premise, quantified)
// ---------------------------------------------------------------------

/// Compares the naive aggregate-caching policy (one aggregate per node,
/// expired when its first constituent expires — the strawman Section IV
/// argues against) with slot caches of various widths, on the mean time a
/// reading's contribution stays usable in aggregated form.
fn motivation(args: &Args) {
    println!("== Motivation: aggregate retention — naive min-expiry vs slot cache ==");
    println!("   paper (Section IV): with one aggregate, 't_min can be very small,");
    println!("   seriously limiting the usefulness of aggregate caching'\n");
    let n = 10_000usize;
    let t_max_s = 600.0; // seconds, for readability
    println!(
        "{:>9} {:>12} {:>11} {:>11} {:>11}",
        "expiry", "naive(min)", "slots m=2", "slots m=8", "slots m=32"
    );
    let mut rows = Vec::new();
    for (name, model) in [
        ("uniform", ExpiryModel::Uniform),
        ("usgs", ExpiryModel::UsgsLike),
        ("weather", ExpiryModel::WeatherLike),
    ] {
        let expiries = model.samples(n, 17 ^ args.queries.unwrap_or(0) as u64);
        // Naive: the whole aggregate dies at the minimum constituent expiry;
        // every reading's usable lifetime is that minimum.
        let naive = expiries.iter().copied().fold(f64::INFINITY, f64::min) * t_max_s;
        // Slot cache: a reading in slot ⌈e/Δ⌉ stays aggregated until the
        // window slides past the slot start — (⌈e/Δ⌉−1)·Δ (the Section IV-C
        // utility).
        let slot_mean = |m: usize| {
            let delta = 1.0 / m as f64;
            expiries
                .iter()
                .map(|e| ((e / delta).ceil().max(1.0) - 1.0) * delta)
                .sum::<f64>()
                / n as f64
                * t_max_s
        };
        let (m2, m8, m32) = (slot_mean(2), slot_mean(8), slot_mean(32));
        println!("{name:>9} {naive:>11.1}s {m2:>10.1}s {m8:>10.1}s {m32:>10.1}s");
        rows.push(format!("{name},{naive},{m2},{m8},{m32}"));
    }
    println!("\n  (mean usable lifetime per reading, t_max = {t_max_s} s, {n} readings)");
    write_csv(
        &args.out,
        "motivation.csv",
        "expiry_model,naive_min_expiry_s,slots_m2_s,slots_m8_s,slots_m32_s",
        &rows,
    );
}

// ---------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------

fn ablation(args: &Args) {
    println!("== Ablations: slot count, oversampling, redistribution, build strategy ==\n");
    let sc = scenario(
        args.full,
        args.queries.or(Some(800)),
        args.sensors.or(Some(20_000)),
    );

    // --- (a) slot count m ------------------------------------------------
    println!("(a) slot-cache slot count m → probes / latency / slots combined");
    println!(
        "{:>4} {:>10} {:>12} {:>10}",
        "m", "probes", "latency_ms", "slots"
    );
    let mut rows = Vec::new();
    for m in [1usize, 2, 4, 8, 16, 32] {
        let config = ColrConfig {
            num_slots: m,
            ..Default::default()
        };
        let mut tree = ColrTree::build(sc.sensors.clone(), config, 1);
        let mut net = net_for(&sc, 5);
        let ms = replay(
            &mut tree,
            &sc,
            &mut net,
            ReplayParams {
                mode: Mode::Colr,
                sample_size: Some(100.0),
                ..Default::default()
            },
            3,
        );
        let probes = mean(ms.iter().map(|x| x.stats.sensors_probed as f64));
        let lat = mean(ms.iter().map(|x| x.latency_ms));
        let slots = mean(ms.iter().map(|x| x.stats.slots_combined as f64));
        println!("{m:>4} {probes:>10.1} {lat:>12.2} {slots:>10.1}");
        rows.push(format!("{m},{probes},{lat},{slots}"));
    }
    write_csv(
        &args.out,
        "ablation_slots.csv",
        "num_slots,probes,latency_ms,slots_combined",
        &rows,
    );

    // --- (b) oversampling & redistribution under failures -----------------
    println!("\n(b) oversampling / redistribution under 0.7 availability → delivered sample (target 100)");
    println!(
        "{:>14} {:>14} {:>12} {:>10}",
        "oversampling", "redistribution", "delivered", "probes"
    );
    let mut rows = Vec::new();
    let mut flaky = sc.clone();
    for m in &mut flaky.sensors {
        m.availability = 0.7;
    }
    for (ov, rd) in [(true, true), (true, false), (false, true), (false, false)] {
        let config = ColrConfig {
            enable_oversampling: ov,
            enable_redistribution: rd,
            ..Default::default()
        };
        let mut tree = ColrTree::build(flaky.sensors.clone(), config, 1);
        // Availability 0.7 simulated by the network as well.
        let field = RandomWalkField::new(flaky.sensors.len(), 0.0, 60.0, 2.0, 5);
        let mut net = SimNetwork::new(flaky.sensors.clone(), field, 5);
        let ms = replay(
            &mut tree,
            &flaky,
            &mut net,
            ReplayParams {
                mode: Mode::Colr,
                sample_size: Some(100.0),
                ..Default::default()
            },
            3,
        );
        let delivered = mean(ms.iter().map(|x| x.result_size.min(100) as f64));
        let probes = mean(ms.iter().map(|x| x.stats.sensors_probed as f64));
        println!("{ov:>14} {rd:>14} {delivered:>12.1} {probes:>10.1}");
        rows.push(format!("{ov},{rd},{delivered},{probes}"));
    }
    write_csv(
        &args.out,
        "ablation_sampling.csv",
        "oversampling,redistribution,delivered,probes",
        &rows,
    );

    // --- (c) build strategy ------------------------------------------------
    println!("\n(c) bulk-load strategy → nodes traversed / probes");
    println!("{:>8} {:>10} {:>10}", "build", "nodes", "probes");
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("kmeans", BuildStrategy::KMeans),
        ("str", BuildStrategy::Str),
    ] {
        let config = ColrConfig {
            build: strategy,
            ..Default::default()
        };
        let mut tree = ColrTree::build(sc.sensors.clone(), config, 1);
        let mut net = net_for(&sc, 5);
        let ms = replay(
            &mut tree,
            &sc,
            &mut net,
            ReplayParams {
                mode: Mode::Colr,
                sample_size: Some(100.0),
                ..Default::default()
            },
            3,
        );
        let nodes = mean(ms.iter().map(|x| x.stats.nodes_traversed as f64));
        let probes = mean(ms.iter().map(|x| x.stats.sensors_probed as f64));
        println!("{name:>8} {nodes:>10.1} {probes:>10.1}");
        rows.push(format!("{name},{nodes},{probes}"));
    }
    write_csv(
        &args.out,
        "ablation_build.csv",
        "strategy,nodes_traversed,probes",
        &rows,
    );
}

// ---------------------------------------------------------------------
// Headline numbers (Section I / VII summary claims)
// ---------------------------------------------------------------------

fn headline(args: &Args) {
    println!("== Headline: latency to ~20%, >30x fewer sensors accessed ==\n");
    let sc = scenario(args.full, args.queries.or(Some(1_200)), args.sensors);
    let staleness = Some(TimeDelta::from_mins(5));

    let mut flat = FlatCache::new(sc.sensors.clone(), None);
    let mut net = net_for(&sc, 5);
    let flat_ms = replay_flat(&mut flat, &sc, &mut net, staleness);

    let mut tree_h = build_tree(&sc, None);
    let mut net_h = net_for(&sc, 5);
    let hier_ms = replay(
        &mut tree_h,
        &sc,
        &mut net_h,
        ReplayParams {
            mode: Mode::HierCache,
            sample_size: None,
            staleness_override: staleness,
            ..Default::default()
        },
        3,
    );

    let mut tree_c = build_tree(&sc, None);
    let mut net_c = net_for(&sc, 5);
    let colr_ms = replay(
        &mut tree_c,
        &sc,
        &mut net_c,
        ReplayParams {
            mode: Mode::Colr,
            sample_size: Some(30.0),
            staleness_override: staleness,
            ..Default::default()
        },
        3,
    );

    let probes = |ms: &[Measurement]| mean(ms.iter().map(|m| m.stats.sensors_probed as f64));
    let lat = |ms: &[Measurement]| mean(ms.iter().map(|m| m.latency_ms));
    let mut report = String::new();
    let _ = writeln!(
        report,
        "  probes/query   flat {:>9.1}  hier {:>9.1}  colr {:>7.1}",
        probes(&flat_ms),
        probes(&hier_ms),
        probes(&colr_ms)
    );
    let _ = writeln!(
        report,
        "  latency ms     flat {:>9.1}  hier {:>9.1}  colr {:>7.1}",
        lat(&flat_ms),
        lat(&hier_ms),
        lat(&colr_ms)
    );
    let _ = writeln!(
        report,
        "  probe reduction vs collection-agnostic: {:.0}x (paper: >30x)",
        probes(&hier_ms) / probes(&colr_ms).max(1e-9)
    );
    let _ = writeln!(
        report,
        "  latency vs hier-cache: {:.0}% (paper: ~20%, i.e. 3-5x reduction)",
        100.0 * lat(&colr_ms) / lat(&hier_ms).max(1e-9)
    );
    println!("{report}");
    fs::create_dir_all(&args.out).ok();
    fs::write(args.out.join("headline.txt"), report).ok();
}

fn main() {
    let args = parse_args();
    let t0 = std::time::Instant::now();
    match args.command.as_str() {
        "fig2" => fig2(&args),
        "fig3" => fig3(&args),
        "fig4" => fig4(&args),
        "fig5" => fig56(&args, "fig5"),
        "fig6" => fig56(&args, "fig6"),
        "fig7" => fig7(&args),
        "headline" => headline(&args),
        "ablation" => ablation(&args),
        "motivation" => motivation(&args),
        "uniformity" => uniformity(&args),
        "all" => {
            fig2(&args);
            println!();
            fig3(&args);
            println!();
            fig4(&args);
            println!();
            fig56(&args, "fig5");
            println!();
            fig56(&args, "fig6");
            println!();
            fig7(&args);
            println!();
            headline(&args);
            println!();
            motivation(&args);
            println!();
            uniformity(&args);
            println!();
            ablation(&args);
        }
        other => {
            eprintln!("unknown command `{other}`; use fig2..fig7, headline, motivation, uniformity, ablation, or all");
            std::process::exit(2);
        }
    }
    println!("\n[done in {:.1?}]", t0.elapsed());
}
