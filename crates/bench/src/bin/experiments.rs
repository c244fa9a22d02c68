//! Regenerates every table and figure of the COLR-Tree paper (Section VII).
//!
//! ```text
//! experiments <fig2|fig3|fig4|fig5|fig6|fig7|headline|motivation|uniformity|ablation|all>
//!     [--full] [--queries N] [--sensors N] [--out DIR]
//! ```
//!
//! Default scale preserves every reported *shape* while running in seconds;
//! `--full` uses the paper's 370k sensors (and its 106k-query trace where a
//! figure sets no query count of its own). Each figure returns its tables,
//! which are rendered once: printed, and written as `<name>.csv` and
//! `<name>.txt` (the console grid) under `--out DIR` (default
//! `target/experiments`). `fig5` and `fig6` are one sweep and render both
//! tables. Every run then checks the paper's claims against the tables it
//! rendered (`colr_bench::claims`) and exits 1 on a gated miss.

use std::fs;
use std::iter::once;
use std::path::{Path, PathBuf};

use colr_bench::claims::{self, Scale};
use colr_bench::{
    build_tree, ideal_sizes, mean, replay, replay_flat, scenario, Cell, Measurement, ReplayParams,
    Table,
};
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

/// Prints `text` and writes it to `<name>.txt`.
fn emit(out: &Path, name: &str, text: &str) {
    print!("{text}");
    fs::create_dir_all(out).expect("create out dir");
    fs::write(out.join(format!("{name}.txt")), text).expect("write txt");
}

/// Renders a table: its banner, its grid (also `<name>.txt`), its notes and
/// `<name>.csv`. The headline is one row shown as the paper states it, with
/// no CSV.
fn render(out: &Path, t: &Table) {
    println!("{}\n", t.title);
    if t.name == "headline" {
        emit(out, t.name, &headline_text(t));
        return;
    }
    emit(out, t.name, &t.grid());
    for note in &t.notes {
        println!("  {note}");
    }
    let path = out.join(format!("{}.csv", t.name));
    fs::write(&path, t.csv()).expect("write csv");
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

/// Replays the scenario's trace on a fresh tree built with `config`.
fn replay_fresh(sc: &Scenario, config: ColrConfig, params: ReplayParams) -> Vec<Measurement> {
    let tree = ColrTree::build(sc.sensors.clone(), config, 1);
    replay(&tree, sc, &net_for(sc, 5), params, 3)
}

fn probes(ms: &[Measurement]) -> f64 {
    mean(ms.iter().map(|m| m.stats.sensors_probed as f64))
}

fn latency(ms: &[Measurement]) -> f64 {
    mean(ms.iter().map(|m| m.latency_ms))
}

// ---------------------------------------------------------------------
// Fig 2 — utility/cost ratio vs slot size
// ---------------------------------------------------------------------

fn fig2(args: &Args) -> Table {
    let sc = scenario(args.full, args.queries, args.sensors.or(Some(10_000)));
    let windows = sc.queries.normalized_windows(sc.t_max);
    let grid = slot_size::default_delta_grid();
    let sweeps: Vec<Vec<(f64, f64)>> = [
        (ExpiryModel::Uniform, 10_000usize),
        (ExpiryModel::UsgsLike, 10_000),
        (ExpiryModel::WeatherLike, 1_000),
    ]
    .into_iter()
    .map(|(model, population)| {
        let workload = SlotSizeWorkload {
            query_windows: windows.clone(),
            collection_fraction: 0.3,
            collection_cost: 1.7,
            expiry_times: model.samples(population, 17),
        };
        workload.sweep(&grid)
    })
    .collect();
    let mut t = Table::new(
        "fig2",
        "== Fig 2: utility/cost ratio vs slot size ==\n   paper: optima at Δ≈0.5 (Uniform), ≈0.8 (USGS), ≈0.2 (Weather)",
        "delta:2 uniform:4 usgs:4 weather:4",
    );
    for (i, &d) in grid.iter().enumerate() {
        let [u, g, w] = [0, 1, 2].map(|m| sweeps[m][i].1);
        t.rows.push(Cell::nums([d, u, g, w]));
    }
    t
}

// ---------------------------------------------------------------------
// Fig 3 — internal node traversals vs ideal result size
// ---------------------------------------------------------------------

fn fig3(args: &Args) -> Table {
    let sc = scenario(args.full, args.queries.or(Some(1_500)), args.sensors);
    let edges = [0u64, 25, 100, 400, 1_600, 6_400, u64::MAX];
    let bins: Vec<usize> = ideal_sizes(&sc)
        .into_iter()
        .map(|ideal| {
            edges
                .windows(2)
                .position(|w| ideal >= w[0] && ideal < w[1])
                .unwrap()
        })
        .collect();
    let mut nodes = Vec::new();
    let mut cached = Vec::new();
    for (mode, sample_size) in [
        (Mode::RTree, None),
        (Mode::HierCache, None),
        (Mode::Colr, Some(100.0)),
    ] {
        let params = ReplayParams {
            mode,
            sample_size,
            ..Default::default()
        };
        let ms = replay_fresh(&sc, ColrConfig::default(), params);
        let per_bin = |value: fn(&Measurement) -> u64| -> Vec<f64> {
            (0..edges.len() - 1)
                .map(|b| {
                    let in_bin = ms.iter().zip(&bins).filter(|&(_, &mb)| mb == b);
                    mean(in_bin.map(|(m, _)| value(m) as f64))
                })
                .collect()
        };
        nodes.push(per_bin(|m| m.stats.nodes_traversed));
        cached.push(per_bin(|m| m.stats.cache_nodes_used));
    }
    let mut t = Table::new(
        "fig3",
        "== Fig 3: node traversals vs ideal result-set size ==\n   paper: R-Tree grows linearly; hier-cache and COLR traverse far fewer;\n   COLR accesses 5-8x fewer cached nodes than hier-cache",
        "result_size_bin:0 rtree_nodes:1 hier_nodes:1 colr_nodes:1 hier_cached:1 colr_cached:1",
    );
    for b in 0..edges.len() - 1 {
        let label = match edges[b + 1] {
            u64::MAX => format!(">{}", edges[b]),
            hi => format!("{}-{hi}", edges[b]),
        };
        let values = nodes
            .iter()
            .chain(&cached[1..])
            .map(|series| Cell::Num(series[b]));
        t.rows.push(once(Cell::text(label)).chain(values).collect());
    }
    // The structural property grounding this figure (Section VII-B): "near
    // uniform distributions of internal node weights per layer".
    t.notes
        .push("per-layer weight uniformity (CV = stddev/mean; low = uniform):".to_owned());
    for s in colr_tree::inspect::level_stats(&build_tree(&sc, None)) {
        t.notes.push(format!(
            "  level {:>2}: {:>6} nodes, mean weight {:>9.1}, CV {:.2}",
            s.level, s.nodes, s.mean_weight, s.weight_cv
        ));
    }
    t
}

// ---------------------------------------------------------------------
// Fig 4 — probes & latency vs freshness window, and the headline
// ---------------------------------------------------------------------

/// Fig 4's columns, which the headline shares.
const FRESHNESS_COLUMNS: &str = "freshness_mins:0 flat_probes:1 hier_probes:1 colr_probes:1 \
    flat_latency_ms:1 hier_latency_ms:1 colr_latency_ms:1 colr_latency_p95_ms:1";

const HEADLINE_TITLE: &str = "== Headline: latency to ~20%, >30x fewer sensors accessed ==";

/// The flat-cache, hier-cache and COLR replays at one freshness bound.
fn freshness_row(sc: &Scenario, mins: u64) -> Vec<Cell> {
    let staleness = Some(TimeDelta::from_mins(mins));
    let mut flat = FlatCache::new(sc.sensors.clone(), None);
    let flat_ms = replay_flat(&mut flat, sc, &net_for(sc, 5), staleness);
    let tree_run = |mode, sample_size| {
        let params = ReplayParams {
            mode,
            sample_size,
            staleness_override: staleness,
        };
        replay_fresh(sc, ColrConfig::default(), params)
    };
    let (hier, colr) = (
        tree_run(Mode::HierCache, None),
        tree_run(Mode::Colr, Some(30.0)),
    );
    let colr_lat: Vec<f64> = colr.iter().map(|m| m.latency_ms).collect();
    let [pf, ph, pc] = [&flat_ms, &hier, &colr].map(|ms| probes(ms));
    let [lf, lh, lc] = [&flat_ms, &hier, &colr].map(|ms| latency(ms));
    let p95 = percentile(&colr_lat, 95.0);
    Cell::nums([mins as f64, pf, ph, pc, lf, lh, lc, p95])
}

fn fig4_scenario(args: &Args) -> Scenario {
    scenario(args.full, args.queries.or(Some(1_200)), args.sensors)
}

fn fig4(args: &Args) -> Table {
    let sc = fig4_scenario(args);
    let mut t = Table::new(
        "fig4",
        "== Fig 4: sensor probes & latency over varying freshness windows ==\n   paper: COLR cuts probes 30-100x; latency 3-5x below hier-cache,\n   ~40ms absolute; probe curve heels at ~4 min freshness",
        FRESHNESS_COLUMNS,
    );
    t.rows = [1u64, 2, 3, 4, 5, 6, 8, 10]
        .into_iter()
        .map(|mins| freshness_row(&sc, mins))
        .collect();
    t
}

/// The headline (Section I / VII summary claims): the 5-minute freshness
/// row, taken from Fig 4 when it ran.
fn headline(args: &Args, fig4: Option<&Table>) -> Table {
    let mut t = Table::new("headline", HEADLINE_TITLE, FRESHNESS_COLUMNS);
    t.rows = match fig4 {
        Some(f) => f
            .rows
            .iter()
            .filter(|r| r[0] == Cell::Num(5.0))
            .cloned()
            .collect(),
        None => vec![freshness_row(&fig4_scenario(args), 5)],
    };
    t
}

fn headline_text(t: &Table) -> String {
    let v = |c: &str| t.col(c)[0];
    let (ph, pc) = (v("hier_probes"), v("colr_probes"));
    let (lh, lc) = (v("hier_latency_ms"), v("colr_latency_ms"));
    format!(
        "  probes/query   flat {:>9.1}  hier {ph:>9.1}  colr {pc:>7.1}\n\
         \x20 latency ms     flat {:>9.1}  hier {lh:>9.1}  colr {lc:>7.1}\n\
         \x20 probe reduction vs collection-agnostic: {:.0}x (paper: >30x)\n\
         \x20 latency vs hier-cache: {:.0}% (paper: ~20%, i.e. 3-5x reduction)\n",
        v("flat_probes"),
        v("flat_latency_ms"),
        ph / pc.max(1e-9),
        100.0 * lc / lh.max(1e-9),
    )
}

// ---------------------------------------------------------------------
// Fig 5 + Fig 6 — one cache size × sample size sweep
// ---------------------------------------------------------------------

fn fig56(args: &Args) -> [Table; 2] {
    let sc = scenario(args.full, args.queries.or(Some(1_200)), args.sensors);
    let ideal = ideal_sizes(&sc);
    let mut fig5 = Table::new(
        "fig5",
        "== Fig 5: cache limit × sample size → probes / latency / nodes ==\n   paper: larger caches help most at large sample sizes; sample size\n   matters most when the cache is small",
        "cache_frac:2 sample_size:0 probes:1 latency_ms:2 nodes_traversed:1",
    );
    let mut fig6 = Table::new(
        "fig6",
        "== Fig 6: sampling accuracy & probe discretisation error ==\n   paper: ≥93% target accuracy at small cache, up to 99%; pde grows\n   with cache at small targets, shrinks at large targets",
        "cache_frac:2 sample_size:0 target_accuracy:3 pde:3",
    );
    for cf in [0.16, 0.24, 0.32] {
        for r in [100.0, 1_000.0, 10_000.0] {
            let config = ColrConfig {
                cache_capacity: Some((sc.sensors.len() as f64 * cf) as usize),
                ..Default::default()
            };
            let params = ReplayParams {
                sample_size: Some(r),
                ..Default::default()
            };
            let ms = replay_fresh(&sc, config, params);
            let accuracy = mean(
                ms.iter()
                    .zip(&ideal)
                    .map(|(m, &i)| metrics::target_accuracy(r, m.result_size, i)),
            );
            let nodes = mean(ms.iter().map(|m| m.stats.nodes_traversed as f64));
            let pde = mean(ms.iter().map(|m| m.pde));
            fig5.rows
                .push(Cell::nums([cf, r, probes(&ms), latency(&ms), nodes]));
            fig6.rows.push(Cell::nums([cf, r, accuracy, pde]));
        }
    }
    [fig5, fig6]
}

// ---------------------------------------------------------------------
// Fig 7 — approximation error vs sample size (spatially correlated data)
// ---------------------------------------------------------------------

fn fig7() -> Table {
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
    let trials = 40u64;
    let mut t = Table::new(
        "fig7",
        "== Fig 7: approximate AVG error vs sample size (200 correlated sensors) ==\n   paper: <10% relative error from ~15 of 200 USGS gauges",
        "sample_size:0 rel_error:4",
    );
    for r in [5usize, 10, 15, 20, 30, 50, 100, 200] {
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
        t.rows.push(Cell::nums([r as f64, mean(errs.into_iter())]));
    }
    t
}

// ---------------------------------------------------------------------
// Uniformity — Theorem 2's sensing-load distribution, measured
// ---------------------------------------------------------------------

/// Replays sampled queries against a fresh-cache tree and reports the
/// distribution of per-sensor probe counts — the sensing-workload uniformity
/// Theorem 2 promises (Section V-B).
fn uniformity(args: &Args) -> Table {
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
    let mut load: Vec<f64> = net.probe_counts().into_iter().map(|c| c as f64).collect();
    load.sort_by(f64::total_cmp);
    let total: f64 = load.iter().sum();
    let pct = |p: f64| load[((p / 100.0) * (load.len() - 1) as f64) as usize];
    let touched = load.iter().filter(|&&c| c > 0.0).count();
    let mut t = Table::new(
        "uniformity",
        "== Uniformity: sensing-load distribution across sensors (Thm 2) ==",
        "sensors:0 queries:0 total_probes:0 mean_load:2 p10:0 p50:0 p90:0 p99:0 max:0",
    );
    let [p10, p50, p90, p99, max] = [10.0, 50.0, 90.0, 99.0, 100.0].map(pct);
    let (n_f, q_f, mean_load) = (n as f64, queries as f64, total / load.len() as f64);
    let values = [n_f, q_f, total, mean_load, p10, p50, p90, p99, max];
    t.rows.push(Cell::nums(values));
    t.notes.push(format!(
        "target/query: 50; sensors ever probed: {touched} / {n} ({:.1}%)",
        100.0 * touched as f64 / n as f64
    ));
    t
}

// ---------------------------------------------------------------------
// Motivation — why slot caches (Section IV's premise, quantified)
// ---------------------------------------------------------------------

/// Compares the naive aggregate-caching policy (one aggregate per node,
/// expired when its first constituent expires — the strawman Section IV
/// argues against) with slot caches of various widths, on the mean time a
/// reading's contribution stays usable in aggregated form.
fn motivation() -> Table {
    let n = 10_000usize;
    let t_max_s = 600.0; // seconds, for readability
    let mut t = Table::new(
        "motivation",
        "== Motivation: aggregate retention — naive min-expiry vs slot cache ==\n   paper (Section IV): with one aggregate, 't_min can be very small,\n   seriously limiting the usefulness of aggregate caching'",
        "expiry_model:0 naive_min_expiry_s:1 slots_m2_s:1 slots_m8_s:1 slots_m32_s:1",
    );
    for (name, model) in [
        ("uniform", ExpiryModel::Uniform),
        ("usgs", ExpiryModel::UsgsLike),
        ("weather", ExpiryModel::WeatherLike),
    ] {
        let expiries = model.samples(n, 17);
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
        let values = [naive, slot_mean(2), slot_mean(8), slot_mean(32)];
        t.rows
            .push([vec![Cell::text(name)], Cell::nums(values)].concat());
    }
    t.notes.push(format!(
        "(mean usable lifetime per reading, t_max = {t_max_s} s, {n} readings)"
    ));
    t
}

// ---------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------

fn ablation(args: &Args) -> [Table; 3] {
    let sc = scenario(
        args.full,
        args.queries.or(Some(800)),
        args.sensors.or(Some(20_000)),
    );
    let params = ReplayParams::default();

    let mut slots = Table::new(
        "ablation_slots",
        "== Ablation (a): slot-cache slot count m → probes / latency / slots combined ==",
        "num_slots:0 probes:1 latency_ms:2 slots_combined:1",
    );
    for m in [1usize, 2, 4, 8, 16, 32] {
        let config = ColrConfig {
            num_slots: m,
            ..Default::default()
        };
        let ms = replay_fresh(&sc, config, params);
        let combined = mean(ms.iter().map(|x| x.stats.slots_combined as f64));
        let values = [m as f64, probes(&ms), latency(&ms), combined];
        slots.rows.push(Cell::nums(values));
    }

    let mut sampling = Table::new(
        "ablation_sampling",
        "== Ablation (b): oversampling / redistribution under 0.7 availability → delivered sample (target 100) ==",
        "oversampling:0 redistribution:0 delivered:1 probes:1",
    );
    // Availability 0.7, in the sensor metadata and so in the network too.
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
        let ms = replay_fresh(&flaky, config, params);
        let delivered = mean(ms.iter().map(|x| x.result_size.min(100) as f64));
        let flags = vec![Cell::text(ov), Cell::text(rd)];
        sampling
            .rows
            .push([flags, Cell::nums([delivered, probes(&ms)])].concat());
    }

    let mut build = Table::new(
        "ablation_build",
        "== Ablation (c): bulk-load strategy → nodes traversed / probes ==",
        "strategy:0 nodes_traversed:1 probes:1",
    );
    for (name, strategy) in [
        ("kmeans", BuildStrategy::KMeans),
        ("str", BuildStrategy::Str),
    ] {
        let config = ColrConfig {
            build: strategy,
            ..Default::default()
        };
        let ms = replay_fresh(&sc, config, params);
        let nodes = mean(ms.iter().map(|x| x.stats.nodes_traversed as f64));
        let values = Cell::nums([nodes, probes(&ms)]);
        build.rows.push([vec![Cell::text(name)], values].concat());
    }
    [slots, sampling, build]
}

fn main() {
    let args = parse_args();
    let t0 = std::time::Instant::now();
    let commands = match args.command.as_str() {
        // Fig 5 runs the sweep Fig 6 reads, and the headline is Fig 4's row.
        "all" => "fig2 fig3 fig4 fig5 fig7 headline motivation uniformity ablation",
        other => other,
    };
    let mut done: Vec<Table> = Vec::new();
    for command in commands.split_whitespace() {
        let tables = match command {
            "fig2" => vec![fig2(&args)],
            "fig3" => vec![fig3(&args)],
            "fig4" => vec![fig4(&args)],
            "fig5" | "fig6" => fig56(&args).into(),
            "fig7" => vec![fig7()],
            "headline" => vec![headline(&args, done.iter().find(|t| t.name == "fig4"))],
            "ablation" => ablation(&args).into(),
            "motivation" => vec![motivation()],
            "uniformity" => vec![uniformity(&args)],
            other => {
                eprintln!("unknown command `{other}`; use fig2..fig7, headline, motivation, uniformity, ablation, or all");
                std::process::exit(2);
            }
        };
        for t in tables {
            render(&args.out, &t);
            println!();
            done.push(t);
        }
    }
    let scale = Scale::of(args.full, args.queries.is_some() || args.sensors.is_some());
    let claims: Vec<_> = done.iter().flat_map(|t| claims::check(t, scale)).collect();
    let misses = claims::report(&claims, scale);
    println!("\n[done in {:.1?}]", t0.elapsed());
    if misses > 0 {
        std::process::exit(1);
    }
}
