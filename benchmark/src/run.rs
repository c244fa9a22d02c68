//! One run of one workload: repetitions until `--seconds` of measured
//! blocks have passed, medians over the repetitions, and the report.
//!
//! A repetition builds a fresh world from the seed (that is `setup_s`), runs
//! the workload's fixed block of requests and audits every answer. Operation
//! counts are fixed, so for a seed the counted metrics repeat exactly from
//! repetition to repetition and run to run; `--seconds` only sets how many
//! repetitions the medians of the timed metrics rest on.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

use crate::audit::Audit;
use crate::catalogue::{MetricDef, END_TO_END, PER_LAYER};
use crate::layers::{self, Depth, Replay, Replayer};
use crate::load::{self, ClientTally};
use crate::sys;
use crate::trace::{self, NameTotals};
use crate::world::{Scale, Workload, World};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measured blocks to accumulate.
    pub seconds: f64,
    /// Report per-layer metrics from traced replays instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// 1/100 scale (the smoke test).
    pub quick: bool,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// What one repetition measured.
struct Rep {
    values: BTreeMap<&'static str, f64>,
    /// Not part of the catalogue; printed for the reader.
    info: BTreeMap<&'static str, f64>,
    measured_s: f64,
    /// Latency samples (untraced) or requests replayed per depth (traced).
    samples: u64,
    attempted: u64,
    audit: Audit,
    /// What must not differ between repetitions of a seed.
    signature: (u64, u64, u64, u64),
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// The options the run was made with.
    pub options: Options,
    /// Repetitions the medians rest on.
    pub reps: usize,
    /// Latency samples (or replayed requests) per repetition.
    pub samples: u64,
    /// Requests issued over all repetitions.
    pub attempted: u64,
    /// Requests that failed or whose answer failed the audit, plus broken
    /// whole-run invariants; never more than `attempted`.
    pub failed: u64,
    /// Why, for the first few failures.
    pub notes: Vec<String>,
    /// Every catalogue metric of the run's kind, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Further numbers for the reader (first repetition).
    pub info: BTreeMap<&'static str, f64>,
    /// Hash of every answer's `sampled` and value bits (first repetition).
    pub answer_checksum: u64,
}

impl Report {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, and what the medians rest on.
    pub fn print(&self, out: &mut impl Write) -> io::Result<()> {
        let o = &self.options;
        writeln!(
            out,
            "# workload={} seed={} trace={} repetitions={} samples_per_repetition={} \
             load_threads={} cores={}",
            o.workload.name(),
            o.seed,
            u8::from(o.trace),
            self.reps,
            self.samples,
            o.workload.load_threads(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )?;
        for (def, value) in &self.metrics {
            writeln!(
                out,
                "{:<36} {value:>16.4} {:<6} ({} is better)",
                def.name, def.unit, def.better
            )?;
        }
        for (name, value) in &self.info {
            writeln!(out, "info {name:<31} {value:>16.4}")?;
        }
        writeln!(out, "info answer_checksum {:016x}", self.answer_checksum)?;
        writeln!(
            out,
            "audit: attempted={} failed={} failed_share={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        )?;
        for note in &self.notes {
            writeln!(out, "audit failure: {note}")?;
        }
        Ok(())
    }
}

/// Runs `options.workload` and reports.
pub fn run(options: &Options) -> io::Result<Report> {
    let scale = Scale::of(options.workload, options.quick);
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let rep = if options.trace {
            traced_rep(options, scale, reps.is_empty())?
        } else {
            untraced_rep(options, scale)
        };
        measured_s += rep.measured_s;
        reps.push(rep);
        if measured_s >= options.seconds {
            break;
        }
    }

    let mut audit = Audit::default();
    let mut attempted = 0;
    for rep in &mut reps {
        attempted += rep.attempted;
        audit.merge(std::mem::take(&mut rep.audit));
    }
    // A single client (or two on a probe-free frozen clock) replays the same
    // inputs each repetition, so its counts must not move.
    if options.workload != Workload::ChurnMix
        && reps.iter().any(|r| r.signature != reps[0].signature)
    {
        audit.fail("repetitions of one seed disagree on counted metrics".to_owned());
    }

    let catalogue: &[MetricDef] = if options.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics = catalogue
        .iter()
        .map(|def| {
            let mut values: Vec<f64> = reps.iter().map(|r| r.values[def.name]).collect();
            // Resident memory only grows over a process's life: the first
            // repetition's peak is the one that does not depend on how many
            // repetitions fit into the run.
            let value = if def.name == "peak_rss_mb" {
                values[0]
            } else {
                median(&mut values)
            };
            (*def, value)
        })
        .collect();
    let first = &reps[0];
    Ok(Report {
        options: options.clone(),
        reps: reps.len(),
        samples: first.samples,
        attempted,
        failed: audit.failed.min(attempted),
        notes: audit.notes,
        metrics,
        info: first.info.clone(),
        answer_checksum: first.signature.3,
    })
}

fn untraced_rep(options: &Options, scale: Scale) -> Rep {
    let world = World::build(options.workload, options.seed, scale);
    let block = load::run_block(&world);
    let peak_rss_mb = sys::peak_rss_mb();
    let ops_per_core_s = block.ops_per_core_s();
    let mut reads = block.reads;
    reads.latency_ms.sort_by(f64::total_cmp);
    reads.lag_us.sort_by(f64::total_cmp);
    let latency = &reads.latency_ms;
    let answered = latency.len() as f64;
    assert!(answered > 0.0, "no request of the block was answered");

    let mut values = BTreeMap::new();
    values.insert("setup_s", world.setup_s);
    values.insert("ops_per_core_s", ops_per_core_s);
    values.insert("latency_p50_ms", percentile(latency, 0.50));
    values.insert("latency_p99_ms", percentile(latency, 0.99));
    values.insert("fulfillment_mean", reads.fulfillment / answered);
    values.insert("peak_rss_mb", peak_rss_mb);

    let mut info = BTreeMap::new();
    info.insert("probes_per_query", reads.charge.probes as f64 / answered);
    info.insert("waves_per_query", reads.charge.waves as f64 / answered);
    info.insert("fanout_mean", reads.fanout as f64 / answered);
    info.insert(
        "nodes_per_query",
        reads.stats.nodes_traversed as f64 / answered,
    );
    info.insert(
        "slots_combined_per_query",
        reads.stats.slots_combined as f64 / answered,
    );
    info.insert("allocs_per_query", reads.allocs as f64 / answered);
    info.insert("block_wall_s", block.wall_s);
    info.insert("reader_cpu_s", reads.cpu_ns as f64 / 1e9);
    if let Some(writer) = &block.writer {
        info.insert("lag_p99_us", percentile(&reads.lag_us, 0.99));
        info.insert("churn_ops", writer.ops as f64);
        info.insert("merges", writer.merge_ms.len() as f64);
        info.insert("writer_cpu_s", writer.cpu_ns as f64 / 1e9);
    }
    Rep {
        values,
        info,
        measured_s: block.wall_s,
        samples: latency.len() as u64,
        attempted: reads.attempted,
        signature: signature(&reads),
        audit: reads.audit,
    }
}

fn signature(tally: &ClientTally) -> (u64, u64, u64, u64) {
    (
        tally.charge.probes,
        tally.charge.waves,
        tally.fulfillment.to_bits(),
        tally.checksum,
    )
}

/// One traced repetition: the per-layer numbers of `scale.traced` requests.
fn traced_rep(options: &Options, scale: Scale, write_spans: bool) -> io::Result<Rep> {
    let (workload, seed) = (options.workload, options.seed);
    let build = || World::build(workload, seed, scale);
    let mut audit = Audit::default();
    let mut attempted = 0;
    let mut measured_s = 0.0;

    // The open-loop generator's lateness needs the real two-thread block.
    let mut lag_p99_us = 0.0;
    if workload == Workload::ChurnMix {
        let world = build();
        let block = load::run_block(&world);
        let mut lag = block.reads.lag_us;
        lag.sort_by(f64::total_cmp);
        lag_p99_us = percentile(&lag, 0.99);
        attempted += block.reads.attempted;
        measured_s += block.wall_s;
        audit.merge(block.reads.audit);
    }

    // Four twin worlds, advanced in turns of a few hundred requests: short
    // enough that a slow spell of the host (they last seconds) slows every
    // depth alike, long enough that each depth runs on its own warm CPU
    // caches as it would alone.
    const TURN: usize = 256;
    let worlds: Vec<World> = (0..4).map(|_| build()).collect();
    let mut replayers: Vec<Replayer> = [
        (Depth::Router, false),
        (Depth::Router, true),
        (Depth::Service, false),
        (Depth::Lsm, false),
    ]
    .iter()
    .zip(&worlds)
    .map(|(&(depth, spans), world)| Replayer::new(world, depth, spans))
    .collect();
    trace::start(scale.traced * 40);
    let mut splits = Vec::with_capacity(TURN);
    for from in (0..scale.traced).step_by(TURN) {
        let turn = from..(from + TURN).min(scale.traced);
        for i in turn.clone() {
            replayers[0].step(i, &[]);
        }
        splits.clear();
        for i in turn.clone() {
            replayers[1].step(i, &[]);
            splits.push(std::mem::take(&mut replayers[1].last_split));
        }
        for deeper in &mut replayers[2..] {
            for (i, split) in turn.clone().zip(&splits) {
                deeper.step(i, split);
            }
        }
    }
    let replays: Vec<Replay> = replayers.into_iter().map(Replayer::finish).collect();
    let [untraced, traced, service, lsm]: [Replay; 4] = replays.try_into().expect("four replayers");
    let spans = trace::finish();
    let micro = layers::micro(&worlds[1]);
    drop(worlds);
    if write_spans {
        fs::create_dir_all(&options.out_dir)?;
        let path = options
            .out_dir
            .join(format!("trace_{}.json", workload.name()));
        let mut file = BufWriter::new(fs::File::create(path)?);
        trace::write_json(&spans, &mut file)?;
        file.flush()?;
    }

    let totals = trace::summarise(&spans);
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |total: u64, count: u64| ratio(total as f64, count as f64);
    let mean_ns = |t: NameTotals| per(t.total_ns, t.count);
    let requests = traced.requests as f64;
    let reads = &traced.tally;
    let stats = &reads.stats;

    let parse = span("parser.parse");
    let router = span("router.execute");
    let service_ns = per(service.call_ns, service.calls);
    let lsm_ns = per(lsm.call_ns, lsm.calls);
    let plan_ns = per(lsm.plan_ns, lsm.calls);
    let walk_ns = lsm_ns - per(lsm.charge.backend_ns, lsm.calls);
    let churn = traced.churn.clone().unwrap_or_default();
    let mut merge_ms = churn.merge_ms.clone();
    merge_ms.sort_by(f64::total_cmp);

    let mut v = BTreeMap::new();
    v.insert("parser.ns_per_query", mean_ns(parse));
    v.insert("parser.allocs_per_query", per(parse.allocs, parse.count));
    v.insert(
        "parser.bytes_per_query",
        per(traced.parse_bytes, parse.count),
    );
    v.insert("request.from_sql_ns", mean_ns(span("request.from_sql")));
    v.insert("planner.plan_ns", plan_ns);
    v.insert(
        "planner.terminal_level_mean",
        per(lsm.terminal_levels, lsm.calls),
    );
    v.insert("service.execute_ns", service_ns);
    v.insert("service.self_ns", service_ns - plan_ns - lsm_ns);
    v.insert("service.shed", (traced.shed + service.shed) as f64);
    v.insert("router.execute_ns", mean_ns(router));
    v.insert(
        "router.self_ns",
        mean_ns(router) - ratio(service.call_ns as f64, requests),
    );
    v.insert("router.fanout_mean", ratio(reads.fanout as f64, requests));
    v.insert("router.plan_only_ns", micro.router_plan_only_ns);
    v.insert("router.allocs_per_query", per(router.allocs, router.count));
    v.insert("lsm.execute_ns", lsm_ns);
    v.insert("lsm.register_ns", mean_ns(span("lsm.register")));
    v.insert("lsm.retire_ns", mean_ns(span("lsm.retire")));
    v.insert("lsm.merges", churn.merges as f64);
    v.insert("lsm.merge_ms_p50", percentile(&merge_ms, 0.50));
    v.insert("lsm.merge_ms_p95", percentile(&merge_ms, 0.95));
    v.insert(
        "lsm.merge_busy_share",
        ratio(merge_ms.iter().sum::<f64>() * 1e6, traced.wall_ns as f64),
    );
    v.insert("lsm.levels_mean", churn.levels_mean);
    v.insert("lsm.l0_occupancy_max", churn.l0_max as f64);
    v.insert("lsm.tombstones_max", churn.tombstones_max as f64);
    v.insert("tree.walk_ns", walk_ns);
    v.insert(
        "tree.nodes_per_query",
        ratio(lsm.stats.nodes_traversed as f64, lsm.requests as f64),
    );
    v.insert(
        "tree.ns_per_node",
        ratio(walk_ns * lsm.calls as f64, lsm.stats.nodes_traversed as f64),
    );
    v.insert("tree.build_ms", micro.tree_build_ms);
    v.insert(
        "slot_cache.hit_ratio",
        1.0 - ratio(stats.probes_succeeded() as f64, reads.sampled as f64),
    );
    v.insert(
        "slot_cache.nodes_used_per_query",
        ratio(stats.cache_nodes_used as f64, requests),
    );
    v.insert(
        "slot_cache.slots_combined_per_query",
        ratio(stats.slots_combined as f64, requests),
    );
    v.insert(
        "slot_cache.inserts_per_query",
        ratio(stats.cache_inserts as f64, requests),
    );
    v.insert("slot_cache.usable_ns", micro.slot_usable_ns);
    v.insert("slot_cache.insert_ns", micro.slot_insert_ns);
    v.insert("slot_cache.roll_ns", micro.slot_roll_ns);
    v.insert(
        "probe.probes_per_query",
        ratio(reads.charge.probes as f64, requests),
    );
    v.insert(
        "probe.waves_per_query",
        ratio(reads.charge.waves as f64, requests),
    );
    v.insert(
        "probe.probes_per_wave",
        per(reads.charge.probes, reads.charge.waves),
    );
    v.insert(
        "probe.failed_share",
        per(reads.charge.failed, reads.charge.probes),
    );
    v.insert(
        "probe.backend_ns_per_probe",
        per(lsm.charge.backend_ns, lsm.charge.probes),
    );
    v.insert(
        "probe.charged_ms_per_query",
        ratio(reads.charge.charged_ms(), requests),
    );
    v.insert("geo.overlap_ns", micro.geo_overlap_ns);
    v.insert("flight.analyze_extra_ns", micro.flight_analyze_extra_ns);
    v.insert("flight.json_bytes", micro.flight_json_bytes);
    v.insert("loadgen.lag_p99_us", lag_p99_us);
    v.insert(
        "loadgen.trace_overhead_ratio",
        ratio(untraced.call_ns as f64, traced.call_ns as f64),
    );
    v.insert(
        "loadgen.allocs_per_query",
        per(untraced.allocs, untraced.requests),
    );

    let mut info = BTreeMap::new();
    info.insert("spans_recorded", spans.len() as f64);
    info.insert(
        "request_self_ns",
        per(span("request").self_ns, requests as u64),
    );
    info.insert("router_execute_self_ns", per(router.self_ns, router.count));
    info.insert("probe_wave_ns", mean_ns(span("probe.wave")));

    let signature = signature(&traced.tally);
    for replay in [untraced, traced, service, lsm] {
        attempted += replay.tally.attempted;
        measured_s += replay.wall_ns as f64 / 1e9;
        audit.merge(replay.tally.audit);
    }
    Ok(Rep {
        values: v,
        info,
        measured_s,
        samples: scale.traced as u64,
        attempted,
        audit,
        signature,
    })
}

/// `a / b`, or 0 when a layer did no work on this workload.
fn ratio(a: f64, b: f64) -> f64 {
    if a != 0.0 && b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The `p`-quantile of `sorted` by nearest rank (0 for no samples).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
