//! The catalogue `BENCHMARK.json` is rendered from: workloads, end-to-end
//! metrics with their regression bounds, and per-layer metrics.

use crate::world::Workload;

/// The command the driver runs; it appends `--workload … --seed … --seconds
/// … --trace …`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Seconds of measured blocks per run.
pub const RUN_SECONDS: u64 = 15;
/// The seed used when none is given, and in every number the README quotes.
pub const DEFAULT_SEED: u64 = 20_080_407;
/// A seed no workload was tuned on: a later claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_080_412;

/// Why each workload exists (one line, at most 200 characters).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::LiveLocal => {
            "The paper's regime: Zipf-hotspot viewports on an advancing clock, partly warm \
             caches; probe waves, sampling with redistribution and cache write-back do the work."
        }
        Workload::WarmPan => {
            "2048 hot viewports on a frozen clock from 2 clients: no probe is issued, so only the \
             CPU hot path (parse, plan, admission, arena walk, slot-cache lookup) is measured."
        }
        Workload::RoutedWide => {
            "Wide viewports over 8 warm shards (mean fan-out >= 3), no probes: isolates the \
             router's apportioning, per-shard admission and gather/merge, per shard touched."
        }
        Workload::ChurnMix => {
            "Reads at a fixed 4000 req/s open loop beside an unthrottled register/retire writer \
             with inline merges: a write-path gain that taxes reads, or the reverse, shows."
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// `layer.metric` for per-layer metrics, a bare name end to end.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the portal sees, reported for every workload. Bounds are
/// at least three times the widest quartile spread measured over ten seeds
/// (README.md, "Bounds").
pub const END_TO_END: [MetricDef; 6] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("ops_per_core_s", "ops/s", "higher", 0.25),
    gated("latency_p50_ms", "ms", "lower", 0.25),
    gated("latency_p99_ms", "ms", "lower", 0.25),
    gated("fulfillment_mean", "ratio", "higher", 0.05),
    gated("peak_rss_mb", "MB", "lower", 0.10),
];

/// Single layers, from the traced run. Ungated.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("parser.ns_per_query", "ns", "lower"),
    layer("parser.allocs_per_query", "count", "lower"),
    layer("parser.bytes_per_query", "B", "lower"),
    layer("request.from_sql_ns", "ns", "lower"),
    layer("planner.plan_ns", "ns", "lower"),
    layer("planner.terminal_level_mean", "level", "lower"),
    layer("service.execute_ns", "ns", "lower"),
    layer("service.self_ns", "ns", "lower"),
    layer("service.shed", "count", "lower"),
    layer("router.execute_ns", "ns", "lower"),
    layer("router.self_ns", "ns", "lower"),
    layer("router.fanout_mean", "count", "lower"),
    layer("router.plan_only_ns", "ns", "lower"),
    layer("router.allocs_per_query", "count", "lower"),
    layer("lsm.execute_ns", "ns", "lower"),
    layer("lsm.register_ns", "ns", "lower"),
    layer("lsm.retire_ns", "ns", "lower"),
    layer("lsm.merges", "count", "lower"),
    layer("lsm.merge_ms_p50", "ms", "lower"),
    layer("lsm.merge_ms_p95", "ms", "lower"),
    layer("lsm.merge_busy_share", "ratio", "lower"),
    layer("lsm.levels_mean", "count", "lower"),
    layer("lsm.l0_occupancy_max", "count", "lower"),
    layer("lsm.tombstones_max", "count", "lower"),
    layer("tree.walk_ns", "ns", "lower"),
    layer("tree.nodes_per_query", "count", "lower"),
    layer("tree.ns_per_node", "ns", "lower"),
    layer("tree.build_ms", "ms", "lower"),
    layer("slot_cache.hit_ratio", "ratio", "higher"),
    layer("slot_cache.nodes_used_per_query", "count", "higher"),
    layer("slot_cache.slots_combined_per_query", "count", "lower"),
    layer("slot_cache.inserts_per_query", "count", "lower"),
    layer("slot_cache.usable_ns", "ns", "lower"),
    layer("slot_cache.insert_ns", "ns", "lower"),
    layer("slot_cache.roll_ns", "ns", "lower"),
    layer("probe.probes_per_query", "count", "lower"),
    layer("probe.waves_per_query", "count", "lower"),
    layer("probe.probes_per_wave", "count", "higher"),
    layer("probe.failed_share", "ratio", "lower"),
    layer("probe.backend_ns_per_probe", "ns", "lower"),
    layer("probe.charged_ms_per_query", "ms", "lower"),
    layer("geo.overlap_ns", "ns", "lower"),
    layer("flight.analyze_extra_ns", "ns", "lower"),
    layer("flight.json_bytes", "B", "lower"),
    layer("loadgen.lag_p99_us", "us", "lower"),
    layer("loadgen.trace_overhead_ratio", "ratio", "higher"),
    layer("loadgen.allocs_per_query", "count", "lower"),
];

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(w)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let gated: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&gated.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
