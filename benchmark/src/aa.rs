//! Noise floors: how much the end-to-end metrics move when nothing changed.
//!
//! `--aa` runs every workload twice on one seed, interleaved by workload,
//! and writes the relative difference of every metric. `--spread N` runs
//! every workload on N seeds and writes, per metric, the distance between
//! the first and third quartile as a share of the median — the driver's own
//! acceptance test for the bounds in `BENCHMARK.json`. Each run is a child
//! process of this executable, as the driver would start it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;

use crate::catalogue::END_TO_END;
use crate::json::Json;
use crate::world::Workload;

/// What a child run printed.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// The `info answer_checksum` line's value.
    pub answer_checksum: String,
}

/// Runs one untraced child and parses its result line.
pub fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    out_dir: &Path,
) -> io::Result<ChildRun> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--out")
        .arg(out_dir);
    if quick {
        command.arg("--quick");
    }
    let output = command.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let fail = |why: &str| {
        io::Error::other(format!(
            "{} seed {seed}: {why}\n{stdout}{}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr)
        ))
    };
    if !output.status.success() {
        return Err(fail("child run failed"));
    }
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| fail("no result line"))?;
    let json = Json::parse(line).map_err(|e| fail(&e))?;
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| fail("result line has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let answer_checksum = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info answer_checksum "))
        .unwrap_or("")
        .to_owned();
    Ok(ChildRun {
        metrics,
        answer_checksum,
    })
}

/// `--aa`: every workload twice on `seed`, A B A B by workload. Writes
/// `aa.json` into `out_dir` and prints the table.
pub fn aa(seed: u64, seconds: f64, quick: bool, out_dir: &Path) -> io::Result<()> {
    let mut rounds: Vec<BTreeMap<&'static str, ChildRun>> = Vec::new();
    for round in 0..2 {
        let mut runs = BTreeMap::new();
        for workload in Workload::ALL {
            eprintln!("aa: round {} {}", ["A", "B"][round], workload.name());
            runs.insert(
                workload.name(),
                run_child(workload, seed, seconds, quick, out_dir)?,
            );
        }
        rounds.push(runs);
    }
    let mut json =
        format!("{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{");
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9}",
        "workload", "metric", "A", "B", "|A-B|/A"
    );
    let mut widest: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (w, workload) in Workload::ALL.iter().enumerate() {
        let (a, b) = (&rounds[0][workload.name()], &rounds[1][workload.name()]);
        let _ = write!(
            json,
            "{}\n    \"{}\": {{\n      \"answer_checksum\": [\"{}\", \"{}\"],\n      \"metrics\": {{",
            if w > 0 { "," } else { "" },
            workload.name(),
            a.answer_checksum,
            b.answer_checksum
        );
        for (m, def) in END_TO_END.iter().enumerate() {
            let (va, vb) = (a.metrics[def.name], b.metrics[def.name]);
            let diff = (va - vb).abs() / va.abs();
            let entry = widest.entry(def.name).or_default();
            *entry = entry.max(diff);
            println!(
                "{:<12} {:<18} {va:>14.4} {vb:>14.4} {diff:>9.4}",
                workload.name(),
                def.name
            );
            let _ = write!(
                json,
                "{}\n        \"{}\": {{\"a\": {va}, \"b\": {vb}, \"relative_difference\": {diff}}}",
                if m > 0 { "," } else { "" },
                def.name
            );
        }
        json.push_str("\n      }\n    }");
    }
    json.push_str("\n  },\n  \"derived_bounds\": {");
    println!("\nderived bound = max(0.05, 2 x widest A/A difference):");
    for (m, def) in END_TO_END.iter().enumerate() {
        let derived = (2.0 * widest[def.name]).max(0.05);
        println!(
            "{:<18} widest {:.4} -> {derived:.4} (BENCHMARK.json: {})",
            def.name,
            widest[def.name],
            def.bound.expect("end-to-end metrics carry a bound")
        );
        let _ = write!(
            json,
            "{}\n    \"{}\": {derived}",
            if m > 0 { "," } else { "" },
            def.name
        );
    }
    json.push_str("\n  }\n}\n");
    fs::create_dir_all(out_dir)?;
    fs::write(out_dir.join("aa.json"), json)
}

/// `--spread N`: every workload on seeds `first_seed .. first_seed + N`,
/// interleaved by workload. Writes `spread.json` into `out_dir`, prints the
/// table, and returns whether every spread stays within its bound.
pub fn spread(
    runs: usize,
    first_seed: u64,
    seconds: f64,
    quick: bool,
    out_dir: &Path,
) -> io::Result<bool> {
    let mut values: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for i in 0..runs {
        for workload in Workload::ALL {
            let seed = first_seed + i as u64;
            eprintln!(
                "spread: run {} of {runs}, {} seed {seed}",
                i + 1,
                workload.name()
            );
            let run = run_child(workload, seed, seconds, quick, out_dir)?;
            for def in &END_TO_END {
                values
                    .entry((workload.name(), def.name))
                    .or_default()
                    .push(run.metrics[def.name]);
            }
        }
    }
    let mut within = true;
    let mut json = format!(
        "{{\n  \"first_seed\": {first_seed},\n  \"runs\": {runs},\n  \"seconds\": {seconds},\n  \"spreads\": {{"
    );
    println!(
        "{:<12} {:<18} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    \"{}\": {{",
            if w > 0 { "," } else { "" },
            workload.name()
        );
        for (m, def) in END_TO_END.iter().enumerate() {
            let xs = &mut values
                .get_mut(&(workload.name(), def.name))
                .expect("every metric was collected");
            xs.sort_by(f64::total_cmp);
            let [q1, q2, q3] = quartiles(xs);
            let spread = (q3 - q1) / q2.abs();
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let verdict = if def.name == "setup_s" {
                "not gated on spread"
            } else if spread < bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound, above a third of it"
            } else {
                within = false;
                "EXCEEDS BOUND"
            };
            println!(
                "{:<12} {:<18} {q2:>14.4} {spread:>9.4} {bound:>7}  {verdict}",
                workload.name(),
                def.name
            );
            let _ = write!(
                json,
                "{}\n      \"{}\": {{\"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread}}}",
                if m > 0 { "," } else { "" },
                def.name
            );
        }
        json.push_str("\n    }");
    }
    json.push_str("\n  }\n}\n");
    fs::create_dir_all(out_dir)?;
    fs::write(out_dir.join("spread.json"), json)?;
    Ok(within)
}

/// The three quartiles of `sorted` as Python's `statistics.quantiles(xs,
/// n=4)` (the exclusive method) gives them.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
    }
}
