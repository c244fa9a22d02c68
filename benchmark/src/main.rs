//! Command line of the benchmark runner; see README.md.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use colr_benchmark::catalogue::{benchmark_json, DEFAULT_SEED, RUN_SECONDS};
use colr_benchmark::run::{self, Options};
use colr_benchmark::world::Workload;
use colr_benchmark::{aa, sys};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage:
  colr-benchmark --workload <live_local|warm_pan|routed_wide|churn_mix>
                 [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
  colr-benchmark --aa [--seed N] [--seconds S] [--quick] [--out DIR]
  colr-benchmark --spread RUNS [--seed FIRST] [--seconds S] [--quick] [--out DIR]
  colr-benchmark --emit-benchmark-json";

enum Mode {
    Run,
    Aa,
    Spread(usize),
    Emit,
}

fn parse_args() -> Result<(Mode, Option<Workload>, Options), String> {
    let mut mode = Mode::Run;
    let mut workload = None;
    let mut options = Options {
        workload: Workload::LiveLocal,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds >= 0.0 && options.seconds <= 60.0) {
                    return Err("--seconds must lie in 0..=60".to_owned());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => options.quick = true,
            "--out" => options.out_dir = PathBuf::from(value()?),
            "--aa" => mode = Mode::Aa,
            "--spread" => {
                mode = Mode::Spread(value()?.parse().map_err(|e| format!("--spread: {e}"))?)
            }
            "--emit-benchmark-json" => mode = Mode::Emit,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((mode, workload, options))
}

fn main() -> ExitCode {
    let (mode, workload, mut options) = match parse_args() {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Emit => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Mode::Aa => aa::aa(
            options.seed,
            options.seconds,
            options.quick,
            &options.out_dir,
        )
        .map(|()| true),
        Mode::Spread(runs) if runs >= 2 => aa::spread(
            runs,
            options.seed,
            options.seconds,
            options.quick,
            &options.out_dir,
        ),
        Mode::Spread(_) => {
            eprintln!("--spread needs at least 2 runs\n{USAGE}");
            return ExitCode::from(2);
        }
        Mode::Run => {
            let Some(workload) = workload else {
                eprintln!("--workload is required\n{USAGE}");
                return ExitCode::from(2);
            };
            options.workload = workload;
            run::run(&options).and_then(|report| {
                let mut out = std::io::stdout().lock();
                report.print(&mut out)?;
                writeln!(out, "{}", report.json_line())?;
                Ok(report.correct())
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
