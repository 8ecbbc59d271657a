//! The coDB benchmark: five workloads, end-to-end metrics checked against an
//! oracle, per-layer attribution from a traced run.
//!
//! ```text
//! codb-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! codb-benchmark all [--seed N] [--seconds S] [--runs R] [--workload NAME] [--out DIR]
//! codb-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints every metric
//! by name with its unit, then — as the last line — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `all` runs every
//! workload that way — `--runs` untraced runs on seeds N, N+1, … and one
//! traced run, one child process at a time so peak memory is per workload —
//! prints each end-to-end metric's median and run-to-run spread beside its
//! bound, and writes a result file; `compare` holds two result files against
//! the bounds.

mod durable;
mod layers;
mod metrics;
mod nets;
mod oracle;
mod report;
mod run;
mod simrun;
mod sink;
mod stats;
mod timed;
mod workloads;

use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Kind, Spec};

/// Runs one workload in this process.
fn run_workload(spec: &Spec, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    match spec.kind {
        Kind::Update => simrun::run_updates(spec, seed, seconds, trace, out_dir),
        Kind::QueryMix => simrun::run_query_mix(spec, seed, seconds, trace, out_dir),
        Kind::Durable => durable::run_durable(spec, seed, seconds, trace, out_dir),
    }
}

/// The run's last line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome, table: &[MetricDef]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(outcome.get(m.name)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Command-line options, all forms.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out_dir: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: report::DEFAULT_SECONDS,
        trace: false,
        runs: 3,
        out_dir: PathBuf::from("benchmark/out"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => o.trace = value("--trace")? != "0",
            "--runs" => o.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => o.out_dir = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("codb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let first = options.positional.first().map(String::as_str);
    match first {
        Some("compare") => match &options.positional[1..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: codb-benchmark compare A.json B.json");
                ExitCode::from(2)
            }
        },
        Some("all") => report::run_all(&options),
        Some(other) => {
            eprintln!("codb-benchmark: unknown command {other}");
            ExitCode::from(2)
        }
        None => {
            let Some(spec) = options.workload.as_deref().and_then(workloads::by_name) else {
                let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("codb-benchmark: --workload must be one of {}", names.join(", "));
                return ExitCode::from(2);
            };
            let outcome =
                run_workload(spec, options.seed, options.seconds, options.trace, &options.out_dir);
            let table = if options.trace { PER_LAYER } else { END_TO_END };
            println!(
                "workload {} seed {} seconds {} trace {}",
                spec.name,
                options.seed,
                options.seconds,
                u8::from(options.trace)
            );
            for m in table {
                println!("{:<32} {:>18.6} {}", m.name, outcome.get(m.name), m.unit);
            }
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", result_line(&outcome, table));
            ExitCode::SUCCESS
        }
    }
}
