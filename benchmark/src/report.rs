//! `all`: every workload, one child process at a time, into one result
//! file. `compare`: two result files held against the bounds.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{Kind, WORKLOADS};
use crate::Options;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Exact under a seed on the simulator: any change is a real change.
const EXACT_ON_SIMULATOR: &[&str] = &["msgs_per_op", "stored_bytes_per_tuple"];

fn object(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Object(pairs.into_iter().collect())
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// First line of a command's output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a child process and returns its result line.
fn child(exe: &Path, o: &Options, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out_dir)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!("{workload} printed nothing"))?;
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn count(result: &Value, key: &str) -> i128 {
    result.get(key).and_then(Value::as_u64).map_or(0, i128::from)
}

/// `all`: `--runs` untraced runs — on seeds `--seed`, `--seed` + 1, … — and
/// one traced run of every workload (or of `--workload`), each in its own
/// process, one at a time. Prints a row per metric, for an end-to-end metric
/// with the runs' spread beside its bound, and writes `results-seed<N>.json`
/// into the output directory. `--runs 10` is the steadiness check: a
/// benchmark is steady when every spread is below a third of its bound.
pub fn run_all(o: &Options) -> ExitCode {
    match try_run_all(o) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("codb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs everything and writes the result file; returns the operations that
/// failed.
fn try_run_all(o: &Options) -> Result<i128, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = BTreeMap::new();
    let mut failed_total = 0;
    for spec in WORKLOADS.iter().filter(|w| o.workload.as_deref().is_none_or(|n| n == w.name)) {
        let runs = (0..o.runs.max(1) as u64)
            .map(|i| child(&exe, o, spec.name, o.seed.wrapping_add(i), false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child(&exe, o, spec.name, o.seed, true)?;
        let attempted: i128 = runs.iter().map(|r| count(r, "attempted")).sum();
        let failed: i128 =
            runs.iter().map(|r| count(r, "failed")).sum::<i128>() + count(&traced, "failed");
        failed_total += failed;
        println!(
            "== {} ({} untraced runs, {attempted} operations, {failed} failed)",
            spec.name,
            runs.len()
        );
        let end_to_end = END_TO_END.iter().map(|m| {
            let values: Vec<f64> = runs.iter().map(|r| metric_value(r, m.name)).collect();
            println!(
                "{:<32} {:>18.6} {:<6} spread {:>5.2}% of bound {:>4.1}%",
                m.name,
                median(&values),
                m.unit,
                spread(&values) * 100.0,
                m.bound * 100.0
            );
            let entry = object([
                ("median".to_owned(), Value::Float(median(&values))),
                ("values".to_owned(), Value::Array(values.into_iter().map(Value::Float).collect())),
                ("unit".to_owned(), text(m.unit)),
            ]);
            (m.name.to_owned(), entry)
        });
        let end_to_end = object(end_to_end.collect::<Vec<_>>());
        let per_layer = PER_LAYER.iter().map(|m| {
            let value = metric_value(&traced, m.name);
            println!("{:<32} {:>18.6} {}", m.name, value, m.unit);
            let entry = object([
                ("value".to_owned(), Value::Float(value)),
                ("unit".to_owned(), text(m.unit)),
            ]);
            (m.name.to_owned(), entry)
        });
        let per_layer = object(per_layer.collect::<Vec<_>>());
        workloads.insert(
            spec.name.to_owned(),
            object([
                ("attempted".to_owned(), Value::Int(attempted)),
                ("failed".to_owned(), Value::Int(failed)),
                ("end_to_end".to_owned(), end_to_end),
                ("per_layer".to_owned(), per_layer),
            ]),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let file = object([
        ("seed".to_owned(), Value::Int(o.seed.into())),
        ("seconds".to_owned(), Value::Float(o.seconds)),
        ("runs".to_owned(), Value::Int(o.runs.max(1) as i128)),
        ("nproc".to_owned(), Value::Int(nproc as i128)),
        ("workers".to_owned(), Value::Int(crate::durable::workers() as i128)),
        ("rustc".to_owned(), text(first_line_of("rustc", &["--version"]))),
        ("commit".to_owned(), text(first_line_of("git", &["rev-parse", "HEAD"]))),
        ("workloads".to_owned(), Value::Object(workloads)),
    ]);
    let path = o.out_dir.join(format!("results-seed{}.json", o.seed));
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&o.out_dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(failed_total)
}

/// Distance between the first and third quartile as a share of the median
/// (`statistics.quantiles(values, n=4)`'s exclusive method); with fewer than
/// four values, the range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    if v.len() < 4 {
        return (v[v.len() - 1] - v[0]) / m;
    }
    let quartile = |k: f64| {
        let pos = k * (v.len() as f64 + 1.0) / 4.0;
        let i = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[i - 1] + (pos - i as f64) * (v[i] - v[i - 1])
    };
    (quartile(3.0) - quartile(1.0)) / m
}

/// One (workload, metric) verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better by more than the bound (or at all, for an exact metric).
    Improved,
    /// Worse by more than the bound (or at all, for an exact metric).
    Regression,
    /// The run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// Judges the change from `a` to `b` of metric `m`.
pub fn judge(m: &MetricDef, exact: bool, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, as a share of the baseline.
    let worse = if ma == 0.0 {
        0.0
    } else if m.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let verdict = if exact {
        match worse {
            w if w > 0.0 => Verdict::Regression,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Ok,
        }
    } else if spread(a).max(spread(b)) > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regression
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_array)
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// `compare A.json B.json`: A is the baseline. One block per workload, one
/// row per end-to-end metric; exits non-zero on a regression, on a failed
/// operation in B, or when a workload is missing from either file.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("codb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    for spec in WORKLOADS {
        let failed = |f: &Value| {
            f.get("workloads").and_then(|w| w.get(spec.name)).map(|w| count(w, "failed"))
        };
        let (Some(fa), Some(fb)) = (failed(&a), failed(&b)) else {
            println!("== {}: missing from a result file", spec.name);
            bad = true;
            continue;
        };
        println!("== {} (failed: {fa} -> {fb})", spec.name);
        bad |= fb != 0 || fa != fb;
        let on_simulator = !matches!(spec.kind, Kind::Durable);
        for m in END_TO_END {
            let (va, vb) = (values_of(&a, spec.name, m.name), values_of(&b, spec.name, m.name));
            let exact = on_simulator && EXACT_ON_SIMULATOR.contains(&m.name);
            let (verdict, worse) = judge(m, exact, &va, &vb);
            bad |= verdict == Verdict::Regression;
            println!(
                "{:<26} {:>14.4} -> {:>14.4} {:<6} {:>+7.2}% worse (bound {:>4.1}%, spread {:>4.1}%/{:>4.1}%) {:?}",
                m.name,
                median(&va),
                median(&vb),
                m.unit,
                worse * 100.0,
                if exact { 0.0 } else { m.bound * 100.0 },
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                verdict
            );
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef =
        MetricDef { name: "op_ms_p50", unit: "ms", higher_is_better: false, bound: 0.10 };
    const HIGHER: MetricDef =
        MetricDef { name: "tuples_per_s", unit: "1/s", higher_is_better: true, bound: 0.10 };

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles([1..=10], n=4) = [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[4.0, 5.0, 6.0]), 0.4);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(judge(&LOWER, false, &base, &[105.0, 106.0, 104.0, 105.0]).0, Verdict::Ok);
        assert_eq!(
            judge(&LOWER, false, &base, &[115.0, 116.0, 114.0, 115.0]).0,
            Verdict::Regression
        );
        assert_eq!(judge(&LOWER, false, &base, &[80.0, 81.0, 79.0, 80.0]).0, Verdict::Improved);
        assert_eq!(judge(&HIGHER, false, &base, &[80.0, 81.0, 79.0, 80.0]).0, Verdict::Regression);
        assert_eq!(
            judge(&HIGHER, false, &base, &[120.0, 121.0, 119.0, 120.0]).0,
            Verdict::Improved
        );
    }

    #[test]
    fn a_noisy_metric_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&LOWER, false, &noisy, &[100.0, 101.0, 99.0, 100.0]).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn an_exact_metric_tolerates_no_change_for_the_worse() {
        assert_eq!(judge(&LOWER, true, &[500.0], &[500.0]).0, Verdict::Ok);
        assert_eq!(judge(&LOWER, true, &[500.0], &[501.0]).0, Verdict::Regression);
        assert_eq!(judge(&LOWER, true, &[500.0], &[499.0]).0, Verdict::Improved);
    }
}
