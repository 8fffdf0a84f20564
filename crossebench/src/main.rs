//! `crossebench` — the repo's benchmark: four seeded, self-checking
//! workloads over the Fig. 6 pipeline, with a per-layer trace. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.
//!
//! ```sh
//! crossebench --workload enrich-point --seed 42 --seconds 30 --trace 0   # one run
//! crossebench [--seed N] [--runs N] [--trace 1] [--json out.json]        # all four
//! crossebench --compare parent.json change.json
//! crossebench --bless                                                    # golden digests
//! ```

#![forbid(unsafe_code)]

mod digest;
mod layers;
mod ops;
mod run;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use ops::Workload;
use run::{Golden, RunConfig, RunResult};
use spec::{field, MetricSpec};

const GOLDEN_PATH: &str = "crossebench/golden/digests.txt";
/// Failed over attempted operations, kept beside the contract's metrics in
/// suite files so `--compare` can refuse any increase.
const FAIL_RATIO: &str = "fail_ratio";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    json: Option<String>,
    compare: Option<(String, String)>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        runs: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => args.trace = value()? == "1",
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--json" => args.json = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// JSON has no NaN or infinity; a metric that could not be computed is 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

/// The contract's result line.
fn result_line(r: &RunResult, specs: &[MetricSpec]) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .zip(specs)
        .map(|((name, value), spec)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(*value),
                spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// One run of one workload: `workload metric value unit` rows, then the
/// result line last.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let seconds = match (args.seconds, args.smoke) {
        (Some(s), _) => s,
        (None, true) => 0.4,
        (None, false) => spec::run_seconds().ok_or("BENCHMARK.json names no run_seconds")?,
    };
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        setup_reps: if args.smoke { 1 } else { 5 },
    };
    let r = run::run(&cfg, &Golden::embedded())?;
    let specs = if args.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let printed: Vec<&str> = r.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let named: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    if printed != named {
        return Err(format!(
            "metrics {printed:?} are not BENCHMARK.json's {named:?}"
        ));
    }
    let w = workload.name();
    for ((name, value), spec) in r.metrics.iter().zip(&specs) {
        println!("{w} {name} {} {}", num(*value), spec.unit);
    }
    println!(
        "{w} {FAIL_RATIO} {} ratio",
        num(r.failed as f64 / r.attempted.max(1) as f64)
    );
    for (name, value, unit) in &r.notes {
        println!("{w} note.{name} {} {unit}", num(*value));
    }
    println!("{}", result_line(&r, &specs));
    Ok(r.failed == 0)
}

/// The values of one (workload, metric) over a suite's runs.
struct Series {
    unit: String,
    values: Vec<f64>,
}

/// Every workload, each run in a fresh process (clean heap, its own
/// `setup_s` and `peak_rss_mb`), seeds `seed .. seed + runs`.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut series: BTreeMap<(usize, String), Series> = BTreeMap::new();
    let mut all_correct = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for (run, &trace) in (0..args.runs).flat_map(|r| traces.iter().map(move |t| (r, t))) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &(args.seed + run as u64).to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| e.to_string())?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            all_correct &= out.status.success();
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                println!("{line}");
                let cells: Vec<&str> = line.split_whitespace().collect();
                if let [name, metric, value, unit] = cells[..] {
                    if name == workload.name() && !metric.starts_with("note.") {
                        let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                        series
                            .entry((w, metric.to_string()))
                            .or_insert_with(|| Series {
                                unit: unit.to_string(),
                                values: vec![],
                            })
                            .values
                            .push(value);
                    }
                }
            }
        }
    }

    println!(
        "\n{:<13} {:<28} {:>14} {:>14} {:>14} {:>8} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "spread", "n"
    );
    let mut rows = Vec::new();
    for ((w, metric), s) in &series {
        let (q1, q3) = stats::quartiles(&s.values);
        let (median, spread) = (stats::median(&s.values), stats::spread(&s.values));
        let name = Workload::ALL[*w].name();
        println!(
            "{name:<13} {metric:<28} {median:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {:>3}  {}",
            s.values.len(),
            s.unit
        );
        let values: Vec<String> = s.values.iter().map(|v| num(*v)).collect();
        rows.push(format!(
            "    {{\"workload\": \"{name}\", \"metric\": \"{metric}\", \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"values\": [{}]}}",
            s.unit, num(median), num(q1), num(q3), num(spread), values.join(", ")
        ));
    }
    if let Some(path) = &args.json {
        let mut out = String::from("{\n  \"meta\": {");
        let _ = write!(
            out,
            "\"seed\": {}, \"runs\": {}, \"run_seconds\": {}, \"host_cores\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"exec_threads\": 1, \"wal_sync\": \"{:?}\"",
            args.seed,
            args.runs,
            num(args.seconds.or_else(spec::run_seconds).unwrap_or(0.0)),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            tool_line("rustc", &["--version"]),
            tool_line("git", &["rev-parse", "HEAD"]),
            crosse_core::WalOptions::default().sync,
        );
        let _ = write!(
            out,
            "}},\n  \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?;
        println!("\nsuite written to {path}");
    }
    Ok(all_correct)
}

/// First line a tool prints, or `unknown` (no git in a bare checkout).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: no call either way.
    Unresolved,
}

/// Apply one metric's bound to a parent/change pair of medians.
fn verdict(spec: &MetricSpec, parent: (f64, f64), change: (f64, f64)) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let ((a, spread_a), (b, spread_b)) = (parent, change);
    let worse_by =
        if spec.higher_is_better { a - b } else { b - a } / a.abs().max(f64::MIN_POSITIVE);
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) -> (median, spread)`.
type Suite = BTreeMap<(String, String), (f64, f64)>;

/// The medians and spreads of a suite file.
fn read_suite(path: &str) -> Result<Suite, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if let (Some(w), Some(m), Some(median), Some(spread)) = (
            field(line, "workload"),
            field(line, "metric"),
            field(line, "median"),
            field(line, "spread"),
        ) {
            let parse = |v: &str| v.parse::<f64>().map_err(|e| format!("{path}: {line}: {e}"));
            out.insert(
                (w.to_string(), m.to_string()),
                (parse(median)?, parse(spread)?),
            );
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no results"));
    }
    Ok(out)
}

/// One row per (workload, end-to-end metric): ok / regressed / unresolved.
fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let (parent, change) = (read_suite(parent_path)?, read_suite(change_path)?);
    let mut specs = spec::end_to_end();
    // Any increase in failures is a regression: bound 0, spread ignored.
    specs.push(MetricSpec {
        name: FAIL_RATIO.into(),
        unit: "ratio".into(),
        higher_is_better: false,
        bound: None,
    });
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent", "change", "change%", "bound%"
    );
    let mut clean = true;
    for workload in spec::workload_names() {
        for spec in &specs {
            let key = (workload.clone(), spec.name.clone());
            let (Some(&a), Some(&b)) = (parent.get(&key), change.get(&key)) else {
                return Err(format!(
                    "{workload} {} is missing from a suite file",
                    spec.name
                ));
            };
            let v = match spec.bound {
                Some(_) => verdict(spec, a, b),
                None if b.0 > a.0 => Verdict::Regressed,
                None => Verdict::Ok,
            };
            clean &= v != Verdict::Regressed;
            println!(
                "{workload:<13} {:<12} {:>14.4} {:>14.4} {:>+9.2} {:>7.1}  {}",
                spec.name,
                a.0,
                b.0,
                (b.0 - a.0) / a.0.abs().max(f64::MIN_POSITIVE) * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare(a, b)
        } else if args.bless {
            std::fs::write(GOLDEN_PATH, run::bless()?)
                .map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
            println!("golden digests written to {GOLDEN_PATH}; rebuild to embed them");
            Ok(true)
        } else if let Some(name) = &args.workload {
            let workload = Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
            run_one(&args, workload)
        } else {
            run_suite(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("crossebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qps() -> MetricSpec {
        MetricSpec {
            name: "qps".into(),
            unit: "ops/s".into(),
            higher_is_better: true,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdict_applies_bound_and_spread() {
        let lower = MetricSpec {
            higher_is_better: false,
            ..qps()
        };
        assert_eq!(verdict(&qps(), (100.0, 0.02), (95.0, 0.02)), Verdict::Ok);
        assert_eq!(
            verdict(&qps(), (100.0, 0.02), (85.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&qps(), (100.0, 0.02), (150.0, 0.02)), Verdict::Ok);
        assert_eq!(
            verdict(&qps(), (100.0, 0.20), (85.0, 0.02)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower, (10.0, 0.01), (11.5, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&lower, (10.0, 0.01), (8.0, 0.01)), Verdict::Ok);
    }

    #[test]
    fn workload_names_match_the_contract() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, spec::workload_names());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![("qps".into(), 12.5), ("p50_ms".into(), f64::NAN)],
            notes: vec![],
        };
        let specs = [
            qps(),
            MetricSpec {
                name: "p50_ms".into(),
                unit: "ms".into(),
                ..qps()
            },
        ];
        assert_eq!(
            result_line(&r, &specs),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 12.5, \"unit\": \"ops/s\"}, \"p50_ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
