//! `ios_benchmark`: one wall-clock benchmark for schedule search, scheduled
//! inference and serving, with a per-crate waterfall. See `README.md`.
//!
//! With `--workload` it runs that workload in this process and prints one
//! JSON result as the last line of standard output; without, it runs every
//! workload in a child process of its own and prints a summary.

mod gen;
mod host;
mod infer;
mod layers;
mod run;
mod search;
mod serve;
mod span;
mod stats;
mod table;

use run::{Outcome, RunArgs};
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: ios_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--traced] [--check-repeat] [--quick] [--list] [--manifest]

  --workload NAME  run one workload in this process; the last line of stdout
                   is {\"correct\",\"attempted\",\"failed\",\"metrics\"}
  --trace 1        the traced run: per-layer metrics and a span file
  (no --workload)  run every workload, each in its own child process
  --traced         ... and each workload's traced run at one-third length
  --check-repeat   ... twice, and fail if any end-to-end metric differs by
                   more than its bound
  --quick          three seconds per workload, checks on, bounds off
  --list           print the metric and workload tables
  --manifest       print BENCHMARK.json";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    check_repeat: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: table::RUN_SECONDS as f64,
        trace: false,
        traced: false,
        check_repeat: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !table::workloads().iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                cli.workload = Some(name.to_string());
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => cli.traced = true,
            "--check-repeat" => cli.check_repeat = true,
            "--quick" => {
                cli.quick = true;
                cli.seconds = 3.0;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            table::print_list();
            return ExitCode::SUCCESS;
        }
        Some("--manifest") => {
            print!("{}", table::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("ios_benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &cli.workload {
        Some(name) => run_workload(name, &cli),
        None => run_suite(&cli),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where the span files go: beside the build, inside the checkout.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("ios_benchmark")
}

fn metric(value: f64, unit: &str) -> Value {
    let value = serde_json::to_value(value).expect("a finite number");
    table::object(vec![("value", value), ("unit", table::text(unit))])
}

/// Runs one workload here and prints its report; the last line is the
/// result the driver reads.
fn run_workload(name: &str, cli: &Cli) -> bool {
    println!(
        "# ios_benchmark workload={name} seed={} seconds={} trace={}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    println!("# host: {}", host::fingerprint());
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let calib_before = host::calibration_ms();
    let mut out = match name {
        "infer_inception_b1" => infer::run(args),
        "sched_search" => search::run(args),
        "serve_open_squeezenet" => serve::open_squeezenet(args),
        "serve_closed_small" => serve::closed_small(args),
        other => unreachable!("parse accepted unknown workload {other}"),
    };
    let calib_after = host::calibration_ms();
    println!("# calibration loop: {calib_before:.1} ms before, {calib_after:.1} ms after");
    for note in &out.notes {
        println!("# {note}");
    }

    // Every workload completes at least one operation before it returns.
    let sorted = stats::sorted(&out.latencies_ms);
    let metrics = if cli.trace {
        out.layer("bench.calib_ms_before", calib_before);
        out.layer("bench.calib_ms_after", calib_after);
        per_layer_report(name, &mut out, &sorted)
    } else {
        end_to_end_report(&out, &sorted)
    };
    report_problems(&out);
    println!(
        "# operations: attempted {} succeeded {} failed {}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    let correct = out.problems.is_empty();
    let count = |n: u64| serde_json::to_value(n).expect("an integer");
    let result = table::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", count(out.attempted)),
        ("failed", count(out.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    correct
}

/// The traced run's report: every per-layer metric of the table, and the
/// span file.
fn per_layer_report(name: &str, out: &mut Outcome, sorted: &[f64]) -> Map {
    let mut metrics = Map::new();
    out.layer("bench.latency_ms_p50", stats::percentile(sorted, 50.0));
    out.layer("bench.latency_ms_p90", stats::percentile(sorted, 90.0));
    out.layer("bench.goodput_ops_s", out.goodput_ops_s);
    let known = table::per_layer();
    for stray in out
        .layers
        .keys()
        .filter(|k| known.iter().all(|m| m.name != **k))
    {
        out.problems
            .push(format!("metric {stray} is not in the table"));
    }
    for m in &known {
        // A layer that is not on this workload's path did no work.
        let value = out.layers.get(&m.name).copied().unwrap_or(0.0);
        println!("{:<34} {value:>14.4} {}", m.name, m.unit);
        metrics.insert(m.name.as_str(), metric(value, m.unit));
    }
    if let Some(trace) = &out.trace {
        let path = trace_dir().join(format!("trace_{name}.json"));
        match trace.write_json(&path, name, 100_000) {
            Ok(()) => println!("# {} spans -> {}", trace.spans.len(), path.display()),
            Err(why) => out
                .problems
                .push(format!("cannot write {}: {why}", path.display())),
        }
    }
    metrics
}

/// The untraced run's report: sample counts, in-run spread, and every
/// end-to-end metric of the table.
fn end_to_end_report(out: &Outcome, sorted: &[f64]) -> Map {
    let mut metrics = Map::new();
    let rounds = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# samples: {} (p90 has {} beyond it; highest tail percentile with ten beyond: {})",
        sorted.len(),
        stats::samples_beyond(sorted.len(), 90.0),
        stats::highest_supported_percentile(sorted.len())
            .map_or("none".to_string(), |p| format!("p{p}"))
    );
    println!(
        "# informational, follow the host's state: p50 {:.3} ms, p90 {:.3} ms, goodput {:.3} ops/s",
        stats::percentile(sorted, 50.0),
        stats::percentile(sorted, 90.0),
        out.goodput_ops_s
    );
    println!(
        "# per-round latency medians (ms): {}",
        rounds(&stats::round_medians(&out.latencies_ms))
    );
    println!(
        "# set-up repeated {} times, quartiles (s): {} (spread {:.1} % of the median)",
        out.setup_s.len(),
        rounds(&stats::quartiles(&out.setup_s)),
        stats::iqr_share(&out.setup_s) * 100.0
    );
    for m in table::end_to_end() {
        let value = match m.name {
            "latency_ms_best" => stats::best(&out.latencies_ms),
            "peak_rss_mb" => out.peak_rss_mb,
            "setup_s" => stats::best(&out.setup_s),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        println!("{:<16} {value:>14.6} {}", m.name, m.unit);
        metrics.insert(m.name, metric(value, m.unit));
    }
    metrics
}

fn report_problems(out: &Outcome) {
    for problem in &out.problems {
        println!("# WRONG: {problem}");
    }
    for part in &out.unreconciled {
        println!("# UNRECONCILED: {part}");
    }
}

/// The result line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    unreconciled: bool,
}

/// Runs one workload in a child process (so set-up time and peak memory
/// are its own), echoing its report.
fn run_child(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n')?;
    if !trace {
        println!("{report}");
    } else {
        for line in report.lines().filter(|l| l.starts_with('#')) {
            println!("{line}");
        }
    }
    let parsed: Value = serde_json::from_str(last).ok()?;
    let result = parsed.as_object()?;
    let number = |v: &Value| v.as_number().map(|n| n.as_f64());
    Some(ChildResult {
        correct: result.get("correct")?.as_bool()? && output.status.success(),
        attempted: number(result.get("attempted")?)? as u64,
        failed: number(result.get("failed")?)? as u64,
        metrics: result
            .get("metrics")?
            .as_object()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), number(v.as_object()?.get("value")?)?)))
            .collect(),
        unreconciled: report.contains("# UNRECONCILED"),
    })
}

/// One pass over every workload; returns the end-to-end values by
/// (workload, metric), or `None` if anything was wrong.
fn run_set(cli: &Cli, seed: u64) -> Option<Vec<(String, String, f64)>> {
    let mut values = Vec::new();
    let mut ok = true;
    for w in table::workloads() {
        println!("\n== {} (seed {seed}, {} s) ==", w.name, cli.seconds);
        let Some(result) = run_child(w.name, seed, cli.seconds, false) else {
            println!("# FAILED: {} printed no result", w.name);
            ok = false;
            continue;
        };
        ok &= result.correct && result.failed == 0;
        println!(
            "# {}: sent {} succeeded {} failed {}",
            w.name,
            result.attempted,
            result.attempted - result.failed,
            result.failed
        );
        values.extend(
            result
                .metrics
                .into_iter()
                .map(|(m, v)| (w.name.to_string(), m, v)),
        );
        if cli.traced {
            let seconds = (cli.seconds / 3.0).max(2.0);
            println!("-- traced run ({seconds:.1} s) --");
            match run_child(w.name, seed, seconds, true) {
                Some(traced) => {
                    ok &= traced.correct && traced.failed == 0 && !traced.unreconciled;
                    let units = table::per_layer();
                    for (name, value) in traced.metrics.iter().filter(|(_, v)| *v != 0.0) {
                        let unit = units
                            .iter()
                            .find(|m| m.name == *name)
                            .map_or("", |m| m.unit);
                        println!("{name:<34} {value:>14.4} {unit}");
                    }
                }
                None => {
                    println!("# FAILED: the traced run of {} printed no result", w.name);
                    ok = false;
                }
            }
        }
    }
    ok.then_some(values)
}

fn run_suite(cli: &Cli) -> bool {
    println!(
        "# ios_benchmark: {} workloads, seed {}",
        table::workloads().len(),
        cli.seed
    );
    println!("# host: {}", host::fingerprint());
    let Some(first) = run_set(cli, cli.seed) else {
        println!("\nRESULT: FAIL (a workload was wrong, failed an operation or did not reconcile)");
        return false;
    };
    if !cli.check_repeat {
        println!("\nRESULT: PASS");
        return true;
    }
    let Some(second) = run_set(cli, cli.seed) else {
        println!("\nRESULT: FAIL (the repeat was wrong)");
        return false;
    };
    println!("\n== repeat check: two sets back to back, same code, same seed ==");
    println!(
        "{:<24} {:<16} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    let bounds = table::end_to_end();
    let mut within = true;
    for ((workload, name, a), (_, _, b)) in first.iter().zip(&second) {
        let m = bounds
            .iter()
            .find(|m| m.name == name)
            .expect("a table metric");
        let worse = match m.better {
            table::Better::Lower => (b - a) / a,
            table::Better::Higher => (a - b) / a,
        };
        let over = worse.abs() > m.bound && !cli.quick;
        within &= !over;
        println!(
            "{workload:<24} {name:<16} {a:>12.6} {b:>12.6} {:>8.2} {:>7.0}{}",
            worse * 100.0,
            m.bound * 100.0,
            if over { "  OVER" } else { "" }
        );
    }
    println!(
        "\nRESULT: {}",
        if within {
            "PASS"
        } else {
            "FAIL (a metric moved by more than its bound)"
        }
    );
    within
}
