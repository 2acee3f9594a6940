//! `pairs` — the verdict on a change, from alternated `ios_benchmark` runs.
//!
//! Builds the benchmark twice, at a parent revision and at `HEAD`, each in a
//! `git worktree` of its own under `target/pairs/` and offline from
//! `vendor/`, then runs the two builds in pairs. The order flips every pair,
//! every pair gets a fresh seed (its number), and the workloads interleave,
//! so each workload's pairs spread over the whole session. Only the last
//! line of each run is read — the JSON result the benchmark prints — so the
//! benchmark itself is run exactly as the judge runs it.
//!
//! Per workload and end-to-end metric of `BENCHMARK.json` it prints the
//! parent's and the change's q1 / median / q3, how many pairs read the
//! change lower, and a [`verdict`]: *better*, *worse* or *unresolved*.
//! Run against itself (`--parent HEAD`) every metric must read
//! *unresolved*: that is the rule's false-positive check.
//!
//! Then it runs every acceptance gate [`GATE_RUNS`] times with `--quick` on
//! the change, and appends one row to `BENCH_TRAJECTORY.jsonl` at the
//! repository root: the two revisions, the host with its load average, each
//! workload's verdict table, and per gate each bar's median value and how
//! many runs it passed in. [`check_row`] is the row's schema; the rows of
//! changes measured before this tool wrote them are transcribed from
//! CHANGES.md and marked `reconstructed`. The tool leaves a new row's `pr`
//! null and its `note` empty: the change's docs commit fills them in, and
//! a committed measured row without them fails [`check_row`].
//!
//! ```text
//! cargo run --release -p ios-bench --bin pairs -- --parent REV [--workload NAME]... [--pairs N]
//! ```
//!
//! `--workload` may repeat (default: every workload of `BENCHMARK.json`);
//! `--pairs` defaults to 10. Commit the change first: both sides are
//! revisions, as the judge sees them.

use ios_bench::gate::Host;
use ios_bench::{quantile, quartiles};
use serde_json::{json, Map, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: pairs --parent REV [--workload NAME]... [--pairs N]";

/// The trajectory, at the repository root: one JSON row per line.
const TRAJECTORY: &str = "BENCH_TRAJECTORY.jsonl";

/// The acceptance gates (`<name>_gate` binaries of this package).
const GATES: [&str; 6] = ["conv", "simd", "sched", "telemetry", "adapt", "tenant"];

/// Runs of each gate on the change: a bar that passes in some runs only
/// shows as such.
const GATE_RUNS: usize = 3;

/// What one pair of runs says about a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `value` to four significant digits: set-up times run from tens of
/// microseconds to tenths of a second.
fn digits(value: f64) -> String {
    let decimals = (3.0 - value.abs().log10().floor()).clamp(0.0, 9.0) as usize;
    format!("{value:.decimals$}")
}

/// The verdict on `(parent, change)` pairs of one metric, `lower` if a lower
/// value is better. The change is *better* when it reads better in at least
/// 9 of 10 pairs — 80 % from 20 pairs on — and its median beats the
/// parent's by more than the parent's interquartile distance; *worse* by the
/// same rule the other way; *unresolved* otherwise, and always below 10
/// pairs. A tie counts for neither side.
fn verdict(pairs: &[(f64, f64)], lower: bool) -> Verdict {
    let n = pairs.len();
    if n < 10 {
        return Verdict::Unresolved;
    }
    let needed = if n < 20 { n * 9 } else { n * 8 }.div_ceil(10);
    let gain = |(parent, change): (f64, f64)| {
        if lower {
            parent - change
        } else {
            change - parent
        }
    };
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let [q1, median, q3] = quartiles(&parent);
    let median_gain = gain((median, quantile(&change, 0.5)));
    let count = |better: bool| {
        let on_side = |g: f64| if better { g > 0.0 } else { g < 0.0 };
        pairs.iter().filter(|&&p| on_side(gain(p))).count()
    };
    if count(true) >= needed && median_gain > q3 - q1 {
        Verdict::Better
    } else if count(false) >= needed && -median_gain > q3 - q1 {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

struct Args {
    parent: String,
    workloads: Vec<String>,
    pairs: usize,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut parent, mut workloads, mut pairs) = (None, Vec::new(), 10);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--parent" => parent = Some(value()?),
            "--workload" => workloads.push(value()?),
            "--pairs" => {
                let text = value()?;
                pairs = text
                    .parse()
                    .map_err(|_| format!("--pairs {text:?} is not a count"))?;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let parent = parent.ok_or("--parent is required")?;
    if pairs == 0 {
        return Err("--pairs must be at least 1".to_string());
    }
    Ok(Args {
        parent,
        workloads,
        pairs,
    })
}

/// Runs `program` and returns its standard output, or why it failed.
fn run(program: &str, args: &[&str], dir: &Path) -> Result<String, String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("{program}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{program} {args:?}: {}\n{err}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// One side of the comparison: a worktree at a revision and its build.
struct Side {
    name: &'static str,
    worktree: PathBuf,
    /// The build directory: the benchmark, and the gates on the change.
    build: PathBuf,
    binary: PathBuf,
}

/// Checks `rev` out into a fresh worktree under `target/pairs/` and builds
/// the benchmark there, offline, into a build directory that outlives the
/// worktree (so a second invocation rebuilds incrementally).
fn prepare(root: &Path, name: &'static str, rev: &str) -> Result<Side, String> {
    let spec = format!("{rev}^{{commit}}");
    let commit = run("git", &["rev-parse", "--verify", &spec], root)?;
    let pairs_dir = root.join("target").join("pairs");
    let worktree = pairs_dir.join(name);
    let path = worktree.to_string_lossy().into_owned();
    // A worktree a cut-short invocation left behind; absent is fine.
    let _ = run("git", &["worktree", "remove", "--force", &path], root);
    run("git", &["worktree", "prune"], root)?;
    run(
        "git",
        &["worktree", "add", "--detach", &path, commit.trim()],
        root,
    )?;
    let build = pairs_dir.join(format!("{name}-build"));
    println!("# building {name} at {} ({rev})", &commit[..12]);
    cargo_build(&worktree.join("ios_benchmark"), &build, &[])?;
    let binary = build.join("release").join("ios_benchmark");
    Ok(Side {
        name,
        worktree,
        build,
        binary,
    })
}

/// Builds the workspace at `dir` in release mode, offline, into `build`.
fn cargo_build(dir: &Path, build: &Path, extra: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
        ])
        .arg(dir.join("Cargo.toml"))
        .args(extra)
        .env("CARGO_TARGET_DIR", build)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed: {status}", dir.display()));
    }
    Ok(())
}

/// Builds the gates on `side` and runs each [`GATE_RUNS`] times with
/// `--quick` in its worktree; one [`summarize`]d entry per gate.
fn run_gates(side: &Side) -> Result<Map, String> {
    println!(
        "# running the gates on {}, {GATE_RUNS} times each",
        side.name
    );
    cargo_build(&side.worktree, &side.build, &["-p", "ios-bench", "--bins"])?;
    let mut gates = Map::new();
    for gate in GATES {
        let binary = side.build.join("release").join(format!("{gate}_gate"));
        let report = side.worktree.join(format!("BENCH_{gate}.json"));
        let mut reports = Vec::new();
        for _ in 0..GATE_RUNS {
            let status = Command::new(&binary)
                .arg("--quick")
                .current_dir(&side.worktree)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("{gate}_gate: {e}"))?;
            // 0: every bar passed; 1: one failed. Anything else is no run.
            if !matches!(status.code(), Some(0 | 1)) {
                return Err(format!("{gate}_gate: {status}"));
            }
            let text = std::fs::read_to_string(&report)
                .map_err(|e| format!("{}: {e}", report.display()))?;
            reports.push(serde_json::from_str(&text).map_err(|e| format!("{gate}: {e}"))?);
        }
        gates.insert(gate, summarize(&reports));
    }
    Ok(gates)
}

/// One gate's runs (its `BENCH_<gate>.json` reports) summed up: how many
/// runs passed every bar, and per bar its comparator, its bar, the median
/// of its values and the runs it passed in.
fn summarize(reports: &[Value]) -> Value {
    let passes = |v: &Value| v["pass"].as_bool() == Some(true);
    let mut bars = Map::new();
    for bar in reports
        .first()
        .and_then(|r| r["bars"].as_array())
        .unwrap_or(&[])
    {
        let name = bar["name"].as_str().unwrap_or_default();
        let runs: Vec<&Value> = (reports.iter())
            .filter_map(|r| (r["bars"].as_array()?.iter()).find(|b| b["name"] == bar["name"]))
            .collect();
        let values: Vec<f64> = (runs.iter())
            .filter_map(|b| Some(b["value"].as_number()?.as_f64()))
            .collect();
        let median = (!values.is_empty()).then(|| quantile(&values, 0.5));
        let passed = runs.iter().filter(|b| passes(b)).count();
        let summary = json!({
            "comparator": (bar["comparator"].clone()),
            "bar": (bar["bar"].clone()),
            "median": median,
            "passed": passed,
        });
        bars.insert(name, summary);
    }
    json!({
        "runs": (reports.len()),
        "passed": (reports.iter().filter(|r| passes(r)).count()),
        "bars": (Value::Object(bars)),
    })
}

/// `/proc/loadavg`, where there is one.
fn loadavg() -> Value {
    std::fs::read_to_string("/proc/loadavg").map_or(Value::Null, |text| json!((text.trim())))
}

/// `v[key]`, or null where `v` has no such key: a malformed row then fails
/// a check instead of the indexing (the vendored `Value` panics on a
/// missing key).
fn at<'v>(v: &'v Value, key: &str) -> &'v Value {
    static NULL: Value = Value::Null;
    v.as_object().and_then(|m| m.get(key)).unwrap_or(&NULL)
}

/// Why `row` is not a trajectory row, if it is not one. Every row has:
///
/// * `rev` — the measured commit — and `parent`, the commit it was
///   compared with (null where none was);
/// * `date` (`YYYY-MM-DD`), `pr` (the PR number, null where unknown) and
///   `reconstructed`: true for a row transcribed from CHANGES.md rather
///   than measured by this tool; such a row cites its entry in `note`;
/// * `host`: `cores` and `cpu_model`, and `loadavg` as `[start, end]` of
///   the runs, null where unknown (a measured row has all three);
/// * `pairs`: the pairs run per workload, null where unknown;
/// * `workloads`: per workload, per end-to-end metric, `parent` and
///   `change` as `[q1, median, q3]` (null where unknown), `lower` as
///   `"k/n"` and `verdict` (`better`, `worse` or `unresolved`);
/// * `gates`: per gate its `runs`, the runs it `passed`, and per bar its
///   `comparator` (`>=` or `<=`), `bar`, `median` value and the runs it
///   `passed` in;
/// * `note`: free text.
///
/// A measured row also names its PR and says in `note` what it measured;
/// [`check_schema`] is the rule without that, for a row just written.
fn check_row(row: &Value) -> Result<(), String> {
    check_schema(row)?;
    let named = at(row, "pr").as_number().is_some() && at(row, "note").as_str() != Some("");
    if at(row, "reconstructed").as_bool() == Some(false) && !named {
        return Err("a measured row names its pr and has a note".to_string());
    }
    Ok(())
}

/// [`check_row`] but for a measured row's `pr` and `note`, which the
/// change's docs commit fills in.
fn check_schema(row: &Value) -> Result<(), String> {
    let object = |v: &Value, what: &str| -> Result<Map, String> {
        v.as_object()
            .cloned()
            .ok_or(format!("{what} is not an object"))
    };
    let row_map = object(row, "the row")?;
    let keys: Vec<&str> = row_map.iter().map(|(k, _)| k.as_str()).collect();
    let expected = [
        "rev",
        "parent",
        "date",
        "pr",
        "reconstructed",
        "host",
        "pairs",
        "workloads",
        "gates",
        "note",
    ];
    if keys != expected {
        return Err(format!("keys {keys:?}, expected {expected:?}"));
    }
    let is = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("bad {what}"))
        }
    };
    let uint_or_null =
        |v: &Value| v.is_null() || v.as_number().is_some_and(|n| n.as_u128().is_some());
    let num_or_null = |v: &Value| v.is_null() || v.as_number().is_some();
    let text = |v: &Value| v.as_str().is_some_and(|s| !s.is_empty());
    let hex = |v: &Value| {
        v.as_str()
            .is_some_and(|s| s.len() >= 7 && s.bytes().all(|b| b.is_ascii_hexdigit()))
    };
    is(hex(at(row, "rev")), "rev")?;
    is(
        at(row, "parent").is_null() || hex(at(row, "parent")),
        "parent",
    )?;
    let date = at(row, "date").as_str().unwrap_or_default();
    is(
        date.len() == 10 && date.as_bytes()[4] == b'-' && date.as_bytes()[7] == b'-',
        "date",
    )?;
    is(uint_or_null(at(row, "pr")), "pr")?;
    let reconstructed = at(row, "reconstructed")
        .as_bool()
        .ok_or("bad reconstructed")?;
    is(at(row, "note").as_str().is_some(), "note")?;
    let host = at(row, "host");
    is(uint_or_null(at(host, "cores")), "host.cores")?;
    is(
        at(host, "cpu_model").is_null() || text(at(host, "cpu_model")),
        "host.cpu_model",
    )?;
    let load = at(host, "loadavg");
    is(
        load.is_null()
            || load
                .as_array()
                .is_some_and(|a| a.len() == 2 && a.iter().all(|l| l.is_null() || text(l))),
        "host.loadavg",
    )?;
    is(uint_or_null(at(row, "pairs")), "pairs")?;
    if reconstructed {
        is(
            at(row, "pr").as_number().is_some() && text(at(row, "note")),
            "reconstructed row's pr and note",
        )?;
    } else {
        is(
            !at(host, "cores").is_null() && !load.is_null() && !at(row, "pairs").is_null(),
            "measured row's host and pairs",
        )?;
    }
    let quartiles = |v: &Value| {
        v.is_null()
            || v.as_array()
                .is_some_and(|a| a.len() == 3 && a.iter().all(num_or_null))
    };
    for (workload, metrics) in object(at(row, "workloads"), "workloads")?.iter() {
        for (metric, m) in object(metrics, workload)?.iter() {
            let what = format!("{workload}.{metric}");
            object(m, &what)?;
            is(
                quartiles(at(m, "parent")) && quartiles(at(m, "change")),
                &what,
            )?;
            is(
                at(m, "lower").is_null()
                    || at(m, "lower")
                        .as_str()
                        .and_then(|s| s.split_once('/'))
                        .is_some_and(|(k, n)| k.parse::<u32>().is_ok() && n.parse::<u32>().is_ok()),
                &format!("{what}.lower"),
            )?;
            is(
                at(m, "verdict").is_null()
                    || matches!(
                        at(m, "verdict").as_str(),
                        Some("better" | "worse" | "unresolved")
                    ),
                &format!("{what}.verdict"),
            )?;
        }
    }
    for (gate, g) in object(at(row, "gates"), "gates")?.iter() {
        is(
            uint_or_null(at(g, "runs")) && uint_or_null(at(g, "passed")),
            gate,
        )?;
        for (bar, b) in object(at(g, "bars"), gate)?.iter() {
            let what = format!("{gate}: {bar}");
            object(b, &what)?;
            is(
                at(b, "comparator").is_null()
                    || matches!(at(b, "comparator").as_str(), Some(">=" | "<=")),
                &what,
            )?;
            is(
                num_or_null(at(b, "bar"))
                    && num_or_null(at(b, "median"))
                    && uint_or_null(at(b, "passed")),
                &what,
            )?;
        }
    }
    Ok(())
}

/// An end-to-end metric: its name, and whether lower is better.
type Metric = (String, bool);

/// The end-to-end metrics of `BENCHMARK.json` and its workload names.
fn manifest(root: &Path) -> Result<(Vec<Metric>, Vec<String>), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| json[key].as_array().unwrap_or(&[]).to_vec();
    let name = |v: &Value| v["name"].as_str().unwrap_or_default().to_string();
    let metrics = (list("end_to_end").iter())
        .map(|m| (name(m), m["better"].as_str() == Some("lower")))
        .collect();
    Ok((metrics, list("workloads").iter().map(name).collect()))
}

/// One run's metric values, in `metrics` order, from its last line.
fn one_run(
    side: &Side,
    workload: &str,
    seed: usize,
    metrics: &[Metric],
) -> Result<Vec<f64>, String> {
    let binary = side.binary.to_string_lossy();
    let seed = seed.to_string();
    let args = ["--workload", workload, "--seed", &seed, "--trace", "0"];
    let out = run(&binary, &args, &side.worktree)?;
    let last = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    read_result(last, metrics).map_err(|why| format!("{workload} on {}: {why}", side.name))
}

/// The metric values of one run's result line, in `metrics` order. Keys
/// are read through [`at`]: a line without `correct` or without a metric
/// is an error, not a panic half an hour into a session.
fn read_result(line: &str, metrics: &[Metric]) -> Result<Vec<f64>, String> {
    let result: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    if at(&result, "correct").as_bool() != Some(true) {
        return Err("a check failed".to_string());
    }
    let value = |name: &str| {
        let metric = at(at(&result, "metrics"), name);
        at(metric, "value").as_number().map(|n| n.as_f64())
    };
    (metrics.iter())
        .map(|(name, _)| value(name).ok_or(format!("no {name}")))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("pairs: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("pairs: {why}");
            ExitCode::FAILURE
        }
    }
}

fn compare(args: &Args) -> Result<(), String> {
    let here = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = PathBuf::from(run("git", &["rev-parse", "--show-toplevel"], &here)?.trim());
    let (metrics, all) = manifest(&root)?;
    let workloads = if args.workloads.is_empty() {
        all
    } else {
        args.workloads.clone()
    };
    let load_start = loadavg();
    let sides = [
        prepare(&root, "parent", &args.parent)?,
        prepare(&root, "change", "HEAD")?,
    ];
    // values[workload][metric] = (parent, change) per pair.
    let mut values = vec![vec![Vec::new(); metrics.len()]; workloads.len()];
    for pair in 0..args.pairs {
        for (w, workload) in workloads.iter().enumerate() {
            let first = (pair + w) % 2;
            let mut read = [Vec::new(), Vec::new()];
            for s in [first, 1 - first] {
                read[s] = one_run(&sides[s], workload, pair + 1, &metrics)?;
                let shown: Vec<String> = (metrics.iter().zip(&read[s]))
                    .map(|((name, _), v)| format!("{name} {}", digits(*v)))
                    .collect();
                let (n, name) = (args.pairs, sides[s].name);
                println!(
                    "pair {}/{n} {workload} {name}: {}",
                    pair + 1,
                    shown.join(", ")
                );
            }
            for (m, pairs) in values[w].iter_mut().enumerate() {
                pairs.push((read[0][m], read[1][m]));
            }
        }
    }
    println!(
        "\n{:<22} {:<16} {:>36} {:>36} {:>7}  verdict",
        "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "lower"
    );
    let mut table = Map::new();
    for (workload, per_metric) in workloads.iter().zip(&values) {
        let mut rows = Map::new();
        for ((name, lower), pairs) in metrics.iter().zip(per_metric) {
            let parent = quartiles(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
            let change = quartiles(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
            let show = |[q1, q2, q3]: [f64; 3]| {
                format!("{} / {} / {}", digits(q1), digits(q2), digits(q3))
            };
            let below = format!(
                "{}/{}",
                pairs.iter().filter(|(p, c)| c < p).count(),
                pairs.len()
            );
            let verdict = verdict(pairs, *lower).name();
            println!(
                "{workload:<22} {name:<16} {:>36} {:>36} {below:>7}  {verdict}",
                show(parent),
                show(change),
            );
            let row =
                json!({"parent": parent, "change": change, "lower": below, "verdict": verdict});
            rows.insert(name.as_str(), row);
        }
        table.insert(workload.as_str(), Value::Object(rows));
    }
    let gates = run_gates(&sides[1])?;
    for side in &sides {
        let path = side.worktree.to_string_lossy();
        run("git", &["worktree", "remove", "--force", &path], &root)?;
    }
    let rev = |spec: &str| run("git", &["rev-parse", &format!("{spec}^{{commit}}")], &root);
    let mut host = serde_json::to_value(Host::detect()).map_err(|e| e.to_string())?;
    if let Some(host) = host.as_object_mut() {
        host.insert("loadavg", json!([(load_start), (loadavg())]));
    }
    let row = json!({
        "rev": (rev("HEAD")?.trim()),
        "parent": (rev(&args.parent)?.trim()),
        "date": (run("date", &["-u", "+%F"], &root)?.trim()),
        "pr": null,
        "reconstructed": false,
        "host": host,
        "pairs": (args.pairs),
        "workloads": (Value::Object(table)),
        "gates": (Value::Object(gates)),
        "note": "",
    });
    check_schema(&row)?;
    let line = serde_json::to_string(&row).map_err(|e| e.to_string())?;
    let path = root.join(TRAJECTORY);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| writeln!(file, "{line}"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# appended a row to {TRAJECTORY}");
    if let Err(why) = check_row(&row) {
        println!("# {why}: fill them in before committing it");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` pairs whose parent reads `100 + i % 3` and whose change reads
    /// `shift` away from it, except in the first `against` pairs, where it
    /// reads `shift` the other way.
    fn pairs(n: usize, shift: f64, against: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let parent = 100.0 + (i % 3) as f64;
                let sign = if i < against { -1.0 } else { 1.0 };
                (parent, parent + sign * shift)
            })
            .collect()
    }

    #[test]
    fn nine_of_ten_beyond_the_parents_spread_is_a_verdict() {
        // Parent quartiles 100 / 101 / 101.75, an IQR of 1.75; gains of 5.
        assert_eq!(verdict(&pairs(10, -5.0, 1), true), Verdict::Better);
        assert_eq!(verdict(&pairs(10, 5.0, 1), true), Verdict::Worse);
        // A higher-is-better metric reads the same pairs the other way.
        assert_eq!(verdict(&pairs(10, 5.0, 1), false), Verdict::Better);
        assert_eq!(verdict(&pairs(10, -5.0, 0), false), Verdict::Worse);
    }

    #[test]
    fn too_few_pairs_a_median_inside_the_spread_or_ties_are_unresolved() {
        // Two pairs against of ten: 8/10 is short of 9.
        assert_eq!(verdict(&pairs(10, -5.0, 2), true), Verdict::Unresolved);
        // Lower in every pair, but by less than the parent's IQR.
        assert_eq!(verdict(&pairs(10, -0.5, 0), true), Verdict::Unresolved);
        // Nine pairs are too few for any verdict.
        assert_eq!(verdict(&pairs(9, -5.0, 0), true), Verdict::Unresolved);
        // Equal values count for neither side.
        assert_eq!(verdict(&pairs(12, 0.0, 0), true), Verdict::Unresolved);
        // The same parent on both sides reads unresolved.
        let same: Vec<(f64, f64)> = pairs(10, 0.0, 0).iter().map(|&(p, _)| (p, p)).collect();
        assert_eq!(verdict(&same, true), Verdict::Unresolved);
    }

    #[test]
    fn from_twenty_pairs_eighty_percent_suffice() {
        assert_eq!(verdict(&pairs(20, -5.0, 4), true), Verdict::Better);
        assert_eq!(verdict(&pairs(20, -5.0, 5), true), Verdict::Unresolved);
        assert_eq!(verdict(&pairs(19, -5.0, 2), true), Verdict::Unresolved);
    }

    #[test]
    fn values_print_to_four_significant_digits() {
        assert_eq!(digits(135.0391), "135.0");
        assert_eq!(digits(0.046_71), "0.04671");
        assert_eq!(digits(0.000_026_4), "0.00002640");
        assert_eq!(digits(0.0), "0.000000000");
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
    }

    /// A measured row as `compare` writes it, with one workload metric and
    /// one gate, its `pr` and `note` filled in.
    fn measured_row() -> Value {
        let gate = summarize(&[report(1.2, true), report(0.9, false), report(1.1, true)]);
        json!({
            "rev": "0123456789abcdef",
            "parent": "fedcba9876543210",
            "date": "2026-10-19",
            "pr": 46,
            "reconstructed": false,
            "host": {"cores": 2, "cpu_model": "Xeon", "loadavg": ["0.5 0.4 0.3 1/99 7", "1.9 1.0 0.6 2/99 8"]},
            "pairs": 10,
            "workloads": {"sched_search": {"latency_ms_best": {
                "parent": [1.0, 2.0, 3.0], "change": [1.0, 2.0, 3.0], "lower": "4/10", "verdict": "unresolved"
            }}},
            "gates": {"sched": gate},
            "note": "what the pairs measured",
        })
    }

    /// A one-bar `BENCH_<gate>.json` report.
    fn report(value: f64, pass: bool) -> Value {
        json!({"gate": "sched", "pass": pass, "bars": [
            {"name": "speedup", "value": value, "comparator": ">=", "bar": 1.0, "pass": pass}
        ]})
    }

    #[test]
    fn a_gate_sums_up_as_its_median_and_the_runs_it_passed() {
        let gate = summarize(&[report(1.2, true), report(0.9, false), report(1.1, true)]);
        assert_eq!(
            (gate["runs"].clone(), gate["passed"].clone()),
            (json!(3), json!(2))
        );
        let bar = &gate["bars"]["speedup"];
        assert_eq!(bar["median"], json!(1.1));
        assert_eq!(
            (bar["passed"].clone(), bar["bar"].clone()),
            (json!(2), json!(1.0))
        );
        assert_eq!(bar["comparator"], json!(">="));
    }

    #[test]
    fn a_row_is_checked_against_the_schema() {
        let row = measured_row();
        check_row(&row).expect("a measured row is well formed");
        let text = serde_json::to_string(&row).unwrap();
        check_row(&serde_json::from_str(&text).unwrap()).expect("and still so once written");
        let broken = |edit: &dyn Fn(&mut Map)| {
            let mut row = measured_row();
            edit(row.as_object_mut().unwrap());
            check_row(&row).is_err()
        };
        assert!(broken(&|r| r.insert("rev", json!("HEAD"))));
        assert!(broken(&|r| r.insert("date", json!("19.10.2026"))));
        assert!(
            broken(&|r| r.insert("pairs", Value::Null)),
            "a measured row counts its pairs"
        );
        assert!(
            broken(&|r| r.insert("host", json!({"cores": 2}))),
            "a missing key fails a check, not the indexing"
        );
        assert!(
            broken(&|r| {
                r.insert("reconstructed", json!(true));
                r.insert("pr", Value::Null);
            }),
            "a reconstructed row names its PR"
        );
        assert!(broken(&|r| {
            r.insert("workloads", json!({"w": {"m": {"parent": [1.0], "change": null, "lower": null, "verdict": null}}}));
        }));
        assert!(broken(&|r| {
            r.insert("workloads", json!({"w": {"m": {"parent": null, "change": null, "lower": "9 of 10", "verdict": null}}}));
        }));
        assert!(broken(&|r| {
            r.insert("workloads", json!({"w": {"m": {"parent": null, "change": null, "lower": null, "verdict": "faster"}}}));
        }));
        assert!(broken(&|r| {
            r.insert("gates", json!({"g": {"runs": 1, "passed": 1, "bars": {"b": {"comparator": ">", "bar": 1, "median": 1, "passed": 1}}}}));
        }));
        let mut extra = measured_row();
        extra.as_object_mut().unwrap().insert("extra", json!(1));
        assert!(check_row(&extra).is_err(), "no key beyond the schema's");
    }

    #[test]
    fn a_measured_row_names_its_pr_and_says_what_it_measured() {
        let unfilled = |key: &str, value: Value| {
            let mut row = measured_row();
            row.as_object_mut().unwrap().insert(key, value);
            (check_schema(&row).is_ok(), check_row(&row).is_err())
        };
        assert_eq!(unfilled("pr", Value::Null), (true, true));
        assert_eq!(unfilled("note", json!("")), (true, true));
    }

    #[test]
    fn a_result_line_without_a_metric_is_an_error_not_a_panic() {
        let metrics = [
            ("latency_ms_best".to_string(), true),
            ("peak_rss_mb".to_string(), true),
        ];
        let line = r#"{"correct": true, "metrics": {"latency_ms_best": {"value": 1.5}}}"#;
        assert_eq!(
            read_result(line, &metrics),
            Err("no peak_rss_mb".to_string())
        );
        let both = r#"{"correct": true, "metrics": {"latency_ms_best": {"value": 1.5}, "peak_rss_mb": {"value": 9}}}"#;
        assert_eq!(read_result(both, &metrics), Ok(vec![1.5, 9.0]));
        let unchecked = r#"{"metrics": {}}"#;
        assert_eq!(
            read_result(unchecked, &metrics),
            Err("a check failed".to_string())
        );
        assert!(read_result(r#"{"correct": true}"#, &metrics).is_err());
    }

    /// The committed trajectory: every row well formed, and the
    /// reconstructed ones — one per PR entry of CHANGES.md from 11 to 43 —
    /// first, in PR order.
    #[test]
    fn every_trajectory_row_is_well_formed() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../",
            "BENCH_TRAJECTORY.jsonl"
        );
        let text = std::fs::read_to_string(path).expect("the trajectory is committed");
        let rows: Vec<Value> = (text.lines().enumerate())
            .map(|(i, line)| {
                let row =
                    serde_json::from_str(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
                check_row(&row).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
                row
            })
            .collect();
        let prs: Vec<u128> = (rows.iter())
            .take_while(|row| row["reconstructed"] == json!(true))
            .map(|row| row["pr"].as_number().and_then(|n| n.as_u128()).unwrap())
            .collect();
        let changes = [
            11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 25, 26, 27, 29, 30, 32, 35, 36, 37, 38, 39, 40,
            41, 43,
        ];
        assert_eq!(prs, changes);
        assert!(
            rows[prs.len()..]
                .iter()
                .all(|row| row["reconstructed"] == json!(false)),
            "measured rows follow the reconstructed ones"
        );
    }

    #[test]
    fn the_command_line_takes_a_parent_workloads_and_a_count() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        let ok = args("--parent abc --workload a --workload b --pairs 12").expect("valid");
        assert_eq!((ok.parent.as_str(), ok.pairs), ("abc", 12));
        assert_eq!(ok.workloads, ["a", "b"]);
        assert!(args("--workload a").is_err(), "--parent is required");
        assert!(args("--parent abc --pairs ten").is_err());
        assert!(args("--parent abc --pairs 0").is_err());
        assert!(args("--parent abc --seconds 5").is_err());
    }
}
