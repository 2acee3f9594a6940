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
//! ```text
//! cargo run --release -p ios-bench --bin pairs -- --parent REV [--workload NAME]... [--pairs N]
//! ```
//!
//! `--workload` may repeat (default: every workload of `BENCHMARK.json`);
//! `--pairs` defaults to 10. Commit the change first: both sides are
//! revisions, as the judge sees them.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: pairs --parent REV [--workload NAME]... [--pairs N]";

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

/// The `p`-th quantile (0 ≤ p ≤ 1) of `values`, linearly interpolated
/// between the nearest ranks.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = p * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// `value` to four significant digits: set-up times run from tens of
/// microseconds to tenths of a second.
fn digits(value: f64) -> String {
    let decimals = (3.0 - value.abs().log10().floor()).clamp(0.0, 9.0) as usize;
    format!("{value:.decimals$}")
}

/// q1, median and q3 of `values`.
fn quartiles(values: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|p| quantile(values, p))
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
    let manifest = worktree.join("ios_benchmark").join("Cargo.toml");
    println!("# building {name} at {} ({rev})", &commit[..12]);
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
        ])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", &build)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {name} failed: {status}"));
    }
    let binary = build.join("release").join("ios_benchmark");
    Ok(Side {
        name,
        worktree,
        binary,
    })
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
    let result: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    if result["correct"].as_bool() != Some(true) {
        return Err(format!("{workload} on {}: a check failed", side.name));
    }
    let value = |name: &str| {
        result["metrics"][name]["value"]
            .as_number()
            .map(|n| n.as_f64())
    };
    (metrics.iter())
        .map(|(name, _)| value(name).ok_or(format!("{workload}: no {name}")))
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
    for (workload, per_metric) in workloads.iter().zip(&values) {
        for ((name, lower), pairs) in metrics.iter().zip(per_metric) {
            let show = |side: Vec<f64>| {
                let [q1, q2, q3] = quartiles(&side);
                format!("{} / {} / {}", digits(q1), digits(q2), digits(q3))
            };
            let below = pairs.iter().filter(|(p, c)| c < p).count();
            println!(
                "{workload:<22} {name:<16} {:>36} {:>36} {:>7}  {}",
                show(pairs.iter().map(|p| p.0).collect()),
                show(pairs.iter().map(|p| p.1).collect()),
                format!("{below}/{}", pairs.len()),
                verdict(pairs, *lower).name()
            );
        }
    }
    for side in &sides {
        let path = side.worktree.to_string_lossy();
        run("git", &["worktree", "remove", "--force", &path], &root)?;
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
