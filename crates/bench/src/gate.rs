//! The one way an acceptance gate (`*_gate`) judges and reports.
//!
//! A gate starts a [`Gate`], measures, and hands it what it found:
//! [`Table`]s whose columns are declared once — a column's key names the
//! JSON field, its header the printed column — bars ([`Gate::at_least`],
//! [`Gate::at_most`]: a measured value and the bar it has to clear) and
//! named scalar facts ([`Gate::fact`]). [`Gate::finish`] prints the verdict,
//! writes the report and returns the exit status of `fn main() -> ExitCode`.
//!
//! # Report
//!
//! Every gate writes `BENCH_<gate>.json` into the working directory (and
//! to `--json PATH` when given), always with the same seven keys:
//!
//! | key | value |
//! |---|---|
//! | `gate` | the gate's name (`conv`, `sched`, … `tenant`) |
//! | `host` | [`Host`]: cores, worker-pool lanes, detected and active ISA, CPU model |
//! | `quick` | whether `--quick` shortened the run |
//! | `tables` | `[{title, rows: [{<column key>: cell, …}]}]`, keys in column order |
//! | `bars` | `[{name, value, comparator, bar, pass}]`, `comparator` one of `>=`, `<=` |
//! | `facts` | `{<name>: scalar}` |
//! | `pass` | every bar passed |
//!
//! A value that is NaN or infinite is written as `null` and fails its bar.
//!
//! # Exit protocol
//!
//! `0` every bar passed, `1` a bar failed, `2` the command line was
//! malformed. A broken invariant — bit-identity, request accounting — is an
//! `assert!` in the gate and aborts it before any verdict.

use crate::{maybe_write_json, render_table, write_json, BenchOptions};
use ios_backend::{simd, workers};
use serde::Serialize;
use serde_json::{json, Map, Value};
use std::fmt;
use std::process::ExitCode;

/// Prints why the command line was rejected and the usage line, then exits
/// with status 2.
pub(crate) fn exit_usage(error: &str) -> ! {
    eprintln!(
        "error: {error}\nusage: [--device v100|k80|2080ti|1080|980ti|a100] [--batch N] [--quick] \
         [--json PATH]"
    );
    std::process::exit(2)
}

/// The host a report was measured on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Lanes of the backend's worker pool (callers included).
    pub lanes: usize,
    /// Widest SIMD tier the CPU executes.
    pub detected_isa: String,
    /// The tier kernels dispatch to (`IOS_FORCE_ISA` lowers it).
    pub active_isa: String,
    /// `model name` of `/proc/cpuinfo`, where there is one.
    pub cpu_model: Option<String>,
}

impl Host {
    /// Fingerprints the running host.
    #[must_use]
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|line| line.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            });
        Host {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            lanes: workers::stats().lanes,
            detected_isa: simd::detected_isa().name().to_string(),
            active_isa: simd::active_isa().name().to_string(),
            cpu_model,
        }
    }
}

/// One table cell or fact: what is printed and what is written are the same
/// value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A count.
    Count(u64),
    /// A yes/no observation.
    Flag(bool),
    /// A measured number and the decimals it prints with (the report keeps
    /// every digit).
    Num(f64, usize),
    /// Nothing to measure on this host: prints `-`, writes `null`.
    Missing,
}

impl Cell {
    fn json(&self) -> Value {
        match self {
            Cell::Text(text) => json!(text),
            Cell::Count(count) => json!(count),
            Cell::Flag(flag) => json!(flag),
            Cell::Num(value, _) => number(*value),
            Cell::Missing => Value::Null,
        }
    }
}

/// JSON has no NaN or infinity; a measurement that produced one is `null`.
fn number(value: f64) -> Value {
    if value.is_finite() {
        json!(value)
    } else {
        Value::Null
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Count(count) => write!(f, "{count}"),
            Cell::Flag(flag) => f.write_str(if *flag { "yes" } else { "no" }),
            Cell::Num(value, decimals) => write!(f, "{value:.decimals$}"),
            Cell::Missing => f.write_str("-"),
        }
    }
}

/// `Cell::from` for the types gates measure in; a bare `f64` prints with
/// three decimals, the precision gate tables state times and ratios at.
macro_rules! cell_from {
    ($($from:ty => $cell:expr,)*) => {$(
        impl From<$from> for Cell {
            fn from(value: $from) -> Self {
                $cell(value)
            }
        }
    )*};
}

cell_from! {
    &str => |text: &str| Cell::Text(text.to_string()),
    String => Cell::Text,
    u64 => Cell::Count,
    usize => |count| Cell::Count(count as u64),
    bool => Cell::Flag,
    f64 => |value| Cell::Num(value, 3),
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(value: Option<T>) -> Self {
        value.map_or(Cell::Missing, Into::into)
    }
}

/// The cells of one [`Table::row`], each converted with [`Cell::from`].
#[macro_export]
macro_rules! cells {
    ($($cell:expr),* $(,)?) => {
        vec![$($crate::gate::Cell::from($cell)),*]
    };
}

/// A table whose columns are declared once, as `(key, header)` pairs: the
/// headers are what [`Gate::table`] prints, the keys are the fields of every
/// row in the report.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<(&'static str, &'static str)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with these `(key, header)` columns.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: &[(&'static str, &'static str)]) -> Self {
        Table {
            title: title.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "{}", self.title);
        self.rows.push(cells);
    }

    /// The numbers of column `key`, top to bottom ([`Cell::Missing`] and
    /// labels skipped) — what a gate takes its geomean or minimum over.
    ///
    /// # Panics
    ///
    /// Panics if no column has that key.
    #[must_use]
    pub fn column(&self, key: &str) -> Vec<f64> {
        let index = self.columns.iter().position(|(k, _)| *k == key);
        let index = index.unwrap_or_else(|| panic!("{}: no column {key:?}", self.title));
        self.rows
            .iter()
            .filter_map(|row| match row[index] {
                Cell::Num(value, _) => Some(value),
                Cell::Count(count) => Some(count as f64),
                _ => None,
            })
            .collect()
    }

    fn render(&self) -> String {
        let headers: Vec<&str> = self.columns.iter().map(|(_, header)| *header).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        render_table(&self.title, &headers, &rows)
    }

    fn json(&self) -> Value {
        let keys = self.columns.iter().map(|(key, _)| key.to_string());
        let object = |row: &Vec<Cell>| keys.clone().zip(row.iter().map(Cell::json)).collect();
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|row| Value::Object(object(row)))
            .collect();
        json!({ "title": (self.title), "rows": rows })
    }
}

/// One gate run: the command line, the host, and the report so far.
#[derive(Debug)]
pub struct Gate {
    name: &'static str,
    /// The parsed command line.
    pub opts: BenchOptions,
    /// The host fingerprint every report carries.
    pub host: Host,
    tables: Vec<Value>,
    bars: Vec<Value>,
    facts: Map,
    pass: bool,
}

impl Gate {
    /// Starts gate `name` (its report is `BENCH_<name>.json`) from the
    /// process's command line, on the running host.
    #[must_use]
    pub fn from_args(name: &'static str) -> Self {
        Gate::new(name, BenchOptions::from_args(), Host::detect())
    }

    /// Starts gate `name` with these options on this host, and prints the
    /// fingerprint.
    #[must_use]
    pub fn new(name: &'static str, opts: BenchOptions, host: Host) -> Self {
        println!("gate {name}: {host:?}, quick = {}", opts.quick);
        Gate {
            name,
            opts,
            host,
            tables: Vec::new(),
            bars: Vec::new(),
            facts: Map::new(),
            pass: true,
        }
    }

    /// Prints `table` and records its rows.
    pub fn table(&mut self, table: &Table) {
        println!("{}", table.render());
        self.tables.push(table.json());
    }

    /// Prints and records a named scalar that is neither a table cell nor
    /// judged.
    pub fn fact(&mut self, name: &str, value: impl Into<Cell>) {
        let value = value.into();
        println!("{name} = {value}");
        self.facts.insert(name, value.json());
    }

    /// Judges `value >= bar`: prints the verdict and records it.
    pub fn at_least(&mut self, name: impl Into<String>, value: f64, bar: f64) {
        self.judge(name.into(), value, ">=", bar, value >= bar);
    }

    /// Judges `value <= bar`: prints the verdict and records it.
    pub fn at_most(&mut self, name: impl Into<String>, value: f64, bar: f64) {
        self.judge(name.into(), value, "<=", bar, value <= bar);
    }

    /// Judges a condition that has no magnitude (two counts matched, a bound
    /// held everywhere): recorded as `1 >= 1` or `0 >= 1`.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.at_least(name, f64::from(u8::from(ok)), 1.0);
    }

    /// The bar this host's core count selects — `multi_core` with two or
    /// more cores, `single_core` on one, where every thread of the gate
    /// contends for the same CPU — with both recorded as facts.
    pub fn by_cores(&mut self, multi_core: f64, single_core: f64) -> f64 {
        self.fact("multi_core_bar", multi_core);
        self.fact("single_core_bar", single_core);
        if self.host.cores >= 2 {
            multi_core
        } else {
            single_core
        }
    }

    fn judge(&mut self, name: String, value: f64, comparator: &str, bar: f64, holds: bool) {
        // A NaN or infinite measurement clears no bar.
        let pass = value.is_finite() && holds;
        let verdict = if pass { "ok  " } else { "FAIL" };
        println!("{verdict} {name}: {value:.3} (bar: {comparator} {bar:.2})");
        self.bars.push(json!({
            "name": name,
            "value": (number(value)),
            "comparator": comparator,
            "bar": bar,
            "pass": pass,
        }));
        self.pass &= pass;
    }

    fn report(&self) -> Value {
        json!({
            "gate": (self.name),
            "host": (self.host),
            "quick": (self.opts.quick),
            "tables": (self.tables),
            "bars": (self.bars),
            "facts": (Value::Object(self.facts.clone())),
            "pass": (self.pass),
        })
    }

    /// Prints `RESULT:`, writes the report to `BENCH_<gate>.json` (and
    /// `--json PATH`), and returns the exit status: failure if any bar
    /// failed.
    #[must_use]
    pub fn finish(self) -> ExitCode {
        println!("RESULT: {}", if self.pass { "PASS" } else { "FAIL" });
        let report = self.report();
        write_json(&format!("BENCH_{}.json", self.name), &report);
        maybe_write_json(&self.opts, &report);
        if self.pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cores: usize) -> Host {
        Host {
            cores,
            lanes: cores,
            detected_isa: "avx2".to_string(),
            active_isa: "scalar".to_string(),
            cpu_model: None,
        }
    }

    fn keys(object: &Value) -> Vec<&str> {
        let map = object.as_object().expect("an object");
        map.iter().map(|(key, _)| key.as_str()).collect()
    }

    fn synthetic_table() -> Table {
        let mut table = Table::new(
            "synthetic",
            &[
                ("shape", "shape"),
                ("naive_ms", "naive ms"),
                ("runs", "runs"),
                ("narrower_ms", "narrower ms"),
                ("diverged", "diverged"),
            ],
        );
        table.row(cells!["a", 2.0, 3usize, Some(1.5), true]);
        table.row(cells![
            String::from("b"),
            Cell::Num(8.0, 1),
            4u64,
            None::<f64>,
            false
        ]);
        table
    }

    #[test]
    fn report_round_trips_with_exactly_the_seven_top_level_keys() {
        let opts = BenchOptions {
            quick: true,
            ..BenchOptions::default()
        };
        let mut gate = Gate::new("selftest", opts, host(2));
        gate.table(&synthetic_table());
        gate.fact("peak_gflops", 61.5);
        gate.fact("pinned_isa", "scalar");
        gate.at_least("geomean speedup", 4.0, 3.0);
        let report = gate.report();
        assert_eq!(
            keys(&report),
            ["gate", "host", "quick", "tables", "bars", "facts", "pass"]
        );
        let text = serde_json::to_string_pretty(&report).expect("finite report");
        let parsed: Value = serde_json::from_str(&text).expect("the report parses");
        assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), text);
        assert_eq!(parsed["gate"], json!("selftest"));
        assert_eq!(parsed["quick"], json!(true));
        assert_eq!(parsed["pass"], json!(true));
        assert_eq!(
            keys(&parsed["host"]),
            ["cores", "lanes", "detected_isa", "active_isa", "cpu_model"]
        );
        assert_eq!(keys(&parsed["facts"]), ["peak_gflops", "pinned_isa"]);
        assert_eq!(
            keys(&parsed["bars"][0]),
            ["name", "value", "comparator", "bar", "pass"]
        );
        assert_eq!(parsed["bars"][0]["comparator"], json!(">="));
    }

    #[test]
    fn row_keys_are_the_declared_column_keys_and_headers_print_in_that_order() {
        let table = synthetic_table();
        let declared = ["shape", "naive_ms", "runs", "narrower_ms", "diverged"];
        let json = table.json();
        for row in json["rows"].as_array().expect("rows") {
            assert_eq!(keys(row), declared);
        }
        assert_eq!(json["rows"][0]["naive_ms"], json!(2.0));
        assert_eq!(json["rows"][1]["narrower_ms"], Value::Null);
        assert_eq!(json["rows"][1]["diverged"], json!(false));
        let printed = table.render();
        let lines: Vec<&str> = printed.lines().collect();
        let header: Vec<&str> = lines[1].split('|').map(str::trim).collect();
        assert_eq!(
            header[1..header.len() - 1],
            ["shape", "naive ms", "runs", "narrower ms", "diverged"]
        );
        let second: Vec<&str> = lines[4].split('|').map(str::trim).collect();
        assert_eq!(second[1..second.len() - 1], ["b", "8.0", "4", "-", "no"]);
        assert_eq!(table.column("naive_ms"), [2.0, 8.0]);
        assert_eq!(table.column("narrower_ms"), [1.5]);
    }

    /// Runs `finish` and reads back (then removes) the report it wrote.
    fn finish(gate: Gate) -> (ExitCode, Value) {
        let path = format!("BENCH_{}.json", gate.name);
        let code = gate.finish();
        let text = std::fs::read_to_string(&path).expect("finish writes the report");
        std::fs::remove_file(&path).expect("report removed");
        (
            code,
            serde_json::from_str(&text).expect("the report parses"),
        )
    }

    #[test]
    fn one_failing_bar_among_passing_ones_fails_the_gate() {
        let mut gate = Gate::new("selftest_fail", BenchOptions::default(), host(2));
        gate.at_least("clears", 2.0, 1.0);
        gate.at_most("misses", 2.0, 1.0);
        gate.check("holds", true);
        let (code, report) = finish(gate);
        assert_eq!(code, ExitCode::FAILURE);
        assert_eq!(report["pass"], json!(false));
        let verdicts: Vec<&Value> = report["bars"]
            .as_array()
            .expect("bars")
            .iter()
            .map(|bar| &bar["pass"])
            .collect();
        assert_eq!(verdicts, [&json!(true), &json!(false), &json!(true)]);

        let mut gate = Gate::new("selftest_pass", BenchOptions::default(), host(2));
        gate.at_most("clears", 1.0, 1.0);
        let (code, report) = finish(gate);
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(report["pass"], json!(true));
    }

    #[test]
    fn a_nan_or_infinite_value_fails_every_comparator_and_is_written_as_null() {
        let mut gate = Gate::new("selftest_nan", BenchOptions::default(), host(2));
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            gate.at_least("at least", value, 1.0);
            gate.at_most("at most", value, 1.0);
        }
        gate.fact("ratio", f64::INFINITY);
        let (code, report) = finish(gate);
        assert_eq!(code, ExitCode::FAILURE);
        let bars = report["bars"].as_array().expect("bars");
        assert_eq!(bars.len(), 6);
        for bar in bars {
            assert_eq!(bar["pass"], json!(false), "{bar:?}");
            assert_eq!(bar["value"], Value::Null);
        }
        assert_eq!(report["facts"]["ratio"], Value::Null);
    }

    #[test]
    fn the_core_count_selects_the_bar_and_both_are_recorded() {
        let mut single = Gate::new("selftest", BenchOptions::default(), host(1));
        assert_eq!(single.by_cores(1.10, 0.95), 0.95);
        let mut multi = Gate::new("selftest", BenchOptions::default(), host(2));
        assert_eq!(multi.by_cores(1.10, 0.95), 1.10);
        let facts = &multi.report()["facts"];
        assert_eq!(facts["multi_core_bar"], json!(1.10));
        assert_eq!(facts["single_core_bar"], json!(0.95));
    }
}
