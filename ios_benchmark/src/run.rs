//! What every workload takes and gives back.

use crate::span::Trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Result of one workload run, before it is turned into metrics.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and, of those, failed, refused, shed, expired
    /// or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Traced parts that do not add up to their whole within 5 %.
    pub unreconciled: Vec<String>,
    /// Seconds of every set-up repetition.
    pub setup_s: Vec<f64>,
    /// Operation times of the untraced phase, in completion order.
    pub latencies_ms: Vec<f64>,
    pub goodput_ops_s: f64,
    /// `VmHWM` when the timed window closed — before the second burst of
    /// set-ups builds another instance beside the one that served the run.
    pub peak_rss_mb: f64,
    /// Per-layer values by name (traced run).
    pub layers: BTreeMap<String, f64>,
    pub trace: Option<Trace>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Records `message` as a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(message());
        }
    }

    /// Checks that `parts` account for `whole` within 5 % and records the
    /// unexplained share.
    pub fn reconcile(&mut self, what: &str, whole: f64, parts: f64) {
        let share = if whole > 0.0 {
            (whole - parts).abs() / whole
        } else {
            0.0
        };
        let previous = self.layers.get("bench.unexplained_share").copied();
        self.layer(
            "bench.unexplained_share",
            previous.map_or(share, |p| p.max(share)),
        );
        self.notes.push(format!(
            "reconcile {what}: whole {whole:.3} parts {parts:.3} unexplained {:.2} %",
            share * 100.0
        ));
        if share > 0.05 {
            self.unreconciled
                .push(format!("{what}: {:.1} % unexplained", share * 100.0));
        }
    }
}

/// Seconds each of the two bursts of set-up repetitions lasts.
const SETUP_BURST_S: f64 = 1.5;

/// Repetitions after which a burst ends early, so that a microsecond set-up
/// does not grow the process (and `peak_rss_mb`) with its own timings.
const SETUP_BURST_REPEATS: usize = 20_000;

/// Set-up is repeated so that its time is steady: at least three times, then
/// until the burst's time is spent. The last instance is kept for the run.
pub fn repeat_setup<T>(
    build: &mut impl FnMut() -> T,
    discard: &mut impl FnMut(T),
    seconds: &mut Vec<f64>,
) -> T {
    let burst = Instant::now();
    let mut repeats = 0;
    loop {
        let start = Instant::now();
        let built = build();
        seconds.push(start.elapsed().as_secs_f64());
        repeats += 1;
        let spent = burst.elapsed().as_secs_f64() >= SETUP_BURST_S;
        if repeats >= 3 && (spent || repeats >= SETUP_BURST_REPEATS) {
            return built;
        }
        discard(built);
    }
}

/// A second burst of set-up repetitions after the timed window, so the two
/// bursts see the host some twenty seconds apart and at least one of them
/// is likely to catch it undisturbed.
pub fn repeat_setup_again<T>(
    build: &mut impl FnMut() -> T,
    discard: &mut impl FnMut(T),
    out: &mut Outcome,
) {
    out.peak_rss_mb = crate::host::peak_rss_mb();
    let last = repeat_setup(build, discard, &mut out.setup_s);
    discard(last);
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
