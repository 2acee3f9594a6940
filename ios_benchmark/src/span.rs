//! Benchmark-side spans: recorded around the calls into each crate, kept
//! in memory, written out once at exit. Spans inside the crates are not
//! this file's business.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the same trace; spans of
/// one operation share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span list with a common epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the trace epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover (children may overlap each other or
    /// stick out of the parent; both are counted once and clipped).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total duration and total self time of the spans called `name`.
    pub fn totals_ns(&self, name: &str) -> (u64, u64) {
        let self_times = self.self_times_ns();
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(d, s), (span, own)| {
                (d + span.duration_ns(), s + own)
            })
    }

    /// Writes the first `cap` spans as one JSON document (the full count is
    /// recorded beside them, so a truncated file says so).
    pub fn write_json(&self, path: &Path, workload: &str, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans_total\":{},\"spans_written\":{},\"spans\":[",
            self.spans.len(),
            self.spans.len().min(cap)
        )?;
        let self_times = self.self_times_ns();
        for (i, (span, own)) in self.spans.iter().zip(self_times).take(cap).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::new(Instant::now())
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        let mut t = trace();
        let root = t.push("request", 0, 100, None, 1);
        let exec = t.push("execute", 10, 70, Some(root), 1);
        t.push("block", 20, 40, Some(exec), 1);
        t.push("block", 40, 60, Some(exec), 1);
        // root loses only its direct child; the grandchildren come off exec.
        assert_eq!(t.self_times_ns(), vec![40, 20, 20, 20]);
        assert_eq!(t.totals_ns("block"), (40, 40));
        assert_eq!(t.totals_ns("request"), (100, 40));
    }

    #[test]
    fn overlapping_and_protruding_children_are_clipped() {
        let mut t = trace();
        let root = t.push("request", 100, 200, None, 2);
        t.push("a", 90, 130, Some(root), 2); // starts before the parent
        t.push("b", 120, 150, Some(root), 2); // overlaps a
        t.push("c", 190, 260, Some(root), 2); // runs past the parent
        t.push("d", 300, 310, Some(root), 2); // entirely outside
                                              // covered: [100,150) and [190,200) = 60
        assert_eq!(t.self_times_ns()[root], 40);
    }

    #[test]
    fn a_child_inside_another_child_adds_nothing() {
        let mut t = trace();
        let root = t.push("request", 0, 50, None, 3);
        t.push("outer", 5, 45, Some(root), 3);
        t.push("inner", 10, 20, Some(root), 3);
        assert_eq!(t.self_times_ns()[root], 10);
    }

    #[test]
    fn trace_file_is_json_with_self_times() {
        let mut t = trace();
        let root = t.push("infer", 0, 10, None, 0);
        t.push("block[0]", 1, 9, Some(root), 0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("span_test_{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path, "unit", 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let doc = doc.as_object().unwrap();
        assert_eq!(
            doc.get("spans_total")
                .unwrap()
                .as_number()
                .unwrap()
                .as_f64(),
            2.0
        );
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 1);
        let first = spans[0].as_object().unwrap();
        assert_eq!(
            first.get("self_ns").unwrap().as_number().unwrap().as_f64(),
            2.0
        );
        assert!(first.get("parent").unwrap().is_null());
    }
}
