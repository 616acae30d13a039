//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! — nothing inside the program is instrumented. A span has a name, a
//! start and end (ns since the run's epoch), the span that encloses it,
//! and the id of the op it belongs to; all spans of one op share that
//! id. When recording is off every call is a no-op, so the untraced
//! run pays one branch per span site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, quantile};

/// Sentinel parent of a root span.
const ROOT: u32 = u32::MAX;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: u32,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (ignored when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Spans {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span named `name` for op `op`, nested in the innermost
    /// open span.
    pub fn enter(&mut self, op: u64, name: &'static str) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied().unwrap_or(ROOT),
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes `span` (and anything left open inside it).
    pub fn exit(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == span.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(op, name);
        let r = f();
        self.exit(s);
        r
    }

    /// Records an already-timed interval as a closed span inside the
    /// innermost open span.
    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied().unwrap_or(ROOT),
            thread: self.thread,
            start_ns,
            end_ns,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A set of spans from one or more threads, re-indexed so parents point
/// into the merged vector.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Appends one recorder's spans.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (µs) of every span named `name`.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Sum of the durations (µs) of the direct children of each span.
    pub fn child_us(&self) -> Vec<f64> {
        let mut sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                sum[s.parent as usize] += s.us();
            }
        }
        sum
    }

    /// Per span name: count, median inclusive time, median self time
    /// and total self time (µs). Self time is the span minus the time
    /// its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64, f64)> {
        let child = self.child_us();
        let mut by: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by.entry(s.name).or_default();
            e.0.push(s.us());
            e.1.push((s.us() - child[i]).max(0.0));
        }
        by.into_iter()
            .map(|(name, (incl, selft))| {
                let total: f64 = selft.iter().sum();
                (name, (incl.len(), median(&incl), median(&selft), total))
            })
            .collect()
    }

    /// Reconciles every span named `op_name` against its direct
    /// children: returns each op's unexplained residue as a fraction of
    /// its duration.
    pub fn residues(&self, op_name: &str) -> Vec<f64> {
        let child = self.child_us();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == op_name)
            .map(|(i, s)| {
                let d = s.us();
                if d > 0.0 {
                    (d - child[i]) / d
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Writes the spans as tab-separated lines
    /// `thread op span parent name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread, s.op, i, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Prints the self-time table.
    pub fn print_self_times(&self) {
        println!(
            "{:<28} {:>9} {:>12} {:>12} {:>12}",
            "span", "count", "p50_us", "self_p50_us", "self_total_ms"
        );
        for (name, (n, incl, selft, total)) in self.self_times() {
            println!(
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>12.3}",
                name,
                n,
                incl,
                selft,
                total / 1e3
            );
        }
    }
}

/// The 95th percentile of `values` (used for residue reporting).
pub fn p95(values: &[f64]) -> f64 {
    quantile(values, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut s = Spans::new(true, Instant::now(), 0);
        let op = s.enter(1, "op");
        s.span(1, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(op);
        let mut t = Trace::default();
        t.absorb(s.into_spans());
        assert_eq!(t.spans[1].parent, 0);
        let r = t.residues("op");
        assert_eq!(r.len(), 1);
        assert!(r[0] < 0.5, "the child covers most of the op: {r:?}");
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false, Instant::now(), 0);
        s.span(1, "x", || ());
        assert!(s.into_spans().is_empty());
    }
}
