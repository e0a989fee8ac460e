//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions. Spans stay in memory (one buffer per
//! client thread, so recording takes no lock) and are written out when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// The operation this span belongs to: `client << 48 | sequence`.
    pub op: u64,
    pub name: &'static str,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    client: u64,
    seq: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, client: usize) -> Tracer {
        Tracer {
            origin,
            client: client as u64,
            seq: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root `op` span of the next operation.
    pub fn begin_op(&mut self) {
        self.seq += 1;
        self.push("op");
    }

    pub fn end_op(&mut self) {
        self.pop();
    }

    /// Records `f` as a child span of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.push(name);
        let r = f();
        self.pop();
        r
    }

    fn push(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            op: self.client << 48 | self.seq,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn pop(&mut self) {
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total duration of each span's direct children.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            ns[p] += s.dur();
        }
    }
    ns
}

/// Self time by span name over one client's buffer, and how much of the
/// `op` spans their children cover.
#[derive(Default)]
pub struct Summary {
    /// name -> total self time (ns).
    pub self_ns: BTreeMap<&'static str, u64>,
    pub ops: u64,
    pub op_ns: u64,
    pub op_child_ns: u64,
}

impl Summary {
    /// Adds one client's spans. A span's self time is its duration minus
    /// its children's; children of one span run one after another, so
    /// their durations never overlap.
    pub fn add(&mut self, spans: &[Span]) {
        for (s, c) in spans.iter().zip(&child_ns(spans)) {
            *self.self_ns.entry(s.name).or_default() += s.dur() - c;
            if s.name == "op" {
                self.ops += 1;
                self.op_ns += s.dur();
                self.op_child_ns += c;
            }
        }
    }

    /// Mean self time per operation of spans named `name`, in µs.
    pub fn self_us_per_op(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// Share of `op` time covered by child spans.
    pub fn coverage(&self) -> f64 {
        self.op_child_ns as f64 / self.op_ns.max(1) as f64
    }
}

/// Renders spans as tab-separated lines:
/// `op name parent start_ns end_ns self_ns` (parent `-` for roots).
pub fn render(spans: &[Span], out: &mut String) {
    for (s, c) in spans.iter().zip(&child_ns(spans)) {
        let parent = s
            .parent
            .map_or("-".to_string(), |p| spans[p].name.to_string());
        let _ = writeln!(
            out,
            "{:x}\t{}\t{}\t{}\t{}\t{}",
            s.op,
            s.name,
            parent,
            s.start_ns,
            s.end_ns,
            s.dur() - c
        );
    }
}
