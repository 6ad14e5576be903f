//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name (`<layer>.<call>`), its start and end in
//! nanoseconds since the tracer's epoch, its parent span, the id of the
//! op it belongs to and the allocations made while it was open. Spans
//! stay in memory while the run lasts and are written out once, when it
//! ends. With tracing off, [`Tracer::op`] only times the op and
//! [`Tracer::span`] is a plain call.

use std::io::Write;
use std::time::Instant;

/// The repository's layers, in ledger order. A span's layer is the part
/// of its name before the first `.`.
pub const LAYERS: [&str; 6] = ["xml", "schema", "xslt", "core", "store", "net"];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Op the span belongs to.
    pub op: u32,
    /// Index of the enclosing span; `None` for an op's root span.
    pub parent: Option<u32>,
    /// `<layer>.<call>` for layer calls, `op.<kind>` for op roots.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Allocations made (by any thread) while the span was open.
    pub allocs: u64,
    /// Recorded inside the run's seeded counting prefix.
    pub prefix: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    counting: bool,
    allocs: fn() -> u64,
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u32,
    /// (op id, span index) of the innermost open span.
    open: Option<(u32, u32)>,
}

impl Tracer {
    /// A tracer that starts switched off; `allocs` reads the process's
    /// running allocation count.
    pub fn new(allocs: fn() -> u64) -> Tracer {
        Tracer {
            on: false,
            counting: false,
            allocs,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
            open: None,
        }
    }

    /// Marks the spans recorded from now on as inside (or outside) the
    /// seeded counting prefix.
    pub fn set_counting(&mut self, counting: bool) {
        self.counting = counting;
    }

    /// Switches span recording on or off (between ops only).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Is span recording on?
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one op and returns its result with the op's wall time
    /// in ns. With tracing on, the op gets a fresh id and a root span
    /// named `name` that parents every span `f` records.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        if !self.on {
            let started = Instant::now();
            let r = f(self);
            return (r, started.elapsed().as_nanos() as u64);
        }
        let op = self.next_op;
        self.next_op += 1;
        self.enter(op, name, f)
    }

    /// Records a span named `name` around `f`, inside the open op or
    /// span. Outside any op the span becomes a root of its own.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (op, parent) = match self.open {
            Some((op, idx)) => (op, Some(idx)),
            None => {
                let op = self.next_op;
                self.next_op += 1;
                (op, None)
            }
        };
        let allocs = (self.allocs)();
        let start = self.now();
        let r = f();
        let end = self.now();
        let allocs = (self.allocs)() - allocs;
        self.spans.push(Span {
            op,
            parent,
            name,
            start,
            end,
            allocs,
            prefix: self.counting,
        });
        r
    }

    fn enter<R>(
        &mut self,
        op: u32,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let idx = self.spans.len() as u32;
        let allocs = (self.allocs)();
        let start = self.now();
        let parent = self.open.map(|(_, i)| i);
        let prefix = self.counting;
        self.spans.push(Span {
            op,
            parent,
            name,
            start,
            end: start,
            allocs: 0,
            prefix,
        });
        let outer = self.open.replace((op, idx));
        let r = f(self);
        let end = self.now();
        let allocs = (self.allocs)() - allocs;
        let span = &mut self.spans[idx as usize];
        span.end = end;
        span.allocs = allocs;
        self.open = outer;
        (r, end - start)
    }

    /// Durations (ns) of every recorded span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Sums, over the root spans whose name starts with `op.`, each
    /// layer's self time and the op wall time no layer span covers; and,
    /// over those inside the counting prefix, each layer's allocations.
    pub fn ledger(&self) -> Ledger {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p as usize].push(i as u32);
            }
        }
        let mut ledger = Ledger::default();
        for (i, root) in self.spans.iter().enumerate() {
            if root.parent.is_some() || !root.name.starts_with("op.") {
                continue;
            }
            ledger.ops += 1;
            ledger.op_ns += root.dur();
            if root.prefix {
                ledger.prefix_ops += 1;
                ledger.op_allocs += root.allocs;
            }
            let covered = union_len(root, &children[i], &self.spans);
            ledger.unattributed_ns += root.dur().saturating_sub(covered);
            for &c in &children[i] {
                self.add_self_time(c, &children, &mut ledger);
            }
        }
        ledger
    }

    fn add_self_time(&self, idx: u32, children: &[Vec<u32>], ledger: &mut Ledger) {
        let span = &self.spans[idx as usize];
        let own = &children[idx as usize];
        let self_ns = span.dur().saturating_sub(union_len(span, own, &self.spans));
        let child_allocs: u64 = own.iter().map(|&c| self.spans[c as usize].allocs).sum();
        let self_allocs = if span.prefix {
            span.allocs.saturating_sub(child_allocs)
        } else {
            0
        };
        let layer = span.name.split('.').next().unwrap_or("");
        match LAYERS.iter().position(|l| *l == layer) {
            Some(k) => {
                ledger.self_ns[k] += self_ns;
                ledger.self_allocs[k] += self_allocs;
            }
            None => ledger.unattributed_ns += self_ns,
        }
        for &c in own {
            self.add_self_time(c, children, ledger);
        }
    }

    /// Writes every span as tab-separated `op parent name start_ns end_ns
    /// allocs` lines (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tparent\tname\tstart_ns\tend_ns\tallocs")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op, parent, s.name, s.start, s.end, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `outer` covered by the union of `inner` spans.
fn union_len(outer: &Span, inner: &[u32], spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = inner
        .iter()
        .map(|&i| &spans[i as usize])
        .map(|s| (s.start.max(outer.start), s.end.min(outer.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-layer self times summed over the traced ops.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Traced ops.
    pub ops: u64,
    /// Their summed wall time, ns.
    pub op_ns: u64,
    /// Self time per layer, in [`LAYERS`] order, ns.
    pub self_ns: [u64; 6],
    /// Op wall time covered by no layer span, ns.
    pub unattributed_ns: u64,
    /// Traced ops inside the counting prefix.
    pub prefix_ops: u64,
    /// Their allocations.
    pub op_allocs: u64,
    /// Self allocations per layer over those ops, in [`LAYERS`] order.
    pub self_allocs: [u64; 6],
}

impl Ledger {
    /// Share of op wall time no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.unattributed_ns as f64 / self.op_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op,
            parent,
            name,
            start,
            end,
            allocs: end - start,
            prefix: true,
        }
    }

    fn no_allocs() -> u64 {
        0
    }

    #[test]
    fn self_time_subtracts_children_and_unattributed_is_the_gap() {
        let mut t = Tracer::new(no_allocs);
        t.spans = vec![
            span(0, None, "op.search", 0, 100),
            span(0, Some(0), "core.publish", 10, 60),
            span(0, Some(1), "net.search", 20, 40),
            span(0, Some(1), "net.search", 30, 50),
            span(0, Some(0), "xslt.view", 70, 90),
        ];
        let l = t.ledger();
        assert_eq!(l.ops, 1);
        assert_eq!(l.op_ns, 100);
        assert_eq!(
            l.self_ns[3],
            50 - 30,
            "core minus the union of its children"
        );
        assert_eq!(l.self_ns[5], 20 + 20, "net children keep their full length");
        assert_eq!(l.self_ns[2], 20);
        assert_eq!(l.unattributed_ns, 100 - 50 - 20);
        assert_eq!(l.op_allocs, 100);
        assert_eq!(
            l.self_allocs[3],
            50 - 20 - 20,
            "core minus its children's allocations"
        );
    }

    #[test]
    fn ops_record_root_spans_only_when_on() {
        let mut t = Tracer::new(no_allocs);
        let (v, _) = t.op("op.search", |t| t.span("net.search", || 7));
        assert_eq!((v, t.len()), (7, 0));
        t.set_on(true);
        t.op("op.search", |t| t.span("net.search", || ()));
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, t.spans[1].op);
    }
}
