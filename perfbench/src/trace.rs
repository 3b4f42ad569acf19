//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its layer, a name, start and end (ns since the run's
//! origin), its parent and the job or request id it belongs to. Spans stay
//! in memory and are written out once, when the run ends. With tracing
//! off, [`Tracer::begin`] and [`Tracer::end`] record nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer the called function belongs to (`ca`, `engine`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Job or request id shared by the spans of one job or request.
    pub req: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder (one per thread; merge with [`Tracer::absorb`]).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder measuring from `origin`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Self {
        Tracer::new(self.on, self.origin)
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            req,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(layer, name, req);
        let out = f();
        self.end(open);
        out
    }

    /// Move another tracer's spans into this one, keeping their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, ms: each span's duration minus the part of it
    /// its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let k = &self.spans[c];
                    (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Cost of one begin/end pair on this host, ns: what each recorded span
/// adds to a traced run over an untraced one.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    for i in 0..N {
        let o = t.begin("probe", "probe", i as u64);
        t.end(std::hint::black_box(o));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            Span {
                layer: "serve",
                name: "request",
                req: 1,
                parent: None,
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                layer: "engine",
                name: "a",
                req: 1,
                parent: Some(0),
                start_ns: 1_000_000,
                end_ns: 4_000_000,
            },
            Span {
                layer: "engine",
                name: "b",
                req: 1,
                parent: Some(0),
                start_ns: 3_000_000,
                end_ns: 5_000_000,
            },
        ];
        let s = t.self_ms();
        assert!((s["serve"] - 6.0).abs() < 1e-9);
        assert!((s["engine"] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin);
        off.span("ca", "x", 0, || ());
        assert!(off.spans().is_empty());
        let mut a = Tracer::new(true, origin);
        a.span("ca", "x", 0, || ());
        let mut b = a.fork();
        let outer = b.begin("serve", "req", 7);
        b.span("serve", "post", 7, || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
