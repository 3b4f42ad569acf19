//! State shared by the sections of one run: operation and failure counts,
//! collected metrics, human-readable notes and the span recorder.

use crate::trace::Tracer;
use psr_lattice::Lattice;
use std::collections::BTreeMap;
use std::time::Instant;

/// One benchmark run in progress.
pub struct Run {
    /// Span recorder (records nothing in an untraced run).
    pub tracer: Tracer,
    /// Operations attempted: timed calls, requests, output checks.
    pub attempted: u64,
    /// Operations that failed, output checks included.
    pub failed: u64,
    /// What failed, for stderr.
    pub problems: Vec<String>,
    /// Metrics by name (units come from [`crate::report`]'s tables).
    pub metrics: BTreeMap<String, f64>,
    /// Context printed beside the metrics (tail percentiles, sample counts).
    pub notes: Vec<String>,
    /// Median wall time of each timed sample's reference pieces, ms (see
    /// [`crate::reference`]).
    pub refs: Vec<f64>,
}

impl Run {
    /// An empty run; `traced` switches span recording on.
    pub fn new(traced: bool, origin: Instant) -> Self {
        Run {
            tracer: Tracer::new(traced, origin),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            refs: Vec::new(),
        }
    }

    /// Whether this is the traced run (per-layer metrics).
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }

    /// Count one operation; a failed one is recorded with `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Count one operation that returned an error.
    pub fn op_result<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || e);
                None
            }
        }
    }

    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Record a note printed with the metrics.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Output check: the final lattice of a job must not be absorbed, i.e.
    /// no species may cover 100% of the sites.
    pub fn check_reactive(&mut self, what: &str, lattice: &Lattice, num_states: usize) {
        let n = lattice.cells().len();
        let full = lattice.histogram(num_states).iter().position(|&c| c == n);
        self.op(full.is_none(), || {
            format!("{what}: final lattice is absorbed (species {full:?} at 100%)")
        });
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
