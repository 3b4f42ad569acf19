//! `jobs-48` section: the canonical job through ca, core and engine, and
//! the same job class as a 64-replica lockstep ensemble.
//!
//! One job is NDCA on a 48×48 torus for 6000 steps with the default cadence
//! of 10 checkpoints. The ladder runs it through `Ndca::run_steps` (ca),
//! `SimSession::run_blocks` (core) and `JobRun::run` (engine, checkpoints and
//! a journal in a temp dir); the ensemble runs it through `BatchSim`.
//! Every path must end on the same lattice for the same seed.

use crate::plan::{Plan, JOB_SIDE, JOB_STEPS, ZGB_K, ZGB_Y};
use crate::reference::{scale_rate, scale_time, Paced, BETA_MEMORY_BOUND};
use crate::run::Run;
use crate::stats::{median, tail};
use psr_batch::{BatchAlgorithm, BatchSim, NoBatchHook};
use psr_ca::ndca::Ndca;
use psr_core::{Algorithm, SessionCheckpoint, Simulator};
use psr_dmc::events::NoHook;
use psr_dmc::rsm::RunStats;
use psr_dmc::sim::SimState;
use psr_engine::{
    BlockObserver, CheckpointStore, JobRun, JobSpec, Journal, ModelSpec, Registry, RunOutcome,
};
use psr_lattice::{Dims, Lattice};
use psr_model::library::zgb::zgb_ziff;
use psr_model::Model;
use psr_rng::rng_from_seed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seeds whose ca and core runs are checked against the engine in an
/// untraced run (the traced run checks every job).
pub const LADDER_CHECKS: usize = 2;

/// Ensemble steps timed as one piece (about 120 ms on the reference host).
const ENSEMBLE_PIECE: u64 = 200;
/// Slices of an ensemble piece, each after a reference piece.
const ENSEMBLE_SLICES: u64 = 10;
/// Engine jobs the section runs at the least: a tail needs eleven samples,
/// and these put it at p58 or higher.
const MIN_JOBS: usize = 24;

/// Final lattices by job seed, from the engine `.done` snapshots.
pub type Finals = BTreeMap<u64, Lattice>;

fn model() -> Model {
    zgb_ziff(ZGB_Y, ZGB_K)
}

fn dims() -> Dims {
    Dims::square(JOB_SIDE)
}

/// The canonical job on `ca` alone: `Ndca::run_steps` from the empty surface.
pub fn run_raw(model: &Model, seed: u64) -> (Lattice, RunStats) {
    let mut st = SimState::new(Lattice::filled(dims(), 0), model);
    let stats = Ndca::new(model).run_steps(
        &mut st,
        &mut rng_from_seed(seed),
        JOB_STEPS,
        None,
        &mut NoHook,
    );
    (st.lattice, stats)
}

/// The canonical job as an engine spec (default checkpoint cadence).
fn job_spec(name: &str, seed: u64) -> JobSpec {
    JobSpec::new(
        name,
        ModelSpec::Zgb { y: ZGB_Y, k: ZGB_K },
        Algorithm::Ndca { shuffled: false },
        JOB_SIDE,
        seed,
        JOB_STEPS,
    )
}

/// The canonical job through a `SimSession`, in checkpoint-cadence blocks.
fn run_session(model: &Model, seed: u64) -> Result<Lattice, String> {
    let spec = job_spec("session", seed);
    let mut session = Simulator::new(model.clone())
        .dims(dims())
        .seed(seed)
        .algorithm(spec.algorithm)
        .into_session()?;
    while session.steps_done() < spec.steps {
        let block = spec.checkpoint_every.min(spec.steps - session.steps_done());
        session.run_blocks(block, &mut NoHook);
    }
    Ok(session.state().lattice.clone())
}

/// Runs a reference piece after each durable checkpoint of a job, so the
/// pieces interleave with the job's blocks.
struct PieceObserver(Mutex<Paced>);

impl BlockObserver for PieceObserver {
    fn on_checkpoint(&self, _job: &str, _ck: &SessionCheckpoint, _done: bool) {
        self.0.lock().expect("observer lock").piece();
    }
}

/// One engine job in its own checkpoint dir; returns its `.done` lattice.
fn run_engine(
    dir: &Path,
    seed: u64,
    metrics: &Registry,
    observer: &dyn BlockObserver,
) -> Result<Lattice, String> {
    let name = format!("job{seed}");
    let spec = job_spec(&name, seed);
    let store = CheckpointStore::open(dir).map_err(|e| format!("{name}: store: {e}"))?;
    let journal =
        Journal::create(&dir.join("journal.jsonl")).map_err(|e| format!("{name}: journal: {e}"))?;
    let cancel = AtomicBool::new(false);
    let run = JobRun {
        spec: &spec,
        store: &store,
        journal: &journal,
        metrics,
        cancel: &cancel,
        deadline: None,
        ignore_faults: true,
        attempt: 0,
        observer,
    };
    match run.run()? {
        RunOutcome::Completed => {}
        other => return Err(format!("{name}: {other:?}")),
    }
    psr_lattice::io::load_v2(&store.done_path(&name))
        .map(|(l, _)| l)
        .map_err(|e| format!("{name}: reading .done: {e}"))
}

/// Run engine jobs until `budget` has passed and at least [`MIN_JOBS`] ran,
/// then one lockstep ensemble over the job seeds; report, and return the
/// engine jobs' final lattices.
pub fn section(run: &mut Run, plan: &Plan, dir: &Path, budget: Duration) -> Finals {
    let until = Instant::now() + budget;
    let mut s = Section::new(plan, dir);
    while s.jobs < MIN_JOBS || Instant::now() < until {
        s.job(run);
    }
    s.ensemble(run);
    s.finish(run)
}

/// The section's measurements.
struct Section<'p> {
    plan: &'p Plan,
    dir: PathBuf,
    model: Model,
    /// Caller-owned engine registry: `block_ms` and `checkpoint_bytes`.
    metrics: Registry,
    finals: Finals,
    /// Engine job wall times, ms.
    job_ms: Vec<f64>,
    /// The same at the reference pace.
    job_scaled: Vec<f64>,
    /// Per job timed on every rung: ca, core and engine wall, ms.
    ladder_ms: Vec<[f64; 3]>,
    raw_stats: RunStats,
    jobs: usize,
    chunk_rates: Vec<f64>,
    batch_ns: Vec<f64>,
}

impl<'p> Section<'p> {
    /// A section writing its checkpoints under `dir`.
    fn new(plan: &'p Plan, dir: &Path) -> Self {
        Section {
            plan,
            dir: dir.to_owned(),
            model: model(),
            metrics: Registry::new(),
            finals: Finals::new(),
            job_ms: Vec::new(),
            job_scaled: Vec::new(),
            ladder_ms: Vec::new(),
            raw_stats: RunStats::default(),
            jobs: 0,
            chunk_rates: Vec::new(),
            batch_ns: Vec::new(),
        }
    }

    /// Run the next engine job (seeds cycle through the ensemble seeds).
    /// The traced run also times it on `ca` and `core`; an untraced run
    /// does that, outside the timed job, only for the first seeds.
    fn job(&mut self, run: &mut Run) {
        let i = self.jobs;
        self.jobs += 1;
        let seed = self.plan.job_seeds[i % self.plan.job_seeds.len()];
        let num_states = self.model.species().len();
        let ladder = if run.traced() || i < LADDER_CHECKS {
            let open = run.tracer.begin("ca", "ndca_run_steps", seed);
            let t0 = Instant::now();
            let (raw, stats) = run_raw(&self.model, seed);
            let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
            run.tracer.end(open);
            self.raw_stats += stats;
            let open = run.tracer.begin("core", "session_run_blocks", seed);
            let t0 = Instant::now();
            let session = run_session(&self.model, seed);
            let session_ms = t0.elapsed().as_secs_f64() * 1e3;
            run.tracer.end(open);
            run.op_result(session).map(|s| (raw, s, raw_ms, session_ms))
        } else {
            None
        };

        let job_dir = self.dir.join(format!("job-{i}"));
        // One reference piece before the job and one after each of its
        // checkpoints; the job's time leaves the ones inside it out.
        let mut before = Paced::default();
        before.piece();
        let observer = PieceObserver(Mutex::new(before));
        let open = run.tracer.begin("engine", "job_run", seed);
        let t0 = Instant::now();
        let done = run_engine(&job_dir, seed, &self.metrics, &observer);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        run.tracer.end(open);
        let paced = observer.0.into_inner().expect("observer lock");
        let inside: f64 = paced.pieces()[1..].iter().sum();
        let ms = wall_ms - inside;
        run.refs.push(paced.ref_ms());
        let _ = std::fs::remove_dir_all(&job_dir);
        if let Some(done) = run.op_result(done) {
            self.job_ms.push(ms);
            self.job_scaled.push(scale_time(ms, paced.ref_ms(), 1.0));
            run.check_reactive(&format!("job seed {seed}"), &done, num_states);
            if let Some((raw, session, raw_ms, session_ms)) = ladder {
                run.op(raw == session && session == done, || {
                    format!("job seed {seed}: Ndca, SimSession and engine .done differ")
                });
                self.ladder_ms.push([raw_ms, session_ms, ms]);
            }
            self.finals.insert(seed, done);
        }
    }

    /// One lockstep ensemble over the job seeds, timed in pieces of
    /// [`ENSEMBLE_PIECE`] steps; each piece's pace is recorded as replicas
    /// per second at the pace of the reference pieces run between its
    /// [`ENSEMBLE_SLICES`] slices.
    /// Slot r must end where the engine job with seed r ended, if that job
    /// ran.
    fn ensemble(&mut self, run: &mut Run) {
        let seeds = &self.plan.job_seeds;
        let mut batch = BatchSim::new(
            &self.model,
            dims(),
            BatchAlgorithm::Ndca { shuffled: false },
            seeds,
        );
        let replicas = seeds.len() as f64;
        let mut done = 0;
        while done < JOB_STEPS {
            let piece = (JOB_STEPS - done).min(ENSEMBLE_PIECE);
            let open = run.tracer.begin("batch", "run_steps", done);
            let mut paced = Paced::default();
            let mut left = piece;
            for k in 0..ENSEMBLE_SLICES {
                let slice = left / (ENSEMBLE_SLICES - k);
                paced.slice(|| batch.run_steps(slice, &mut NoBatchHook));
                left -= slice;
            }
            let wall = paced.wall_s();
            run.tracer.end(open);
            run.refs.push(paced.ref_ms());
            done += piece;
            let fraction = piece as f64 / JOB_STEPS as f64;
            self.chunk_rates.push(scale_rate(
                replicas * fraction / wall,
                paced.ref_ms(),
                BETA_MEMORY_BOUND,
            ));
            self.batch_ns
                .push(wall * 1e9 / (replicas * piece as f64 * dims().sites() as f64));
        }
        let num_states = self.model.species().len();
        for (slot, seed) in seeds.iter().enumerate() {
            let lattice = batch.lattice_of(slot);
            run.check_reactive(&format!("ensemble slot {slot}"), &lattice, num_states);
            if let Some(done) = self.finals.get(seed) {
                run.op(*done == lattice, || {
                    format!("ensemble slot {slot} differs from engine job seed {seed}")
                });
            }
        }
    }

    /// Report, and return the engine jobs' final lattices.
    fn finish(self, run: &mut Run) -> Finals {
        if let Some(t) = tail(&self.job_scaled) {
            run.set("job_p50_ms", median(&self.job_scaled));
            run.set("job_tail_ms", t.value);
            run.note(format!(
                "jobs-48: job_tail_ms is p{:.1} of {} engine jobs; wall-clock median {:.1} ms",
                t.percentile,
                t.samples,
                median(&self.job_ms)
            ));
        }
        if !self.chunk_rates.is_empty() {
            run.set("replicas_per_s", median(&self.chunk_rates));
        }
        run.note(format!(
            "jobs-48: {} engine jobs; one ensemble of {} replicas, replicas_per_s is the median of {} pieces",
            self.job_ms.len(),
            self.plan.job_seeds.len(),
            self.chunk_rates.len()
        ));
        if !run.traced() || self.ladder_ms.is_empty() || self.batch_ns.is_empty() {
            return self.finals;
        }
        run.set("batch.ns_per_replica_trial", median(&self.batch_ns));
        run.set(
            "ca.exec_ratio",
            self.raw_stats.executed as f64 / self.raw_stats.trials.max(1) as f64,
        );
        // Each job's rungs run back to back, so per-job ratios cancel the
        // host's slow spells; the figure is their median.
        let overhead = |upper: usize| {
            let r: Vec<f64> = self
                .ladder_ms
                .iter()
                .map(|l| l[upper] / l[upper - 1])
                .collect();
            median(&r) - 1.0
        };
        run.set("core.session_overhead", overhead(1));
        run.set("engine.overhead", overhead(2));
        let snap = self.metrics.snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, s)| s.sum)
        };
        run.set(
            "engine.block_share",
            hist("block_ms") as f64 / self.job_ms.iter().sum::<f64>(),
        );
        run.set(
            "engine.ckpt_bytes_per_job",
            hist("checkpoint_bytes") as f64 / self.job_ms.len() as f64,
        );
        self.finals
    }
}
