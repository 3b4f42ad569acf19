//! `lattice-520` section: one large trajectory per executor arm.
//!
//! Every arm starts from the same warmed reactive 520×520 lattice and
//! advances a fixed simulated time; the figure is simulated time per wall
//! second at the reference pace, the median over the arm's runs. A run is
//! cut into slices with a reference piece before each (see `reference.rs`).
//! Runs repeat identical inputs, so every run of an arm must also end on
//! the identical lattice.

use crate::plan::{Plan, BIG_SIDE, ZGB_K, ZGB_Y};
use crate::reference::{scale_rate, Paced, BETA_MEMORY_BOUND, BETA_RSM};
use crate::run::Run;
use crate::stats::median;
use psr_ca::ndca::Ndca;
use psr_ca::partition::Partition;
use psr_ca::partition_builder::five_coloring;
use psr_ca::pndca::{ChunkSelection, Pndca};
use psr_ca::splitting::{FractionalStepKmc, Schedule, SplitPlan};
use psr_core::{Algorithm, PartitionSpec, Simulator};
use psr_dmc::events::NoHook;
use psr_dmc::rsm::{Rsm, RunStats};
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::{Dims, Lattice};
use psr_model::library::zgb::zgb_ziff;
use psr_model::Model;
use psr_parallel::executor::ParallelPndca;
use psr_rng::rng_from_seed;
use psr_shard::{ScheduleMode, ShardGrid, ShardedPndca};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// NDCA steps from the empty surface to the shared warm lattice.
pub const WARM_STEPS: u64 = 200;
/// fskmc window Δt.
pub const FSKMC_WINDOW: f64 = 0.2;
/// fskmc block grid (4×4 blocks of 130×130 sites).
pub const FSKMC_BLOCKS: u32 = 4;
/// Steps of the 1-worker vs 2-worker identity prefix.
pub const PREFIX_STEPS: u64 = 3;
/// Rounds (every arm once) the section runs at the least: each arm's
/// figure is the median of at least this many runs.
const MIN_ROUNDS: usize = 8;
/// Slices of an `rsm` run (its clock is continuous; the `ndca` and `pndca`
/// runs are sliced by whole steps, `fskmc` by windows).
const RSM_SLICES: u64 = 40;

/// The six executor arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// `Rsm` (dmc).
    Rsm,
    /// `Ndca` (ca).
    Ndca,
    /// `Pndca`, five-colouring, random order (ca).
    Pndca,
    /// `Simulator` with `Algorithm::Parallel`, 2 threads (parallel, via core).
    Parallel2,
    /// `ShardedPndca`, threaded, 2×1 grid (shard).
    Shard2,
    /// `FractionalStepKmc`, Strang, 4×4 blocks, Δt = 0.2 (ca).
    Fskmc,
}

impl Arm {
    /// Every arm, in report order.
    pub const ALL: [Arm; 6] = [
        Arm::Rsm,
        Arm::Ndca,
        Arm::Pndca,
        Arm::Parallel2,
        Arm::Shard2,
        Arm::Fskmc,
    ];

    /// Metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Rsm => "rsm",
            Arm::Ndca => "ndca",
            Arm::Pndca => "pndca",
            Arm::Parallel2 => "parallel2",
            Arm::Shard2 => "shard2",
            Arm::Fskmc => "fskmc",
        }
    }

    /// Simulated time the arm advances per round: about 0.1 s of wall
    /// time each on the reference host (fskmc: four whole windows), rsm
    /// about 0.2 s: its runs are the most memory-bound and vary the most.
    pub fn dt(self) -> f64 {
        match self {
            Arm::Rsm => 1.0,
            Arm::Ndca | Arm::Pndca => 2.0,
            Arm::Parallel2 | Arm::Shard2 => 1.0,
            Arm::Fskmc => 4.0 * FSKMC_WINDOW,
        }
    }

    /// Sensitivity of the arm's pace to the host's (see `reference.rs`);
    /// the per-layer arms keep 1.
    fn beta(self) -> f64 {
        match self {
            Arm::Rsm => BETA_RSM,
            Arm::Ndca | Arm::Pndca => BETA_MEMORY_BOUND,
            Arm::Parallel2 | Arm::Shard2 | Arm::Fskmc => 1.0,
        }
    }

    /// Layer whose public function the arm calls.
    fn layer(self) -> &'static str {
        match self {
            Arm::Rsm => "dmc",
            Arm::Ndca | Arm::Pndca | Arm::Fskmc => "ca",
            Arm::Parallel2 => "parallel",
            Arm::Shard2 => "shard",
        }
    }
}

/// Shared inputs of the section, built during set-up.
pub struct Big {
    model: Model,
    p5: Partition,
    split: SplitPlan,
    /// The warmed reactive lattice every arm starts from.
    pub warm: SimState,
    seed: u64,
}

/// Set-up: model, partitions, and the NDCA warm-up to a reactive lattice.
pub fn setup(plan: &Plan) -> Big {
    let model = zgb_ziff(ZGB_Y, ZGB_K);
    let dims = Dims::square(BIG_SIDE);
    let p5 = five_coloring(dims);
    let split = SplitPlan::new(dims, FSKMC_BLOCKS, FSKMC_BLOCKS, model.interaction_radius())
        .expect("520 is divisible into 4×4 blocks");
    let mut warm = SimState::new(Lattice::filled(dims, 0), &model);
    let mut rng = rng_from_seed(plan.warm_seed);
    Ndca::new(&model).run_steps(&mut warm, &mut rng, WARM_STEPS, None, &mut NoHook);
    // Every arm, the facade included, starts its clock at 0 (fskmc window
    // boundaries are absolute multiples of Δt).
    warm.time = 0.0;
    Big {
        model,
        p5,
        split,
        warm,
        seed: plan.arm_seed,
    }
}

struct Outcome {
    wall: f64,
    /// Median wall time of the run's reference pieces, ms.
    ref_ms: f64,
    sim: f64,
    stats: RunStats,
    lattice: Lattice,
}

impl Outcome {
    /// Simulated time per wall second.
    fn pace(&self) -> f64 {
        self.sim / self.wall
    }

    /// The same at the reference pace, for sensitivity exponent `beta`.
    fn scaled_pace(&self, beta: f64) -> f64 {
        scale_rate(self.pace(), self.ref_ms, beta)
    }

    /// Wall time per trial, ns (fskmc counts every executed event as a trial).
    fn ns_per_trial(&self) -> f64 {
        self.wall * 1e9 / self.stats.trials.max(1) as f64
    }
}

/// Time `f` on a copy of `start` as one slice.
fn timed(start: &SimState, mut f: impl FnMut(&mut SimState) -> RunStats) -> Outcome {
    sliced(start, 1, |st, _| f(st))
}

/// Time `slice(state, k)` for `k` in `0..slices` on a copy of `start`, with
/// a reference piece before each slice.
fn sliced(
    start: &SimState,
    slices: u64,
    mut slice: impl FnMut(&mut SimState, u64) -> RunStats,
) -> Outcome {
    let mut st = start.clone();
    let mut paced = Paced::default();
    let mut stats = RunStats::default();
    for k in 0..slices {
        stats += paced.slice(|| slice(&mut st, k));
    }
    Outcome {
        wall: paced.wall_s(),
        ref_ms: paced.ref_ms(),
        sim: st.time - start.time,
        stats,
        lattice: st.lattice,
    }
}

impl Big {
    fn steps_for(&self, dt: f64) -> u64 {
        ((dt * self.model.total_rate()).round() as u64).max(1)
    }

    fn run_arm(&self, arm: Arm, dt: f64) -> Outcome {
        let (m, seed) = (&self.model, self.seed);
        let mut rng = rng_from_seed(seed);
        // Slice k runs the clock to the k-th of `n` even marks up to dt.
        let t0 = self.warm.time;
        let mark = |k: u64, n: u64| t0 + dt * (k + 1) as f64 / n as f64;
        let steps = self.steps_for(dt);
        match arm {
            Arm::Rsm => {
                let mut exec = Rsm::new(m);
                sliced(&self.warm, RSM_SLICES, |st, k| {
                    exec.run_until(st, &mut rng, mark(k, RSM_SLICES), None, &mut NoHook)
                })
            }
            Arm::Ndca => {
                let mut exec = Ndca::new(m);
                sliced(&self.warm, steps, |st, k| {
                    exec.run_until(st, &mut rng, mark(k, steps), None, &mut NoHook)
                })
            }
            Arm::Pndca => {
                let mut exec = Pndca::new(m, &self.p5).with_selection(ChunkSelection::RandomOrder);
                sliced(&self.warm, steps, |st, k| {
                    exec.run_until(st, &mut rng, mark(k, steps), None, &mut NoHook)
                })
            }
            Arm::Parallel2 => self.run_facade(2, dt),
            Arm::Shard2 => {
                let steps = self.steps_for(dt);
                self.run_shard(ShardGrid::new(2, 1), steps).0
            }
            Arm::Fskmc => self.run_fskmc(dt),
        }
    }

    fn run_fskmc(&self, dt: f64) -> Outcome {
        let mut exec = FractionalStepKmc::new(
            &self.model,
            &self.split,
            Schedule::Strang,
            FSKMC_WINDOW,
            self.seed,
        );
        let windows = (dt / FSKMC_WINDOW).round() as u64;
        sliced(&self.warm, windows, |st, _| {
            exec.run_windows(st, 1, None, &mut NoHook)
        })
    }

    /// `Algorithm::Parallel` through the `Simulator` facade, so rerouting
    /// it shows. The facade starts its clock at 0.
    fn run_facade(&self, threads: usize, dt: f64) -> Outcome {
        let sim = Simulator::new(self.model.clone())
            .dims(self.warm.lattice.dims())
            .seed(self.seed)
            .algorithm(Algorithm::Parallel {
                partition: PartitionSpec::FiveColoring,
                threads,
            })
            .sample_dt(dt)
            .initial_lattice(self.warm.lattice.clone());
        let mut paced = Paced::default();
        let out = paced.slice(|| sim.run_until(dt));
        Outcome {
            wall: paced.wall_s(),
            ref_ms: paced.ref_ms(),
            sim: out.state().time,
            stats: out.stats(),
            lattice: out.state().lattice.clone(),
        }
    }

    fn run_shard(&self, grid: ShardGrid, steps: u64) -> (Outcome, psr_shard::CommStats) {
        let mut exec = ShardedPndca::new(&self.model, &self.p5, grid, self.seed)
            .with_selection(ChunkSelection::RandomOrder)
            .with_mode(ScheduleMode::Threaded);
        let out = timed(&self.warm, |st| exec.run_steps(st, steps, None));
        (out, exec.comm_stats())
    }

    fn run_parallel_direct(&self, threads: usize, steps: u64) -> Outcome {
        let mut exec = ParallelPndca::new(&self.model, &self.p5, threads, self.seed);
        timed(&self.warm, |st| exec.run_steps(st, steps, None))
    }
}

/// Run rounds of every arm until `budget` has passed and at least
/// [`MIN_ROUNDS`] ran, then report.
pub fn section(run: &mut Run, big: &Big, budget: Duration) {
    let until = Instant::now() + budget;
    let mut s = Section::new(run, big);
    while s.rounds < MIN_ROUNDS || Instant::now() < until {
        s.round(run);
    }
    s.finish(run);
}

/// The section's measurements.
struct Section<'b> {
    big: &'b Big,
    rates: Vec<Vec<f64>>,
    per_trial: Vec<Vec<f64>>,
    first: Vec<Option<Lattice>>,
    fskmc_events: u64,
    rounds: usize,
}

impl<'b> Section<'b> {
    /// Check the warm lattice, and that the 2-worker executors match their
    /// 1-worker runs on a short prefix, before anything is timed.
    fn new(run: &mut Run, big: &'b Big) -> Self {
        let num_states = big.model.species().len();
        run.check_reactive("lattice-520 warm-up", &big.warm.lattice, num_states);
        let prefix_dt = PREFIX_STEPS as f64 / big.model.total_rate();
        let (p1, p2) = (big.run_facade(1, prefix_dt), big.run_facade(2, prefix_dt));
        run.op(p1.lattice == p2.lattice, || {
            "parallel2 differs from its 1-thread run on the prefix".to_owned()
        });
        let (s1, _) = big.run_shard(ShardGrid::new(1, 1), PREFIX_STEPS);
        let (s2, _) = big.run_shard(ShardGrid::new(2, 1), PREFIX_STEPS);
        run.op(s1.lattice == s2.lattice, || {
            "shard2 differs from its 1-worker run on the prefix".to_owned()
        });
        let arms = Arm::ALL.len();
        Section {
            big,
            rates: vec![Vec::new(); arms],
            per_trial: vec![Vec::new(); arms],
            first: vec![None; arms],
            fskmc_events: 0,
            rounds: 0,
        }
    }

    /// One round: every arm once, from the warm lattice, starting one arm
    /// later than the round before. Every run of an arm after its first
    /// must end on the lattice its first run did.
    fn round(&mut self, run: &mut Run) {
        let first = self.rounds;
        self.rounds += 1;
        for k in 0..Arm::ALL.len() {
            self.run_one(run, Arm::ALL[(first + k) % Arm::ALL.len()]);
        }
    }

    fn run_one(&mut self, run: &mut Run, arm: Arm) {
        let num_states = self.big.model.species().len();
        let i = Arm::ALL.iter().position(|&a| a == arm).expect("arm");
        let n = self.rates[i].len();
        let open = run.tracer.begin(arm.layer(), arm.name(), n as u64);
        let out = self.big.run_arm(arm, arm.dt());
        run.tracer.end(open);
        run.refs.push(out.ref_ms);
        let ok = out.sim > 0.0 && out.stats.trials > 0;
        run.op(ok, || format!("{}: no progress", arm.name()));
        self.rates[i].push(out.scaled_pace(arm.beta()));
        self.per_trial[i].push(out.ns_per_trial());
        if arm == Arm::Fskmc {
            self.fskmc_events = out.stats.executed;
        }
        match &self.first[i] {
            None => {
                run.check_reactive(arm.name(), &out.lattice, num_states);
                self.first[i] = Some(out.lattice);
            }
            Some(l) => run.op(*l == out.lattice, || {
                format!("{}: run {n} ended on a different lattice", arm.name())
            }),
        }
    }

    /// Report each arm's median pace over its runs, each run scaled to the
    /// reference pace by its own reference pieces. In the
    /// traced run, also the per-layer figures (wall clock, medians).
    fn finish(self, run: &mut Run) {
        if self.rates.iter().any(Vec::is_empty) {
            return;
        }
        for (i, arm) in Arm::ALL.iter().enumerate() {
            run.set(
                &format!("{}.sim_time_per_s", arm.name()),
                median(&self.rates[i]),
            );
        }
        run.note(format!(
            "lattice-520: sim_time_per_s is the median pace over {} runs per arm from a {WARM_STEPS}-step warm lattice",
            self.rounds
        ));
        if !run.traced() {
            return;
        }
        let idx = |a: Arm| Arm::ALL.iter().position(|&b| b == a).expect("arm");
        let per_trial = |a: Arm| median(&self.per_trial[idx(a)]);
        run.set("ca.ndca_ns_per_trial", per_trial(Arm::Ndca));
        run.set("ca.pndca_ns_per_trial", per_trial(Arm::Pndca));
        run.set("dmc.rsm_ns_per_trial", per_trial(Arm::Rsm));
        run.set("fskmc.ns_per_event", per_trial(Arm::Fskmc));
        let windows = (Arm::Fskmc.dt() / FSKMC_WINDOW).round();
        run.set(
            "fskmc.events_per_window",
            self.fskmc_events as f64 / windows,
        );
        layer_extras(run, self.big);
    }
}

/// Per-layer measurements only the traced run makes.
fn layer_extras(run: &mut Run, big: &Big) {
    const REPS: usize = 5;
    let num_sites = big.warm.num_sites() as f64;

    let mut compile = Vec::new();
    let mut rebuild = Vec::new();
    for i in 0..20 {
        let open = run.tracer.begin("kernel", "compile", i);
        let t0 = Instant::now();
        let c = std::hint::black_box(CompiledModel::compile(&big.model));
        compile.push(t0.elapsed().as_secs_f64() * 1e6);
        run.tracer.end(open);
        if i < 5 {
            let c = Arc::new(c);
            let open = run.tracer.begin("kernel", "rebuild", i);
            let t0 = Instant::now();
            std::hint::black_box(SiteKernel::new(c, &big.warm.lattice));
            rebuild.push(t0.elapsed().as_secs_f64() * 1e9 / num_sites);
            run.tracer.end(open);
        }
    }
    run.set("kernel.compile_us", median(&compile));
    run.set("kernel.rebuild_ns_per_site", median(&rebuild));

    // Same partition and seed for 1 and 2 threads; sequential in-order
    // PNDCA is the baseline of the 1-thread executor.
    let steps = big.steps_for(Arm::Parallel2.dt());
    // Each repetition runs its arms back to back, so per-repetition ratios
    // cancel the host's slow spells; the figures are their medians.
    let (mut par_speedup, mut par_overhead, mut shard_speedup) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut comm = psr_shard::CommStats::default();
    for rep in 0..REPS as u64 {
        let a = run.tracer.span("parallel", "run_steps_1", rep, || {
            big.run_parallel_direct(1, steps)
        });
        let b = run.tracer.span("parallel", "run_steps_2", rep, || {
            big.run_parallel_direct(2, steps)
        });
        run.op(a.lattice == b.lattice, || {
            "parallel: 1 and 2 threads differ".to_owned()
        });
        let s = run.tracer.span("ca", "pndca_in_order", rep, || {
            timed(&big.warm, |st| {
                Pndca::new(&big.model, &big.p5).run_steps(
                    st,
                    &mut rng_from_seed(big.seed),
                    steps,
                    None,
                    &mut NoHook,
                )
            })
        });
        par_speedup.push(a.wall / b.wall);
        par_overhead.push(a.wall / s.wall - 1.0);
        let (x, _) = run.tracer.span("shard", "run_steps_1", rep, || {
            big.run_shard(ShardGrid::new(1, 1), steps)
        });
        let (y, c) = run.tracer.span("shard", "run_steps_2", rep, || {
            big.run_shard(ShardGrid::new(2, 1), steps)
        });
        run.op(x.lattice == y.lattice, || {
            "shard: 1 and 2 workers differ".to_owned()
        });
        shard_speedup.push(x.wall / y.wall);
        comm = c;
    }
    run.set("parallel.speedup_2v1", median(&par_speedup));
    run.set("parallel.overhead_vs_pndca", median(&par_overhead));
    run.set("shard.speedup_2v1", median(&shard_speedup));
    run.set(
        "shard.halo_msgs_per_step",
        comm.halo_messages as f64 / steps as f64,
    );
    run.set(
        "shard.halo_bytes_per_step",
        comm.halo_bytes as f64 / steps as f64,
    );
    run.set("shard.boundary_frac", comm.boundary_fraction());
}
