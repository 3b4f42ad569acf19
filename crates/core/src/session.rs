//! Step-wise, checkpointable simulation sessions.
//!
//! [`crate::Simulator::run_until`] is fire-and-forget: it owns the state and
//! RNG for the whole run. Long ensemble jobs (the `psr-engine` experiment
//! engine) instead need to *pause* a simulation at an arbitrary step,
//! serialise everything required to continue it bit-identically — lattice,
//! clock, step count, RNG stream — and pick it up later, possibly in a
//! different process. [`SimSession`] provides that: it runs a configured
//! algorithm in blocks of whole steps and implements [`Checkpointable`].
//!
//! Resume fidelity relies on two properties of the step-driven algorithms:
//! the RNG consumption of a step depends only on the (state, RNG) pair at
//! its start — there is no hidden cross-step generator state — and every
//! auxiliary structure (propensity caches, alias tables) is a pure function
//! of the model and lattice, so it can be rebuilt after a restore. The
//! free-running event-driven algorithms (VSSM, FRM) carry pending-event
//! queues that are *not* pure functions of the lattice; they are rejected
//! at session construction. The fractional-step splitting executor
//! (`fskmc`) runs exact KMC *inside* each window but keys every RNG stream
//! by `(window, slot, block)`, so window boundaries are clean checkpoint
//! seams: one session step = one whole window, resumable from
//! `(lattice, window count)` alone. The threaded PNDCA (`Parallel`) uses
//! the same seam: its streams are keyed by `(step, sweep position, site)`,
//! so the executor is rebuilt each block at the absolute step count.

use crate::simulator::Algorithm;
use psr_ca::lpndca::LPndca;
use psr_ca::ndca::{Ndca, SweepOrder};
use psr_ca::partition::Partition;
use psr_ca::pndca::Pndca;
use psr_ca::splitting::{FractionalStepKmc, SplitPlan};
use psr_ca::tpndca::{axis_type_partition, TPndca, TypePartition};
use psr_dmc::events::EventHook;
use psr_dmc::rsm::{Rsm, RunStats, TimeMode};
use psr_dmc::sim::SimState;
use psr_lattice::{Dims, Lattice};
use psr_model::Model;
use psr_parallel::ParallelPndca;
use psr_rng::{rng_from_seed, Pcg32, SimRng};

/// Everything needed to continue a [`SimSession`] bit-identically: the
/// configuration, the clock, the step count, and the serialised RNG.
///
/// The model and algorithm are *not* part of the checkpoint — a checkpoint
/// only resumes correctly into a session built with the same configuration.
/// `psr-engine` guarantees this by keying checkpoint files on the job spec.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCheckpoint {
    /// The lattice configuration.
    pub lattice: Lattice,
    /// Simulated clock.
    pub time: f64,
    /// Whole algorithm steps completed since the initial state.
    pub steps: u64,
    /// Serialised RNG state words ([`Pcg32::state`]).
    pub rng: [u64; 2],
}

/// Save/restore hook for resumable simulations.
pub trait Checkpointable {
    /// Capture everything needed to continue bit-identically.
    fn checkpoint(&self) -> SessionCheckpoint;

    /// Resume from a checkpoint captured on an identically configured
    /// instance.
    ///
    /// # Errors
    ///
    /// Rejects checkpoints whose lattice dimensions disagree with the
    /// configuration or whose RNG words are corrupt.
    fn restore(&mut self, ck: &SessionCheckpoint) -> Result<(), String>;
}

/// A paused/resumable simulation: state + RNG + algorithm configuration,
/// advanced in blocks of whole steps.
///
/// One *step* is the algorithm's natural unit: `N` trials for RSM (one MC
/// step), one full sweep for NDCA, one chunk schedule for the partitioned
/// variants.
#[derive(Clone, Debug)]
pub struct SimSession {
    model: Model,
    algorithm: Algorithm,
    dims: Dims,
    /// Prebuilt site partition for the partitioned algorithms.
    partition: Option<Partition>,
    /// Prebuilt Ω×T partition for `TPndca`.
    types: Option<TypePartition>,
    /// Prebuilt block decomposition for `Fskmc`.
    split: Option<SplitPlan>,
    /// Master seed: `Fskmc` and `Parallel` derive their counter-keyed
    /// streams from it (the free-running `rng` below is untouched by them).
    seed: u64,
    state: SimState,
    rng: SimRng,
    steps_done: u64,
    totals: RunStats,
}

impl SimSession {
    /// Build a session from simulator configuration (used by
    /// [`crate::Simulator::into_session`]).
    ///
    /// # Errors
    ///
    /// Rejects algorithms that cannot be checkpointed step-wise (VSSM,
    /// FRM), a parallel run with no threads or a partition that violates
    /// the non-overlap restriction, and bad fskmc block grids or windows.
    pub(crate) fn from_parts(
        model: Model,
        dims: Dims,
        seed: u64,
        algorithm: Algorithm,
        initial: Option<Lattice>,
    ) -> Result<Self, String> {
        let (partition, types, split) = match &algorithm {
            Algorithm::Rsm | Algorithm::RsmDiscretized | Algorithm::Ndca { .. } => {
                (None, None, None)
            }
            Algorithm::Pndca { partition, .. } => (Some(partition.build(dims, &model)), None, None),
            Algorithm::LPndca { partition, .. } => {
                (Some(partition.build(dims, &model)), None, None)
            }
            Algorithm::TPndca => (None, Some(axis_type_partition(&model, dims)), None),
            Algorithm::Parallel { partition, threads } => {
                let p = partition.build(dims, &model);
                if *threads == 0 || !p.is_valid_for(&model) {
                    return Err(format!(
                        "parallel needs threads > 0 and a partition that meets the \
                         non-overlap restriction (got {threads} threads, {partition} partition)"
                    ));
                }
                (Some(p), None, None)
            }
            Algorithm::Fskmc { gx, gy, window, .. } => {
                if !window.is_finite() || *window <= 0.0 {
                    return Err(format!(
                        "fskmc window must be positive and finite (got {window})"
                    ));
                }
                let plan = SplitPlan::new(dims, *gx, *gy, model.interaction_radius())
                    .map_err(|e| format!("fskmc: {e}"))?;
                (None, None, Some(plan))
            }
            other => {
                return Err(format!(
                    "algorithm {other:?} does not support checkpointed step-wise execution"
                ))
            }
        };
        let lattice = initial.unwrap_or_else(|| Lattice::filled(dims, 0));
        if lattice.dims() != dims {
            return Err(format!(
                "initial lattice is {:?}, configured dims are {dims:?}",
                lattice.dims()
            ));
        }
        let state = SimState::new(lattice, &model);
        Ok(SimSession {
            model,
            algorithm,
            dims,
            partition,
            types,
            split,
            seed,
            state,
            rng: rng_from_seed(seed),
            steps_done: 0,
            totals: RunStats::default(),
        })
    }

    /// The model being simulated.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The current simulation state.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Simulated clock.
    pub fn time(&self) -> f64 {
        self.state.time
    }

    /// Whole steps completed since the initial state (survives restore).
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Trial/event counters accumulated by this instance (reset on
    /// restore: they count work done by this process, not by the job).
    pub fn totals(&self) -> RunStats {
        self.totals
    }

    /// Advance by `steps` whole algorithm steps, reporting every trial to
    /// `hook`.
    pub fn run_blocks(&mut self, steps: u64, hook: &mut impl EventHook) -> RunStats {
        let state = &mut self.state;
        let rng = &mut self.rng;
        let stats = match &self.algorithm {
            Algorithm::Rsm => Rsm::new(&self.model).run_mc_steps(state, rng, steps, None, hook),
            Algorithm::RsmDiscretized => Rsm::new(&self.model)
                .with_time_mode(TimeMode::Discretized)
                .run_mc_steps(state, rng, steps, None, hook),
            Algorithm::Ndca { shuffled } => {
                let order = if *shuffled {
                    SweepOrder::Shuffled
                } else {
                    SweepOrder::RowMajor
                };
                Ndca::new(&self.model)
                    .with_order(order)
                    .run_steps(state, rng, steps, None, hook)
            }
            Algorithm::Pndca { selection, .. } => {
                let p = self.partition.as_ref().expect("partition prebuilt");
                Pndca::new(&self.model, p)
                    .with_selection(*selection)
                    .run_steps(state, rng, steps, None, hook)
            }
            Algorithm::LPndca { l, visit, .. } => {
                let p = self.partition.as_ref().expect("partition prebuilt");
                LPndca::new(&self.model, p, *l)
                    .with_visit(*visit)
                    .run_steps(state, rng, steps, None, hook)
            }
            Algorithm::TPndca => {
                let tp = self.types.clone().expect("type partition prebuilt");
                TPndca::new(&self.model, tp).run_steps(state, rng, steps, None, hook)
            }
            Algorithm::Fskmc {
                schedule, window, ..
            } => {
                // One step = one whole window. The executor draws from
                // streams keyed on (window, slot, block) — the session's
                // free-running rng is deliberately untouched, which is what
                // makes the window boundary a checkpoint seam.
                let plan = self.split.as_ref().expect("split plan prebuilt");
                let mut exec =
                    FractionalStepKmc::new(&self.model, plan, *schedule, *window, self.seed);
                exec.set_start_window(self.steps_done);
                exec.run_windows(state, steps, None, hook)
            }
            Algorithm::Parallel { threads, .. } => {
                // Counter-keyed streams, like fskmc: rebuilt at the absolute
                // step, the executor needs nothing but the lattice to resume.
                // It reports aggregate counts; `hook` sees no trials.
                let p = self.partition.as_ref().expect("partition prebuilt");
                let mut exec = ParallelPndca::new(&self.model, p, *threads, self.seed);
                exec.set_start_step(self.steps_done);
                exec.run_steps(state, steps, None)
            }
            other => unreachable!("{other:?} rejected at construction"),
        };
        self.steps_done += steps;
        self.totals += stats;
        stats
    }
}

impl Checkpointable for SimSession {
    fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            lattice: self.state.lattice.clone(),
            time: self.state.time,
            steps: self.steps_done,
            rng: self.rng.state(),
        }
    }

    fn restore(&mut self, ck: &SessionCheckpoint) -> Result<(), String> {
        if ck.lattice.dims() != self.dims {
            return Err(format!(
                "checkpoint lattice is {:?}, session dims are {:?}",
                ck.lattice.dims(),
                self.dims
            ));
        }
        self.rng = Pcg32::from_state(ck.rng)?;
        self.state = SimState::new(ck.lattice.clone(), &self.model);
        self.state.time = ck.time;
        self.steps_done = ck.steps;
        self.totals = RunStats::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{PartitionSpec, Simulator};
    use psr_ca::lpndca::ChunkVisit;
    use psr_ca::pndca::ChunkSelection;
    use psr_ca::splitting::Schedule;
    use psr_dmc::events::NoHook;
    use psr_model::library::zgb::zgb_ziff;

    fn session(algorithm: Algorithm) -> SimSession {
        Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .seed(11)
            .algorithm(algorithm)
            .into_session()
            .expect("steppable algorithm")
    }

    fn steppable_algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::Rsm,
            Algorithm::RsmDiscretized,
            Algorithm::Ndca { shuffled: false },
            Algorithm::Ndca { shuffled: true },
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::RandomOrder,
            },
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::WeightedByRates,
            },
            Algorithm::LPndca {
                partition: PartitionSpec::FiveColoring,
                l: 5,
                visit: ChunkVisit::SizeWeighted,
            },
            Algorithm::TPndca,
            // The window-boundary checkpoint seam: exact KMC inside each
            // window, yet fully steppable (one step = one window).
            Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.2,
            },
            Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Strang,
                window: 0.2,
            },
            Algorithm::Parallel {
                partition: PartitionSpec::FiveColoring,
                threads: 2,
            },
        ]
    }

    #[test]
    fn block_splitting_does_not_change_the_trajectory() {
        for algorithm in steppable_algorithms() {
            let label = format!("{algorithm:?}");
            let mut split = session(algorithm.clone());
            split.run_blocks(3, &mut NoHook);
            split.run_blocks(7, &mut NoHook);
            let mut whole = session(algorithm);
            whole.run_blocks(10, &mut NoHook);
            assert_eq!(
                split.state().lattice,
                whole.state().lattice,
                "{label}: lattice diverged"
            );
            assert_eq!(
                split.time().to_bits(),
                whole.time().to_bits(),
                "{label}: clock diverged"
            );
            assert_eq!(
                split.checkpoint().rng,
                whole.checkpoint().rng,
                "{label}: RNG diverged"
            );
            assert_eq!(split.totals(), whole.totals(), "{label}: stats diverged");
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        for algorithm in steppable_algorithms() {
            let label = format!("{algorithm:?}");
            let mut original = session(algorithm.clone());
            original.run_blocks(5, &mut NoHook);
            let ck = original.checkpoint();
            assert_eq!(ck.steps, 5, "{label}");
            original.run_blocks(5, &mut NoHook);

            let mut resumed = session(algorithm);
            resumed.restore(&ck).expect("restore");
            assert_eq!(resumed.steps_done(), 5, "{label}");
            resumed.run_blocks(5, &mut NoHook);

            assert_eq!(
                resumed.state().lattice,
                original.state().lattice,
                "{label}: lattice diverged after resume"
            );
            assert_eq!(
                resumed.time().to_bits(),
                original.time().to_bits(),
                "{label}: clock diverged after resume"
            );
            assert_eq!(
                resumed.checkpoint().rng,
                original.checkpoint().rng,
                "{label}: RNG diverged after resume"
            );
            assert!(
                resumed.state().coverage.matches(&resumed.state().lattice),
                "{label}: coverage inconsistent after resume"
            );
        }
    }

    #[test]
    fn event_driven_algorithms_are_rejected() {
        for algorithm in [Algorithm::Vssm, Algorithm::VssmTree, Algorithm::Frm] {
            let err = Simulator::new(zgb_ziff(0.5, 5.0))
                .dims(Dims::square(20))
                .algorithm(algorithm)
                .into_session()
                .unwrap_err();
            assert!(err.contains("step-wise"), "unexpected error: {err}");
        }
    }

    #[test]
    fn bad_fskmc_configurations_are_rejected_at_build() {
        // 3 does not divide 20.
        let err = Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .algorithm(Algorithm::Fskmc {
                gx: 3,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.1,
            })
            .into_session()
            .unwrap_err();
        assert!(err.contains("divide"), "unexpected error: {err}");
        let err = Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .algorithm(Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.0,
            })
            .into_session()
            .unwrap_err();
        assert!(err.contains("window"), "unexpected error: {err}");
    }

    #[test]
    fn bad_parallel_configurations_are_rejected_at_build() {
        for (partition, threads) in [
            (PartitionSpec::Checkerboard, 2),
            (PartitionSpec::FiveColoring, 0),
        ] {
            let err = Simulator::new(zgb_ziff(0.5, 5.0))
                .dims(Dims::square(20))
                .algorithm(Algorithm::Parallel { partition, threads })
                .into_session()
                .unwrap_err();
            assert!(err.contains("non-overlap"), "unexpected error: {err}");
        }
    }

    #[test]
    fn fskmc_session_leaves_the_free_running_rng_untouched() {
        // All fskmc draws come from counter-keyed streams; the session rng
        // must stay at its seed state so checkpoints are trivially stable.
        let algorithm = Algorithm::Fskmc {
            gx: 2,
            gy: 2,
            schedule: Schedule::Strang,
            window: 0.2,
        };
        let mut s = session(algorithm);
        let before = s.checkpoint().rng;
        let stats = s.run_blocks(5, &mut NoHook);
        assert!(stats.executed > 0, "no events in 5 windows");
        assert_eq!(s.checkpoint().rng, before);
        assert_eq!(s.time().to_bits(), (0.2f64 * 5.0).to_bits());
    }

    #[test]
    fn restore_rejects_wrong_dims_and_bad_rng() {
        let mut s = session(Algorithm::Rsm);
        let mut ck = s.checkpoint();
        ck.lattice = Lattice::filled(Dims::square(10), 0);
        assert!(s.restore(&ck).unwrap_err().contains("dims"));
        let mut ck = s.checkpoint();
        ck.rng[1] &= !1; // even increment: corrupt
        assert!(s.restore(&ck).unwrap_err().contains("even"));
    }
}
