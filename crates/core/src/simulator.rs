//! The unified simulator builder.

use crate::output::SimOutput;
use psr_ca::lpndca::{ChunkVisit, LPndca};
use psr_ca::ndca::{Ndca, SweepOrder};
use psr_ca::partition::Partition;
use psr_ca::partition_builder::{
    checkerboard, five_coloring, greedy_coloring, single_chunk, singleton_chunks,
};
use psr_ca::pndca::{ChunkSelection, Pndca};
use psr_ca::splitting::{FractionalStepKmc, Schedule, SplitPlan};
use psr_ca::tpndca::{axis_type_partition, TPndca};
use psr_dmc::events::NoHook;
use psr_dmc::frm::Frm;
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::{Rsm, RunStats, TimeMode};
use psr_dmc::sim::SimState;
use psr_dmc::vssm::Vssm;
use psr_lattice::{Dims, Lattice};
use psr_model::Model;
use psr_parallel::executor::ParallelPndca;
use psr_rng::rng_from_seed;

/// How the lattice is partitioned for the partitioned algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionSpec {
    /// The optimal 5-chunk von Neumann partition (Fig 4); dimensions must
    /// be divisible by 5.
    FiveColoring,
    /// Greedy conflict-graph coloring (works for any model/size).
    Greedy,
    /// The 2-chunk checkerboard (only valid per-reaction; for `TPndca`).
    Checkerboard,
    /// One chunk holding the whole lattice (`m = 1`).
    SingleChunk,
    /// One chunk per site (`m = N`).
    Singletons,
}

impl std::fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PartitionSpec::FiveColoring => "five",
            PartitionSpec::Greedy => "greedy",
            PartitionSpec::Checkerboard => "checkerboard",
            PartitionSpec::SingleChunk => "single",
            PartitionSpec::Singletons => "singletons",
        })
    }
}

impl std::str::FromStr for PartitionSpec {
    type Err = String;

    /// Parse the names printed by `Display` (batch spec files).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "five" => Ok(PartitionSpec::FiveColoring),
            "greedy" => Ok(PartitionSpec::Greedy),
            "checkerboard" => Ok(PartitionSpec::Checkerboard),
            "single" => Ok(PartitionSpec::SingleChunk),
            "singletons" => Ok(PartitionSpec::Singletons),
            other => Err(format!(
                "unknown partition {other:?} (expected five, greedy, checkerboard, single \
                 or singletons)"
            )),
        }
    }
}

impl PartitionSpec {
    /// Materialise the partition.
    pub fn build(&self, dims: Dims, model: &Model) -> Partition {
        match self {
            PartitionSpec::FiveColoring => five_coloring(dims),
            PartitionSpec::Greedy => greedy_coloring(dims, model),
            PartitionSpec::Checkerboard => checkerboard(dims),
            PartitionSpec::SingleChunk => single_chunk(dims),
            PartitionSpec::Singletons => singleton_chunks(dims),
        }
    }
}

/// The simulation algorithm to run.
#[derive(Clone, Debug, PartialEq)]
pub enum Algorithm {
    /// Random Selection Method (paper §3) with stochastic time.
    Rsm,
    /// RSM with the discretised `1/(N·K)` clock.
    RsmDiscretized,
    /// Variable Step Size Method (Gillespie direct).
    Vssm,
    /// VSSM over a segment-tree propensity index (O(log) selection).
    VssmTree,
    /// First Reaction Method.
    Frm,
    /// Non-deterministic CA (paper §4).
    Ndca {
        /// Shuffle the site order each step instead of row-major sweeps.
        shuffled: bool,
    },
    /// Partitioned NDCA (paper §5).
    Pndca {
        /// Lattice partition.
        partition: PartitionSpec,
        /// Chunk-selection strategy.
        selection: ChunkSelection,
    },
    /// L-PNDCA (paper §5) with trial budget `l` per chunk visit.
    LPndca {
        /// Lattice partition.
        partition: PartitionSpec,
        /// Trial budget per chunk visit.
        l: usize,
        /// Chunk-visit mode.
        visit: ChunkVisit,
    },
    /// Type-partitioned NDCA over Ω×T (paper §5, Table II).
    TPndca,
    /// Threaded PNDCA over a conflict-free partition (in-order chunk
    /// selection); the trajectory does not depend on `threads`.
    Parallel {
        /// Lattice partition.
        partition: PartitionSpec,
        /// Worker threads.
        threads: usize,
    },
    /// Fractional-step operator-splitting KMC (Lie/Strang): exact VSSM
    /// within `gx × gy` blocks for a window `Δt`, groups interleaved per
    /// the schedule. One step = one whole window.
    Fskmc {
        /// Block grid columns (must divide the lattice width).
        gx: u32,
        /// Block grid rows (must divide the lattice height).
        gy: u32,
        /// Lie (first-order) or Strang (second-order) group schedule.
        schedule: Schedule,
        /// Time window Δt per splitting sweep.
        window: f64,
    },
}

/// Builder/runner around a model.
#[derive(Clone, Debug)]
pub struct Simulator {
    model: Model,
    dims: Dims,
    seed: u64,
    algorithm: Algorithm,
    sample_dt: f64,
    initial: Option<Lattice>,
}

impl Simulator {
    /// A simulator for `model` with defaults: 100×100 lattice, seed 0, RSM,
    /// sampling every 1.0 time units, empty initial surface.
    pub fn new(model: Model) -> Self {
        Simulator {
            model,
            dims: Dims::square(100),
            seed: 0,
            algorithm: Algorithm::Rsm,
            sample_dt: 1.0,
            initial: None,
        }
    }

    /// Set the lattice dimensions.
    pub fn dims(mut self, dims: Dims) -> Self {
        self.dims = dims;
        self
    }

    /// Set the RNG master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the coverage sampling interval.
    pub fn sample_dt(mut self, dt: f64) -> Self {
        self.sample_dt = dt;
        self
    }

    /// Start from an explicit initial configuration instead of the empty
    /// surface.
    pub fn initial_lattice(mut self, lattice: Lattice) -> Self {
        self.initial = Some(lattice);
        self
    }

    /// The model being simulated.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Convert the configuration into a step-wise, checkpointable
    /// [`SimSession`](crate::session::SimSession).
    ///
    /// # Errors
    ///
    /// Rejects algorithms that cannot be checkpointed step-wise (VSSM and
    /// FRM) and configurations the chosen executor cannot run.
    pub fn into_session(self) -> Result<crate::session::SimSession, String> {
        crate::session::SimSession::from_parts(
            self.model,
            self.dims,
            self.seed,
            self.algorithm,
            self.initial,
        )
    }

    fn initial_state(&self) -> SimState {
        let lattice = self
            .initial
            .clone()
            .unwrap_or_else(|| Lattice::filled(self.dims, 0));
        assert_eq!(
            lattice.dims(),
            self.dims,
            "initial lattice dimensions disagree with the configured dims"
        );
        SimState::new(lattice, &self.model)
    }

    /// Run until simulated time `t_end`; returns coverage series and stats.
    pub fn run_until(&self, t_end: f64) -> SimOutput {
        let mut state = self.initial_state();
        let mut rng = rng_from_seed(self.seed);
        let mut recorder = Recorder::new(self.model.species().len(), self.sample_dt);
        let stats: RunStats = match &self.algorithm {
            Algorithm::Rsm => Rsm::new(&self.model).run_until(
                &mut state,
                &mut rng,
                t_end,
                Some(&mut recorder),
                &mut NoHook,
            ),
            Algorithm::RsmDiscretized => Rsm::new(&self.model)
                .with_time_mode(TimeMode::Discretized)
                .run_until(
                    &mut state,
                    &mut rng,
                    t_end,
                    Some(&mut recorder),
                    &mut NoHook,
                ),
            Algorithm::Vssm => {
                let mut vssm = Vssm::new(&self.model, &state.lattice);
                vssm.run_until(
                    &mut state,
                    &mut rng,
                    t_end,
                    Some(&mut recorder),
                    &mut NoHook,
                )
            }
            Algorithm::VssmTree => {
                let mut vssm = psr_dmc::VssmTree::new(&self.model, &state.lattice);
                vssm.run_until(
                    &mut state,
                    &mut rng,
                    t_end,
                    Some(&mut recorder),
                    &mut NoHook,
                )
            }
            Algorithm::Frm => {
                let mut frm = Frm::new(&self.model, &state.lattice, 0.0, &mut rng);
                frm.run_until(
                    &mut state,
                    &mut rng,
                    t_end,
                    Some(&mut recorder),
                    &mut NoHook,
                )
            }
            Algorithm::Ndca { shuffled } => {
                let order = if *shuffled {
                    SweepOrder::Shuffled
                } else {
                    SweepOrder::RowMajor
                };
                Ndca::new(&self.model).with_order(order).run_until(
                    &mut state,
                    &mut rng,
                    t_end,
                    Some(&mut recorder),
                    &mut NoHook,
                )
            }
            Algorithm::Pndca {
                partition,
                selection,
            } => {
                let p = partition.build(self.dims, &self.model);
                Pndca::new(&self.model, &p)
                    .with_selection(*selection)
                    .run_until(
                        &mut state,
                        &mut rng,
                        t_end,
                        Some(&mut recorder),
                        &mut NoHook,
                    )
            }
            Algorithm::LPndca {
                partition,
                l,
                visit,
            } => {
                let p = partition.build(self.dims, &self.model);
                LPndca::new(&self.model, &p, *l)
                    .with_visit(*visit)
                    .run_until(
                        &mut state,
                        &mut rng,
                        t_end,
                        Some(&mut recorder),
                        &mut NoHook,
                    )
            }
            Algorithm::TPndca => {
                let tp = axis_type_partition(&self.model, self.dims);
                TPndca::new(&self.model, tp).run_until(
                    &mut state,
                    &mut rng,
                    t_end,
                    Some(&mut recorder),
                    &mut NoHook,
                )
            }
            Algorithm::Parallel { partition, threads } => {
                let p = partition.build(self.dims, &self.model);
                let mut exec = ParallelPndca::new(&self.model, &p, *threads, self.seed);
                // Whole steps of 1/K until t_end.
                let k = self.model.total_rate();
                let steps = (t_end * k).ceil() as u64;
                exec.run_steps(&mut state, steps, Some(&mut recorder))
            }
            Algorithm::Fskmc {
                gx,
                gy,
                schedule,
                window,
            } => {
                let plan = SplitPlan::new(self.dims, *gx, *gy, self.model.interaction_radius())
                    .expect("valid fskmc block grid");
                let mut exec =
                    FractionalStepKmc::new(&self.model, &plan, *schedule, *window, self.seed);
                exec.run_until(&mut state, t_end, Some(&mut recorder), &mut NoHook)
            }
        };
        SimOutput::new(state, recorder, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_model::library::zgb::zgb_ziff;

    fn sim(algorithm: Algorithm) -> SimOutput {
        Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .seed(1)
            .algorithm(algorithm)
            .sample_dt(0.25)
            .run_until(2.0)
    }

    #[test]
    fn all_algorithms_run_and_record() {
        let algorithms = vec![
            Algorithm::Rsm,
            Algorithm::RsmDiscretized,
            Algorithm::Vssm,
            Algorithm::VssmTree,
            Algorithm::Frm,
            Algorithm::Ndca { shuffled: false },
            Algorithm::Ndca { shuffled: true },
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::RandomOrder,
            },
            Algorithm::LPndca {
                partition: PartitionSpec::FiveColoring,
                l: 1,
                visit: ChunkVisit::SizeWeighted,
            },
            Algorithm::LPndca {
                partition: PartitionSpec::FiveColoring,
                l: 80,
                visit: ChunkVisit::RandomOnce,
            },
            Algorithm::TPndca,
            Algorithm::Parallel {
                partition: PartitionSpec::FiveColoring,
                threads: 2,
            },
            Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.1,
            },
            Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Strang,
                window: 0.1,
            },
        ];
        for algorithm in algorithms {
            let label = format!("{algorithm:?}");
            let out = sim(algorithm);
            assert!(out.stats().trials > 0, "{label}: no trials");
            assert!(
                out.series(0).len() >= 8,
                "{label}: too few samples ({})",
                out.series(0).len()
            );
            assert!(
                out.state().coverage.matches(&out.state().lattice),
                "{label}: coverage diverged"
            );
            // Something must have adsorbed by t = 2.
            let vacant_final = *out.series(0).values().last().expect("samples");
            assert!(vacant_final < 1.0, "{label}: surface still empty");
        }
    }

    #[test]
    fn seeds_reproduce() {
        let a = sim(Algorithm::Rsm);
        let b = sim(Algorithm::Rsm);
        assert_eq!(a.series(1).values(), b.series(1).values());
    }

    #[test]
    fn different_algorithms_agree_on_kinetics() {
        // RSM and VSSM both simulate the exact ME: their coverage curves
        // must agree within stochastic noise on a 20×20 lattice.
        let rsm = sim(Algorithm::Rsm);
        let vssm = sim(Algorithm::Vssm);
        let dev = psr_stats::rms_deviation(rsm.series(1), vssm.series(1), 50)
            .expect("overlapping series");
        assert!(dev < 0.08, "RSM vs VSSM deviation {dev}");
    }

    #[test]
    fn custom_initial_lattice_used() {
        let model = zgb_ziff(0.5, 5.0);
        let dims = Dims::square(10);
        let full = Lattice::filled(dims, 1); // all CO
        let out = Simulator::new(model)
            .dims(dims)
            .initial_lattice(full)
            .sample_dt(0.5)
            .run_until(0.5);
        let first_co = out.series(1).values()[0];
        assert_eq!(first_co, 1.0);
    }

    #[test]
    #[should_panic(expected = "dimensions disagree")]
    fn mismatched_initial_lattice_panics() {
        let model = zgb_ziff(0.5, 5.0);
        let out = Simulator::new(model)
            .dims(Dims::square(10))
            .initial_lattice(Lattice::filled(Dims::square(5), 0));
        out.run_until(0.1);
    }
}
