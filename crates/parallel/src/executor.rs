//! The threaded PNDCA entry point.
//!
//! One PNDCA step sweeps the chunks of the partition; within a chunk every
//! site gets one trial, and because same-chunk neighborhoods are disjoint
//! (the partition restriction) those trials can all run at once. The
//! sharded executor of `psr-shard` is the one implementation of that
//! semantics: [`ParallelPndca`] runs it with [`ScheduleMode::Threaded`],
//! one OS thread per lattice domain.
//!
//! Determinism: every trial draws from a stream keyed by
//! `(step, sweep position, site)` — never by thread or domain — so results
//! are a pure function of `(seed, partition)` alone. The thread count only
//! picks the domain grid, never the trajectory.

use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::RunStats;
use psr_dmc::sim::SimState;
use psr_lattice::Dims;
use psr_model::Model;
use psr_shard::{ScheduleMode, ShardGrid, ShardedPndca};

/// Threaded PNDCA over a conflict-free partition.
pub struct ParallelPndca<'m, 'p> {
    exec: ShardedPndca<'m, 'p>,
}

impl<'m, 'p> ParallelPndca<'m, 'p> {
    /// Build an executor with up to `threads` workers: the largest worker
    /// count `≤ threads` whose grid tiles the lattice, or a single worker
    /// if none does.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, if the partition violates the non-overlap
    /// restriction for `model`, if the lattice is too small for even one
    /// halo-padded domain, or if the model cannot be kernel-compiled.
    pub fn new(model: &'m Model, partition: &'p Partition, threads: usize, seed: u64) -> Self {
        assert!(threads > 0, "need at least one thread");
        let grid = grid_for(threads, partition.dims(), model.interaction_radius());
        ParallelPndca {
            exec: ShardedPndca::new(model, partition, grid, seed).with_mode(ScheduleMode::Threaded),
        }
    }

    /// Select any of the four §5 chunk-selection strategies. Every strategy
    /// keeps the executor deterministic: the chunk sequence is driven by
    /// dedicated per-step RNG streams and the trial streams are keyed by
    /// sweep *position* and site.
    pub fn with_selection(mut self, selection: ChunkSelection) -> Self {
        self.exec = self.exec.with_selection(selection);
        self
    }

    /// Continue a run at absolute step `step` (checkpoint resume).
    pub fn set_start_step(&mut self, step: u64) {
        self.exec.set_start_step(step);
    }

    /// Number of worker threads actually used.
    pub fn threads(&self) -> usize {
        self.exec.grid().workers() as usize
    }

    /// Completed steps.
    pub fn steps_done(&self) -> u64 {
        self.exec.steps_done()
    }

    /// Run `steps` parallel PNDCA steps.
    pub fn run_steps(
        &mut self,
        state: &mut SimState,
        steps: u64,
        recorder: Option<&mut Recorder>,
    ) -> RunStats {
        self.exec.run_steps(state, steps, recorder)
    }
}

/// The squarest grid of the largest worker count `≤ threads` that tiles
/// `dims` with domains wider than `2 · radius`; 1×1 when none does.
fn grid_for(threads: usize, dims: Dims, radius: u32) -> ShardGrid {
    (1..=threads as u32)
        .rev()
        .find_map(|workers| {
            (1..=workers)
                .filter(|gy| workers.is_multiple_of(*gy))
                .map(|gy| ShardGrid::new(workers / gy, gy))
                .filter(|grid| grid.check(dims, radius).is_ok())
                .min_by_key(|grid| grid.gx().abs_diff(grid.gy()))
        })
        .unwrap_or(ShardGrid::new(1, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_ca::partition_builder::{checkerboard, five_coloring};
    use psr_lattice::Lattice;
    use psr_model::library::zgb::zgb_ziff;

    #[test]
    fn trajectories_invariant_of_thread_count() {
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(20);
        let p = five_coloring(d);
        let run = |threads: usize, selection: ChunkSelection| {
            let mut exec = ParallelPndca::new(&model, &p, threads, 13).with_selection(selection);
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            let stats = exec.run_steps(&mut state, 12, None);
            assert!(state.coverage.matches(&state.lattice));
            (state.lattice, stats)
        };
        for selection in [
            ChunkSelection::InOrder,
            ChunkSelection::RandomOrder,
            ChunkSelection::RandomWithReplacement,
            ChunkSelection::WeightedByRates,
        ] {
            let reference = run(1, selection);
            assert_eq!(reference.1.trials, 12 * 400, "{selection:?}");
            for threads in [2, 3, 8] {
                assert_eq!(run(threads, selection), reference, "{selection:?}");
            }
        }
    }

    #[test]
    fn grid_is_the_largest_tiling_worker_count() {
        let grid = |threads, side| {
            let g = grid_for(threads, Dims::square(side), 1);
            (g.gx(), g.gy())
        };
        assert_eq!(grid(1, 20), (1, 1));
        assert_eq!(grid(2, 20), (2, 1));
        assert_eq!(grid(3, 20), (2, 1));
        assert_eq!(grid(4, 20), (2, 2));
        // 7 does not divide 20; 6 = 3×2 does not either; 5×1 does.
        assert_eq!(grid(7, 20), (5, 1));
        // Domains must stay wider than 2r = 2: a 5-wide lattice cannot be
        // split at all.
        assert_eq!(grid(8, 5), (1, 1));
    }

    #[test]
    #[should_panic(expected = "non-overlap restriction")]
    fn invalid_partition_rejected_at_construction() {
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(10);
        let p = checkerboard(d);
        ParallelPndca::new(&model, &p, 2, 0);
    }

    #[test]
    fn more_threads_than_the_lattice_tiles_is_fine() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(5);
        let p = five_coloring(d);
        let mut exec = ParallelPndca::new(&model, &p, 8, 2);
        assert_eq!(exec.threads(), 1);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let stats = exec.run_steps(&mut state, 4, None);
        assert_eq!(stats.trials, 100);
        assert!(state.coverage.matches(&state.lattice));
    }
}
