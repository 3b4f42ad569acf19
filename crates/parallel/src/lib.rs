//! Parallel execution of partitioned CA simulations.
//!
//! The point of the paper's partitions: all sites of a chunk can be updated
//! *simultaneously* because their reaction neighborhoods are disjoint. This
//! crate turns that property into actual parallelism and measures it:
//!
//! - [`executor`] — a threaded PNDCA: the entry point onto `psr-shard`'s
//!   share-nothing sharded executor, one worker thread per lattice domain,
//!   with counter-keyed RNG streams;
//! - [`machine`] — an analytical parallel-machine model `T(p, N)` calibrated
//!   against the executor, used to regenerate the paper's Fig 7
//!   speedup surface on hardware with fewer cores than the 2003 testbed
//!   (see DESIGN.md, substitution 1);
//! - [`segers`] — the domain-decomposition baseline the paper contrasts
//!   against (§3): block-parallel RSM with an interior/boundary split and
//!   explicit accounting of the communication the block boundaries force;
//! - [`speedup`] — wall-clock measurement harness `T(1,N)/T(p,N)`;
//! - [`ensemble`] — independent replicas run concurrently on a rayon pool.

#![warn(missing_docs)]

pub mod ensemble;
pub mod executor;
pub mod machine;
pub mod segers;
pub mod speedup;

pub use ensemble::{run_ensemble, run_replicas, EnsembleSeries};
pub use executor::ParallelPndca;
pub use machine::{MachineParams, SimulatedMachine};
pub use segers::SegersDecomposition;
pub use speedup::{measure_speedup, SpeedupRow};
