//! Sharded PNDCA: per-worker lattice domains with a halo-exchange message
//! protocol — the one parallel executor of the partitioned CA.
//!
//! The paper's partitions let every site of one chunk update at the same
//! time. This crate turns that into share-nothing parallelism: the torus
//! is tiled into rectangular domains, each worker owns a private
//! halo-padded copy of its domain ([`SubLattice`](psr_lattice::SubLattice))
//! and its own deterministic RNG streams — and *all* boundary state moves
//! through serializable byte frames ([`frame`]), never shared memory, so
//! the in-process transport is one swap away from sockets.
//!
//! Determinism contract: every trial draws from a stream keyed by
//! `(step, sweep position, global site)` (`streams.rs`), and weighted chunk
//! draws are replicated on every worker from integer count sums.
//! Trajectories are therefore a pure function of `(seed, partition)`:
//! invariant to thread count, scheduler choice, and the shard grid, which
//! the differential tests pin against a sequential reference.
//!
//! Modules:
//!
//! - [`domain`] — the worker grid and direction algebra;
//! - [`frame`] — the wire format (halo strips, write-backs, counts,
//!   reports, gathers, socket handshake) and the communication counters;
//! - [`executor`] — [`ShardedPndca`] with the lockstep inline scheduler
//!   (critical-path timed), the threaded channel scheduler, and the
//!   multi-process socket scheduler;
//! - [`net`] — the socket transport: hub, worker-process loop, coalesced
//!   per-peer frame batching, and the CONFIG/PEERS handshake codec.

#![warn(missing_docs)]

pub mod domain;
pub mod executor;
pub mod frame;
pub mod net;
mod streams;
mod worker;

pub use domain::{dir_index, opposite, ShardGrid, DIRS};
pub use executor::{ScheduleMode, ShardedPndca};
pub use frame::{CommStats, FrameHeader, StepReport};
pub use net::Wire;
