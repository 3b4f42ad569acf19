//! Pinned final lattices of the parallel PNDCA entry points.
//!
//! `ParallelPndca` and `Algorithm::Parallel` are pure functions of
//! `(seed, partition, selection)`: the thread count and the executor
//! underneath them may change, the trajectory may not. These hashes were
//! recorded from the shared-lattice executor that preceded the sharded
//! one, so they pin the trajectory semantics across that change.

use psr_core::ca::partition_builder::five_coloring;
use psr_core::ca::pndca::ChunkSelection;
use psr_core::dmc::sim::SimState;
use psr_core::lattice::{Dims, Lattice};
use psr_core::model::library::zgb::zgb_ziff;
use psr_core::parallel::ParallelPndca;
use psr_core::{Algorithm, PartitionSpec, Simulator};

/// FNV-1a over the cells: a stable fingerprint of a final lattice.
fn fnv1a(lattice: &Lattice) -> u64 {
    lattice.cells().iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn parallel_pndca_final_lattices_are_pinned_per_selection() {
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(40);
    let partition = five_coloring(d);
    let pins = [
        (ChunkSelection::InOrder, 0xe5be_4869_a542_372b, 14544),
        (ChunkSelection::RandomOrder, 0x7978_9b0e_d42b_9225, 14985),
        (
            ChunkSelection::RandomWithReplacement,
            0x8438_5bcd_e4d6_27d8,
            14809,
        ),
        (
            ChunkSelection::WeightedByRates,
            0xbc9a_5f2b_603a_56b9,
            13902,
        ),
    ];
    for (selection, hash, executed) in pins {
        // 3 threads do not tile a 40-wide lattice; the result must not care.
        for threads in [1, 2, 3] {
            let mut exec =
                ParallelPndca::new(&model, &partition, threads, 2003).with_selection(selection);
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            let stats = exec.run_steps(&mut state, 150, None);
            assert_eq!(fnv1a(&state.lattice), hash, "{selection:?} / {threads}");
            assert_eq!(stats.executed, executed, "{selection:?} / {threads}");
        }
    }
}

#[test]
fn simulator_parallel_final_lattice_is_pinned() {
    for threads in [1, 2, 4] {
        let out = Simulator::new(zgb_ziff(0.5, 2.0))
            .dims(Dims::square(40))
            .seed(2003)
            .algorithm(Algorithm::Parallel {
                partition: PartitionSpec::FiveColoring,
                threads,
            })
            .sample_dt(1.0)
            .run_until(20.0);
        assert_eq!(
            fnv1a(&out.state().lattice),
            0x64b2_adc3_0ddc_f01f,
            "threads {threads}"
        );
        assert_eq!(out.stats().executed, 17192, "threads {threads}");
    }
}
