//! Incremental coverage tracking.
//!
//! Every figure in the paper's evaluation plots the *coverage* — the fraction
//! of sites occupied by each particle type — against time. Recomputing a
//! histogram after every reaction would dominate the run time, so
//! [`Coverage`] maintains the counts incrementally: the simulation reports
//! each `(old_state, new_state)` transition as it executes reactions.

use crate::lattice::{Lattice, State};

/// Per-state occupation counts maintained incrementally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    counts: Vec<usize>,
    total: usize,
}

impl Coverage {
    /// Initialise from a lattice, tracking `num_states` distinct state ids.
    ///
    /// # Panics
    ///
    /// Panics if the lattice contains a state id `>= num_states`.
    pub fn from_lattice(lattice: &Lattice, num_states: usize) -> Self {
        Coverage {
            counts: lattice.histogram(num_states),
            total: lattice.len(),
        }
    }

    /// A coverage tracker for an empty ledger of `total` sites all in state 0.
    pub fn uniform(total: usize, num_states: usize, state: State) -> Self {
        assert!((state as usize) < num_states, "state out of range");
        let mut counts = vec![0; num_states];
        counts[state as usize] = total;
        Coverage { counts, total }
    }

    /// Record that one site changed from `old` to `new`.
    #[inline]
    pub fn transition(&mut self, old: State, new: State) {
        if old != new {
            self.counts[old as usize] -= 1;
            self.counts[new as usize] += 1;
        }
    }

    /// Apply net per-state count changes that sum to zero (e.g. one
    /// parallel step's merged worker deltas).
    ///
    /// # Panics
    ///
    /// Panics if a count would go negative.
    pub fn apply_deltas(&mut self, deltas: &[i64]) {
        debug_assert_eq!(deltas.iter().sum::<i64>(), 0, "deltas must balance");
        for (count, &d) in self.counts.iter_mut().zip(deltas) {
            *count = count
                .checked_add_signed(d as isize)
                .expect("coverage count went negative");
        }
    }

    /// Number of sites in `state`.
    pub fn count(&self, state: State) -> usize {
        self.counts[state as usize]
    }

    /// Fraction of sites in `state`.
    pub fn fraction(&self, state: State) -> f64 {
        self.count(state) as f64 / self.total as f64
    }

    /// All fractions, indexed by state id.
    pub fn fractions(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// All fractions written into `out` (cleared first), reusing its
    /// capacity — for sampling loops that would otherwise allocate a
    /// fresh `Vec` per observation.
    pub fn fractions_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.counts.iter().map(|&c| c as f64 / self.total as f64));
    }

    /// Total number of sites.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of tracked state ids.
    pub fn num_states(&self) -> usize {
        self.counts.len()
    }

    /// Verify against a lattice (used in debug assertions and tests).
    ///
    /// Allocation-free: state ids are `u8`, so a fixed 256-slot stack
    /// buffer covers every possible histogram. A lattice holding a state id
    /// outside the tracked range simply fails to match.
    pub fn matches(&self, lattice: &Lattice) -> bool {
        let mut counts = [0usize; 256];
        for &c in lattice.cells() {
            counts[c as usize] += 1;
        }
        lattice.len() == self.total
            && counts[..self.counts.len()] == self.counts[..]
            && counts[self.counts.len()..].iter().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Dims, Site};

    #[test]
    fn from_lattice_counts() {
        let l = Lattice::from_cells(Dims::new(2, 2), vec![0, 1, 1, 2]);
        let c = Coverage::from_lattice(&l, 3);
        assert_eq!(c.count(0), 1);
        assert_eq!(c.count(1), 2);
        assert_eq!(c.count(2), 1);
        assert_eq!(c.total(), 4);
        assert!((c.fraction(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transitions_track_lattice() {
        let mut l = Lattice::filled(Dims::new(3, 3), 0);
        let mut c = Coverage::from_lattice(&l, 3);
        for (i, &new) in [1u8, 2, 1, 0, 2].iter().enumerate() {
            let site = Site(i as u32);
            let old = l.set(site, new);
            c.transition(old, new);
        }
        assert!(c.matches(&l));
    }

    #[test]
    fn self_transition_is_noop() {
        let mut c = Coverage::uniform(10, 2, 0);
        c.transition(0, 0);
        assert_eq!(c.count(0), 10);
    }

    #[test]
    fn fractions_sum_to_one() {
        let l = Lattice::from_cells(Dims::new(5, 1), vec![0, 1, 2, 1, 0]);
        let c = Coverage::from_lattice(&l, 3);
        let sum: f64 = c.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_into_reuses_the_buffer() {
        let l = Lattice::from_cells(Dims::new(5, 1), vec![0, 1, 2, 1, 0]);
        let c = Coverage::from_lattice(&l, 3);
        let mut buf = vec![9.0; 8]; // stale contents and excess length
        c.fractions_into(&mut buf);
        assert_eq!(buf, c.fractions());
    }

    #[test]
    fn uniform_constructor() {
        let c = Coverage::uniform(100, 3, 2);
        assert_eq!(c.count(2), 100);
        assert_eq!(c.count(0), 0);
        assert_eq!(c.num_states(), 3);
    }

    #[test]
    fn matches_detects_divergence() {
        let l = Lattice::filled(Dims::new(2, 2), 0);
        let mut c = Coverage::from_lattice(&l, 2);
        assert!(c.matches(&l));
        c.transition(0, 1); // lattice not actually changed
        assert!(!c.matches(&l));
    }
}
