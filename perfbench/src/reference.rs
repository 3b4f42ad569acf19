//! A fixed reference computation owned by the benchmark, interleaved with
//! the timed samples so the bounded figures can be reported at one host
//! pace.
//!
//! A shared host runs the same code at a pace that drifts by tens of
//! percent within seconds (a 520² RSM run and this loop, timed back to
//! back, both ranged over 0.6–1.0 of their fastest pace within 40 s). The
//! end-to-end times and rates are therefore scaled by `(REF_MS / ref_ms)^β`:
//! they read as what the sample would take on a host that runs one
//! reference piece in [`REF_MS`]. The exponent β is the sample's
//! sensitivity to the host's pace: a slow spell slows this cache-resident
//! loop less than it slows work that spills out of L2. On the reference
//! host, regressing the log of a run's median sample time on the log of
//! its median piece time over 20 runs whose pieces took 0.52–0.97 ms gave
//! β = 1.5 for `rsm`, 1.2 for `ndca`, `pndca` and the ensemble, and 1.1
//! for engine jobs; the figures use [`BETA_RSM`], [`BETA_MEMORY_BOUND`]
//! and 1.0. The fit is not a law: the slope was about 1.2 for `rsm` where
//! pieces took under 0.7 ms and about 1.9 above.
//!
//! A sample is cut into slices and one reference piece runs before each
//! slice ([`Paced`]), so the pieces see the host over the same stretch of
//! time as the sample: one reference run before a 250 ms sample left the
//! scaled RSM rates spread 0.12–0.13 over a 40 s probe, a piece before
//! each of 40 slices 0.07. No change to the repository can make the
//! reference faster or slower, so a regression still shows in full.

use std::time::Instant;

/// Trials of one reference piece.
const TRIALS: u64 = 50_000;

/// Nominal wall time of one reference piece, ms: about what it takes on
/// the reference host (2-vCPU Xeon VM) in a quiet spell.
pub const REF_MS: f64 = 0.625;

/// Sensitivity exponent of `rsm`, whose random sites over 2.4 MB miss L2.
pub const BETA_RSM: f64 = 1.5;
/// Sensitivity exponent of the other memory-bound figures: `ndca`,
/// `pndca` and the 64-replica ensemble.
pub const BETA_MEMORY_BOUND: f64 = 1.2;

/// A ZGB-like random-site update loop on a 48×48 byte torus driven by the
/// benchmark's own SplitMix64: the same kind of work as an NDCA job (random
/// site, neighbour reads, table-driven writes). Returns a checksum so the
/// loop is not optimised out.
fn work() -> u64 {
    const SIDE: usize = 48;
    let mut cells = [0u8; SIDE * SIDE];
    let mut z: u64 = 0x5EED;
    let mut next = || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let mut sum = 0u64;
    for _ in 0..TRIALS {
        let r = next();
        let i = (r as usize) % (SIDE * SIDE);
        let (x, y) = (i % SIDE, i / SIDE);
        let n = ((y + 1) % SIDE) * SIDE + x;
        let e = y * SIDE + (x + 1) % SIDE;
        let (a, b, c) = (cells[i], cells[n], cells[e]);
        match (r >> 32) % 3 {
            0 if a == 0 => cells[i] = 1,
            1 if a == 0 && b == 0 => {
                cells[i] = 2;
                cells[n] = 2;
            }
            _ if a + c == 3 => {
                cells[i] = 0;
                cells[e] = 0;
                sum += 1;
            }
            _ => {}
        }
    }
    sum
}

/// Run one reference piece; its wall time, ms.
fn time_ms() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(work());
    t0.elapsed().as_secs_f64() * 1e3
}

/// A time measured next to reference pieces of median `ref_ms`, at the
/// reference pace, for a sample of sensitivity exponent `beta`.
pub fn scale_time(t: f64, ref_ms: f64, beta: f64) -> f64 {
    t * (REF_MS / ref_ms).powf(beta)
}

/// A rate measured next to reference pieces of median `ref_ms`, at the
/// reference pace, for a sample of sensitivity exponent `beta`.
pub fn scale_rate(r: f64, ref_ms: f64, beta: f64) -> f64 {
    r * (ref_ms / REF_MS).powf(beta)
}

/// One timed sample cut into slices, with a reference piece before each.
#[derive(Default)]
pub struct Paced {
    /// Wall time of the slices, s.
    work_s: f64,
    /// Wall time of each reference piece, ms.
    pieces: Vec<f64>,
}

impl Paced {
    /// Run a reference piece, then time `f` as one slice of the sample.
    pub fn slice<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.piece();
        let t0 = Instant::now();
        let out = f();
        self.work_s += t0.elapsed().as_secs_f64();
        out
    }

    /// Run a reference piece on its own (for a sample timed from outside
    /// that calls back into the benchmark between its slices).
    pub fn piece(&mut self) {
        self.pieces.push(time_ms());
    }

    /// Wall time of the slices, s.
    pub fn wall_s(&self) -> f64 {
        self.work_s
    }

    /// Wall time of the reference pieces, ms each.
    pub fn pieces(&self) -> &[f64] {
        &self.pieces
    }

    /// Median wall time of the reference pieces, ms: a piece is short
    /// enough that one preemption can multiply its time, and the median
    /// leaves such a piece out while still following the host's pace
    /// across the sample.
    pub fn ref_ms(&self) -> f64 {
        crate::stats::median(&self.pieces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_scaling_inverts() {
        assert_eq!(work(), work());
        let t = time_ms();
        assert!(t > 0.0);
        assert!((scale_time(10.0, REF_MS, 1.0) - 10.0).abs() < 1e-12);
        // Twice as slow a host: times halve, rates double; with β = 2
        // they quarter and quadruple.
        assert!((scale_time(10.0, 2.0 * REF_MS, 1.0) - 5.0).abs() < 1e-12);
        assert!((scale_rate(10.0, 2.0 * REF_MS, 1.0) - 20.0).abs() < 1e-12);
        assert!((scale_time(10.0, 2.0 * REF_MS, 2.0) - 2.5).abs() < 1e-12);
        assert!((scale_rate(10.0, 2.0 * REF_MS, 2.0) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn paced_slices_run_a_piece_each() {
        let mut p = Paced::default();
        let x: u32 = (0..3).map(|k| p.slice(|| k)).sum();
        assert_eq!(x, 3);
        assert_eq!(p.pieces().len(), 3);
        assert!(p.ref_ms() > 0.0 && p.wall_s() >= 0.0);
    }
}
