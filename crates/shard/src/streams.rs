//! The counter-keyed RNG stream ids of parallel PNDCA.
//!
//! Every random draw of a step comes from a stream derived from the master
//! seed and a key built from counters only — never from a thread, worker
//! or domain id. Any executor that sweeps the same `(seed, partition)`
//! therefore consumes identical randomness per site and produces the
//! identical trajectory, whatever grid it shards the lattice over.

/// Stream id for the chunk-order shuffle of a step (the high bit keeps it
/// disjoint from the trial streams, which grow from 1).
pub(crate) fn shuffle_stream_id(step: u64) -> u64 {
    0x8000_0000_0000_0000 | step
}

/// Stream id for the per-step chunk draws (weighted or with-replacement);
/// bits 63..62 keep it disjoint from both the shuffle and trial streams.
pub(crate) fn draw_stream_id(step: u64) -> u64 {
    0xC000_0000_0000_0000 | step
}

/// First trial stream id of one chunk sweep: the trial at global `site`
/// during sweep `position` of `step` draws from stream `base + site.0`.
///
/// Keyed by sweep *position*, not chunk id: weighted selection and
/// with-replacement draws can sweep the same chunk twice in a step, and
/// each sweep must consume fresh streams.
pub(crate) fn trial_stream_base(
    step: u64,
    num_chunks: usize,
    position: usize,
    num_sites: usize,
) -> u64 {
    1 + (step * num_chunks as u64 + position as u64) * num_sites as u64
}
