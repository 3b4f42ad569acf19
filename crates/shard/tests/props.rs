//! Property tests for the frame wire format.
//!
//! Frames face raw socket bytes, so the contract mirrors the HTTP parser's
//! (`crates/serve/tests/props.rs`): `try_decode` never panics on byte soup,
//! any truncation or suffix garbage is an `Err` (never a mis-framed `Ok`),
//! `decode ∘ encode` is the identity over every frame kind, coalesced
//! batches re-split into exactly the frames that went in, and the step
//! report payload survives its own round trip bit-for-bit.

use proptest::prelude::*;
use psr_shard::frame::{
    self, decode_header, encode, encode_into, try_decode, StepReport, HEADER_LEN, KIND_CONFIG,
    KIND_COUNTS, KIND_GATHER, KIND_HALO, KIND_HELLO, KIND_PEERS, KIND_PING, KIND_REPORT,
    KIND_WRITEBACK,
};
use psr_shard::CommStats;

const ALL_KINDS: [u8; 9] = [
    KIND_HALO,
    KIND_WRITEBACK,
    KIND_COUNTS,
    KIND_REPORT,
    KIND_GATHER,
    KIND_HELLO,
    KIND_CONFIG,
    KIND_PEERS,
    KIND_PING,
];

proptest! {
    #[test]
    fn try_decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..512usize),
    ) {
        let _ = try_decode(&bytes); // Ok or Err — never a panic
    }

    // decode ∘ encode is the identity on every field, over every kind.
    #[test]
    fn encode_decode_roundtrip(
        kind_idx in 0usize..ALL_KINDS.len(),
        dir in 0u8..=255,
        src in 0u32..u32::MAX,
        step in 0u64..u64::MAX,
        pos in 0u32..u32::MAX,
        payload in prop::collection::vec(0u8..=255, 0..256usize),
    ) {
        let kind = ALL_KINDS[kind_idx];
        let bytes = encode(kind, dir, src, step, pos, &payload);
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        let (header, body) = try_decode(&bytes).expect("encoded frame must decode");
        prop_assert_eq!(header.kind, kind);
        prop_assert_eq!(header.dir, dir);
        prop_assert_eq!(header.src, src);
        prop_assert_eq!(header.step, step);
        prop_assert_eq!(header.pos, pos);
        prop_assert_eq!(body, &payload[..]);
    }

    // Any strict prefix of a valid frame is an error, and so is any
    // suffix of trailing garbage: a declared length must match exactly.
    #[test]
    fn truncation_and_garbage_suffix_are_rejected(
        payload in prop::collection::vec(0u8..=255, 0..64usize),
        cut in 0usize..1024,
        garbage in prop::collection::vec(0u8..=255, 1..32usize),
    ) {
        let bytes = encode(KIND_HALO, 2, 1, 9, 3, &payload);
        let cut = cut % bytes.len(); // strictly shorter
        prop_assert!(try_decode(&bytes[..cut]).is_err(), "truncation at {} accepted", cut);
        let mut extended = bytes.clone();
        extended.extend_from_slice(&garbage);
        prop_assert!(try_decode(&extended).is_err(), "trailing garbage accepted");
    }

    // A payload length beyond the cap is refused before any allocation —
    // the socket receive path trusts this to bound a malicious header.
    #[test]
    fn oversized_declared_payloads_are_refused(excess in 1u32..1_000_000) {
        let mut bytes = encode(KIND_HALO, 0, 0, 0, 0, &[]);
        let declared = (frame::MAX_PAYLOAD as u32).saturating_add(excess);
        bytes[18..22].copy_from_slice(&declared.to_le_bytes());
        prop_assert!(try_decode(&bytes).is_err());
    }

    // The coalescing property the socket sink relies on: frames appended
    // back-to-back into one buffer re-split into exactly the originals,
    // because every frame is self-delimiting.
    #[test]
    fn coalesced_batches_resplit_into_the_original_frames(
        frames in prop::collection::vec(
            (0usize..ALL_KINDS.len(), 0u8..8, 0u32..16, 0u64..1000, 0u32..32,
             prop::collection::vec(0u8..=255, 0..48usize)),
            1..12usize,
        ),
    ) {
        let mut batch = Vec::new();
        for (kind_idx, dir, src, step, pos, payload) in &frames {
            encode_into(&mut batch, ALL_KINDS[*kind_idx], *dir, *src, *step, *pos, payload);
        }
        let mut at = 0;
        let mut recovered = 0usize;
        while at < batch.len() {
            prop_assert!(batch.len() - at >= HEADER_LEN, "dangling partial header");
            let (header, payload_len) = decode_header(&batch[at..]);
            let (kind_idx, dir, src, step, pos, payload) = &frames[recovered];
            prop_assert_eq!(header.kind, ALL_KINDS[*kind_idx]);
            prop_assert_eq!(header.dir, *dir);
            prop_assert_eq!(header.src, *src);
            prop_assert_eq!(header.step, *step);
            prop_assert_eq!(header.pos, *pos);
            prop_assert_eq!(payload_len, payload.len());
            let body = &batch[at + HEADER_LEN..at + HEADER_LEN + payload_len];
            prop_assert_eq!(body, &payload[..]);
            at += HEADER_LEN + payload_len;
            recovered += 1;
        }
        prop_assert_eq!(recovered, frames.len());
    }

    // The step-report payload is self-describing and bit-exact across its
    // round trip, including the f64 phase times (encoded as raw bits).
    #[test]
    fn step_report_roundtrip(
        trials in 0u64..u64::MAX,
        executed in 0u64..u64::MAX,
        deltas in prop::collection::vec(i64::MIN..i64::MAX, 0..8usize),
        reaction_executed in prop::collection::vec(0u64..u64::MAX, 0..8usize),
        comm_fields in prop::collection::vec(0u64..u64::MAX, 8usize..9),
        phase_busy in prop::collection::vec(0.0f64..1e6, 0..6usize),
    ) {
        let report = StepReport {
            trials,
            executed,
            deltas,
            reaction_executed,
            comm: CommStats {
                local_trials: comm_fields[0],
                boundary_trials: comm_fields[1],
                halo_messages: comm_fields[2],
                halo_bytes: comm_fields[3],
                wire_frames: comm_fields[4],
                wire_bytes: comm_fields[5],
                wire_batches: comm_fields[6],
                wire_flushes: comm_fields[7],
            },
            phase_busy,
        };
        let payload = report.encode();
        prop_assert_eq!(StepReport::decode(&payload), report);
    }
}
