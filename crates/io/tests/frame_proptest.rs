//! Property tests for the UDP datagram frame: every encodable frame
//! round-trips exactly, no prefix truncation of a valid encoding is
//! accepted, and — the adversarial half — `decode` is total: random
//! buffers, mutated bytes and oversized datagrams all map to `Err` or to a
//! canonical frame, never to a panic. `Frame::decode` is the borrowed
//! `FrameRef::parse` plus a copy, so every property here pins the one parser
//! the drivers dispatch on.

use proptest::prelude::*;
use qtp_io::frame::{Frame, FrameError, FrameRef, FIXED_LEN, MAX_FRAME_LEN};

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(flow, seq, wire_size, header)| Frame {
            flow,
            seq,
            wire_size,
            header,
        })
}

proptest! {
    #[test]
    fn frame_roundtrips(frame in arb_frame()) {
        let bytes = frame.encode().unwrap();
        prop_assert_eq!(bytes.len(), FIXED_LEN + frame.header.len());
        let decoded = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &frame);
        // The view borrows the header out of the datagram, not a copy of it.
        let view = FrameRef::parse(&bytes).unwrap();
        prop_assert!(std::ptr::eq(view.header, &bytes[FIXED_LEN..]));
        // Framing into a driver's scratch buffer appends exactly those bytes.
        let mut scratch = vec![0xEE; 3];
        view.encode_into(&mut scratch).unwrap();
        prop_assert_eq!(&scratch[..3], &[0xEE; 3]);
        prop_assert_eq!(&scratch[3..], &bytes[..]);
    }

    #[test]
    fn truncations_rejected(frame in arb_frame(), cut in 0usize..300) {
        let bytes = frame.encode().unwrap();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let err = Frame::decode(&bytes[..cut]);
        prop_assert!(err.is_err(), "prefix of length {} must not decode", cut);
    }

    #[test]
    fn trailing_bytes_rejected(frame in arb_frame(), extra in 1usize..16) {
        let mut bytes = frame.encode().unwrap();
        bytes.extend(std::iter::repeat(0xEE).take(extra));
        let is_len_mismatch =
            matches!(Frame::decode(&bytes), Err(FrameError::LengthMismatch { .. }));
        prop_assert!(is_len_mismatch);
    }

    #[test]
    fn decode_is_total_on_arbitrary_bytes(
        buf in prop::collection::vec(any::<u8>(), 0..(MAX_FRAME_LEN + 64))
    ) {
        // Whatever arrives on the socket, decode returns — and anything it
        // accepts is canonical (re-encodes to the identical bytes).
        if let Ok(frame) = Frame::decode(&buf) {
            prop_assert_eq!(frame.encode().unwrap(), buf);
        }
    }

    #[test]
    fn mutated_valid_frames_never_panic_and_stay_canonical(
        frame in arb_frame(),
        idx in 0usize..512,
        xor in 1u8..=255,
    ) {
        // Flip one byte anywhere in a valid encoding. The decoder must
        // either reject the mutation or accept a frame that re-encodes to
        // exactly the mutated buffer (no silent reinterpretation).
        let mut bytes = frame.encode().unwrap();
        let idx = idx % bytes.len();
        bytes[idx] ^= xor;
        if let Ok(mutated) = Frame::decode(&bytes) {
            prop_assert_eq!(mutated.encode().unwrap(), bytes);
        }
    }

    #[test]
    fn oversized_inputs_always_rejected(
        frame in arb_frame(),
        pad in 1usize..256,
    ) {
        // Anything beyond MAX_FRAME_LEN is rejected on length alone, even
        // when it starts with a fully valid frame encoding.
        let mut bytes = frame.encode().unwrap();
        bytes.resize(MAX_FRAME_LEN + pad, 0xEE);
        prop_assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized(MAX_FRAME_LEN + pad))
        );
    }

    #[test]
    fn fixed_prologue_only_never_accepted_with_declared_header(
        mut prefix in prop::collection::vec(any::<u8>(), FIXED_LEN..FIXED_LEN + 8)
    ) {
        // Force plausible magic/version so parsing reaches the length
        // check, then declare more header bytes than are present.
        prefix[0] = 0x51;
        prefix[1] = 0x54;
        prefix[2] = 1;
        let declared = (prefix.len() - FIXED_LEN) as u16 + 1;
        prefix[19..21].copy_from_slice(&declared.to_be_bytes());
        let is_len_mismatch =
            matches!(Frame::decode(&prefix), Err(FrameError::LengthMismatch { .. }));
        prop_assert!(is_len_mismatch);
    }
}
