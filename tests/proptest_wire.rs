//! Property tests for the wire codecs: any syntactically valid packet
//! round-trips exactly; any truncation of a valid encoding is rejected
//! rather than mis-parsed; the arithmetic length, the append-into-buffer
//! encoder and the borrowed decode view agree with the owned codec.

use proptest::prelude::*;
use qtp::core::wire::PacketRef;
use qtp::core::{CapabilitySet, CcKind, FeedbackMode, QtpPacket};
use qtp::sack::{Reliability, SeqRange};
use qtp::simnet::time::Rate;
use qtp::tcp::{TcpHeader, TcpKind};
use std::time::Duration;

fn arb_caps() -> impl Strategy<Value = CapabilitySet> {
    let rel = prop_oneof![
        Just(Reliability::None),
        Just(Reliability::Full),
        (1u64..10_000_000).prop_map(|us| Reliability::Ttl(Duration::from_micros(us))),
        (0u32..64).prop_map(Reliability::Budget),
    ];
    let fb = prop_oneof![
        Just(FeedbackMode::ReceiverLoss),
        Just(FeedbackMode::SenderLoss)
    ];
    let cc = prop_oneof![
        Just(CcKind::Tfrc),
        (1u64..1_000_000_000).prop_map(|bps| CcKind::Gtfrc {
            target: Rate::from_bps(bps)
        }),
        (1u64..1_000_000_000).prop_map(|bps| CcKind::Fixed {
            rate: Rate::from_bps(bps)
        }),
    ];
    (rel, fb, cc).prop_map(|(reliability, feedback, cc)| CapabilitySet {
        reliability,
        feedback,
        cc,
    })
}

fn arb_blocks() -> impl Strategy<Value = Vec<SeqRange>> {
    prop::collection::vec((0u64..1 << 40, 1u64..1 << 16), 0..=4).prop_map(|v| {
        v.into_iter()
            .map(|(s, l)| SeqRange::new(s, s + l))
            .collect()
    })
}

fn arb_qtp_packet() -> impl Strategy<Value = QtpPacket> {
    prop_oneof![
        (any::<u64>(), arb_caps())
            .prop_map(|(ts_nanos, offered)| QtpPacket::Syn { ts_nanos, offered }),
        (any::<u64>(), arb_caps()).prop_map(|(ts_echo_nanos, chosen)| QtpPacket::SynAck {
            ts_echo_nanos,
            chosen
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(seq, ts_nanos, adu_ts_nanos, rtt_hint_micros, is_retx)| {
                QtpPacket::Data {
                    seq,
                    ts_nanos,
                    adu_ts_nanos,
                    rtt_hint_micros,
                    is_retx,
                }
            }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            prop::option::of(0u32..=1_000_000_000),
            any::<u64>(),
            arb_blocks()
        )
            .prop_map(
                |(ts_echo_nanos, t_delay_micros, x_recv, p_ppb, cum_ack, blocks)| {
                    QtpPacket::Feedback {
                        ts_echo_nanos,
                        t_delay_micros,
                        x_recv,
                        p_ppb,
                        cum_ack,
                        blocks,
                    }
                }
            ),
        any::<u64>().prop_map(|new_cum| QtpPacket::Forward { new_cum }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            any::<u32>(),
            any::<bool>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..=1400),
        )
            .prop_map(
                |((seq, ts_nanos, adu_ts_nanos), rtt_hint_micros, is_retx, ttl_micros, payload)| {
                    QtpPacket::StreamData {
                        seq,
                        ts_nanos,
                        adu_ts_nanos,
                        rtt_hint_micros,
                        is_retx,
                        ttl_micros,
                        payload,
                    }
                }
            ),
        any::<u64>().prop_map(|final_seq| QtpPacket::Fin { final_seq }),
        any::<u64>().prop_map(|final_seq| QtpPacket::FinAck { final_seq }),
    ]
}

proptest! {
    #[test]
    fn qtp_packets_roundtrip(pkt in arb_qtp_packet()) {
        let bytes = pkt.encode();
        let back = QtpPacket::decode(&bytes).expect("decode of own encoding");
        prop_assert_eq!(back, pkt);
        // The view the endpoints dispatch on borrows the payload out of the
        // datagram rather than copying it.
        if let PacketRef::StreamData { payload, .. } = PacketRef::parse(&bytes).unwrap() {
            prop_assert!(std::ptr::eq(payload, &bytes[bytes.len() - payload.len()..]));
        }
    }

    #[test]
    fn qtp_length_and_append_encoder_agree_with_encode(pkt in arb_qtp_packet(), lead in 0usize..8) {
        let bytes = pkt.encode();
        prop_assert_eq!(pkt.encoded_len(), bytes.len());
        prop_assert_eq!(pkt.wire_size() as usize, bytes.len() + 20);
        // Appending after whatever the buffer already holds, byte for byte.
        let mut out = vec![0xEE; lead];
        pkt.encode_into(&mut out);
        prop_assert_eq!(&out[..lead], &vec![0xEE; lead][..]);
        prop_assert_eq!(&out[lead..], &bytes[..]);
    }

    #[test]
    fn qtp_truncations_rejected(pkt in arb_qtp_packet(), cut_frac in 0.0f64..1.0) {
        let bytes = pkt.encode();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(QtpPacket::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn tcp_headers_roundtrip(
        kind_ack in any::<bool>(),
        seq in any::<u64>(),
        ack in any::<u64>(),
        ts in any::<u64>(),
        blocks in prop::collection::vec((0u64..1 << 40, 1u64..1 << 12), 0..3),
    ) {
        let blocks: Vec<SeqRange> = blocks.into_iter().map(|(s, l)| SeqRange::new(s, s + l)).collect();
        let h = if kind_ack {
            TcpHeader::ack(ack, ts, blocks)
        } else {
            TcpHeader::data(seq, ts)
        };
        let back = TcpHeader::decode(&h.encode()).unwrap();
        prop_assert_eq!(back.kind, if kind_ack { TcpKind::Ack } else { TcpKind::Data });
        prop_assert_eq!(back, h);
    }

    #[test]
    fn tcp_truncations_rejected(ts in any::<u64>(), cut in 0usize..26) {
        let h = TcpHeader::data(1, ts);
        let bytes = h.encode();
        prop_assert!(TcpHeader::decode(&bytes[..cut.min(bytes.len() - 1)]).is_err());
    }
}
