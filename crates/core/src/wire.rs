//! QTP wire formats.
//!
//! Explicit byte-level encoding (big-endian) of every packet the versatile
//! transport exchanges. The feedback packet is a small TLV-style union that
//! carries exactly the sections the negotiated profile needs:
//!
//! * `ReceiverLoss` feedback carries the RFC 3448 report `(ts_echo,
//!   t_delay, x_recv, p)` plus — when reliability is on — the cumulative
//!   ack and SACK blocks (that is QTPAF's feedback).
//! * `SenderLoss` (QTPlight) feedback omits `p` entirely: `ts_echo,
//!   t_delay, x_recv, cum_ack, blocks` — everything in it is either a raw
//!   counter or produced by the trivial reassembly structure.
//!
//! Loss event rates are carried as parts-per-billion in a `u32`; receive
//! rates as `u64` bytes/second; timestamps as `u64` nanoseconds.

use crate::bufext::{Buf, BufMut};
use qtp_sack::{Reliability, SeqRange};

use crate::caps::{self, CapabilitySet, CapsError, CcKind, FeedbackMode};

/// Assumed IP-level overhead added to every QTP packet's wire size.
pub const IP_OVERHEAD: u32 = 20;

/// Maximum SACK blocks carried in one feedback packet.
pub const MAX_FB_BLOCKS: usize = 4;

/// Decoded QTP packet.
#[derive(Debug, Clone, PartialEq)]
pub enum QtpPacket {
    /// Connection request with the offered profile and a client timestamp.
    Syn {
        ts_nanos: u64,
        offered: CapabilitySet,
    },
    /// Connection accept: echoes the SYN timestamp, carries the chosen
    /// profile.
    SynAck {
        ts_echo_nanos: u64,
        chosen: CapabilitySet,
    },
    /// Data segment.
    Data {
        seq: u64,
        /// Send timestamp of this copy.
        ts_nanos: u64,
        /// Submission timestamp of the ADU this segment belongs to (for
        /// latency measurement and TTL-based partial reliability).
        adu_ts_nanos: u64,
        /// Sender's current RTT estimate, microseconds (0 = unknown); the
        /// receiver needs it for loss-event grouping and feedback cadence.
        rtt_hint_micros: u32,
        /// Retransmission flag.
        is_retx: bool,
    },
    /// Feedback report (both modes share the frame; `p_ppb` is `None` for
    /// QTPlight feedback).
    Feedback {
        ts_echo_nanos: u64,
        t_delay_micros: u32,
        /// Receive rate, bytes/second.
        x_recv: u64,
        /// Loss event rate in parts per billion (receiver-computed modes).
        p_ppb: Option<u32>,
        /// Cumulative ack (next expected sequence).
        cum_ack: u64,
        /// SACK blocks, most recently changed first.
        blocks: Vec<SeqRange>,
    },
    /// Move the receiver past abandoned data (partial reliability).
    Forward { new_cum: u64 },
    /// Data segment carrying real application payload bytes (the stream
    /// data plane). Same sequencing/timestamp fields as [`QtpPacket::Data`]
    /// plus an explicit payload and an optional per-message TTL tag —
    /// unlike `Data`, whose simulated payload exists only as a wire-size
    /// account, the payload here is materialized on the wire.
    StreamData {
        seq: u64,
        /// Send timestamp of this copy.
        ts_nanos: u64,
        /// Submission timestamp of the message this segment belongs to.
        adu_ts_nanos: u64,
        /// Sender's current RTT estimate, microseconds (0 = unknown).
        rtt_hint_micros: u32,
        /// Retransmission flag.
        is_retx: bool,
        /// Per-message TTL tag in microseconds; 0 means "use the
        /// negotiated profile TTL" (receivers fall back to it).
        ttl_micros: u32,
        /// Application payload bytes.
        payload: Vec<u8>,
    },
    /// Wire-level close request: the sender is done after `final_seq`
    /// sequences (exclusive). Retransmitted until a [`QtpPacket::FinAck`]
    /// arrives.
    Fin { final_seq: u64 },
    /// Acknowledges a [`QtpPacket::Fin`]; echoes its `final_seq`.
    FinAck { final_seq: u64 },
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    BadType(u8),
    /// A capability field failed to decode; carries the axis and the
    /// offending wire code (see [`CapsError`]).
    BadCapability(CapsError),
    BadBlockCount(u8),
    BadBlock,
}

const T_SYN: u8 = 1;
const T_SYNACK: u8 = 2;
const T_DATA: u8 = 3;
const T_FEEDBACK: u8 = 4;
const T_FORWARD: u8 = 5;
const T_STREAM_DATA: u8 = 6;
const T_FIN: u8 = 7;
const T_FINACK: u8 = 8;

/// Largest payload a single [`QtpPacket::StreamData`] may carry (the
/// length travels as a `u16`, and frames are bounded at the I/O layer).
pub const MAX_STREAM_PAYLOAD: usize = 1400;

fn put_caps(out: &mut Vec<u8>, caps: &CapabilitySet) {
    out.put_u8(caps.reliability.wire_code());
    let rel_param: u64 = match caps.reliability {
        Reliability::Ttl(d) => d.as_micros() as u64,
        Reliability::Budget(n) => n as u64,
        _ => 0,
    };
    out.put_u64(rel_param);
    out.put_u8(caps.feedback.wire_code());
    out.put_u8(caps.cc.wire_code());
    let cc_param: u64 = match caps.cc {
        CcKind::Gtfrc { target } => target.bps(),
        CcKind::Fixed { rate } => rate.bps(),
        CcKind::Tfrc | CcKind::Cubic | CcKind::BbrLite => 0,
    };
    out.put_u64(cc_param);
}

/// One header field, or `Truncated` when the header ends before it.
fn field<T>(v: Option<T>) -> Result<T, WireError> {
    v.ok_or(WireError::Truncated)
}

fn get_caps(buf: &mut &[u8]) -> Result<CapabilitySet, WireError> {
    // Every field is read before any is decoded, so a short set is
    // `Truncated` whatever its codes say.
    let rel_code = field(buf.get_u8())?;
    let rel_param = field(buf.get_u64())?;
    let fb_code = field(buf.get_u8())?;
    let cc_code = field(buf.get_u8())?;
    let cc_param = field(buf.get_u64())?;
    let reliability =
        caps::reliability_from_wire(rel_code, rel_param).map_err(WireError::BadCapability)?;
    let feedback = FeedbackMode::from_wire(fb_code).map_err(WireError::BadCapability)?;
    let cc = caps::cc_from_wire(cc_code, cc_param).map_err(WireError::BadCapability)?;
    Ok(CapabilitySet {
        reliability,
        feedback,
        cc,
    })
}

/// Whether a header's packet type carries a capability set (SYN/SYNACK) —
/// the only packets whose decode can fail with
/// [`WireError::BadCapability`]. Lets drivers skip a speculative decode of
/// the (much more frequent) data and feedback traffic.
pub fn carries_capabilities(header: &[u8]) -> bool {
    matches!(header.first(), Some(&T_SYN) | Some(&T_SYNACK))
}

/// Whether a header's packet type is part of the close handshake
/// (FIN/FIN-ACK). Sessions that have locally closed still service these,
/// so a lost FIN-ACK never strands the peer in its drain state.
pub fn is_close_handshake(header: &[u8]) -> bool {
    matches!(header.first(), Some(&T_FIN) | Some(&T_FINACK))
}

/// Bytes of a [`QtpPacket::StreamData`] before its payload.
pub const STREAM_DATA_HEADER_LEN: usize = 1 + 8 + 8 + 8 + 4 + 1 + 4 + 2;

/// The fixed fields of a [`QtpPacket::StreamData`]: everything but the
/// payload, so a sender can write header and payload straight into one
/// transmit buffer and a receiver can read the payload where it arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDataHeader {
    pub seq: u64,
    pub ts_nanos: u64,
    pub adu_ts_nanos: u64,
    pub rtt_hint_micros: u32,
    pub is_retx: bool,
    pub ttl_micros: u32,
}

impl StreamDataHeader {
    /// Append the header of a packet carrying `payload_len` payload bytes;
    /// the caller appends exactly that many bytes next.
    pub fn encode_into(&self, payload_len: usize, out: &mut Vec<u8>) {
        debug_assert!(payload_len <= MAX_STREAM_PAYLOAD);
        out.put_u8(T_STREAM_DATA);
        out.put_u64(self.seq);
        out.put_u64(self.ts_nanos);
        out.put_u64(self.adu_ts_nanos);
        out.put_u32(self.rtt_hint_micros);
        out.put_u8(u8::from(self.is_retx));
        out.put_u32(self.ttl_micros);
        out.put_u16(payload_len as u16);
    }
}

/// The fields of a [`QtpPacket::Feedback`] with its SACK blocks inline, so
/// building, encoding and decoding a feedback touches no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackFields {
    pub ts_echo_nanos: u64,
    pub t_delay_micros: u32,
    pub x_recv: u64,
    pub p_ppb: Option<u32>,
    pub cum_ack: u64,
    /// Only the first `n_blocks` entries are meaningful.
    pub blocks: [SeqRange; MAX_FB_BLOCKS],
    pub n_blocks: usize,
}

impl FeedbackFields {
    /// Placeholder for the unused tail of [`FeedbackFields::blocks`].
    pub const NO_BLOCK: SeqRange = SeqRange { start: 0, end: 0 };

    /// The SACK blocks carried, most recently changed first.
    pub fn blocks(&self) -> &[SeqRange] {
        &self.blocks[..self.n_blocks]
    }

    /// Length of [`FeedbackFields::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        FEEDBACK_FIXED_LEN + 16 * self.n_blocks
    }

    /// Append the encoded feedback packet.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_feedback(
            out,
            self.ts_echo_nanos,
            self.t_delay_micros,
            self.x_recv,
            self.p_ppb,
            self.cum_ack,
            self.blocks(),
        );
    }
}

/// Bytes of a feedback packet before its SACK blocks.
const FEEDBACK_FIXED_LEN: usize = 1 + 1 + 8 + 4 + 8 + 4 + 8 + 1;
/// Bytes of a SYN / SYNACK: type, timestamp, capability set.
const HANDSHAKE_LEN: usize = 1 + 8 + 19;
/// Bytes of a simulated-payload data header.
const DATA_LEN: usize = 1 + 8 + 8 + 8 + 4 + 1;
/// Bytes of a FORWARD / FIN / FIN-ACK: type and one sequence number.
const SEQ_ONLY_LEN: usize = 1 + 8;

fn put_feedback(
    out: &mut Vec<u8>,
    ts_echo_nanos: u64,
    t_delay_micros: u32,
    x_recv: u64,
    p_ppb: Option<u32>,
    cum_ack: u64,
    blocks: &[SeqRange],
) {
    out.put_u8(T_FEEDBACK);
    out.put_u8(u8::from(p_ppb.is_some()));
    out.put_u64(ts_echo_nanos);
    out.put_u32(t_delay_micros);
    out.put_u64(x_recv);
    out.put_u32(p_ppb.unwrap_or(0));
    out.put_u64(cum_ack);
    debug_assert!(blocks.len() <= MAX_FB_BLOCKS);
    out.put_u8(blocks.len() as u8);
    for b in blocks {
        out.put_u64(b.start);
        out.put_u64(b.end);
    }
}

/// Borrowed decode view of a packet: the payload of a `StreamData` stays in
/// the datagram it arrived in and the SACK blocks of a `Feedback` sit in a
/// fixed array, so the per-packet paths decode without allocating. Every
/// other packet type owns no heap data; its owned form is its view.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketRef<'a> {
    StreamData {
        header: StreamDataHeader,
        payload: &'a [u8],
    },
    Feedback(FeedbackFields),
    Other(QtpPacket),
}

impl<'a> PacketRef<'a> {
    /// Decode from header bytes.
    pub fn parse(mut buf: &'a [u8]) -> Result<Self, WireError> {
        let t = field(buf.get_u8())?;
        Ok(PacketRef::Other(match t {
            T_SYN => {
                let ts_nanos = field(buf.get_u64())?;
                let offered = get_caps(&mut buf)?;
                QtpPacket::Syn { ts_nanos, offered }
            }
            T_SYNACK => {
                let ts_echo_nanos = field(buf.get_u64())?;
                let chosen = get_caps(&mut buf)?;
                QtpPacket::SynAck {
                    ts_echo_nanos,
                    chosen,
                }
            }
            T_DATA => QtpPacket::Data {
                seq: field(buf.get_u64())?,
                ts_nanos: field(buf.get_u64())?,
                adu_ts_nanos: field(buf.get_u64())?,
                rtt_hint_micros: field(buf.get_u32())?,
                is_retx: field(buf.get_u8())? != 0,
            },
            T_FEEDBACK => {
                let has_p = field(buf.get_u8())? != 0;
                let ts_echo_nanos = field(buf.get_u64())?;
                let t_delay_micros = field(buf.get_u32())?;
                let x_recv = field(buf.get_u64())?;
                let p_raw = field(buf.get_u32())?;
                let cum_ack = field(buf.get_u64())?;
                let n = field(buf.get_u8())?;
                let n_blocks = n as usize;
                if n_blocks > MAX_FB_BLOCKS || buf.len() < 16 * n_blocks {
                    return Err(WireError::BadBlockCount(n));
                }
                let mut blocks = [FeedbackFields::NO_BLOCK; MAX_FB_BLOCKS];
                for b in &mut blocks[..n_blocks] {
                    let start = field(buf.get_u64())?;
                    let end = field(buf.get_u64())?;
                    if end <= start {
                        return Err(WireError::BadBlock);
                    }
                    *b = SeqRange::new(start, end);
                }
                return Ok(PacketRef::Feedback(FeedbackFields {
                    ts_echo_nanos,
                    t_delay_micros,
                    x_recv,
                    p_ppb: has_p.then_some(p_raw),
                    cum_ack,
                    blocks,
                    n_blocks,
                }));
            }
            T_STREAM_DATA => {
                let header = StreamDataHeader {
                    seq: field(buf.get_u64())?,
                    ts_nanos: field(buf.get_u64())?,
                    adu_ts_nanos: field(buf.get_u64())?,
                    rtt_hint_micros: field(buf.get_u32())?,
                    is_retx: field(buf.get_u8())? != 0,
                    ttl_micros: field(buf.get_u32())?,
                };
                let len = field(buf.get_u16())? as usize;
                if len > MAX_STREAM_PAYLOAD {
                    return Err(WireError::Truncated);
                }
                return Ok(PacketRef::StreamData {
                    header,
                    payload: field(buf.get(..len))?,
                });
            }
            T_FORWARD | T_FIN | T_FINACK => {
                let seq = field(buf.get_u64())?;
                match t {
                    T_FORWARD => QtpPacket::Forward { new_cum: seq },
                    T_FIN => QtpPacket::Fin { final_seq: seq },
                    _ => QtpPacket::FinAck { final_seq: seq },
                }
            }
            other => return Err(WireError::BadType(other)),
        }))
    }

    /// The owned packet this view decodes to.
    pub fn to_owned(self) -> QtpPacket {
        match self {
            PacketRef::StreamData { header: h, payload } => QtpPacket::StreamData {
                seq: h.seq,
                ts_nanos: h.ts_nanos,
                adu_ts_nanos: h.adu_ts_nanos,
                rtt_hint_micros: h.rtt_hint_micros,
                is_retx: h.is_retx,
                ttl_micros: h.ttl_micros,
                payload: payload.to_vec(),
            },
            PacketRef::Feedback(f) => QtpPacket::Feedback {
                ts_echo_nanos: f.ts_echo_nanos,
                t_delay_micros: f.t_delay_micros,
                x_recv: f.x_recv,
                p_ppb: f.p_ppb,
                cum_ack: f.cum_ack,
                blocks: f.blocks().to_vec(),
            },
            PacketRef::Other(p) => p,
        }
    }
}

impl QtpPacket {
    /// Encode to header bytes (excluding simulated payload and IP overhead).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Length of [`QtpPacket::encode`]'s output, by arithmetic.
    pub fn encoded_len(&self) -> usize {
        match self {
            QtpPacket::Syn { .. } | QtpPacket::SynAck { .. } => HANDSHAKE_LEN,
            QtpPacket::Data { .. } => DATA_LEN,
            QtpPacket::Feedback { blocks, .. } => FEEDBACK_FIXED_LEN + 16 * blocks.len(),
            QtpPacket::StreamData { payload, .. } => STREAM_DATA_HEADER_LEN + payload.len(),
            QtpPacket::Forward { .. } | QtpPacket::Fin { .. } | QtpPacket::FinAck { .. } => {
                SEQ_ONLY_LEN
            }
        }
    }

    /// Append the encoded header bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QtpPacket::Syn { ts_nanos, offered } => {
                out.put_u8(T_SYN);
                out.put_u64(*ts_nanos);
                put_caps(out, offered);
            }
            QtpPacket::SynAck {
                ts_echo_nanos,
                chosen,
            } => {
                out.put_u8(T_SYNACK);
                out.put_u64(*ts_echo_nanos);
                put_caps(out, chosen);
            }
            QtpPacket::Data {
                seq,
                ts_nanos,
                adu_ts_nanos,
                rtt_hint_micros,
                is_retx,
            } => {
                out.put_u8(T_DATA);
                out.put_u64(*seq);
                out.put_u64(*ts_nanos);
                out.put_u64(*adu_ts_nanos);
                out.put_u32(*rtt_hint_micros);
                out.put_u8(u8::from(*is_retx));
            }
            QtpPacket::Feedback {
                ts_echo_nanos,
                t_delay_micros,
                x_recv,
                p_ppb,
                cum_ack,
                blocks,
            } => put_feedback(
                out,
                *ts_echo_nanos,
                *t_delay_micros,
                *x_recv,
                *p_ppb,
                *cum_ack,
                blocks,
            ),
            QtpPacket::Forward { new_cum } => {
                out.put_u8(T_FORWARD);
                out.put_u64(*new_cum);
            }
            QtpPacket::StreamData {
                seq,
                ts_nanos,
                adu_ts_nanos,
                rtt_hint_micros,
                is_retx,
                ttl_micros,
                payload,
            } => {
                let header = StreamDataHeader {
                    seq: *seq,
                    ts_nanos: *ts_nanos,
                    adu_ts_nanos: *adu_ts_nanos,
                    rtt_hint_micros: *rtt_hint_micros,
                    is_retx: *is_retx,
                    ttl_micros: *ttl_micros,
                };
                header.encode_into(payload.len(), out);
                out.extend_from_slice(payload);
            }
            QtpPacket::Fin { final_seq } => {
                out.put_u8(T_FIN);
                out.put_u64(*final_seq);
            }
            QtpPacket::FinAck { final_seq } => {
                out.put_u8(T_FINACK);
                out.put_u64(*final_seq);
            }
        }
    }

    /// Wire size of the encoded header plus IP overhead (no payload).
    pub fn wire_size(&self) -> u32 {
        self.encoded_len() as u32 + IP_OVERHEAD
    }

    /// Decode from header bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        PacketRef::parse(buf).map(PacketRef::to_owned)
    }
}

/// Encode a loss event rate as parts-per-billion.
pub fn p_to_ppb(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1e9).round() as u32
}

/// Decode a parts-per-billion loss event rate.
pub fn ppb_to_p(ppb: u32) -> f64 {
    ppb as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Profile;
    use qtp_simnet::time::Rate;
    use std::time::Duration;

    fn roundtrip(pkt: QtpPacket) {
        let bytes = pkt.encode();
        assert_eq!(QtpPacket::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn syn_roundtrips_all_profiles() {
        let mut cubic = Profile::tfrc().caps();
        cubic.cc = CcKind::Cubic;
        let mut bbr = Profile::tfrc().caps();
        bbr.cc = CcKind::BbrLite;
        for caps in [
            Profile::qtp_af(Rate::from_mbps(3)).caps(),
            Profile::qtp_light().caps(),
            Profile::qtp_light_partial(Duration::from_millis(150))
                .unwrap()
                .caps(),
            Profile::tfrc().caps(),
            cubic,
            bbr,
        ] {
            roundtrip(QtpPacket::Syn {
                ts_nanos: 123_456_789,
                offered: caps,
            });
            roundtrip(QtpPacket::SynAck {
                ts_echo_nanos: 42,
                chosen: caps,
            });
        }
    }

    /// An attacker (or a newer peer) can put any byte in the SYN's cc-code
    /// slot; every unassigned code must come back as a typed
    /// `BadCapability`, never a panic or a silently wrong controller.
    #[test]
    fn unknown_cc_code_in_syn_decodes_to_bad_capability() {
        let mut bytes = QtpPacket::Syn {
            ts_nanos: 1,
            offered: Profile::tfrc().caps(),
        }
        .encode();
        // Layout: type(1) + ts(8) + rel code(1) + rel param(8) + fb(1),
        // then the cc code byte.
        let cc_off = 1 + 8 + 1 + 8 + 1;
        assert_eq!(bytes[cc_off], CcKind::Tfrc.wire_code());
        for bad in [5u8, 17, 255] {
            bytes[cc_off] = bad;
            assert_eq!(
                QtpPacket::decode(&bytes),
                Err(WireError::BadCapability(caps::CapsError::BadCc(bad)))
            );
        }
        // Restoring a valid code decodes again (the mutation above was the
        // only corruption).
        bytes[cc_off] = CcKind::Cubic.wire_code();
        match QtpPacket::decode(&bytes).unwrap() {
            QtpPacket::Syn { offered, .. } => assert_eq!(offered.cc, CcKind::Cubic),
            other => panic!("unexpected packet {other:?}"),
        }
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(QtpPacket::Data {
            seq: 9_999,
            ts_nanos: 77,
            adu_ts_nanos: 55,
            rtt_hint_micros: 100_000,
            is_retx: true,
        });
    }

    #[test]
    fn feedback_roundtrip_with_and_without_p() {
        roundtrip(QtpPacket::Feedback {
            ts_echo_nanos: 1,
            t_delay_micros: 2,
            x_recv: 125_000,
            p_ppb: Some(p_to_ppb(0.0123)),
            cum_ack: 10,
            blocks: vec![SeqRange::new(12, 14), SeqRange::new(20, 21)],
        });
        roundtrip(QtpPacket::Feedback {
            ts_echo_nanos: 1,
            t_delay_micros: 2,
            x_recv: 0,
            p_ppb: None,
            cum_ack: 0,
            blocks: vec![],
        });
    }

    #[test]
    fn forward_roundtrip() {
        roundtrip(QtpPacket::Forward { new_cum: 1 << 40 });
    }

    #[test]
    fn stream_data_roundtrip() {
        roundtrip(QtpPacket::StreamData {
            seq: 1234,
            ts_nanos: 5_000_000,
            adu_ts_nanos: 4_000_000,
            rtt_hint_micros: 20_000,
            is_retx: true,
            ttl_micros: 150_000,
            payload: vec![0xAB; 700],
        });
        roundtrip(QtpPacket::StreamData {
            seq: 0,
            ts_nanos: 0,
            adu_ts_nanos: 0,
            rtt_hint_micros: 0,
            is_retx: false,
            ttl_micros: 0,
            payload: Vec::new(),
        });
    }

    #[test]
    fn stream_data_truncated_payload_rejected() {
        let bytes = QtpPacket::StreamData {
            seq: 7,
            ts_nanos: 1,
            adu_ts_nanos: 1,
            rtt_hint_micros: 0,
            is_retx: false,
            ttl_micros: 0,
            payload: vec![1, 2, 3, 4],
        }
        .encode();
        // Cut into the payload: the declared length no longer fits.
        assert_eq!(
            QtpPacket::decode(&bytes[..bytes.len() - 2]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn fin_and_finack_roundtrip() {
        roundtrip(QtpPacket::Fin { final_seq: 1 << 33 });
        roundtrip(QtpPacket::FinAck { final_seq: 99 });
        assert!(is_close_handshake(
            &QtpPacket::Fin { final_seq: 1 }.encode()
        ));
        assert!(is_close_handshake(
            &QtpPacket::FinAck { final_seq: 1 }.encode()
        ));
        assert!(!is_close_handshake(
            &QtpPacket::Forward { new_cum: 1 }.encode()
        ));
    }

    #[test]
    fn ppb_precision() {
        for &p in &[0.0, 1e-6, 0.01, 0.5, 1.0] {
            assert!((ppb_to_p(p_to_ppb(p)) - p).abs() < 1e-9);
        }
        assert_eq!(p_to_ppb(2.0), 1_000_000_000, "clamped");
    }

    #[test]
    fn truncation_rejected() {
        let bytes = QtpPacket::Data {
            seq: 1,
            ts_nanos: 2,
            adu_ts_nanos: 3,
            rtt_hint_micros: 4,
            is_retx: false,
        }
        .encode();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(
                QtpPacket::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_type_rejected() {
        assert_eq!(QtpPacket::decode(&[99]), Err(WireError::BadType(99)));
    }

    #[test]
    fn inverted_feedback_block_rejected() {
        let good = QtpPacket::Feedback {
            ts_echo_nanos: 1,
            t_delay_micros: 2,
            x_recv: 3,
            p_ppb: None,
            cum_ack: 4,
            blocks: vec![SeqRange::new(5, 8)],
        };
        let mut bytes = good.encode();
        let n = bytes.len();
        // Swap start and end.
        let (s, e) = (5u64.to_be_bytes(), 8u64.to_be_bytes());
        bytes[n - 16..n - 8].copy_from_slice(&e);
        bytes[n - 8..].copy_from_slice(&s);
        assert_eq!(QtpPacket::decode(&bytes), Err(WireError::BadBlock));
    }

    #[test]
    fn feedback_is_small_on_the_wire() {
        // The QTPlight feedback packet must be tiny — that is the point.
        let fb = QtpPacket::Feedback {
            ts_echo_nanos: u64::MAX,
            t_delay_micros: u32::MAX,
            x_recv: u64::MAX,
            p_ppb: None,
            cum_ack: u64::MAX,
            blocks: vec![],
        };
        assert!(fb.wire_size() <= 75, "feedback size {}", fb.wire_size());
    }
}
