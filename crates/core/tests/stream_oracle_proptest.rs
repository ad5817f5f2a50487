//! The stream plumbing against the implementation it replaced.
//!
//! `StreamTx` keeps every accepted byte once, in a segmented store with
//! cursors, and hands out chunk descriptors; `StreamRx` assembles each
//! message in place from borrowed payloads. The oracle below is the old
//! byte logic, kept here verbatim in spirit: one `Vec` per queued message, a
//! byte-at-a-time staging queue, one `Vec` per retained chunk, every payload
//! stashed and re-parsed. Both are driven with the same operations and must
//! agree on every chunk's bytes and TTL tag, every `Full` / `Writable` /
//! `queued_bytes` answer, and every delivered message.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use qtp_core::stream::{StreamConfig, StreamError, StreamRx, StreamTx};
use qtp_core::wire::MAX_STREAM_PAYLOAD;
use qtp_metrics::trace::Tracer;
use qtp_sack::{Arrival, ReceiverBuffer};
use qtp_simnet::time::SimTime;

/// Segment size of the send store (`stream.rs`'s private `SEGMENT`): the
/// targeted cases aim chunks and prefixes at this boundary.
const SEGMENT: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// The oracle: the per-message / per-byte logic this repository shipped before.
// ---------------------------------------------------------------------------

struct OracleTx {
    queue: VecDeque<(Vec<u8>, u32)>,
    queued_bytes: usize,
    cap: usize,
    chunked: bool,
    default_ttl_micros: u32,
    finished: bool,
    notify_writable: bool,
    writable_edge: bool,
    staged: VecDeque<u8>,
    /// Sent chunks retained for retransmission.
    chunks: BTreeMap<u64, (Vec<u8>, u32)>,
}

impl OracleTx {
    fn new(cfg: &StreamConfig, chunked: bool) -> Self {
        OracleTx {
            queue: VecDeque::new(),
            queued_bytes: 0,
            cap: cfg.send_buf.max(1),
            chunked,
            default_ttl_micros: cfg.default_ttl_micros,
            finished: false,
            notify_writable: false,
            writable_edge: false,
            staged: VecDeque::new(),
            chunks: BTreeMap::new(),
        }
    }

    fn send(&mut self, bytes: &[u8], ttl_micros: u32) -> Result<(), StreamError> {
        if self.finished {
            return Err(StreamError::Finished);
        }
        if !self.chunked && bytes.len() > MAX_STREAM_PAYLOAD {
            return Err(StreamError::TooLarge);
        }
        if !self.queue.is_empty() && self.queued_bytes + bytes.len() > self.cap {
            self.notify_writable = true;
            return Err(StreamError::Full);
        }
        self.queued_bytes += bytes.len();
        let ttl = if ttl_micros != 0 {
            ttl_micros
        } else {
            self.default_ttl_micros
        };
        self.queue.push_back((bytes.to_vec(), ttl));
        Ok(())
    }

    fn has_data(&self) -> bool {
        !self.staged.is_empty() || !self.queue.is_empty()
    }

    fn next_chunk(&mut self, max: usize) -> Option<(Vec<u8>, u32)> {
        let max = max.clamp(1, MAX_STREAM_PAYLOAD);
        if self.chunked {
            while self.staged.len() < max {
                let Some((bytes, _)) = self.queue.pop_front() else {
                    break;
                };
                self.queued_bytes -= bytes.len();
                self.staged.extend((bytes.len() as u32).to_be_bytes());
                self.staged.extend(bytes);
            }
            self.arm_writable();
            if self.staged.is_empty() {
                return None;
            }
            let take = self.staged.len().min(max);
            Some((self.staged.drain(..take).collect(), 0))
        } else {
            let (bytes, ttl) = self.queue.pop_front()?;
            self.queued_bytes -= bytes.len();
            self.arm_writable();
            Some((bytes, ttl))
        }
    }

    fn arm_writable(&mut self) {
        if self.notify_writable && self.queued_bytes < self.cap {
            self.notify_writable = false;
            self.writable_edge = true;
        }
    }
}

#[derive(Default)]
struct OracleRx {
    stash: BTreeMap<u64, Vec<u8>>,
    parse_buf: VecDeque<u8>,
    next_parse_seq: u64,
    ordered: bool,
    messages: Vec<Vec<u8>>,
    fin_final_seq: Option<u64>,
    finished: bool,
}

impl OracleRx {
    fn on_payload(&mut self, seq: u64, payload: Vec<u8>) {
        if self.ordered {
            self.stash.insert(seq, payload);
        } else {
            self.messages.push(payload);
        }
    }

    fn drain(&mut self, cum_ack: u64) {
        if self.ordered {
            while self.next_parse_seq < cum_ack {
                if let Some(p) = self.stash.remove(&self.next_parse_seq) {
                    self.parse_buf.extend(p);
                }
                self.next_parse_seq += 1;
            }
            while self.parse_buf.len() >= 4 {
                let prefix: Vec<u8> = self.parse_buf.iter().take(4).copied().collect();
                let len = u32::from_be_bytes(prefix.try_into().unwrap()) as usize;
                if self.parse_buf.len() < 4 + len {
                    break;
                }
                self.parse_buf.drain(..4);
                self.messages.push(self.parse_buf.drain(..len).collect());
            }
        }
        if let Some(final_seq) = self.fin_final_seq {
            self.finished |= !self.ordered || cum_ack >= final_seq;
        }
    }
}

// ---------------------------------------------------------------------------
// The pair under comparison.
// ---------------------------------------------------------------------------

/// Both senders, fed the same operations; every method compares as it goes.
struct TxPair {
    new: StreamTx,
    old: OracleTx,
    next_seq: u64,
    cum_ack: u64,
    /// Whether sent chunks are kept for retransmission, as under a profile
    /// that retransmits; otherwise the new side trims after each packet.
    retained: bool,
    /// Every chunk either side produced, by sequence: `(bytes, ttl)`.
    wire: Vec<(Vec<u8>, u32)>,
}

impl TxPair {
    fn new(cfg: &StreamConfig, chunked: bool) -> Self {
        TxPair {
            new: StreamTx::new(cfg, chunked),
            old: OracleTx::new(cfg, chunked),
            next_seq: 0,
            cum_ack: 0,
            retained: true,
            wire: Vec::new(),
        }
    }

    fn payload(&self, chunk: &qtp_core::stream::Chunk) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.new.copy_payload(chunk, &mut bytes);
        assert_eq!(bytes.len(), chunk.payload_len());
        bytes
    }

    /// Everything observable between operations, the one-shot `Writable`
    /// edge included (taken on both sides).
    fn agree(&mut self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.new.handle().queued_bytes(), self.old.queued_bytes);
        prop_assert_eq!(self.new.has_data(), self.old.has_data());
        prop_assert_eq!(
            self.new.fin_ready(),
            self.old.finished && !self.old.has_data()
        );
        prop_assert_eq!(
            self.new.take_writable_edge(),
            std::mem::take(&mut self.old.writable_edge)
        );
        Ok(())
    }

    fn send(&mut self, bytes: &[u8], ttl: u32) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.new.handle().send_with_ttl(bytes, ttl),
            self.old.send(bytes, ttl)
        );
        self.agree()
    }

    /// Packetise one chunk on both sides and retain it for retransmission
    /// (or, unretained, let go of it on both).
    fn next_chunk(&mut self, max: usize) -> Result<bool, TestCaseError> {
        let new = self.new.next_chunk(max, SimTime::ZERO);
        let old = self.old.next_chunk(max);
        prop_assert_eq!(
            new.as_ref().map(|c| (self.payload(c), c.ttl_micros)),
            old.clone()
        );
        if let (Some(chunk), Some(old)) = (new, old) {
            if self.retained {
                self.new.retain(self.next_seq, chunk);
                self.old.chunks.insert(self.next_seq, old.clone());
            } else {
                self.new.trim();
            }
            self.wire.push(old);
            self.next_seq += 1;
        }
        self.agree()?;
        Ok(new.is_some())
    }

    /// A retransmission reads the same bytes — or nothing, on both sides.
    fn reread(&self, seq: u64) -> Result<(), TestCaseError> {
        let new = self
            .new
            .chunk(seq)
            .map(|c| (self.payload(&c), c.ttl_micros));
        prop_assert_eq!(new, self.old.chunks.get(&seq).cloned());
        Ok(())
    }

    fn abandon(&mut self, seq: u64) {
        self.new.abandon(seq);
        self.old.chunks.remove(&seq);
    }

    fn ack(&mut self, n: u64) {
        self.cum_ack = (self.cum_ack + n).min(self.next_seq);
        self.new.release(self.cum_ack);
        self.old.chunks = self.old.chunks.split_off(&self.cum_ack);
    }

    fn finish(&mut self) {
        self.new.handle().finish();
        self.old.finished = true;
    }

    /// Any sequence sent so far, acknowledged or not.
    fn pick(&self, pick: u64) -> u64 {
        pick % self.next_seq.max(1)
    }
}

/// Both receivers behind one reassembly buffer, as `QtpReceiver` has it.
struct RxPair {
    buf: ReceiverBuffer,
    new: StreamRx,
    old: OracleRx,
    delivered: Vec<Vec<u8>>,
    /// Every other message is read with `recv_into`, into this one buffer.
    reused: Vec<u8>,
}

impl RxPair {
    fn new(ordered: bool) -> Self {
        RxPair {
            buf: ReceiverBuffer::new(),
            new: StreamRx::new(ordered, Tracer::new(0)),
            old: OracleRx {
                ordered,
                ..OracleRx::default()
            },
            delivered: Vec::new(),
            reused: Vec::new(),
        }
    }

    fn arrive(&mut self, seq: u64, payload: &[u8]) -> Result<(), TestCaseError> {
        if matches!(self.buf.on_packet(seq), Arrival::New { .. }) {
            self.new.on_payload(seq, payload, self.buf.cum_ack());
            self.old.on_payload(seq, payload.to_vec());
        }
        self.settle()
    }

    /// The same payload handed to both receivers again, past the
    /// reassembly buffer's duplicate filter.
    fn arrive_again(&mut self, seq: u64, payload: &[u8]) -> Result<(), TestCaseError> {
        self.new.on_payload(seq, payload, self.buf.cum_ack());
        self.old.on_payload(seq, payload.to_vec());
        self.settle()
    }

    /// A FORWARD moves the cumulative ack to `new_cum`, past any holes.
    fn forward(&mut self, new_cum: u64) -> Result<(), TestCaseError> {
        self.buf.on_forward(new_cum);
        self.settle()
    }

    fn fin(&mut self, final_seq: u64) -> Result<(), TestCaseError> {
        self.new.on_fin(final_seq, self.buf.cum_ack());
        self.old.fin_final_seq = Some(final_seq);
        self.settle()
    }

    fn settle(&mut self) -> Result<(), TestCaseError> {
        self.new.drain(self.buf.cum_ack());
        self.old.drain(self.buf.cum_ack());
        let handle = self.new.handle();
        loop {
            let msg = if self.delivered.len() % 2 == 0 {
                handle.recv()
            } else {
                handle
                    .recv_into(&mut self.reused)
                    .map(|n| self.reused[..n].to_vec())
            };
            let Some(msg) = msg else { break };
            self.delivered.push(msg);
        }
        prop_assert_eq!(&self.delivered, &self.old.messages);
        prop_assert_eq!(self.new.is_finished(), self.old.finished);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Generated interleavings.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Send { len: usize, ttl: u32 },
    NextChunk { max: usize },
    Ack { n: u64 },
    Reread { pick: u64 },
    Abandon { pick: u64 },
    Finish,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Lengths lean small (many messages per packet, empty ones included) but
    // reach past a segment; chunk sizes cover 1 byte to the wire maximum.
    let len = prop_oneof![0usize..=8, 0usize..=1500, 0usize..=20_000];
    let max = || prop_oneof![1usize..=8, 1usize..=MAX_STREAM_PAYLOAD];
    prop_oneof![
        (len, prop_oneof![Just(0u32), 1u32..1_000_000])
            .prop_map(|(len, ttl)| Op::Send { len, ttl }),
        max().prop_map(|max| Op::NextChunk { max }),
        max().prop_map(|max| Op::NextChunk { max }),
        (0u64..40).prop_map(|n| Op::Ack { n }),
        any::<u64>().prop_map(|pick| Op::Reread { pick }),
        any::<u64>().prop_map(|pick| Op::Abandon { pick }),
        (0u32..20).prop_map(|_| Op::Send { len: 1200, ttl: 0 }),
        (0u32..1).prop_map(|_| Op::Finish),
    ]
}

/// Message `n`'s bytes: distinct per message and per position.
fn message(n: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (n * 31 + i * 7 + i / 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sender_matches_the_oracle_under_any_interleaving(
        chunked in any::<bool>(),
        retained in any::<bool>(),
        send_buf in prop_oneof![1usize..64, 1usize..70_000],
        default_ttl in prop_oneof![Just(0u32), 1u32..50_000],
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let cfg = StreamConfig::with_send_buf(send_buf).default_ttl_micros(default_ttl);
        let mut tx = TxPair::new(&cfg, chunked);
        tx.retained = retained;
        let mut sent = 0;
        for op in ops {
            match op {
                Op::Send { len, ttl } => {
                    tx.send(&message(sent, len), ttl)?;
                    sent += 1;
                }
                Op::NextChunk { max } => {
                    tx.next_chunk(max)?;
                }
                Op::Ack { n } => tx.ack(n),
                Op::Reread { pick } => tx.reread(tx.pick(pick))?,
                Op::Abandon { pick } => {
                    let seq = tx.pick(pick);
                    tx.abandon(seq)
                }
                Op::Finish => tx.finish(),
            }
            tx.agree()?;
        }
        // Everything still retained re-reads identically at the end, too.
        for seq in 0..tx.next_seq {
            tx.reread(seq)?;
        }
    }

    #[test]
    fn receiver_matches_the_oracle_under_reorder_and_duplication(
        chunked in any::<bool>(),
        lens in prop::collection::vec(
            prop_oneof![0usize..=8, 0usize..=1400, 0usize..=20_000], 1..24),
        max in prop_oneof![1usize..=8, 1usize..=MAX_STREAM_PAYLOAD],
        // Each arrival: how far ahead of the oldest missing packet it lands
        // (reorder), and whether an old packet is delivered again instead.
        schedule in prop::collection::vec((0usize..12, any::<u64>(), 0u8..4), 0..400),
        fin_after in 0usize..400,
    ) {
        // Packetise the whole transfer first, against the oracle as it goes.
        let mut tx = TxPair::new(&StreamConfig::with_send_buf(usize::MAX / 2), chunked);
        let mut sent = Vec::new();
        for (n, len) in lens.into_iter().enumerate() {
            let len = if chunked { len } else { len.min(MAX_STREAM_PAYLOAD) };
            sent.push(message(n, len));
            tx.send(&sent[n], 0)?;
        }
        while tx.next_chunk(max)? {}
        let wire = &tx.wire;
        let final_seq = wire.len() as u64;

        let mut rx = RxPair::new(chunked);
        let mut pending: Vec<u64> = (0..final_seq).collect();
        for (step, (ahead, pick, dup)) in schedule.into_iter().enumerate() {
            if step == fin_after {
                rx.fin(final_seq)?;
            }
            let seq = if dup == 0 || pending.is_empty() {
                pick % final_seq.max(1)
            } else {
                pending.remove(ahead.min(pending.len() - 1))
            };
            if let Some((bytes, _)) = wire.get(seq as usize) {
                rx.arrive(seq, bytes)?;
            }
        }
        // Whatever the schedule left out arrives in order; then the FIN.
        for seq in pending {
            rx.arrive(seq, &wire[seq as usize].0)?;
        }
        rx.fin(final_seq)?;
        prop_assert!(rx.new.is_finished());
        if chunked {
            prop_assert_eq!(&rx.delivered, &sent);
        } else {
            // Message mode delivers on arrival: every message once, any order.
            let (mut got, mut want) = (rx.delivered.clone(), sent);
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}

// ---------------------------------------------------------------------------
// Targeted cases.
// ---------------------------------------------------------------------------

/// A chunk, and a 4-byte length prefix, straddling a segment boundary of the
/// send store — first transmission, retransmission, and reassembly.
#[test]
fn chunks_and_prefixes_straddling_a_segment_boundary() {
    for (first_len, max) in [
        // The second message's prefix sits 2 bytes either side of the boundary.
        (SEGMENT - 4 - 2, 1000),
        // The boundary falls inside a chunk's payload, and inside a prefix
        // that a 3-byte chunk size splits yet again.
        (SEGMENT - 4 - 1, 3),
        (SEGMENT - 4 - 700, 1400),
        // Exactly full: the next message starts a fresh segment.
        (SEGMENT - 4, 1400),
    ] {
        let mut tx = TxPair::new(&StreamConfig::with_send_buf(1 << 20), true);
        let msgs = [
            message(0, first_len),
            message(1, 5000),
            message(2, 0),
            message(3, 2 * SEGMENT + 17),
        ];
        for m in &msgs {
            tx.send(m, 0).unwrap();
        }
        while tx.next_chunk(max).unwrap() {}
        for seq in 0..tx.next_seq {
            tx.reread(seq).unwrap();
        }
        // Release past the first segment; what is left still re-reads.
        tx.ack((SEGMENT / max + 2) as u64);
        for seq in 0..tx.next_seq {
            tx.reread(seq).unwrap();
        }
        let mut rx = RxPair::new(true);
        // Odd sequences first: every other payload takes the stash path.
        let order = (1..tx.next_seq)
            .step_by(2)
            .chain((0..tx.next_seq).step_by(2));
        for seq in order {
            rx.arrive(seq, &tx.wire[seq as usize].0).unwrap();
        }
        assert_eq!(rx.delivered, msgs);
    }
}

/// TTL (message) mode: a lost message is retransmitted after later ones
/// were selectively acknowledged — which releases nothing — and abandoned
/// ones stay gone once the cumulative ack finally jumps.
#[test]
fn ttl_mode_retransmits_after_later_data_was_acknowledged_out_of_order() {
    let cfg = StreamConfig::with_send_buf(1 << 20).default_ttl_micros(5_000);
    let mut tx = TxPair::new(&cfg, false);
    for n in 0..40 {
        // Enough bytes that the early messages' segment would be released
        // if acknowledgement of later ones let go of anything.
        tx.send(&message(n, 1200), if n % 3 == 0 { 9_000 } else { 0 })
            .unwrap();
    }
    while tx.next_chunk(1400).unwrap() {}
    assert_eq!(tx.next_seq, 40);
    // 0 arrived; 1 and 2 were lost; 3.. were SACKed. Only the cumulative ack
    // releases, so 1 and 2 must still re-read byte for byte.
    tx.ack(1);
    tx.reread(1).unwrap();
    tx.reread(2).unwrap();
    assert_eq!(tx.new.chunk(2).map(|c| c.ttl_micros), Some(5_000));
    assert_eq!(tx.new.chunk(3).map(|c| c.ttl_micros), Some(9_000));
    // 2 runs out of time and is abandoned; 1 is retransmitted again.
    tx.abandon(2);
    tx.reread(1).unwrap();
    tx.reread(2).unwrap();
    assert!(tx.new.chunk(2).is_none());
    // The FORWARD lands: everything up to 30 is acknowledged at once.
    tx.ack(29);
    for seq in 0..40 {
        tx.reread(seq).unwrap();
        assert_eq!(tx.new.chunk(seq).is_some(), seq >= 30);
    }
}

/// The `Writable` edge needs the queue strictly below capacity — an empty
/// message ahead of one exactly `cap` long leaves it exactly at capacity.
#[test]
fn writable_edge_waits_for_room_strictly_below_capacity() {
    for chunked in [false, true] {
        let mut tx = TxPair::new(&StreamConfig::with_send_buf(10), chunked);
        tx.send(&[], 0).unwrap();
        tx.send(&message(1, 10), 0).unwrap();
        tx.send(&message(2, 1), 0).unwrap(); // Full on both sides
                                             // Message mode pops the empty message only: still at capacity.
                                             // Chunked mode stages both messages: room, and the edge.
        assert!(tx.next_chunk(3).unwrap());
        tx.send(&message(2, 1), 0).unwrap();
        while tx.next_chunk(3).unwrap() {}
    }
}

/// A payload stashed ahead of a hole arrives again (the reassembly buffer
/// normally filters this): it replaces the stashed copy rather than being
/// fed twice.
#[test]
fn a_duplicate_out_of_order_arrival_is_stashed_once() {
    let mut tx = TxPair::new(&StreamConfig::with_send_buf(1 << 20), true);
    let msgs = [message(0, 3000), message(1, 10), message(2, 2500)];
    for m in &msgs {
        tx.send(m, 0).unwrap();
    }
    while tx.next_chunk(700).unwrap() {}
    let wire = &tx.wire;
    let mut rx = RxPair::new(true);
    for seq in [2, 4] {
        rx.arrive(seq as u64, &wire[seq].0).unwrap();
    }
    rx.arrive_again(2, &wire[2].0).unwrap();
    rx.arrive_again(4, &wire[4].0).unwrap();
    for seq in (0..wire.len()).filter(|s| ![2, 4].contains(s)) {
        rx.arrive(seq as u64, &wire[seq].0).unwrap();
    }
    rx.arrive_again(5, &wire[5].0).unwrap();
    assert_eq!(rx.delivered, msgs);
}

/// After a close, a FORWARD moves the cumulative ack past two holes: the
/// stashed payloads beyond them are fed, the holes skipped, as the oracle
/// does it — and the stream finishes at the FIN's sequence.
#[test]
fn a_fin_forwarded_past_two_stash_gaps_matches_the_oracle() {
    let mut tx = TxPair::new(&StreamConfig::with_send_buf(1 << 20), true);
    for n in 0..6 {
        tx.send(&message(n, 900), 0).unwrap();
    }
    while tx.next_chunk(1000).unwrap() {}
    let wire = &tx.wire;
    let final_seq = wire.len() as u64;
    let mut rx = RxPair::new(true);
    // 1 and 3 never arrive.
    for seq in [0, 2, 4, 5] {
        rx.arrive(seq, &wire[seq as usize].0).unwrap();
    }
    rx.fin(final_seq).unwrap();
    assert!(!rx.new.is_finished());
    rx.forward(final_seq).unwrap();
    assert!(rx.new.is_finished());
    assert!(!rx.delivered.is_empty());
}
