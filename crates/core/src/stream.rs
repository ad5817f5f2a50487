//! Application data plane: message-oriented stream handles over a [`Session`].
//!
//! A [`SendStream`]/[`RecvStream`] pair gives applications a byte/message
//! data plane on top of the negotiated transport:
//!
//! * `send` copies a message once into the connection's send store, a
//!   bounded byte queue (backpressure via [`StreamError::Full`]); the sender
//!   endpoint packetises it at the paced rate, reads retransmissions back
//!   out of the same store, and releases it as acknowledgements arrive.
//! * Under fully-reliable profiles messages ride a u32-length-prefixed byte
//!   stream chunked into MTU-sized `StreamData` packets and are reassembled
//!   in order. Under partial/unreliable profiles each message maps to exactly
//!   one packet and is delivered as it arrives — late retransmissions whose
//!   age exceeds the message TTL are dropped at the receiver.
//! * `finish` starts the wire-level close handshake (FIN / FIN-ACK with a
//!   drain state); the receiver surfaces it as `SessionEvent::Finished`.
//! * A sender with nothing to send sleeps; the `send` or `finish` that
//!   finds it asleep wakes it through its driver's
//!   [`Waker`] (see the `Endpoint` contract in
//!   [`driver`](crate::driver)), so a message leaves without waiting for a
//!   poll.
//!
//! Handles are cheap clones of shared state (`Rc<RefCell<..>>`) so an
//! application can keep them after moving the [`Session`] into a driver.
//!
//! [`Session`]: crate::session::Session

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use qtp_metrics::trace::Tracer;
use qtp_simnet::sim::Waker;
use qtp_simnet::time::SimTime;

use crate::wire::MAX_STREAM_PAYLOAD;

/// Default send-buffer capacity in bytes.
pub const DEFAULT_SEND_BUF: usize = 256 * 1024;

/// Pure, clonable configuration for the stream data plane. Attach it to a
/// [`ConnectionPlan`](crate::session::ConnectionPlan) with
/// [`stream()`](crate::session::ConnectionPlan::stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Bytes of queued, not-yet-transmitted application data accepted before
    /// `send` reports [`StreamError::Full`].
    pub send_buf: usize,
    /// Default per-message TTL in microseconds (0 = fall back to the
    /// negotiated partial-reliability TTL, if any). Only meaningful under
    /// non-chunked (partial/unreliable) delivery.
    pub default_ttl_micros: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            send_buf: DEFAULT_SEND_BUF,
            default_ttl_micros: 0,
        }
    }
}

impl StreamConfig {
    /// Config with an explicit send-buffer capacity.
    pub fn with_send_buf(send_buf: usize) -> Self {
        StreamConfig {
            send_buf,
            ..Self::default()
        }
    }

    /// Sets the default per-message TTL in microseconds.
    pub fn default_ttl_micros(mut self, ttl: u32) -> Self {
        self.default_ttl_micros = ttl;
        self
    }
}

/// Errors surfaced by [`SendStream::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The bounded send buffer is full; retry after a `Writable` event.
    Full,
    /// `finish` was already called; no further sends are accepted.
    Finished,
    /// Message exceeds [`MAX_STREAM_PAYLOAD`] under one-message-per-packet
    /// (partial/unreliable) delivery, where messages cannot be chunked.
    TooLarge,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Full => write!(f, "send buffer full"),
            StreamError::Finished => write!(f, "stream already finished"),
            StreamError::TooLarge => {
                write!(f, "message exceeds {MAX_STREAM_PAYLOAD} bytes")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Segment size of the [`SendStore`]: it grows and releases in these steps,
/// so growing never copies what is already stored.
const SEGMENT: usize = 16 * 1024;

/// The send-side byte store: bytes are appended once at the tail, read any
/// number of times by absolute stream offset, and released from the head.
#[derive(Default)]
struct SendStore {
    /// Every segment but the last is full (`SEGMENT` bytes).
    segs: VecDeque<Vec<u8>>,
    /// Stream offset of `segs[0][0]`.
    head: u64,
    /// Released segments, emptied, parked for the store's own next growth:
    /// what one feedback round releases, the next round's appends refill
    /// without the allocator.
    spare: Vec<Vec<u8>>,
}

impl SendStore {
    fn append(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if !self.segs.back().is_some_and(|s| s.len() < SEGMENT) {
                let seg = self.spare.pop();
                self.segs
                    .push_back(seg.unwrap_or_else(|| Vec::with_capacity(SEGMENT)));
            }
            let seg = self.segs.back_mut().expect("pushed above");
            let (now, rest) = bytes.split_at(bytes.len().min(SEGMENT - seg.len()));
            seg.extend_from_slice(now);
            bytes = rest;
        }
    }

    /// Append the `len` bytes at stream offset `off` to `out`.
    fn copy_to(&self, off: u64, len: usize, out: &mut Vec<u8>) {
        let at = (off - self.head) as usize;
        let (mut seg, mut pos, mut left) = (at / SEGMENT, at % SEGMENT, len);
        while left > 0 {
            let n = left.min(SEGMENT - pos);
            out.extend_from_slice(&self.segs[seg][pos..pos + n]);
            (seg, pos, left) = (seg + 1, 0, left - n);
        }
    }

    /// Nothing below stream offset `off` will be read again. Every whole
    /// segment released is parked, so a store holds its high-water mark:
    /// the most it ever had queued and in flight, plus one segment.
    fn release_to(&mut self, off: u64) {
        while self.head + SEGMENT as u64 <= off {
            let mut seg = self.segs.pop_front().expect("released bytes were stored");
            self.head += SEGMENT as u64;
            seg.clear();
            self.spare.push(seg);
        }
    }
}

/// Sender-side shared state between the app handle and the endpoint.
///
/// The store holds every accepted message behind a 4-byte big-endian length
/// prefix, in both framing modes: chunked mode sends the stored bytes as they
/// are, message mode skips the prefixes. Three cursors walk it — released
/// (the store's head), `packetised`, `staged` — and `pending` lists the
/// messages beyond `staged`.
pub(crate) struct SendShared {
    store: SendStore,
    /// `(length, ttl)` of each accepted message not yet staged (chunked
    /// mode) or packetised (message mode), in store order.
    pending: VecDeque<(u32, u32)>,
    /// Payload bytes of the `pending` messages: what `cap` bounds.
    queued_bytes: usize,
    /// Stream offset of the next byte to put into a new packet.
    packetised: u64,
    /// Chunked mode: `packetised..staged` has left the queue and awaits
    /// packetising; messages cross over whole, as far as fills a packet.
    staged: u64,
    cap: usize,
    /// Chunked = length-prefixed byte stream (fully-reliable profiles);
    /// otherwise one whole message per packet.
    chunked: bool,
    default_ttl_micros: u32,
    finished: bool,
    /// A `send` bounced off the full buffer; arm the writable edge once
    /// space frees up.
    notify_writable: bool,
    writable_edge: bool,
    /// The sender's wake token while its pacer sleeps for want of data: the
    /// next `send` or `finish` takes it and wakes the sender with it.
    wake_on_write: Option<u64>,
    /// A token a write took and the sender has not yet been woken with —
    /// what a poll-style session reports as due.
    woken: Option<u64>,
    /// The mounting driver's wake handle, if any.
    waker: Option<Waker>,
}

impl SendShared {
    fn new(cfg: &StreamConfig, chunked: bool) -> Self {
        SendShared {
            store: SendStore::default(),
            pending: VecDeque::new(),
            queued_bytes: 0,
            packetised: 0,
            staged: 0,
            cap: cfg.send_buf.max(1),
            chunked,
            default_ttl_micros: cfg.default_ttl_micros,
            finished: false,
            notify_writable: false,
            writable_edge: false,
            wake_on_write: None,
            woken: None,
            waker: None,
        }
    }

    /// New bytes or a finish: wake a sender that sleeps for want of them.
    fn wake(&mut self) {
        if let Some(token) = self.wake_on_write.take() {
            self.woken = Some(token);
            if let Some(waker) = &self.waker {
                waker.wake(token);
            }
        }
    }

    fn has_data(&self) -> bool {
        self.staged > self.packetised || !self.pending.is_empty()
    }

    /// The next packet's payload, at most `max` bytes of it, moving the
    /// cursors past it.
    fn next_chunk(&mut self, max: usize, now: SimTime) -> Option<Chunk> {
        if self.chunked {
            while ((self.staged - self.packetised) as usize) < max {
                let Some((len, _)) = self.pending.pop_front() else {
                    break;
                };
                self.queued_bytes -= len as usize;
                self.staged += 4 + u64::from(len);
            }
            self.arm_writable();
            let take = ((self.staged - self.packetised) as usize).min(max);
            if take == 0 {
                return None;
            }
            self.packetised += take as u64;
            Some(Chunk {
                off: self.packetised - take as u64,
                len: take as u32,
                ttl_micros: 0,
                adu_ts: now,
            })
        } else {
            let (len, ttl) = self.pending.pop_front()?;
            self.queued_bytes -= len as usize;
            self.arm_writable();
            self.packetised += 4 + u64::from(len);
            self.staged = self.packetised;
            Some(Chunk {
                off: self.packetised - u64::from(len),
                len,
                ttl_micros: ttl,
                adu_ts: now,
            })
        }
    }

    fn arm_writable(&mut self) {
        if self.notify_writable && self.queued_bytes < self.cap {
            self.notify_writable = false;
            self.writable_edge = true;
        }
    }
}

/// Application handle for submitting messages; clone freely.
#[derive(Clone)]
pub struct SendStream {
    shared: Rc<RefCell<SendShared>>,
}

impl std::fmt::Debug for SendStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("SendStream")
            .field("queued_bytes", &s.queued_bytes)
            .field("finished", &s.finished)
            .finish()
    }
}

impl SendStream {
    /// Enqueues one message with the config's default TTL.
    pub fn send(&self, bytes: &[u8]) -> Result<(), StreamError> {
        self.send_with_ttl(bytes, 0)
    }

    /// Enqueues one message with an explicit TTL in microseconds
    /// (0 = use the config default / negotiated TTL).
    ///
    /// An empty buffer always accepts one message, even past capacity, so a
    /// single oversized-but-chunkable message can never deadlock.
    pub fn send_with_ttl(&self, bytes: &[u8], ttl_micros: u32) -> Result<(), StreamError> {
        let mut s = self.shared.borrow_mut();
        if s.finished {
            return Err(StreamError::Finished);
        }
        if !s.chunked && bytes.len() > MAX_STREAM_PAYLOAD {
            return Err(StreamError::TooLarge);
        }
        if !s.pending.is_empty() && s.queued_bytes + bytes.len() > s.cap {
            s.notify_writable = true;
            return Err(StreamError::Full);
        }
        s.queued_bytes += bytes.len();
        let ttl = if ttl_micros != 0 {
            ttl_micros
        } else {
            s.default_ttl_micros
        };
        let len = bytes.len() as u32;
        // Stored in message mode too, where it is skipped, never sent: the
        // handshake may still flip the mode. Costs 4 B of store per message
        // (6 % on a 64 B request), no wire bytes.
        s.store.append(&len.to_be_bytes());
        s.store.append(bytes);
        s.pending.push_back((len, ttl));
        s.wake();
        Ok(())
    }

    /// Signals end of stream: once the buffer drains (and, under reliable
    /// profiles, every packet is acknowledged) the endpoint sends FIN and
    /// completes the wire-level close handshake.
    pub fn finish(&self) {
        let mut s = self.shared.borrow_mut();
        s.finished = true;
        s.wake();
    }

    /// True once `finish` was called.
    pub fn is_finished(&self) -> bool {
        self.shared.borrow().finished
    }

    /// Bytes currently queued and not yet handed to the transport.
    pub fn queued_bytes(&self) -> usize {
        self.shared.borrow().queued_bytes
    }
}

/// Receiver-side shared state between the app handle and the endpoint.
pub(crate) struct RecvShared {
    messages: VecDeque<Vec<u8>>,
    /// Buffers [`RecvStream::recv_into`] took back, emptied, for later
    /// messages to be assembled in.
    spare: Vec<Vec<u8>>,
    /// Stash buffers the byte stream has consumed, emptied, for later
    /// out-of-order payloads. Kept here, behind the handle's `Rc`, so
    /// `StreamRx`, which every receiving `Session` holds inline, does not
    /// grow.
    stash_spare: Vec<Vec<u8>>,
    finished: bool,
    readable_since_poll: u64,
    msgs_received: u64,
    bytes_received: u64,
    /// The owning endpoint's tracer: TTL drops live in its [`CounterSet`]
    /// (one source of truth shared with the receiver's emit site).
    ///
    /// [`CounterSet`]: qtp_metrics::trace::CounterSet
    tracer: Tracer,
}

impl RecvShared {
    fn new(tracer: Tracer) -> Self {
        RecvShared {
            messages: VecDeque::new(),
            spare: Vec::new(),
            stash_spare: Vec::new(),
            finished: false,
            readable_since_poll: 0,
            msgs_received: 0,
            bytes_received: 0,
            tracer,
        }
    }

    fn push_msg(&mut self, bytes: Vec<u8>) {
        self.msgs_received += 1;
        self.bytes_received += bytes.len() as u64;
        self.readable_since_poll += 1;
        self.messages.push_back(bytes);
    }
}

/// An empty buffer with room for `cap` bytes: the last one parked in
/// `pool`, else a new one of exactly that size.
fn lend(pool: &mut Vec<Vec<u8>>, cap: usize) -> Vec<u8> {
    let mut buf = pool.pop().unwrap_or_default();
    buf.reserve_exact(cap);
    buf
}

/// Application handle for receiving messages; clone freely.
#[derive(Clone)]
pub struct RecvStream {
    shared: Rc<RefCell<RecvShared>>,
}

impl std::fmt::Debug for RecvStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("RecvStream")
            .field("available", &s.messages.len())
            .field("finished", &s.finished)
            .finish()
    }
}

impl RecvStream {
    /// Moves the next complete message into `buf`, replacing what it held,
    /// and returns its length. `buf`'s old storage is kept to assemble a
    /// later message in, so a reader that passes the same buffer every time
    /// allocates nothing per message once the connection is warm.
    pub fn recv_into(&self, buf: &mut Vec<u8>) -> Option<usize> {
        let mut s = self.shared.borrow_mut();
        let mut old = std::mem::replace(buf, s.messages.pop_front()?);
        if old.capacity() > 0 {
            old.clear();
            s.spare.push(old);
        }
        Some(buf.len())
    }

    /// Pops the next complete message, if any: [`recv_into`](Self::recv_into)
    /// with an empty buffer, handing over the one the message was
    /// assembled in.
    pub fn recv(&self) -> Option<Vec<u8>> {
        let mut msg = Vec::new();
        self.recv_into(&mut msg)?;
        Some(msg)
    }

    /// Number of complete messages currently buffered.
    pub fn available(&self) -> usize {
        self.shared.borrow().messages.len()
    }

    /// True once the peer's FIN was processed and all deliverable data is in.
    pub fn is_finished(&self) -> bool {
        self.shared.borrow().finished
    }

    /// Total messages delivered to this stream.
    pub fn messages_received(&self) -> u64 {
        self.shared.borrow().msgs_received
    }

    /// Total payload bytes delivered to this stream.
    pub fn bytes_received(&self) -> u64 {
        self.shared.borrow().bytes_received
    }

    /// Messages dropped at the receiver because their TTL had expired by the
    /// time a (re)transmission arrived. Reads the endpoint's per-connection
    /// counters — the receiver's `pkt_dropped` trace emits are the single
    /// source of truth.
    pub fn ttl_dropped(&self) -> u64 {
        self.shared.borrow().tracer.read(|c| c.ttl_drops)
    }
}

// ---------------------------------------------------------------------------
// Endpoint-side plumbing: what `QtpSender` / `QtpReceiver` drive. Public
// (but hidden) only so `tests/stream_oracle_proptest.rs` can hold it against
// the naive per-message implementation it replaced. `Chunk`, `StreamTx` and
// `StreamRx` are NOT part of the crate's API: no semver promise covers them,
// and they change with the endpoints. Applications use `SendStream` /
// `RecvStream`.
// ---------------------------------------------------------------------------

/// One packet's worth of stream payload: where it sits in the send store,
/// and the tags its `StreamData` header carries on every transmission.
/// Endpoint internal, outside semver.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    off: u64,
    len: u32,
    /// Per-message TTL tag (message mode; 0 in chunked mode).
    pub ttl_micros: u32,
    /// When the chunk was first packetised.
    pub adu_ts: SimTime,
}

impl Chunk {
    /// Payload bytes.
    pub fn payload_len(&self) -> usize {
        self.len as usize
    }
}

/// Sender-endpoint view of the send store: cuts the queued bytes into
/// wire-sized chunks and keeps the sent ones readable until acknowledged.
/// Endpoint internal, outside semver.
#[doc(hidden)]
pub struct StreamTx {
    shared: Rc<RefCell<SendShared>>,
    /// Sent chunks retained for retransmission, by sequence from `base`;
    /// `None` once abandoned. Holds plain offsets, so acknowledging any
    /// number of packets frees nothing.
    sent: VecDeque<Option<Chunk>>,
    /// Sequence of `sent[0]`.
    base: u64,
}

impl StreamTx {
    pub fn new(cfg: &StreamConfig, chunked: bool) -> Self {
        StreamTx {
            shared: Rc::new(RefCell::new(SendShared::new(cfg, chunked))),
            sent: VecDeque::new(),
            base: 0,
        }
    }

    /// App-facing handle sharing this endpoint's state.
    pub fn handle(&self) -> SendStream {
        SendStream {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Re-locks the framing mode once negotiation settles (before any
    /// stream bytes are packetised).
    pub(crate) fn set_chunked(&self, chunked: bool) {
        self.shared.borrow_mut().chunked = chunked;
    }

    /// Keep the mounting driver's wake handle for the writes to come.
    pub(crate) fn set_waker(&self, waker: Waker) {
        self.shared.borrow_mut().waker = Some(waker);
    }

    /// The sender's pacer sleeps for want of data: the next write wakes it
    /// with `token`. `None`: it runs, or sleeps for a reason a write does
    /// not change, so writes wake nothing.
    pub(crate) fn wake_on_write(&self, token: Option<u64>) {
        let mut s = self.shared.borrow_mut();
        s.wake_on_write = token;
        s.woken = None;
    }

    /// The token a write woke the sender with, not yet delivered.
    pub(crate) fn woken(&self) -> Option<u64> {
        self.shared.borrow().woken
    }

    /// [`StreamTx::woken`], taken for delivery.
    pub(crate) fn take_woken(&self) -> Option<u64> {
        self.shared.borrow_mut().woken.take()
    }

    /// Takes the one-shot "space freed after a `Full`" edge, as the session
    /// does to raise `Writable`.
    pub fn take_writable_edge(&self) -> bool {
        std::mem::take(&mut self.shared.borrow_mut().writable_edge)
    }

    /// True if any bytes remain to packetise.
    pub fn has_data(&self) -> bool {
        self.shared.borrow().has_data()
    }

    /// True once the app called `finish` and every byte was packetised.
    pub fn fin_ready(&self) -> bool {
        let s = self.shared.borrow();
        s.finished && !s.has_data()
    }

    /// Cuts the next chunk of at most `max` bytes off the queue.
    ///
    /// Chunked mode packs as many length-prefixed message bytes as fit (TTL
    /// is always 0: chunking implies full reliability). Message mode takes
    /// exactly one whole message.
    pub fn next_chunk(&mut self, max: usize, now: SimTime) -> Option<Chunk> {
        let max = max.clamp(1, MAX_STREAM_PAYLOAD);
        self.shared.borrow_mut().next_chunk(max, now)
    }

    /// Append `chunk`'s payload bytes to `out` — the same bytes on the
    /// first transmission and on every retransmission.
    pub fn copy_payload(&self, chunk: &Chunk, out: &mut Vec<u8>) {
        self.shared
            .borrow()
            .store
            .copy_to(chunk.off, chunk.payload_len(), out);
    }

    /// Keep `chunk`, just sent as sequence `seq`, for retransmission.
    /// Sequences are retained in the order they are assigned.
    pub fn retain(&mut self, seq: u64, chunk: Chunk) {
        if self.sent.is_empty() {
            self.base = seq;
        }
        debug_assert_eq!(seq, self.base + self.sent.len() as u64);
        self.sent.push_back(Some(chunk));
    }

    /// The retained chunk sent as `seq`, unless acknowledged or abandoned.
    pub fn chunk(&self, seq: u64) -> Option<Chunk> {
        let i = seq.checked_sub(self.base)?;
        *self.sent.get(i as usize)?
    }

    /// Give up on `seq`: it will not be retransmitted.
    pub fn abandon(&mut self, seq: u64) {
        let slot = seq
            .checked_sub(self.base)
            .and_then(|i| self.sent.get_mut(i as usize));
        if let Some(slot) = slot {
            *slot = None;
        }
    }

    /// Everything below `cum_ack` is acknowledged: forget those chunks and
    /// let the store reuse the bytes no retained chunk still needs.
    pub fn release(&mut self, cum_ack: u64) {
        let n = cum_ack
            .saturating_sub(self.base)
            .min(self.sent.len() as u64);
        self.sent.drain(..n as usize);
        self.base += n;
        self.trim();
    }

    /// Let the store reuse every byte below the oldest retained chunk — or
    /// everything packetised, when no chunk is retained. A sender that never
    /// retransmits calls this after each packet: no acknowledgement it can
    /// wait for is sure to come.
    pub fn trim(&mut self) {
        let mut s = self.shared.borrow_mut();
        let oldest = self.sent.iter().flatten().next();
        let keep_from = oldest.map_or(s.packetised, |c| c.off);
        s.store.release_to(keep_from);
    }
}

/// Receiver-endpoint view: reassembles wire chunks back into messages.
/// Endpoint internal, outside semver.
#[doc(hidden)]
pub struct StreamRx {
    shared: Rc<RefCell<RecvShared>>,
    /// Chunked mode only: payloads that arrived ahead of the cumulative
    /// ack, sorted by sequence, held until it passes them. Sized by the
    /// packets held, never by the span of sequences they cover.
    stash: Vec<(u64, Vec<u8>)>,
    /// Chunked mode only: the message the in-order byte stream is in the
    /// middle of — its length prefix, then its body, which is assembled
    /// in the very `Vec` the application will receive.
    prefix: [u8; 4],
    prefix_len: usize,
    body: Option<(Vec<u8>, usize)>,
    /// Messages completed since the last [`drain`](Self::drain).
    completed: u64,
    /// Next sequence number to feed into the byte stream.
    next_parse_seq: u64,
    ordered: bool,
    fin_final_seq: Option<u64>,
}

/// Most a message's body reserves on the strength of its length prefix
/// alone; a longer one grows as its bytes actually arrive.
const BODY_RESERVE_MAX: usize = 64 * 1024;

impl StreamRx {
    pub fn new(ordered: bool, tracer: Tracer) -> Self {
        StreamRx {
            shared: Rc::new(RefCell::new(RecvShared::new(tracer))),
            stash: Vec::new(),
            prefix: [0; 4],
            prefix_len: 0,
            body: None,
            completed: 0,
            next_parse_seq: 0,
            ordered,
            fin_final_seq: None,
        }
    }

    /// App-facing handle sharing this endpoint's state.
    pub fn handle(&self) -> RecvStream {
        RecvStream {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Drains the count of messages made readable since the last call, as
    /// the session does to raise `Readable`.
    pub(crate) fn take_readable(&self) -> u64 {
        std::mem::take(&mut self.shared.borrow_mut().readable_since_poll)
    }

    pub(crate) fn ordered(&self) -> bool {
        self.ordered
    }

    /// Re-locks the delivery mode once negotiation settles (data arriving
    /// before the handshake is dropped, so no payload can predate this).
    pub(crate) fn set_ordered(&mut self, ordered: bool) {
        self.ordered = ordered;
    }

    /// Accepts a newly arrived payload; `cum_ack` is the cumulative ack
    /// with this arrival counted. Message mode delivers it at once. Ordered
    /// mode feeds it to the byte stream if it is the next in order and
    /// acknowledged, and otherwise stashes a copy until
    /// [`drain`](Self::drain) sees the cumulative ack pass it.
    pub fn on_payload(&mut self, seq: u64, payload: &[u8], cum_ack: u64) {
        if !self.ordered {
            let mut s = self.shared.borrow_mut();
            let mut msg = lend(&mut s.spare, payload.len());
            msg.extend_from_slice(payload);
            s.push_msg(msg);
        } else if seq == self.next_parse_seq && seq < cum_ack {
            self.feed(payload);
            self.next_parse_seq += 1;
        } else {
            // A duplicate overwrites the copy it finds.
            let i = self.stash.partition_point(|&(s, _)| s < seq);
            if !self.stash.get(i).is_some_and(|&(s, _)| s == seq) {
                let held = lend(&mut self.shared.borrow_mut().stash_spare, payload.len());
                self.stash.insert(i, (seq, held));
            }
            let held = &mut self.stash[i].1;
            held.clear();
            held.extend_from_slice(payload);
        }
    }

    /// Ordered mode: feeds contiguously acknowledged stashed payloads to
    /// the byte stream. Also re-checks FIN completion. Returns the number of
    /// messages completed since the last call.
    pub fn drain(&mut self, cum_ack: u64) -> u64 {
        if self.ordered {
            // Fully-reliable profiles never leave a hole here, but a FIN
            // processed after close can forward past stash gaps.
            let ripe = self.stash.partition_point(|&(seq, _)| seq < cum_ack);
            let mut stash = std::mem::take(&mut self.stash);
            for (seq, mut held) in stash.drain(..ripe) {
                if seq >= self.next_parse_seq {
                    self.feed(&held);
                }
                held.clear();
                self.shared.borrow_mut().stash_spare.push(held);
            }
            self.stash = stash;
            self.next_parse_seq = self.next_parse_seq.max(cum_ack);
        }
        self.maybe_finish(cum_ack);
        std::mem::take(&mut self.completed)
    }

    /// The next in-order bytes of the length-prefixed stream: each lands
    /// once, in the prefix or in the body of the message it belongs to, and
    /// every message it completes is delivered.
    fn feed(&mut self, mut bytes: &[u8]) {
        loop {
            if let Some((body, len)) = &mut self.body {
                let (now, rest) = bytes.split_at(bytes.len().min(*len - body.len()));
                body.extend_from_slice(now);
                bytes = rest;
                if body.len() < *len {
                    return;
                }
                let (msg, _) = self.body.take().expect("matched above");
                self.shared.borrow_mut().push_msg(msg);
                self.completed += 1;
            }
            let (now, rest) = bytes.split_at(bytes.len().min(4 - self.prefix_len));
            self.prefix[self.prefix_len..][..now.len()].copy_from_slice(now);
            self.prefix_len += now.len();
            bytes = rest;
            if self.prefix_len < 4 {
                return;
            }
            self.prefix_len = 0;
            let len = u32::from_be_bytes(self.prefix) as usize;
            let body = lend(
                &mut self.shared.borrow_mut().spare,
                len.min(BODY_RESERVE_MAX),
            );
            self.body = Some((body, len));
        }
    }

    /// Registers the peer's FIN. Ordered mode finishes only once the
    /// cumulative ack reaches `final_seq` (FIN can arrive out of order);
    /// message mode finishes immediately.
    pub fn on_fin(&mut self, final_seq: u64, cum_ack: u64) {
        self.fin_final_seq = Some(final_seq);
        self.maybe_finish(cum_ack);
    }

    fn maybe_finish(&mut self, cum_ack: u64) {
        let Some(final_seq) = self.fin_final_seq else {
            return;
        };
        let done = if self.ordered {
            cum_ack >= final_seq
        } else {
            true
        };
        if done {
            self.shared.borrow_mut().finished = true;
        }
    }

    pub fn is_finished(&self) -> bool {
        self.shared.borrow().finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next chunk's payload bytes and TTL tag, as they go on the wire.
    fn next(tx: &mut StreamTx, max: usize) -> Option<(Vec<u8>, u32)> {
        let chunk = tx.next_chunk(max, SimTime::ZERO)?;
        let mut bytes = Vec::new();
        tx.copy_payload(&chunk, &mut bytes);
        assert_eq!(bytes.len(), chunk.payload_len());
        Some((bytes, chunk.ttl_micros))
    }

    #[test]
    fn backpressure_full_then_writable_edge() {
        let mut tx = StreamTx::new(&StreamConfig::with_send_buf(10), true);
        let h = tx.handle();
        h.send(b"123456").unwrap();
        h.send(b"7890").unwrap(); // exactly at cap
        assert_eq!(h.send(b"x"), Err(StreamError::Full));
        assert!(!tx.take_writable_edge(), "no edge until space frees");
        let (chunk, ttl) = next(&mut tx, 100).unwrap();
        assert_eq!(ttl, 0);
        // 4-byte prefix + 6, then 4-byte prefix + 4.
        assert_eq!(chunk.len(), 18);
        assert!(tx.take_writable_edge());
        assert!(!tx.take_writable_edge(), "edge is one-shot");
        h.send(b"x").unwrap();
    }

    #[test]
    fn empty_queue_accepts_oversized_message() {
        let tx = StreamTx::new(&StreamConfig::with_send_buf(4), true);
        let h = tx.handle();
        h.send(&[7u8; 64]).unwrap();
        assert_eq!(h.send(b"y"), Err(StreamError::Full));
    }

    #[test]
    fn finish_rejects_further_sends() {
        let tx = StreamTx::new(&StreamConfig::default(), true);
        let h = tx.handle();
        h.send(b"last").unwrap();
        h.finish();
        assert_eq!(h.send(b"more"), Err(StreamError::Finished));
        assert!(!tx.fin_ready(), "data still queued");
    }

    #[test]
    fn chunker_packs_and_splits_messages() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        let h = tx.handle();
        h.send(&[1u8; 6]).unwrap();
        h.send(&[2u8; 6]).unwrap();
        // Each message costs 10 bytes framed; max 12 splits mid-message.
        let (c1, _) = next(&mut tx, 12).unwrap();
        let (c2, _) = next(&mut tx, 12).unwrap();
        assert_eq!(c1.len(), 12);
        assert_eq!(c2.len(), 8);
        assert!(next(&mut tx, 12).is_none());

        let mut rx = StreamRx::new(true, Tracer::new(0));
        let rh = rx.handle();
        rx.on_payload(0, &c1, 1);
        rx.on_payload(1, &c2, 2);
        assert_eq!(rx.drain(2), 2);
        assert_eq!(rh.recv().unwrap(), vec![1u8; 6]);
        assert_eq!(rh.recv().unwrap(), vec![2u8; 6]);
        assert!(rh.recv().is_none());
    }

    #[test]
    fn ordered_drain_waits_for_cum_ack() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        let h = tx.handle();
        h.send(b"hello").unwrap();
        let (c, _) = next(&mut tx, 1400).unwrap();
        let mut rx = StreamRx::new(true, Tracer::new(0));
        rx.on_payload(0, &c, 0);
        assert_eq!(rx.drain(0), 0, "not yet acked");
        assert_eq!(rx.drain(1), 1);
        assert_eq!(rx.handle().recv().unwrap(), b"hello");
    }

    #[test]
    fn message_mode_one_per_packet_with_ttl() {
        let mut tx = StreamTx::new(&StreamConfig::default().default_ttl_micros(5_000), false);
        let h = tx.handle();
        h.send(b"frame-a").unwrap();
        h.send_with_ttl(b"frame-b", 9_000).unwrap();
        assert_eq!(next(&mut tx, 1400).unwrap(), (b"frame-a".to_vec(), 5_000));
        assert_eq!(next(&mut tx, 1400).unwrap(), (b"frame-b".to_vec(), 9_000));
        assert_eq!(
            h.send(&vec![0u8; MAX_STREAM_PAYLOAD + 1]),
            Err(StreamError::TooLarge)
        );
    }

    #[test]
    fn message_mode_delivers_out_of_order_immediately() {
        let tracer = Tracer::new(0);
        let mut rx = StreamRx::new(false, tracer.clone());
        let rh = rx.handle();
        rx.on_payload(3, b"late", 0);
        assert_eq!(rh.recv().unwrap(), b"late");
        // TTL drops are counted by the endpoint's tracer (pkt_dropped) and
        // surfaced through the shared handle.
        tracer.emit(
            0,
            qtp_metrics::trace::TraceEventKind::PktDropped { seq: 4, age_us: 1 },
        );
        assert_eq!(rh.ttl_dropped(), 1);
        rx.on_fin(5, 0);
        assert!(rh.is_finished(), "message mode finishes on FIN");
    }

    #[test]
    fn ordered_fin_waits_for_final_seq() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        tx.handle().send(b"ab").unwrap();
        let (c, _) = next(&mut tx, 1400).unwrap();
        let mut rx = StreamRx::new(true, Tracer::new(0));
        rx.on_fin(1, 0); // FIN raced ahead of the data
        assert!(!rx.is_finished());
        rx.on_payload(0, &c, 1);
        rx.drain(1);
        assert!(rx.is_finished());
        assert_eq!(rx.take_readable(), 1);
    }

    #[test]
    fn split_length_prefix_across_chunks_parses() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        tx.handle().send(&[9u8; 10]).unwrap();
        // Chunk size 3 splits the 4-byte length prefix itself.
        let mut rx = StreamRx::new(true, Tracer::new(0));
        let mut seq = 0;
        while let Some((c, _)) = next(&mut tx, 3) {
            seq += 1;
            rx.on_payload(seq - 1, &c, seq);
        }
        assert_eq!(rx.drain(seq), 1);
        assert_eq!(rx.handle().recv().unwrap(), vec![9u8; 10]);
    }

    #[test]
    fn retained_chunks_reread_the_same_bytes_until_released() {
        let mut tx = StreamTx::new(&StreamConfig::default(), true);
        let h = tx.handle();
        // Three segments' worth, so chunks and prefixes straddle segment
        // boundaries of the store.
        let msg: Vec<u8> = (0..SEGMENT + 1000).map(|i| (i % 251) as u8).collect();
        for _ in 0..3 {
            h.send(&msg).unwrap();
        }
        let mut sent = Vec::new();
        while let Some(chunk) = tx.next_chunk(1400, SimTime::ZERO) {
            let mut bytes = Vec::new();
            tx.copy_payload(&chunk, &mut bytes);
            tx.retain(sent.len() as u64, chunk);
            sent.push(bytes);
        }
        let stream: Vec<u8> = sent.concat();
        let framed: Vec<u8> = [&(msg.len() as u32).to_be_bytes()[..], &msg[..]].concat();
        assert_eq!(stream, framed.repeat(3));
        // Acknowledge a prefix, abandon one above it: the rest re-read
        // byte-identically, the acknowledged and abandoned ones are gone.
        tx.release(20);
        tx.abandon(25);
        for (seq, bytes) in sent.iter().enumerate() {
            let again = tx.chunk(seq as u64).map(|c| {
                let mut b = Vec::new();
                tx.copy_payload(&c, &mut b);
                b
            });
            if seq < 20 || seq == 25 {
                assert_eq!(again, None, "seq {seq}");
            } else {
                assert_eq!(again.as_ref(), Some(bytes), "seq {seq}");
            }
        }
        // Released segments are parked for reuse, not freed.
        let s = Rc::clone(&tx.shared);
        let spare = || s.borrow().store.spare.len();
        assert_eq!(spare(), 20 * 1400 / SEGMENT);
        tx.release(sent.len() as u64);
        assert_eq!(
            s.borrow().store.segs.len(),
            1,
            "only the partial tail stays"
        );
        assert_eq!(spare(), 3);
        h.send(&msg).unwrap();
        assert_eq!(spare(), 2, "and growth takes a parked segment first");
    }

    #[test]
    fn every_released_segment_is_reused_before_a_new_one_is_allocated() {
        let mut tx = StreamTx::new(&StreamConfig::with_send_buf(1 << 20), true);
        let (h, s) = (tx.handle(), Rc::clone(&tx.shared));
        let segs = |skip| -> Vec<*const u8> {
            let store = &s.borrow().store;
            store.segs.iter().skip(skip).map(|g| g.as_ptr()).collect()
        };
        // Ten full segments and a 40-byte tail; release the first eight.
        for _ in 0..10 {
            h.send(&[1u8; SEGMENT]).unwrap();
        }
        let mut released = segs(0)[..8].to_vec();
        while s.borrow().packetised < 8 * SEGMENT as u64 {
            tx.next_chunk(1400, SimTime::ZERO);
        }
        tx.trim();
        assert_eq!(
            s.borrow().store.spare.len(),
            8,
            "every released segment parked"
        );
        // Nine more segments: the eight parked ones, each once, then a new one.
        for _ in 0..9 {
            h.send(&[2u8; SEGMENT - 4]).unwrap();
        }
        let mut grown = segs(3);
        let new = grown.pop().unwrap();
        grown.sort();
        released.sort();
        assert_eq!(grown, released);
        assert!(!released.contains(&new));
    }

    #[test]
    fn an_unretained_store_holds_its_high_water_mark_and_no_more() {
        let mut tx = StreamTx::new(&StreamConfig::default(), false);
        let (h, s) = (tx.handle(), Rc::clone(&tx.shared));
        let held = || s.borrow().store.segs.len() + s.borrow().store.spare.len();
        // Nothing is ever acknowledged; the sender trims after each packet.
        let mut high = 0;
        for round in 0..40 {
            while h.send(&[3u8; 1200]).is_ok() {}
            if round == 0 {
                high = held();
            }
            while let Some(chunk) = tx.next_chunk(1400, SimTime::ZERO) {
                assert_eq!(chunk.payload_len(), 1200);
                tx.trim();
            }
            assert!(s.borrow().store.segs.len() <= 1, "only the partial tail");
            assert_eq!(held(), high, "round {round}");
        }
    }

    /// `[u32 length][body]` cut into `chunk`-byte payloads, as chunked mode
    /// puts a message on the wire.
    fn framed(body: &[u8], chunk: usize) -> Vec<Vec<u8>> {
        let bytes = [&(body.len() as u32).to_be_bytes()[..], body].concat();
        bytes.chunks(chunk).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn a_drained_stash_buffer_is_lent_again() {
        let mut rx = StreamRx::new(true, Tracer::new(0));
        let p = framed(&[7u8; 28], 8);
        // 1 arrives ahead of 0 and is stashed; 0 fills the hole.
        rx.on_payload(1, &p[1], 0);
        let held = rx.stash[0].1.as_ptr();
        rx.on_payload(0, &p[0], 2);
        rx.drain(2);
        // 3 arrives ahead of 2: stashed in the buffer 1 left behind.
        rx.on_payload(3, &p[3], 2);
        assert_eq!((rx.stash.len(), rx.stash[0].1.as_ptr()), (1, held));
        rx.on_payload(2, &p[2], 4);
        assert_eq!(rx.drain(4), 1);
        assert_eq!(rx.handle().recv().unwrap(), [7u8; 28]);
    }

    #[test]
    fn a_buffer_given_back_by_recv_into_carries_a_later_message() {
        for ordered in [false, true] {
            let mut rx = StreamRx::new(ordered, Tracer::new(0));
            let rh = rx.handle();
            let mut arrive = |seq: u64| {
                let msg = [seq as u8; 100];
                let payload = match ordered {
                    true => framed(&msg, 1400).concat(),
                    false => msg.to_vec(),
                };
                rx.on_payload(seq, &payload, seq + 1);
                rx.drain(seq + 1);
            };
            let mut buf = Vec::with_capacity(4096);
            let mine = buf.as_ptr();
            arrive(0);
            assert_eq!(rh.recv_into(&mut buf), Some(100));
            // Message 1 is assembled in the storage `buf` had.
            arrive(1);
            assert_eq!(rh.recv_into(&mut buf), Some(100));
            assert_eq!((buf.as_ptr(), &buf[..]), (mine, &[1u8; 100][..]));
            assert_eq!(rh.recv_into(&mut buf), None, "nothing readable");
            assert_eq!(buf, [1u8; 100], "and `buf` untouched");
        }
    }
}
