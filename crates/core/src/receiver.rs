//! The QTP receiver endpoint — where the paper's two instances differ most.
//!
//! In **ReceiverLoss** mode (standard TFRC / QTPAF) the receiver runs the
//! full RFC 3448 machinery: per-packet loss detection, loss-event grouping,
//! loss-interval history, and the WALI computation on every feedback. In
//! **SenderLoss** mode (QTPlight) it keeps *only* a reassembly buffer and a
//! byte counter: feedback is a cumulative ack, up to four SACK blocks, the
//! echo timestamp pair and the raw receive rate. The per-packet cost gap
//! between these two paths — measured by the meters this module aggregates
//! into its tracer's [`CounterSet`] — is the paper's §3 claim, reproduced as
//! experiment E5.
//!
//! The receiver also implements the **selfish receiver** attack of Georg &
//! Gorinsky (paper §3's robustness argument): when `selfish_factor > 1`
//! and the mode is ReceiverLoss, the reported loss event rate is divided
//! by the factor and the receive rate inflated by it. In SenderLoss mode
//! there is no loss report to falsify — which is the defence.
//!
//! Like the sender, the receiver is sans-io and crate-private: it
//! implements the [`Endpoint`] driver seam and emits its feedback
//! transmissions, timer re-arms and application deliveries as [`Outbox`]
//! commands, and a [`Session`](crate::session::Session) wraps it, so the
//! same state machine runs unchanged under the simulator or over real UDP
//! (via `qtp-io`).

use qtp_metrics::trace::{ConnState, CounterSet, PktKind, TraceEventKind, Tracer};
use qtp_metrics::StateSize;
use qtp_sack::{ReceiverBuffer, Reliability};
use qtp_simnet::prelude::*;
use qtp_tfrc::TfrcReceiver;
use std::collections::BTreeMap;
use std::time::Duration;

use crate::caps::{CapabilitySet, FeedbackMode, ServerPolicy};
use crate::driver::{Endpoint, Outbox, TimerGens};
use crate::session::ConnectionPlan;
use crate::stream::{RecvStream, StreamRx};
use crate::wire::{
    p_to_ppb, FeedbackFields, PacketRef, QtpPacket, StreamDataHeader, IP_OVERHEAD, MAX_FB_BLOCKS,
};

/// Timer token kinds.
const TK_FB: u64 = 0;

/// The composition the SYN fixed.
struct Negotiated {
    caps: CapabilitySet,
    loss: LossSource,
}

/// Where the sender's `p` comes from, seen from this end.
enum LossSource {
    /// `ReceiverLoss`: the full RFC 3448 receiver computes it here. Boxed,
    /// at one allocation per such connection: held inline, its 336 bytes
    /// would make every `Session`, sender or receiver, that much larger.
    Measured(Box<TfrcReceiver>),
    /// `SenderLoss` (QTPlight): the sender estimates it from SACKs.
    AtSender,
}

/// The QTP receiver endpoint.
pub(crate) struct QtpReceiver {
    /// Incoming data flow (goodput accounting).
    data_flow: FlowId,
    /// Flow id for outgoing feedback packets.
    fb_flow: FlowId,
    sender_node: NodeId,
    /// Negotiation policy.
    policy: ServerPolicy,
    /// Selfish-receiver attack factor (1.0 = honest). Under ReceiverLoss
    /// the reported `p` is divided by this and `x_recv` multiplied by it.
    selfish_factor: f64,
    /// What the SYN fixed (`None` until it arrives).
    negotiated: Option<Negotiated>,
    /// Reassembly / SACK state (always present: it is cheap, and even
    /// ReceiverLoss+None uses it for duplicate suppression).
    buf: ReceiverBuffer,
    /// ADU submit timestamps of buffered out-of-order packets, for latency
    /// accounting once they deliver.
    pending_adu_ts: BTreeMap<u64, u64>,
    /// Payload bytes per packet (learned from the first data packet).
    payload_bytes: u32,
    /// Sender's RTT hint from the most recent data packet.
    rtt_hint: Duration,
    /// Highest sequence seen (for gap-triggered feedback).
    highest_seen: Option<u64>,
    /// Sender timestamp / local receive time of the newest data packet.
    last_pkt: Option<(SimTime, SimTime)>,
    /// Bytes received since the last feedback.
    bytes_since_fb: u64,
    /// When the current measurement round began.
    round_started: Option<SimTime>,
    /// Light-receiver bookkeeping cost (SenderLoss mode's entire load
    /// beyond the reassembly buffer's own meter).
    own_ops: u64,
    gens: TimerGens<1>,
    /// Stream data plane reassembler (message extraction + TTL drops).
    stream: Option<StreamRx>,
    /// A FIN was processed (close handshake seen from the peer).
    fin_seen: bool,
    /// Observability: typed event emission + per-connection counters.
    /// Shared with [`StreamRx`] so TTL-drop counts have one source of truth.
    tracer: Tracer,
}

impl QtpReceiver {
    pub(crate) fn new(
        data_flow: FlowId,
        fb_flow: FlowId,
        sender_node: NodeId,
        plan: &ConnectionPlan,
    ) -> Self {
        // Delivery mode is re-locked at negotiation time (`on_syn`). With a
        // stream, payloads are reassembled into messages for a `RecvStream`.
        let tracer = Tracer::new(0);
        let stream = plan
            .stream
            .as_ref()
            .map(|_| StreamRx::new(true, tracer.clone()));
        QtpReceiver {
            data_flow,
            fb_flow,
            sender_node,
            policy: plan.policy.clone(),
            selfish_factor: plan.selfish_factor,
            negotiated: None,
            buf: ReceiverBuffer::new(),
            pending_adu_ts: BTreeMap::new(),
            payload_bytes: 1000,
            rtt_hint: Duration::from_millis(100),
            highest_seen: None,
            last_pkt: None,
            bytes_since_fb: 0,
            round_started: None,
            own_ops: 0,
            gens: TimerGens::new(),
            stream,
            fin_seen: false,
            tracer,
        }
    }

    /// This endpoint's [`Tracer`] handle (clones share counters + sink).
    pub(crate) fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// App-facing handle for the stream data plane (if configured).
    pub(crate) fn recv_stream(&self) -> Option<RecvStream> {
        self.stream.as_ref().map(|s| s.handle())
    }

    /// Drains the stream's readable-message count (0 without a stream).
    pub(crate) fn take_readable(&self) -> u64 {
        self.stream.as_ref().map_or(0, StreamRx::take_readable)
    }

    /// True once the peer's close handshake reached this endpoint and every
    /// deliverable byte was surfaced.
    pub(crate) fn finished(&self) -> bool {
        match &self.stream {
            Some(s) => s.is_finished(),
            None => self.fin_seen,
        }
    }

    /// The negotiated profile (after the handshake).
    pub(crate) fn negotiated(&self) -> Option<CapabilitySet> {
        self.negotiated.as_ref().map(|n| n.caps)
    }

    /// Packets delivered to the application so far (in-order runs plus
    /// forward-released ranges) — exposed for differential backend tests.
    pub(crate) fn delivered_packets(&self) -> u64 {
        self.buf.delivered_total()
    }

    /// Next expected in-order sequence.
    pub(crate) fn cum_ack(&self) -> u64 {
        self.buf.cum_ack()
    }

    fn arm_fb(&mut self, out: &mut Outbox, at: SimTime) {
        out.set_timer_at(at, self.gens.arm(TK_FB));
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::TimerSet {
                kind: TK_FB as u8,
                at_nanos: at.as_nanos(),
            },
        );
    }

    /// Queue a header-only packet (SYNACK, feedback, FIN-ACK) of `len`
    /// bytes, written by `encode`, toward the sender and trace it under
    /// `seq`.
    fn send_control(
        &self,
        out: &mut Outbox,
        kind: PktKind,
        seq: u64,
        len: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut header = out.buffer(len);
        encode(&mut header);
        let bytes = header.len() as u32 + IP_OVERHEAD;
        out.send_new(self.fb_flow, self.sender_node, bytes, header);
        let sent = TraceEventKind::PktSent {
            kind,
            seq,
            bytes,
            retx: false,
        };
        self.tracer.emit(out.now.as_nanos(), sent);
    }

    fn trace_recvd(&self, out: &Outbox, kind: PktKind, seq: u64, bytes: u32) {
        let recvd = TraceEventKind::PktRecvd { kind, seq, bytes };
        self.tracer.emit(out.now.as_nanos(), recvd);
    }

    fn on_syn(&mut self, out: &mut Outbox, ts_nanos: u64, offered: CapabilitySet) {
        // A repeated SYN is answered with the first one's outcome.
        let chosen = match &self.negotiated {
            Some(n) => n.caps,
            None => {
                let caps = self.policy.negotiate(offered);
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::State(ConnState::Connected),
                );
                let loss = match caps.feedback {
                    FeedbackMode::ReceiverLoss => LossSource::Measured(Box::new(
                        TfrcReceiver::new(self.payload_bytes, self.rtt_hint),
                    )),
                    FeedbackMode::SenderLoss => LossSource::AtSender,
                };
                self.negotiated = Some(Negotiated { caps, loss });
                // Stream delivery mode follows the negotiated reliability:
                // full reliability reassembles an ordered byte stream,
                // everything else delivers one message per packet as they
                // arrive.
                if let Some(srx) = self.stream.as_mut() {
                    srx.set_ordered(matches!(caps.reliability, Reliability::Full));
                }
                caps
            }
        };
        let pkt = QtpPacket::SynAck {
            ts_echo_nanos: ts_nanos,
            chosen,
        };
        self.send_control(out, PktKind::SynAck, 0, pkt.encoded_len(), |h| {
            pkt.encode_into(h)
        });
    }

    fn reliability(&self) -> Reliability {
        self.negotiated
            .as_ref()
            .map_or(Reliability::None, |n| n.caps.reliability)
    }

    /// The arrival prologue both data paths share: RTT hint, timestamps,
    /// round start (arming the first feedback timer), gap detection and the
    /// RFC 3448 receiver. Returns the negotiated profile and whether the
    /// arrival calls for feedback at once; `None` before the handshake.
    fn arrive(
        &mut self,
        out: &mut Outbox,
        seq: u64,
        ts_nanos: u64,
        rtt_hint_micros: u32,
        payload: u32,
    ) -> Option<(CapabilitySet, bool)> {
        let caps = self.negotiated.as_ref()?.caps;
        if rtt_hint_micros > 0 {
            self.rtt_hint = Duration::from_micros(rtt_hint_micros as u64);
        }
        let sender_ts = SimTime::from_nanos(ts_nanos);
        self.last_pkt = Some((sender_ts, out.now));
        self.bytes_since_fb += payload as u64;
        if self.round_started.is_none() {
            self.round_started = Some(out.now);
            // First data packet: start the feedback cadence.
            let at = out.now + self.feedback_interval();
            self.arm_fb(out, at);
        }
        self.own_ops += 3; // counter updates + hint check

        // New-gap detection (drives immediate feedback in QTPlight mode).
        let new_gap = match self.highest_seen {
            Some(h) => seq > h + 1,
            None => false,
        };
        self.highest_seen = Some(self.highest_seen.map_or(seq, |h| h.max(seq)));

        // Heavy path: RFC 3448 receiver machinery.
        let loss_event_fb = match &mut self.negotiated {
            Some(Negotiated {
                loss: LossSource::Measured(tfrc),
                ..
            }) => {
                tfrc.on_data(out.now, seq, sender_ts, self.rtt_hint, payload)
                    .feedback_now
            }
            _ => false,
        };
        let immediate = loss_event_fb || (caps.feedback == FeedbackMode::SenderLoss && new_gap);
        Some((caps, immediate))
    }

    /// The arrival epilogue both data paths share: feedback at once on new
    /// loss evidence, then the cost meters.
    fn arrived(&mut self, out: &mut Outbox, immediate: bool) {
        if immediate {
            self.send_feedback(out);
        }
        self.record_costs();
    }

    fn on_data(
        &mut self,
        out: &mut Outbox,
        seq: u64,
        ts_nanos: u64,
        adu_ts_nanos: u64,
        rtt_hint_micros: u32,
        payload: u32,
    ) {
        let Some((caps, immediate)) = self.arrive(out, seq, ts_nanos, rtt_hint_micros, payload)
        else {
            return; // data before handshake: drop
        };
        if payload > 0 {
            self.payload_bytes = payload;
        }

        // Reassembly / delivery.
        let deliver_in_order = caps.reliability.retransmits();
        match self.buf.on_packet(seq) {
            qtp_sack::Arrival::Duplicate => {}
            qtp_sack::Arrival::New { delivered } => {
                if deliver_in_order {
                    if delivered > 0 {
                        // This packet plus any buffered run became deliverable.
                        out.app_deliver(self.data_flow, delivered * self.payload_bytes as u64);
                        let now_s = out.now.as_secs_f64();
                        let own_latency = now_s - adu_ts_nanos as f64 / 1e9;
                        let (pending, cum_ack) = (&mut self.pending_adu_ts, self.buf.cum_ack());
                        self.tracer.update(|c| {
                            c.latency_sum_s += own_latency.max(0.0);
                            c.latency_samples += 1;
                            // Buffered packets that just flushed.
                            flush_latencies(pending, cum_ack, now_s, c);
                        });
                    } else {
                        self.pending_adu_ts.insert(seq, adu_ts_nanos);
                    }
                } else {
                    // Unordered delivery: hand every new packet up at once.
                    out.app_deliver(self.data_flow, self.payload_bytes as u64);
                    let lat = (out.now.as_secs_f64() - adu_ts_nanos as f64 / 1e9).max(0.0);
                    self.tracer.update(|c| {
                        c.latency_sum_s += lat;
                        c.latency_samples += 1;
                    });
                }
            }
        }
        self.arrived(out, immediate);
    }

    /// Stream-mode data path: explicit payload bytes (still in the datagram
    /// they arrived in), receiver-side TTL enforcement, and message
    /// reassembly via [`StreamRx`].
    fn on_stream_data(&mut self, out: &mut Outbox, header: StreamDataHeader, payload: &[u8]) {
        let StreamDataHeader {
            seq,
            ts_nanos,
            adu_ts_nanos,
            rtt_hint_micros,
            is_retx,
            ttl_micros,
        } = header;
        let arrival = self.arrive(out, seq, ts_nanos, rtt_hint_micros, payload.len() as u32);
        let Some((caps, immediate)) = arrival else {
            return; // data before handshake: drop
        };

        // Receiver-side TTL enforcement: both timestamps are sender-clock,
        // so the age of this copy is backend-independent. Originals have
        // age 0 — only retransmissions can expire.
        let ttl_eff_micros = if ttl_micros > 0 {
            ttl_micros as u64
        } else {
            match caps.reliability {
                Reliability::Ttl(ttl) => ttl.as_micros() as u64,
                _ => u64::MAX,
            }
        };
        let age_micros = ts_nanos.saturating_sub(adu_ts_nanos) / 1_000;
        let expired = is_retx && ttl_eff_micros != u64::MAX && age_micros > ttl_eff_micros;

        if expired {
            if matches!(self.buf.on_expired(seq), qtp_sack::Arrival::New { .. }) {
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::PktDropped {
                        seq,
                        age_us: age_micros,
                    },
                );
            }
        } else {
            match self.buf.on_packet(seq) {
                qtp_sack::Arrival::Duplicate => {}
                qtp_sack::Arrival::New { .. } => {
                    out.app_deliver(self.data_flow, payload.len() as u64);
                    let lat = (out.now.as_secs_f64() - adu_ts_nanos as f64 / 1e9).max(0.0);
                    self.tracer.update(|c| {
                        c.latency_sum_s += lat;
                        c.latency_samples += 1;
                    });
                    if let Some(srx) = self.stream.as_mut() {
                        srx.on_payload(seq, payload, self.buf.cum_ack());
                    }
                }
            }
        }
        self.buf.settle_expired();
        if let Some(srx) = self.stream.as_mut() {
            srx.drain(self.buf.cum_ack());
        }
        self.arrived(out, immediate);
    }

    /// Close handshake: always acknowledge a FIN (the sender retries until
    /// acked), then surface the finish once all deliverable data is in.
    fn on_fin(&mut self, out: &mut Outbox, final_seq: u64) {
        let pkt = QtpPacket::FinAck { final_seq };
        self.send_control(out, PktKind::FinAck, final_seq, pkt.encoded_len(), |h| {
            pkt.encode_into(h)
        });
        if !self.fin_seen {
            self.fin_seen = true;
            self.own_ops += 1;
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::State(ConnState::Closed));
        }
        let ordered = self.stream.as_ref().map(|s| s.ordered()).unwrap_or(false);
        if !ordered && self.buf.cum_ack() < final_seq {
            // Non-retransmitting delivery: nothing below final_seq is coming
            // again — move past the holes like a sender FWD would.
            self.on_forward(out, final_seq);
        }
        self.buf.settle_expired();
        if let Some(srx) = self.stream.as_mut() {
            srx.on_fin(final_seq, self.buf.cum_ack());
            srx.drain(self.buf.cum_ack());
        }
    }

    /// One data packet processed: refresh the cost meters and peak state.
    fn record_costs(&mut self) {
        let (tfrc_ops, tfrc_state) = match &self.negotiated {
            Some(Negotiated {
                loss: LossSource::Measured(tfrc),
                ..
            }) => (tfrc.total_ops(), tfrc.state_bytes()),
            _ => (0, 0),
        };
        let buf_ops = self.buf.meter.total();
        let state = (tfrc_state + self.buf.state_bytes()) as u64;
        let own = self.own_ops;
        self.tracer.update(|c| {
            c.data_pkts_processed += 1;
            c.ops = tfrc_ops + buf_ops + own;
            c.state_bytes_peak = c.state_bytes_peak.max(state);
        });
    }

    fn feedback_interval(&self) -> Duration {
        self.rtt_hint.max(Duration::from_millis(10))
    }

    /// Receive rate over the current round, bytes/second.
    fn x_recv(&self, now: SimTime) -> f64 {
        match self.round_started {
            Some(start) => {
                let dt = now.saturating_since(start).as_secs_f64();
                if dt <= 0.0 {
                    0.0
                } else {
                    self.bytes_since_fb as f64 / dt
                }
            }
            None => 0.0,
        }
    }

    fn send_feedback(&mut self, out: &mut Outbox) {
        let Some((last_ts, last_rx_time)) = self.last_pkt else {
            return; // nothing received yet
        };
        let x_recv_honest = self.x_recv(out.now);
        let t_delay = out.now.saturating_since(last_rx_time);
        let selfish = self.selfish_factor.max(1.0);
        // Data is taken only once negotiated.
        let Some(Negotiated { caps, loss }) = self.negotiated.as_mut() else {
            return;
        };
        let caps = *caps;

        let (p_ppb, x_recv) = match loss {
            LossSource::Measured(tfrc) => {
                // Build the RFC 3448 report (also rolls the x_recv round
                // inside the TFRC receiver; we use our own counter for the
                // wire value so both modes measure identically).
                let fb = tfrc.build_feedback(out.now);
                let p_honest = fb.map(|f| f.p).unwrap_or(0.0);
                let p_reported = p_honest / selfish;
                self.own_ops += 2;
                (Some(p_to_ppb(p_reported)), x_recv_honest * selfish)
            }
            LossSource::AtSender => {
                self.own_ops += 2;
                (None, x_recv_honest * selfish)
            }
        };

        let cum_ack = self.buf.cum_ack();
        let mut fb = FeedbackFields {
            ts_echo_nanos: last_ts.as_nanos(),
            t_delay_micros: t_delay.as_micros() as u32,
            x_recv: x_recv as u64,
            p_ppb,
            cum_ack,
            blocks: [FeedbackFields::NO_BLOCK; MAX_FB_BLOCKS],
            n_blocks: 0,
        };
        // SACK blocks only when someone consumes them (reliability at the
        // sender, or sender-side loss estimation).
        if caps.reliability.retransmits() || caps.feedback == FeedbackMode::SenderLoss {
            fb.n_blocks = self.buf.sack_blocks_into(&mut fb.blocks);
        }
        self.send_control(out, PktKind::Feedback, cum_ack, fb.encoded_len(), |h| {
            fb.encode_into(h)
        });
        self.bytes_since_fb = 0;
        self.round_started = Some(out.now);
    }

    fn on_forward(&mut self, out: &mut Outbox, new_cum: u64) {
        let before_delivered = self.buf.delivered_total();
        self.buf.on_forward(new_cum);
        // Buffered packets released by the jump count as delivered.
        let released = self.buf.delivered_total() - before_delivered;
        // Stream mode accounts delivery per arrival; releasing buffered
        // runs here would double-count.
        if released > 0 && self.reliability().retransmits() && self.stream.is_none() {
            out.app_deliver(self.data_flow, released * self.payload_bytes as u64);
            let (pending, cum_ack) = (&mut self.pending_adu_ts, self.buf.cum_ack());
            let now_s = out.now.as_secs_f64();
            self.tracer
                .update(|c| flush_latencies(pending, cum_ack, now_s, c));
        }
        self.own_ops += 2;
    }
}

/// Count the delivery latency of every buffered ADU below `cum_ack` and
/// forget it. Ascending sequence order is delivery order, and it fixes the
/// float sums, so a fixed seed reproduces them bit for bit.
fn flush_latencies(pending: &mut BTreeMap<u64, u64>, cum_ack: u64, now_s: f64, c: &mut CounterSet) {
    while let Some(entry) = pending.first_entry() {
        if *entry.key() >= cum_ack {
            break;
        }
        let ts = entry.remove();
        c.latency_sum_s += (now_s - ts as f64 / 1e9).max(0.0);
        c.latency_samples += 1;
    }
}

impl Endpoint for QtpReceiver {
    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        let header_len = header.len() as u32;
        let Ok(decoded) = PacketRef::parse(header) else {
            return;
        };
        match decoded {
            PacketRef::StreamData { header, payload } => {
                self.trace_recvd(out, PktKind::Data, header.seq, wire_size);
                self.on_stream_data(out, header, payload)
            }
            PacketRef::Other(QtpPacket::Syn { ts_nanos, offered }) => {
                self.trace_recvd(out, PktKind::Syn, 0, wire_size);
                self.on_syn(out, ts_nanos, offered)
            }
            PacketRef::Other(QtpPacket::Data {
                seq,
                ts_nanos,
                adu_ts_nanos,
                rtt_hint_micros,
                ..
            }) => {
                self.trace_recvd(out, PktKind::Data, seq, wire_size);
                let payload = wire_size.saturating_sub(header_len + IP_OVERHEAD);
                self.on_data(out, seq, ts_nanos, adu_ts_nanos, rtt_hint_micros, payload);
            }
            PacketRef::Other(QtpPacket::Forward { new_cum }) => {
                self.trace_recvd(out, PktKind::Forward, new_cum, wire_size);
                self.on_forward(out, new_cum);
                self.buf.settle_expired();
                if let Some(srx) = self.stream.as_mut() {
                    srx.drain(self.buf.cum_ack());
                }
            }
            PacketRef::Other(QtpPacket::Fin { final_seq }) => {
                self.trace_recvd(out, PktKind::Fin, final_seq, wire_size);
                self.on_fin(out, final_seq)
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        if self.gens.live(token).is_none() {
            self.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::TimerCancelled {
                    kind: (token & 3) as u8,
                },
            );
            return;
        }
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::TimerFired { kind: TK_FB as u8 },
        );
        // Periodic feedback: send only if data arrived this round.
        if self.bytes_since_fb > 0 {
            self.send_feedback(out);
        }
        let at = out.now + self.feedback_interval();
        self.arm_fb(out, at);
    }
}
