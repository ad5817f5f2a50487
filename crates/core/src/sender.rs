//! The QTP sender endpoint: the composed transport (paper §1's "versatile
//! transport protocol" on the sending side).
//!
//! One state machine hosts every negotiated composition:
//!
//! * **congestion control** — the negotiated [`CongestionControl`]
//!   controller (TFRC, gTFRC, fixed rate, CUBIC, or BBR-lite — see
//!   [`controller_for`]) paces transmissions;
//! * **reliability** — a [`Scoreboard`] + [`ReliabilityPolicy`] decide
//!   which declared losses to retransmit and which to abandon (emitting
//!   `FWD` to move the receiver past them);
//! * **feedback** — in `ReceiverLoss` mode the loss event rate comes from
//!   the feedback packet; in `SenderLoss` (QTPlight) mode it comes from
//!   the local [`SenderLossEstimator`] fed by SACK declarations.
//!
//! The endpoint is sans-io: it implements the transport-neutral
//! [`Endpoint`] seam, reacting to datagrams and timers and emitting
//! transmit/timer commands into an [`Outbox`]. It is crate-private: a
//! [`Session`](crate::session::Session) wraps it, and every driver mounts
//! the session.
//!
//! [`ReliabilityPolicy`]: qtp_sack::ReliabilityPolicy

use qtp_metrics::trace::{ConnState, PktKind, TraceEventKind, Tracer};
use qtp_sack::{Reliability, Scoreboard, SeqRange};
use qtp_simnet::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

use qtp_cc::{CcState, CongestionControl, FeedbackReport};

use crate::caps::{CapabilitySet, FeedbackMode};
use crate::cc::controller_for;
use crate::driver::{Endpoint, Outbox, TimerGens};
use crate::estimator::SenderLossEstimator;
use crate::stream::{Chunk, SendStream, StreamConfig, StreamTx};
use crate::wire::{
    ppb_to_p, FeedbackFields, PacketRef, QtpPacket, StreamDataHeader, IP_OVERHEAD,
    MAX_STREAM_PAYLOAD, STREAM_DATA_HEADER_LEN,
};

/// What the application on top of the sender does.
#[derive(Debug, Clone)]
pub enum AppModel {
    /// Infinite backlog (bulk transfer / greedy source).
    Greedy,
    /// Send exactly this many packets, then stop (but keep retransmitting
    /// until acknowledged under reliable modes).
    Finite { packets: u64 },
    /// Application-limited media source: ADUs of `adu_packets` packets
    /// generated at `rate`; stale ADUs may be dropped at the sender under
    /// TTL reliability before ever being transmitted.
    Cbr { rate: Rate, adu_packets: u32 },
}

impl AppModel {
    /// A media-like source: `rate` worth of 1-packet ADUs.
    pub fn cbr(rate: Rate) -> AppModel {
        AppModel::Cbr {
            rate,
            adu_packets: 1,
        }
    }
}

/// Sender configuration, lowered from a plan by
/// [`ConnectionPlan::sender_config`](crate::session::ConnectionPlan::sender_config).
#[derive(Debug, Clone)]
pub(crate) struct QtpSenderConfig {
    /// Profile to offer in the handshake.
    pub(crate) offered: CapabilitySet,
    /// Payload bytes per data packet.
    pub(crate) s: u32,
    /// Application model.
    pub(crate) app: AppModel,
    /// **D1 ablation** (experiments only): disable RTT-window loss-event
    /// grouping in the sender-side estimator, so every lost packet counts
    /// as its own loss event.
    pub(crate) ablate_ungrouped_losses: bool,
    /// Application data plane: when set, traffic comes from a
    /// [`SendStream`] instead of the synthetic [`AppModel`].
    pub(crate) stream: Option<StreamConfig>,
}

/// Timer token kinds (low 2 bits of the token; the rest is a generation —
/// see [`TimerGens`]).
const TK_SYN: u64 = 0;
const TK_PACE: u64 = 1;
const TK_NOFB: u64 = 2;
const TK_APP: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    AwaitSynAck,
    Running,
}

/// The QTP sender endpoint.
pub(crate) struct QtpSender {
    flow: FlowId,
    receiver_node: NodeId,
    cfg: QtpSenderConfig,
    state: State,
    chosen: Option<CapabilitySet>,
    cc: Option<Box<dyn CongestionControl>>,
    /// Last controller phase code surfaced in the trace (BBR-lite), so
    /// transitions emit exactly one `CcPhaseChange`.
    last_cc_phase: Option<u8>,
    sb: Scoreboard,
    policy: qtp_sack::ReliabilityPolicy,
    estimator: Option<SenderLossEstimator>,
    /// Pending application packets: submission time of each not-yet-sent
    /// packet (only bounded for the Cbr model).
    backlog: std::collections::VecDeque<SimTime>,
    /// Packets handed to the network as *new* data so far.
    sent_new: u64,
    /// ADU submission time per sequence (for retransmission headers and
    /// latency measurement); pruned as the cumulative ack advances.
    adu_ts: BTreeMap<u64, SimTime>,
    /// Timer generations per token kind.
    gens: TimerGens<4>,
    /// When the armed pace tick is due — the anchor of the pacing schedule
    /// (see [`QtpSender::on_pace`]).
    pace_due: SimTime,
    /// Last time a FWD was emitted (rate-limited to once per RTT).
    last_fwd: SimTime,
    /// Latest receive-rate report (for estimator synthesis).
    last_x_recv: f64,
    /// Stream data plane (replaces `cfg.app` as the traffic source); also
    /// keeps sent chunks readable for retransmission until acknowledged.
    stream: Option<StreamTx>,
    /// `Session::close` requested a graceful shutdown.
    close_requested: bool,
    /// When the last FIN copy went out (None = not yet sent).
    fin_sent_at: Option<SimTime>,
    fin_retries: u32,
    fin_acked: bool,
    /// Terminal: close handshake finished (or given up on); timers are no
    /// longer re-armed so driver timer state drains naturally.
    closed: bool,
    /// Observability: typed event emission + per-connection counters.
    tracer: Tracer,
}

/// FIN retransmission attempts before closing unilaterally.
const FIN_MAX_RETRIES: u32 = 8;

/// Most schedule lateness the pace timer repays with back-to-back ticks;
/// a longer stall is forgiven, so catch-up never exceeds 1 ms worth of
/// packets (about 24 at 200 Mbit/s, well inside a default socket buffer).
const DEBT_CAP: Duration = Duration::from_millis(1);

impl QtpSender {
    pub(crate) fn new(flow: FlowId, receiver_node: NodeId, cfg: QtpSenderConfig) -> Self {
        let policy = qtp_sack::ReliabilityPolicy::new(cfg.offered.reliability);
        let chunked = matches!(cfg.offered.reliability, Reliability::Full);
        let stream = cfg.stream.as_ref().map(|sc| StreamTx::new(sc, chunked));
        QtpSender {
            flow,
            receiver_node,
            cfg,
            state: State::AwaitSynAck,
            chosen: None,
            cc: None,
            last_cc_phase: None,
            sb: Scoreboard::new(),
            policy,
            estimator: None,
            backlog: std::collections::VecDeque::new(),
            sent_new: 0,
            adu_ts: BTreeMap::new(),
            gens: TimerGens::new(),
            pace_due: SimTime::ZERO,
            last_fwd: SimTime::ZERO,
            last_x_recv: 0.0,
            stream,
            close_requested: false,
            fin_sent_at: None,
            fin_retries: 0,
            fin_acked: false,
            closed: false,
            tracer: Tracer::new(0),
        }
    }

    /// This endpoint's [`Tracer`] handle (clones share counters + sink).
    pub(crate) fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// App-facing handle for the stream data plane (if configured).
    pub(crate) fn send_stream(&self) -> Option<SendStream> {
        self.stream.as_ref().map(|s| s.handle())
    }

    /// Shared sender-side stream state, for `Session` event polling.
    pub(crate) fn stream_shared(
        &self,
    ) -> Option<std::rc::Rc<std::cell::RefCell<crate::stream::SendShared>>> {
        self.stream.as_ref().map(|s| s.shared())
    }

    /// Starts a graceful shutdown: stop accepting new data, drain, then run
    /// the FIN / FIN-ACK handshake from the pace timer.
    pub(crate) fn begin_close(&mut self) {
        self.close_requested = true;
        if let Some(s) = &self.stream {
            s.handle().finish();
        }
        if self.state != State::Running {
            // Nothing on the wire yet: close locally.
            self.closed = true;
        }
    }

    /// True once the wire-level close handshake completed (FIN acknowledged
    /// or retries exhausted).
    pub(crate) fn close_complete(&self) -> bool {
        self.closed
    }

    /// The negotiated profile (once the handshake completed).
    pub(crate) fn negotiated(&self) -> Option<CapabilitySet> {
        self.chosen
    }

    /// Whether every packet handed to the network has been acknowledged
    /// (loop-termination signal for real-I/O drivers).
    pub(crate) fn all_acked(&self) -> bool {
        self.sb.all_acked()
    }

    /// New (never-retransmitted) packets handed to the network so far.
    pub(crate) fn sent_new(&self) -> u64 {
        self.sent_new
    }

    // ---- timers -------------------------------------------------------

    fn arm(&mut self, out: &mut Outbox, kind: u64, at: SimTime) {
        out.set_timer_at(at, self.gens.arm(kind));
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::TimerSet {
                kind: kind as u8,
                at_nanos: at.as_nanos(),
            },
        );
    }

    fn arm_pace(&mut self, out: &mut Outbox, at: SimTime) {
        self.pace_due = at;
        self.arm(out, TK_PACE, at);
    }

    // ---- handshake ----------------------------------------------------

    fn send_syn(&mut self, out: &mut Outbox) {
        let pkt = QtpPacket::Syn {
            ts_nanos: out.now.as_nanos(),
            offered: self.cfg.offered,
        };
        self.send_control(out, PktKind::Syn, 0, &pkt);
        self.arm(out, TK_SYN, out.now + Duration::from_secs(1));
    }

    fn on_synack(&mut self, out: &mut Outbox, ts_echo_nanos: u64, chosen: CapabilitySet) {
        if self.state == State::Running {
            return; // duplicate SYNACK
        }
        self.state = State::Running;
        self.chosen = Some(chosen);
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::State(ConnState::Connected),
        );
        let rtt = out
            .now
            .saturating_since(SimTime::from_nanos(ts_echo_nanos))
            .max(Duration::from_micros(100));
        let mut cc = controller_for(chosen.cc, self.cfg.s);
        cc.seed_rtt(out.now, rtt);
        self.cc = Some(cc);
        self.policy = qtp_sack::ReliabilityPolicy::new(chosen.reliability);
        if chosen.feedback == FeedbackMode::SenderLoss {
            let mut est = SenderLossEstimator::new(self.cfg.s);
            est.set_grouping(!self.cfg.ablate_ungrouped_losses);
            self.estimator = Some(est);
        }
        // Negotiation may have changed the reliability class; re-lock the
        // stream framing mode before any stream data goes out.
        if let Some(s) = &self.stream {
            s.set_chunked(matches!(chosen.reliability, Reliability::Full));
        }
        // Kick off app generation (Cbr) and pacing.
        if let AppModel::Cbr { .. } = self.cfg.app {
            self.arm(out, TK_APP, out.now);
        }
        self.arm_pace(out, out.now);
        let nofb = self.cc.as_ref().unwrap().nofeedback_deadline();
        self.arm(out, TK_NOFB, nofb);
    }

    // ---- application --------------------------------------------------

    /// Is a new (never-sent) packet available right now?
    fn app_has_data(&self) -> bool {
        if let Some(s) = &self.stream {
            return s.has_data();
        }
        if self.close_requested {
            return false;
        }
        match self.cfg.app {
            AppModel::Greedy => true,
            AppModel::Finite { packets } => self.sent_new < packets,
            AppModel::Cbr { .. } => !self.backlog.is_empty(),
        }
    }

    /// Submission time of the next new packet.
    fn next_submit_ts(&mut self, now: SimTime) -> SimTime {
        match self.cfg.app {
            AppModel::Cbr { .. } => self.backlog.pop_front().unwrap_or(now),
            _ => now,
        }
    }

    fn on_app_tick(&mut self, out: &mut Outbox) {
        if self.closed {
            return;
        }
        let AppModel::Cbr { rate, adu_packets } = self.cfg.app else {
            return;
        };
        for _ in 0..adu_packets {
            self.backlog.push_back(out.now);
        }
        let interval = Duration::from_secs_f64(
            adu_packets as f64 * self.cfg.s as f64 * 8.0 / rate.bps() as f64,
        );
        self.arm(out, TK_APP, out.now + interval);
    }

    /// Sender-side staleness drop (TTL reliability, Cbr model): stale ADUs
    /// are discarded before ever being transmitted.
    fn drop_stale_backlog(&mut self, now: SimTime) {
        if let Reliability::Ttl(ttl) = self
            .chosen
            .map(|c| c.reliability)
            .unwrap_or(Reliability::None)
        {
            while let Some(&submit) = self.backlog.front() {
                if now.saturating_since(submit) >= ttl {
                    self.backlog.pop_front();
                    self.tracer
                        .emit(now.as_nanos(), TraceEventKind::PktExpired { seq: 0 });
                } else {
                    break;
                }
            }
        }
    }

    // ---- transmission -------------------------------------------------

    /// Queue a header-only packet (SYN, FORWARD, FIN) toward the receiver
    /// and trace it under `seq`.
    fn send_control(&self, out: &mut Outbox, kind: PktKind, seq: u64, pkt: &QtpPacket) {
        let mut header = out.buffer(pkt.encoded_len());
        pkt.encode_into(&mut header);
        let bytes = header.len() as u32 + IP_OVERHEAD;
        out.send_new(self.flow, self.receiver_node, bytes, header);
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

    fn rtt_hint_micros(&self) -> u32 {
        self.cc
            .as_ref()
            .and_then(|cc| cc.rtt())
            .map(|r| r.as_micros() as u32)
            .unwrap_or(0)
    }

    /// Queue an encoded data packet of accounted size `size` and tell the
    /// controller and the trace about it.
    fn emit_data(&mut self, out: &mut Outbox, seq: u64, size: u32, header: Vec<u8>, is_retx: bool) {
        out.send_new(self.flow, self.receiver_node, size, header);
        if let Some(cc) = self.cc.as_mut() {
            cc.on_send(out.now, size);
        }
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::PktSent {
                kind: PktKind::Data,
                seq,
                bytes: size,
                retx: is_retx,
            },
        );
    }

    fn send_data(&mut self, out: &mut Outbox, seq: u64, adu_ts: SimTime, is_retx: bool) {
        let pkt = QtpPacket::Data {
            seq,
            ts_nanos: out.now.as_nanos(),
            adu_ts_nanos: adu_ts.as_nanos(),
            rtt_hint_micros: self.rtt_hint_micros(),
            is_retx,
        };
        let mut header = out.buffer(pkt.encoded_len());
        pkt.encode_into(&mut header);
        // The simulated payload is accounted, never materialised.
        let size = self.cfg.s + header.len() as u32 + IP_OVERHEAD;
        self.emit_data(out, seq, size, header, is_retx);
    }

    /// Header fields and payload go straight from the send store into one
    /// transmit buffer lent by the outbox.
    fn send_stream_data(&mut self, out: &mut Outbox, seq: u64, chunk: &Chunk, is_retx: bool) {
        let fields = StreamDataHeader {
            seq,
            ts_nanos: out.now.as_nanos(),
            adu_ts_nanos: chunk.adu_ts.as_nanos(),
            rtt_hint_micros: self.rtt_hint_micros(),
            is_retx,
            ttl_micros: chunk.ttl_micros,
        };
        let mut header = out.buffer(STREAM_DATA_HEADER_LEN + chunk.payload_len());
        fields.encode_into(chunk.payload_len(), &mut header);
        let stream = self.stream.as_ref().expect("stream chunks imply a stream");
        stream.copy_payload(chunk, &mut header);
        // The payload rides inside the header bytes; only IP overhead on top.
        let size = header.len() as u32 + IP_OVERHEAD;
        self.emit_data(out, seq, size, header, is_retx);
    }

    /// Stream-mode transmission: retransmit retained chunks first, then
    /// packetise new bytes from the send store. Returns whether a data
    /// packet went out.
    fn send_one_stream(&mut self, out: &mut Outbox) -> bool {
        while let Some(seq) = self.sb.next_lost() {
            let retx_count = self.sb.retx_count(seq);
            let decision = self.policy.on_loss(seq, out.now, retx_count);
            let stream = self.stream.as_mut().expect("stream mode");
            if decision == qtp_sack::LossDecision::Retransmit {
                if let Some(chunk) = stream.chunk(seq) {
                    self.sb.register_retransmit(seq, out.now);
                    self.send_stream_data(out, seq, &chunk, true);
                    return true;
                }
            }
            self.sb.abandon(seq);
            stream.abandon(seq);
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::PktExpired { seq });
        }
        let max = (self.cfg.s as usize).min(MAX_STREAM_PAYLOAD);
        let stream = self.stream.as_mut().expect("stream mode");
        let Some(chunk) = stream.next_chunk(max, out.now) else {
            return false;
        };
        let seq = self.sb.register_send(out.now);
        self.sent_new += 1;
        let reliability = self.chosen.map(|c| c.reliability);
        if matches!(reliability, Some(Reliability::Ttl(_))) {
            self.policy
                .register_adu(SeqRange::new(seq, seq + 1), out.now);
        }
        let retained = reliability.map(|r| r.retransmits()).unwrap_or(false);
        if retained {
            stream.retain(seq, chunk);
        }
        self.send_stream_data(out, seq, &chunk, false);
        if !retained {
            // Nothing re-reads these bytes, and without retransmission the
            // cumulative ack may never pass a hole: release them now.
            self.stream.as_mut().expect("stream mode").trim();
        }
        true
    }

    /// Transmit one packet if anything is eligible: retransmissions first
    /// (policy permitting), then new data. Returns whether a data packet
    /// went out.
    fn send_one(&mut self, out: &mut Outbox) -> bool {
        if self.stream.is_some() {
            return self.send_one_stream(out);
        }
        self.drop_stale_backlog(out.now);
        // Retransmissions have priority under reliable modes.
        while let Some(seq) = self.sb.next_lost() {
            let retx_count = self.sb.retx_count(seq);
            let decision = self.policy.on_loss(seq, out.now, retx_count);
            if decision == qtp_sack::LossDecision::Retransmit {
                let adu_ts = self.adu_ts.get(&seq).copied().unwrap_or(out.now);
                self.sb.register_retransmit(seq, out.now);
                self.send_data(out, seq, adu_ts, true);
                return true;
            }
            // Abandoned: drop from the retransmission queue and keep going.
            self.sb.abandon(seq);
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::PktExpired { seq });
        }
        if self.app_has_data() {
            let submit = self.next_submit_ts(out.now);
            let seq = self.sb.register_send(out.now);
            self.sent_new += 1;
            let reliability = self.chosen.map(|c| c.reliability);
            if matches!(reliability, Some(Reliability::Ttl(_))) {
                self.policy
                    .register_adu(SeqRange::new(seq, seq + 1), submit);
            }
            if reliability.map(|r| r.retransmits()).unwrap_or(false) {
                self.adu_ts.insert(seq, submit);
            }
            self.send_data(out, seq, submit, false);
            return true;
        }
        false
    }

    /// Emit a FWD if the policy abandoned data the receiver is waiting for.
    fn maybe_send_forward(&mut self, out: &mut Outbox) {
        let Some(fp) = self.policy.forward_point(self.sb.cum_ack()) else {
            return;
        };
        let rtt = self
            .cc
            .as_ref()
            .and_then(|cc| cc.rtt())
            .unwrap_or(Duration::from_millis(100));
        if out.now.saturating_since(self.last_fwd) < rtt {
            return;
        }
        self.last_fwd = out.now;
        let pkt = QtpPacket::Forward { new_cum: fp };
        self.send_control(out, PktKind::Forward, fp, &pkt);
    }

    /// One pace tick: send at most one data packet, then re-arm.
    ///
    /// **The pacing rule is anchored on when the tick was due, not on when
    /// it ran.** A tick that sent a data packet re-arms at
    /// `max(due + interval, now − DEBT_CAP)`: over a real socket the event
    /// loop delivers ticks late (scheduler wake-up slack, time spent on
    /// other connections), and re-arming at `now + interval` would turn
    /// every microsecond of that lateness into rate lost for good — the
    /// gTFRC floor `g` would be a ceiling the host never reaches. Anchored
    /// on `due`, a late tick leaves the next one due sooner, possibly at
    /// once, so the lateness is repaid one packet per tick; lateness beyond
    /// [`DEBT_CAP`] is forgiven, which bounds the catch-up after a stall. A
    /// tick that sent nothing (no data, window closed) re-arms at
    /// `now + interval`: idle time earns no credit to burst with later.
    ///
    /// **Virtual-clock identity.** The simulator and the poll-style
    /// harnesses fire a timer at its deadline, so `due == now` on every
    /// tick there, `due + interval > now − DEBT_CAP`, and both branches
    /// reduce to `now + interval` — the schedule, and with it every golden
    /// and every count, is bit-for-bit what it was before the anchor.
    fn on_pace(&mut self, out: &mut Outbox) {
        if self.state != State::Running || self.closed {
            return; // closed: let the timer lapse without re-arming
        }
        self.check_tail_loss(out.now);
        // Window-based controllers bound unacknowledged bytes in flight;
        // when the window is full the pace timer keeps ticking but no
        // packet leaves. Rate-based controllers return no limit, so their
        // scheduling is untouched.
        let window_open = match self.cc.as_ref().and_then(|cc| cc.cwnd_limit()) {
            Some(limit) => self.sb.in_flight() * u64::from(self.cfg.s) < limit,
            None => true,
        };
        let sent = window_open && self.send_one(out);
        self.maybe_send_forward(out);
        self.maybe_send_fin(out);
        if self.closed {
            return;
        }
        let interval = self.cc.as_ref().unwrap().send_interval();
        // Clamp pathological intervals so the event loop stays healthy.
        let interval = interval.clamp(Duration::from_micros(10), Duration::from_secs(2));
        let next = if sent {
            (self.pace_due + interval).max(out.now - DEBT_CAP)
        } else {
            out.now + interval
        };
        self.arm_pace(out, next);
    }

    // ---- wire-level close ---------------------------------------------

    /// Drained and ready to FIN: close was requested (via `Session::close`
    /// or `SendStream::finish`), every byte has been packetised, and — under
    /// retransmitting modes — every packet acknowledged or abandoned.
    fn fin_ready(&self) -> bool {
        let requested =
            self.close_requested || self.stream.as_ref().map(|s| s.fin_ready()).unwrap_or(false);
        if !requested {
            return false;
        }
        if self.app_has_data() || self.sb.next_lost().is_some() {
            return false;
        }
        let retransmits = self
            .chosen
            .map(|c| c.reliability.retransmits())
            .unwrap_or(false);
        !retransmits || self.sb.all_acked()
    }

    /// (Re)send FIN from the pace cadence with an RTO-style backoff; after
    /// [`FIN_MAX_RETRIES`] unanswered copies, close unilaterally.
    fn maybe_send_fin(&mut self, out: &mut Outbox) {
        if self.fin_acked || self.closed || !self.fin_ready() {
            return;
        }
        let rtt = self
            .cc
            .as_ref()
            .and_then(|cc| cc.rtt())
            .unwrap_or(Duration::from_millis(100));
        let rto = (rtt * 2).max(Duration::from_millis(50));
        let due = match self.fin_sent_at {
            None => true,
            Some(t) => out.now.saturating_since(t) >= rto,
        };
        if !due {
            return;
        }
        if self.fin_retries >= FIN_MAX_RETRIES {
            self.closed = true;
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::State(ConnState::Closed));
            return;
        }
        self.fin_retries += 1;
        self.fin_sent_at = Some(out.now);
        let final_seq = self.sb.next_seq();
        let pkt = QtpPacket::Fin { final_seq };
        self.send_control(out, PktKind::Fin, final_seq, &pkt);
    }

    fn on_finack(&mut self, now_nanos: u64) {
        if self.fin_sent_at.is_some() {
            self.fin_acked = true;
            self.closed = true;
            self.tracer
                .emit(now_nanos, TraceEventKind::State(ConnState::Closed));
        }
    }

    /// Tail-loss fallback: if the oldest outstanding packet has seen no
    /// progress for several RTTs, presume everything unsacked lost so the
    /// reliability machinery can act (SACK cannot report tail losses).
    fn check_tail_loss(&mut self, now: SimTime) {
        let retransmits = self
            .chosen
            .map(|c| c.reliability.retransmits())
            .unwrap_or(false);
        if !retransmits || self.sb.all_acked() {
            return;
        }
        let rtt = self
            .cc
            .as_ref()
            .and_then(|cc| cc.rtt())
            .unwrap_or(Duration::from_millis(100));
        let timeout = (rtt * 4).max(Duration::from_millis(500));
        if let Some(oldest) = self.sb.oldest_outstanding_send_time() {
            if now.saturating_since(oldest) > timeout {
                let range = SeqRange::new(self.sb.cum_ack(), self.sb.next_seq());
                self.sb.force_mark_lost(range);
            }
        }
    }

    // ---- feedback -----------------------------------------------------

    fn on_feedback_pkt(&mut self, out: &mut Outbox, fb: FeedbackFields) {
        let FeedbackFields {
            ts_echo_nanos,
            t_delay_micros,
            x_recv,
            p_ppb,
            cum_ack,
            ..
        } = fb;
        if self.state != State::Running || self.closed {
            return;
        }
        let prev_cum = self.sb.cum_ack();
        let digest = self.sb.on_feedback(cum_ack, fb.blocks());
        if self.sb.cum_ack() > prev_cum {
            let cum_ack = self.sb.cum_ack();
            self.policy.prune(cum_ack);
            while self
                .adu_ts
                .first_key_value()
                .is_some_and(|(&seq, _)| seq < cum_ack)
            {
                self.adu_ts.pop_first();
            }
            if let Some(stream) = self.stream.as_mut() {
                stream.release(self.sb.cum_ack());
            }
        }
        self.last_x_recv = x_recv as f64;

        // Reliability: route newly-declared losses through the policy.
        if !digest.newly_lost.is_empty() {
            self.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::LossEvent {
                    pkts: digest.newly_lost.len() as u32,
                },
            );
            let retransmits = self
                .chosen
                .map(|c| c.reliability.retransmits())
                .unwrap_or(false);
            if !retransmits {
                // Nothing will be retransmitted: abandon immediately so the
                // receiver can be moved past the holes.
                for &(seq, _) in &digest.newly_lost {
                    let _ = self.policy.on_loss(seq, out.now, 0);
                    self.sb.abandon(seq);
                }
            }
        }

        // The composition seam: where does p come from?
        let chosen = self.chosen.expect("running implies negotiated");
        let p = match chosen.feedback {
            FeedbackMode::ReceiverLoss => p_ppb.map(ppb_to_p).unwrap_or(0.0),
            FeedbackMode::SenderLoss => {
                let est = self
                    .estimator
                    .as_mut()
                    .expect("SenderLoss mode implies estimator");
                let rtt = self
                    .cc
                    .as_ref()
                    .and_then(|cc| cc.rtt())
                    .unwrap_or(Duration::from_millis(100));
                est.on_losses(&digest.newly_lost, rtt, x_recv as f64);
                est.loss_event_rate(self.sb.highest_seen())
            }
        };

        let report = FeedbackReport {
            now: out.now,
            ts_echo: SimTime::from_nanos(ts_echo_nanos),
            t_delay: Duration::from_micros(t_delay_micros as u64),
            x_recv: x_recv as f64,
            p,
            newly_acked_bytes: (self.sb.cum_ack() - prev_cum) * self.cfg.s as u64,
            newly_lost_pkts: digest.newly_lost.len() as u32,
        };
        let cc = self.cc.as_mut().unwrap();
        cc.on_feedback(&report);
        let rate = cc.allowed_rate();
        let nofb = cc.nofeedback_deadline();
        let rtt_s = cc.rtt().map(|r| r.as_secs_f64()).unwrap_or(0.0);
        self.arm(out, TK_NOFB, nofb);
        let (cc_ops, est_ops, sb_ops) = (
            self.cc.as_ref().unwrap().ops(),
            self.estimator.as_ref().map(|e| e.total_ops()).unwrap_or(0),
            self.sb.meter.total(),
        );
        let now = out.now;
        self.tracer.emit(
            now.as_nanos(),
            TraceEventKind::RateUpdate {
                rate_bps: (rate * 8.0) as u64,
                p_ppm: ((p * 1e6) as u32).min(1_000_000),
                rtt_us: (rtt_s * 1e6) as u64,
            },
        );
        self.tracer.update(|c| {
            c.p_sum += p;
            c.srtt_s = rtt_s;
            c.ops = cc_ops + est_ops + sb_ops;
        });
        self.emit_cc_state(now);
        // Feedback may unblock the window (e.g. new losses to retransmit).
        self.maybe_send_forward(out);
    }

    /// Surface the typed controller snapshot for the window/model
    /// controllers. The TFRC-family states emit nothing extra here, so
    /// traces of pre-existing runs stay frozen.
    fn emit_cc_state(&mut self, now: SimTime) {
        let Some(state) = self.cc.as_ref().map(|cc| cc.state()) else {
            return;
        };
        match state {
            CcState::RateBased { .. } | CcState::FixedRate { .. } => {}
            CcState::Cubic {
                cwnd_bytes,
                w_max_bytes,
                tcp_friendly,
            } => self.tracer.emit(
                now.as_nanos(),
                TraceEventKind::CubicState {
                    cwnd_bytes,
                    w_max_bytes,
                    tcp_friendly,
                },
            ),
            CcState::BbrLite {
                phase,
                btlbw_bps,
                min_rtt_us,
            } => {
                let code = phase.code();
                if self.last_cc_phase.is_some() && self.last_cc_phase != Some(code) {
                    self.tracer.emit(
                        now.as_nanos(),
                        TraceEventKind::CcPhaseChange {
                            phase: code,
                            at_us: now.as_nanos() / 1_000,
                        },
                    );
                }
                self.last_cc_phase = Some(code);
                self.tracer.emit(
                    now.as_nanos(),
                    TraceEventKind::BbrState {
                        phase: code,
                        btlbw_bps,
                        min_rtt_us,
                    },
                );
            }
        }
    }

    fn on_nofb(&mut self, out: &mut Outbox) {
        if self.closed {
            return;
        }
        let Some(cc) = self.cc.as_mut() else { return };
        if out.now >= cc.nofeedback_deadline() {
            cc.on_nofeedback_timer(out.now);
        }
        let next = self.cc.as_ref().unwrap().nofeedback_deadline();
        self.arm(out, TK_NOFB, next);
    }
}

impl Endpoint for QtpSender {
    fn on_start(&mut self, out: &mut Outbox) {
        self.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::State(ConnState::Started),
        );
        self.send_syn(out);
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        let Ok(decoded) = PacketRef::parse(header) else {
            return;
        };
        match decoded {
            PacketRef::Other(QtpPacket::SynAck {
                ts_echo_nanos,
                chosen,
            }) => {
                self.trace_recvd(out, PktKind::SynAck, 0, wire_size);
                self.on_synack(out, ts_echo_nanos, chosen)
            }
            PacketRef::Feedback(fb) => {
                self.trace_recvd(out, PktKind::Feedback, fb.cum_ack, wire_size);
                self.on_feedback_pkt(out, fb)
            }
            PacketRef::Other(QtpPacket::FinAck { final_seq }) => {
                self.trace_recvd(out, PktKind::FinAck, final_seq, wire_size);
                self.on_finack(out.now.as_nanos())
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        match self.gens.live(token) {
            Some(kind) => {
                self.tracer.emit(
                    out.now.as_nanos(),
                    TraceEventKind::TimerFired { kind: kind as u8 },
                );
                match kind {
                    TK_SYN if self.state == State::AwaitSynAck => self.send_syn(out),
                    TK_SYN => {}
                    TK_PACE => self.on_pace(out),
                    TK_NOFB => self.on_nofb(out),
                    TK_APP => self.on_app_tick(out),
                    _ => {}
                }
            }
            None => self.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::TimerCancelled {
                    kind: (token & 3) as u8,
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Command;
    use crate::session::{ConnectionPlan, Profile};

    /// A sender on a hand-driven clock: the test decides when each armed
    /// timer is delivered, which a simulator (always on time) cannot.
    struct Rig {
        tx: QtpSender,
        out: Outbox,
        /// Armed timers, `(deadline, token)`, unordered.
        timers: Vec<(SimTime, u64)>,
    }

    /// What one delivered pace tick did.
    struct Tick {
        /// Data packets it put on the wire (0 or 1).
        sent: usize,
        /// When it was due, and what it re-armed the pace timer for.
        due: SimTime,
        next: SimTime,
    }

    impl Rig {
        /// A sender past its handshake (RTT sample 1 ms), pace timer armed.
        fn connected(plan: ConnectionPlan) -> Rig {
            let chosen = plan.profile.caps();
            let mut rig = Rig {
                tx: QtpSender::new(0, 1, plan.sender_config()),
                out: Outbox::new(),
                timers: Vec::new(),
            };
            rig.tx.on_start(&mut rig.out);
            rig.drain();
            rig.out.now = SimTime::from_millis(1);
            let synack = QtpPacket::SynAck {
                ts_echo_nanos: 0,
                chosen,
            };
            rig.tx.handle_datagram(&mut rig.out, 64, &synack.encode());
            rig.drain();
            rig
        }

        fn af(rate: Rate) -> Rig {
            Rig::connected(ConnectionPlan::new(Profile::qtp_af(rate)))
        }

        fn now(&self) -> SimTime {
            self.out.now
        }

        /// The pace interval in force, clamped as `on_pace` clamps it.
        fn interval(&self) -> Duration {
            let cc = self.tx.cc.as_ref().expect("connected");
            cc.send_interval()
                .clamp(Duration::from_micros(10), Duration::from_secs(2))
        }

        /// Apply the outbox: remember timers, count data packets sent.
        fn drain(&mut self) -> usize {
            let mut data = 0;
            while let Some(cmd) = self.out.poll_cmd() {
                match cmd {
                    Command::SetTimer { at, token } => self.timers.push((at, token)),
                    Command::Transmit(t) => {
                        if matches!(
                            QtpPacket::decode(&t.header),
                            Ok(QtpPacket::Data { .. } | QtpPacket::StreamData { .. })
                        ) {
                            data += 1;
                        }
                    }
                    Command::Deliver { .. } => {}
                }
            }
            data
        }

        /// Deadline of the live pace timer.
        fn pace_deadline(&self) -> SimTime {
            self.tx.pace_due
        }

        /// Deliver the live pace tick at `at` (never before it is due).
        fn tick_at(&mut self, at: SimTime) -> Tick {
            let due = self.pace_deadline();
            assert!(at >= due, "a timer never fires early");
            let i = self
                .timers
                .iter()
                .position(|(t, token)| *t == due && self.tx.gens.live(*token) == Some(TK_PACE))
                .expect("a live pace timer is armed");
            let (_, token) = self.timers.swap_remove(i);
            self.out.now = at;
            self.tx.on_timer(&mut self.out, token);
            let sent = self.drain();
            Tick {
                sent,
                due,
                next: self.pace_deadline(),
            }
        }

        /// Deliver the live pace tick the way a real event loop does: a tick
        /// still in the future is slept for and overshot by `late`; one
        /// already due fires on the next pass, 1 µs on.
        fn tick_late(&mut self, late: Duration) -> Tick {
            let due = self.pace_deadline();
            let at = if due > self.now() {
                due + late
            } else {
                self.now() + Duration::from_micros(1)
            };
            self.tick_at(at)
        }
    }

    /// A connected stream sender with nothing to send yet.
    fn idle_stream_plan() -> ConnectionPlan {
        ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(200)))
            .stream(StreamConfig::with_send_buf(64 * 1024))
    }

    /// A wake-up overshoot, uniform in 0–200 µs.
    fn overshoot(rng: &mut DetRng) -> Duration {
        Duration::from_nanos(rng.below(200_001))
    }

    #[test]
    fn late_ticks_still_emit_the_scheduled_packet_count() {
        // The benchmark's shape: a 200 Mbit/s floor is a ~42 µs interval,
        // and every sleep overshoots by up to 200 µs — several intervals.
        let mut rig = Rig::af(Rate::from_mbps(200));
        let mut rng = DetRng::new(42);
        let interval = rig.interval();
        let t0 = rig.pace_deadline();
        let horizon = t0 + Duration::from_millis(100);
        let mut sent = 0usize;
        // Run past the horizon, then on until the schedule is caught up, so
        // the count is compared at an instant no tick is owed.
        while rig.now() < horizon || rig.pace_deadline() <= rig.now() {
            sent += rig.tick_late(overshoot(&mut rng)).sent;
        }
        let elapsed = rig.now().saturating_since(t0);
        let scheduled = elapsed.as_nanos() as f64 / interval.as_nanos() as f64;
        assert!(
            (sent as f64 - scheduled).abs() <= 1.0,
            "{sent} packets in {elapsed:?} at one per {interval:?} (schedule: {scheduled:.1})"
        );
    }

    #[test]
    fn a_long_stall_is_repaid_up_to_the_debt_cap_only() {
        let mut rig = Rig::af(Rate::from_mbps(200));
        let interval = rig.interval();
        for _ in 0..100 {
            rig.tick_late(Duration::ZERO);
        }
        // The loop stalls for 50 ms (a descheduled process), then resumes.
        let stalled = rig.tick_late(Duration::from_millis(50));
        assert_eq!(stalled.sent, 1);
        // Count the catch-up ticks it leaves already due, fired with the
        // clock standing still (the worst case: no time passes to owe more).
        let mut back_to_back = 0;
        while rig.pace_deadline() <= rig.now() {
            back_to_back += rig.tick_at(rig.now()).sent;
        }
        let cap = (DEBT_CAP.as_nanos() / interval.as_nanos()) as usize + 1;
        assert!(
            back_to_back <= cap,
            "{back_to_back} back-to-back ticks after the stall, cap {cap}"
        );
        // The cap bites: 50 ms of debt would have been ~1190 ticks.
        assert!(back_to_back >= cap - 1, "only {back_to_back} of {cap}");
    }

    /// Ticks that send nothing re-arm a full interval after they ran, however
    /// late they ran — so the first tick with something to send is not
    /// followed by a burst.
    fn assert_idle_ticks_earn_no_credit(rig: &mut Rig) {
        let mut rng = DetRng::new(7);
        for _ in 0..200 {
            let tick = rig.tick_late(overshoot(&mut rng));
            assert_eq!(tick.sent, 0);
            assert_eq!(tick.next, rig.now() + rig.interval());
        }
    }

    #[test]
    fn an_empty_stream_accumulates_no_credit() {
        let mut rig = Rig::connected(idle_stream_plan());
        assert_idle_ticks_earn_no_credit(&mut rig);
        // Data arrives: the tick that sends it anchors the schedule on its
        // own deadline, so only its own lateness is repaid — nothing from
        // the 200 late idle ticks before it.
        let stream = rig.tx.send_stream().expect("stream configured");
        stream.send(&[7u8; 4000]).expect("fits the send buffer");
        let tick = rig.tick_late(Duration::from_micros(150));
        assert_eq!(tick.sent, 1);
        assert_eq!(tick.next, tick.due + rig.interval());
    }

    #[test]
    fn a_closed_cubic_window_accumulates_no_credit() {
        let mut rig = Rig::connected(ConnectionPlan::new(Profile::cubic()));
        // No feedback ever arrives, so the initial window fills and shuts.
        let mut opened = 0;
        while rig.tick_late(Duration::ZERO).sent == 1 {
            opened += 1;
            assert!(opened < 10_000, "the window never closed");
        }
        assert_idle_ticks_earn_no_credit(&mut rig);
    }

    #[test]
    fn on_time_ticks_follow_the_old_now_plus_interval_rule() {
        let greedy = Rig::af(Rate::from_mbps(200));
        for mut rig in [greedy, Rig::connected(idle_stream_plan())] {
            for _ in 0..500 {
                let due = rig.pace_deadline();
                let tick = rig.tick_at(due);
                // The arithmetic this file used before the anchor, whether
                // or not the tick sent: `now + clamp(interval)`.
                assert_eq!(tick.next, rig.now() + rig.interval());
            }
        }
    }
}
