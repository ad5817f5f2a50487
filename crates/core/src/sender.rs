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
//! All three exist only in [`Phase::Running`], built once from the SYN-ACK:
//! before it there is no controller to consult, so nothing that needs one
//! can run.
//!
//! The endpoint is sans-io: it implements the transport-neutral
//! [`Endpoint`] seam, reacting to datagrams and timers and emitting
//! transmit/timer commands into an [`Outbox`]. It is crate-private: a
//! [`Session`](crate::session::Session) wraps it, and every driver mounts
//! the session.

use qtp_metrics::trace::{ConnState, PktKind, TraceEventKind, Tracer};
use qtp_sack::{LossDecision, Reliability, ReliabilityPolicy, Scoreboard, SeqRange};
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Waker;
use std::collections::VecDeque;
use std::time::Duration;

use qtp_cc::{CcState, CongestionControl, FeedbackReport};

use crate::caps::{CapabilitySet, FeedbackMode};
use crate::cc::controller_for;
use crate::driver::{Endpoint, Outbox, TimerGens};
use crate::estimator::SenderLossEstimator;
use crate::session::ConnectionPlan;
use crate::stream::{Chunk, SendStream, StreamTx};
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

/// Timer token kinds (low 2 bits of the token; the rest is a generation —
/// see [`TimerGens`]). The recovery deadline is one kind for every decision
/// a sleeping sender still owes: the SYN retry before the handshake; tail
/// loss, FIN retries and `FORWARD` after it (see [`Conn::sleep`]). A pace
/// token also wakes a sleeping pacer (see [`Conn::wake`]).
const TK_RECOVERY: u64 = 0;
const TK_PACE: u64 = 1;
const TK_NOFB: u64 = 2;
const TK_APP: u64 = 3;

/// The sender's negotiated phase. A close does not leave `Running`, so the
/// negotiated profile stays readable after the run. Held inline: boxing it
/// would cost an allocation per connection.
#[allow(clippy::large_enum_variant)]
enum Phase {
    /// SYN offered, SYN-ACK not yet seen.
    Handshake,
    /// The composition the SYN-ACK fixed.
    Running(Running),
}

/// The negotiated composition: the granted profile, its controller, its
/// reliability policy and where its loss event rate comes from.
struct Running {
    caps: CapabilitySet,
    cc: Box<dyn CongestionControl>,
    policy: ReliabilityPolicy,
    loss: LossSource,
    /// Last controller phase code surfaced in the trace (BBR-lite), so
    /// transitions emit exactly one `CcPhaseChange`.
    last_cc_phase: Option<u8>,
}

/// Where the sender's `p` comes from.
enum LossSource {
    /// `ReceiverLoss`: the `p` the receiver reports in each feedback.
    Reported,
    /// `SenderLoss` (QTPlight): estimated here from SACK declarations.
    Estimated(SenderLossEstimator),
}

/// Where new data comes from. A plan with a stream ignores its app model.
enum Traffic {
    /// The synthetic application model.
    App(AppSource),
    /// The stream data plane; it also keeps sent chunks readable for
    /// retransmission until acknowledged.
    Stream(StreamTx),
}

/// The synthetic application model and the packets it generated.
struct AppSource {
    model: AppModel,
    /// Pending application packets: submission time of each not-yet-sent
    /// packet (only bounded for the Cbr model).
    backlog: VecDeque<SimTime>,
}

/// The QTP sender endpoint.
pub(crate) struct QtpSender {
    phase: Phase,
    traffic: Traffic,
    conn: Conn,
}

/// Everything else: addressing, the scoreboard, pacing, the close
/// handshake and observability. Its methods take the negotiated
/// composition and the traffic source as arguments where they need them.
struct Conn {
    flow: FlowId,
    receiver_node: NodeId,
    /// Profile to offer in the handshake.
    offered: CapabilitySet,
    /// Payload bytes per data packet.
    s: u32,
    /// **D1 ablation** (experiments only): every lost packet counts as its
    /// own loss event in the sender-side estimator.
    ablate_ungrouped_losses: bool,
    sb: Scoreboard,
    /// Packets handed to the network as *new* data so far.
    sent_new: u64,
    /// Timer generations per token kind.
    gens: TimerGens<4>,
    /// The anchor of the pacing schedule (see [`Conn::tick`]): while the
    /// pacer runs, when its armed tick is due; while it sleeps, the
    /// earliest instant the next packet may leave.
    pace_due: SimTime,
    /// The pacer sleeps: no pace tick is armed.
    asleep: bool,
    /// Deadline of the live recovery timer, if one is armed.
    recovery_at: Option<SimTime>,
    /// When tail loss last declared the window lost: a sleeping sender
    /// declares it again no sooner than one timeout later.
    tail_at: SimTime,
    /// Last time a FWD was emitted (rate-limited to once per RTT).
    last_fwd: SimTime,
    /// `Session::close` requested a graceful shutdown.
    close_requested: bool,
    /// When the last FIN copy went out (None = not yet sent).
    fin_sent_at: Option<SimTime>,
    fin_retries: u32,
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

/// Most sequence records a finite sender reserves at its first send. A
/// short transfer's whole backlog fits, so its ring never grows; a longer
/// one's grows from here with the sequences actually outstanding, which
/// the controller bounds, not with the backlog.
const RING_RESERVE_MAX: u64 = 64;

impl Running {
    /// Whether the negotiated reliability retransmits declared losses.
    fn retransmits(&self) -> bool {
        self.caps.reliability.retransmits()
    }

    /// The controller's RTT estimate, 100 ms until it has a sample.
    fn rtt(&self) -> Duration {
        self.cc.rtt().unwrap_or(Duration::from_millis(100))
    }

    /// The RTT hint data packets carry, in µs (0 = no sample yet).
    fn rtt_hint_micros(&self) -> u32 {
        self.cc.rtt().map_or(0, |r| r.as_micros() as u32)
    }

    /// Surface the typed controller snapshot for the window/model
    /// controllers. The TFRC-family states emit nothing extra here, so
    /// traces of pre-existing runs stay frozen.
    fn trace_cc_state(&mut self, tracer: &Tracer, now: SimTime) {
        match self.cc.state() {
            CcState::RateBased { .. } | CcState::FixedRate { .. } => {}
            CcState::Cubic {
                cwnd_bytes,
                w_max_bytes,
                tcp_friendly,
            } => tracer.emit(
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
                    tracer.emit(
                        now.as_nanos(),
                        TraceEventKind::CcPhaseChange {
                            phase: code,
                            at_us: now.as_nanos() / 1_000,
                        },
                    );
                }
                self.last_cc_phase = Some(code);
                tracer.emit(
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
}

impl Traffic {
    fn stream(&self) -> Option<&StreamTx> {
        match self {
            Traffic::Stream(s) => Some(s),
            Traffic::App(_) => None,
        }
    }
}

impl AppSource {
    /// Does the model have a new packet, `sent` new packets in?
    fn has_data(&self, sent: u64) -> bool {
        match self.model {
            AppModel::Greedy => true,
            AppModel::Finite { packets } => sent < packets,
            AppModel::Cbr { .. } => !self.backlog.is_empty(),
        }
    }

    /// Sender-side staleness drop (TTL reliability, Cbr model): stale ADUs
    /// are discarded before ever being transmitted.
    fn drop_stale_backlog(&mut self, reliability: Reliability, now: SimTime, tracer: &Tracer) {
        if let Reliability::Ttl(ttl) = reliability {
            while let Some(&submit) = self.backlog.front() {
                if now.saturating_since(submit) >= ttl {
                    self.backlog.pop_front();
                    tracer.emit(now.as_nanos(), TraceEventKind::PktExpired { seq: 0 });
                } else {
                    break;
                }
            }
        }
    }
}

impl QtpSender {
    pub(crate) fn new(flow: FlowId, receiver_node: NodeId, plan: &ConnectionPlan) -> Self {
        let offered = plan.profile.caps();
        let chunked = matches!(offered.reliability, Reliability::Full);
        let traffic = match &plan.stream {
            Some(sc) => Traffic::Stream(StreamTx::new(sc, chunked)),
            None => Traffic::App(AppSource {
                model: plan.app.clone(),
                backlog: VecDeque::new(),
            }),
        };
        QtpSender {
            phase: Phase::Handshake,
            traffic,
            conn: Conn {
                flow,
                receiver_node,
                offered,
                s: plan.payload,
                ablate_ungrouped_losses: plan.ablate_ungrouped_losses,
                sb: Scoreboard::new(),
                sent_new: 0,
                gens: TimerGens::new(),
                pace_due: SimTime::ZERO,
                asleep: false,
                recovery_at: None,
                tail_at: SimTime::ZERO,
                last_fwd: SimTime::ZERO,
                close_requested: false,
                fin_sent_at: None,
                fin_retries: 0,
                closed: false,
                tracer: Tracer::new(0),
            },
        }
    }

    /// This endpoint's [`Tracer`] handle (clones share counters + sink).
    pub(crate) fn tracer(&self) -> Tracer {
        self.conn.tracer.clone()
    }

    /// App-facing handle for the stream data plane (if configured).
    pub(crate) fn send_stream(&self) -> Option<SendStream> {
        self.traffic.stream().map(|s| s.handle())
    }

    /// Keep the mounting driver's wake handle: a stream write wakes a
    /// sleeping sender through it. Nothing else outside wakes a sender.
    pub(crate) fn set_waker(&mut self, waker: Waker) {
        if let Traffic::Stream(s) = &self.traffic {
            s.set_waker(waker);
        }
    }

    /// The token a stream write woke this sender with, not yet delivered.
    pub(crate) fn woken(&self) -> Option<u64> {
        self.traffic.stream().and_then(StreamTx::woken)
    }

    /// [`QtpSender::woken`], taken for delivery.
    pub(crate) fn take_woken(&self) -> Option<u64> {
        self.traffic.stream().and_then(StreamTx::take_woken)
    }

    /// Takes the stream's one-shot writable edge (never set without one).
    pub(crate) fn take_writable_edge(&self) -> bool {
        self.traffic
            .stream()
            .is_some_and(StreamTx::take_writable_edge)
    }

    /// Starts a graceful shutdown: stop accepting new data, drain, then run
    /// the FIN / FIN-ACK handshake. A stream's `finish` wakes a sleeping
    /// sender itself; otherwise the token to wake it with is returned, for
    /// the caller to deliver as a timer due now.
    pub(crate) fn begin_close(&mut self) -> Option<u64> {
        self.conn.close_requested = true;
        if let Some(s) = self.traffic.stream() {
            s.handle().finish();
            return None;
        }
        match self.phase {
            // Nothing on the wire yet: close locally.
            Phase::Handshake => {
                self.conn.closed = true;
                None
            }
            Phase::Running(_) => self.conn.asleep.then(|| self.conn.gens.arm(TK_PACE)),
        }
    }

    /// True once the wire-level close handshake completed (FIN acknowledged
    /// or retries exhausted).
    pub(crate) fn close_complete(&self) -> bool {
        self.conn.closed
    }

    /// The negotiated profile (once the handshake completed, and after a
    /// close).
    pub(crate) fn negotiated(&self) -> Option<CapabilitySet> {
        match &self.phase {
            Phase::Handshake => None,
            Phase::Running(run) => Some(run.caps),
        }
    }

    /// Whether every packet handed to the network has been acknowledged
    /// (loop-termination signal for real-I/O drivers).
    pub(crate) fn all_acked(&self) -> bool {
        self.conn.sb.all_acked()
    }

    /// New (never-retransmitted) packets handed to the network so far.
    pub(crate) fn sent_new(&self) -> u64 {
        self.conn.sent_new
    }

    /// The SYN-ACK fixes the composition; a duplicate changes nothing.
    fn on_synack(&mut self, out: &mut Outbox, ts_echo_nanos: u64, caps: CapabilitySet) {
        if let Phase::Running(_) = self.phase {
            return;
        }
        let conn = &mut self.conn;
        conn.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::State(ConnState::Connected),
        );
        let rtt = out
            .now
            .saturating_since(SimTime::from_nanos(ts_echo_nanos))
            .max(Duration::from_micros(100));
        let mut cc = controller_for(caps.cc, conn.s);
        cc.seed_rtt(out.now, rtt);
        let nofb = cc.nofeedback_deadline();
        let loss = match caps.feedback {
            FeedbackMode::ReceiverLoss => LossSource::Reported,
            FeedbackMode::SenderLoss => {
                let mut est = SenderLossEstimator::new(conn.s);
                est.set_grouping(!conn.ablate_ungrouped_losses);
                LossSource::Estimated(est)
            }
        };
        let mut run = Running {
            caps,
            cc,
            policy: ReliabilityPolicy::new(caps.reliability),
            loss,
            last_cc_phase: None,
        };
        match &self.traffic {
            // Negotiation may have changed the reliability class; re-lock
            // the stream framing mode before any stream data goes out.
            Traffic::Stream(s) => s.set_chunked(matches!(caps.reliability, Reliability::Full)),
            // Kick off app generation.
            Traffic::App(app) if matches!(app.model, AppModel::Cbr { .. }) => {
                conn.arm(out, TK_APP, out.now)
            }
            Traffic::App(_) => {}
        }
        // The first packet may leave at once: tick now, or sleep until
        // there is one.
        conn.pace_due = out.now;
        if conn.can_send(&run, &self.traffic) {
            conn.arm_pace(out, out.now);
        } else {
            conn.wake(out, &mut run, &mut self.traffic);
        }
        conn.arm(out, TK_NOFB, nofb);
        self.phase = Phase::Running(run);
    }
}

impl Conn {
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

    fn send_syn(&mut self, out: &mut Outbox) {
        let pkt = QtpPacket::Syn {
            ts_nanos: out.now.as_nanos(),
            offered: self.offered,
        };
        self.send_control(out, PktKind::Syn, 0, &pkt);
        self.arm(out, TK_RECOVERY, out.now + Duration::from_secs(1));
    }

    // ---- application --------------------------------------------------

    /// Is a new (never-sent) packet available right now?
    fn app_has_data(&self, traffic: &Traffic) -> bool {
        match traffic {
            Traffic::Stream(s) => s.has_data(),
            Traffic::App(app) => !self.close_requested && app.has_data(self.sent_new),
        }
    }

    /// The Cbr model's generation tick: queue one ADU and wake the pacer.
    fn on_app_tick(&mut self, out: &mut Outbox, run: &mut Running, traffic: &mut Traffic) {
        if self.closed {
            return;
        }
        let Traffic::App(app) = traffic else { return };
        let AppModel::Cbr { rate, adu_packets } = app.model else {
            return;
        };
        for _ in 0..adu_packets {
            app.backlog.push_back(out.now);
        }
        let interval =
            Duration::from_secs_f64(adu_packets as f64 * self.s as f64 * 8.0 / rate.bps() as f64);
        self.arm(out, TK_APP, out.now + interval);
        if self.asleep {
            self.wake(out, run, traffic);
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

    /// Queue an encoded data packet of accounted size `size` and tell the
    /// controller and the trace about it.
    fn emit_data(
        &mut self,
        out: &mut Outbox,
        run: &mut Running,
        seq: u64,
        size: u32,
        header: Vec<u8>,
        is_retx: bool,
    ) {
        out.send_new(self.flow, self.receiver_node, size, header);
        run.cc.on_send(out.now, size);
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

    fn send_data(
        &mut self,
        out: &mut Outbox,
        run: &mut Running,
        seq: u64,
        adu_ts: SimTime,
        is_retx: bool,
    ) {
        let pkt = QtpPacket::Data {
            seq,
            ts_nanos: out.now.as_nanos(),
            adu_ts_nanos: adu_ts.as_nanos(),
            rtt_hint_micros: run.rtt_hint_micros(),
            is_retx,
        };
        let mut header = out.buffer(pkt.encoded_len());
        pkt.encode_into(&mut header);
        // The simulated payload is accounted, never materialised.
        let size = self.s + header.len() as u32 + IP_OVERHEAD;
        self.emit_data(out, run, seq, size, header, is_retx);
    }

    /// Header fields and payload go straight from the send store into one
    /// transmit buffer lent by the outbox.
    fn send_stream_data(
        &mut self,
        out: &mut Outbox,
        run: &mut Running,
        stream: &StreamTx,
        seq: u64,
        chunk: &Chunk,
        is_retx: bool,
    ) {
        let fields = StreamDataHeader {
            seq,
            ts_nanos: out.now.as_nanos(),
            adu_ts_nanos: chunk.adu_ts.as_nanos(),
            rtt_hint_micros: run.rtt_hint_micros(),
            is_retx,
            ttl_micros: chunk.ttl_micros,
        };
        let mut header = out.buffer(STREAM_DATA_HEADER_LEN + chunk.payload_len());
        fields.encode_into(chunk.payload_len(), &mut header);
        stream.copy_payload(chunk, &mut header);
        // The payload rides inside the header bytes; only IP overhead on top.
        let size = header.len() as u32 + IP_OVERHEAD;
        self.emit_data(out, run, seq, size, header, is_retx);
    }

    /// Transmit one packet if anything is eligible: retransmissions first
    /// (policy permitting), then new data. Returns whether a data packet
    /// went out.
    fn send_one(&mut self, out: &mut Outbox, run: &mut Running, traffic: &mut Traffic) -> bool {
        match traffic {
            Traffic::Stream(stream) => self.send_one_stream(out, run, stream),
            Traffic::App(app) => self.send_one_app(out, run, app),
        }
    }

    /// Stream-mode transmission: retransmit retained chunks first, then
    /// packetise new bytes from the send store.
    fn send_one_stream(
        &mut self,
        out: &mut Outbox,
        run: &mut Running,
        stream: &mut StreamTx,
    ) -> bool {
        while let Some(seq) = self.sb.next_lost() {
            let (adu_at, retx_count) = (self.sb.adu_at(seq), self.sb.retx_count(seq));
            let decision = run.policy.on_loss(seq, out.now, adu_at, retx_count);
            if decision == LossDecision::Retransmit {
                if let Some(chunk) = stream.chunk(seq) {
                    self.sb.register_retransmit(seq, out.now);
                    self.send_stream_data(out, run, stream, seq, &chunk, true);
                    return true;
                }
            }
            self.sb.abandon(seq);
            stream.abandon(seq);
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::PktExpired { seq });
        }
        let max = (self.s as usize).min(MAX_STREAM_PAYLOAD);
        let Some(chunk) = stream.next_chunk(max, out.now) else {
            return false;
        };
        let seq = self.sb.register_send(out.now);
        self.sent_new += 1;
        let retained = run.retransmits();
        if retained {
            stream.retain(seq, chunk);
        }
        self.send_stream_data(out, run, stream, seq, &chunk, false);
        if !retained {
            // Nothing re-reads these bytes, and without retransmission the
            // cumulative ack may never pass a hole: release them now.
            stream.trim();
        }
        true
    }

    /// App-model transmission: stale backlog goes first, then
    /// retransmissions, then a new packet.
    fn send_one_app(&mut self, out: &mut Outbox, run: &mut Running, app: &mut AppSource) -> bool {
        app.drop_stale_backlog(run.caps.reliability, out.now, &self.tracer);
        // Retransmissions have priority under reliable modes.
        while let Some(seq) = self.sb.next_lost() {
            let (adu_at, retx_count) = (self.sb.adu_at(seq), self.sb.retx_count(seq));
            let decision = run.policy.on_loss(seq, out.now, adu_at, retx_count);
            if decision == LossDecision::Retransmit {
                self.sb.register_retransmit(seq, out.now);
                self.send_data(out, run, seq, adu_at.unwrap_or(out.now), true);
                return true;
            }
            // Abandoned: drop from the retransmission queue and keep going.
            self.sb.abandon(seq);
            self.tracer
                .emit(out.now.as_nanos(), TraceEventKind::PktExpired { seq });
        }
        if self.close_requested || !app.has_data(self.sent_new) {
            return false;
        }
        if let (0, AppModel::Finite { packets }) = (self.sent_new, &app.model) {
            // A finite transfer never has more sequences outstanding than
            // it sends: size the scoreboard's ring for them once, up to a cap.
            self.sb.reserve((*packets).min(RING_RESERVE_MAX) as usize);
        }
        // Only the Cbr model queues submissions; the others submit now.
        let submit = app.backlog.pop_front().unwrap_or(out.now);
        let seq = self.sb.register_send_adu(out.now, submit);
        self.sent_new += 1;
        self.send_data(out, run, seq, submit, false);
        true
    }

    /// Emit a FWD if the policy abandoned data the receiver is waiting for.
    fn maybe_send_forward(&mut self, out: &mut Outbox, run: &Running) {
        let Some(fp) = run.policy.forward_point(self.sb.cum_ack()) else {
            return;
        };
        if out.now.saturating_since(self.last_fwd) < run.rtt() {
            return;
        }
        self.last_fwd = out.now;
        let pkt = QtpPacket::Forward { new_cum: fp };
        self.send_control(out, PktKind::Forward, fp, &pkt);
    }

    /// Whether the window has room for another packet. Window-based
    /// controllers bound unacknowledged bytes in flight; rate-based ones
    /// return no limit.
    fn window_open(&self, run: &Running) -> bool {
        match run.cc.cwnd_limit() {
            Some(limit) => self.sb.in_flight() * u64::from(self.s) < limit,
            None => true,
        }
    }

    /// Whether a packet may leave: the window has room, and there is new
    /// data or a declared loss waiting for retransmission.
    fn can_send(&self, run: &Running, traffic: &Traffic) -> bool {
        self.window_open(run) && (self.app_has_data(traffic) || self.sb.next_lost().is_some())
    }

    /// The pace interval in force, clamped so the event loop stays healthy.
    fn interval(run: &Running) -> Duration {
        run.cc
            .send_interval()
            .clamp(Duration::from_micros(10), Duration::from_secs(2))
    }

    /// A live pace token: a tick of the running pacer, or the wake a
    /// stream write or a close delivers to a sleeping one (which is not
    /// traced as a timer fire).
    fn on_pace(&mut self, out: &mut Outbox, run: &mut Running, traffic: &mut Traffic) {
        if self.closed {
            return; // closed: let the timer lapse without re-arming
        }
        if self.asleep {
            self.wake(out, run, traffic);
        } else {
            self.tick(out, run, traffic);
        }
    }

    /// One pace tick: send at most one data packet, then re-arm — or, when
    /// nothing more may leave, put the pacer to sleep.
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
    /// [`DEBT_CAP`] is forgiven, which bounds the catch-up after a stall.
    ///
    /// **The pacer sleeps when nothing may leave**: no new data, no loss
    /// waiting for retransmission, or a full window. It sleeps right after
    /// the last packet, not on an empty tick after it, and records when the
    /// next packet may leave — when the next tick would have been due, or,
    /// after a tick that sent nothing, the tick's own time. A wake
    /// ([`Conn::wake`]) sends at once if that time has come, anchoring the
    /// schedule on the wake itself, and otherwise arms the tick for it: idle
    /// time earns no credit to burst with later, and the packet after a
    /// wake is followed by the next at `+interval`. A tick that sent nothing
    /// while a packet may still leave (every loss it found was abandoned)
    /// re-arms at `now + interval`.
    ///
    /// **Virtual-clock identity.** The simulator and the poll-style
    /// harnesses fire a timer at its deadline, so `due == now` on every
    /// tick there and a running pacer's schedule reduces to
    /// `now + interval`. A sender that never runs dry — every bulk
    /// transfer — never sleeps, so its schedule is what it was when the
    /// pacer ticked through idle time too.
    fn tick(&mut self, out: &mut Outbox, run: &mut Running, traffic: &mut Traffic) {
        self.check_tail_loss(out.now, run);
        let sent = self.window_open(run) && self.send_one(out, run, traffic);
        self.maybe_send_forward(out, run);
        self.maybe_send_fin(out, run, traffic);
        if self.closed {
            return;
        }
        let more = self.can_send(run, traffic);
        let next = if sent {
            (self.pace_due + Self::interval(run)).max(out.now - DEBT_CAP)
        } else if more {
            out.now + Self::interval(run)
        } else {
            out.now
        };
        if more {
            self.arm_pace(out, next);
        } else {
            self.pace_due = next;
            self.sleep(out, run, traffic);
        }
    }

    /// Something changed while the pacer sleeps — feedback, an app tick,
    /// the recovery deadline, a stream write or a close. If a packet may
    /// leave, send it at once when the interval since the last one has
    /// passed, or arm the tick for when it has. Otherwise settle the
    /// `FORWARD` and FIN decisions and sleep on.
    fn wake(&mut self, out: &mut Outbox, run: &mut Running, traffic: &mut Traffic) {
        if !self.can_send(run, traffic) {
            self.maybe_send_forward(out, run);
            self.maybe_send_fin(out, run, traffic);
            if !self.closed {
                self.sleep(out, run, traffic);
            }
            return;
        }
        self.asleep = false;
        if let Traffic::Stream(s) = traffic {
            s.wake_on_write(None);
        }
        if out.now >= self.pace_due {
            self.pace_due = out.now;
            self.tick(out, run, traffic);
        } else {
            self.arm_pace(out, self.pace_due);
        }
    }

    /// Sleep with no pace tick armed. A stream sender that sleeps for want
    /// of data leaves a fresh pace token with its stream, for the next
    /// write to wake it with. The recovery timer is re-armed only when the
    /// recovery deadline moves earlier than the one armed: a later or
    /// vanished deadline is re-checked when the armed one fires, so stale
    /// timers never pile up in the driver.
    fn sleep(&mut self, out: &mut Outbox, run: &Running, traffic: &Traffic) {
        self.asleep = true;
        if let Traffic::Stream(s) = traffic {
            let token = self.window_open(run).then(|| self.gens.arm(TK_PACE));
            s.wake_on_write(token);
        }
        let Some(at) = self.recovery_deadline(run, traffic) else {
            return;
        };
        // A deadline already passed (tail loss not checked at this instant)
        // fires at once.
        let at = at.max(out.now);
        if self.recovery_at.map_or(true, |armed| at < armed) {
            self.recovery_at = Some(at);
            self.arm(out, TK_RECOVERY, at);
        }
    }

    /// The earliest instant a sleeping sender owes a decision: the tail-loss
    /// timeout of its oldest outstanding packet (no sooner than one timeout
    /// after the last declaration), its next FIN retry, or its next
    /// `FORWARD`.
    fn recovery_deadline(&self, run: &Running, traffic: &Traffic) -> Option<SimTime> {
        let tail = if run.retransmits() && !self.sb.all_acked() {
            self.sb.oldest_outstanding_send_time().map(|oldest| {
                oldest.max(self.tail_at) + Self::tail_timeout(run) + Duration::from_nanos(1)
            })
        } else {
            None
        };
        let fin = match self.fin_sent_at {
            Some(at) if self.fin_ready(run, traffic) => Some(at + Self::fin_rto(run)),
            _ => None,
        };
        let fwd = run
            .policy
            .forward_point(self.sb.cum_ack())
            .map(|_| self.last_fwd + run.rtt());
        [tail, fin, fwd].into_iter().flatten().min()
    }

    /// The recovery timer fired. A running pacer makes these decisions on
    /// its ticks; a sleeping one checks tail loss and wakes.
    fn on_recovery(&mut self, out: &mut Outbox, run: &mut Running, traffic: &mut Traffic) {
        self.recovery_at = None;
        if self.closed || !self.asleep {
            return;
        }
        self.check_tail_loss(out.now, run);
        self.wake(out, run, traffic);
    }

    // ---- wire-level close ---------------------------------------------

    /// Drained and ready to FIN: close was requested (via `Session::close`
    /// or `SendStream::finish`), every byte has been packetised, and — under
    /// retransmitting modes — every packet acknowledged or abandoned.
    fn fin_ready(&self, run: &Running, traffic: &Traffic) -> bool {
        let requested = self.close_requested || traffic.stream().is_some_and(|s| s.fin_ready());
        if !requested {
            return false;
        }
        if self.app_has_data(traffic) || self.sb.next_lost().is_some() {
            return false;
        }
        !run.retransmits() || self.sb.all_acked()
    }

    /// The FIN retry timeout.
    fn fin_rto(run: &Running) -> Duration {
        (run.rtt() * 2).max(Duration::from_millis(50))
    }

    /// (Re)send FIN with an RTO-style backoff, from the pace ticks or the
    /// recovery deadline; after [`FIN_MAX_RETRIES`] unanswered copies,
    /// close unilaterally.
    fn maybe_send_fin(&mut self, out: &mut Outbox, run: &Running, traffic: &Traffic) {
        if self.closed || !self.fin_ready(run, traffic) {
            return;
        }
        let due = match self.fin_sent_at {
            None => true,
            Some(t) => out.now.saturating_since(t) >= Self::fin_rto(run),
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
            self.closed = true;
            self.tracer
                .emit(now_nanos, TraceEventKind::State(ConnState::Closed));
        }
    }

    /// Tail-loss fallback: if the oldest outstanding packet has seen no
    /// progress for several RTTs, presume everything unsacked lost so the
    /// reliability machinery can act (SACK cannot report tail losses).
    fn check_tail_loss(&mut self, now: SimTime, run: &Running) {
        if !run.retransmits() || self.sb.all_acked() {
            return;
        }
        if let Some(oldest) = self.sb.oldest_outstanding_send_time() {
            if now.saturating_since(oldest) > Self::tail_timeout(run) {
                let range = SeqRange::new(self.sb.cum_ack(), self.sb.next_seq());
                self.sb.force_mark_lost(range);
                self.tail_at = now;
            }
        }
    }

    /// Silence after which tail loss presumes the window lost.
    fn tail_timeout(run: &Running) -> Duration {
        (run.rtt() * 4).max(Duration::from_millis(500))
    }

    // ---- feedback -----------------------------------------------------

    fn on_feedback(
        &mut self,
        out: &mut Outbox,
        run: &mut Running,
        traffic: &mut Traffic,
        fb: FeedbackFields,
    ) {
        let FeedbackFields {
            ts_echo_nanos,
            t_delay_micros,
            x_recv,
            p_ppb,
            cum_ack,
            ..
        } = fb;
        if self.closed {
            return;
        }
        let prev_cum = self.sb.cum_ack();
        self.sb.on_feedback(cum_ack, fb.blocks());
        if let Traffic::Stream(stream) = traffic {
            if self.sb.cum_ack() > prev_cum {
                stream.release(self.sb.cum_ack());
            }
        }

        // Reliability: route newly-declared losses through the policy.
        let newly_lost = self.sb.newly_lost().len();
        if newly_lost > 0 {
            self.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::LossEvent {
                    pkts: newly_lost as u32,
                },
            );
            if !run.retransmits() {
                // Nothing will be retransmitted: abandon immediately so the
                // receiver can be moved past the holes.
                for i in 0..newly_lost {
                    let (seq, _) = self.sb.newly_lost()[i];
                    let _ = run.policy.on_loss(seq, out.now, self.sb.adu_at(seq), 0);
                    self.sb.abandon(seq);
                }
            }
        }

        // The composition seam: where does p come from?
        let rtt = run.rtt();
        let p = match &mut run.loss {
            LossSource::Reported => p_ppb.map(ppb_to_p).unwrap_or(0.0),
            LossSource::Estimated(est) => {
                est.on_losses(self.sb.newly_lost(), rtt, x_recv as f64);
                est.loss_event_rate(self.sb.highest_seen())
            }
        };

        let report = FeedbackReport {
            now: out.now,
            ts_echo: SimTime::from_nanos(ts_echo_nanos),
            t_delay: Duration::from_micros(t_delay_micros as u64),
            x_recv: x_recv as f64,
            p,
            newly_acked_bytes: (self.sb.cum_ack() - prev_cum) * self.s as u64,
            newly_lost_pkts: newly_lost as u32,
        };
        run.cc.on_feedback(&report);
        let rate = run.cc.allowed_rate();
        let rtt_s = run.cc.rtt().map(|r| r.as_secs_f64()).unwrap_or(0.0);
        self.arm(out, TK_NOFB, run.cc.nofeedback_deadline());
        let est_ops = match &run.loss {
            LossSource::Reported => 0,
            LossSource::Estimated(est) => est.total_ops(),
        };
        let ops = run.cc.ops() + est_ops + self.sb.meter.total();
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
            c.ops = ops;
        });
        run.trace_cc_state(&self.tracer, now);
        self.maybe_send_forward(out, run);
        // Feedback may open the window, declare losses to retransmit or
        // acknowledge the last packet: it wakes a sleeping pacer.
        if self.asleep {
            self.wake(out, run, traffic);
        }
    }

    fn on_nofb(&mut self, out: &mut Outbox, run: &mut Running) {
        if self.closed {
            return;
        }
        if out.now >= run.cc.nofeedback_deadline() {
            run.cc.on_nofeedback_timer(out.now);
        }
        self.arm(out, TK_NOFB, run.cc.nofeedback_deadline());
    }
}

impl Endpoint for QtpSender {
    fn on_start(&mut self, out: &mut Outbox) {
        self.conn.tracer.emit(
            out.now.as_nanos(),
            TraceEventKind::State(ConnState::Started),
        );
        self.conn.send_syn(out);
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
                self.conn.trace_recvd(out, PktKind::SynAck, 0, wire_size);
                self.on_synack(out, ts_echo_nanos, chosen)
            }
            PacketRef::Feedback(fb) => {
                self.conn
                    .trace_recvd(out, PktKind::Feedback, fb.cum_ack, wire_size);
                // Feedback before the SYN-ACK has no composition to feed.
                if let Phase::Running(run) = &mut self.phase {
                    self.conn.on_feedback(out, run, &mut self.traffic, fb)
                }
            }
            PacketRef::Other(QtpPacket::FinAck { final_seq }) => {
                self.conn
                    .trace_recvd(out, PktKind::FinAck, final_seq, wire_size);
                self.conn.on_finack(out.now.as_nanos())
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        let Some(kind) = self.conn.gens.live(token) else {
            self.conn.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::TimerCancelled {
                    kind: (token & 3) as u8,
                },
            );
            return;
        };
        // A live pace token reaching a sleeping pacer is a wake (a write or
        // a close), not a timer: it is not traced as one.
        if kind != TK_PACE || !self.conn.asleep {
            self.conn.tracer.emit(
                out.now.as_nanos(),
                TraceEventKind::TimerFired { kind: kind as u8 },
            );
        }
        // Before the SYN-ACK the recovery deadline is the SYN retry; every
        // other timer is armed only once running.
        let traffic = &mut self.traffic;
        match (kind, &mut self.phase) {
            (TK_RECOVERY, Phase::Handshake) => self.conn.send_syn(out),
            (TK_RECOVERY, Phase::Running(run)) => self.conn.on_recovery(out, run, traffic),
            (TK_PACE, Phase::Running(run)) => self.conn.on_pace(out, run, traffic),
            (TK_NOFB, Phase::Running(run)) => self.conn.on_nofb(out, run),
            (TK_APP, Phase::Running(run)) => self.conn.on_app_tick(out, run, traffic),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Command;
    use crate::session::Profile;
    use crate::stream::StreamConfig;

    /// A sender on a hand-driven clock: the test decides when each armed
    /// timer and each wake is delivered, which a simulator (always on time)
    /// cannot.
    struct Rig {
        tx: QtpSender,
        out: Outbox,
        /// Armed timers, `(deadline, token)`, unordered.
        timers: Vec<(SimTime, u64)>,
        /// The wake queue the sender's stream writes wake it through.
        wakes: Waker,
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
                tx: QtpSender::new(0, 1, &plan),
                out: Outbox::new(),
                timers: Vec::new(),
                wakes: Waker::default(),
            };
            rig.tx.set_waker(rig.wakes.to(0, 0));
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

        /// The pace interval in force.
        fn interval(&self) -> Duration {
            let Phase::Running(run) = &self.tx.phase else {
                panic!("not connected");
            };
            Conn::interval(run)
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

        /// Deadline of the live pace timer; while the pacer sleeps, the
        /// earliest instant its next packet may leave.
        fn pace_deadline(&self) -> SimTime {
            self.tx.conn.pace_due
        }

        /// Whether the pacer sleeps, with no live pace timer armed.
        fn asleep(&self) -> bool {
            let live = |token: u64| self.tx.conn.gens.live(token) == Some(TK_PACE);
            let armed = self.timers.iter().any(|(_, token)| live(*token));
            assert_eq!(
                self.tx.conn.asleep, !armed,
                "asleep iff no pace tick is armed"
            );
            self.tx.conn.asleep
        }

        /// Deliver every wake asked for, at `at`, the way a driver does;
        /// returns the data packets they sent.
        fn deliver_wakes(&mut self, at: SimTime) -> usize {
            self.out.now = at;
            let mut sent = 0;
            while let Some((_, token)) = self.wakes.take() {
                self.tx.on_timer(&mut self.out, token);
                sent += self.drain();
            }
            sent
        }

        /// A feedback at `at` acknowledging every packet sent so far.
        fn ack_all(&mut self, at: SimTime) -> usize {
            self.out.now = at;
            let feedback = QtpPacket::Feedback {
                ts_echo_nanos: at.as_nanos() - 1_000_000,
                t_delay_micros: 0,
                x_recv: 1_000_000,
                p_ppb: Some(0),
                cum_ack: self.tx.conn.sb.next_seq(),
                blocks: vec![],
            };
            self.tx
                .handle_datagram(&mut self.out, 64, &feedback.encode());
            self.drain()
        }

        /// Deliver the live pace tick at `at` (never before it is due).
        fn tick_at(&mut self, at: SimTime) -> Tick {
            let due = self.pace_deadline();
            assert!(at >= due, "a timer never fires early");
            let i = self
                .timers
                .iter()
                .position(|(t, token)| *t == due && self.tx.conn.gens.live(*token) == Some(TK_PACE))
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

    /// Idle time earns no credit: however long the pacer slept, the packet
    /// its wake sends leaves at once and the next one a full interval
    /// later, not in a burst repaying the idle time.
    fn assert_a_wake_earns_no_credit(rig: &mut Rig, wake: impl FnOnce(&mut Rig, SimTime) -> usize) {
        assert!(rig.asleep(), "nothing may leave: the pacer sleeps");
        let at = rig.now() + Duration::from_millis(50);
        assert_eq!(wake(rig, at), 1, "the wake sends at once");
        assert!(!rig.asleep());
        assert_eq!(rig.pace_deadline(), at + rig.interval());
    }

    #[test]
    fn an_empty_stream_accumulates_no_credit() {
        // Connected with nothing to send: the pacer sleeps from the SYN-ACK
        // on, with no tick armed to accrue anything.
        let mut rig = Rig::connected(idle_stream_plan());
        let stream = rig.tx.send_stream().expect("stream configured");
        assert_a_wake_earns_no_credit(&mut rig, |rig, at| {
            stream.send(&[7u8; 4000]).expect("fits the send buffer");
            rig.deliver_wakes(at)
        });
        // The rest of the message follows on the schedule the wake set.
        let tick = rig.tick_late(Duration::from_micros(150));
        assert_eq!(tick.sent, 1);
        assert_eq!(tick.next, tick.due + rig.interval());
    }

    #[test]
    fn a_closed_cubic_window_accumulates_no_credit() {
        let mut rig = Rig::connected(ConnectionPlan::new(Profile::cubic()));
        // No feedback arrives, so the initial window fills and shuts; the
        // pacer sleeps right after the packet that filled it.
        let mut opened = 0;
        while !rig.asleep() {
            assert_eq!(rig.tick_late(Duration::ZERO).sent, 1, "no empty tick");
            opened += 1;
            assert!(opened < 10_000, "the window never closed");
        }
        // A late feedback acknowledging everything reopens it.
        assert_a_wake_earns_no_credit(&mut rig, |rig, at| rig.ack_all(at));
    }

    #[test]
    fn on_time_ticks_follow_the_old_now_plus_interval_rule() {
        // A running pacer: every on-time tick re-arms at `now + interval`.
        let mut greedy = Rig::af(Rate::from_mbps(200));
        for _ in 0..500 {
            let tick = greedy.tick_at(greedy.pace_deadline());
            assert_eq!(tick.next, greedy.now() + greedy.interval());
        }
        // A sleeping one: a one-packet message written at the earliest
        // instant it may leave goes at once, and the next may leave an
        // interval after it — the same rule, with no tick in between.
        let mut rig = Rig::connected(idle_stream_plan());
        let stream = rig.tx.send_stream().expect("stream configured");
        for _ in 0..500 {
            let at = rig.pace_deadline().max(rig.now());
            stream.send(&[7u8; 64]).expect("fits the send buffer");
            assert_eq!(rig.deliver_wakes(at), 1);
            assert!(rig.asleep(), "asleep right after the last packet");
            assert_eq!(rig.pace_deadline(), at + rig.interval());
        }
    }

    #[test]
    fn a_write_before_the_interval_is_up_waits_for_it() {
        let mut rig = Rig::connected(idle_stream_plan());
        let stream = rig.tx.send_stream().expect("stream configured");
        stream.send(&[7u8; 64]).expect("fits the send buffer");
        let first = rig.now();
        assert_eq!(rig.deliver_wakes(first), 1);
        // The next message comes a microsecond later: the wake arms the
        // tick for the end of the interval instead of sending.
        stream.send(&[7u8; 64]).expect("fits the send buffer");
        assert_eq!(rig.deliver_wakes(first + Duration::from_micros(1)), 0);
        assert!(!rig.asleep());
        assert_eq!(rig.pace_deadline(), first + rig.interval());
        assert_eq!(rig.tick_at(rig.pace_deadline()).sent, 1);
        assert!(rig.asleep());
    }

    #[test]
    fn a_sleeping_sender_arms_one_recovery_deadline_and_rearms_only_earlier() {
        // A reliable message left unacknowledged: the sleeping sender owes
        // a tail-loss decision, and arms one timer for it.
        let mut rig = Rig::connected(idle_stream_plan());
        let stream = rig.tx.send_stream().expect("stream configured");
        let recovery = |rig: &Rig| {
            let live = |token: u64| rig.tx.conn.gens.live(token) == Some(TK_RECOVERY);
            rig.timers
                .iter()
                .filter(|(_, t)| live(*t))
                .map(|(at, _)| *at)
                .collect::<Vec<_>>()
        };
        let armed = rig.timers.len();
        stream.send(&[7u8; 64]).expect("fits the send buffer");
        assert_eq!(rig.deliver_wakes(rig.now()), 1);
        let deadline = recovery(&rig);
        assert_eq!(deadline.len(), 1);
        // More messages sent and left unacknowledged move the deadline
        // later: nothing more is armed.
        for i in 1..20 {
            let at = rig.now() + Duration::from_millis(i);
            stream.send(&[7u8; 64]).expect("fits the send buffer");
            assert_eq!(rig.deliver_wakes(at), 1);
        }
        assert_eq!(recovery(&rig), deadline);
        assert_eq!(
            rig.timers.len(),
            armed + 1,
            "no pace tick, one recovery timer"
        );
        // When it fires, the true deadline is checked: the oldest packet
        // has timed out, so the window is declared lost and retransmitted.
        let token = rig
            .timers
            .iter()
            .find(|(at, _)| *at == deadline[0])
            .unwrap()
            .1;
        rig.out.now = deadline[0];
        rig.tx.on_timer(&mut rig.out, token);
        assert_eq!(rig.drain(), 1, "one retransmission, paced");
        assert!(!rig.asleep());
    }
}
