//! The backend-neutral application API: fluent service profiles and
//! poll-style connection sessions.
//!
//! The paper's thesis is that applications *negotiate* a transport service
//! per connection from three orthogonal axes (reliability, receiver
//! processing, QoS awareness). This module is where that idea meets the
//! programmer:
//!
//! * [`Profile`] — a validated service profile, built fluently
//!   (`Profile::new().reliability(..).feedback(..).cc(..).build()?`) or
//!   from the named paper presets ([`Profile::qtp_af`],
//!   [`Profile::qtp_light`]); lossless to/from the [`CapabilitySet`] that
//!   travels in the handshake.
//! * [`ConnectionPlan`] — one connection's worth of application intent:
//!   the offered profile, the traffic model, the receiver's negotiation
//!   policy. Plans are backend-neutral descriptions; every backend runs
//!   the same plan unchanged.
//! * [`Session`] — a sans-io connection object in the tradition of
//!   quinn-proto: feed it datagrams ([`Session::handle_input`]) and time
//!   ([`Session::on_timeout`]), poll it for datagrams to send
//!   ([`Session::poll_transmit`]), the next wakeup
//!   ([`Session::poll_timeout`]) and typed events
//!   ([`Session::poll_event`]: `Connected`, `Delivered`, `TtlExpired`,
//!   `Rejected`, `Closed`). It is the crate's one endpoint: it also
//!   implements the lower-level [`Endpoint`] seam, so both drivers (the
//!   simulator adapter behind [`attach_pair`] and `qtp-io`'s `MuxDriver`)
//!   mount it directly, and the poll surface runs through that same seam.
//! * [`Backend`] — the run-a-scenario seam: hand any backend a slice of
//!   plans and get per-connection [`ConnectionOutcome`]s back.
//!   [`SimBackend`] (here) drives plans through the deterministic
//!   simulator; `qtp_io::backend::MuxBackend` drives the *same plans*
//!   over real UDP sockets, multiplexed on one socket pair.
//!
//! QUIC implementations converged on exactly this shape — one sans-io
//! connection object, many I/O strategies — and it is what lets a single
//! program here run unchanged on the simulator and on the real-socket
//! mux, alone or among hundreds of flows.

use qtp_metrics::trace::{CounterSet, TraceEventKind, TraceRegistry, Tracer};
use qtp_simnet::packet::{FlowId, NodeId};
use qtp_simnet::prelude::*;
use qtp_simnet::sim::{Simulator, Waker};
use qtp_simnet::topology::{Dumbbell, DumbbellConfig};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use crate::adapter::{SimAgent, SimHost};
use crate::caps::{CapabilitySet, CapsError, CcKind, FeedbackMode, ServerPolicy};
use crate::driver::{Command, Endpoint, Outbox, Transmit};
use crate::receiver::QtpReceiver;
use crate::sender::{AppModel, QtpSender};
use crate::stream::{RecvStream, SendStream, StreamConfig};
use crate::wire::{self, QtpPacket, WireError};

pub use qtp_sack::Reliability;

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// Why a profile failed validation. Returned by [`ProfileBuilder::build`]
/// (and [`Profile::try_from`] on a [`CapabilitySet`]) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// `Reliability::Ttl(0)`: every ADU would be stale before its first
    /// transmission. Use [`Reliability::None`] to opt out of reliability.
    ZeroTtl,
    /// `Reliability::Budget(0)`: a zero retransmission budget is
    /// [`Reliability::None`] with extra bookkeeping — ask for what you
    /// mean.
    ZeroRetxBudget,
    /// `CcKind::Fixed` with a zero rate: the sender would never transmit.
    ZeroFixedRate,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::ZeroTtl => write!(f, "partial reliability with a zero TTL"),
            ProfileError::ZeroRetxBudget => {
                write!(f, "partial reliability with a zero retransmission budget")
            }
            ProfileError::ZeroFixedRate => write!(f, "fixed-rate congestion control at 0 bit/s"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A validated service profile over the paper's three axes.
///
/// Build one fluently — [`Profile::new`] returns a [`ProfileBuilder`] —
/// or use the named paper instances:
///
/// ```
/// use qtp_core::session::{Profile, Reliability};
/// use qtp_core::{CcKind, FeedbackMode};
/// use qtp_simnet::time::Rate;
/// use std::time::Duration;
///
/// // The QTPAF preset…
/// let af = Profile::qtp_af(Rate::from_mbps(2));
/// // …and an à-la-carte composition over the same axes.
/// let custom = Profile::new()
///     .reliability(Reliability::Ttl(Duration::from_millis(200)))
///     .feedback(FeedbackMode::SenderLoss)
///     .cc(CcKind::Tfrc)
///     .build()
///     .unwrap();
/// assert_ne!(af.caps(), custom.caps());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    caps: CapabilitySet,
}

impl Profile {
    /// Start a fluent profile description. Defaults to the standard-TFRC
    /// baseline (no reliability, receiver-side estimation, plain TFRC).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> ProfileBuilder {
        ProfileBuilder {
            caps: Profile::tfrc().caps,
        }
    }

    /// The **QTPAF** instance (paper §4): gTFRC with guaranteed floor `g`,
    /// full reliability, receiver-side loss estimation.
    pub fn qtp_af(g: Rate) -> Profile {
        Profile {
            caps: CapabilitySet {
                reliability: Reliability::Full,
                feedback: FeedbackMode::ReceiverLoss,
                cc: CcKind::Gtfrc { target: g },
            },
        }
    }

    /// The **QTPlight** instance (paper §3): sender-side loss estimation,
    /// no retransmission, plain TFRC.
    pub fn qtp_light() -> Profile {
        Profile {
            caps: CapabilitySet {
                reliability: Reliability::None,
                feedback: FeedbackMode::SenderLoss,
                cc: CcKind::Tfrc,
            },
        }
    }

    /// QTPlight with TTL-bounded partial reliability — the composition
    /// paper §3 highlights as a free by-product ("our solution allows
    /// applying efficient selective retransmission of lost data"). A zero
    /// TTL is rejected — see [`ProfileError::ZeroTtl`].
    pub fn qtp_light_partial(ttl: Duration) -> Result<Profile, ProfileError> {
        Profile::new()
            .reliability(Reliability::Ttl(ttl))
            .feedback(FeedbackMode::SenderLoss)
            .cc(CcKind::Tfrc)
            .build()
    }

    /// The standard TFRC baseline both named instances are compared
    /// against.
    pub fn tfrc() -> Profile {
        Profile {
            caps: CapabilitySet {
                reliability: Reliability::None,
                feedback: FeedbackMode::ReceiverLoss,
                cc: CcKind::Tfrc,
            },
        }
    }

    /// CUBIC (RFC 8312) with full reliability and receiver-side loss
    /// estimation — the window-based point of comparison for the
    /// controller races (C-group experiments).
    pub fn cubic() -> Profile {
        Profile {
            caps: CapabilitySet {
                reliability: Reliability::Full,
                feedback: FeedbackMode::ReceiverLoss,
                cc: CcKind::Cubic,
            },
        }
    }

    /// BBR-lite (deterministic model-based controller) with full
    /// reliability and receiver-side loss estimation.
    pub fn bbr_lite() -> Profile {
        Profile {
            caps: CapabilitySet {
                reliability: Reliability::Full,
                feedback: FeedbackMode::ReceiverLoss,
                cc: CcKind::BbrLite,
            },
        }
    }

    /// The wire-level capability set this profile offers in the handshake
    /// (lossless; [`Profile::try_from`] converts back).
    pub fn caps(&self) -> CapabilitySet {
        self.caps
    }

    /// The reliability axis.
    pub fn reliability(&self) -> Reliability {
        self.caps.reliability
    }

    /// The receiver-processing axis.
    pub fn feedback(&self) -> FeedbackMode {
        self.caps.feedback
    }

    /// The QoS-awareness axis.
    pub fn cc(&self) -> CcKind {
        self.caps.cc
    }
}

impl From<Profile> for CapabilitySet {
    fn from(p: Profile) -> CapabilitySet {
        p.caps
    }
}

impl TryFrom<CapabilitySet> for Profile {
    type Error = ProfileError;

    /// Validate a wire-level capability set into a profile. Lossless for
    /// every set a [`ProfileBuilder`] accepts.
    fn try_from(caps: CapabilitySet) -> Result<Profile, ProfileError> {
        ProfileBuilder { caps }.build()
    }
}

/// Fluent builder returned by [`Profile::new`]: an unchecked
/// [`CapabilitySet`], validated once, in [`ProfileBuilder::build`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileBuilder {
    caps: CapabilitySet,
}

impl ProfileBuilder {
    /// Set the reliability axis.
    pub fn reliability(mut self, r: Reliability) -> Self {
        self.caps.reliability = r;
        self
    }

    /// Set the receiver-processing axis.
    pub fn feedback(mut self, f: FeedbackMode) -> Self {
        self.caps.feedback = f;
        self
    }

    /// Set the QoS-awareness axis.
    pub fn cc(mut self, cc: CcKind) -> Self {
        self.caps.cc = cc;
        self
    }

    /// Validate the composition.
    pub fn build(self) -> Result<Profile, ProfileError> {
        match self.caps.reliability {
            Reliability::Ttl(d) if d.is_zero() => return Err(ProfileError::ZeroTtl),
            Reliability::Budget(0) => return Err(ProfileError::ZeroRetxBudget),
            _ => {}
        }
        if let CcKind::Fixed { rate } = self.caps.cc {
            if rate.bps() == 0 {
                return Err(ProfileError::ZeroFixedRate);
            }
        }
        Ok(Profile { caps: self.caps })
    }
}

// ---------------------------------------------------------------------------
// Connection plans
// ---------------------------------------------------------------------------

/// One connection's worth of application intent, backend-neutral: what
/// service to offer, what traffic to generate, and how the receiving side
/// negotiates. The same plan runs unchanged on every [`Backend`].
#[derive(Debug, Clone)]
pub struct ConnectionPlan {
    /// Display / flow-registration label (backends generate one if empty).
    pub label: String,
    /// Service profile the sender offers.
    pub profile: Profile,
    /// Traffic model on top of the sender.
    pub app: AppModel,
    /// Payload bytes per data packet.
    pub payload: u32,
    /// Receiver-side negotiation policy.
    pub policy: ServerPolicy,
    /// Selfish-receiver attack factor (1.0 = honest).
    pub selfish_factor: f64,
    /// **D1 ablation** (experiments only): disable RTT-window loss-event
    /// grouping in the sender-side estimator.
    pub ablate_ungrouped_losses: bool,
    /// Application data plane: when set, the connection carries stream
    /// messages (see [`SendStream`]/[`RecvStream`]) instead of `app`'s
    /// synthetic traffic.
    pub stream: Option<StreamConfig>,
}

impl ConnectionPlan {
    /// A greedy connection offering `profile`, with default payload size
    /// and a permissive receiver.
    pub fn new(profile: Profile) -> Self {
        ConnectionPlan {
            label: String::new(),
            profile,
            app: AppModel::Greedy,
            payload: 1000,
            policy: ServerPolicy::default(),
            selfish_factor: 1.0,
            ablate_ungrouped_losses: false,
            stream: None,
        }
    }

    /// Set the label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Set the traffic model.
    pub fn app(mut self, app: AppModel) -> Self {
        self.app = app;
        self
    }

    /// Shorthand for a finite transfer of `packets` packets.
    pub fn finite(self, packets: u64) -> Self {
        self.app(AppModel::Finite { packets })
    }

    /// Set the payload bytes per packet.
    pub fn payload(mut self, payload: u32) -> Self {
        self.payload = payload;
        self
    }

    /// Set the receiver's negotiation policy.
    pub fn policy(mut self, policy: ServerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the selfish-receiver factor (experiments).
    pub fn selfish_factor(mut self, k: f64) -> Self {
        self.selfish_factor = k;
        self
    }

    /// Enable the D1 ungrouped-losses ablation (experiments).
    pub fn ablate_ungrouped_losses(mut self, on: bool) -> Self {
        self.ablate_ungrouped_losses = on;
        self
    }

    /// Attach the application stream data plane: traffic comes from
    /// [`SendStream::send`] instead of the synthetic app model, and the
    /// receiving side surfaces messages through a [`RecvStream`].
    pub fn stream(mut self, cfg: StreamConfig) -> Self {
        self.stream = Some(cfg);
        self
    }

    /// The reliability mode a backend should judge this plan by: the
    /// **negotiated** mode once the handshake completed (the receiver's
    /// policy may have downgraded the offer), the offer before. Every
    /// backend's completion rule goes through this one helper so sim and
    /// socket backends can never disagree on what "done" means.
    pub fn effective_reliability(&self, negotiated: Option<CapabilitySet>) -> Reliability {
        negotiated
            .map(|c| c.reliability)
            .unwrap_or(self.profile.caps().reliability)
    }

    /// Packets this plan's app model will generate, if finite (backends
    /// use this to decide when a connection has finished its job).
    pub fn finite_packets(&self) -> Option<u64> {
        match self.app {
            AppModel::Finite { packets } => Some(packets),
            _ => None,
        }
    }

    /// The plan's label, or a generated `conn{index:04}` when unset.
    pub fn display_label(&self, index: usize) -> String {
        if self.label.is_empty() {
            format!("conn{index:04}")
        } else {
            self.label.clone()
        }
    }
}

// ---------------------------------------------------------------------------
// Session events
// ---------------------------------------------------------------------------

/// A typed event observed on a [`Session`] — the application-facing view
/// of negotiation outcomes and delivery, with no reaching into counters.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The handshake completed; this is the service the network granted.
    Connected {
        /// The negotiated capability set (the offer after policy
        /// intersection).
        negotiated: CapabilitySet,
    },
    /// Application payload became deliverable (receiver side).
    /// Deliveries coalesce into the newest unpolled `Delivered` that no
    /// lifecycle event follows, so a long-running connection holds O(1)
    /// delivery events rather than one per ADU.
    Delivered {
        /// Bytes handed to the application since the last poll.
        bytes: u64,
    },
    /// Partial reliability abandoned stale data (sender side): `packets`
    /// ADUs aged past their TTL/budget and will never be (re)sent.
    /// Coalesces like `Delivered`.
    TtlExpired {
        /// Newly abandoned packets since the last poll.
        packets: u64,
    },
    /// A peer offered a capability set this implementation cannot decode;
    /// the datagram was dropped. Carries the offending wire code.
    /// Consecutive identical rejections (a peer retransmitting the same
    /// malformed SYN) coalesce into one event at the queue tail.
    Rejected {
        /// Which axis failed and with what wire code.
        error: CapsError,
    },
    /// Stream messages became available on the [`RecvStream`]
    /// (receiver side). Coalesces like `Delivered`.
    Readable {
        /// Complete messages surfaced since the last poll.
        messages: u64,
    },
    /// The bounded stream send buffer has space again after a
    /// [`StreamError`](crate::stream::StreamError)`::Full` rejection
    /// (sender side) — retry the send. Queued at most once between two
    /// lifecycle events while unpolled.
    Writable,
    /// The peer finished its stream: the close handshake's FIN was
    /// processed and every deliverable message has been surfaced
    /// (receiver side).
    Finished,
    /// The session closed. For a graceful [`Session::close`] this fires
    /// once the wire-level FIN / FIN-ACK handshake completes; for
    /// [`Session::abort`] it fires immediately.
    Closed,
}

/// Cloneable handle onto a session's event queue.
///
/// Sessions attached to the simulator are moved into it (like agents), so
/// observers keep one of these — the session-event analogue of
/// [`Session::tracer`].
#[derive(Debug, Default, Clone)]
pub struct SessionEvents {
    inner: Rc<RefCell<VecDeque<SessionEvent>>>,
}

impl SessionEvents {
    /// Queue an event. A counting event (`Delivered`, `TtlExpired`,
    /// `Readable`) adds into the newest queued event of its kind, and a
    /// `Writable` is dropped if one is queued, unless a lifecycle event
    /// (`Connected`, `Rejected`, `Finished`, `Closed`) was queued after it;
    /// a `Rejected` identical to the tail (a peer retransmitting one
    /// malformed SYN) is dropped. So an observer that reads events only
    /// after the run — or never — holds O(1) of them, not one per ADU, and
    /// one that polls after every callback sees each as it was pushed.
    fn push(&self, ev: SessionEvent) {
        use SessionEvent::*;
        let mut q = self.inner.borrow_mut();
        if matches!(ev, Rejected { .. }) && q.back() == Some(&ev) {
            return;
        }
        let newest = q
            .iter_mut()
            .rev()
            .take_while(|e| !matches!(e, Connected { .. } | Rejected { .. } | Finished | Closed))
            .find(|e| std::mem::discriminant(&**e) == std::mem::discriminant(&ev));
        match (newest, ev) {
            (Some(Delivered { bytes: queued }), Delivered { bytes: n })
            | (Some(TtlExpired { packets: queued }), TtlExpired { packets: n })
            | (Some(Readable { messages: queued }), Readable { messages: n }) => *queued += n,
            (Some(Writable), Writable) => {}
            (_, ev) => q.push_back(ev),
        }
    }

    /// Pop the oldest pending event.
    pub fn poll(&self) -> Option<SessionEvent> {
        self.inner.borrow_mut().pop_front()
    }

    /// Drain every pending event.
    pub fn drain(&self) -> Vec<SessionEvent> {
        Vec::from(std::mem::take(&mut *self.inner.borrow_mut()))
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

enum Role {
    Sender(QtpSender),
    Receiver(QtpReceiver),
}

impl Role {
    /// The wrapped state machine, for [`Session`]'s `Endpoint` impl to
    /// drive.
    fn endpoint(&mut self) -> &mut dyn Endpoint {
        match self {
            Role::Sender(s) => s,
            Role::Receiver(r) => r,
        }
    }
}

/// A sans-io QTP connection endpoint with a poll-style surface — the one
/// endpoint type this crate exports.
///
/// One `Session` wraps one side of a connection (sender or receiver). Two
/// consumption styles exist, and every backend uses exactly one:
///
/// **Mounted style** — a `Session` implements [`Endpoint`], so the
/// simulator adapter and `qtp_io::MuxDriver` drive it like any endpoint.
/// Commands pass through to the driver unchanged and in order (which is
/// what keeps fixed-seed simulations byte-identical to mounting the bare
/// sender and receiver): the session hands the driver's [`Outbox`] straight
/// to its sender or receiver, so every command — and every transmit buffer
/// the driver lends — goes in once, and afterwards the session only reads
/// the deliveries the callback queued. The driver owns the timers and the
/// wakes (it hands a sending session its [`Waker`] through
/// [`Endpoint::set_waker`]), and [`Session::poll_timeout`] stays empty.
///
/// **Poll style** — for hand-written event loops, quinn-proto
/// fashion; [`crate::pipe`] is the reference loop (`start`, then
/// `handle_input` / `on_timeout` / `poll_transmit` / `poll_timeout`, with
/// `poll_event` left to the caller). Each poll call is the mounted style
/// with the session as its own driver: it runs the same [`Endpoint`]
/// callback on an outbox the session keeps, then queues the transmits and
/// timers for polling. A caller done with a transmitted header hands it
/// back with [`Session::reuse`]. Events and accessors work identically in
/// both styles.
pub struct Session {
    inner: Role,
    started: bool,
    closed: bool,
    connected: bool,
    /// The poll-style surfaces, made by the first poll call: a session
    /// mounted in a driver never carries them.
    poll: Option<Box<Polled>>,
    delivered_bytes: u64,
    abandoned_seen: u64,
    events: SessionEvents,
    /// `Finished` has been emitted.
    finished_reported: bool,
    /// The endpoint's own observability handle (stream edges are emitted
    /// here too, so a trace shows app-visible events alongside wire
    /// events; its counters carry the endpoint's measurements).
    tracer: Tracer,
}

/// What the poll style keeps between calls: the outbox the session drives
/// its own endpoint with, and the transmits, timers and wake it queued.
#[derive(Default)]
struct Polled {
    out: Outbox,
    transmits: VecDeque<Transmit>,
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    timer_seq: u64,
    /// The token [`Session::close`] wakes a sleeping sender with.
    wake: Option<u64>,
}

impl Polled {
    /// Pop the token of the earliest timer due at `now`.
    fn due_timer(&mut self, now: SimTime) -> Option<u64> {
        let Reverse((at, _, token)) = *self.timers.peek()?;
        (at <= now).then(|| {
            self.timers.pop();
            token
        })
    }
}

impl Session {
    /// A sending session for one connection: `data_flow` is the flow id
    /// its data travels on, `peer` the destination endpoint id (a node id
    /// under the simulator; real-socket drivers map every id onto the
    /// connected peer).
    pub fn sender(data_flow: FlowId, peer: NodeId, plan: &ConnectionPlan) -> Session {
        let sender = QtpSender::new(data_flow, peer, plan);
        Session::wrap(Role::Sender(sender))
    }

    /// A receiving session: data arrives on `data_flow`, feedback leaves
    /// on `fb_flow` toward `peer`.
    pub fn receiver(
        data_flow: FlowId,
        fb_flow: FlowId,
        peer: NodeId,
        plan: &ConnectionPlan,
    ) -> Session {
        let receiver = QtpReceiver::new(data_flow, fb_flow, peer, plan);
        Session::wrap(Role::Receiver(receiver))
    }

    /// The sending half of the stream data plane (plans built with
    /// [`ConnectionPlan::stream`], sender side). Cheap to clone and kept
    /// valid after the session moves into a simulator or driver.
    pub fn send_stream(&self) -> Option<SendStream> {
        match &self.inner {
            Role::Sender(s) => s.send_stream(),
            Role::Receiver(_) => None,
        }
    }

    /// The receiving half of the stream data plane (plans built with
    /// [`ConnectionPlan::stream`], receiver side). Cheap to clone and kept
    /// valid after the session moves into a simulator or driver.
    pub fn recv_stream(&self) -> Option<RecvStream> {
        match &self.inner {
            Role::Receiver(r) => r.recv_stream(),
            Role::Sender(_) => None,
        }
    }

    /// Build the session around the endpoint's own tracer and stream state.
    fn wrap(inner: Role) -> Session {
        let tracer = match &inner {
            Role::Sender(s) => s.tracer(),
            Role::Receiver(r) => r.tracer(),
        };
        Session {
            inner,
            started: false,
            closed: false,
            connected: false,
            poll: None,
            delivered_bytes: 0,
            abandoned_seen: 0,
            events: SessionEvents::default(),
            finished_reported: false,
            tracer,
        }
    }

    // ---- poll-style driving -------------------------------------------

    /// Start the session (idempotent): a sender emits its SYN.
    pub fn start(&mut self, now: SimTime) {
        self.pump(now, |s, out| s.on_start(out));
    }

    /// An incoming datagram: `wire_size` is the accounted on-wire size,
    /// `header` the encoded transport header. Malformed capability offers
    /// surface as [`SessionEvent::Rejected`]; all other undecodable input
    /// is silently dropped (datagram networks promise nothing).
    pub fn handle_input(&mut self, now: SimTime, wire_size: u32, header: &[u8]) {
        self.pump(now, |s, out| s.handle_datagram(out, wire_size, header));
    }

    /// Deliver a pending wake, then fire every internally-armed timer due
    /// at `now`, in deadline order (ties by arming order). Poll style only
    /// — while mounted in a driver the driver owns the timers and wakes.
    pub fn on_timeout(&mut self, now: SimTime) {
        if let Some(token) = self.take_wake() {
            self.pump(now, |s, out| s.on_timer(out, token));
        }
        while let Some(token) = self.poll.as_mut().and_then(|p| p.due_timer(now)) {
            self.pump(now, |s, out| s.on_timer(out, token));
        }
    }

    /// Deadline of the earliest internally-armed timer, if any: sleep no
    /// longer than this before calling [`Session::on_timeout`]. A sender
    /// woken by a stream write or a close since the last call reports the
    /// time of that call, which is never later than the caller's clock.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        let poll = self.poll.as_ref()?;
        if self.wake_pending() {
            return Some(poll.out.now);
        }
        let Reverse((at, _, _)) = poll.timers.peek()?;
        Some(*at)
    }

    /// Whether a wake waits for [`Session::on_timeout`].
    fn wake_pending(&self) -> bool {
        let closing = self.poll.as_ref().is_some_and(|p| p.wake.is_some());
        let written = matches!(&self.inner, Role::Sender(s) if s.woken().is_some());
        !self.closed && (closing || written)
    }

    /// The pending wake's token, taken.
    fn take_wake(&mut self) -> Option<u64> {
        let closing = self.poll.as_mut().and_then(|p| p.wake.take());
        let written = match &self.inner {
            Role::Sender(s) => s.take_woken(),
            Role::Receiver(_) => None,
        };
        closing.or(written)
    }

    /// Next datagram to put on the wire, in emission order.
    pub fn poll_transmit(&mut self) -> Option<Transmit> {
        self.poll.as_mut()?.transmits.pop_front()
    }

    /// Give a polled transmit's `header` back once it is on the wire (or
    /// dropped): the session encodes a later header into it instead of
    /// allocating one — [`Outbox::reuse`] for the poll surface.
    pub fn reuse(&mut self, header: Vec<u8>) {
        self.poll.get_or_insert_with(Box::default).out.reuse(header);
    }

    /// Next pending session event.
    pub fn poll_event(&mut self) -> Option<SessionEvent> {
        self.events.poll()
    }

    /// Close the session. A running sender drains, runs the wire-level
    /// FIN / FIN-ACK handshake, and emits [`SessionEvent::Closed`] once the
    /// peer acknowledged (or retries were exhausted); keep driving the
    /// session until then. A sender that never completed its handshake, and
    /// any receiver, closes locally like [`Session::abort`].
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        match &mut self.inner {
            Role::Sender(s) => {
                let wake = s.begin_close();
                if s.close_complete() {
                    self.finish_close();
                } else if let (Some(token), Some(poll)) = (wake, &mut self.poll) {
                    // A sleeping sender: `on_timeout` wakes it to drain.
                    poll.wake = Some(token);
                }
                // Otherwise `derive_events` observes close_complete()
                // later and finishes then.
            }
            Role::Receiver(_) => self.finish_close(),
        }
    }

    /// Close immediately and locally: no FIN goes out, further input and
    /// timers are ignored (except close-handshake packets, which still get
    /// acknowledged so the peer can finish), queued transmits still drain,
    /// and [`SessionEvent::Closed`] is emitted at once.
    pub fn abort(&mut self) {
        if !self.closed {
            self.finish_close();
        }
    }

    fn finish_close(&mut self) {
        self.closed = true;
        if let Some(poll) = &mut self.poll {
            poll.timers.clear();
        }
        self.events.push(SessionEvent::Closed);
    }

    // ---- shared internals ---------------------------------------------

    fn detect_rejected(&mut self, now: SimTime, header: &[u8]) {
        if wire::carries_capabilities(header) {
            if let Err(WireError::BadCapability(error)) = QtpPacket::decode(header) {
                self.events.push(SessionEvent::Rejected { error });
                self.tracer.emit(now.as_nanos(), TraceEventKind::SoftError);
            }
        }
    }

    /// Poll style: drive `callback` — one of the session's own [`Endpoint`]
    /// methods, the path every driver takes — with the session's outbox at
    /// `now`, then queue what it emitted for polling. The poll state is
    /// taken out for the call and put back with its lent buffers; a close
    /// during the call drops the timers. Deliveries were counted on the way
    /// through, and a closed session's timers would only be skipped, so
    /// neither is kept.
    fn pump(&mut self, now: SimTime, callback: impl FnOnce(&mut Session, &mut Outbox)) {
        let mut poll = self.poll.take().unwrap_or_default();
        poll.out.now = now;
        callback(self, &mut poll.out);
        if self.closed {
            poll.timers.clear();
        }
        while let Some(cmd) = poll.out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => poll.transmits.push_back(t),
                Command::SetTimer { at, token } if !self.closed => {
                    poll.timer_seq += 1;
                    poll.timers.push(Reverse((at, poll.timer_seq, token)));
                }
                _ => {}
            }
        }
        self.poll = Some(poll);
    }

    /// The endpoint wrote into the driver's outbox. Read the deliveries it
    /// queued after `mark`, leaving every command in place for the driver,
    /// then derive session events.
    fn observe(&mut self, out: &Outbox, mark: usize) {
        for cmd in out.since(mark) {
            if let Command::Deliver { bytes, .. } = *cmd {
                self.note_delivered(bytes);
            }
        }
        self.derive_events(out.now);
    }

    fn note_delivered(&mut self, bytes: u64) {
        self.delivered_bytes += bytes;
        self.events.push(SessionEvent::Delivered { bytes });
    }

    /// Surface what the last callback changed as session events.
    fn derive_events(&mut self, now: SimTime) {
        if !self.connected {
            if let Some(negotiated) = self.negotiated() {
                self.connected = true;
                self.events.push(SessionEvent::Connected { negotiated });
            }
        }
        let abandoned = self.tracer.read(|c| c.abandoned);
        if abandoned > self.abandoned_seen {
            let packets = abandoned - self.abandoned_seen;
            self.events.push(SessionEvent::TtlExpired { packets });
            self.abandoned_seen = abandoned;
        }
        // Stream data-plane edges.
        let (writable, readable) = match &self.inner {
            Role::Sender(s) => (s.take_writable_edge(), 0),
            Role::Receiver(r) => (false, r.take_readable()),
        };
        if writable {
            self.tracer
                .emit(now.as_nanos(), TraceEventKind::StreamWritable);
            self.events.push(SessionEvent::Writable);
        }
        if readable > 0 {
            self.tracer
                .emit(now.as_nanos(), TraceEventKind::StreamReadable);
            self.events
                .push(SessionEvent::Readable { messages: readable });
        }
        if !self.finished_reported {
            if let Role::Receiver(r) = &self.inner {
                if r.finished() {
                    self.finished_reported = true;
                    self.tracer.emit(now.as_nanos(), TraceEventKind::StreamFin);
                    self.events.push(SessionEvent::Finished);
                }
            }
        }
        // Graceful close: the sender reports completion of the FIN
        // handshake; surface it as `Closed` and stop the timer surface.
        if !self.closed {
            if let Role::Sender(s) = &self.inner {
                if s.close_complete() {
                    self.finish_close();
                }
            }
        }
    }

    // ---- observation ---------------------------------------------------

    /// The negotiated capability set, once the handshake completed.
    pub fn negotiated(&self) -> Option<CapabilitySet> {
        match &self.inner {
            Role::Sender(s) => s.negotiated(),
            Role::Receiver(r) => r.negotiated(),
        }
    }

    /// Cloneable handle onto this session's event queue (survives the
    /// session being moved into a simulator or driver).
    pub fn events(&self) -> SessionEvents {
        self.events.clone()
    }

    /// The endpoint's [`Tracer`]: per-connection counters always (every
    /// measurement the endpoint makes, processing costs included), plus
    /// event forwarding once a sink is attached (e.g. via
    /// [`TraceRegistry::register`]). Cheap to clone and kept valid after
    /// the session moves into a simulator or driver.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Application bytes delivered by this session (receiver side).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Soft errors absorbed by this session (malformed capability offers
    /// dropped on the floor). Reads the tracer's counters — the same
    /// figure a [`TraceRegistry`] snapshot reports.
    pub fn soft_errors(&self) -> u64 {
        self.tracer.read(|c| c.soft_errors)
    }

    /// Whether [`Session::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Sender-side: has every packet handed to the network been
    /// acknowledged?
    pub fn all_acked(&self) -> bool {
        match &self.inner {
            Role::Sender(s) => s.all_acked(),
            Role::Receiver(_) => true,
        }
    }

    /// Sender-side: new (never-retransmitted) packets sent so far.
    pub fn sent_new(&self) -> u64 {
        match &self.inner {
            Role::Sender(s) => s.sent_new(),
            Role::Receiver(_) => 0,
        }
    }

    /// Receiver-side: packets delivered to the application so far.
    pub fn delivered_packets(&self) -> u64 {
        match &self.inner {
            Role::Receiver(r) => r.delivered_packets(),
            Role::Sender(_) => 0,
        }
    }

    /// Receiver-side: next expected in-order sequence.
    pub fn cum_ack(&self) -> u64 {
        match &self.inner {
            Role::Receiver(r) => r.cum_ack(),
            Role::Sender(_) => 0,
        }
    }
}

/// A `Session` is itself an [`Endpoint`], so every driver hosts it, and
/// its poll surface drives these same methods: the started / closed gates,
/// rejection detection and delivery accounting live here once. The inner
/// endpoint writes into the driver's outbox directly, so commands reach the
/// driver in emission order — a mounted `Session` replays exactly like its
/// bare sender or receiver.
impl Endpoint for Session {
    fn on_start(&mut self, out: &mut Outbox) {
        if self.started || self.closed {
            return;
        }
        self.started = true;
        let mark = out.queued();
        self.inner.endpoint().on_start(out);
        self.observe(out, mark);
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        // Close-handshake packets pass the gate: a closed receiver must
        // keep acknowledging retransmitted FINs so the peer can finish.
        if self.closed && !wire::is_close_handshake(header) {
            return;
        }
        self.detect_rejected(out.now, header);
        let mark = out.queued();
        self.inner
            .endpoint()
            .handle_datagram(out, wire_size, header);
        self.observe(out, mark);
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        if self.closed {
            return;
        }
        // Stale generations are filtered by the endpoint itself.
        let mark = out.queued();
        self.inner.endpoint().on_timer(out, token);
        self.observe(out, mark);
    }

    /// A sending session's stream writes wake it through `waker`.
    fn set_waker(&mut self, waker: Waker) {
        if let Role::Sender(s) = &mut self.inner {
            s.set_waker(waker);
        }
    }
}

// ---------------------------------------------------------------------------
// Simulator binding
// ---------------------------------------------------------------------------

/// Observation handles for one simulated connection attached with
/// [`attach_pair`] (the sessions themselves move into the simulator).
#[derive(Debug, Clone)]
pub struct PairHandles {
    /// Flow id of the data direction (throughput/goodput accounting).
    pub data_flow: FlowId,
    /// Flow id of the feedback direction.
    pub fb_flow: FlowId,
    /// Sender-side session events.
    pub tx_events: SessionEvents,
    /// Receiver-side session events.
    pub rx_events: SessionEvents,
    /// Sending half of the stream data plane (plans with a stream config).
    pub tx_stream: Option<SendStream>,
    /// Receiving half of the stream data plane.
    pub rx_stream: Option<RecvStream>,
    /// Sender-side tracer: its counters hold the sender's measurements
    /// (retransmissions, abandonments, rate updates, srtt, cost meter).
    pub tx_tracer: Tracer,
    /// Receiver-side tracer: its counters hold the receiver's measurements
    /// (feedbacks sent, per-packet cost, peak state, delivery latency).
    pub rx_tracer: Tracer,
}

/// Attach one planned connection to a simulated topology: a sending
/// session at `sender_node`, a receiving session at `receiver_node`, two
/// registered flows (data, then feedback).
///
/// Mounting the sessions replays byte-identically, for a fixed seed, to
/// mounting the bare sender and receiver endpoints they wrap (this
/// module's `*_session_wiring_matches_legacy_byte_for_byte` tests hold
/// that), and adds typed events.
pub fn attach_pair(
    sim: &mut Simulator,
    sender_node: NodeId,
    receiver_node: NodeId,
    plan: &ConnectionPlan,
) -> PairHandles {
    let (mut tx, rx, handles) = new_pair(sim, sender_node, receiver_node, plan);
    tx.set_waker(sim.waker().to(sender_node as u64, 0));
    sim.attach_agent(sender_node, Box::new(SimAgent::new(tx)));
    sim.attach_agent(receiver_node, Box::new(SimAgent::new(rx)));
    handles
}

/// Register one connection's two flows and build its two sessions, with
/// the handles that observe them once they move into the simulator.
fn new_pair(
    sim: &mut Simulator,
    sender_node: NodeId,
    receiver_node: NodeId,
    plan: &ConnectionPlan,
) -> (Session, Session, PairHandles) {
    let data_flow = sim.register_flow();
    let fb_flow = sim.register_flow();
    let tx = Session::sender(data_flow, receiver_node, plan);
    let rx = Session::receiver(data_flow, fb_flow, sender_node, plan);
    let handles = PairHandles {
        data_flow,
        fb_flow,
        tx_events: tx.events(),
        rx_events: rx.events(),
        tx_stream: tx.send_stream(),
        rx_stream: rx.recv_stream(),
        tx_tracer: tx.tracer(),
        rx_tracer: rx.tracer(),
    };
    (tx, rx, handles)
}

/// Attach several planned connections whose endpoints may share nodes.
///
/// [`attach_pair`] installs one agent per node, so two connections that
/// terminate on the same host (a request stream one way and a response
/// stream the other) silently overwrite each other. This variant groups
/// all sessions per node into one simulator agent, routing each session's
/// *inbound* flow — the feedback flow for a sender, the data flow for a
/// receiver — and attaches the hosts in ascending node order so a fixed
/// seed still replays byte-identically.
pub fn attach_pairs(
    sim: &mut Simulator,
    pairs: &[(NodeId, NodeId, ConnectionPlan)],
) -> Vec<PairHandles> {
    let mut hosts: std::collections::BTreeMap<NodeId, SimHost> = std::collections::BTreeMap::new();
    let mut out = Vec::with_capacity(pairs.len());
    let waker = sim.waker();
    for &(sender_node, receiver_node, ref plan) in pairs {
        let (tx, rx, handles) = new_pair(sim, sender_node, receiver_node, plan);
        hosts
            .entry(sender_node)
            .or_default()
            .add(tx, [handles.fb_flow], &waker, sender_node);
        hosts
            .entry(receiver_node)
            .or_default()
            .add(rx, [handles.data_flow], &waker, receiver_node);
        out.push(handles);
    }
    for (node, host) in hosts {
        sim.attach_agent(node, Box::new(host));
    }
    out
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// What one planned connection did by the end of a [`Backend::run`].
#[derive(Debug, Clone)]
pub struct ConnectionOutcome {
    /// The plan's label (or the backend-generated one).
    pub label: String,
    /// The negotiated capability set, if the handshake completed.
    pub negotiated: Option<CapabilitySet>,
    /// Application bytes delivered at the receiver.
    pub delivered_bytes: u64,
    /// When the connection finished its job, seconds from scenario start
    /// (virtual time on the simulator, wall time on socket backends);
    /// `None` if the horizon passed first. Finite transfers complete when
    /// fully delivered (reliable profiles) or fully transmitted
    /// (unreliable/partial); open-ended apps never complete.
    pub completion_s: Option<f64>,
    /// Delivered bytes over the active period, bits/second.
    pub goodput_bps: f64,
    /// Sender-side session events, in order.
    pub tx_events: Vec<SessionEvent>,
    /// Receiver-side session events, in order.
    pub rx_events: Vec<SessionEvent>,
    /// Sender-side counter snapshot (retransmissions, abandonments,
    /// rate/loss summaries).
    pub tx: CounterSet,
    /// Receiver-side counter snapshot (per-packet cost, peak state,
    /// feedbacks sent).
    pub rx: CounterSet,
}

/// The run-a-scenario seam: every backend takes the same
/// [`ConnectionPlan`]s and reports per-connection [`ConnectionOutcome`]s,
/// in plan order. Implementations: [`SimBackend`] (simulator) and
/// `qtp_io::backend::MuxBackend` (real UDP, all connections multiplexed
/// over one socket pair).
pub trait Backend {
    /// Short backend tag for reports ("sim", "mux").
    fn name(&self) -> &'static str;

    /// Run every plan to completion or the backend's horizon.
    fn run(&mut self, plans: &[ConnectionPlan]) -> std::io::Result<Vec<ConnectionOutcome>>;
}

/// Network shape a [`SimBackend`] builds.
#[derive(Debug, Clone)]
pub enum SimTopology {
    /// Every connection gets its own duplex path with these properties
    /// (loss applies in both directions, like the quickstart scenario).
    Isolated {
        /// Link rate.
        rate: Rate,
        /// One-way propagation delay.
        one_way: Duration,
        /// Bernoulli loss probability (0 disables loss).
        loss: f64,
    },
    /// All connections share a dumbbell bottleneck; `pairs` is overridden
    /// with the number of plans. (Boxed: the config dwarfs the other
    /// variant.)
    Dumbbell(Box<DumbbellConfig>),
}

/// The deterministic-simulator backend: same seed and plans ⇒
/// byte-identical outcomes.
#[derive(Debug, Clone)]
pub struct SimBackend {
    /// Network shape.
    pub topology: SimTopology,
    /// Simulation seed.
    pub seed: u64,
    /// Virtual-time bound.
    pub horizon: Duration,
    /// Completion-sampling granularity (completion times round up to
    /// this, keeping the stepped run deterministic).
    pub check_interval: Duration,
    /// When set, every connection's tracers are registered here as
    /// `<label>:tx` / `<label>:rx` — attaching whatever sink the registry
    /// carries and making per-connection counters collectable after the
    /// run. `None` (the default) leaves tracing disconnected.
    pub trace: Option<TraceRegistry>,
}

impl SimBackend {
    /// Isolated per-connection paths (the quickstart shape).
    pub fn isolated(rate: Rate, one_way: Duration, loss: f64) -> SimBackend {
        SimBackend {
            topology: SimTopology::Isolated {
                rate,
                one_way,
                loss,
            },
            seed: 42,
            horizon: Duration::from_secs(30),
            check_interval: Duration::from_millis(250),
            trace: None,
        }
    }

    /// A shared-bottleneck dumbbell (`cfg.pairs` is overridden per run).
    pub fn dumbbell(cfg: DumbbellConfig) -> SimBackend {
        SimBackend {
            topology: SimTopology::Dumbbell(Box::new(cfg)),
            seed: 42,
            horizon: Duration::from_secs(120),
            check_interval: Duration::from_millis(250),
            trace: None,
        }
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> SimBackend {
        self.seed = seed;
        self
    }

    /// Set the horizon.
    pub fn horizon(mut self, horizon: Duration) -> SimBackend {
        self.horizon = horizon;
        self
    }

    /// Register every connection's tracers with `registry` (see
    /// [`SimBackend::trace`]).
    pub fn trace(mut self, registry: TraceRegistry) -> SimBackend {
        self.trace = Some(registry);
        self
    }
}

/// Whether a finite plan is done, by the simulator backend's
/// receiver-side measure: full delivery when the
/// [effective](ConnectionPlan::effective_reliability) reliability is
/// `Full`, backlog fully transmitted otherwise (profiles that promise no
/// delivery). Keying on the offer alone would make a policy-downgraded
/// connection uncompletable under loss. The socket backends apply the
/// same Full/not-Full split to their sender-side measure (`tx_complete`
/// in `qtp_io::backend`).
pub(crate) fn plan_complete(
    plan: &ConnectionPlan,
    negotiated: Option<CapabilitySet>,
    delivered_bytes: u64,
    tx: &Tracer,
) -> bool {
    let Some(packets) = plan.finite_packets() else {
        return false;
    };
    if plan.effective_reliability(negotiated) == Reliability::Full {
        delivered_bytes >= packets * plan.payload as u64
    } else {
        tx.read(|c| c.data_pkts_tx - c.retransmits) >= packets
    }
}

/// Engine-level counters from one simulator-backend run, for the scaling
/// benchmarks. `events_processed` and `packet_pool_high_water` are
/// deterministic (pure functions of plans + seed); `events_processed`
/// divided by wall-clock time is the events/s throughput metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRunMetrics {
    /// Events the simulator dispatched.
    pub events_processed: u64,
    /// Peak number of concurrently live packets in the arena.
    pub packet_pool_high_water: usize,
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&mut self, plans: &[ConnectionPlan]) -> std::io::Result<Vec<ConnectionOutcome>> {
        self.run_instrumented(plans.to_vec())
            .map(|(outcomes, _)| outcomes)
    }
}

impl SimBackend {
    /// [`Backend::run`], additionally reporting engine counters. Takes the
    /// plans by value: each outcome keeps its plan's label.
    pub fn run_instrumented(
        &mut self,
        mut plans: Vec<ConnectionPlan>,
    ) -> std::io::Result<(Vec<ConnectionOutcome>, SimRunMetrics)> {
        // Build the topology: one (sender, receiver) node pair per plan.
        let (mut sim, nodes): (Simulator, Vec<(NodeId, NodeId)>) = match &self.topology {
            SimTopology::Isolated {
                rate,
                one_way,
                loss,
            } => {
                let mut b = NetworkBuilder::new();
                let mut nodes = Vec::with_capacity(plans.len());
                for _ in &plans {
                    let s = b.host();
                    let r = b.host();
                    let mut link = LinkConfig::new(*rate, *one_way);
                    if *loss > 0.0 {
                        link = link.with_loss(LossModel::bernoulli(*loss));
                    }
                    b.duplex_link(s, r, link);
                    nodes.push((s, r));
                }
                (b.build(self.seed), nodes)
            }
            SimTopology::Dumbbell(cfg) => {
                let cfg = DumbbellConfig {
                    pairs: plans.len(),
                    ..(**cfg).clone()
                };
                let (sim, net) = Dumbbell::build(&cfg, self.seed);
                let nodes = net
                    .senders
                    .iter()
                    .copied()
                    .zip(net.receivers.iter().copied())
                    .collect();
                (sim, nodes)
            }
        };

        let labels: Vec<String> = plans
            .iter_mut()
            .enumerate()
            .map(|(i, p)| match p.label.is_empty() {
                true => p.display_label(i),
                false => std::mem::take(&mut p.label),
            })
            .collect();
        let handles: Vec<PairHandles> = plans
            .iter()
            .zip(&nodes)
            .map(|(plan, &(s, r))| attach_pair(&mut sim, s, r, plan))
            .collect();
        if let Some(reg) = &self.trace {
            for (label, h) in labels.iter().zip(&handles) {
                reg.register(&format!("{label}:tx"), &h.tx_tracer);
                reg.register(&format!("{label}:rx"), &h.rx_tracer);
            }
        }

        // Stepped run: completion is sampled every check_interval, keeping
        // the scan cost negligible and the result deterministic.
        let mut completion: Vec<Option<SimTime>> = vec![None; plans.len()];
        let horizon = SimTime::ZERO + self.horizon;
        let mut t = SimTime::ZERO;
        while t < horizon {
            t = (t + self.check_interval).min(horizon);
            sim.run_until(t);
            let mut all_done = true;
            for (i, (plan, h)) in plans.iter().zip(&handles).enumerate() {
                if completion[i].is_some() {
                    continue;
                }
                let delivered = sim.stats().flow(h.data_flow).bytes_app_delivered;
                if plan_complete(plan, connected_caps(&h.tx_events), delivered, &h.tx_tracer) {
                    completion[i] = Some(t);
                } else {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
        }

        let outcomes = labels
            .into_iter()
            .zip(&handles)
            .enumerate()
            .map(|(i, (label, h))| {
                let delivered = sim.stats().flow(h.data_flow).bytes_app_delivered;
                let elapsed = completion[i].unwrap_or(horizon).as_secs_f64();
                ConnectionOutcome {
                    label,
                    negotiated: connected_caps(&h.tx_events),
                    delivered_bytes: delivered,
                    completion_s: completion[i].map(|c| c.as_secs_f64()),
                    goodput_bps: if elapsed > 0.0 {
                        delivered as f64 * 8.0 / elapsed
                    } else {
                        0.0
                    },
                    tx_events: h.tx_events.drain(),
                    rx_events: h.rx_events.drain(),
                    tx: h.tx_tracer.counters(),
                    rx: h.rx_tracer.counters(),
                }
            })
            .collect();
        let metrics = SimRunMetrics {
            events_processed: sim.events_processed(),
            packet_pool_high_water: sim.packet_pool_high_water(),
        };
        Ok((outcomes, metrics))
    }
}

/// The negotiated set recorded in an event stream, if any (outcome
/// extraction for sessions that moved into a simulator or driver).
pub fn connected_caps(events: &SessionEvents) -> Option<CapabilitySet> {
    events.inner.borrow().iter().find_map(|e| match e {
        SessionEvent::Connected { negotiated } => Some(*negotiated),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::Pipe;

    #[test]
    fn builder_validates_and_roundtrips() {
        let p = Profile::new()
            .reliability(Reliability::Ttl(Duration::from_millis(200)))
            .feedback(FeedbackMode::SenderLoss)
            .cc(CcKind::Tfrc)
            .build()
            .unwrap();
        assert_eq!(Profile::try_from(p.caps()), Ok(p));

        assert_eq!(
            Profile::new()
                .reliability(Reliability::Ttl(Duration::ZERO))
                .build(),
            Err(ProfileError::ZeroTtl)
        );
        assert_eq!(
            Profile::new().reliability(Reliability::Budget(0)).build(),
            Err(ProfileError::ZeroRetxBudget)
        );
        assert_eq!(
            Profile::new()
                .cc(CcKind::Fixed { rate: Rate::ZERO })
                .build(),
            Err(ProfileError::ZeroFixedRate)
        );
    }

    #[test]
    fn presets_match_capability_presets() {
        // Every preset is a composition the builder accepts, unchanged.
        let ttl = Duration::from_millis(150);
        for p in [
            Profile::qtp_af(Rate::from_mbps(2)),
            Profile::qtp_light(),
            Profile::qtp_light_partial(ttl).unwrap(),
            Profile::tfrc(),
            Profile::cubic(),
            Profile::bbr_lite(),
        ] {
            assert_eq!(Profile::try_from(p.caps()), Ok(p));
        }
        assert_eq!(Profile::new().build(), Ok(Profile::tfrc()));
        assert_eq!(
            Profile::qtp_light_partial(ttl).unwrap().caps(),
            CapabilitySet {
                reliability: Reliability::Ttl(ttl),
                ..Profile::qtp_light().caps()
            }
        );
        assert_eq!(
            Profile::qtp_light_partial(Duration::ZERO),
            Err(ProfileError::ZeroTtl)
        );
    }

    /// Drive a sender/receiver session pair purely through the poll-style
    /// surface on [`Pipe`](crate::pipe::Pipe)'s virtual clock — no
    /// simulator, no sockets. This is the contract a hand-written event
    /// loop programs against.
    #[test]
    fn poll_surface_completes_a_reliable_transfer() {
        const PACKETS: u64 = 20;
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500))).finite(PACKETS);
        let mut pipe = Pipe::new(&plan, Duration::from_millis(5));
        pipe.run_until(SimTime::from_secs(60), |p| {
            p.rx.delivered_packets() >= PACKETS && p.tx.all_acked()
        })
        .unwrap_or_else(|stall| panic!("{stall}"));
        let Pipe { mut tx, rx, .. } = pipe;
        assert_eq!(rx.delivered_packets(), PACKETS);
        assert!(tx.all_acked());
        assert_eq!(rx.delivered_bytes(), PACKETS * 1000);

        // Both sides observed the negotiation outcome as a typed event.
        let expected = ServerPolicy::default().negotiate(plan.profile.caps());
        assert_eq!(tx.negotiated(), Some(expected));
        assert!(matches!(
            tx.poll_event(),
            Some(SessionEvent::Connected { negotiated }) if negotiated == expected
        ));
        let rx_events = rx.events().drain();
        assert!(rx_events
            .iter()
            .any(|e| matches!(e, SessionEvent::Connected { .. })));
        let delivered: Vec<u64> = rx_events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Delivered { bytes } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.iter().sum::<u64>(), PACKETS * 1000);
        // Nothing polled mid-run, so every delivery coalesced into the one
        // event at the queue tail — the queue stays O(1), not O(ADUs).
        assert_eq!(delivered.len(), 1, "adjacent deliveries coalesce");
    }

    /// End-to-end stream data plane over the poll surface: a file goes in
    /// through `SendStream::send`, comes out byte-exact through
    /// `RecvStream::recv_into`, and the wire-level FIN / FIN-ACK close completes
    /// with both sides' typed events observed.
    #[test]
    fn stream_transfer_completes_with_wire_close() {
        use crate::stream::StreamError;
        let file: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(50)))
            .stream(StreamConfig::with_send_buf(16 * 1024));
        let mut pipe = Pipe::new(&plan, Duration::from_millis(5));
        let send = pipe.tx.send_stream().expect("sender side has a SendStream");
        let recv = pipe
            .rx
            .recv_stream()
            .expect("receiver side has a RecvStream");
        assert!(pipe.tx.recv_stream().is_none() && pipe.rx.send_stream().is_none());

        let mut offset = 0usize;
        let (mut received, mut msg) = (Vec::new(), Vec::new());
        let mut saw_full = false;
        pipe.run_until(SimTime::from_secs(60), |p| {
            while offset < file.len() {
                let end = (offset + 1900).min(file.len());
                match send.send(&file[offset..end]) {
                    Ok(()) => offset = end,
                    Err(StreamError::Full) => {
                        saw_full = true;
                        break;
                    }
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            if offset == file.len() && !send.is_finished() {
                send.finish();
            }
            while recv.recv_into(&mut msg).is_some() {
                received.extend_from_slice(&msg);
            }
            recv.is_finished() && p.tx.is_closed()
        })
        .unwrap_or_else(|stall| panic!("{stall}"));
        let Pipe { tx, rx, .. } = pipe;
        assert_eq!(received.len(), file.len());
        assert_eq!(received, file, "byte-exact stream transfer");
        assert!(saw_full, "bounded send buffer exerted backpressure");
        assert!(recv.is_finished());
        assert!(tx.is_closed(), "FIN / FIN-ACK handshake completed");
        assert_eq!(tx.poll_timeout(), None, "sender timers drained after close");

        let tx_events = tx.events().drain();
        assert!(tx_events
            .iter()
            .any(|e| matches!(e, SessionEvent::Writable)));
        assert!(
            tx_events.iter().any(|e| matches!(e, SessionEvent::Closed)),
            "graceful close surfaced as Closed"
        );
        let rx_events = rx.events().drain();
        let readable: u64 = rx_events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Readable { messages } => Some(*messages),
                _ => None,
            })
            .sum();
        assert_eq!(readable, recv.messages_received());
        assert!(rx_events
            .iter()
            .any(|e| matches!(e, SessionEvent::Finished)));
    }

    /// An observer that never polls holds O(1) events: after a 4 MiB
    /// stream whose event queues nobody touched, each side holds at most
    /// one event of each kind, though the receiver's deliveries and
    /// readable edges interleave callback after callback.
    #[test]
    fn unpolled_event_queues_stay_constant_size() {
        const LEN: usize = 4 << 20;
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(100)))
            .stream(StreamConfig::default());
        let mut pipe = Pipe::new(&plan, Duration::from_millis(5));
        let send = pipe.tx.send_stream().unwrap();
        let recv = pipe.rx.recv_stream().unwrap();
        let chunk = vec![7u8; 8 * 1024];
        let (mut sent, mut got, mut msg) = (0, 0, Vec::new());
        pipe.run_until(SimTime::from_secs(600), |p| {
            while sent < LEN && send.send(&chunk).is_ok() {
                sent += chunk.len();
            }
            if sent == LEN && !send.is_finished() {
                send.finish();
            }
            while recv.recv_into(&mut msg).is_some() {
                got += msg.len();
            }
            recv.is_finished() && p.tx.is_closed()
        })
        .unwrap_or_else(|stall| panic!("{stall}"));
        assert_eq!(got, LEN);
        let (tx, rx) = (pipe.tx.events().drain(), pipe.rx.events().drain());
        assert!(rx
            .iter()
            .any(|e| matches!(e, SessionEvent::Readable { .. })));
        for events in [tx, rx] {
            for e in &events {
                let same = events
                    .iter()
                    .filter(|o| std::mem::discriminant(*o) == std::mem::discriminant(e))
                    .count();
                assert_eq!(same, 1, "{e:?} queued {same} times");
            }
        }
    }

    /// `Session::close` on a running stream sender performs the wire-level
    /// handshake instead of closing locally: `Closed` only fires once the
    /// receiver acknowledged the FIN.
    #[test]
    fn graceful_close_waits_for_finack() {
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(10)))
            .stream(StreamConfig::default());
        let mut pipe = Pipe::new(&plan, Duration::from_millis(5));
        let send = pipe.tx.send_stream().unwrap();
        send.send(b"payload").unwrap();

        pipe.run_until(SimTime::from_secs(60), |p| {
            if p.tx.negotiated().is_some() && !p.tx.is_closed() && !send.is_finished() {
                p.tx.close();
                assert!(!p.tx.is_closed(), "graceful close defers Closed to FIN-ACK");
            }
            p.tx.is_closed()
        })
        .unwrap_or_else(|stall| panic!("{stall}"));
        assert!(pipe.tx.is_closed());
        assert!(pipe
            .tx
            .events()
            .drain()
            .iter()
            .any(|e| matches!(e, SessionEvent::Closed)));
        assert!(pipe
            .rx
            .events()
            .drain()
            .iter()
            .any(|e| matches!(e, SessionEvent::Finished)));
    }

    #[test]
    fn malformed_capability_offer_surfaces_as_rejected() {
        let plan = ConnectionPlan::new(Profile::tfrc());
        let mut rx = Session::receiver(0, 1, 0, &plan);
        rx.start(SimTime::ZERO);

        // A SYN whose reliability wire code (first capability byte after
        // the type + timestamp) is garbage.
        let mut syn = QtpPacket::Syn {
            ts_nanos: 7,
            offered: Profile::qtp_light().caps(),
        }
        .encode();
        syn[9] = 0xEE;
        rx.handle_input(SimTime::ZERO, 64, &syn);
        assert_eq!(
            rx.poll_event(),
            Some(SessionEvent::Rejected {
                error: CapsError::BadReliability(0xEE)
            })
        );
        // Nothing was negotiated and no SYNACK went out.
        assert_eq!(rx.negotiated(), None);
        assert!(rx.poll_transmit().is_none());

        // Garbage that is not a capability problem stays silent.
        rx.handle_input(SimTime::ZERO, 64, &[0xFF, 1, 2, 3]);
        assert_eq!(rx.poll_event(), None);
    }

    /// A peer offering a congestion-control code from a future protocol
    /// version (or a fuzzer) is rejected with the typed capability error,
    /// not panicked on and not silently granted a different controller.
    #[test]
    fn unknown_cc_offer_surfaces_as_rejected() {
        let plan = ConnectionPlan::new(Profile::tfrc());
        let mut rx = Session::receiver(0, 1, 0, &plan);
        rx.start(SimTime::ZERO);

        let mut syn = QtpPacket::Syn {
            ts_nanos: 7,
            offered: Profile::qtp_light().caps(),
        }
        .encode();
        // type(1) + ts(8) + rel code(1) + rel param(8) + fb(1) = offset of
        // the cc wire code.
        syn[19] = 0x2A;
        rx.handle_input(SimTime::ZERO, 64, &syn);
        assert_eq!(
            rx.poll_event(),
            Some(SessionEvent::Rejected {
                error: CapsError::BadCc(0x2A)
            })
        );
        assert_eq!(rx.negotiated(), None);
        assert!(rx.poll_transmit().is_none(), "no SYNACK for a bad offer");
    }

    #[test]
    fn close_emits_closed_and_ignores_further_input() {
        let plan = ConnectionPlan::new(Profile::qtp_light());
        let mut tx = Session::sender(0, 1, &plan);
        tx.start(SimTime::ZERO);
        assert!(tx.poll_transmit().is_some(), "SYN emitted on start");
        tx.close();
        assert!(matches!(tx.poll_event(), Some(SessionEvent::Closed)));
        assert!(tx.is_closed());
        let syn_ack = QtpPacket::SynAck {
            ts_echo_nanos: 0,
            chosen: Profile::qtp_light().caps(),
        }
        .encode();
        tx.handle_input(SimTime::from_millis(1), 64, &syn_ack);
        assert_eq!(tx.negotiated(), None, "input after close is ignored");
        assert_eq!(tx.poll_timeout(), None, "timers cleared on close");
    }

    #[test]
    fn sim_backend_runs_plans_to_completion() {
        let plans = [
            ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
                .label("af")
                .finite(15),
            ConnectionPlan::new(Profile::qtp_light())
                .label("light")
                .finite(15),
        ];
        let mut backend = SimBackend::isolated(Rate::from_mbps(10), Duration::from_millis(5), 0.0);
        let outcomes = backend.run(&plans).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].label, "af");
        for o in &outcomes {
            assert!(o.completion_s.is_some(), "{} completed", o.label);
            assert!(o.negotiated.is_some(), "{} negotiated", o.label);
            assert!(o.goodput_bps > 0.0);
        }
        assert_eq!(outcomes[0].delivered_bytes, 15 * 1000, "reliable delivery");
        // Determinism: the same backend and plans reproduce the outcomes.
        let again = backend.run(&plans).unwrap();
        assert_eq!(outcomes[0].completion_s, again[0].completion_s);
        assert_eq!(outcomes[1].goodput_bps, again[1].goodput_bps);
    }

    #[test]
    fn downgraded_connection_still_completes_under_loss() {
        // Offer Full reliability to a receiver that refuses reliability:
        // the negotiated mode is None, nothing is ever retransmitted, and
        // completion must therefore be judged by the *negotiated* mode
        // (backlog transmitted), not the offer (full delivery, which loss
        // makes unreachable).
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
            .label("downgraded")
            .finite(30)
            .policy(ServerPolicy {
                allow_reliability: false,
                ..ServerPolicy::default()
            });
        let mut backend =
            SimBackend::isolated(Rate::from_mbps(10), Duration::from_millis(10), 0.05)
                .horizon(Duration::from_secs(20));
        let o = &backend.run(std::slice::from_ref(&plan)).unwrap()[0];
        let negotiated = o.negotiated.expect("handshake completed");
        assert_eq!(negotiated.reliability, Reliability::None, "downgraded");
        assert!(
            o.completion_s.is_some(),
            "downgraded connection completes once its backlog is transmitted"
        );
        // 5% loss: with reliability refused, full delivery is (almost
        // surely) impossible — which is exactly why the offer must not be
        // the completion criterion.
        assert_eq!(o.tx.retransmits, 0);
    }

    #[test]
    fn ttl_expiry_surfaces_as_session_events() {
        // A TTL so tight on a rate so slow that some backlog must expire.
        let plan =
            ConnectionPlan::new(Profile::qtp_light_partial(Duration::from_millis(30)).unwrap())
                .app(AppModel::Cbr {
                    rate: Rate::from_kbps(800),
                    adu_packets: 1,
                })
                .label("ttl");
        let mut backend =
            SimBackend::isolated(Rate::from_kbps(100), Duration::from_millis(40), 0.05)
                .horizon(Duration::from_secs(10));
        let outcomes = backend.run(std::slice::from_ref(&plan)).unwrap();
        let expired: u64 = outcomes[0]
            .tx_events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::TtlExpired { packets } => Some(*packets),
                _ => None,
            })
            .sum();
        assert!(expired > 0, "stale ADUs abandoned under TTL reliability");
        assert_eq!(expired, outcomes[0].tx.abandoned);
    }

    #[test]
    fn attach_pairs_shares_nodes_between_opposite_connections() {
        // Two stream connections between the same two hosts, one in each
        // direction — each node runs a sender of one connection and the
        // receiver of the other behind a single SimHost agent. attach_pair
        // would silently overwrite one agent with the other.
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let z = b.host();
        let link = LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5));
        b.simplex_link(a, z, link.clone());
        b.simplex_link(z, a, link);
        let mut sim = b.build(11);

        let plan = |label: &str| {
            ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(2)))
                .label(label)
                .stream(StreamConfig::default())
        };
        let pairs = attach_pairs(&mut sim, &[(a, z, plan("east")), (z, a, plan("west"))]);
        let east = pattern(4096, 1);
        let west = pattern(4096, 2);
        for (h, data) in pairs.iter().zip([&east, &west]) {
            let tx = h.tx_stream.as_ref().expect("stream plan");
            tx.send(data).unwrap();
            tx.finish();
        }
        sim.run_until(SimTime::ZERO + Duration::from_secs(20));
        for (h, data) in pairs.iter().zip([&east, &west]) {
            let rx = h.rx_stream.as_ref().expect("stream plan");
            let mut got = Vec::new();
            while let Some(m) = rx.recv() {
                got.extend(m);
            }
            assert_eq!(&got, data, "byte-exact through the shared-node agents");
            assert!(rx.is_finished(), "FIN crossed the shared-node agents");
        }
    }

    fn pattern(len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i ^ salt).wrapping_mul(2654435761) >> 7) as u8)
            .collect()
    }

    // ---- mounted sessions vs the bare endpoints they wrap --------------

    /// One fixed-seed lossy, RIO-queued scenario that exercises
    /// retransmission, feedback and timers: wire a connection, run 30
    /// virtual seconds, then render the flow stats and both sides' full
    /// counter sets, snapshotted strictly after the run.
    fn differential_run(
        seed: u64,
        wire: impl FnOnce(&mut Simulator) -> (FlowId, Tracer, Tracer, Option<SessionEvents>),
    ) -> (String, Option<Vec<SessionEvent>>) {
        let mut b = NetworkBuilder::new();
        let s = b.host();
        let r = b.host();
        b.simplex_link(
            s,
            r,
            LinkConfig::new(Rate::from_mbps(5), Duration::from_millis(25))
                .with_loss(LossModel::bernoulli(0.02))
                .with_queue(QueueConfig::Rio(RioParams::default())),
        );
        b.simplex_link(
            r,
            s,
            LinkConfig::new(Rate::from_mbps(5), Duration::from_millis(25)),
        );
        let mut sim = b.build(seed);
        let (data_flow, tx, rx, events) = wire(&mut sim);
        sim.run_until(SimTime::from_secs(30));
        let rendered = format!(
            "flow={:?}\nfb={:?}\ntx={:?}\nrx={:?}",
            sim.stats().flow(data_flow),
            sim.stats().flow(data_flow + 1),
            tx.counters(),
            rx.counters(),
        );
        (rendered, events.map(|e| e.drain()))
    }

    /// The behaviour-preservation proof for the session layer: for a fixed
    /// seed, [`attach_pair`] replays byte-identically to mounting the bare
    /// sender and receiver it wraps in [`SimAgent`]s — the session only adds
    /// typed events on top. This is what lets the rest of the tree use
    /// sessions without touching the committed claims ledger.
    fn differential(plan: ConnectionPlan) {
        for seed in [7u64, 42] {
            let (bare, _) = differential_run(seed, |sim| {
                let data_flow = sim.register_flow();
                let fb_flow = sim.register_flow();
                let tx = QtpSender::new(data_flow, 1, &plan);
                let rx = QtpReceiver::new(data_flow, fb_flow, 0, &plan);
                let tracers = (tx.tracer(), rx.tracer());
                sim.attach_agent(0, Box::new(SimAgent::new(tx)));
                sim.attach_agent(1, Box::new(SimAgent::new(rx)));
                (data_flow, tracers.0, tracers.1, None)
            });
            let (session, events) = differential_run(seed, |sim| {
                let h = attach_pair(sim, 0, 1, &plan);
                (h.data_flow, h.tx_tracer, h.rx_tracer, Some(h.tx_events))
            });
            assert_eq!(
                bare, session,
                "seed {seed}: session wiring must replay the bare endpoints byte-identically"
            );
            assert!(
                events
                    .unwrap()
                    .iter()
                    .any(|e| matches!(e, SessionEvent::Connected { .. })),
                "seed {seed}: sender session observed Connected"
            );
        }
    }

    #[test]
    fn qtpaf_session_wiring_matches_legacy_byte_for_byte() {
        differential(ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(1))).finite(500));
    }

    #[test]
    fn qtplight_session_wiring_matches_legacy_byte_for_byte() {
        differential(ConnectionPlan::new(Profile::qtp_light()));
    }

    #[test]
    fn ttl_partial_session_wiring_matches_legacy_byte_for_byte() {
        let ttl = Duration::from_millis(120);
        differential(ConnectionPlan::new(
            Profile::qtp_light_partial(ttl).expect("nonzero TTL"),
        ));
    }

    // ---- the poll surface vs the Endpoint path -------------------------

    /// One input of a session script.
    #[derive(Clone)]
    enum Input {
        Start,
        Datagram(Vec<u8>),
        /// Fire every timer due now.
        Tick,
        Close,
        Abort,
    }

    /// What one input made a session do: the datagrams it transmitted and
    /// the timers it armed (`(deadline, token)`), both in order, the events
    /// it raised, and its counters and negotiated profile afterwards.
    type Effects = (
        Vec<Transmit>,
        Vec<(SimTime, u64)>,
        Vec<SessionEvent>,
        CounterSet,
        Option<CapabilitySet>,
    );

    /// Feed `script` to a session through the poll surface.
    fn through_poll_surface(mut s: Session, script: &[(SimTime, Input)]) -> Vec<Effects> {
        let mut effects = Vec::new();
        for (now, input) in script {
            let seen = s.poll.as_ref().map_or(0, |p| p.timer_seq);
            match input {
                Input::Start => s.start(*now),
                Input::Datagram(h) => s.handle_input(*now, h.len() as u32 + wire::IP_OVERHEAD, h),
                Input::Tick => s.on_timeout(*now),
                Input::Close => s.close(),
                Input::Abort => s.abort(),
            }
            let transmits = std::iter::from_fn(|| s.poll_transmit()).collect();
            let armed = s.poll.iter().flat_map(|p| &p.timers);
            let mut armed: Vec<_> = armed.filter(|t| t.0 .1 > seen).collect();
            armed.sort_by_key(|t| t.0 .1);
            let armed = armed.iter().map(|t| (t.0 .0, t.0 .2)).collect();
            let (events, counters) = (s.events().drain(), s.tracer().counters());
            effects.push((transmits, armed, events, counters, s.negotiated()));
        }
        effects
    }

    /// Feed `script` to a session mounted through [`Endpoint`], with a
    /// hand-held outbox, timer heap and wake queue kept the way the drivers
    /// keep them.
    fn through_endpoint(mut s: Session, script: &[(SimTime, Input)]) -> Vec<Effects> {
        let mut out = Outbox::new();
        let mut timers = BinaryHeap::new();
        let wakes = Waker::default();
        s.set_waker(wakes.to(0, 0));
        let mut armed_total = 0u64;
        let mut effects = Vec::new();
        for (now, input) in script {
            out.now = *now;
            let (mut transmits, mut armed) = (Vec::new(), Vec::new());
            let mut drain = |out: &mut Outbox, timers: &mut BinaryHeap<_>| {
                while let Some(cmd) = out.poll_cmd() {
                    match cmd {
                        Command::Transmit(t) => transmits.push(t),
                        Command::SetTimer { at, token } => {
                            armed_total += 1;
                            timers.push(Reverse((at, armed_total, token)));
                            armed.push((at, token));
                        }
                        Command::Deliver { .. } => {}
                    }
                }
            };
            match input {
                Input::Start => s.on_start(&mut out),
                Input::Datagram(h) => {
                    s.handle_datagram(&mut out, h.len() as u32 + wire::IP_OVERHEAD, h)
                }
                Input::Tick => {
                    while let Some((_, token)) = wakes.take() {
                        s.on_timer(&mut out, token);
                        drain(&mut out, &mut timers);
                    }
                    while let Some(Reverse((at, _, token))) = timers.peek().copied() {
                        if at > *now {
                            break;
                        }
                        timers.pop();
                        s.on_timer(&mut out, token);
                        drain(&mut out, &mut timers);
                    }
                }
                Input::Close => s.close(),
                Input::Abort => s.abort(),
            }
            drain(&mut out, &mut timers);
            let (events, counters) = (s.events().drain(), s.tracer().counters());
            effects.push((transmits, armed, events, counters, s.negotiated()));
        }
        effects
    }

    /// Both ways of driving a `Session` must stay one path: a fixed receiver
    /// script — start, a malformed-caps SYN, a valid SYN, data with a hole
    /// around a feedback tick, FIN, then input after `abort()` — produces
    /// the same bytes in the same order, the same timers, events and
    /// counters.
    #[test]
    fn the_poll_surface_and_the_endpoint_path_cannot_fork() {
        let profile = Profile::new()
            .reliability(Reliability::Budget(2))
            .feedback(FeedbackMode::SenderLoss)
            .build()
            .unwrap();
        let plan = ConnectionPlan::new(profile).stream(StreamConfig::default());
        let syn = QtpPacket::Syn {
            ts_nanos: 1_000,
            offered: profile.caps(),
        }
        .encode();
        let mut bad_syn = syn.clone();
        bad_syn[9] = 0xEE;
        let data = |seq: u64| {
            QtpPacket::StreamData {
                seq,
                ts_nanos: 5_000_000 + seq,
                adu_ts_nanos: 5_000_000,
                rtt_hint_micros: 20_000,
                is_retx: false,
                ttl_micros: 0,
                payload: vec![seq as u8; 100],
            }
            .encode()
        };
        let fin = QtpPacket::Fin { final_seq: 3 }.encode();
        let at = SimTime::from_millis;
        let script = [
            (at(0), Input::Start),
            (at(1), Input::Datagram(bad_syn)),
            (at(2), Input::Datagram(syn)),
            (at(10), Input::Datagram(data(0))),
            (at(40), Input::Tick),
            (at(41), Input::Datagram(data(2))),
            (at(50), Input::Datagram(fin.clone())),
            (at(60), Input::Abort),
            (at(70), Input::Datagram(data(3))),
            (at(80), Input::Datagram(fin)),
            (at(1000), Input::Tick),
        ];
        let rx = || Session::receiver(0, 1, 0, &plan);
        let polled = through_poll_surface(rx(), &script);
        let mounted = through_endpoint(rx(), &script);
        for (i, (p, m)) in polled.iter().zip(&mounted).enumerate() {
            assert_eq!(p, m, "input {i} forked the two paths");
        }

        // The script reached every gate it is meant to cover.
        let events: Vec<&SessionEvent> = polled.iter().flat_map(|e| &e.2).collect();
        for expected in [
            SessionEvent::Rejected {
                error: CapsError::BadReliability(0xEE),
            },
            SessionEvent::Finished,
            SessionEvent::Closed,
        ] {
            assert!(events.contains(&&expected), "no {expected:?} in {events:?}");
        }
        assert!(!polled[4].0.is_empty(), "the feedback timer fired");
        assert!(!polled[5].0.is_empty(), "the hole drew immediate feedback");
        assert!(polled[8].0.is_empty(), "data after abort is ignored");
        assert!(
            wire::is_close_handshake(&polled[9].0[0].header),
            "a FIN after abort is still acknowledged"
        );
    }

    // ---- the phase contract --------------------------------------------

    /// Every packet kind, then garbage, by name. SYN and SYN-ACK carry
    /// `other`, a profile neither side negotiates, so a repeat that
    /// re-negotiated would show.
    fn every_packet_kind(other: CapabilitySet) -> Vec<(&'static str, Vec<u8>)> {
        let (ms, offered, chosen) = (1_000_000, other, other);
        let syn = QtpPacket::Syn {
            ts_nanos: 0,
            offered,
        }
        .encode();
        let synack = QtpPacket::SynAck {
            ts_echo_nanos: 0,
            chosen,
        }
        .encode();
        let (mut bad_syn, mut bad_synack) = (syn.clone(), synack.clone());
        (bad_syn[9], bad_synack[9]) = (0xEE, 0xEE);
        let data = QtpPacket::Data {
            seq: 5,
            ts_nanos: ms,
            adu_ts_nanos: ms,
            rtt_hint_micros: 20_000,
            is_retx: false,
        };
        let stream_data = QtpPacket::StreamData {
            seq: 5,
            ts_nanos: ms,
            adu_ts_nanos: 0,
            rtt_hint_micros: 20_000,
            is_retx: true,
            ttl_micros: 1,
            payload: vec![7; 100],
        };
        let feedback = QtpPacket::Feedback {
            ts_echo_nanos: 0,
            t_delay_micros: 10,
            x_recv: 125_000,
            p_ppb: Some(10_000_000),
            cum_ack: 3,
            blocks: vec![qtp_sack::SeqRange::new(5, 7)],
        };
        vec![
            ("SYN", syn),
            ("SYN-ACK", synack),
            ("DATA", data.encode()),
            ("STREAM_DATA", stream_data.encode()),
            ("FEEDBACK", feedback.encode()),
            ("FORWARD", QtpPacket::Forward { new_cum: 4 }.encode()),
            ("FIN", QtpPacket::Fin { final_seq: 4 }.encode()),
            ("FIN-ACK", QtpPacket::FinAck { final_seq: 0 }.encode()),
            ("empty", Vec::new()),
            ("unknown type", vec![0xEE, 1, 2, 3]),
            ("truncated SYN", vec![1, 0, 0]),
            ("bad-caps SYN", bad_syn),
            ("bad-caps SYN-ACK", bad_synack),
        ]
    }

    /// The profiles each table runs under: both loss sources, a
    /// retransmitting and a partial reliability, both data planes.
    fn phase_table_plans() -> [ConnectionPlan; 2] {
        let ttl = Profile::qtp_light_partial(Duration::from_millis(50)).unwrap();
        [
            ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(10))),
            ConnectionPlan::new(ttl).stream(StreamConfig::default()),
        ]
    }

    /// Feed every packet kind to `endpoint()` in each phase, reached by
    /// replaying `(phase, negotiated, prefix)`'s prefix one millisecond per
    /// input, through the `Endpoint` path. In every cell nothing panics,
    /// only the wire types `allowed(phase, kind)` go out, the phase holds a
    /// negotiated profile iff `negotiated` (so one survives a close) and is
    /// closed iff named so, and only `negotiating` input in a phase without
    /// a profile negotiates.
    fn check_phase_table(
        endpoint: &dyn Fn() -> Session,
        phases: &[(&str, bool, Vec<Input>)],
        negotiating: &str,
        allowed: &dyn Fn(&str, &str) -> &'static [u8],
    ) {
        for (phase, negotiated, prefix) in phases {
            for (kind, header) in every_packet_kind(Profile::cubic().caps()) {
                let script: Vec<_> = (1..)
                    .map(SimTime::from_millis)
                    .zip(prefix.iter().cloned().chain([Input::Datagram(header)]))
                    .collect();
                let effects = through_endpoint(endpoint(), &script);
                let before = effects.iter().rev().nth(1).and_then(|e| e.4);
                let (sent, after) = (&effects[prefix.len()].0, effects[prefix.len()].4);
                let cell = format!("{phase} + {kind}");
                let types: Vec<u8> = sent.iter().map(|t| t.header[0]).collect();
                assert!(
                    types.iter().all(|t| allowed(phase, kind).contains(t)),
                    "{cell}: sent wire types {types:?}"
                );
                let closed = effects.iter().any(|e| e.2.contains(&SessionEvent::Closed));
                assert_eq!(closed, matches!(*phase, "closed" | "aborted"), "{cell}");
                assert_eq!(before.is_some(), *negotiated, "{cell}: phase");
                if !negotiated && kind == negotiating {
                    assert!(after.is_some(), "{cell} negotiates");
                } else {
                    assert_eq!(after, before, "{cell} moved negotiated()");
                }
            }
        }
    }

    /// Wire type codes (the first header byte) the phase tables allow.
    const SYNACK: u8 = 2;
    const FEEDBACK: u8 = 4;
    const FORWARD: u8 = 5;
    const FINACK: u8 = 8;

    /// Witnesses for inputs no other test reaches: feedback, FORWARD or
    /// FIN-ACK before the SYN-ACK, a duplicate SYN-ACK, anything after a
    /// close or abort.
    #[test]
    fn the_sender_honours_its_phase_contract() {
        for plan in phase_table_plans() {
            let synack = QtpPacket::SynAck {
                ts_echo_nanos: 0,
                chosen: plan.profile.caps(),
            };
            let running = vec![Input::Start, Input::Datagram(synack.encode())];
            let with = |tail: Vec<Input>| [running.clone(), tail].concat();
            // Nothing was sent, so the first tick after `close()` sends the
            // FIN — a running pacer's tick, or the wake the close asks for
            // when the pacer sleeps — and its FIN-ACK completes the close.
            let fin_ack = QtpPacket::FinAck { final_seq: 0 }.encode();
            let phases = [
                ("not started", false, vec![]),
                ("handshake", false, vec![Input::Start]),
                ("running", true, running.clone()),
                (
                    "closed",
                    true,
                    with(vec![Input::Close, Input::Tick, Input::Datagram(fin_ack)]),
                ),
                ("aborted", true, with(vec![Input::Abort])),
            ];
            check_phase_table(
                &|| Session::sender(0, 1, &plan),
                &phases,
                "SYN-ACK",
                // Feedback may move the receiver past abandoned data.
                &|phase, kind| match (phase, kind) {
                    ("running", "FEEDBACK") => &[FORWARD],
                    _ => &[],
                },
            );
        }
    }

    /// Witnesses for inputs no other test reaches: data or feedback before
    /// the SYN, a repeated SYN offering another profile, anything after a
    /// FIN, a close or an abort.
    #[test]
    fn the_receiver_honours_its_phase_contract() {
        for plan in phase_table_plans() {
            let syn = QtpPacket::Syn {
                ts_nanos: 0,
                offered: plan.profile.caps(),
            };
            let running = vec![Input::Start, Input::Datagram(syn.encode())];
            let with = |tail: Vec<Input>| [running.clone(), tail].concat();
            let fin = QtpPacket::Fin { final_seq: 0 }.encode();
            let phases = [
                ("not started", false, vec![]),
                ("handshake", false, vec![Input::Start]),
                ("running", true, running.clone()),
                ("after FIN", true, with(vec![Input::Datagram(fin)])),
                ("closed", true, with(vec![Input::Close])),
                ("aborted", true, with(vec![Input::Abort])),
            ];
            check_phase_table(
                &|| Session::receiver(0, 1, 0, &plan),
                &phases,
                "SYN",
                &|phase, kind| {
                    let open = !matches!(phase, "closed" | "aborted");
                    let negotiated = !matches!(phase, "not started" | "handshake");
                    match kind {
                        // A FIN is always acknowledged, so the peer can finish.
                        "FIN" => &[FINACK],
                        "SYN" if open => &[SYNACK],
                        // Data may draw immediate feedback once negotiated.
                        "DATA" | "STREAM_DATA" if open && negotiated => &[FEEDBACK],
                        _ => &[],
                    }
                },
            );
        }
    }
}
