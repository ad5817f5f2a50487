//! # Structured event tracing and per-connection counters
//!
//! The observability plane for the whole stack: endpoints (sender,
//! receiver, session, mux driver) emit typed, `Copy` [`TraceEvent`]
//! records through a cheap cloneable [`Tracer`] handle. Two consumers
//! hang off every event:
//!
//! * a per-connection [`CounterSet`] — always on, updated on every
//!   `emit`, and the **single source of truth** for report numbers
//!   (packets/bytes tx+rx, retransmits, TTL drops, loss events, timer
//!   fires, plus the cost meters, RTT, loss-rate and latency sums no
//!   event carries, written through [`Tracer::update`]). Snapshotting
//!   is a struct copy.
//! * an optional [`TraceSink`] — the event stream itself. Sinks are
//!   attached per run (never in steady-state hot paths) and forwarding
//!   compiles out entirely when the `trace` cargo feature is disabled;
//!   the counters remain.
//!
//! Everything here is deterministic: event times are integer
//! nanoseconds of *simulated* (or driver) time, sinks never consult the
//! wall clock, and the qlog-style writer formats times as fixed-point
//! decimals computed from integers — so a fixed-seed run reproduces its
//! trace byte-for-byte.
//!
//! This module deliberately has **zero dependencies**: times are raw
//! `u64` nanoseconds and connections are plain `u32` ids, so every
//! crate in the workspace can emit without a dependency cycle.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Wire-level packet kind, shared by send/receive/drop events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktKind {
    /// Connection request carrying the capability offer.
    Syn,
    /// Capability answer.
    SynAck,
    /// Application data (datagram or stream chunk).
    Data,
    /// TFRC/QTP feedback report.
    Feedback,
    /// Sender→receiver state forward (QTPlight).
    Forward,
    /// Wire-level close request.
    Fin,
    /// Close acknowledgement.
    FinAck,
}

impl PktKind {
    /// Stable lowercase label used by the qlog writer and dumps.
    pub fn label(self) -> &'static str {
        match self {
            PktKind::Syn => "syn",
            PktKind::SynAck => "synack",
            PktKind::Data => "data",
            PktKind::Feedback => "feedback",
            PktKind::Forward => "forward",
            PktKind::Fin => "fin",
            PktKind::FinAck => "finack",
        }
    }
}

/// Connection lifecycle states reported by `ConnState` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Endpoint started; SYN in flight.
    Started,
    /// Capability negotiation completed.
    Connected,
    /// Wire-level close completed.
    Closed,
}

impl ConnState {
    /// Stable lowercase label used by the qlog writer and dumps.
    pub fn label(self) -> &'static str {
        match self {
            ConnState::Started => "started",
            ConnState::Connected => "connected",
            ConnState::Closed => "closed",
        }
    }
}

/// One typed trace event. `Copy`, fixed-size, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// Connection state change.
    State(ConnState),
    /// A packet handed to the wire.
    PktSent {
        /// Wire-level packet kind.
        kind: PktKind,
        /// Transport sequence number (0 for control packets).
        seq: u64,
        /// Bytes on the wire.
        bytes: u32,
        /// True when this is a retransmission.
        retx: bool,
    },
    /// A packet accepted from the wire.
    PktRecvd {
        /// Wire-level packet kind.
        kind: PktKind,
        /// Transport sequence number (0 for control packets).
        seq: u64,
        /// Bytes on the wire.
        bytes: u32,
    },
    /// Receiver-side TTL drop: a stale retransmission arrived past its
    /// message lifetime and was discarded instead of delivered.
    PktDropped {
        /// Sequence of the dropped packet.
        seq: u64,
        /// Age past the send timestamp, in microseconds.
        age_us: u64,
    },
    /// Sender-side abandonment: a backlogged or lost packet aged out of
    /// its TTL before (re)transmission.
    PktExpired {
        /// Sequence of the abandoned packet (or backlog drop count
        /// when individual sequences are not tracked).
        seq: u64,
    },
    /// Congestion-controller allowed-rate update (TFRC/gTFRC).
    RateUpdate {
        /// New allowed sending rate, bits per second.
        rate_bps: u64,
        /// Loss-event rate, parts per million.
        p_ppm: u32,
        /// Smoothed RTT estimate, microseconds.
        rtt_us: u64,
    },
    /// A new loss event (possibly grouping several lost packets).
    LossEvent {
        /// Packets newly declared lost in this feedback round.
        pkts: u32,
    },
    /// CUBIC window snapshot after a feedback round.
    CubicState {
        /// Congestion window, bytes.
        cwnd_bytes: u64,
        /// Window at the last multiplicative decrease, bytes.
        w_max_bytes: u64,
        /// Whether the TCP-friendly region is governing.
        tcp_friendly: bool,
    },
    /// BBR-lite model snapshot after a feedback round.
    BbrState {
        /// Phase code (0 = startup, 1 = drain, 2 = probe-bw).
        phase: u8,
        /// Windowed-max bottleneck bandwidth estimate, bits/second.
        btlbw_bps: u64,
        /// Windowed-min RTT estimate, microseconds.
        min_rtt_us: u64,
    },
    /// Controller phase transition (BBR-lite startup/drain/probe).
    CcPhaseChange {
        /// Phase code entered (0 = startup, 1 = drain, 2 = probe-bw).
        phase: u8,
        /// Transition time, microseconds — carried in the event so the
        /// counter bank (which only sees the kind) can record when
        /// startup was first exited.
        at_us: u64,
    },
    /// A timer was armed.
    TimerSet {
        /// Endpoint-local timer kind (see the endpoint's `TK_*`).
        kind: u8,
        /// Absolute deadline, nanoseconds.
        at_nanos: u64,
    },
    /// A live timer fired.
    TimerFired {
        /// Endpoint-local timer kind.
        kind: u8,
    },
    /// A stale timer generation fired and was discarded — the
    /// fire-and-forget equivalent of a cancellation.
    TimerCancelled {
        /// Endpoint-local timer kind.
        kind: u8,
    },
    /// Stream has bytes/messages ready for the application.
    StreamReadable,
    /// Stream send window reopened.
    StreamWritable,
    /// Stream finished (FIN delivered and acknowledged).
    StreamFin,
    /// Non-fatal driver-level error (e.g. a transient socket error
    /// attributed to one side of a pair).
    SoftError,
}

impl TraceEventKind {
    /// Stable snake_case event name used by the qlog writer and dumps.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::State(_) => "conn_state",
            TraceEventKind::PktSent { .. } => "pkt_sent",
            TraceEventKind::PktRecvd { .. } => "pkt_recvd",
            TraceEventKind::PktDropped { .. } => "pkt_dropped",
            TraceEventKind::PktExpired { .. } => "pkt_expired",
            TraceEventKind::RateUpdate { .. } => "rate_update",
            TraceEventKind::LossEvent { .. } => "loss_event",
            TraceEventKind::CubicState { .. } => "cubic_state",
            TraceEventKind::BbrState { .. } => "bbr_state",
            TraceEventKind::CcPhaseChange { .. } => "cc_phase_change",
            TraceEventKind::TimerSet { .. } => "timer_set",
            TraceEventKind::TimerFired { .. } => "timer_fired",
            TraceEventKind::TimerCancelled { .. } => "timer_cancelled",
            TraceEventKind::StreamReadable => "stream_readable",
            TraceEventKind::StreamWritable => "stream_writable",
            TraceEventKind::StreamFin => "stream_fin",
            TraceEventKind::SoftError => "soft_error",
        }
    }
}

/// One emitted event: connection id, timestamp, payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Registry-assigned connection id.
    pub conn: u32,
    /// Event time in nanoseconds (simulated or driver time).
    pub t_nanos: u64,
    /// The typed payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Render the timestamp as fixed-point seconds (`s.nnnnnnnnn`),
    /// computed purely from integers so the string is deterministic.
    pub fn time_str(&self) -> String {
        format!(
            "{}.{:09}",
            self.t_nanos / 1_000_000_000,
            self.t_nanos % 1_000_000_000
        )
    }
}

/// Where the event stream goes. Implementations must not block and must
/// not allocate in steady state (one-time setup allocation is fine).
pub trait TraceSink {
    /// Consume one event.
    fn emit(&mut self, ev: &TraceEvent);
}

/// Per-connection counters, updated on every [`Tracer::emit`] whether
/// or not a sink is attached. Snapshot by copy.
///
/// The fields from `ops` on are measurements no event carries; the
/// endpoint writes them through [`Tracer::update`] at the site that
/// measures them. Together with the event-derived counts they are every
/// per-endpoint number the claims ledger reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CounterSet {
    /// Packets handed to the wire.
    pub pkts_tx: u64,
    /// Bytes handed to the wire.
    pub bytes_tx: u64,
    /// Data packets handed to the wire, retransmissions included
    /// (subset of `pkts_tx`).
    pub data_pkts_tx: u64,
    /// Feedback reports handed to the wire (subset of `pkts_tx`).
    pub feedbacks_tx: u64,
    /// Packets accepted from the wire.
    pub pkts_rx: u64,
    /// Bytes accepted from the wire.
    pub bytes_rx: u64,
    /// Retransmitted data packets (subset of `data_pkts_tx`).
    pub retransmits: u64,
    /// Receiver-side TTL drops of stale retransmissions.
    pub ttl_drops: u64,
    /// Sender-side TTL abandonments (never (re)sent).
    pub abandoned: u64,
    /// Loss events (grouped, TFRC semantics).
    pub loss_events: u64,
    /// Congestion-controller rate updates.
    pub rate_updates: u64,
    /// Timers armed.
    pub timers_set: u64,
    /// Live timer fires.
    pub timer_fires: u64,
    /// Stale-generation timer fires (≈ cancellations).
    pub timers_cancelled: u64,
    /// Non-fatal driver errors attributed to this connection.
    pub soft_errors: u64,
    /// Controller state snapshots (CUBIC/BBR feedback rounds).
    pub cc_state_updates: u64,
    /// Controller phase transitions (BBR-lite).
    pub cc_phase_changes: u64,
    /// Time BBR-lite first left startup, microseconds (0 = never did).
    pub bbr_startup_exit_us: u64,
    /// Processing operations so far, every component of the endpoint
    /// (the deterministic cost meters: loss detection, history,
    /// reassembly and feedback at a receiver; controller, scoreboard and
    /// estimator at a sender).
    pub ops: u64,
    /// Data packets the receiver processed after the handshake — the
    /// denominator of [`CounterSet::ops_per_data_pkt`].
    pub data_pkts_processed: u64,
    /// Peak bytes of protocol state held (receiver).
    pub state_bytes_peak: u64,
    /// Sum of the loss-event rates `p` the rate computation used, one
    /// per `rate_updates` (the full series is `RateUpdate` events).
    pub p_sum: f64,
    /// Smoothed RTT estimate at the latest rate update, seconds.
    pub srtt_s: f64,
    /// Sum of ADU-submit-to-delivery latencies, seconds (receiver).
    pub latency_sum_s: f64,
    /// Deliveries contributing to `latency_sum_s`.
    pub latency_samples: u64,
}

impl CounterSet {
    /// Apply the counter deltas implied by one event kind.
    #[inline]
    pub fn apply(&mut self, kind: &TraceEventKind) {
        match kind {
            TraceEventKind::PktSent {
                kind, bytes, retx, ..
            } => {
                self.pkts_tx += 1;
                self.bytes_tx += u64::from(*bytes);
                match kind {
                    PktKind::Data => self.data_pkts_tx += 1,
                    PktKind::Feedback => self.feedbacks_tx += 1,
                    _ => {}
                }
                if *retx {
                    self.retransmits += 1;
                }
            }
            TraceEventKind::PktRecvd { bytes, .. } => {
                self.pkts_rx += 1;
                self.bytes_rx += u64::from(*bytes);
            }
            TraceEventKind::PktDropped { .. } => self.ttl_drops += 1,
            TraceEventKind::PktExpired { .. } => self.abandoned += 1,
            TraceEventKind::LossEvent { pkts } => self.loss_events += u64::from(*pkts),
            TraceEventKind::CubicState { .. } | TraceEventKind::BbrState { .. } => {
                self.cc_state_updates += 1
            }
            TraceEventKind::CcPhaseChange { phase, at_us } => {
                self.cc_phase_changes += 1;
                // Phase 1 (drain) is entered exactly once, when startup ends.
                if *phase == 1 && self.bbr_startup_exit_us == 0 {
                    self.bbr_startup_exit_us = *at_us;
                }
            }
            TraceEventKind::RateUpdate { .. } => self.rate_updates += 1,
            TraceEventKind::TimerSet { .. } => self.timers_set += 1,
            TraceEventKind::TimerFired { .. } => self.timer_fires += 1,
            TraceEventKind::TimerCancelled { .. } => self.timers_cancelled += 1,
            TraceEventKind::SoftError => self.soft_errors += 1,
            TraceEventKind::State(_)
            | TraceEventKind::StreamReadable
            | TraceEventKind::StreamWritable
            | TraceEventKind::StreamFin => {}
        }
    }

    /// Add another counter set into this one (mux/driver aggregation).
    /// Counts and sums add. The gauges `srtt_s` and `state_bytes_peak`
    /// keep the larger value (the slowest path, the biggest connection),
    /// and the earliest nonzero `bbr_startup_exit_us` wins.
    pub fn merge(&mut self, other: &CounterSet) {
        self.pkts_tx += other.pkts_tx;
        self.bytes_tx += other.bytes_tx;
        self.data_pkts_tx += other.data_pkts_tx;
        self.feedbacks_tx += other.feedbacks_tx;
        self.pkts_rx += other.pkts_rx;
        self.bytes_rx += other.bytes_rx;
        self.retransmits += other.retransmits;
        self.ttl_drops += other.ttl_drops;
        self.abandoned += other.abandoned;
        self.loss_events += other.loss_events;
        self.rate_updates += other.rate_updates;
        self.timers_set += other.timers_set;
        self.timer_fires += other.timer_fires;
        self.timers_cancelled += other.timers_cancelled;
        self.soft_errors += other.soft_errors;
        self.cc_state_updates += other.cc_state_updates;
        self.cc_phase_changes += other.cc_phase_changes;
        // Earliest nonzero startup exit wins across merged connections.
        if other.bbr_startup_exit_us != 0
            && (self.bbr_startup_exit_us == 0
                || other.bbr_startup_exit_us < self.bbr_startup_exit_us)
        {
            self.bbr_startup_exit_us = other.bbr_startup_exit_us;
        }
        self.ops += other.ops;
        self.data_pkts_processed += other.data_pkts_processed;
        self.state_bytes_peak = self.state_bytes_peak.max(other.state_bytes_peak);
        self.p_sum += other.p_sum;
        self.srtt_s = self.srtt_s.max(other.srtt_s);
        self.latency_sum_s += other.latency_sum_s;
        self.latency_samples += other.latency_samples;
    }

    /// Mean ADU-to-delivery latency, seconds (0 with no deliveries).
    pub fn mean_latency_s(&self) -> f64 {
        if self.latency_samples == 0 {
            0.0
        } else {
            self.latency_sum_s / self.latency_samples as f64
        }
    }

    /// Receiver operations per data packet processed — the headline E5
    /// number (0 with no data packets).
    pub fn ops_per_data_pkt(&self) -> f64 {
        if self.data_pkts_processed == 0 {
            0.0
        } else {
            self.ops as f64 / self.data_pkts_processed as f64
        }
    }
}

struct TracerState {
    conn: u32,
    counters: CounterSet,
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

/// Cheap cloneable per-connection emit handle. Clones share one
/// counter bank and sink slot, so a sink attached through any clone is
/// seen by all of them — endpoints can own a `Tracer` from construction
/// and a backend can attach the run's sink later.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<TracerState>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("Tracer")
            .field("conn", &st.conn)
            .field("counters", &st.counters)
            .field("sink", &st.sink.is_some())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(0)
    }
}

impl Tracer {
    /// A standalone tracer for connection id `conn`, no sink attached.
    pub fn new(conn: u32) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(TracerState {
                conn,
                counters: CounterSet::default(),
                sink: None,
            })),
        }
    }

    /// The registry-assigned connection id.
    pub fn conn(&self) -> u32 {
        self.inner.borrow().conn
    }

    /// Renumber this tracer (all clones see it). Endpoints create their
    /// tracer as id 0; a [`TraceRegistry`] assigns the run-unique id when
    /// the connection is registered.
    pub fn set_conn(&self, conn: u32) {
        self.inner.borrow_mut().conn = conn;
    }

    /// Emit one event: counters update unconditionally; the event is
    /// forwarded to the sink only when one is attached (and only when
    /// the `trace` feature is compiled in).
    #[inline]
    pub fn emit(&self, t_nanos: u64, kind: TraceEventKind) {
        let mut st = self.inner.borrow_mut();
        st.counters.apply(&kind);
        #[cfg(feature = "trace")]
        if let Some(sink) = st.sink.clone() {
            let ev = TraceEvent {
                conn: st.conn,
                t_nanos,
                kind,
            };
            drop(st);
            sink.borrow_mut().emit(&ev);
        }
        #[cfg(not(feature = "trace"))]
        let _ = t_nanos;
    }

    /// Snapshot the counters (struct copy).
    pub fn counters(&self) -> CounterSet {
        self.inner.borrow().counters
    }

    /// Write the counters no event carries (cost meters, gauges, latency
    /// sums). Every clone sees the write.
    #[inline]
    pub fn update(&self, f: impl FnOnce(&mut CounterSet)) {
        f(&mut self.inner.borrow_mut().counters);
    }

    /// Read one value without copying the whole set.
    #[inline]
    pub fn read<T>(&self, f: impl FnOnce(&CounterSet) -> T) -> T {
        f(&self.inner.borrow().counters)
    }

    /// Attach (or replace) the event sink. Takes effect for every
    /// clone of this tracer.
    pub fn attach_sink(&self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.inner.borrow_mut().sink = Some(sink);
    }
}

#[derive(Default)]
struct RegistryState {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    conns: Vec<(String, Tracer)>,
}

/// Run-scoped allocator of connection ids and distributor of the run's
/// sink. Cloning shares state, so a backend can hold one clone and the
/// harness another.
#[derive(Clone, Default)]
pub struct TraceRegistry {
    inner: Rc<RefCell<RegistryState>>,
}

impl fmt::Debug for TraceRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("TraceRegistry")
            .field("conns", &st.conns.len())
            .field("sink", &st.sink.is_some())
            .finish()
    }
}

impl TraceRegistry {
    /// A fresh registry with no sink.
    pub fn new() -> Self {
        TraceRegistry::default()
    }

    /// Install the sink handed to every subsequently created tracer.
    /// Also attaches it to tracers already handed out.
    pub fn set_sink(&self, sink: Rc<RefCell<dyn TraceSink>>) {
        let mut st = self.inner.borrow_mut();
        for (_, t) in &st.conns {
            t.attach_sink(sink.clone());
        }
        st.sink = Some(sink);
    }

    /// Allocate the next connection id and hand out its tracer.
    pub fn tracer(&self, label: &str) -> Tracer {
        let t = Tracer::new(0);
        self.register(label, &t);
        t
    }

    /// Register an endpoint-owned tracer: assign it the next connection
    /// id, attach the run's sink (if any), and record it under `label`.
    pub fn register(&self, label: &str, t: &Tracer) -> u32 {
        let mut st = self.inner.borrow_mut();
        let id = st.conns.len() as u32;
        t.set_conn(id);
        if let Some(sink) = &st.sink {
            t.attach_sink(sink.clone());
        }
        st.conns.push((label.to_string(), t.clone()));
        id
    }

    /// Snapshot every registered connection: `(id, label, counters)`,
    /// in registration order.
    pub fn connections(&self) -> Vec<(u32, String, CounterSet)> {
        self.inner
            .borrow()
            .conns
            .iter()
            .map(|(label, t)| (t.conn(), label.clone(), t.counters()))
            .collect()
    }
}

/// The do-nothing sink: proves the cost of tracing-with-no-consumer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn emit(&mut self, _ev: &TraceEvent) {}
}

/// Fixed-capacity per-connection ring of the last `cap` events.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<TraceEvent>,
    head: usize,
    len: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            head: 0,
            len: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        let cap = self.buf.capacity();
        if cap == 0 {
            return;
        }
        if self.buf.len() < cap {
            self.buf.push(ev);
            self.len = self.buf.len();
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
        }
    }

    fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        let cap = self.buf.len();
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % cap.max(1)]);
        }
        out
    }
}

/// Bounded in-memory flight recorder: keeps the **last N events per
/// connection** in emit order. The only allocations are the one-time
/// ring growth up to capacity per connection; steady-state emission
/// overwrites in place. Dump it when a ledger assertion or scenario
/// check fails to see what the flow was doing just before the end.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    rings: BTreeMap<u32, Ring>,
}

impl FlightRecorder {
    /// Recorder keeping the last `cap_per_conn` events of each
    /// connection.
    pub fn new(cap_per_conn: usize) -> Self {
        FlightRecorder {
            cap: cap_per_conn,
            rings: BTreeMap::new(),
        }
    }

    /// Events currently held for `conn`, oldest first.
    pub fn events(&self, conn: u32) -> Vec<TraceEvent> {
        self.rings.get(&conn).map(Ring::events).unwrap_or_default()
    }

    /// Connection ids with at least one recorded event, ascending.
    pub fn conns(&self) -> Vec<u32> {
        self.rings.keys().copied().collect()
    }

    /// Human-readable dump of every ring, for failure diagnostics.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (conn, ring) in &self.rings {
            let evs = ring.events();
            out.push_str(&format!("conn {} — last {} event(s):\n", conn, evs.len()));
            for ev in evs {
                out.push_str(&format!(
                    "  [{}] {} {:?}\n",
                    ev.time_str(),
                    ev.kind.name(),
                    ev.kind
                ));
            }
        }
        if out.is_empty() {
            out.push_str("flight recorder: no events recorded\n");
        }
        out
    }
}

impl TraceSink for FlightRecorder {
    fn emit(&mut self, ev: &TraceEvent) {
        let cap = self.cap;
        self.rings
            .entry(ev.conn)
            .or_insert_with(|| Ring::new(cap))
            .push(*ev);
    }
}

/// Deterministic qlog-style JSON-lines writer. One JSON object per
/// event, keys in fixed order, all numbers integer-derived — a
/// fixed-seed run reproduces the output byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct QlogWriter {
    out: String,
}

impl QlogWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        QlogWriter::default()
    }

    /// The JSON-lines output so far.
    pub fn output(&self) -> &str {
        &self.out
    }

    fn data_json(kind: &TraceEventKind) -> String {
        match kind {
            TraceEventKind::State(s) => format!("{{\"state\":\"{}\"}}", s.label()),
            TraceEventKind::PktSent {
                kind,
                seq,
                bytes,
                retx,
            } => format!(
                "{{\"kind\":\"{}\",\"seq\":{seq},\"bytes\":{bytes},\"retx\":{retx}}}",
                kind.label()
            ),
            TraceEventKind::PktRecvd { kind, seq, bytes } => format!(
                "{{\"kind\":\"{}\",\"seq\":{seq},\"bytes\":{bytes}}}",
                kind.label()
            ),
            TraceEventKind::PktDropped { seq, age_us } => {
                format!("{{\"seq\":{seq},\"age_us\":{age_us}}}")
            }
            TraceEventKind::PktExpired { seq } => format!("{{\"seq\":{seq}}}"),
            TraceEventKind::RateUpdate {
                rate_bps,
                p_ppm,
                rtt_us,
            } => format!("{{\"rate_bps\":{rate_bps},\"p_ppm\":{p_ppm},\"rtt_us\":{rtt_us}}}"),
            TraceEventKind::LossEvent { pkts } => format!("{{\"pkts\":{pkts}}}"),
            TraceEventKind::CubicState {
                cwnd_bytes,
                w_max_bytes,
                tcp_friendly,
            } => format!(
                "{{\"cwnd\":{cwnd_bytes},\"w_max\":{w_max_bytes},\"tcp_friendly\":{tcp_friendly}}}"
            ),
            TraceEventKind::BbrState {
                phase,
                btlbw_bps,
                min_rtt_us,
            } => format!(
                "{{\"phase\":{phase},\"btlbw_bps\":{btlbw_bps},\"min_rtt_us\":{min_rtt_us}}}"
            ),
            TraceEventKind::CcPhaseChange { phase, at_us } => {
                format!("{{\"phase\":{phase},\"at_us\":{at_us}}}")
            }
            TraceEventKind::TimerSet { kind, at_nanos } => {
                format!(
                    "{{\"kind\":{kind},\"at\":\"{}.{:09}\"}}",
                    at_nanos / 1_000_000_000,
                    at_nanos % 1_000_000_000
                )
            }
            TraceEventKind::TimerFired { kind } => format!("{{\"kind\":{kind}}}"),
            TraceEventKind::TimerCancelled { kind } => format!("{{\"kind\":{kind}}}"),
            TraceEventKind::StreamReadable
            | TraceEventKind::StreamWritable
            | TraceEventKind::StreamFin
            | TraceEventKind::SoftError => "{}".to_string(),
        }
    }
}

impl TraceSink for QlogWriter {
    fn emit(&mut self, ev: &TraceEvent) {
        self.out.push_str(&format!(
            "{{\"time\":\"{}\",\"conn\":{},\"name\":\"{}\",\"data\":{}}}\n",
            ev.time_str(),
            ev.conn,
            ev.kind.name(),
            Self::data_json(&ev.kind)
        ));
    }
}

/// Forward every event to two sinks (e.g. qlog writer + flight
/// recorder in `qtptrace`).
pub struct Tee {
    a: Rc<RefCell<dyn TraceSink>>,
    b: Rc<RefCell<dyn TraceSink>>,
}

impl Tee {
    /// Tee into `a` then `b`, in that order.
    pub fn new(a: Rc<RefCell<dyn TraceSink>>, b: Rc<RefCell<dyn TraceSink>>) -> Self {
        Tee { a, b }
    }
}

impl TraceSink for Tee {
    fn emit(&mut self, ev: &TraceEvent) {
        self.a.borrow_mut().emit(ev);
        self.b.borrow_mut().emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            conn: 0,
            t_nanos: t,
            kind,
        }
    }

    #[test]
    fn counters_follow_events() {
        let tr = Tracer::new(7);
        tr.emit(
            0,
            TraceEventKind::PktSent {
                kind: PktKind::Data,
                seq: 1,
                bytes: 1000,
                retx: false,
            },
        );
        tr.emit(
            1,
            TraceEventKind::PktSent {
                kind: PktKind::Data,
                seq: 1,
                bytes: 1000,
                retx: true,
            },
        );
        tr.emit(
            2,
            TraceEventKind::PktRecvd {
                kind: PktKind::Feedback,
                seq: 0,
                bytes: 40,
            },
        );
        tr.emit(3, TraceEventKind::PktDropped { seq: 5, age_us: 99 });
        tr.emit(4, TraceEventKind::LossEvent { pkts: 3 });
        tr.emit(5, TraceEventKind::SoftError);
        tr.emit(
            6,
            TraceEventKind::PktSent {
                kind: PktKind::Feedback,
                seq: 0,
                bytes: 60,
                retx: false,
            },
        );
        let c = tr.counters();
        assert_eq!(c.pkts_tx, 3);
        assert_eq!(c.bytes_tx, 2060);
        assert_eq!(c.data_pkts_tx, 2);
        assert_eq!(c.feedbacks_tx, 1);
        assert_eq!(c.retransmits, 1);
        assert_eq!(c.pkts_rx, 1);
        assert_eq!(c.bytes_rx, 40);
        assert_eq!(c.ttl_drops, 1);
        assert_eq!(c.loss_events, 3);
        assert_eq!(c.soft_errors, 1);
        assert_eq!(tr.conn(), 7);
    }

    #[test]
    fn clones_share_counters_and_sink() {
        let tr = Tracer::new(0);
        let clone = tr.clone();
        clone.emit(
            0,
            TraceEventKind::TimerSet {
                kind: 1,
                at_nanos: 5,
            },
        );
        assert_eq!(tr.counters().timers_set, 1);
        // Sink attached through one clone is visible through the other.
        let rec = Rc::new(RefCell::new(FlightRecorder::new(4)));
        tr.attach_sink(rec.clone());
        clone.emit(1, TraceEventKind::TimerFired { kind: 1 });
        if cfg!(feature = "trace") {
            assert_eq!(rec.borrow().events(0).len(), 1);
        } else {
            assert!(rec.borrow().events(0).is_empty());
        }
        assert_eq!(tr.counters().timer_fires, 1);
    }

    #[test]
    fn registry_assigns_ids_and_distributes_sink() {
        let reg = TraceRegistry::new();
        let a = reg.tracer("tx");
        let rec = Rc::new(RefCell::new(FlightRecorder::new(4)));
        // set_sink after the fact reaches already-created tracers too.
        reg.set_sink(rec.clone());
        let b = reg.tracer("rx");
        assert_eq!(a.conn(), 0);
        assert_eq!(b.conn(), 1);
        a.emit(0, TraceEventKind::State(ConnState::Started));
        b.emit(1, TraceEventKind::State(ConnState::Started));
        let conns = reg.connections();
        assert_eq!(conns.len(), 2);
        assert_eq!(conns[0].1, "tx");
        if cfg!(feature = "trace") {
            assert_eq!(rec.borrow().conns(), vec![0, 1]);
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..10u64 {
            rec.emit(&ev(i, TraceEventKind::TimerFired { kind: 0 }));
        }
        let evs = rec.events(0);
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.t_nanos).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn recorder_dump_mentions_every_conn() {
        let mut rec = FlightRecorder::new(2);
        for conn in [3u32, 1] {
            rec.emit(&TraceEvent {
                conn,
                t_nanos: 1_500_000_000,
                kind: TraceEventKind::StreamFin,
            });
        }
        let dump = rec.dump();
        assert!(dump.contains("conn 1"));
        assert!(dump.contains("conn 3"));
        assert!(dump.contains("1.500000000"));
        assert!(dump.contains("stream_fin"));
    }

    #[test]
    fn qlog_lines_are_deterministic_json() {
        let mut w = QlogWriter::new();
        w.emit(&ev(
            12_345_678,
            TraceEventKind::RateUpdate {
                rate_bps: 4_000_000,
                p_ppm: 250,
                rtt_us: 40_000,
            },
        ));
        w.emit(&ev(0, TraceEventKind::State(ConnState::Connected)));
        let lines: Vec<&str> = w.output().lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"time\":\"0.012345678\",\"conn\":0,\"name\":\"rate_update\",\"data\":{\"rate_bps\":4000000,\"p_ppm\":250,\"rtt_us\":40000}}"
        );
        assert_eq!(
            lines[1],
            "{\"time\":\"0.000000000\",\"conn\":0,\"name\":\"conn_state\",\"data\":{\"state\":\"connected\"}}"
        );
    }

    #[test]
    fn tee_reaches_both_sinks() {
        let rec = Rc::new(RefCell::new(FlightRecorder::new(4)));
        let qlog = Rc::new(RefCell::new(QlogWriter::new()));
        let mut tee = Tee::new(rec.clone(), qlog.clone());
        tee.emit(&ev(0, TraceEventKind::StreamReadable));
        assert_eq!(rec.borrow().events(0).len(), 1);
        assert!(qlog.borrow().output().contains("stream_readable"));
    }

    #[test]
    fn counter_merge_adds_everything() {
        let mut a = CounterSet {
            pkts_tx: 1,
            soft_errors: 2,
            ..CounterSet::default()
        };
        let b = CounterSet {
            pkts_tx: 3,
            ttl_drops: 4,
            ..CounterSet::default()
        };
        a.merge(&b);
        assert_eq!(a.pkts_tx, 4);
        assert_eq!(a.ttl_drops, 4);
        assert_eq!(a.soft_errors, 2);
    }

    #[test]
    fn tracer_clones_share_measured_fields() {
        let a = Tracer::new(0);
        let b = a.clone();
        a.update(|c| c.data_pkts_processed = 7);
        assert_eq!(b.read(|c| c.data_pkts_processed), 7);
        b.update(|c| c.ops += 3);
        assert_eq!(a.counters().ops, 3);
    }

    #[test]
    fn derived_metrics() {
        let empty = CounterSet::default();
        assert_eq!(empty.ops_per_data_pkt(), 0.0);
        assert_eq!(empty.mean_latency_s(), 0.0);

        let mut a = CounterSet {
            ops: 40,
            data_pkts_processed: 4,
            state_bytes_peak: 100,
            p_sum: 0.25,
            srtt_s: 0.02,
            latency_sum_s: 2.0,
            latency_samples: 4,
            ..CounterSet::default()
        };
        assert_eq!(a.ops_per_data_pkt(), 10.0);
        assert_eq!(a.mean_latency_s(), 0.5);

        let b = CounterSet {
            data_pkts_tx: 5,
            feedbacks_tx: 2,
            ops: 20,
            data_pkts_processed: 1,
            state_bytes_peak: 300,
            p_sum: 0.5,
            srtt_s: 0.01,
            latency_sum_s: 1.0,
            latency_samples: 1,
            ..CounterSet::default()
        };
        a.merge(&b);
        // Counts and sums add…
        assert_eq!((a.data_pkts_tx, a.feedbacks_tx), (5, 2));
        assert_eq!((a.ops, a.data_pkts_processed), (60, 5));
        assert_eq!(a.p_sum, 0.75);
        assert_eq!((a.latency_sum_s, a.latency_samples), (3.0, 5));
        // …the gauges keep the larger value.
        assert_eq!(a.state_bytes_peak, 300);
        assert_eq!(a.srtt_s, 0.02);
        assert_eq!(a.ops_per_data_pkt(), 12.0);
        assert_eq!(a.mean_latency_s(), 0.6);
    }

    #[test]
    fn cc_counters_track_snapshots_and_first_startup_exit() {
        let mut c = CounterSet::default();
        c.apply(&TraceEventKind::CubicState {
            cwnd_bytes: 10_000,
            w_max_bytes: 20_000,
            tcp_friendly: false,
        });
        c.apply(&TraceEventKind::BbrState {
            phase: 0,
            btlbw_bps: 1_000_000,
            min_rtt_us: 40_000,
        });
        assert_eq!(c.cc_state_updates, 2);
        c.apply(&TraceEventKind::CcPhaseChange {
            phase: 1,
            at_us: 900_000,
        });
        c.apply(&TraceEventKind::CcPhaseChange {
            phase: 2,
            at_us: 1_000_000,
        });
        assert_eq!(c.cc_phase_changes, 2);
        assert_eq!(c.bbr_startup_exit_us, 900_000, "first drain entry sticks");
        // Merge keeps the earliest nonzero exit.
        let mut other = CounterSet {
            bbr_startup_exit_us: 500_000,
            ..CounterSet::default()
        };
        other.merge(&c);
        assert_eq!(other.bbr_startup_exit_us, 500_000);
        let mut zero = CounterSet::default();
        zero.merge(&c);
        assert_eq!(zero.bbr_startup_exit_us, 900_000);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut rec = FlightRecorder::new(0);
        rec.emit(&ev(0, TraceEventKind::StreamFin));
        assert!(rec.events(0).is_empty());
    }
}
