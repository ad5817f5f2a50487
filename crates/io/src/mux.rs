//! Connection multiplexing: one UDP socket, many QTP flows.
//!
//! [`MuxDriver`] is the crate's one real-socket event loop: it owns **one**
//! `std::net::UdpSocket` and routes datagrams among N concurrent
//! [`Endpoint`] instances keyed by `(peer_addr, flow_id)`, QUIC-style. A
//! single connection is simply N = 1 — there is no second, simpler driver:
//!
//! ```text
//! loop {                                  // drive_mux_pair / drive_once
//!     step:                               // never blocks
//!         flush the tx arena              // WouldBlock retries
//!         wake what was woken             // endpoint.on_timer per wake
//!         advance timer wheel, fire due   // endpoint.on_timer per conn
//!         while socket ready (level-trig.):   // set_nonblocking(true)
//!             recv a datagram or a peer's GRO run; split by segment size
//!             route (peer, frame.flow) -> conn, else acceptor -> new conn
//!             endpoint.handle_datagram; drain outbox into the tx arena
//!         flush the step's frames, one send per run
//!     if the step did nothing:            // for a pair: if both did nothing
//!         wait until the socket is readable (writable too while frames
//!         wait in the arena), or the next timer deadline, or the slice
//! }
//! ```
//!
//! The wait is `ppoll(2)` on the socket — both sockets, for the two muxes
//! of a [`step_mux_pair`] rig — so the loop wakes for whichever comes
//! first, a datagram or a timer, and is never asleep through either. A
//! wake-up still lands a scheduler's slack after its deadline; the sender's
//! due-anchored pace timer (`qtp_core`'s `sender.rs`) repays that, and
//! [`MuxStats`] records it (`timer_lag_*`, `wakes_*`).
//!
//! * **Routing** — every connection registers the flow ids it owns with its
//!   peer address (a QTP connection owns two: data + feedback). The route
//!   table, a hash map probed once per datagram, is the hot path; qtpperf
//!   prices it as `mux.route_ns_16` / `mux.route_ns_1024`.
//! * **Transmit buffers** — every transmit's header buffer goes back to the
//!   [`Outbox`] once framed ([`Outbox::reuse`]), and the endpoints encode
//!   the next header into it, so sending allocates nothing per datagram.
//! * **Batched sends** — a step frames every datagram its callbacks emit
//!   into one driver-owned tx arena and sends nothing until its flush. The
//!   flush cuts the queue into runs — consecutive frames to one peer, all
//!   as long as the first except a shorter last one, at most 64 frames and
//!   65 507 bytes — and hands each run to the kernel as one UDP GSO send
//!   (`UDP_SEGMENT`; a lone frame is a plain send). Sixteen connections
//!   whose pace timers fire in one step cost one send, not sixteen. After
//!   a `WouldBlock` the unsent tail simply stays in the arena for the next
//!   flush, so the datagram stream never reorders.
//! * **Batched receives** — at the end of the mux's first step that
//!   drains a burst (≥ 8 datagrams, once ≥ 256 have arrived) the socket
//!   turns UDP GRO on, for the mux's life. From then on the kernel keeps
//!   each arriving GSO run whole: one receive returns a peer's run, and
//!   the drain cuts it by its segment size into frames, each routed as a
//!   lone datagram would be. The switch costs tens of microseconds once,
//!   so it waits for bulk traffic: a chat mux never pays it, and a bulk
//!   one pays it after its handshakes.
//! * **Timers** — a [`TimerWheel`] holds every armed wakeup, tagged by
//!   connection so teardown can purge them. The wheel keeps the
//!   simulator's fire-and-forget contract: it never cancels an entry on
//!   re-arm; endpoints discard stale generations via
//!   [`TimerGens`](qtp_core::TimerGens).
//! * **Wakes** — every connection gets a [`Waker`] on the mux's one wake
//!   queue ([`Endpoint::set_waker`]). A stream write that finds its sender
//!   asleep queues the connection, and the top of the next step delivers
//!   the wake like a timer due now, so a step costs what was woken, not
//!   the number of connections.
//! * **Lifecycle** — connections appear either explicitly
//!   ([`MuxDriver::add_connection`], the client role) or on the first
//!   decodable frame from an unknown `(peer, flow)` via the acceptor
//!   callback (the server role); they disappear explicitly
//!   ([`MuxDriver::close`]) or through idle reaping
//!   ([`MuxDriver::reap_stale`]).
//!
//! `MuxDriver` is generic over the endpoint type: `MuxDriver<Session>`,
//! the usual mount, keeps typed access to its sessions, and test doubles
//! implement [`Endpoint`] directly. Strictly single-threaded, like
//! everything else in this crate.

use qtp_core::driver::{Command, Endpoint, Outbox, Transmit};
use qtp_simnet::packet::FlowId;
use qtp_simnet::sim::Waker;
use qtp_simnet::time::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use crate::clock::WallClock;
use crate::frame::{Frame, FrameRef, MAX_FRAME_LEN};
use crate::wait::{enable_gro, recv_segments, send_run, wait};

/// Identifier of one multiplexed connection, unique for the lifetime of a
/// [`MuxDriver`] (ids are never reused after [`MuxDriver::close`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u64);

impl ConnId {
    /// Build an id from its raw value — for driving a [`TimerWheel`]
    /// directly (tests, benchmarks). Ids used with a [`MuxDriver`] always
    /// come from the driver itself.
    pub fn from_raw(raw: u64) -> Self {
        ConnId(raw)
    }
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// Slots per wheel revolution. With the driver's 1 ms granularity one
/// revolution covers 256 ms; anything further out parks in the overflow
/// list until its revolution comes around.
const WHEEL_SLOTS: usize = 256;

#[derive(Debug, Clone)]
struct TimerEntry {
    at: SimTime,
    /// Arming order, the tie-break for equal deadlines (matching the
    /// simulator's insertion-order event tie-break).
    seq: u64,
    conn: ConnId,
    token: u64,
}

/// A hashed timer wheel over all connections of a mux.
///
/// Entries are bucketed by deadline into 256 slots of fixed
/// granularity; [`TimerWheel::advance`] drains every entry due at `now`, in
/// exact `(deadline, arming order)` order — the granularity affects only
/// bucketing cost, never fire order. Entries are tagged with their
/// [`ConnId`] so [`TimerWheel::cancel_conn`] can purge a torn-down
/// connection wholesale; individual timers are fire-and-forget, exactly
/// like the simulator's (endpoints filter stale generations themselves, see
/// [`TimerGens`](qtp_core::TimerGens)).
#[derive(Debug)]
pub struct TimerWheel {
    granularity_ns: u64,
    slots: Vec<Vec<TimerEntry>>,
    /// Entries more than one revolution ahead of the cursor.
    overflow: Vec<TimerEntry>,
    /// Tick index the wheel has been advanced to (inclusive).
    cursor: u64,
    next_seq: u64,
    armed: usize,
    /// Scratch for the entries one advance drains, kept so that firing
    /// timers allocates nothing once it has grown to the working size.
    due: Vec<TimerEntry>,
    /// Cached earliest deadline, so the idle path reads the wait bound
    /// without scanning every slot. Entry removal (advance/cancel) only
    /// marks it dirty; [`TimerWheel::next_deadline`] recomputes lazily —
    /// and the driver consults it only on idle iterations, where nothing
    /// just fired and the cache is almost always still clean.
    earliest: std::cell::Cell<Option<SimTime>>,
    earliest_dirty: std::cell::Cell<bool>,
}

impl TimerWheel {
    /// A wheel with the given slot width. Sub-slot deadline precision is
    /// preserved; the width only sizes the buckets.
    pub fn new(granularity: Duration) -> Self {
        TimerWheel {
            granularity_ns: (granularity.as_nanos() as u64).max(1),
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            cursor: 0,
            next_seq: 0,
            armed: 0,
            due: Vec::new(),
            earliest: std::cell::Cell::new(None),
            earliest_dirty: std::cell::Cell::new(false),
        }
    }

    fn tick_of(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.granularity_ns
    }

    /// Arm a wakeup for `conn` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, conn: ConnId, token: u64) {
        self.next_seq += 1;
        let entry = TimerEntry {
            at,
            seq: self.next_seq,
            conn,
            token,
        };
        self.armed += 1;
        if !self.earliest_dirty.get() {
            self.earliest.set(Some(match self.earliest.get() {
                Some(e) => e.min(at),
                None => at,
            }));
        }
        let tick = self.tick_of(at);
        if tick >= self.cursor + WHEEL_SLOTS as u64 {
            self.overflow.push(entry);
        } else {
            // Already-due entries land in the cursor slot, which the next
            // advance always rescans.
            let slot = tick.max(self.cursor) % WHEEL_SLOTS as u64;
            self.slots[slot as usize].push(entry);
        }
    }

    /// Drain every entry due at `now`, ordered by `(deadline, arming
    /// order)`, and move the cursor up to `now`'s tick.
    pub fn advance(&mut self, now: SimTime) -> Vec<(ConnId, u64)> {
        self.collect_due(now);
        self.due.drain(..).map(|e| (e.conn, e.token)).collect()
    }

    /// [`TimerWheel::advance`] into a caller-owned buffer, each entry with
    /// the deadline it was armed for (the driver's timer-lag measure).
    pub(crate) fn advance_into(&mut self, now: SimTime, fired: &mut Vec<(SimTime, ConnId, u64)>) {
        self.collect_due(now);
        fired.extend(self.due.drain(..).map(|e| (e.at, e.conn, e.token)));
    }

    /// Move every entry due at `now` into `self.due`, in fire order.
    fn collect_due(&mut self, now: SimTime) {
        let now_tick = self.tick_of(now).max(self.cursor);
        let mut due = std::mem::take(&mut self.due);

        // Overflow: fire what is due outright, refile what has entered the
        // coming revolution, keep the rest parked.
        let horizon = now_tick + WHEEL_SLOTS as u64;
        let mut i = 0;
        while i < self.overflow.len() {
            if self.overflow[i].at <= now {
                due.push(self.overflow.swap_remove(i));
            } else if self.tick_of(self.overflow[i].at) < horizon {
                let e = self.overflow.swap_remove(i);
                let slot = self.tick_of(e.at).max(now_tick) % WHEEL_SLOTS as u64;
                self.slots[slot as usize].push(e);
            } else {
                i += 1;
            }
        }

        // Visit each slot between the cursor and now's tick at most once
        // (a revolution covers them all). Only the final slot can hold
        // not-yet-due entries; they stay put and are rescanned next time.
        let span = (now_tick - self.cursor).min(WHEEL_SLOTS as u64 - 1);
        for t in self.cursor..=self.cursor + span {
            let slot = &mut self.slots[(t % WHEEL_SLOTS as u64) as usize];
            let mut j = 0;
            while j < slot.len() {
                if slot[j].at <= now {
                    due.push(slot.swap_remove(j));
                } else {
                    j += 1;
                }
            }
        }
        self.cursor = now_tick;

        due.sort_unstable_by_key(|e| (e.at, e.seq));
        self.armed -= due.len();
        if !due.is_empty() {
            self.earliest_dirty.set(true);
        }
        self.due = due;
    }

    /// Earliest armed deadline, if any (the idle-wait bound). O(1) while
    /// the cache is clean; one slot scan right after entries were removed.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.earliest_dirty.get() {
            self.earliest.set(
                self.slots
                    .iter()
                    .flatten()
                    .chain(self.overflow.iter())
                    .map(|e| e.at)
                    .min(),
            );
            self.earliest_dirty.set(false);
        }
        self.earliest.get()
    }

    /// Drop every entry belonging to `conn` (connection teardown).
    pub fn cancel_conn(&mut self, conn: ConnId) {
        for slot in self
            .slots
            .iter_mut()
            .chain(std::iter::once(&mut self.overflow))
        {
            slot.retain(|e| e.conn != conn);
        }
        self.armed = self.slots.iter().map(Vec::len).sum::<usize>() + self.overflow.len();
        self.earliest_dirty.set(true);
    }

    /// Number of armed entries.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// Whether no entries are armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }
}

// ---------------------------------------------------------------------------
// The mux driver
// ---------------------------------------------------------------------------

/// Timer wheel slot width.
const TIMER_GRANULARITY: Duration = Duration::from_millis(1);

/// Most datagrams dispatched per [`MuxDriver::drive_once`] call before
/// yielding back to the timer path (level-triggered fairness bound). The
/// drain stops at the receive that reaches it, so a GRO run can carry it
/// past by less than one run.
const RECV_BATCH: usize = 256;

/// A step whose drain takes at least this many datagrams is a bulk burst,
/// which a chat exchange never makes: the first one after [`GRO_AFTER`]
/// datagrams turns UDP GRO on.
const GRO_BURST: usize = 8;

/// Datagrams a mux receives before a bulk burst may turn GRO on. A
/// 16-connection accept burst trips [`GRO_BURST`] alone, and the switch's
/// one-off cost (`wait::enable_gro`) belongs mid-transfer, not in
/// connection setup.
const GRO_AFTER: u64 = 256;

/// `recv_buf`'s length once GRO is on: any UDP payload, so no run is cut
/// short. Until then it holds one frame and one byte more.
const GRO_RECV_LEN: usize = 65_536;

/// Most frames one send carries. A 6.18 kernel takes 128 per GSO send
/// (`UDP_MAX_SEGMENTS`); 64 is kept because kernels from before that limit
/// was raised refuse more, which sends the run again frame by frame.
const MAX_RUN_SEGMENTS: usize = 64;

/// Most bytes one send carries: the largest UDP payload over IPv4.
const MAX_RUN_BYTES: usize = 65_507;

/// Resource limits of a [`MuxDriver`].
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Most concurrent connections; the acceptor is not consulted beyond
    /// this (the datagram counts as unroutable).
    pub max_conns: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig { max_conns: 4096 }
    }
}

/// What an acceptor returns for a connection it admits: the endpoint plus
/// every flow id to route to it (which must include the triggering flow).
pub struct Accepted<E> {
    /// The freshly built endpoint (driven from the triggering datagram on).
    pub endpoint: E,
    /// Flow ids owned by this connection, from the triggering peer.
    pub flows: Vec<FlowId>,
}

type Acceptor<E> = Box<dyn FnMut(SocketAddr, &Frame) -> Option<Accepted<E>>>;

/// Per-connection activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConnStats {
    /// Frames sent on behalf of this connection.
    pub datagrams_sent: u64,
    /// Frames routed to this connection.
    pub datagrams_received: u64,
    /// Application bytes the endpoint delivered (`Command::Deliver`).
    pub delivered_bytes: u64,
    /// Last send or receive on this connection (mux clock axis); the
    /// reaper's staleness measure.
    pub last_activity: SimTime,
}

/// Whole-mux activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MuxStats {
    /// Frames sent on the socket.
    pub datagrams_sent: u64,
    /// Socket send calls made, those that hit `WouldBlock` included. One
    /// call carries a whole run of frames ([`MuxDriver`]'s batched sends).
    pub send_calls: u64,
    /// Socket receive calls made, including each drain's last, which
    /// finds the socket empty. Once GRO is on, one call can return a
    /// peer's whole run of datagrams.
    pub recv_calls: u64,
    /// Frames received and routed to a connection.
    pub datagrams_received: u64,
    /// Datagrams that arrived as segments of a coalesced (GRO) receive,
    /// routed or not. Against [`MuxStats::recv_calls`] it shows how much
    /// the kernel coalesced; it stays 0 until the mux's first bulk burst
    /// turns GRO on.
    pub gro_datagrams: u64,
    /// Datagrams dropped because they don't decode as frames, or were
    /// longer than the receive buffer.
    pub datagrams_rejected: u64,
    /// Valid frames with no route and no (or a declining) acceptor.
    pub datagrams_unroutable: u64,
    /// Timer events delivered (stale generations included).
    pub timers_fired: u64,
    /// Connections created by the acceptor.
    pub conns_accepted: u64,
    /// Connections removed by [`MuxDriver::close`] (reaping included).
    pub conns_closed: u64,
    /// Connections removed by [`MuxDriver::reap_stale`].
    pub conns_reaped: u64,
    /// Frames deferred because the socket buffer was full (`WouldBlock`),
    /// each counted once however many flushes it waits through.
    pub sends_requeued: u64,
    /// Soft per-datagram socket errors absorbed (ICMP reflections etc.).
    pub soft_errors: u64,
    /// Deepest the `WouldBlock` send backlog ever got (frames).
    pub tx_backlog_high_water: u64,
    /// Most timer entries armed in the wheel at once (stale generations
    /// included): the timer-state footprint of the whole mux.
    pub timer_wheel_high_water: u64,
    /// Idle waits entered. A [`step_mux_pair`] wait covers both muxes and
    /// counts, with its wake reason, on both.
    pub waits: u64,
    /// Waits ended by a socket becoming ready.
    pub wakes_readable: u64,
    /// Waits that ran to the nearest timer deadline.
    pub wakes_deadline: u64,
    /// Waits that ran to the caller's slice, no timer being nearer.
    pub wakes_slice: u64,
    /// Total lateness of delivered timers (`now − deadline` when fired),
    /// over [`MuxStats::timers_fired`] deliveries.
    pub timer_lag_sum_ns: u64,
    /// Latest any one timer was delivered.
    pub timer_lag_max_ns: u64,
}

impl MuxStats {
    /// The mux's activity as a [`CounterSet`], the cross-backend
    /// observability currency: datagrams map to packets, timer and
    /// soft-error counters carry over, everything per-connection (bytes,
    /// retransmits, drops) stays zero — those live with the endpoints'
    /// own tracers.
    ///
    /// [`CounterSet`]: qtp_metrics::trace::CounterSet
    pub fn counter_set(&self) -> qtp_metrics::trace::CounterSet {
        qtp_metrics::trace::CounterSet {
            pkts_tx: self.datagrams_sent,
            pkts_rx: self.datagrams_received,
            timer_fires: self.timers_fired,
            soft_errors: self.soft_errors,
            ..Default::default()
        }
    }
}

struct Conn<E> {
    /// The endpoint. `None` only transiently, while one of its callbacks
    /// runs (taken out so the command drain can borrow the mux freely
    /// without structurally mutating the connection map on the hot path).
    ep: Option<E>,
    peer: SocketAddr,
    flows: Vec<FlowId>,
    stats: ConnStats,
}

/// Drives N [`Endpoint`]s over one UDP socket.
pub struct MuxDriver<E: Endpoint> {
    socket: UdpSocket,
    clock: WallClock,
    cfg: MuxConfig,
    wheel: TimerWheel,
    conns: BTreeMap<ConnId, Conn<E>>,
    /// Hashed: only ever probed by key, never iterated.
    routes: HashMap<(SocketAddr, FlowId), ConnId>,
    acceptor: Option<Acceptor<E>>,
    out: Outbox,
    next_conn: u64,
    /// Per-mux datagram counter, stamped into frames as `seq` (tracing).
    next_seq: u64,
    /// The tx arena: every frame encoded since the last flush, back to
    /// back, in emission order. What a `WouldBlock` leaves unsent stays at
    /// its head, so fresh frames queue behind it and never overtake it.
    tx_arena: Vec<u8>,
    /// One record per frame in `tx_arena`, in the same order.
    tx_frames: Vec<TxFrame>,
    /// Leading `tx_frames` already counted in `sends_requeued`.
    tx_deferred: usize,
    /// What the drain reads into: one frame (and a byte to spot a longer
    /// datagram) until GRO goes on, then [`GRO_RECV_LEN`].
    recv_buf: Vec<u8>,
    /// Whether the socket has been asked for GRO; it is asked at most once.
    gro: bool,
    /// Scratch for the timers one `fire_due_timers` call delivers.
    fired: Vec<(SimTime, ConnId, u64)>,
    /// Wakes asked for outside the loop (a stream write to a sleeping
    /// sender), keyed by connection id; taken at the top of each step.
    wakes: Waker,
    stats: MuxStats,
}

impl<E: Endpoint> MuxDriver<E> {
    /// Bind a mux on `bind_addr` with the default limits.
    pub fn bind(bind_addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with(bind_addr, MuxConfig::default())
    }

    /// Bind a mux on `bind_addr` with explicit limits.
    pub fn bind_with(bind_addr: impl ToSocketAddrs, cfg: MuxConfig) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_nonblocking(true)?;
        Ok(MuxDriver {
            socket,
            clock: WallClock::new(),
            wheel: TimerWheel::new(TIMER_GRANULARITY),
            cfg,
            conns: BTreeMap::new(),
            routes: HashMap::new(),
            acceptor: None,
            out: Outbox::new(),
            next_conn: 0,
            next_seq: 0,
            tx_arena: Vec::new(),
            tx_frames: Vec::new(),
            tx_deferred: 0,
            recv_buf: vec![0; MAX_FRAME_LEN + 1],
            gro: false,
            fired: Vec::new(),
            wakes: Waker::default(),
            stats: MuxStats::default(),
        })
    }

    /// The socket's local address (useful after binding to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Install the accept-on-first-frame callback: consulted whenever a
    /// decodable frame arrives from an unknown `(peer, flow)`. Returning
    /// `None` drops the datagram (counted as unroutable).
    pub fn set_acceptor(
        &mut self,
        acceptor: impl FnMut(SocketAddr, &Frame) -> Option<Accepted<E>> + 'static,
    ) {
        self.acceptor = Some(Box::new(acceptor));
    }

    /// Register a connection to `peer` owning `flows` (the client role:
    /// the endpoint's `on_start` runs immediately, typically emitting a
    /// SYN). Fails if any `(peer, flow)` route is already taken, if
    /// `flows` is empty, or at the connection cap.
    pub fn add_connection(
        &mut self,
        peer: SocketAddr,
        flows: Vec<FlowId>,
        endpoint: E,
    ) -> io::Result<ConnId> {
        let id = self.register(peer, flows, endpoint)?;
        self.drive_endpoint(id, |ep, out| ep.on_start(out))?;
        Ok(id)
    }

    fn register(&mut self, peer: SocketAddr, flows: Vec<FlowId>, mut ep: E) -> io::Result<ConnId> {
        if flows.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a connection must own at least one flow id",
            ));
        }
        if self.conns.len() >= self.cfg.max_conns {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                format!("connection cap ({}) reached", self.cfg.max_conns),
            ));
        }
        for f in &flows {
            if self.routes.contains_key(&(peer, *f)) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("route ({peer}, flow {f}) already taken"),
                ));
            }
        }
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        for f in &flows {
            self.routes.insert((peer, *f), id);
        }
        ep.set_waker(self.wakes.to(id.0, 0));
        self.conns.insert(
            id,
            Conn {
                ep: Some(ep),
                peer,
                flows,
                stats: ConnStats {
                    last_activity: self.clock.now(),
                    ..ConnStats::default()
                },
            },
        );
        Ok(id)
    }

    /// Tear a connection down: unroute its flows, purge its timers, return
    /// its endpoint for inspection. `None` if already gone.
    pub fn close(&mut self, id: ConnId) -> Option<E> {
        let conn = self.conns.remove(&id)?;
        for f in &conn.flows {
            self.routes.remove(&(conn.peer, *f));
        }
        self.wheel.cancel_conn(id);
        self.stats.conns_closed += 1;
        conn.ep
    }

    /// Close every connection with no send/receive activity for at least
    /// `idle`, returning the reaped endpoints.
    pub fn reap_stale(&mut self, idle: Duration) -> Vec<(ConnId, E)> {
        let now = self.clock.now();
        let stale: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| now.saturating_since(c.stats.last_activity) >= idle)
            .map(|(id, _)| *id)
            .collect();
        stale
            .into_iter()
            .filter_map(|id| {
                let ep = self.close(id)?;
                self.stats.conns_reaped += 1;
                Some((id, ep))
            })
            .collect()
    }

    /// The endpoint of a live connection.
    pub fn endpoint(&self, id: ConnId) -> Option<&E> {
        self.conns.get(&id).and_then(|c| c.ep.as_ref())
    }

    /// Activity counters of a live connection.
    pub fn conn_stats(&self, id: ConnId) -> Option<ConnStats> {
        self.conns.get(&id).map(|c| c.stats)
    }

    /// Number of live connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The connection a `(peer, flow)` datagram would route to.
    pub fn route(&self, peer: SocketAddr, flow: FlowId) -> Option<ConnId> {
        self.routes.get(&(peer, flow)).copied()
    }

    /// Whole-mux activity counters.
    pub fn stats(&self) -> MuxStats {
        self.stats
    }

    /// Earliest armed timer deadline across all connections.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        self.wheel.next_deadline()
    }

    /// Number of armed timer entries across all connections (stale
    /// generations included until they fire). A connection that completed
    /// its close handshake stops re-arming, so this drains to zero once
    /// its last in-flight timer fires — the no-leak property the
    /// `mux_stream` tests pin down.
    pub fn timer_count(&self) -> usize {
        self.wheel.len()
    }

    /// One iteration of the readiness loop: a non-blocking step (retry
    /// deferred sends, fire due timers, drain the socket, send what that
    /// emitted), then — only if that found nothing to do — one readiness
    /// wait on the socket, bounded by `slice` and the next timer deadline.
    /// Any received datagram counts as activity, routed or not, so a
    /// garbage flood cannot put the loop to sleep while real traffic queues
    /// behind it. Returns the number of datagrams dispatched to endpoints.
    pub fn drive_once(&mut self, slice: Duration) -> io::Result<usize> {
        let (handled, idle) = self.step()?;
        if idle {
            let wake = idle_wait([self.interest()], self.until_deadline(), slice)?;
            self.note_wake(wake);
        }
        Ok(handled)
    }

    /// The non-blocking part of an iteration: retry deferred sends, wake
    /// the connections woken since the last step, fire due timers, drain
    /// the socket level-triggered (up to the batch bound), then send every
    /// frame that emitted, and turn GRO on at the mux's first bulk burst.
    /// Returns the datagrams dispatched to endpoints, and whether the
    /// iteration was idle (nothing received, nothing woken, no timer
    /// fired).
    fn step(&mut self) -> io::Result<(usize, bool)> {
        self.flush_tx()?;
        let fired = self.wake_woken()? + self.fire_due_timers()?;
        // Taken out for the loop: a frame stays borrowed from the buffer
        // while its endpoint's callback borrows the mux.
        let mut buf = std::mem::take(&mut self.recv_buf);
        let drained = self.drain_socket(&mut buf);
        self.recv_buf = buf;
        let (handled, received) = drained?;
        self.flush_tx()?;
        if !self.gro && received >= GRO_BURST && self.stats.datagrams_received >= GRO_AFTER {
            self.gro = true;
            // Grown here, back in its field: the drain reads into it.
            if enable_gro(&self.socket)? {
                self.recv_buf.resize(GRO_RECV_LEN, 0);
            }
        }
        Ok((handled, received == 0 && fired == 0))
    }

    /// Receive and dispatch until the socket is empty or the batch bound is
    /// reached, splitting each GRO run into its frames. Returns datagrams
    /// dispatched to endpoints, and received.
    fn drain_socket(&mut self, buf: &mut [u8]) -> io::Result<(usize, usize)> {
        let mut handled = 0usize;
        let mut received = 0usize;
        // `RECV_BATCH` bounds the calls too, whatever they return.
        for _ in 0..RECV_BATCH {
            if received >= RECV_BATCH {
                break;
            }
            match recv_segments(&self.socket, buf, &mut self.stats.recv_calls) {
                Ok((len, from, seg)) => {
                    if len > seg {
                        self.stats.gro_datagrams += len.div_ceil(seg) as u64;
                    }
                    let run = &buf[..len];
                    // An empty datagram is still one (rejected) frame.
                    let frames = run.chunks(seg.max(1)).chain(run.is_empty().then_some(run));
                    for frame in frames {
                        received += 1;
                        if self.handle_datagram_from(from, frame)? {
                            handled += 1;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Longer than `buf`: clipped by the kernel, never parsed.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    received += 1;
                    self.stats.datagrams_rejected += 1;
                }
                // Soft per-datagram failures on UDP (ICMP port-unreachable
                // reflected onto the socket): never loop-fatal, the armed
                // protocol timers handle recovery.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionRefused
                    ) =>
                {
                    self.stats.soft_errors += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok((handled, received))
    }

    /// What an idle wait watches: the socket for reading, and for writing
    /// too while frames wait in the arena (after the step's flush only a
    /// `WouldBlock` leaves any; the retry needs buffer space, which is
    /// exactly what `POLLOUT` reports).
    fn interest(&self) -> (&UdpSocket, bool) {
        (&self.socket, !self.tx_frames.is_empty())
    }

    /// Time left until the earliest armed timer, zero if already due.
    fn until_deadline(&self) -> Option<Duration> {
        let at = self.wheel.next_deadline()?;
        Some(at.saturating_since(self.clock.now()))
    }

    fn note_wake(&mut self, wake: Option<Wake>) {
        let Some(wake) = wake else { return };
        self.stats.waits += 1;
        match wake {
            Wake::Readable => self.stats.wakes_readable += 1,
            Wake::Deadline => self.stats.wakes_deadline += 1,
            Wake::Slice => self.stats.wakes_slice += 1,
        }
    }

    /// Route one already-received datagram, exactly as the recv loop does —
    /// the ingress seam for alternative receive paths and qtpperf's
    /// `mux.route_ns_*` routing replay. Frames the endpoint emits in reply
    /// wait in the tx arena and leave at the next step's flush. Returns
    /// whether the datagram reached an endpoint.
    pub fn handle_datagram_from(&mut self, from: SocketAddr, buf: &[u8]) -> io::Result<bool> {
        match FrameRef::parse(buf) {
            Ok(frame) => self.ingest(from, frame),
            Err(_) => {
                self.stats.datagrams_rejected += 1;
                Ok(false)
            }
        }
    }

    fn ingest(&mut self, from: SocketAddr, frame: FrameRef<'_>) -> io::Result<bool> {
        let id = match self.routes.get(&(from, frame.flow)) {
            Some(&id) => id,
            // The acceptor keeps its owned `Frame`; accepting is rare.
            None => match self.try_accept(from, &frame.to_owned())? {
                Some(id) => id,
                None => {
                    self.stats.datagrams_unroutable += 1;
                    return Ok(false);
                }
            },
        };
        self.stats.datagrams_received += 1;
        let now = self.clock.now();
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.stats.datagrams_received += 1;
            conn.stats.last_activity = now;
        }
        self.drive_endpoint(id, |ep, out| {
            ep.handle_datagram(out, frame.wire_size, frame.header)
        })?;
        Ok(true)
    }

    fn try_accept(&mut self, from: SocketAddr, frame: &Frame) -> io::Result<Option<ConnId>> {
        if self.conns.len() >= self.cfg.max_conns {
            return Ok(None);
        }
        let Some(acceptor) = self.acceptor.as_mut() else {
            return Ok(None);
        };
        let Some(Accepted { endpoint, flows }) = acceptor(from, frame) else {
            return Ok(None);
        };
        if !flows.contains(&frame.flow) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "acceptor admitted flow {} without routing it (flows {:?})",
                    frame.flow, flows
                ),
            ));
        }
        let id = self.register(from, flows, endpoint)?;
        self.stats.conns_accepted += 1;
        self.drive_endpoint(id, |ep, out| ep.on_start(out))?;
        Ok(Some(id))
    }

    /// Deliver each wake asked for since the last step to its connection,
    /// as a timer due now: the cost is the woken connections, never all of
    /// them. Wakes of closed connections are dropped.
    fn wake_woken(&mut self) -> io::Result<usize> {
        let mut woken = 0;
        while let Some((key, token)) = self.wakes.take() {
            woken += 1;
            self.drive_endpoint(ConnId(key), |ep, out| ep.on_timer(out, token))?;
        }
        Ok(woken)
    }

    /// Deliver every due timer. Stale generations are delivered too —
    /// filtering them is the endpoint's job ([`TimerGens`]
    /// fire-and-forget contract), but timers of closed connections are
    /// dropped here.
    ///
    /// [`TimerGens`]: qtp_core::TimerGens
    fn fire_due_timers(&mut self) -> io::Result<usize> {
        let now = self.clock.now();
        // Taken out for the loop: the callbacks arm new timers in the wheel.
        let mut due = std::mem::take(&mut self.fired);
        self.wheel.advance_into(now, &mut due);
        let mut fired = 0usize;
        for &(at, id, token) in &due {
            if !self.conns.contains_key(&id) {
                continue;
            }
            let lag = now.saturating_since(at).as_nanos() as u64;
            self.stats.timers_fired += 1;
            self.stats.timer_lag_sum_ns += lag;
            self.stats.timer_lag_max_ns = self.stats.timer_lag_max_ns.max(lag);
            fired += 1;
            // A socket error ends the loop; the scratch is simply regrown.
            self.drive_endpoint(id, |ep, out| ep.on_timer(out, token))?;
        }
        due.clear();
        self.fired = due;
        Ok(fired)
    }

    /// Run one endpoint callback and apply its commands. The endpoint is
    /// taken out of its slot for the duration so the outbox drain can
    /// borrow the rest of the mux freely — no structural map mutation on
    /// the hot path; nothing in the drain re-enters endpoints, so this is
    /// not observable from outside.
    fn drive_endpoint(
        &mut self,
        id: ConnId,
        f: impl FnOnce(&mut E, &mut Outbox),
    ) -> io::Result<()> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        let peer = conn.peer;
        let Some(mut ep) = conn.ep.take() else {
            return Ok(());
        };
        self.out.now = self.clock.now();
        f(&mut ep, &mut self.out);
        let res = self.flush_cmds(id, peer);
        if res.is_err() {
            // The rest of this callback's commands die with the failed one:
            // left in the shared outbox, the next connection's drain would
            // apply them as its own (its id on the timers, its peer on the
            // transmits).
            while self.out.poll_cmd().is_some() {}
        }
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.ep = Some(ep);
        }
        res
    }

    fn flush_cmds(&mut self, id: ConnId, peer: SocketAddr) -> io::Result<()> {
        while let Some(cmd) = self.out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => self.send_frame(id, peer, t)?,
                Command::SetTimer { at, token } => {
                    self.wheel.schedule(at, id, token);
                    self.stats.timer_wheel_high_water = self
                        .stats
                        .timer_wheel_high_water
                        .max(self.wheel.len() as u64);
                }
                Command::Deliver { bytes, .. } => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.stats.delivered_bytes += bytes;
                    }
                }
            }
        }
        Ok(())
    }

    /// Frame `t` into the tx arena; the step's next flush sends it.
    fn send_frame(&mut self, id: ConnId, peer: SocketAddr, t: Transmit) -> io::Result<()> {
        self.next_seq += 1;
        let start = self.tx_arena.len();
        FrameRef {
            flow: t.flow,
            seq: self.next_seq,
            wire_size: t.wire_size,
            header: &t.header,
        }
        .encode_into(&mut self.tx_arena)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // Framed: the header's buffer goes back for the next transmit.
        self.out.reuse(t.header);
        self.tx_frames.push(TxFrame {
            conn: id,
            peer,
            len: self.tx_arena.len() - start,
        });
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.stats.last_activity = self.clock.now();
        }
        Ok(())
    }

    /// Send the arena's frames in order, one send per run, until it is
    /// empty or the socket buffer is full; what a `WouldBlock` leaves stays
    /// queued for the next flush. A soft error (an ICMP reflection) costs
    /// the run's first frame, as a lost datagram, and the flush goes on.
    fn flush_tx(&mut self) -> io::Result<()> {
        let (mut frames, mut bytes) = (0, 0);
        let res = loop {
            let rest = &self.tx_frames[frames..];
            let Some(head) = rest.first().copied() else {
                break Ok(());
            };
            let run = &rest[..run_len(rest)];
            let len: usize = run.iter().map(|f| f.len).sum();
            let arena = &self.tx_arena[bytes..bytes + len];
            match send_run(
                &self.socket,
                head.peer,
                arena,
                head.len,
                &mut self.stats.send_calls,
            ) {
                Ok(sent) => {
                    for f in &run[..sent] {
                        self.stats.datagrams_sent += 1;
                        if let Some(conn) = self.conns.get_mut(&f.conn) {
                            conn.stats.datagrams_sent += 1;
                        }
                        bytes += f.len;
                    }
                    frames += sent;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionRefused
                    ) =>
                {
                    self.stats.soft_errors += 1;
                    frames += 1;
                    bytes += head.len;
                }
                Err(e) => break Err(e),
            }
        };
        self.tx_frames.drain(..frames);
        self.tx_arena.drain(..bytes);
        self.tx_deferred = self.tx_deferred.saturating_sub(frames);
        if res.is_ok() && !self.tx_frames.is_empty() {
            // Stopped by `WouldBlock`: the tail waits for buffer space.
            let queued = self.tx_frames.len();
            self.stats.sends_requeued += (queued - self.tx_deferred) as u64;
            self.stats.tx_backlog_high_water = self.stats.tx_backlog_high_water.max(queued as u64);
            self.tx_deferred = queued;
        }
        res
    }
}

/// One frame queued in a mux's tx arena.
#[derive(Debug, Clone, Copy)]
struct TxFrame {
    conn: ConnId,
    peer: SocketAddr,
    len: usize,
}

/// How many of `frames` go out as the next send: consecutive frames to the
/// first one's peer, each as long as the first except that a shorter one
/// ends the run, within [`MAX_RUN_SEGMENTS`] and [`MAX_RUN_BYTES`] — the
/// shape one UDP GSO send can carry. At least one, unless `frames` is
/// empty.
fn run_len(frames: &[TxFrame]) -> usize {
    let Some(first) = frames.first() else {
        return 0;
    };
    let (mut n, mut bytes) = (0, 0);
    for f in frames.iter().take(MAX_RUN_SEGMENTS) {
        if f.peer != first.peer || f.len > first.len || bytes + f.len > MAX_RUN_BYTES {
            break;
        }
        n += 1;
        bytes += f.len;
        if f.len < first.len {
            break;
        }
    }
    n.max(1)
}

/// How an idle wait ended.
#[derive(Clone, Copy)]
enum Wake {
    /// A socket became ready.
    Readable,
    /// It ran to the nearest timer deadline.
    Deadline,
    /// It ran to the caller's slice, no timer being nearer.
    Slice,
}

/// The loop's only blocking point: wait until one of `socks` is ready, for
/// at most the nearer of `until` (time left to the next timer deadline) and
/// `slice`. `None` if that leaves no time to wait at all.
fn idle_wait<const N: usize>(
    socks: [(&UdpSocket, bool); N],
    until: Option<Duration>,
    slice: Duration,
) -> io::Result<Option<Wake>> {
    let timeout = until.map_or(slice, |d| d.min(slice));
    let deadline_bound = until.is_some_and(|d| d <= slice);
    if timeout.is_zero() {
        return Ok(None);
    }
    Ok(Some(if wait(socks, timeout)? {
        Wake::Readable
    } else if deadline_bound {
        Wake::Deadline
    } else {
        Wake::Slice
    }))
}

/// Annotate a socket error with which driver of a pair raised it, keeping
/// the original [`io::ErrorKind`] so callers can still match on it.
fn annotate_side(side: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{side}: {e}"))
}

/// One iteration of a two-mux rig driven in one thread: a non-blocking step
/// on each side and then, only if both found nothing to do, **one** wait on
/// both sockets until either is ready, the nearer of the two wheels'
/// deadlines, or `slice` — so neither side naps while the other's timer is
/// due. Returns the datagrams dispatched; socket errors surface
/// immediately, annotated by side (argument order).
pub fn step_mux_pair<A: Endpoint, B: Endpoint>(
    a: &mut MuxDriver<A>,
    b: &mut MuxDriver<B>,
    slice: Duration,
) -> io::Result<usize> {
    let (handled_a, idle_a) = a.step().map_err(|e| annotate_side("a side", e))?;
    let (handled_b, idle_b) = b.step().map_err(|e| annotate_side("b side", e))?;
    if idle_a && idle_b {
        // The two muxes keep separate clocks, so compare time left.
        let until = match (a.until_deadline(), b.until_deadline()) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        let wake = idle_wait([a.interest(), b.interest()], until, slice)?;
        // One wait covered both muxes: each records it.
        a.note_wake(wake);
        b.note_wake(wake);
    }
    Ok(handled_a + handled_b)
}

/// Drive the two muxes of a test/example rig in one thread, one
/// [`step_mux_pair`] at a time, until `done` or `deadline`. Socket errors
/// surface immediately, annotated by side (argument order).
pub fn drive_mux_pair<A: Endpoint, B: Endpoint>(
    a: &mut MuxDriver<A>,
    b: &mut MuxDriver<B>,
    deadline: Duration,
    mut done: impl FnMut(&MuxDriver<A>, &MuxDriver<B>) -> bool,
) -> io::Result<bool> {
    const SLICE: Duration = Duration::from_micros(300);
    let start = std::time::Instant::now();
    loop {
        step_mux_pair(a, b, SLICE)?;
        if done(a, b) {
            return Ok(true);
        }
        if start.elapsed() > deadline {
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn wheel_fires_in_deadline_then_arming_order() {
        let mut w = TimerWheel::new(Duration::from_millis(1));
        let c = ConnId(1);
        w.schedule(t(30), c, 3);
        w.schedule(t(10), c, 1);
        w.schedule(t(10), c, 11); // same deadline, armed later
        w.schedule(t(20), c, 2);
        assert_eq!(w.len(), 4);
        assert_eq!(w.next_deadline(), Some(t(10)));
        assert_eq!(w.advance(t(5)), vec![]);
        assert_eq!(w.advance(t(10)), vec![(c, 1), (c, 11)]);
        assert_eq!(w.advance(t(40)), vec![(c, 2), (c, 3)]);
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn wheel_sub_slot_deadlines_do_not_fire_early() {
        let mut w = TimerWheel::new(Duration::from_millis(1));
        let c = ConnId(0);
        w.schedule(SimTime::from_micros(1500), c, 7);
        // Same slot as 1.0-1.999 ms, but not due at 1.2 ms.
        assert_eq!(w.advance(SimTime::from_micros(1200)), vec![]);
        assert_eq!(w.advance(SimTime::from_micros(1500)), vec![(c, 7)]);
    }

    #[test]
    fn wheel_handles_far_deadlines_via_overflow() {
        let mut w = TimerWheel::new(Duration::from_millis(1));
        let c = ConnId(2);
        // Far beyond one 256-slot revolution.
        w.schedule(t(10_000), c, 42);
        w.schedule(t(5), c, 1);
        assert_eq!(w.advance(t(100)), vec![(c, 1)]);
        assert_eq!(w.advance(t(9_999)), vec![]);
        assert_eq!(w.advance(t(10_000)), vec![(c, 42)]);
        // A big jump straight over an overflow deadline still fires it.
        w.schedule(t(90_000), c, 43);
        assert_eq!(w.advance(t(200_000)), vec![(c, 43)]);
    }

    #[test]
    fn wheel_cached_deadline_stays_exact_through_removals() {
        let mut w = TimerWheel::new(Duration::from_millis(1));
        let (a, b) = (ConnId(1), ConnId(2));
        w.schedule(t(10), a, 1);
        w.schedule(t(20), b, 2);
        w.schedule(t(10_000), a, 3); // overflow
        assert_eq!(w.next_deadline(), Some(t(10)));
        // Firing invalidates the cache; the next query recomputes.
        assert_eq!(w.advance(t(15)), vec![(a, 1)]);
        assert_eq!(w.next_deadline(), Some(t(20)));
        // Scheduling after a query keeps the cache exact.
        w.schedule(t(18), b, 4);
        assert_eq!(w.next_deadline(), Some(t(18)));
        // Cancellation invalidates too, across slots and overflow.
        w.cancel_conn(b);
        assert_eq!(w.next_deadline(), Some(t(10_000)));
        w.cancel_conn(a);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn wheel_cancel_conn_purges_only_that_connection() {
        let mut w = TimerWheel::new(Duration::from_millis(1));
        let (a, b) = (ConnId(1), ConnId(2));
        w.schedule(t(10), a, 1);
        w.schedule(t(10), b, 2);
        w.schedule(t(10_000), a, 3); // overflow entry
        w.schedule(t(20), b, 4);
        w.cancel_conn(a);
        assert_eq!(w.len(), 2);
        assert_eq!(w.advance(t(20_000)), vec![(b, 2), (b, 4)]);
    }

    /// Echoes every datagram back with the header reversed, on `reply_flow`.
    struct Echo {
        reply_flow: FlowId,
        got: Rc<RefCell<u64>>,
    }
    impl Endpoint for Echo {
        fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
            *self.got.borrow_mut() += 1;
            let mut back = header.to_vec();
            back.reverse();
            out.send_new(self.reply_flow, 0, wire_size, back);
        }
    }

    /// Sends one datagram on start, remembers replies.
    struct Pinger {
        flow: FlowId,
        payload: Vec<u8>,
        reply: Option<Vec<u8>>,
    }
    impl Endpoint for Pinger {
        fn on_start(&mut self, out: &mut Outbox) {
            out.send_new(self.flow, 0, 64, self.payload.clone());
        }
        fn handle_datagram(&mut self, _out: &mut Outbox, _wire_size: u32, header: &[u8]) {
            self.reply = Some(header.to_vec());
        }
    }

    #[test]
    fn mux_routes_many_flows_between_two_sockets() {
        const N: u32 = 8;
        let mut server: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let got = Rc::new(RefCell::new(0u64));
        let got2 = got.clone();
        server.set_acceptor(move |_, frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: frame.flow,
                    got: got2.clone(),
                },
                flows: vec![frame.flow],
            })
        });
        let server_addr = server.local_addr().unwrap();

        let mut client: MuxDriver<Pinger> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let mut ids = Vec::new();
        for f in 0..N {
            let id = client
                .add_connection(
                    server_addr,
                    vec![f],
                    Pinger {
                        flow: f,
                        payload: vec![f as u8, 1, 2],
                        reply: None,
                    },
                )
                .unwrap();
            ids.push(id);
        }
        let ok = drive_mux_pair(&mut client, &mut server, Duration::from_secs(5), |c, _| {
            ids.iter()
                .all(|id| c.endpoint(*id).unwrap().reply.is_some())
        })
        .unwrap();
        assert!(ok, "all {N} echoes should complete");
        assert_eq!(*got.borrow(), u64::from(N));
        assert_eq!(server.conn_count(), N as usize);
        assert_eq!(server.stats().conns_accepted, u64::from(N));
        for (f, id) in ids.iter().enumerate() {
            // Each pinger got *its own* payload back, so routing never
            // crossed flows.
            assert_eq!(
                client.endpoint(*id).unwrap().reply.as_deref(),
                Some(&[2, 1, f as u8][..])
            );
        }
    }

    #[test]
    fn frames_queued_by_add_connection_leave_in_one_send() {
        const N: u32 = 8;
        let mut server: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        server.set_acceptor(|_, frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: frame.flow,
                    got: Rc::new(RefCell::new(0)),
                },
                flows: vec![frame.flow],
            })
        });
        let server_addr = server.local_addr().unwrap();
        let mut client: MuxDriver<Pinger> = MuxDriver::bind("127.0.0.1:0").unwrap();
        for f in 0..N {
            let pinger = Pinger {
                flow: f,
                payload: vec![f as u8, 1, 2],
                reply: None,
            };
            client.add_connection(server_addr, vec![f], pinger).unwrap();
        }
        assert_eq!(client.stats().send_calls, 0, "framing sends nothing");
        client.step().unwrap();
        let st = client.stats();
        // Other targets send the run frame by frame, inside the shim.
        let calls = if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            1
        } else {
            u64::from(N)
        };
        assert_eq!((st.send_calls, st.datagrams_sent), (calls, u64::from(N)));
        let t0 = std::time::Instant::now();
        while server.stats().datagrams_received < u64::from(N)
            && t0.elapsed() < Duration::from_secs(5)
        {
            server.drive_once(Duration::from_millis(5)).unwrap();
        }
        let st = server.stats();
        assert_eq!((st.datagrams_received, st.conns_accepted), (8, 8));
        assert_eq!(st.datagrams_rejected + st.datagrams_unroutable, 0);
        assert_eq!(st.gro_datagrams, 0, "an accept burst leaves GRO off");
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn gro_goes_on_at_the_first_burst_after_256_datagrams() {
        const BURST: u64 = 16;
        let mut mux: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let got = Rc::new(RefCell::new(0u64));
        let got2 = got.clone();
        mux.set_acceptor(move |_, frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: frame.flow,
                    got: got2.clone(),
                },
                flows: vec![frame.flow],
            })
        });
        let to = mux.local_addr().unwrap();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Longer than any frame: cut short by the kernel, never parsed.
        peer.send_to(&[0; MAX_FRAME_LEN + 100], to).unwrap();
        let mut sent = 0;
        for burst in 0..32u8 {
            // 16 frames of 221 B: a run longer than a pre-GRO `recv_buf`.
            let mut run = Vec::new();
            for seq in sent..sent + BURST {
                let frame = Frame {
                    flow: 1,
                    seq,
                    wire_size: 1200,
                    header: vec![burst; 200],
                };
                run.extend(frame.encode().unwrap());
            }
            let seg = run.len() / BURST as usize;
            assert_eq!(send_run(&peer, to, &run, seg, &mut 0).unwrap(), 16);
            sent += BURST;
            while mux.stats().datagrams_received < sent {
                let ready = wait([(&mux.socket, false)], Duration::from_secs(5)).unwrap();
                assert!(ready, "burst {burst} arrives");
                mux.step().unwrap();
            }
            if sent <= GRO_AFTER {
                assert_eq!(mux.stats().gro_datagrams, 0, "GRO off through {sent}");
            }
        }
        let st = mux.stats();
        assert!(st.gro_datagrams > 0, "{st:?}");
        assert!(st.recv_calls < st.datagrams_received, "{st:?}");
        assert_eq!((st.datagrams_received, *got.borrow()), (sent, sent));
        assert_eq!((st.datagrams_rejected, st.datagrams_unroutable), (1, 0));
    }

    fn tx(port: u16, len: usize) -> TxFrame {
        TxFrame {
            conn: ConnId(0),
            peer: SocketAddr::from(([127, 0, 0, 1], port)),
            len,
        }
    }

    /// The run lengths the flush cuts `frames` into.
    fn runs(mut frames: &[TxFrame]) -> Vec<usize> {
        let mut out = Vec::new();
        while !frames.is_empty() {
            let n = run_len(frames);
            out.push(n);
            frames = &frames[n..];
        }
        out
    }

    #[test]
    fn runs_split_on_peer_length_and_caps() {
        assert_eq!(run_len(&[]), 0);
        // A shorter frame ends a run; a longer one or another peer starts
        // the next.
        let mixed = [
            tx(1, 100),
            tx(1, 100),
            tx(1, 40),
            tx(1, 100),
            tx(2, 100),
            tx(2, 100),
            tx(1, 100),
            tx(1, 120),
            tx(1, 100),
        ];
        assert_eq!(runs(&mixed), vec![3, 1, 2, 1, 2]);
        // At most 64 segments per send.
        assert_eq!(runs(&vec![tx(1, 100); 130]), vec![64, 64, 2]);
        // At most 65 507 bytes per send: 32 frames of 2000 B.
        assert_eq!(runs(&vec![tx(1, 2000); 40]), vec![32, 8]);
    }

    #[test]
    fn duplicate_routes_are_rejected() {
        let mut mux: MuxDriver<Pinger> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        mux.add_connection(
            peer,
            vec![1, 2],
            Pinger {
                flow: 1,
                payload: vec![],
                reply: None,
            },
        )
        .unwrap();
        let err = mux
            .add_connection(
                peer,
                vec![2],
                Pinger {
                    flow: 2,
                    payload: vec![],
                    reply: None,
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        // Same flow to a *different* peer is a different route.
        let other: SocketAddr = "127.0.0.1:10".parse().unwrap();
        mux.add_connection(
            other,
            vec![2],
            Pinger {
                flow: 2,
                payload: vec![],
                reply: None,
            },
        )
        .unwrap();
        assert_eq!(mux.conn_count(), 2);
    }

    #[test]
    fn close_unroutes_and_cancels_timers() {
        struct Rearming;
        impl Endpoint for Rearming {
            fn on_start(&mut self, out: &mut Outbox) {
                out.set_timer_at(out.now + Duration::from_millis(5), 1);
            }
            fn on_timer(&mut self, out: &mut Outbox, token: u64) {
                out.set_timer_at(out.now + Duration::from_millis(5), token + 1);
            }
        }
        let mut mux: MuxDriver<Rearming> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let id = mux.add_connection(peer, vec![1], Rearming).unwrap();
        assert!(mux.poll_timeout().is_some());
        assert!(mux.close(id).is_some());
        assert_eq!(mux.poll_timeout(), None, "timers purged with the conn");
        assert_eq!(mux.route(peer, 1), None, "route removed");
        assert!(mux.close(id).is_none(), "double close is a no-op");
        // Late datagrams for the closed conn are unroutable, not fatal.
        let frame = Frame {
            flow: 1,
            seq: 1,
            wire_size: 64,
            header: vec![1],
        };
        let routed = mux
            .handle_datagram_from(peer, &frame.encode().unwrap())
            .unwrap();
        assert!(!routed);
        assert_eq!(mux.stats().datagrams_unroutable, 1);
    }

    #[test]
    fn reaper_removes_only_idle_connections() {
        let mut mux: MuxDriver<Pinger> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let a = mux
            .add_connection(
                peer,
                vec![1],
                Pinger {
                    flow: 1,
                    payload: vec![],
                    reply: None,
                },
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // Fresh activity on a second connection.
        let b = mux
            .add_connection(
                peer,
                vec![2],
                Pinger {
                    flow: 2,
                    payload: vec![],
                    reply: None,
                },
            )
            .unwrap();
        let reaped = mux.reap_stale(Duration::from_millis(25));
        assert_eq!(
            reaped.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a]
        );
        assert_eq!(mux.conn_count(), 1);
        assert!(mux.endpoint(b).is_some());
        assert_eq!(mux.stats().conns_reaped, 1);
    }

    #[test]
    fn acceptor_must_route_the_triggering_flow() {
        let mut mux: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        mux.set_acceptor(|_, _frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: 99,
                    got: Rc::new(RefCell::new(0)),
                },
                flows: vec![99], // bug: does not include the triggering flow
            })
        });
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let frame = Frame {
            flow: 7,
            seq: 1,
            wire_size: 64,
            header: vec![],
        };
        let err = mux
            .handle_datagram_from(peer, &frame.encode().unwrap())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn garbage_and_unroutable_datagrams_are_counted_not_fatal() {
        let mut mux: MuxDriver<Echo> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert!(!mux.handle_datagram_from(peer, b"not a frame").unwrap());
        assert_eq!(mux.stats().datagrams_rejected, 1);
        let frame = Frame {
            flow: 3,
            seq: 1,
            wire_size: 64,
            header: vec![],
        };
        // No acceptor installed: valid frame, nowhere to go.
        assert!(!mux
            .handle_datagram_from(peer, &frame.encode().unwrap())
            .unwrap());
        assert_eq!(mux.stats().datagrams_unroutable, 1);
    }

    /// Token of the timer [`Unframable`] arms *behind* its bad transmit.
    const ORPHAN: u64 = 99;

    /// Arms an already-due timer on start (`add_connection` runs `on_start`
    /// at once, so the failure has to come from a later callback); when it
    /// fires, emits a transmit no frame can carry, then one more timer.
    struct Unframable;
    impl Endpoint for Unframable {
        fn on_start(&mut self, out: &mut Outbox) {
            out.set_timer_at(out.now, 1);
        }
        fn on_timer(&mut self, out: &mut Outbox, _token: u64) {
            out.send_new(0, 0, 64, vec![0; MAX_FRAME_LEN]);
            out.set_timer_at(out.now, ORPHAN);
        }
    }

    /// Arms three timers out of deadline order, records what fires.
    struct TimerBox {
        fired: Rc<RefCell<Vec<u64>>>,
    }
    impl Endpoint for TimerBox {
        fn on_start(&mut self, out: &mut Outbox) {
            out.set_timer_at(out.now + Duration::from_millis(30), 3);
            out.set_timer_at(out.now + Duration::from_millis(10), 1);
            out.set_timer_at(out.now + Duration::from_millis(20), 2);
        }
        fn on_timer(&mut self, _out: &mut Outbox, token: u64) {
            self.fired.borrow_mut().push(token);
        }
    }

    #[test]
    fn failed_flush_does_not_leak_commands_into_the_next_connection() {
        let mut mux: MuxDriver<Box<dyn Endpoint>> = MuxDriver::bind("127.0.0.1:0").unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        mux.add_connection(peer, vec![1], Box::new(Unframable))
            .unwrap();
        let err = mux
            .drive_once(Duration::from_millis(1))
            .expect_err("unframable transmit must surface as an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(mux.timer_count(), 0, "the failed callback armed nothing");

        // The next connection's first drain must see only its own commands:
        // exactly its three timers armed, fired in deadline order whatever
        // the arming order, and never the first connection's orphan token.
        let fired = Rc::new(RefCell::new(Vec::new()));
        mux.add_connection(
            peer,
            vec![2],
            Box::new(TimerBox {
                fired: fired.clone(),
            }),
        )
        .unwrap();
        assert_eq!(mux.timer_count(), 3, "no orphan armed under the new conn");
        let t0 = std::time::Instant::now();
        while fired.borrow().len() < 3 && t0.elapsed() < Duration::from_secs(5) {
            mux.drive_once(Duration::from_millis(5)).unwrap();
        }
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
        assert_eq!(mux.stats().timers_fired, 4);
    }

    #[test]
    fn step_mux_pair_annotates_socket_errors_by_side() {
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut bad: MuxDriver<Unframable> = MuxDriver::bind("127.0.0.1:0").unwrap();
        bad.add_connection(peer, vec![1], Unframable).unwrap();
        let mut idle: MuxDriver<Unframable> = MuxDriver::bind("127.0.0.1:0").unwrap();

        // The hard failure aborts the step at once, names the side that
        // raised it (argument order) and keeps its kind matchable.
        let err = step_mux_pair(&mut bad, &mut idle, Duration::from_millis(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("a side"), "{err}");

        let mut bad: MuxDriver<Unframable> = MuxDriver::bind("127.0.0.1:0").unwrap();
        bad.add_connection(peer, vec![1], Unframable).unwrap();
        let err = step_mux_pair(&mut idle, &mut bad, Duration::from_millis(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("b side"), "{err}");
    }

    #[test]
    fn connection_cap_stops_accepting() {
        let cfg = MuxConfig { max_conns: 1 };
        let mut mux: MuxDriver<Echo> = MuxDriver::bind_with("127.0.0.1:0", cfg).unwrap();
        mux.set_acceptor(|_, frame| {
            Some(Accepted {
                endpoint: Echo {
                    reply_flow: frame.flow,
                    got: Rc::new(RefCell::new(0)),
                },
                flows: vec![frame.flow],
            })
        });
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        for flow in [1u32, 2u32] {
            let frame = Frame {
                flow,
                seq: 1,
                wire_size: 64,
                header: vec![],
            };
            mux.handle_datagram_from(peer, &frame.encode().unwrap())
                .unwrap();
        }
        assert_eq!(mux.conn_count(), 1, "second accept blocked by the cap");
        assert_eq!(mux.stats().datagrams_unroutable, 1);
    }
}
