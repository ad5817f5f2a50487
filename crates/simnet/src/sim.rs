//! The discrete-event engine: topology, routing, agents and the event loop.
//!
//! # Model
//!
//! A network is a set of **nodes** (hosts or routers) connected by simplex
//! [`Link`]s. Hosts run an [`Agent`] — a sans-io state machine that reacts
//! to packet arrivals and timers and emits send/timer commands through a
//! [`Ctx`]. Routers forward using static shortest-path routes computed at
//! build time.
//!
//! Determinism: events execute in `(time, insertion sequence)` order and all
//! randomness flows from per-component [`DetRng`] streams derived from the
//! master seed, so a simulation is a pure function of (topology, agents,
//! seed) — the property test in `tests/determinism.rs` checks exactly this.
//!
//! # Scaling design
//!
//! The hot path is built for 10^5-flow runs:
//!
//! * Packets live in a [`PacketArena`]; events and links pass 4-byte
//!   [`PacketId`]s, and a link's queue is a FIFO threaded through the
//!   arena slots of the packets it holds, so no queue owns storage. A
//!   packet's slot is recycled at delivery, drop, or routing failure.
//! * Headers are lent both ways, never handed over: [`Ctx::send_new`]
//!   borrows the agent's encoded bytes and stages them in a byte buffer
//!   pooled with the callback's command buffer, injection copies them into
//!   the slot's place in the arena's one header slab, and delivery lends
//!   the agent a [`Packet`] whose header borrows that slab. The agent keeps
//!   its own buffer for the next packet, so a warmed-up send allocates
//!   nothing.
//! * The scheduler is a [`CalendarQueue`] — amortized O(1) push/pop instead
//!   of an O(log n) global heap — popping in exactly the same `(time, seq)`
//!   order, so fixed-seed outputs are byte-identical to the old heap.
//! * Routes use pendant compression: hosts that hang off a single router
//!   (every host in a dumbbell) share their router's routing row, so route
//!   construction and storage are near-linear in nodes + links instead of
//!   the O(V·E) per destination a dense table costs. The compression is
//!   exact — `routes_match_reference_bfs` checks it against the plain
//!   per-destination BFS on randomized topologies.
//!
//! # Timers
//!
//! Timers are fire-and-forget: `set_timer_in(d, token)` schedules a wakeup
//! that cannot be cancelled. Agents that re-arm timers should carry a
//! generation counter in their state and ignore stale tokens; the transports
//! built on this simulator all follow that pattern (the QTP endpoints share
//! it as `qtp_core::driver::TimerGens`, which encodes `kind | (gen << 2)`
//! tokens and rejects superseded generations).
//!
//! An agent may also be woken from outside the event loop: code that runs
//! between [`Simulator::run_until`] slices (an application writing to a
//! connection) holds a [`Waker`] from [`Simulator::waker`], and the next
//! `run_until` delivers each wake asked for as a timer of the woken agent
//! due at the instant the last slice stopped.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use std::time::Duration;

use crate::arena::{PacketArena, PacketId};
use crate::calendar::CalendarQueue;
use crate::link::{Link, LinkConfig};
use crate::packet::{Color, FlowId, LinkId, NodeId, Packet};
use crate::queue::DropReason;
use crate::rng::DetRng;
use crate::stats::Stats;
use crate::time::SimTime;

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Endpoint: runs an agent; receives packets addressed to it.
    Host,
    /// Interior: forwards packets toward their destination.
    Router,
}

/// A node in the topology.
#[derive(Debug)]
pub struct Node {
    /// Own id (index into the simulator's node table).
    pub id: NodeId,
    /// Host or router.
    pub kind: NodeKind,
}

/// Static routing tables, stored compressed.
///
/// A **pendant** is a node all of whose links (in and out) connect to one
/// neighbor, its *representative*. Pendants never transit traffic — any
/// walk through one goes representative → pendant → representative and can
/// be shortened — so shortest-path routing only needs real tables for the
/// **core** (every non-pendant node):
///
/// * `route(n, pendant d)` = `route(n, rep(d))`, and at `rep(d)` the next
///   hop is the lowest-id direct link to `d`.
/// * `route(pendant h, t)` = `h`'s lowest-id uplink, iff `t` is reachable
///   from `rep(h)`.
///
/// When two nodes are *only* connected to each other, each qualifies as the
/// other's pendant; the higher id becomes the pendant so the pair still has
/// a core member. In a dumbbell with 10^5 host pairs the core is just the
/// two routers: building routes is one scan of the links plus a BFS over a
/// 2-node core graph, versus the old dense table's O(V·E) per destination.
///
/// Tie-breaking matches the reference BFS exactly: among links leaving `n`
/// toward any node one hop closer to the destination, the lowest link id
/// wins (checked property-style in the tests).
pub(crate) struct Routes {
    /// Core representative per node (self for core nodes).
    rep: Vec<NodeId>,
    /// Pendant → lowest-id link to its representative.
    uplink: Vec<Option<LinkId>>,
    /// Pendant → lowest-id link *from* its representative.
    downlink: Vec<Option<LinkId>>,
    /// Dense index into the core tables (`u32::MAX` for pendants).
    core_index: Vec<u32>,
    core_count: usize,
    /// `core_next[i * core_count + j]`: next link from core `i` toward
    /// core `j` (`None` when unreachable or `i == j`).
    core_next: Vec<Option<LinkId>>,
}

impl Routes {
    fn build(n: usize, links: &[(NodeId, NodeId, LinkConfig)]) -> Routes {
        // Pass 1: one-distinct-neighbor summary per node.
        let mut nbr: Vec<Option<NodeId>> = vec![None; n];
        let mut multi = vec![false; n];
        let note =
            |x: usize, y: usize, nbr: &mut Vec<Option<NodeId>>, multi: &mut Vec<bool>| match nbr[x]
            {
                None => nbr[x] = Some(y),
                Some(p) if p != y => multi[x] = true,
                _ => {}
            };
        for &(a, b, _) in links {
            note(a, b, &mut nbr, &mut multi);
            note(b, a, &mut nbr, &mut multi);
        }
        // Pass 2: classify. For a mutually-exclusive pair (two nodes linked
        // only to each other) the higher id is the pendant.
        let mut rep: Vec<NodeId> = (0..n).collect();
        for h in 0..n {
            if multi[h] {
                continue;
            }
            let Some(r) = nbr[h] else { continue };
            let mutual = !multi[r] && nbr[r] == Some(h);
            if !mutual || h > r {
                rep[h] = r;
            }
        }
        // Pass 3: pendant up/down links and the core node list.
        let mut uplink: Vec<Option<LinkId>> = vec![None; n];
        let mut downlink: Vec<Option<LinkId>> = vec![None; n];
        for (id, &(a, b, _)) in links.iter().enumerate() {
            if rep[a] != a && b == rep[a] && uplink[a].is_none() {
                uplink[a] = Some(id); // first hit is the lowest id
            }
            if rep[b] != b && a == rep[b] && downlink[b].is_none() {
                downlink[b] = Some(id);
            }
        }
        let core: Vec<NodeId> = (0..n).filter(|&x| rep[x] == x).collect();
        let mut core_index = vec![u32::MAX; n];
        for (i, &c) in core.iter().enumerate() {
            core_index[c] = i as u32;
        }
        let c = core.len();
        // Core-only adjacency, forward (for next-hop selection) and reversed
        // (for the per-destination BFS).
        let mut cadj: Vec<Vec<(LinkId, u32)>> = vec![Vec::new(); c];
        let mut radj: Vec<Vec<u32>> = vec![Vec::new(); c];
        for (id, &(a, b, _)) in links.iter().enumerate() {
            if rep[a] == a && rep[b] == b {
                let (ia, ib) = (core_index[a], core_index[b]);
                cadj[ia as usize].push((id, ib));
                radj[ib as usize].push(ia);
            }
        }
        // BFS from each core destination over reversed edges, then pick the
        // lowest link id among links to any predecessor-level node — the
        // same rule the reference per-destination BFS applies.
        let mut core_next: Vec<Option<LinkId>> = vec![None; c * c];
        let mut dist = vec![u32::MAX; c];
        let mut frontier = std::collections::VecDeque::new();
        for j in 0..c {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[j] = 0;
            frontier.clear();
            frontier.push_back(j as u32);
            while let Some(v) = frontier.pop_front() {
                for &u in &radj[v as usize] {
                    if dist[u as usize] == u32::MAX {
                        dist[u as usize] = dist[v as usize] + 1;
                        frontier.push_back(u);
                    }
                }
            }
            for (i, out) in cadj.iter().enumerate() {
                if i == j || dist[i] == u32::MAX {
                    continue;
                }
                let hop = out
                    .iter()
                    .filter(|&&(_, b)| dist[b as usize] == dist[i] - 1)
                    .map(|&(id, _)| id)
                    .min();
                core_next[i * c + j] = hop;
            }
        }
        Routes {
            rep,
            uplink,
            downlink,
            core_index,
            core_count: c,
            core_next,
        }
    }

    #[inline]
    fn core_hop(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let i = self.core_index[a] as usize;
        let j = self.core_index[b] as usize;
        self.core_next[i * self.core_count + j]
    }

    /// The outgoing link `n` uses toward `dst` (`n != dst`), if reachable.
    #[inline]
    pub(crate) fn next_hop(&self, n: NodeId, dst: NodeId) -> Option<LinkId> {
        debug_assert_ne!(n, dst);
        let rd = self.rep[dst];
        let rn = self.rep[n];
        if rn != n {
            // Pendant: the only exit is the uplink, valid iff dst is
            // actually reachable from the representative.
            let up = self.uplink[n]?;
            if dst == rn {
                return Some(up);
            }
            if dst != rd && self.downlink[dst].is_none() {
                return None;
            }
            if rd != rn && self.core_hop(rn, rd).is_none() {
                return None;
            }
            return Some(up);
        }
        if dst == rd {
            // Core to core.
            return self.core_hop(n, dst);
        }
        // Core to pendant: descend at the destination's representative.
        let down = self.downlink[dst]?;
        if rd == n {
            return Some(down);
        }
        self.core_hop(n, rd)
    }
}

/// The execution context handed to agents. Commands are buffered and applied
/// by the simulator after the callback returns.
pub struct Ctx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The node this agent runs on.
    pub node: NodeId,
    /// Measurement sink (agents report application-level delivery here).
    pub stats: &'a mut Stats,
    /// This node's private random stream.
    pub rng: &'a mut DetRng,
    uid_counter: &'a mut u64,
    buf: CmdBuf,
}

/// One callback's buffered commands, with the header bytes of its sends
/// staged back to back. The simulator pools these, so once warm neither
/// vector allocates.
#[derive(Default)]
struct CmdBuf {
    cmds: Vec<Cmd>,
    headers: Vec<u8>,
}

enum Cmd {
    /// A packet to inject, its header held as where its bytes sit in
    /// [`CmdBuf::headers`].
    Send(Packet<Range<usize>>),
    Timer {
        at: SimTime,
        token: u64,
    },
}

impl<'a> Ctx<'a> {
    /// Build and send a packet from this node.
    ///
    /// `wire_size` is the total on-wire size (transport header + payload);
    /// `header` is the encoded transport header. The bytes are copied, so
    /// the caller keeps its buffer to encode the next header into.
    pub fn send_new(&mut self, flow: FlowId, dst: NodeId, wire_size: u32, header: &[u8]) {
        *self.uid_counter += 1;
        let headers = &mut self.buf.headers;
        let start = headers.len();
        headers.extend_from_slice(header);
        self.buf.cmds.push(Cmd::Send(Packet {
            uid: *self.uid_counter,
            flow,
            src: self.node,
            dst,
            wire_size,
            color: Color::Green,
            created_at: self.now,
            header: start..headers.len(),
        }));
    }

    /// Schedule a wakeup at an absolute time.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        self.buf.cmds.push(Cmd::Timer { at, token });
    }

    /// Schedule a wakeup `d` from now.
    pub fn set_timer_in(&mut self, d: Duration, token: u64) {
        let at = self.now + d;
        self.buf.cmds.push(Cmd::Timer { at, token });
    }
}

/// A protocol endpoint or traffic source attached to a host node.
///
/// All methods receive the [`Ctx`] for the node at the current instant.
pub trait Agent {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx) {}
    /// Called when a packet addressed to this node arrives. The packet and
    /// its header are borrowed from the simulator's arena; copy out what
    /// must outlive the callback.
    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: &Packet<&[u8]>) {}
    /// Called when a timer set by this agent fires.
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}
}

/// A handle that wakes one agent or endpoint from outside its driver's
/// callbacks, and the queue such wakes wait in.
///
/// [`Waker::wake`] queues `(key, tag | token)`; the driver that made the
/// handle takes each wake in the order asked ([`Waker::take`]) and delivers
/// `token | tag` to whatever it keys by `key` as a timer due at once — the
/// simulator keys agents by node, at the start of its next
/// [`Simulator::run_until`]. Every handle [`Waker::to`] makes shares its
/// driver's one queue, so a handle costs no allocation.
#[derive(Clone, Debug, Default)]
pub struct Waker {
    queue: Rc<RefCell<VecDeque<(u64, u64)>>>,
    key: u64,
    tag: u64,
}

impl Waker {
    /// A handle on the same queue that wakes `key`, OR-ing `tag` into every
    /// token (a driver's own token namespace; zero for most).
    pub fn to(&self, key: u64, tag: u64) -> Waker {
        Waker {
            queue: Rc::clone(&self.queue),
            key,
            tag,
        }
    }

    /// Ask the driver to deliver `token` to this handle's key at once.
    pub fn wake(&self, token: u64) {
        self.queue
            .borrow_mut()
            .push_back((self.key, self.tag | token));
    }

    /// The oldest wake not yet taken, as `(key, tagged token)`.
    pub fn take(&self) -> Option<(u64, u64)> {
        self.queue.borrow_mut().pop_front()
    }
}

/// Scheduled work. Compact by design: packets are referenced by arena id,
/// never embedded, so the scheduler moves fixed 24-ish-byte payloads.
#[derive(Debug)]
enum EventKind {
    Arrival { node: NodeId, pkt: PacketId },
    TxComplete { link: LinkId },
    Timer { node: NodeId, token: u64 },
    Sample,
}

/// Builds a topology, then turns it into a runnable [`Simulator`].
pub struct NetworkBuilder {
    nodes: Vec<NodeKind>,
    links: Vec<(NodeId, NodeId, LinkConfig)>,
}

impl NetworkBuilder {
    pub fn new() -> Self {
        NetworkBuilder {
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Add an endpoint node.
    pub fn host(&mut self) -> NodeId {
        self.nodes.push(NodeKind::Host);
        self.nodes.len() - 1
    }

    /// Add a forwarding node.
    pub fn router(&mut self) -> NodeId {
        self.nodes.push(NodeKind::Router);
        self.nodes.len() - 1
    }

    /// Add a simplex link from `a` to `b`. Returns its id.
    pub fn simplex_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "unknown node");
        assert_ne!(a, b, "self-links are not allowed");
        self.links.push((a, b, cfg));
        self.links.len() - 1
    }

    /// Add a duplex link (two simplex links with the same configuration).
    /// Returns `(a→b, b→a)` link ids.
    pub fn duplex_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        let ab = self.simplex_link(a, b, cfg.clone());
        let ba = self.simplex_link(b, a, cfg);
        (ab, ba)
    }

    /// Add an asymmetric duplex link: different configurations per
    /// direction (e.g. a fast forward path over a slow return channel).
    /// Returns `(a→b, b→a)` link ids.
    pub fn duplex_link_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        fwd: LinkConfig,
        rev: LinkConfig,
    ) -> (LinkId, LinkId) {
        let ab = self.simplex_link(a, b, fwd);
        let ba = self.simplex_link(b, a, rev);
        (ab, ba)
    }

    /// Finalize: compute routes and produce a simulator.
    ///
    /// Routes are shortest-path by hop count, with the lowest-numbered link
    /// breaking ties, so routing is deterministic. The route tables stay
    /// near-linear in the topology size (see `Routes` in this module).
    pub fn build(self, master_seed: u64) -> Simulator {
        let n = self.nodes.len();
        let routes = Routes::build(n, &self.links);
        let nodes: Vec<Node> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, kind)| Node { id, kind: *kind })
            .collect();
        let mut stats = Stats::new();
        let links: Vec<Link> = self
            .links
            .iter()
            .enumerate()
            .map(|(id, (a, b, cfg))| {
                stats.register_link();
                Link::new(id, *a, *b, cfg, master_seed)
            })
            .collect();
        let node_rngs = (0..n)
            .map(|i| DetRng::stream(master_seed, 0x40DE ^ i as u64))
            .collect();
        let agents = (0..n).map(|_| None).collect();
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            events: CalendarQueue::new(),
            events_processed: 0,
            arena: PacketArena::new(),
            cmd_pool: Vec::new(),
            routes,
            nodes,
            links,
            agents,
            node_rngs,
            stats,
            uid_counter: 0,
            sample_interval: None,
            started: false,
            wakes: Waker::default(),
        }
    }
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    events: CalendarQueue<EventKind>,
    events_processed: u64,
    arena: PacketArena,
    /// Recycled command buffers for agent callbacks (a stack, so nested
    /// callbacks — e.g. loopback delivery during command application — each
    /// get their own buffer without allocating).
    cmd_pool: Vec<CmdBuf>,
    routes: Routes,
    nodes: Vec<Node>,
    links: Vec<Link>,
    agents: Vec<Option<Box<dyn Agent>>>,
    node_rngs: Vec<DetRng>,
    stats: Stats,
    uid_counter: u64,
    sample_interval: Option<Duration>,
    started: bool,
    /// Wakes asked for between `run_until` slices, keyed by node.
    wakes: Waker,
}

impl Simulator {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The measurement sink.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Total events dispatched so far — the denominator of the events/s
    /// throughput metric the scaling benchmarks report.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of concurrently live packets (arena slots created).
    /// A deterministic memory-footprint proxy.
    pub fn packet_pool_high_water(&self) -> usize {
        self.arena.capacity()
    }

    /// A handle on this simulator's wake queue; [`Waker::to`] it with a
    /// node id (and the token tag its agent expects) to wake that agent.
    pub fn waker(&self) -> Waker {
        self.wakes.clone()
    }

    /// Register a flow for statistics; returns the id packets must carry.
    pub fn register_flow(&mut self) -> FlowId {
        self.stats.register_flow()
    }

    /// Attach the agent that runs on `node`. Replaces any previous agent.
    pub fn attach_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) {
        assert_eq!(
            self.nodes[node].kind,
            NodeKind::Host,
            "agents attach to hosts"
        );
        self.agents[node] = Some(agent);
    }

    /// Install a per-flow traffic conditioner at a link's ingress.
    pub fn set_marker(
        &mut self,
        link: LinkId,
        flow: FlowId,
        marker: crate::marker::TokenBucketMarker,
    ) {
        self.links[link].set_marker(flow, marker);
    }

    /// Enable periodic statistics sampling (throughput series).
    pub fn set_sample_interval(&mut self, interval: Duration) {
        self.sample_interval = Some(interval);
        self.stats.sample_interval = Some(interval);
    }

    /// Direct read access to a link (queue occupancy etc.).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id]
    }

    /// Change a link's serialization rate mid-run (mobility handover: the
    /// path under a connection changes character at a switch instant).
    /// Takes effect from the next packet serialized; a packet already on
    /// the wire keeps its original timing.
    pub fn set_link_rate(&mut self, id: LinkId, rate: crate::time::Rate) {
        self.links[id].rate = rate;
    }

    /// Change a link's propagation delay mid-run. Packets already in
    /// propagation keep their scheduled arrival.
    pub fn set_link_delay(&mut self, id: LinkId, delay: Duration) {
        self.links[id].delay = delay;
    }

    /// Replace a link's loss model mid-run (e.g. handover from a clean to
    /// a bursty-loss path).
    pub fn set_link_loss(&mut self, id: LinkId, loss: crate::loss::LossModel) {
        self.links[id].loss = loss;
    }

    /// Replace a link's path impairment model mid-run.
    pub fn set_link_path(&mut self, id: LinkId, path: crate::path::PathModel) {
        self.links[id].path = path;
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.events.push(at.as_nanos(), self.seq, kind);
    }

    /// Invoke one agent callback with a fresh `Ctx`, then apply its commands.
    fn with_agent<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut Ctx),
    {
        let Some(mut agent) = self.agents[node].take() else {
            return;
        };
        let mut ctx = Ctx {
            now: self.now,
            node,
            stats: &mut self.stats,
            rng: &mut self.node_rngs[node],
            uid_counter: &mut self.uid_counter,
            buf: self.cmd_pool.pop().unwrap_or_default(),
        };
        f(agent.as_mut(), &mut ctx);
        let buf = ctx.buf;
        self.agents[node] = Some(agent);
        self.apply_cmds(node, buf);
    }

    /// Apply buffered commands, then return the buffer to the pool.
    fn apply_cmds(&mut self, node: NodeId, mut buf: CmdBuf) {
        for cmd in buf.cmds.drain(..) {
            match cmd {
                Cmd::Send(pkt) => {
                    let header = &buf.headers[pkt.header.clone()];
                    self.inject(node, pkt.with_header(()), header)
                }
                Cmd::Timer { at, token } => self.push_event(at, EventKind::Timer { node, token }),
            }
        }
        buf.headers.clear();
        self.cmd_pool.push(buf);
    }

    /// A source node hands a packet to the network: its header bytes are
    /// copied into the arena's header slab.
    fn inject(&mut self, node: NodeId, pkt: Packet<()>, header: &[u8]) {
        self.stats.on_send(&pkt);
        let id = self.arena.insert(pkt, header);
        self.forward(node, id);
    }

    /// Route a packet from `node` one hop toward its destination.
    fn forward(&mut self, node: NodeId, id: PacketId) {
        let dst = self.arena.get(id).dst;
        if dst == node {
            // Degenerate loopback: deliver immediately.
            self.deliver(node, id);
            return;
        }
        match self.routes.next_hop(node, dst) {
            Some(link) => self.transmit_on(link, id),
            None => {
                self.stats.on_no_route(self.arena.get(id).flow);
                self.arena.release(id);
            }
        }
    }

    /// Offer a packet to a link's conditioner + queue, and kick the
    /// serializer if idle.
    fn transmit_on(&mut self, link_id: LinkId, id: PacketId) {
        let now = self.now;
        let link = &mut self.links[link_id];
        let pkt = self.arena.get_mut(id);
        if let Some(marker) = link.markers.get_mut(pkt.flow) {
            marker.mark(now, pkt);
        }
        let (color, wire_size) = (pkt.color, pkt.wire_size);
        match link.queue.enqueue(now, id, &mut self.arena, &mut link.rng) {
            Err(reason) => {
                self.stats.on_drop(link_id, &self.arena.get(id), reason);
                self.arena.release(id);
            }
            Ok(()) => {
                self.stats.on_enqueue(link_id, color, wire_size);
                if !self.links[link_id].transmitting {
                    self.start_tx(link_id);
                }
            }
        }
    }

    /// Begin serializing the next queued packet, if any.
    fn start_tx(&mut self, link_id: LinkId) {
        let now = self.now;
        let link = &mut self.links[link_id];
        let Some(id) = link.queue.dequeue(now, &mut self.arena) else {
            link.transmitting = false;
            return;
        };
        let tx = link.rate.tx_time(self.arena.get(id).wire_size);
        link.transmitting = true;
        link.in_flight = Some(id);
        self.push_event(now + tx, EventKind::TxComplete { link: link_id });
    }

    /// Serialization finished: launch the packet into propagation (unless
    /// the loss model eats it) and start the next transmission.
    ///
    /// Path impairments run only for active models: a no-op [`PathModel`]
    /// makes zero draws and schedules exactly the unimpaired arrival, so
    /// fixed-seed outputs of existing scenarios stay byte-identical.
    fn on_tx_complete(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id];
        let id = link
            .in_flight
            .take()
            .expect("TxComplete without in-flight packet");
        let lost = link.loss.is_lost(&mut link.rng);
        // (extra propagation delay, Some(extra) when a duplicate spawns).
        let (extra, dup) = if lost || link.path.is_noop() {
            (Duration::ZERO, None)
        } else {
            link.path.apply(&mut link.path_rng)
        };
        let delay = link.delay;
        let to = link.to;
        self.stats.on_transmit(link_id);
        if lost {
            self.stats
                .on_drop(link_id, &self.arena.get(id), DropReason::LinkLoss);
            self.arena.release(id);
        } else {
            self.push_event(
                self.now + delay + extra,
                EventKind::Arrival { node: to, pkt: id },
            );
            if let Some(dup_extra) = dup {
                // A wire-level duplicate: same uid and headers, its own
                // jitter draw. The transport above dedups by sequence.
                let copy_id = self.arena.duplicate(id);
                self.push_event(
                    self.now + delay + dup_extra,
                    EventKind::Arrival {
                        node: to,
                        pkt: copy_id,
                    },
                );
            }
        }
        self.start_tx(link_id);
    }

    /// A packet arrived at `node` after propagation.
    fn on_arrival(&mut self, node: NodeId, id: PacketId) {
        if self.arena.get(id).dst == node {
            self.deliver(node, id);
        } else {
            self.forward(node, id);
        }
    }

    /// Hand a packet to the agent on its destination node, then release it.
    ///
    /// Open-coded rather than going through [`Simulator::with_agent`] so the
    /// agent can borrow the packet from the arena while the `Ctx` borrows
    /// the (disjoint) stats/rng fields.
    fn deliver(&mut self, node: NodeId, id: PacketId) {
        self.stats.on_arrive(self.now, &self.arena.get(id));
        let Some(mut agent) = self.agents[node].take() else {
            self.arena.release(id);
            return;
        };
        let mut ctx = Ctx {
            now: self.now,
            node,
            stats: &mut self.stats,
            rng: &mut self.node_rngs[node],
            uid_counter: &mut self.uid_counter,
            buf: self.cmd_pool.pop().unwrap_or_default(),
        };
        agent.on_packet(&mut ctx, &self.arena.get(id));
        let buf = ctx.buf;
        self.arena.release(id);
        self.agents[node] = Some(agent);
        self.apply_cmds(node, buf);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if let Some(interval) = self.sample_interval {
            self.push_event(SimTime::ZERO + interval, EventKind::Sample);
        }
        for node in 0..self.nodes.len() {
            self.with_agent(node, |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Run until virtual time `t` (inclusive of events at `t`). Wakes asked
    /// for since the last call become timers due now, behind every event
    /// already due now.
    pub fn run_until(&mut self, t: SimTime) {
        self.start_if_needed();
        while let Some((node, token)) = self.wakes.take() {
            let node = node as NodeId;
            self.push_event(self.now, EventKind::Timer { node, token });
        }
        while let Some((at_ns, seq, kind)) = self.events.pop() {
            let at = SimTime::from_nanos(at_ns);
            if at > t {
                // Past the horizon: put it back under its original sequence
                // number so a later run_until resumes in exact order.
                self.events.push(at_ns, seq, kind);
                break;
            }
            debug_assert!(at >= self.now, "event time went backwards");
            self.now = at;
            self.events_processed += 1;
            match kind {
                EventKind::Arrival { node, pkt } => self.on_arrival(node, pkt),
                EventKind::TxComplete { link } => self.on_tx_complete(link),
                EventKind::Timer { node, token } => {
                    self.with_agent(node, |agent, ctx| agent.on_timer(ctx, token))
                }
                EventKind::Sample => {
                    self.stats.sample_tick();
                    if let Some(interval) = self.sample_interval {
                        let at = self.now + interval;
                        self.push_event(at, EventKind::Sample);
                    }
                }
            }
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Rate;

    /// Sends `n` packets of `size` bytes, `gap` apart, starting at t=0.
    struct Blaster {
        flow: FlowId,
        dst: NodeId,
        n: u32,
        size: u32,
        gap: Duration,
        sent: u32,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_in(Duration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            if self.sent < self.n {
                ctx.send_new(self.flow, self.dst, self.size, &[]);
                self.sent += 1;
                ctx.set_timer_in(self.gap, 0);
            }
        }
    }

    /// Records arrival times.
    struct Recorder {
        arrivals: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
    }

    impl Agent for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx, _pkt: &Packet<&[u8]>) {
            self.arrivals.borrow_mut().push(ctx.now);
        }
    }

    fn two_hosts(rate: Rate, delay: Duration) -> (Simulator, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let c = b.host();
        b.duplex_link(a, c, LinkConfig::new(rate, delay));
        (b.build(1), a, c)
    }

    #[test]
    fn single_packet_latency_is_tx_plus_prop() {
        let (mut sim, a, c) = two_hosts(Rate::from_mbps(10), Duration::from_millis(5));
        let flow = sim.register_flow();
        let arrivals = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 1,
                size: 1250,
                gap: Duration::from_millis(1),
                sent: 0,
            }),
        );
        sim.attach_agent(
            c,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        // 1250 B at 10 Mbit/s = 1 ms tx, + 5 ms prop = 6 ms.
        assert_eq!(arrivals.borrow().as_slice(), &[SimTime::from_millis(6)]);
        assert_eq!(sim.stats().flow(flow).pkts_arrived, 1);
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn serialization_spaces_back_to_back_packets() {
        let (mut sim, a, c) = two_hosts(Rate::from_mbps(10), Duration::from_millis(5));
        let flow = sim.register_flow();
        let arrivals = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 3,
                size: 1250,
                gap: Duration::ZERO, // all at t=0: queue at the link
                sent: 0,
            }),
        );
        sim.attach_agent(
            c,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            arrivals.borrow().as_slice(),
            &[
                SimTime::from_millis(6),
                SimTime::from_millis(7),
                SimTime::from_millis(8)
            ],
            "packets serialize 1 ms apart"
        );
    }

    #[test]
    fn router_forwards_between_hosts() {
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let r = b.router();
        let c = b.host();
        b.duplex_link(
            a,
            r,
            LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(1)),
        );
        b.duplex_link(
            r,
            c,
            LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(1)),
        );
        let mut sim = b.build(7);
        let flow = sim.register_flow();
        let arrivals = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 1,
                size: 1250,
                gap: Duration::ZERO,
                sent: 0,
            }),
        );
        sim.attach_agent(
            c,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        // two hops: 2 * (1 ms tx + 1 ms prop) = 4 ms.
        assert_eq!(arrivals.borrow().as_slice(), &[SimTime::from_millis(4)]);
    }

    #[test]
    fn droptail_queue_overflows_under_burst() {
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let c = b.host();
        b.simplex_link(
            a,
            c,
            LinkConfig::new(Rate::from_kbps(100), Duration::from_millis(1))
                .with_queue(crate::queue::QueueConfig::DropTailPkts(5)),
        );
        let mut sim = b.build(3);
        let flow = sim.register_flow();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 50,
                size: 1250,
                gap: Duration::ZERO,
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(30));
        let f = sim.stats().flow(flow);
        // 1 in flight + 5 queued survive the burst of 50.
        assert_eq!(f.pkts_arrived, 6);
        assert_eq!(f.pkts_dropped, 44);
        // Every packet's arena slot was released (delivered or dropped):
        // the pool high-water mark tracks peak concurrency, not volume.
        assert!(sim.packet_pool_high_water() <= 7);
    }

    #[test]
    fn link_loss_model_drops_packets() {
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let c = b.host();
        b.simplex_link(
            a,
            c,
            LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(1))
                .with_loss(crate::loss::LossModel::periodic(2)),
        );
        let mut sim = b.build(3);
        let flow = sim.register_flow();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 10,
                size: 100,
                gap: Duration::from_millis(10),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let f = sim.stats().flow(flow);
        assert_eq!(f.pkts_arrived, 5);
        assert_eq!(f.pkts_dropped, 5);
    }

    #[test]
    fn sampling_produces_series() {
        let (mut sim, a, c) = two_hosts(Rate::from_mbps(10), Duration::from_millis(1));
        let flow = sim.register_flow();
        sim.set_sample_interval(Duration::from_millis(100));
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 100,
                size: 1250,
                gap: Duration::from_millis(10),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        let series = &sim.stats().flow(flow).arrive_series;
        assert_eq!(series.len(), 20);
        // Flow sends 1250 B per 10 ms for 1 s -> 12_500 B per 100 ms window.
        assert!(series[..9].iter().all(|&b| (12_000..=13_000).contains(&b)));
        assert!(
            series[12..].iter().all(|&b| b == 0),
            "source stopped at 1 s"
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        fn run(seed: u64) -> (u64, u64) {
            let mut b = NetworkBuilder::new();
            let a = b.host();
            let c = b.host();
            b.simplex_link(
                a,
                c,
                LinkConfig::new(Rate::from_mbps(1), Duration::from_millis(1))
                    .with_loss(crate::loss::LossModel::bernoulli(0.3)),
            );
            let mut sim = b.build(seed);
            let flow = sim.register_flow();
            sim.attach_agent(
                a,
                Box::new(Blaster {
                    flow,
                    dst: c,
                    n: 1000,
                    size: 500,
                    gap: Duration::from_millis(1),
                    sent: 0,
                }),
            );
            sim.run_until(SimTime::from_secs(5));
            let f = sim.stats().flow(flow);
            (f.pkts_arrived, f.pkts_dropped)
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should differ here");
    }

    #[test]
    fn run_until_resumes_across_horizons() {
        // The event loop re-queues the first past-horizon event; a split run
        // must behave exactly like a single long run.
        fn run(split: bool) -> (u64, u64) {
            let (mut sim, a, c) = two_hosts(Rate::from_mbps(10), Duration::from_millis(5));
            let flow = sim.register_flow();
            sim.attach_agent(
                a,
                Box::new(Blaster {
                    flow,
                    dst: c,
                    n: 200,
                    size: 1250,
                    gap: Duration::from_millis(7),
                    sent: 0,
                }),
            );
            sim.attach_agent(c, Box::new(crate::agents::Sink));
            if split {
                for ms in 1..=2000 {
                    sim.run_until(SimTime::from_millis(ms));
                }
            } else {
                sim.run_until(SimTime::from_secs(2));
            }
            let f = sim.stats().flow(flow);
            (f.pkts_arrived, sim.events_processed())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn duplicating_path_delivers_extra_copies() {
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let c = b.host();
        b.simplex_link(
            a,
            c,
            LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(1))
                .with_path(crate::path::PathModel::none().with_duplicate(1.0)),
        );
        let mut sim = b.build(3);
        let flow = sim.register_flow();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 10,
                size: 100,
                gap: Duration::from_millis(10),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let f = sim.stats().flow(flow);
        assert_eq!(f.pkts_sent, 10);
        assert_eq!(f.pkts_arrived, 20, "every packet duplicated exactly once");
    }

    /// Records `(uid, arrival time)` pairs in delivery order: arrival
    /// *times* are monotone by event-loop construction, so reordering is
    /// only visible as uid inversions.
    struct UidRecorder {
        arrivals: std::rc::Rc<std::cell::RefCell<Vec<(u64, SimTime)>>>,
    }

    impl Agent for UidRecorder {
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
            self.arrivals.borrow_mut().push((pkt.uid, ctx.now));
        }
    }

    #[test]
    fn reordering_path_bounds_extra_delay() {
        let jitter = Duration::from_millis(20);
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let c = b.host();
        b.simplex_link(
            a,
            c,
            LinkConfig::new(Rate::from_mbps(100), Duration::from_millis(5))
                .with_path(crate::path::PathModel::none().with_reorder(1.0, jitter)),
        );
        let mut sim = b.build(17);
        let flow = sim.register_flow();
        let arrivals = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.attach_agent(
            a,
            Box::new(Blaster {
                flow,
                dst: c,
                n: 100,
                size: 1250,
                gap: Duration::from_millis(1),
                sent: 0,
            }),
        );
        sim.attach_agent(
            c,
            Box::new(UidRecorder {
                arrivals: arrivals.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(5));
        let arrivals = arrivals.borrow();
        assert_eq!(arrivals.len(), 100, "reordering never loses packets");
        // Packet uids are 1..=100 in send order; packet k's nominal arrival
        // is (k-1) ms send offset + 0.1 ms tx + 5 ms prop (the access link
        // never queues at this rate).
        let tx = Rate::from_mbps(100).tx_time(1250);
        for &(uid, at) in arrivals.iter() {
            let nominal = SimTime::from_millis(uid - 1) + Duration::from_millis(5) + tx;
            assert!(at >= nominal, "uid {uid} arrived before its nominal time");
            assert!(
                at.saturating_since(nominal) <= jitter,
                "uid {uid} displaced beyond the jitter bound"
            );
        }
        let displaced = arrivals.windows(2).filter(|w| w[1].0 < w[0].0).count();
        assert!(displaced > 0, "full jitter at 1 ms spacing must reorder");
    }

    #[test]
    fn noop_path_model_is_event_identical() {
        // A link with an explicit no-op PathModel must produce exactly the
        // event count, arrivals, and pool high-water of a plain link.
        fn run(with_noop_model: bool) -> (u64, u64, usize) {
            let mut b = NetworkBuilder::new();
            let a = b.host();
            let c = b.host();
            let mut cfg = LinkConfig::new(Rate::from_mbps(1), Duration::from_millis(1))
                .with_loss(crate::loss::LossModel::bernoulli(0.3));
            if with_noop_model {
                cfg = cfg.with_path(crate::path::PathModel::none());
            }
            b.simplex_link(a, c, cfg);
            let mut sim = b.build(42);
            let flow = sim.register_flow();
            sim.attach_agent(
                a,
                Box::new(Blaster {
                    flow,
                    dst: c,
                    n: 500,
                    size: 500,
                    gap: Duration::from_millis(1),
                    sent: 0,
                }),
            );
            sim.run_until(SimTime::from_secs(3));
            let f = sim.stats().flow(flow);
            (
                f.pkts_arrived,
                sim.events_processed(),
                sim.packet_pool_high_water(),
            )
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "agents attach to hosts")]
    fn cannot_attach_agent_to_router() {
        let mut b = NetworkBuilder::new();
        let _a = b.host();
        let r = b.router();
        let c = b.host();
        b.duplex_link(_a, r, LinkConfig::new(Rate::from_mbps(1), Duration::ZERO));
        b.duplex_link(r, c, LinkConfig::new(Rate::from_mbps(1), Duration::ZERO));
        let mut sim = b.build(1);
        struct Noop;
        impl Agent for Noop {}
        sim.attach_agent(r, Box::new(Noop));
    }

    /// The dense per-destination BFS the compressed routes replaced; kept as
    /// the reference oracle for equivalence testing.
    fn reference_routes(
        n: usize,
        links: &[(NodeId, NodeId, LinkConfig)],
    ) -> Vec<Vec<Option<LinkId>>> {
        let mut next_hop = vec![vec![None; n]; n];
        for dst in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut frontier = std::collections::VecDeque::new();
            frontier.push_back(dst);
            while let Some(v) = frontier.pop_front() {
                for (id, (a, b, _)) in links.iter().enumerate() {
                    if *b == v && dist[*a] == usize::MAX {
                        dist[*a] = dist[v] + 1;
                        next_hop[*a][dst] = Some(id);
                        frontier.push_back(*a);
                    } else if *b == v && dist[*a] == dist[v] + 1 {
                        if let Some(cur) = next_hop[*a][dst] {
                            if id < cur {
                                next_hop[*a][dst] = Some(id);
                            }
                        }
                    }
                }
            }
        }
        next_hop
    }

    #[test]
    fn routes_match_reference_bfs() {
        let cfg = || LinkConfig::new(Rate::from_mbps(1), Duration::from_millis(1));
        // Randomized topologies: a small router mesh, pendant hosts (some
        // duplex, some send-only, some receive-only), a mutual pair, and an
        // isolated node. Seeded, so failures reproduce.
        let mut rng = DetRng::new(0x0075_0F75);
        for round in 0..40 {
            let routers = 1 + (rng.next_u64() % 5) as usize;
            let hosts = (rng.next_u64() % 12) as usize;
            let n = routers + hosts + 3; // + mutual pair + isolated node
            let mut links: Vec<(NodeId, NodeId, LinkConfig)> = Vec::new();
            // Random router mesh (simplex edges, possibly asymmetric).
            for _ in 0..(routers * 2) {
                let a = (rng.next_u64() % routers as u64) as usize;
                let b = (rng.next_u64() % routers as u64) as usize;
                if a != b {
                    links.push((a, b, cfg()));
                }
            }
            // Pendant hosts off random routers.
            for h in 0..hosts {
                let host = routers + h;
                let r = (rng.next_u64() % routers as u64) as usize;
                match rng.next_u64() % 3 {
                    0 => {
                        links.push((host, r, cfg()));
                        links.push((r, host, cfg()));
                    }
                    1 => links.push((host, r, cfg())),
                    _ => links.push((r, host, cfg())),
                }
                // Occasionally a second parallel link (tie-break coverage).
                if rng.next_u64() % 4 == 0 {
                    links.push((host, r, cfg()));
                }
            }
            // A mutual pair: two nodes linked only to each other.
            let (m1, m2) = (n - 3, n - 2);
            links.push((m1, m2, cfg()));
            links.push((m2, m1, cfg()));
            // n-1 is isolated.
            let reference = reference_routes(n, &links);
            let routes = Routes::build(n, &links);
            for (a, ref_row) in reference.iter().enumerate() {
                for (dst, &ref_hop) in ref_row.iter().enumerate() {
                    if a == dst {
                        continue;
                    }
                    assert_eq!(
                        routes.next_hop(a, dst),
                        ref_hop,
                        "round {round}: route {a} -> {dst} diverged ({links:?})"
                    );
                }
            }
        }
    }
}
