//! Simulator adapter: run any sans-io [`Endpoint`] as a simnet [`Agent`].
//!
//! The adapter is deliberately mechanical — it is the *only* place where
//! endpoint commands meet the simulator — so that a fixed-seed simulation
//! through the seam replays byte-identically to the pre-seam code:
//!
//! * `out.now` is set from `ctx.now` before every callback;
//! * commands are applied strictly in emission order after each callback
//!   ([`Transmit`](crate::driver::Transmit) → [`Ctx::send_new`], which
//!   allocates packet uids in call order; `SetTimer` → [`Ctx::set_timer_at`],
//!   whose events tie-break by insertion order);
//! * a transmitted header is copied by the simulator and its buffer handed
//!   straight back to the [`Outbox`] with [`Outbox::reuse`], so the next
//!   header is encoded into it and no simulated packet allocates;
//! * every adapter on a thread lends its endpoint the same outbox. The
//!   simulator runs one callback at a time and each adapter drains the
//!   outbox before its callback returns, so one command queue and the few
//!   header buffers a callback has out at once serve every endpoint: a
//!   simulated connection owns no outbox storage of its own;
//! * `Deliver` goes straight to the per-flow statistics, exactly as the
//!   endpoints used to call `ctx.stats.app_deliver` themselves;
//! * a sending session is handed a [`Waker`] on the simulator's wake
//!   queue, keyed by its node (and tagged by its slot on a [`SimHost`]),
//!   so a stream write between `run_until` slices wakes it at the start
//!   of the next slice.
//!
//! This adapter lives in `qtp-core` rather than `qtp-simnet` because the
//! crate dependency points this way: core implements the seam *and* knows
//! the simulator, while simnet stays protocol-agnostic.

use std::cell::RefCell;
use std::collections::HashMap;

use qtp_simnet::packet::{FlowId, NodeId, Packet};
use qtp_simnet::sim::{Agent, Ctx, Waker};

use crate::driver::{Command, Endpoint, Outbox};
use crate::session::Session;

thread_local! {
    /// The outbox every simulator adapter on this thread lends its endpoint.
    static OUTBOX: RefCell<Outbox> = RefCell::new(Outbox::new());
}

/// Run one endpoint callback at `ctx.now` on the shared outbox, then apply
/// what it emitted in order; `tag` maps each timer token into the agent's
/// namespace.
fn callback(ctx: &mut Ctx, tag: impl Fn(u64) -> u64, f: impl FnOnce(&mut Outbox)) {
    OUTBOX.with_borrow_mut(|out| {
        out.now = ctx.now;
        f(out);
        while let Some(cmd) = out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => {
                    ctx.send_new(t.flow, t.dst, t.wire_size, &t.header);
                    out.reuse(t.header);
                }
                Command::SetTimer { at, token } => ctx.set_timer_at(at, tag(token)),
                Command::Deliver { flow, bytes } => ctx.stats.app_deliver(flow, bytes),
            }
        }
    })
}

/// Wraps an [`Endpoint`] into a simulator [`Agent`].
pub(crate) struct SimAgent<E: Endpoint> {
    ep: E,
}

impl<E: Endpoint> SimAgent<E> {
    pub(crate) fn new(ep: E) -> Self {
        SimAgent { ep }
    }
}

impl<E: Endpoint> Agent for SimAgent<E> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        callback(ctx, |token| token, |out| self.ep.on_start(out));
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
        callback(
            ctx,
            |token| token,
            |out| self.ep.handle_datagram(out, pkt.wire_size, pkt.header),
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        callback(ctx, |token| token, |out| self.ep.on_timer(out, token));
    }
}

/// Number of token bits reserved for the endpoint slot on a [`SimHost`].
const SLOT_BITS: u32 = 8;
const SLOT_SHIFT: u32 = 64 - SLOT_BITS;
/// Endpoints one [`SimHost`] can carry (the slot index must fit the tag).
const MAX_HOST_ENDPOINTS: usize = 1 << SLOT_BITS;

/// A simulator agent hosting *several* sessions on one node.
///
/// The simulator attaches one [`Agent`] per host node, which is exactly
/// right for the single-connection experiments but not for application
/// topologies where one machine terminates several connections (a chat
/// client that both sends requests and receives responses). `SimHost`
/// closes that gap mechanically:
///
/// * inbound packets are routed to the endpoint that registered the
///   packet's flow (others never see it — same as distinct hosts);
/// * timer tokens are tagged with the endpoint's slot index in the top
///   [`SLOT_BITS`] bits on the way out and untagged on the way back, so
///   endpoints keep their private token namespaces ([`TimerGens`]
///   generations stay far below the tag boundary in any finite run); the
///   [`Waker`] each endpoint gets tags the tokens it wakes with the same
///   way;
/// * `on_start` runs in registration order, preserving the deterministic
///   packet-uid / timer-insertion ordering the [`SimAgent`] contract
///   guarantees for a single endpoint.
///
/// [`TimerGens`]: crate::driver::TimerGens
#[derive(Default)]
pub(crate) struct SimHost {
    slots: Vec<Session>,
    route: HashMap<FlowId, usize>,
}

impl SimHost {
    /// Register a session together with the flows it *receives* (a sender
    /// listens on its feedback flow, a receiver on its data flow); it wakes
    /// through the simulator's `waker` as the agent on `node`.
    pub(crate) fn add(
        &mut self,
        mut ep: Session,
        inbound: impl IntoIterator<Item = FlowId>,
        waker: &Waker,
        node: NodeId,
    ) {
        let idx = self.slots.len();
        assert!(idx < MAX_HOST_ENDPOINTS, "SimHost slot tag overflow");
        ep.set_waker(waker.to(node as u64, slot_tag(idx)(0)));
        for flow in inbound {
            let prev = self.route.insert(flow, idx);
            assert!(prev.is_none(), "flow routed to two endpoints on one host");
        }
        self.slots.push(ep);
    }
}

/// Tag `token` with the slot index of the endpoint that armed it.
fn slot_tag(idx: usize) -> impl Fn(u64) -> u64 {
    move |token| {
        debug_assert_eq!(token >> SLOT_SHIFT, 0, "timer token reached the slot tag");
        ((idx as u64) << SLOT_SHIFT) | token
    }
}

impl Agent for SimHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (idx, ep) in self.slots.iter_mut().enumerate() {
            callback(ctx, slot_tag(idx), |out| ep.on_start(out));
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
        let Some(&idx) = self.route.get(&pkt.flow) else {
            return;
        };
        let ep = &mut self.slots[idx];
        callback(ctx, slot_tag(idx), |out| {
            ep.handle_datagram(out, pkt.wire_size, pkt.header)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let idx = (token >> SLOT_SHIFT) as usize;
        let Some(ep) = self.slots.get_mut(idx) else {
            return;
        };
        let token = token & ((1u64 << SLOT_SHIFT) - 1);
        callback(ctx, slot_tag(idx), |out| ep.on_timer(out, token));
    }
}
