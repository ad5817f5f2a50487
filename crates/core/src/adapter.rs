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
//!   straight back to the endpoint's [`Outbox`] with [`Outbox::reuse`], so
//!   the next header is encoded into it and no simulated packet allocates;
//! * `Deliver` goes straight to the per-flow statistics, exactly as the
//!   endpoints used to call `ctx.stats.app_deliver` themselves.
//!
//! This adapter lives in `qtp-core` rather than `qtp-simnet` because the
//! crate dependency points this way: core implements the seam *and* knows
//! the simulator, while simnet stays protocol-agnostic.

use std::collections::HashMap;

use qtp_simnet::packet::{FlowId, Packet};
use qtp_simnet::sim::{Agent, Ctx};

use crate::driver::{Command, Endpoint, Outbox};
use crate::session::Session;

/// Wraps an [`Endpoint`] into a simulator [`Agent`].
pub(crate) struct SimAgent<E: Endpoint> {
    ep: E,
    out: Outbox,
}

impl<E: Endpoint> SimAgent<E> {
    pub(crate) fn new(ep: E) -> Self {
        SimAgent {
            ep,
            out: Outbox::new(),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx) {
        while let Some(cmd) = self.out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => {
                    ctx.send_new(t.flow, t.dst, t.wire_size, &t.header);
                    self.out.reuse(t.header);
                }
                Command::SetTimer { at, token } => ctx.set_timer_at(at, token),
                Command::Deliver { flow, bytes } => ctx.stats.app_deliver(flow, bytes),
            }
        }
    }
}

impl<E: Endpoint> Agent for SimAgent<E> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.out.now = ctx.now;
        self.ep.on_start(&mut self.out);
        self.flush(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet) {
        self.out.now = ctx.now;
        self.ep
            .handle_datagram(&mut self.out, pkt.wire_size, &pkt.header);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.out.now = ctx.now;
        self.ep.on_timer(&mut self.out, token);
        self.flush(ctx);
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
///   generations stay far below the tag boundary in any finite run);
/// * `on_start` runs in registration order, preserving the deterministic
///   packet-uid / timer-insertion ordering the [`SimAgent`] contract
///   guarantees for a single endpoint.
///
/// [`TimerGens`]: crate::driver::TimerGens
#[derive(Default)]
pub(crate) struct SimHost {
    slots: Vec<(Session, Outbox)>,
    route: HashMap<FlowId, usize>,
}

impl SimHost {
    /// Register a session together with the flows it *receives* (a sender
    /// listens on its feedback flow, a receiver on its data flow).
    pub(crate) fn add(&mut self, ep: Session, inbound: impl IntoIterator<Item = FlowId>) {
        let idx = self.slots.len();
        assert!(idx < MAX_HOST_ENDPOINTS, "SimHost slot tag overflow");
        for flow in inbound {
            let prev = self.route.insert(flow, idx);
            assert!(prev.is_none(), "flow routed to two endpoints on one host");
        }
        self.slots.push((ep, Outbox::new()));
    }

    fn flush_slot(&mut self, ctx: &mut Ctx, idx: usize) {
        let (_, out) = &mut self.slots[idx];
        while let Some(cmd) = out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => {
                    ctx.send_new(t.flow, t.dst, t.wire_size, &t.header);
                    out.reuse(t.header);
                }
                Command::SetTimer { at, token } => {
                    debug_assert_eq!(token >> SLOT_SHIFT, 0, "timer token reached the slot tag");
                    ctx.set_timer_at(at, ((idx as u64) << SLOT_SHIFT) | token);
                }
                Command::Deliver { flow, bytes } => ctx.stats.app_deliver(flow, bytes),
            }
        }
    }
}

impl Agent for SimHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for idx in 0..self.slots.len() {
            let (ep, out) = &mut self.slots[idx];
            out.now = ctx.now;
            ep.on_start(out);
            self.flush_slot(ctx, idx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet) {
        let Some(&idx) = self.route.get(&pkt.flow) else {
            return;
        };
        let (ep, out) = &mut self.slots[idx];
        out.now = ctx.now;
        ep.handle_datagram(out, pkt.wire_size, &pkt.header);
        self.flush_slot(ctx, idx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let idx = (token >> SLOT_SHIFT) as usize;
        if idx >= self.slots.len() {
            return;
        }
        let (ep, out) = &mut self.slots[idx];
        out.now = ctx.now;
        ep.on_timer(out, token & ((1u64 << SLOT_SHIFT) - 1));
        self.flush_slot(ctx, idx);
    }
}
