//! The transport-neutral driver seam: sans-io endpoints behind a
//! command-queue API.
//!
//! A QTP endpoint — a [`Session`](crate::session::Session), wrapping the
//! crate-private sender or receiver state machine — is *driven* by datagram
//! arrivals and timer expiries and *emits* effects — datagrams to transmit,
//! timers to arm, application deliveries — without ever touching a clock, a
//! socket, or the simulator. This module defines that seam:
//!
//! * [`Endpoint`] — the driver-facing trait: `on_start` / `handle_datagram`
//!   / `on_timer`, each receiving the current time through an [`Outbox`];
//! * [`Outbox`] — the buffered command queue an endpoint writes effects
//!   into; the driver drains it with [`Outbox::poll_cmd`] after every
//!   callback (quinn-style `poll_transmit`/`poll_timeout` drivers are a
//!   straightforward `match` over the drained [`Command`]s);
//! * [`TimerGens`] — the generation-counter helper that makes
//!   fire-and-forget timers cancellable in effect.
//!
//! Two drivers exist today: the simulator adapter behind
//! [`attach_pair`](crate::session::attach_pair) maps an endpoint onto the
//! discrete-event simulator's `Agent` interface, and `qtp-io`'s `MuxDriver`
//! runs any number of them over one real `std::net::UdpSocket` with a
//! monotonic wall clock mapped onto [`SimTime`]. `Session`'s own poll
//! surface is a third, in-process driver of the same seam.
//!
//! # Command ordering
//!
//! [`Outbox`] is strictly FIFO across *all* command kinds. Drivers must
//! apply commands in the drained order: the simulator adapter relies on this
//! for byte-identical replay of pre-seam behaviour (send and timer commands
//! schedule events whose tie-break is insertion order).
//!
//! # Transmit buffers are lent
//!
//! Endpoints encode every header into [`Outbox::buffer`], and a driver that
//! has framed a [`Transmit`] may hand its `header` back with
//! [`Outbox::reuse`]; the next `buffer` call lends it out again, empty, so
//! a driver that gives every buffer back allocates none per datagram. Every
//! driver does: `qtp-io`'s `MuxDriver` once the datagram is framed, the
//! simulator adapters (which share one outbox among every endpoint on the
//! thread) once the simulator has copied the header into its packet
//! arena, and `Session`'s poll surface whenever its caller hands a
//! polled header back with `Session::reuse`. Giving a buffer back is
//! optional: without it `buffer` allocates exactly what a fresh
//! `Vec::with_capacity` would.

use qtp_simnet::packet::{FlowId, NodeId};
use qtp_simnet::sim::Waker;
use qtp_simnet::time::SimTime;
use std::collections::VecDeque;

/// An outgoing datagram, addressed by flow and destination endpoint id.
///
/// `wire_size` is the *accounted* on-wire size (transport header + payload +
/// IP overhead). The simulated payload is never materialized — `header`
/// holds only the encoded transport header — so real-socket drivers frame
/// `(flow, wire_size, header)` explicitly (see `qtp-io`'s datagram frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmit {
    /// Flow the datagram belongs to.
    pub flow: FlowId,
    /// Destination endpoint (a node id in the simulator; drivers over real
    /// sockets map every id onto the connected peer).
    pub dst: NodeId,
    /// Accounted on-wire size in bytes.
    pub wire_size: u32,
    /// Encoded transport header.
    pub header: Vec<u8>,
}

/// One buffered effect emitted by an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Transmit a datagram.
    Transmit(Transmit),
    /// Arm a fire-and-forget timer: wake the endpoint at `at` with `token`.
    /// Timers cannot be cancelled — endpoints filter stale tokens with
    /// [`TimerGens`].
    SetTimer { at: SimTime, token: u64 },
    /// `bytes` of application payload became deliverable on `flow`.
    Deliver { flow: FlowId, bytes: u64 },
}

/// The buffered command queue handed to every [`Endpoint`] callback.
///
/// Carries the current time (`now`) in, and the endpoint's effects out.
/// Effects are applied by the driver *after* the callback returns, exactly
/// in emission order.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Current time as supplied by the driver (virtual time in the
    /// simulator; monotonic wall time since driver start over real I/O).
    pub now: SimTime,
    cmds: VecDeque<Command>,
    /// Transmit buffers given back through [`Outbox::reuse`]: never more
    /// than the driver had out at once — three per callback on the mux and
    /// in the simulator, what is in flight on a poll loop like `Pipe`.
    spares: Vec<Vec<u8>>,
}

impl Outbox {
    pub fn new() -> Self {
        Outbox::default()
    }

    /// An empty buffer with room for `cap` bytes to encode a header into:
    /// a spare given back through [`Outbox::reuse`] if there is one, else
    /// `Vec::with_capacity(cap)`.
    pub fn buffer(&mut self, cap: usize) -> Vec<u8> {
        match self.spares.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(cap);
                buf
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Give a transmitted header back for [`Outbox::buffer`] to lend out
    /// again. Every buffer given back is kept.
    pub fn reuse(&mut self, buf: Vec<u8>) {
        self.spares.push(buf);
    }

    /// Commands queued and not yet drained: a mark for [`Outbox::since`].
    pub(crate) fn queued(&self) -> usize {
        self.cmds.len()
    }

    /// The commands queued after `mark` was taken, oldest first, left in
    /// place for the driver.
    pub(crate) fn since(&self, mark: usize) -> impl Iterator<Item = &Command> {
        self.cmds.range(mark..)
    }

    /// Queue a datagram for transmission.
    pub fn send_new(&mut self, flow: FlowId, dst: NodeId, wire_size: u32, header: Vec<u8>) {
        self.cmds.push_back(Command::Transmit(Transmit {
            flow,
            dst,
            wire_size,
            header,
        }));
    }

    /// Arm a wakeup at an absolute time.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        self.cmds.push_back(Command::SetTimer { at, token });
    }

    /// Report application-level delivery of `bytes` on `flow`.
    pub fn app_deliver(&mut self, flow: FlowId, bytes: u64) {
        self.cmds.push_back(Command::Deliver { flow, bytes });
    }

    /// Drain the next buffered command (FIFO).
    pub fn poll_cmd(&mut self) -> Option<Command> {
        self.cmds.pop_front()
    }
}

/// A sans-io transport endpoint drivable by any event loop.
///
/// The driver contract:
///
/// 1. set `out.now` to the current time before every callback;
/// 2. call [`Endpoint::on_start`] exactly once, first;
/// 3. feed every arriving datagram to [`Endpoint::handle_datagram`] and
///    every armed timer (at or after its deadline) to
///    [`Endpoint::on_timer`];
/// 4. after each callback, drain the outbox with [`Outbox::poll_cmd`] and
///    apply the commands in order (optionally giving each transmitted
///    header back with [`Outbox::reuse`]);
/// 5. hand the endpoint a [`Waker`] on the driver's own wake queue with
///    [`Endpoint::set_waker`] when mounting it, and deliver every wake
///    taken from that queue to [`Endpoint::on_timer`] at once, the way a
///    timer due now fires.
///
/// **Wakes.** A sender's pacer sleeps when nothing may leave, so an
/// application that writes to a sleeping sender's stream, between
/// callbacks, has to wake it: the write calls [`Waker::wake`] with a token
/// the sender chose when it fell asleep. `qtp-io`'s `MuxDriver` takes the
/// woken connections at the top of each step, the simulator at the start
/// of each `run_until` slice, and a poll-style `Session` reports a pending
/// wake as a `poll_timeout` no later than its last callback's time and
/// delivers it in `on_timeout`. Feedback and timers wake a sender from
/// inside its own callbacks and need no waker.
pub trait Endpoint {
    /// Called once when the connection/driver starts.
    fn on_start(&mut self, _out: &mut Outbox) {}

    /// A datagram arrived. `wire_size` is the accounted on-wire size and
    /// `header` the encoded transport header (see [`Transmit`]).
    fn handle_datagram(&mut self, _out: &mut Outbox, _wire_size: u32, _header: &[u8]) {}

    /// A timer armed via [`Outbox::set_timer_at`] fired. `token` is the
    /// value given when arming; stale generations must be ignored (see
    /// [`TimerGens`]).
    fn on_timer(&mut self, _out: &mut Outbox, _token: u64) {}

    /// The driver's handle for waking this endpoint from outside its
    /// callbacks (contract item 5). Endpoints nothing outside wakes ignore
    /// it.
    fn set_waker(&mut self, _waker: Waker) {}
}

/// Boxed endpoints forward the whole seam, so one driver can carry
/// connections of different concrete types (`qtp-io`'s
/// `MuxDriver<Box<dyn Endpoint>>` mixes test doubles this way; a `Session`
/// already covers both the sending and the receiving side).
impl<E: Endpoint + ?Sized> Endpoint for Box<E> {
    fn on_start(&mut self, out: &mut Outbox) {
        (**self).on_start(out)
    }

    fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
        (**self).handle_datagram(out, wire_size, header)
    }

    fn on_timer(&mut self, out: &mut Outbox, token: u64) {
        (**self).on_timer(out, token)
    }

    fn set_waker(&mut self, waker: Waker) {
        (**self).set_waker(waker)
    }
}

/// Number of low token bits reserved for the timer kind.
const KIND_BITS: u32 = 2;
const KIND_MASK: u64 = (1 << KIND_BITS) - 1;

/// Generation counters for fire-and-forget timers, shared by both QTP
/// endpoints.
///
/// Timers in this codebase cannot be cancelled once armed (see the timer
/// contract in `qtp-simnet`'s `sim` module: `set_timer_in(d, token)`
/// schedules a wakeup that always fires). Re-arming therefore works by
/// *generation*: each timer kind `k < N` carries a counter, [`arm`] bumps it
/// and encodes `kind | (gen << 2)` into the token, and [`live`] accepts a
/// fired token only if its generation is still current. A stale token —
/// from a wakeup superseded by a later re-arm — decodes to `None` and the
/// endpoint ignores it.
///
/// `N` is the number of timer kinds (at most 4 with the 2-bit kind field).
/// Tokens whose kind is `>= N` are never live, so an endpoint with a single
/// timer kind cheaply rejects foreign tokens too.
///
/// [`arm`]: TimerGens::arm
/// [`live`]: TimerGens::live
#[derive(Debug, Clone)]
pub struct TimerGens<const N: usize> {
    gens: [u64; N],
}

impl<const N: usize> Default for TimerGens<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> TimerGens<N> {
    /// Compile-time bound: the kind field is 2 bits wide.
    const VALID_N: () = assert!(N >= 1 && N <= 1 << KIND_BITS, "at most 4 timer kinds");

    pub fn new() -> Self {
        #[allow(clippy::let_unit_value)]
        let () = Self::VALID_N;
        TimerGens { gens: [0; N] }
    }

    /// Start a new generation for `kind` and return the token to arm the
    /// timer with. All previously issued tokens of this kind become stale.
    pub fn arm(&mut self, kind: u64) -> u64 {
        self.gens[kind as usize] += 1;
        kind | (self.gens[kind as usize] << KIND_BITS)
    }

    /// Decode a fired token: `Some(kind)` if it is the current generation
    /// for a known kind, `None` if stale or foreign.
    pub fn live(&self, token: u64) -> Option<u64> {
        let kind = token & KIND_MASK;
        let gen = token >> KIND_BITS;
        ((kind as usize) < N && gen == self.gens[kind as usize]).then_some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::counting_alloc::{sample, top_sites, Counts};

    #[test]
    fn outbox_drains_fifo_across_kinds() {
        let mut out = Outbox::new();
        out.send_new(1, 2, 100, vec![0xAA]);
        out.set_timer_at(SimTime::from_millis(5), 42);
        // Lending and giving back buffers between commands reorders nothing.
        out.reuse(vec![0xEE; 8]);
        out.app_deliver(1, 1000);
        let mut lent = out.buffer(1);
        lent.push(0xBB);
        out.send_new(1, 2, 50, lent);
        assert_eq!(out.since(2).count(), 2);
        assert!(matches!(out.poll_cmd(), Some(Command::Transmit(t)) if t.header == vec![0xAA]));
        assert!(matches!(
            out.poll_cmd(),
            Some(Command::SetTimer { token: 42, .. })
        ));
        assert!(matches!(
            out.poll_cmd(),
            Some(Command::Deliver { bytes: 1000, .. })
        ));
        assert!(matches!(out.poll_cmd(), Some(Command::Transmit(t)) if t.header == vec![0xBB]));
        assert!(out.poll_cmd().is_none());
    }

    #[test]
    fn a_reused_buffer_comes_back_empty_with_its_capacity() {
        let mut out = Outbox::new();
        let mut header = out.buffer(1400);
        header.extend_from_slice(&[0xEE; 1400]);
        let (ptr, cap) = (header.as_ptr(), header.capacity());
        out.reuse(header);
        let again = out.buffer(64);
        assert!(again.is_empty(), "no byte of the last datagram is readable");
        assert_eq!((again.as_ptr(), again.capacity()), (ptr, cap));
        // A spare smaller than asked for grows to fit.
        out.reuse(again);
        assert!(out.buffer(4000).capacity() >= 4000);
    }

    /// However many buffers a driver has out at once, every one given
    /// back is lent again before `buffer` allocates.
    #[test]
    fn every_buffer_given_back_is_lent_again_before_any_allocation() {
        let mut out = Outbox::new();
        let given: Vec<Vec<u8>> = (0..100).map(|_| out.buffer(64)).collect();
        let mut ptrs: Vec<*const u8> = given.iter().map(|b| b.as_ptr()).collect();
        for buf in given {
            out.reuse(buf);
        }
        let mut lent = Vec::with_capacity(101);
        let before = Counts::now();
        lent.extend((0..100).map(|_| out.buffer(64)));
        let lending = Counts::now().since(before);
        assert_eq!(lending.allocs, 0, "{lending} while a spare is left");
        lent.push(out.buffer(64));
        assert_eq!(Counts::now().since(before).allocs, 1, "then a new one");
        let mut again: Vec<*const u8> = lent[..100].iter().map(|b| b.as_ptr()).collect();
        ptrs.sort();
        again.sort();
        assert_eq!(again, ptrs, "each buffer given back, lent once");
    }

    /// A driver that never gives a buffer back allocates per datagram what
    /// `Vec::with_capacity` did before.
    #[test]
    fn without_reuse_a_buffer_is_exactly_one_allocation_of_its_size() {
        let mut out = Outbox::new();
        for cap in [9, 38, 1436] {
            let before = Counts::now();
            let header = out.buffer(cap);
            let counts = Counts::now().since(before);
            if (counts.allocs, counts.bytes) != (1, cap as u64) {
                sample(1);
                out.buffer(cap);
                panic!("buffer({cap}): {counts}\n{}", top_sites());
            }
            assert_eq!(header.capacity(), cap);
        }
    }

    #[test]
    fn boxed_endpoints_forward_the_seam() {
        struct Recorder;
        impl Endpoint for Recorder {
            fn on_start(&mut self, out: &mut Outbox) {
                out.send_new(1, 0, 10, vec![0xAB]);
            }
            fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, _header: &[u8]) {
                out.app_deliver(1, wire_size as u64);
            }
            fn on_timer(&mut self, out: &mut Outbox, token: u64) {
                out.set_timer_at(out.now, token);
            }
        }
        let mut boxed: Box<dyn Endpoint> = Box::new(Recorder);
        let mut out = Outbox::new();
        boxed.on_start(&mut out);
        boxed.handle_datagram(&mut out, 100, &[1, 2]);
        boxed.on_timer(&mut out, 7);
        assert!(matches!(out.poll_cmd(), Some(Command::Transmit(_))));
        assert!(matches!(
            out.poll_cmd(),
            Some(Command::Deliver { bytes: 100, .. })
        ));
        assert!(matches!(
            out.poll_cmd(),
            Some(Command::SetTimer { token: 7, .. })
        ));
        assert!(out.poll_cmd().is_none());
    }

    #[test]
    fn timer_gens_invalidate_stale_tokens() {
        let mut g: TimerGens<4> = TimerGens::new();
        let t1 = g.arm(3);
        assert_eq!(g.live(t1), Some(3));
        let t2 = g.arm(3);
        assert_eq!(g.live(t1), None, "superseded token is stale");
        assert_eq!(g.live(t2), Some(3));
        // Other kinds are independent.
        let u = g.arm(0);
        assert_eq!(g.live(u), Some(0));
        assert_eq!(g.live(t2), Some(3));
    }

    #[test]
    fn timer_gens_reject_foreign_kinds() {
        let mut g: TimerGens<1> = TimerGens::new();
        let t = g.arm(0);
        assert_eq!(g.live(t), Some(0));
        // A token whose kind field is out of range is never live, whatever
        // its generation.
        for kind in 1..4u64 {
            assert_eq!(g.live(kind | (1 << 2)), None);
            assert_eq!(g.live(kind), None);
        }
    }

    #[test]
    fn token_layout_matches_legacy_encoding() {
        // Endpoints previously hand-rolled `kind | (gen << 2)`; the helper
        // must keep that exact layout so fixed-seed traces stay identical.
        let mut g: TimerGens<4> = TimerGens::new();
        assert_eq!(g.arm(1), 1 | (1 << 2));
        assert_eq!(g.arm(1), 1 | (2 << 2));
        assert_eq!(g.arm(2), 2 | (1 << 2));
    }
}
