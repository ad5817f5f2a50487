//! The reference event loop: a sender and a receiver [`Session`] joined by a
//! one-way delay per direction on a virtual clock, driven only through the
//! poll surface. A caller's fate closure decides each datagram's fate; the
//! pipe owns no rng and no path model, and never polls session events (the
//! application closure of [`Pipe::run_until`] does). A transfer that cannot
//! finish ends in a [`Stall`], not a spin. After every step the pipe checks
//! that the receiver's `cum_ack` never decreases, that it never delivers
//! more packets than the sender sent, and that a closed side emits only
//! close-handshake datagrams; a violation panics with a [`Stall`]. Each
//! header, delivered or dropped, goes back to the side that emitted it
//! ([`Session::reuse`]), so the pipe itself allocates nothing per datagram.
//!
//! ```
//! use qtp_core::pipe::{Dir, Fate, Pipe};
//! use qtp_core::session::{ConnectionPlan, Profile};
//! use qtp_simnet::time::{Rate, SimTime};
//! use std::time::Duration;
//!
//! let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(2))).finite(20);
//! let mut pipe = Pipe::new(&plan, Duration::from_millis(10));
//! // Lose the sender's fifth datagram; full reliability repairs it.
//! pipe.set_fate(|dir, n, _| if (dir, n) == (Dir::Forward, 4) { Fate::Drop } else { Fate::Deliver });
//! let done = |p: &mut Pipe| p.rx.delivered_packets() == 20 && p.tx.all_acked();
//! pipe.run_until(SimTime::from_secs(60), done).expect("the transfer completes");
//! assert!(pipe.sent(Dir::Forward) > 20);
//! ```

// A `Stall` ends a run, at most once, so its size costs nothing.
#![allow(clippy::result_large_err)]

use crate::caps::CapabilitySet;
use crate::driver::Transmit;
use crate::session::{ConnectionPlan, Session};
use crate::wire;
use qtp_simnet::time::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// `Forward` runs sender to receiver, `Reverse` receiver to sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Forward,
    Reverse,
}

/// Deliver a datagram one one-way delay after it was emitted, or drop it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Deliver,
    Drop,
}

/// Nothing in flight and no timer armed, the next arrival or deadline past
/// the horizon, or a broken per-step invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    Idle,
    Horizon,
    Violation(&'static str),
}

/// One side's state when the pipe stopped; `queued` counts its datagrams
/// still in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub negotiated: Option<CapabilitySet>,
    pub is_closed: bool,
    pub all_acked: bool,
    pub sent_new: u64,
    pub cum_ack: u64,
    pub delivered_packets: u64,
    pub poll_timeout: Option<SimTime>,
    pub queued: usize,
}

/// Why and where a pipe stopped before the application was done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    pub now: SimTime,
    pub reason: Reason,
    pub tx: Side,
    pub rx: Side,
}

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipe stopped: {self:#?}")
    }
}

/// Direction, per-direction ordinal and bytes in; what the path does out.
type FateFn = dyn FnMut(Dir, u64, &Transmit) -> Fate;

/// Two sessions and the delay queues between them.
pub struct Pipe {
    pub tx: Session,
    pub rx: Session,
    now: SimTime,
    one_way: Duration,
    /// In-flight datagrams per [`Dir`] with their arrival times.
    queues: [VecDeque<(SimTime, Transmit)>; 2],
    sent: [u64; 2],
    fate: Box<FateFn>,
    /// The receiver's `cum_ack`, and which sides were closed, after the
    /// previous step.
    cum_ack: u64,
    closed: [bool; 2],
}

impl Pipe {
    /// `Session::sender(0, 0, plan)` and `Session::receiver(0, 1, 0, plan)`,
    /// both started at time zero. The SYN leaves in the first step, so a
    /// fate set before it applies to it.
    pub fn new(plan: &ConnectionPlan, one_way: Duration) -> Pipe {
        let mut tx = Session::sender(0, 0, plan);
        let mut rx = Session::receiver(0, 1, 0, plan);
        tx.start(SimTime::ZERO);
        rx.start(SimTime::ZERO);
        Pipe {
            tx,
            rx,
            now: SimTime::ZERO,
            one_way,
            queues: [VecDeque::with_capacity(4096), VecDeque::with_capacity(4096)],
            sent: [0; 2],
            fate: Box::new(|_, _, _| Fate::Deliver),
            cum_ack: 0,
            closed: [false; 2],
        }
    }

    /// Decide each later datagram's fate from its direction, its ordinal in
    /// that direction (from 0, dropped ones included) and its bytes.
    pub fn set_fate(&mut self, fate: impl FnMut(Dir, u64, &Transmit) -> Fate + 'static) {
        self.fate = Box::new(fate);
    }

    /// Datagrams emitted in `dir` so far, dropped ones included.
    pub fn sent(&self, dir: Dir) -> u64 {
        self.sent[dir as usize]
    }

    /// Advance to the next arrival or deadline and handle what is due, in
    /// this order: forward arrivals, reverse arrivals, the sender's wake
    /// (a stream write since the last step; it is due at once) and timers,
    /// the receiver's, then both sides' output, sender first.
    pub fn step(&mut self) -> Result<(), Stall> {
        self.step_within(SimTime::MAX)
    }

    /// Step, calling `done` (the application) after each step, until it
    /// returns `true`; never step past `horizon`.
    pub fn run_until(
        &mut self,
        horizon: SimTime,
        mut done: impl FnMut(&mut Pipe) -> bool,
    ) -> Result<(), Stall> {
        loop {
            self.step_within(horizon)?;
            if done(self) {
                return Ok(());
            }
        }
    }

    fn step_within(&mut self, horizon: SimTime) -> Result<(), Stall> {
        // Only `start`, `handle_input` and `on_timeout` emit, so this moves
        // the SYN on the first step and nothing afterwards.
        self.pump();
        let fronts = self.queues.iter().map(|q| q.front().map(|(at, _)| *at));
        let timers = [self.tx.poll_timeout(), self.rx.poll_timeout()];
        match fronts.chain(timers).flatten().min() {
            None => return Err(self.stall(Reason::Idle)),
            Some(at) if at > horizon => return Err(self.stall(Reason::Horizon)),
            Some(at) => self.now = self.now.max(at),
        }
        let now = self.now;
        for i in 0..2 {
            while self.queues[i].front().is_some_and(|(at, _)| *at <= now) {
                let (_, d) = self.queues[i].pop_front().expect("front checked");
                let (to, from) = match i {
                    0 => (&mut self.rx, &mut self.tx),
                    _ => (&mut self.tx, &mut self.rx),
                };
                to.handle_input(now, d.wire_size, &d.header);
                from.reuse(d.header);
            }
        }
        for side in [&mut self.tx, &mut self.rx] {
            if side.poll_timeout().is_some_and(|at| at <= now) {
                side.on_timeout(now);
            }
        }
        self.pump();
        let cum_ack = self.rx.cum_ack();
        self.check(cum_ack >= self.cum_ack, "rx cum_ack decreased");
        let delivered = self.rx.delivered_packets() <= self.tx.sent_new();
        self.check(delivered, "rx delivered more packets than tx sent");
        self.cum_ack = cum_ack;
        self.closed = [self.tx.is_closed(), self.rx.is_closed()];
        Ok(())
    }

    /// Pass both sides' output through the fate into the queues.
    fn pump(&mut self) {
        let mut after_close = false;
        for (i, side) in [&mut self.tx, &mut self.rx].into_iter().enumerate() {
            let dir = [Dir::Forward, Dir::Reverse][i];
            while let Some(d) = side.poll_transmit() {
                after_close |= self.closed[i] && !wire::is_close_handshake(&d.header);
                self.sent[i] += 1;
                if (self.fate)(dir, self.sent[i] - 1, &d) == Fate::Deliver {
                    self.queues[i].push_back((self.now + self.one_way, d));
                } else {
                    side.reuse(d.header);
                }
            }
        }
        self.check(!after_close, "a closed side sent past its close");
    }

    fn check(&self, holds: bool, invariant: &'static str) {
        assert!(holds, "{}", self.stall(Reason::Violation(invariant)));
    }

    fn stall(&self, reason: Reason) -> Stall {
        let side = |s: &Session, queued: usize| Side {
            negotiated: s.negotiated(),
            is_closed: s.is_closed(),
            all_acked: s.all_acked(),
            sent_new: s.sent_new(),
            cum_ack: s.cum_ack(),
            delivered_packets: s.delivered_packets(),
            poll_timeout: s.poll_timeout(),
            queued,
        };
        Stall {
            now: self.now,
            reason,
            tx: side(&self.tx, self.queues[0].len()),
            rx: side(&self.rx, self.queues[1].len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting_alloc::Counts;
    use crate::session::Profile;

    #[test]
    fn a_deaf_sender_stops_at_the_horizon() {
        let plan = ConnectionPlan::new(Profile::qtp_light()).finite(10);
        let mut pipe = Pipe::new(&plan, Duration::from_millis(10));
        pipe.set_fate(|dir, _, _| {
            if dir == Dir::Reverse {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        });
        let stall = pipe
            .run_until(SimTime::from_secs(30), |_| false)
            .unwrap_err();
        assert_eq!((stall.reason, stall.tx.negotiated), (Reason::Horizon, None));
        assert!(pipe.sent(Dir::Forward) > 1, "the SYN is retried");
    }

    /// The idle probe: four messages delivered and acknowledged at 10 ms
    /// one-way, then ten seconds with nothing to send. A sleeping sender
    /// fires only its backing-off no-feedback timer and its recovery
    /// deadline: 9 timers under gTFRC at 2 Mbit/s, 8 under CUBIC, 9 under
    /// TFRC, where a pacer that ticked through idle time fired 2 086, 1 375
    /// and 13. The receiver's feedback timer still fires every 20 ms (500
    /// times, printed): it is armed whether or not data came.
    #[test]
    fn an_idle_connection_fires_only_its_decision_timers() {
        use crate::stream::StreamConfig;
        use qtp_simnet::time::Rate;
        let profiles = [
            ("gTFRC", Profile::qtp_af(Rate::from_mbps(2))),
            ("CUBIC", Profile::cubic()),
            ("TFRC", Profile::tfrc()),
        ];
        for (name, profile) in profiles {
            let plan = ConnectionPlan::new(profile).stream(StreamConfig::default());
            let mut pipe = Pipe::new(&plan, Duration::from_millis(10));
            let send = pipe.tx.send_stream().expect("stream plan");
            for _ in 0..4 {
                send.send(&[0x5A; 100]).expect("room for four messages");
            }
            let recv = pipe.rx.recv_stream().expect("stream plan");
            let acked = |p: &mut Pipe| recv.messages_received() == 4 && p.tx.all_acked();
            pipe.run_until(SimTime::from_secs(10), acked)
                .expect("the messages are delivered and acknowledged");
            let fires = |s: &Session| s.tracer().counters().timer_fires;
            let (tx0, rx0, sent0) = (fires(&pipe.tx), fires(&pipe.rx), pipe.sent(Dir::Forward));
            let idle_until = pipe.now + Duration::from_secs(10);
            let stall = pipe.run_until(idle_until, |_| false).unwrap_err();
            assert_eq!(stall.reason, Reason::Horizon, "{name}");
            let (tx, rx) = (fires(&pipe.tx) - tx0, fires(&pipe.rx) - rx0);
            println!("{name}: idle 10 s, sender {tx} timer fires, receiver {rx}");
            assert_eq!(
                pipe.sent(Dir::Forward),
                sent0,
                "{name}: an idle sender sends nothing"
            );
            assert!(tx <= 30, "{name}: the idle sender fired {tx} timers");
        }
    }

    #[test]
    fn an_endless_finite_backlog_sizes_nothing_by_its_length() {
        // Nothing is sized by a backlog that can never be sent: the run's
        // peak heap is what its outstanding packets cost.
        let plan = ConnectionPlan::new(Profile::qtp_light()).finite(u64::MAX);
        let before = Counts::now();
        let mut pipe = Pipe::new(&plan, Duration::from_millis(10));
        pipe.run_until(SimTime::from_secs(60), |p| p.tx.sent_new() >= 2_000)
            .expect("the sender keeps sending");
        let counts = Counts::now().since(before);
        // 428 KB measured; a ring sized by the backlog overflows.
        assert!(counts.peak < 1 << 20, "{counts}");
    }
}
