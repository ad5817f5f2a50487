//! `pipe_bulk` and `pipe_lossy_vlbi`: two sans-io [`Session`]s joined by a
//! delay queue on a virtual clock — no sockets, no `qtp-io`, no kernel.
//!
//! The harness is the driver: it calls `start` / `handle_input` /
//! `on_timeout` / `poll_transmit` / `poll_timeout` itself, which is also
//! where the per-layer spans come from. Nothing here reads the wall clock to
//! decide anything, so every count of a repetition is a pure function of the
//! seed.

use crate::app::{self, Writer};
use crate::pattern::{self, SplitMix};
use crate::run::{names::*, Ctx, Layer, Meter, Rep, Violation, Workload};
use crate::span::Spans;
use qtp_core::session::{ConnectionPlan, Profile, Reliability, Session};
use qtp_core::stream::{RecvStream, SendStream, StreamConfig};
use qtp_core::{CcKind, Transmit};
use qtp_simnet::time::{Rate, SimTime};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// gTFRC floor of `pipe_lossy_vlbi`. At 1 % loss and 100 ms RTT this puts two
/// holes in a round trip, which the four SACK blocks of a feedback can
/// report. (At 100 Mbit/s there are ten: recovery then runs through the
/// sender's 500 ms tail-loss fallback, which marks the whole window lost, and
/// goodput differs twofold between seeds — a lead for a later issue, and no
/// base for a steady benchmark.)
const LOSSY_FLOOR_MBPS: u64 = 20;

/// Messages at the end of a transfer that see no loss. The seed code cannot
/// close a TTL stream while an abandoned message is unacknowledged: the
/// receiver answers data, never the FORWARD that skips the hole, so only
/// later data gets the sender its acknowledgement. 3000 messages are about
/// 1.4 s at the floor rate — TTL plus the sender's 500 ms tail-loss fallback
/// plus an RTT, with margin — so every hole is settled while data still
/// flows. A workload must complete; everything before the tail sees the loss.
const LOSS_FREE_TAIL: u64 = 3_000;

/// Virtual time without a delivery after which a transfer counts as hung.
const STALL: Duration = Duration::from_secs(5);

/// What the traced canonical run hands to the isolated-layer replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The sender put a datagram on the wire.
    TxSent,
    /// A datagram (feedback, handshake) reached the sender.
    TxArrived,
    /// The receiver put a datagram on the wire.
    RxSent,
    /// A datagram (data, FIN, forward) reached the receiver.
    RxArrived,
}

#[derive(Debug, Clone)]
pub struct Rec {
    pub stage: Stage,
    pub at: SimTime,
    pub wire_size: u32,
    pub header: Vec<u8>,
}

/// The datagram trace of one repetition plus the sender's timer deadlines.
#[derive(Debug, Default)]
pub struct Recording {
    pub dgrams: Vec<Rec>,
    /// `(now, deadline)` each time the sender's next deadline moved.
    pub deadlines: Vec<(SimTime, SimTime)>,
}

#[derive(Debug, Clone)]
pub struct PipeSpec {
    pub name: &'static str,
    pub plan: ConnectionPlan,
    pub one_way: Duration,
    /// Share of the data direction's datagrams the pipe drops: every
    /// `1/loss`-th one, the phase drawn from the seed. Evenly spaced, not
    /// Bernoulli: every seed then loses the same number of datagrams, which
    /// run-to-run steadiness needs — the seed code's heavy recovery paths fire
    /// a Poisson-few times per repetition under independent draws, and goodput
    /// differed threefold between seeds.
    pub loss: f64,
    pub total_bytes: u64,
    pub write_len: usize,
}

impl PipeSpec {
    /// The reliable bulk stream every `*_bulk*` workload carries.
    pub fn bulk_plan() -> ConnectionPlan {
        ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(200)))
            .stream(StreamConfig::with_send_buf(256 * 1024))
    }

    pub fn bulk(total_bytes: u64) -> Self {
        PipeSpec {
            name: "pipe_bulk",
            plan: Self::bulk_plan(),
            one_way: Duration::from_millis(5),
            loss: 0.0,
            total_bytes,
            write_len: 8 * 1024,
        }
    }

    /// e-VLBI: constant-rate, loss-tolerant bulk over a long fat pipe.
    pub fn lossy_vlbi(total_bytes: u64) -> Self {
        let profile = Profile::new()
            .reliability(Reliability::Ttl(Duration::from_millis(300)))
            .cc(CcKind::Gtfrc {
                target: Rate::from_mbps(LOSSY_FLOOR_MBPS),
            })
            .build()
            .expect("non-zero TTL");
        PipeSpec {
            name: "pipe_lossy_vlbi",
            plan: ConnectionPlan::new(profile)
                .payload(1200)
                .stream(StreamConfig::with_send_buf(256 * 1024)),
            one_way: Duration::from_millis(50),
            loss: 0.01,
            total_bytes: total_bytes / 1200 * 1200,
            write_len: 1200,
        }
    }

    /// One message per packet, delivered as it arrives (partial reliability)?
    fn message_mode(&self) -> bool {
        self.plan.profile.reliability() != Reliability::Full
    }
}

/// Two sessions and the delay queues between them.
struct Rig {
    tx: Session,
    rx: Session,
    send: SendStream,
    recv: RecvStream,
    now: SimTime,
    one_way: Duration,
    fwd: VecDeque<(SimTime, Transmit)>,
    rev: VecDeque<(SimTime, Transmit)>,
    /// Drop every `lose_every`-th datagram of the data direction (0: none),
    /// starting `lose_phase` datagrams in. Set only between the first write
    /// and the loss-free tail, so set-up never loses its SYN.
    lose_every: u64,
    lose_phase: u64,
    fwd_seen: u64,
    dgrams: u64,
    wire_bytes: u64,
    tx_deadline: Option<SimTime>,
}

impl Rig {
    fn connect(spec: &PipeSpec, seed: u64) -> Result<(Rig, f64), Violation> {
        let t0 = Instant::now();
        let tx = Session::sender(0, 0, &spec.plan);
        let rx = Session::receiver(0, 1, 0, &spec.plan);
        let mut rig = Rig {
            send: tx.send_stream().expect("stream plan"),
            recv: rx.recv_stream().expect("stream plan"),
            tx,
            rx,
            now: SimTime::ZERO,
            one_way: spec.one_way,
            fwd: VecDeque::with_capacity(4096),
            rev: VecDeque::with_capacity(4096),
            lose_every: 0,
            lose_phase: SplitMix::new(pattern::key(seed, 0x1055)).next_u64(),
            fwd_seen: 0,
            dgrams: 0,
            wire_bytes: 0,
            tx_deadline: None,
        };
        let mut off = Spans::off();
        rig.tx.start(rig.now);
        rig.rx.start(rig.now);
        rig.pump(&mut off, &mut None);
        while rig.tx.negotiated().is_none() || rig.rx.negotiated().is_none() {
            rig.step(&mut off, &mut None)?;
        }
        Ok((rig, t0.elapsed().as_secs_f64()))
    }

    /// Move what both sessions want to send into the delay queues.
    fn pump(&mut self, spans: &mut Spans, rec: &mut Option<&mut Recording>) {
        let t = spans.enter(TX_POLL);
        while let Some(d) = self.tx.poll_transmit() {
            self.dgrams += 1;
            self.wire_bytes += d.header.len() as u64;
            note(rec, Stage::TxSent, self.now, &d);
            if self.lose_every > 0 {
                self.fwd_seen += 1;
                if (self.fwd_seen + self.lose_phase) % self.lose_every == 0 {
                    continue;
                }
            }
            self.fwd.push_back((self.now + self.one_way, d));
        }
        spans.exit(t);
        let t = spans.enter(RX_POLL);
        while let Some(d) = self.rx.poll_transmit() {
            self.dgrams += 1;
            self.wire_bytes += d.header.len() as u64;
            note(rec, Stage::RxSent, self.now, &d);
            self.rev.push_back((self.now + self.one_way, d));
        }
        spans.exit(t);
    }

    /// Advance the virtual clock to the next arrival or deadline and handle
    /// everything due then.
    fn step(
        &mut self,
        spans: &mut Spans,
        rec: &mut Option<&mut Recording>,
    ) -> Result<(), Violation> {
        let next = [
            self.fwd.front().map(|(at, _)| *at),
            self.rev.front().map(|(at, _)| *at),
            self.tx.poll_timeout(),
            self.rx.poll_timeout(),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(next) = next else {
            return Err(Violation::new(
                "pipe stalled: nothing in flight and no timer armed",
                self.now.as_nanos(),
            ));
        };
        self.now = self.now.max(next);
        let now = self.now;

        while self.fwd.front().is_some_and(|(at, _)| *at <= now) {
            let (_, d) = self.fwd.pop_front().expect("front checked");
            note(rec, Stage::RxArrived, now, &d);
            let t = spans.enter(RX_INPUT);
            self.rx.handle_input(now, d.wire_size, &d.header);
            spans.exit(t);
        }
        while self.rev.front().is_some_and(|(at, _)| *at <= now) {
            let (_, d) = self.rev.pop_front().expect("front checked");
            note(rec, Stage::TxArrived, now, &d);
            let t = spans.enter(TX_INPUT);
            self.tx.handle_input(now, d.wire_size, &d.header);
            spans.exit(t);
        }
        if self.tx.poll_timeout().is_some_and(|at| at <= now) {
            let t = spans.enter(TX_TIMEOUT);
            self.tx.on_timeout(now);
            spans.exit(t);
        }
        if self.rx.poll_timeout().is_some_and(|at| at <= now) {
            let t = spans.enter(RX_TIMEOUT);
            self.rx.on_timeout(now);
            spans.exit(t);
        }
        self.pump(spans, rec);
        if let Some(r) = rec {
            let deadline = self.tx.poll_timeout();
            if deadline != self.tx_deadline {
                if let Some(d) = deadline {
                    r.deadlines.push((now, d));
                }
                self.tx_deadline = deadline;
            }
        }
        Ok(())
    }
}

fn note(rec: &mut Option<&mut Recording>, stage: Stage, at: SimTime, d: &Transmit) {
    if let Some(r) = rec {
        r.dgrams.push(Rec {
            stage,
            at,
            wire_size: d.wire_size,
            header: d.header.clone(),
        });
    }
}

pub struct PipeWorkload {
    pub spec: PipeSpec,
    pub seed: u64,
    /// Fault injection for the correctness gate's own test (see [`Writer`]).
    pub corrupt_at: Option<u64>,
}

impl PipeWorkload {
    /// One transfer over a fresh rig. With `rec`, the datagram trace of the
    /// transfer is recorded for the replays.
    pub fn transfer(
        &self,
        ctx: &mut Ctx<'_>,
        mut rec: Option<&mut Recording>,
    ) -> Result<Rep, Violation> {
        let spec = &self.spec;
        let (mut rig, setup_s) = Rig::connect(spec, self.seed)?;
        rig.lose_every = if spec.loss > 0.0 {
            (1.0 / spec.loss).round() as u64
        } else {
            0
        };
        let key = pattern::key(self.seed, 0);
        let message_mode = spec.message_mode();
        let writes = spec.total_bytes / spec.write_len as u64;
        assert_eq!(writes * spec.write_len as u64, spec.total_bytes);

        let mut writer =
            Writer::new(key, spec.write_len, writes, message_mode).corrupt_at(self.corrupt_at);
        // Message mode: which messages arrived (exactly-once check).
        let mut seen = vec![false; if message_mode { writes as usize } else { 0 }];
        let mut layer = Layer::default();
        let (mut delivered, mut app_bytes) = (0u64, 0u64);
        let mut progress_at = rig.now;

        let meter = Meter::start();
        let rep_span = ctx.spans.enter(REP);
        loop {
            writer.pump(&rig.send, ctx.spans, &mut layer)?;
            if writer.sent() + LOSS_FREE_TAIL >= writes {
                rig.lose_every = 0;
            }

            rig.step(ctx.spans, &mut rec)?;
            if rig.now.saturating_since(progress_at) > STALL {
                return Err(Violation::new(
                    format!("no message delivered for {STALL:?} of virtual time"),
                    delivered,
                ));
            }

            while let Some(ev) = rig.tx.poll_event() {
                writer.on_event(&ev);
            }
            while rig.rx.poll_event().is_some() {}

            // The reader: verify by recomputation, never by keeping a copy.
            loop {
                let t = ctx.spans.enter(STREAM_RECV);
                let msg = rig.recv.recv();
                ctx.spans.exit(t);
                let Some(msg) = msg else { break };
                let index = if message_mode {
                    let index = app::stamp_of(&msg).unwrap_or(u64::MAX);
                    match seen.get_mut(index as usize) {
                        Some(s) if !*s => *s = true,
                        Some(_) => return Err(Violation::new("message delivered twice", index)),
                        None => return Err(Violation::new("message index out of range", index)),
                    }
                    index
                } else {
                    delivered
                };
                app::check(key, spec.write_len, index, &msg, message_mode)?;
                ctx.latency(writer.sent_at(index));
                delivered += 1;
                app_bytes += msg.len() as u64;
                progress_at = rig.now;
            }
            if rig.recv.is_finished() && rig.tx.is_closed() {
                break;
            }
        }
        ctx.spans.exit(rep_span);
        let mut rep = Rep {
            setup_s,
            app_bytes,
            dgrams: rig.dgrams,
            wire_bytes: rig.wire_bytes,
            attempted: writes,
            ..Rep::default()
        };
        meter.stop(&mut rep);

        let (txc, rxc) = (rig.tx.tracer().counters(), rig.rx.tracer().counters());
        layer.msgs_recv = delivered;
        layer.data_dgrams = txc.pkts_tx;
        layer.fb_dgrams = rxc.pkts_tx;
        layer.timer_fires = txc.timer_fires + rxc.timer_fires;
        layer.timers_set = txc.timers_set + rxc.timers_set;
        layer.timers_cancelled = txc.timers_cancelled + rxc.timers_cancelled;
        layer.retransmits = txc.retransmits;
        layer.abandoned = txc.abandoned;
        layer.loss_events = txc.loss_events + rxc.loss_events;
        rep.layer = layer;
        // A message the sender gave up on within its TTL contract, or the
        // receiver dropped as stale, is the service working as negotiated;
        // anything else missing is a failure.
        let excused = if message_mode {
            txc.abandoned + rxc.ttl_drops
        } else {
            0
        };
        rep.failed = writes.saturating_sub(delivered + excused);
        Ok(rep)
    }
}

impl Workload for PipeWorkload {
    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn exact(&self) -> bool {
        true
    }

    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Result<Rep, Violation> {
        self.transfer(ctx, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(w: &PipeWorkload) -> Result<Rep, Violation> {
        let mut spans = Spans::off();
        let mut lat = Vec::new();
        w.transfer(
            &mut Ctx {
                spans: &mut spans,
                lat_us: &mut lat,
            },
            None,
        )
    }

    #[test]
    fn bulk_pipe_delivers_everything_and_repeats_exactly() {
        let w = PipeWorkload {
            spec: PipeSpec::bulk(256 * 1024),
            seed: 42,
            corrupt_at: None,
        };
        let a = run(&w).expect("clean transfer");
        assert_eq!(a.app_bytes, 256 * 1024);
        assert_eq!(a.failed, 0);
        assert!(a.dgrams > 256 && a.wire_bytes > a.app_bytes);
        let b = run(&w).expect("clean transfer");
        assert_eq!(
            (a.dgrams, a.wire_bytes, a.allocs),
            (b.dgrams, b.wire_bytes, b.allocs)
        );
    }

    #[test]
    fn a_corrupted_payload_byte_is_caught_at_its_offset() {
        let w = PipeWorkload {
            spec: PipeSpec::bulk(256 * 1024),
            seed: 42,
            corrupt_at: Some(100_003),
        };
        let v = run(&w).expect_err("the verifier must notice");
        assert_eq!(v.offset, 100_003);
    }

    #[test]
    fn lossy_pipe_differs_across_seeds_only_through_loss_phase() {
        let at = |seed| {
            run(&PipeWorkload {
                spec: PipeSpec::lossy_vlbi(1200 * (LOSS_FREE_TAIL + 5000)),
                seed,
                corrupt_at: None,
            })
            .expect("clean transfer")
        };
        let (a, b, c) = (at(42), at(42), at(43));
        assert_eq!((a.dgrams, a.wire_bytes), (b.dgrams, b.wire_bytes));
        assert_ne!((a.dgrams, a.wire_bytes), (c.dgrams, c.wire_bytes));
        assert_eq!(
            a.failed, 0,
            "every message delivered, abandoned or TTL-dropped"
        );
        assert!(a.layer.retransmits > 0, "1 % loss must trigger recovery");
    }
}
