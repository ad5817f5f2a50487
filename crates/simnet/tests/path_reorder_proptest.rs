//! Property tests for [`qtp_simnet::path::PathModel`] reordering against a
//! naive oracle.
//!
//! The jitter draw stretches a packet's propagation by at most `jitter`,
//! and an unimpaired FIFO link delivers in send order — so a packet can
//! only be overtaken by packets whose nominal (unimpaired) arrival lies
//! within `jitter` of its own. The oracle recomputes every nominal arrival
//! from first principles (send offset + serialization + propagation; the
//! access link is fast enough that nothing queues) and checks the
//! max-displacement invariant pairwise, plus conservation and the
//! deterministic `(time, schedule-seq)` tie-break of the event loop.
//!
//! The second property is the byte-identity contract: a link carrying an
//! explicitly attached no-op model must replay *exactly* — same arrival
//! timestamps, same event count, same pool high-water — as a plain link,
//! for any seed and loss rate.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use proptest::prelude::*;
use qtp_simnet::prelude::*;

/// Sends `n` packets of `size` bytes at a fixed `gap`, starting at t=0.
struct Pacer {
    flow: FlowId,
    dst: NodeId,
    n: u64,
    size: u32,
    gap: Duration,
    sent: u64,
}

impl Agent for Pacer {
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

/// Records `(uid, arrival time)` for every delivered packet.
struct UidRecorder {
    arrivals: Rc<RefCell<Vec<(u64, SimTime)>>>,
}

impl Agent for UidRecorder {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
        self.arrivals.borrow_mut().push((pkt.uid, ctx.now));
    }
}

const N: u64 = 80;
const SIZE: u32 = 1000;
const PROP: Duration = Duration::from_millis(5);

/// Run `N` paced packets over one 100 Mbit/s link carrying `path`,
/// returning the delivered `(uid, time)` sequence.
fn run_paced(seed: u64, gap: Duration, path: PathModel) -> Vec<(u64, SimTime)> {
    let mut b = NetworkBuilder::new();
    let tx = b.host();
    let rx = b.host();
    b.simplex_link(
        tx,
        rx,
        LinkConfig::new(Rate::from_mbps(100), PROP).with_path(path),
    );
    let mut sim = b.build(seed);
    let flow = sim.register_flow();
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    sim.attach_agent(
        tx,
        Box::new(Pacer {
            flow,
            dst: rx,
            n: N,
            size: SIZE,
            gap,
            sent: 0,
        }),
    );
    sim.attach_agent(
        rx,
        Box::new(UidRecorder {
            arrivals: arrivals.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(10));
    let out = arrivals.borrow().clone();
    out
}

proptest! {
    #[test]
    fn reordering_matches_naive_oracle(
        seed in 0u64..1_000_000,
        p_pct in 10u32..=100,
        jitter_ms in 1u64..=40,
        gap_us in 200u64..2_000,
    ) {
        let jitter = Duration::from_millis(jitter_ms);
        let gap = Duration::from_micros(gap_us);
        let path = PathModel::none().with_reorder(f64::from(p_pct) / 100.0, jitter);
        let arrivals = run_paced(seed, gap, path);

        // Conservation: reordering never loses or duplicates a packet.
        prop_assert_eq!(arrivals.len() as u64, N);
        let mut uids: Vec<u64> = arrivals.iter().map(|&(u, _)| u).collect();
        uids.sort_unstable();
        prop_assert!(uids.iter().copied().eq(1..=N), "each uid exactly once");

        // Nothing queues at this rate/gap, so the oracle's nominal arrival
        // of packet `uid` is exact: send offset + serialization + PROP.
        let tx_time = Rate::from_mbps(100).tx_time(SIZE);
        let nominal =
            |uid: u64| SimTime::ZERO + gap * (uid - 1) as u32 + tx_time + PROP;

        // Per-packet delay bound: within [nominal, nominal + jitter].
        for &(uid, at) in &arrivals {
            prop_assert!(at >= nominal(uid), "uid {} early", uid);
            prop_assert!(
                at.saturating_since(nominal(uid)) <= jitter,
                "uid {} beyond the jitter bound",
                uid
            );
        }

        // Max displacement, pairwise against the oracle: whenever an
        // earlier-sent packet arrives after a later-sent one, their
        // nominal arrivals differ by less than the jitter bound.
        for (i, &(u, _)) in arrivals.iter().enumerate() {
            for &(v, _) in &arrivals[i + 1..] {
                if v < u {
                    prop_assert!(
                        nominal(u).saturating_since(nominal(v)) < jitter,
                        "uid {} overtook uid {} across more than one jitter",
                        u,
                        v
                    );
                }
            }
        }

        // Delivery order is exactly the oracle's stable (time, uid) sort:
        // equal-time arrivals were scheduled in uid order, and the event
        // loop breaks time ties by schedule sequence.
        let mut oracle = arrivals.clone();
        oracle.sort_by_key(|&(u, at)| (at, u));
        prop_assert_eq!(&arrivals, &oracle, "deterministic tie-break");
    }

    #[test]
    fn disabled_model_is_byte_identical(
        seed in 0u64..1_000_000,
        loss_pct in 0u32..=40,
        gap_us in 200u64..2_000,
    ) {
        // An attached-but-disabled PathModel must make zero RNG draws and
        // schedule exactly the events of a plain link: identical arrival
        // sequence (uids *and* timestamps), event count, and pool usage.
        let gap = Duration::from_micros(gap_us);
        let run = |with_model: bool| {
            let mut b = NetworkBuilder::new();
            let tx = b.host();
            let rx = b.host();
            let mut cfg = LinkConfig::new(Rate::from_mbps(100), PROP)
                .with_loss(LossModel::bernoulli(f64::from(loss_pct) / 100.0));
            if with_model {
                // Degenerate knobs: zero-probability duplication,
                // reordering with zero jitter.
                cfg = cfg.with_path(
                    PathModel::none()
                        .with_reorder(0.5, Duration::ZERO)
                        .with_duplicate(0.0),
                );
            }
            b.simplex_link(tx, rx, cfg);
            let mut sim = b.build(seed);
            let flow = sim.register_flow();
            let arrivals = Rc::new(RefCell::new(Vec::new()));
            sim.attach_agent(
                tx,
                Box::new(Pacer {
                    flow,
                    dst: rx,
                    n: N,
                    size: SIZE,
                    gap,
                    sent: 0,
                }),
            );
            sim.attach_agent(
                rx,
                Box::new(UidRecorder {
                    arrivals: arrivals.clone(),
                }),
            );
            sim.run_until(SimTime::from_secs(10));
            let events = sim.events_processed();
            let pool = sim.packet_pool_high_water();
            let out = arrivals.borrow().clone();
            (out, events, pool)
        };
        prop_assert_eq!(run(false), run(true));
    }
}
