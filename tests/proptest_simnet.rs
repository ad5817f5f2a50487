//! Property tests for the simulator: determinism (the foundation of every
//! experiment's reproducibility), packet conservation, queue-bound respect
//! under randomized workloads, and scheduler exactness (the calendar queue
//! is an order-preserving drop-in for the binary heap it replaced).

use proptest::prelude::*;
use qtp::simnet::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Run a two-pair dumbbell with two CBR sources (the second at two thirds
/// of the first's rate, starting 3 ms later so the two never move in lock
/// step) over a bottleneck with Bernoulli loss `loss_p`; return the full
/// flow counter tuple for determinism comparison.
fn run(seed: u64, rate_kbps: u64, loss_p: f64, queue_pkts: usize) -> Vec<(u64, u64, u64, u64)> {
    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_rate: Rate::from_mbps(2),
        bottleneck_delay: Duration::from_millis(5),
        bottleneck_queue: QueueConfig::DropTailPkts(queue_pkts),
        ..DumbbellConfig::default()
    };
    let (mut sim, net) = Dumbbell::build(&cfg, seed);
    sim.set_link_loss(net.bottleneck, LossModel::bernoulli(loss_p));
    let f0 = sim.register_flow();
    let f1 = sim.register_flow();
    sim.attach_agent(
        net.senders[0],
        Box::new(CbrSource::new(
            f0,
            net.receivers[0],
            500,
            Rate::from_kbps(rate_kbps),
        )),
    );
    sim.attach_agent(
        net.senders[1],
        Box::new(
            CbrSource::new(
                f1,
                net.receivers[1],
                500,
                Rate::from_kbps(rate_kbps * 2 / 3 + 1),
            )
            .active(SimTime::from_millis(3), SimTime::MAX),
        ),
    );
    sim.attach_agent(net.receivers[0], Box::new(Sink));
    sim.attach_agent(net.receivers[1], Box::new(Sink));
    sim.run_until(SimTime::from_secs(10));
    (0..2)
        .map(|f| {
            let st = sim.stats().flow(f as u32);
            (
                st.pkts_sent,
                st.pkts_arrived,
                st.pkts_dropped,
                st.bytes_app_delivered,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed and parameters ⇒ bit-identical outcome.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        rate in 100u64..3_000,
        loss in 0.0f64..0.2,
        queue in 2usize..100,
    ) {
        prop_assert_eq!(run(seed, rate, loss, queue), run(seed, rate, loss, queue));
    }

    /// Conservation: arrived + dropped ≤ sent (the rest is in flight), and
    /// the sink never delivers more than arrived — with queue drops and
    /// link-loss drops both counted.
    #[test]
    fn packets_are_conserved(
        seed in any::<u64>(),
        rate in 100u64..4_000,
        loss in 0.0f64..0.2,
        queue in 2usize..100,
    ) {
        for (sent, arrived, dropped, app) in run(seed, rate, loss, queue) {
            prop_assert!(arrived + dropped <= sent);
            prop_assert!(app <= arrived * 500);
            // In-flight remainder is bounded by queue + links.
            prop_assert!(sent - arrived - dropped < 300);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A drop-tail queue never exceeds its configured packet limit.
    #[test]
    fn droptail_respects_limit(
        limit in 1usize..50,
        arrivals in prop::collection::vec(100u32..1_500, 1..200),
    ) {
        let mut q = QueueConfig::DropTailPkts(limit).build();
        let mut rng = DetRng::new(1);
        let mut arena = PacketArena::new();
        for (i, size) in arrivals.iter().enumerate() {
            let p = Packet::new(i as u64, 0, 0, 1, *size, SimTime::ZERO, Vec::new());
            let id = arena.alloc(p);
            if q.enqueue(SimTime::ZERO, id, &mut arena, &mut rng).is_err() {
                arena.release(id);
            }
            prop_assert!(q.len_pkts() <= limit);
        }
    }

    /// The calendar queue pops exactly what a `BinaryHeap` keyed by
    /// `(time, seq)` would, under arbitrary interleavings of pushes and
    /// pops — including pushes behind the calendar's current day, bursts
    /// of equal timestamps (which must come back in insertion order, since
    /// `seq` increases monotonically), and far-future outliers that force
    /// the direct-scan day jump. Then grow → shrink → grow waves carry the
    /// queue across both resize thresholds with live entries left in their
    /// buckets, so every resize relinks nodes of the bucket slab.
    #[test]
    fn calendar_queue_is_a_drop_in_for_binary_heap(
        ops in prop::collection::vec((0u32..13, 0u64..5_000_000), 1..600),
        waves in prop::collection::vec((100usize..1_500, 1u64..200_000, 0usize..40), 3..6),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (sel, raw) in ops {
            // Weighted toward pushes so the queue grows through resize
            // thresholds; timestamps mix three scales (same-tick bursts,
            // short horizons, wide spreads) plus a far-future outlier, so
            // bucket widths from 1 to millions all get exercised.
            let at = match sel {
                0..=2 => Some(raw % 50),
                3..=5 => Some(raw % 5_000),
                6..=7 => Some(raw),
                8 => Some(u64::MAX - 1),
                _ => None, // pop
            };
            match at {
                Some(at) => {
                    seq += 1;
                    cal.push(at, seq, seq);
                    heap.push(Reverse((at, seq)));
                }
                None => {
                    let want = heap.pop().map(|Reverse((at, s))| (at, s, s));
                    prop_assert_eq!(cal.pop(), want);
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Even waves grow by `n` events spread over `span` past the last
        // popped time; odd waves pop down to `keep` events.
        let mut now = 0u64;
        for (k, &(n, span, keep)) in waves.iter().enumerate() {
            if k % 2 == 0 {
                for j in 0..n as u64 {
                    seq += 1;
                    let at = now.saturating_add((j * 7919 + seq) % span);
                    cal.push(at, seq, seq);
                    heap.push(Reverse((at, seq)));
                }
            } else {
                while heap.len() > keep {
                    let want = heap.pop().map(|Reverse((at, s))| (at, s, s));
                    prop_assert_eq!(cal.pop(), want);
                    now = want.map_or(now, |(at, ..)| at);
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Drain: remaining contents must agree in full pop order.
        while let Some(Reverse((at, s))) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some((at, s, s)));
        }
        prop_assert!(cal.is_empty());
    }

    /// Gilbert–Elliott long-run loss tracks its analytic stationary value.
    #[test]
    fn gilbert_elliott_stationary(
        p_gb in 0.001f64..0.2,
        p_bg in 0.05f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut m = LossModel::gilbert_elliott(p_gb, p_bg, 0.0, 0.8);
        let expect = m.steady_state_loss();
        let mut rng = DetRng::new(seed);
        let n = 150_000;
        let lost = (0..n).filter(|_| m.is_lost(&mut rng)).count();
        let measured = lost as f64 / n as f64;
        prop_assert!(
            (measured - expect).abs() < 0.02 + expect * 0.2,
            "measured {measured}, analytic {expect}"
        );
    }
}
