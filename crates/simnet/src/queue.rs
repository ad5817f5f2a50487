//! Link egress queues and active queue management.
//!
//! Two disciplines are provided:
//!
//! * [`DropTailQueue`] — FIFO with a packet limit.
//! * [`RioQueue`] — RED with In/Out (coupled "RIO-C"), the standard core
//!   queue for DiffServ Assured Forwarding: green (in-profile) packets are
//!   judged against the *in* average and thresholds, red (out-of-profile)
//!   packets against the *total* average with more aggressive thresholds,
//!   so congestion discards out-of-profile traffic first. Each average is
//!   one Random Early Detection estimator in the classic ns-2 formulation
//!   (EWMA average queue, count-corrected drop probability, optional
//!   "gentle" ramp above `max_th`), configured by a [`RedParams`].
//!
//! Queues are deliberately passive: they decide accept/drop at enqueue time
//! and hand packets back at dequeue time; the link owns serialization timing.
//! A queue holds no packets of its own: its FIFO is threaded through the
//! [`PacketArena`] slots of the packets it queues (see [`crate::arena`]), so
//! a queue is a few words and never allocates, and every enqueue and
//! dequeue is handed the arena.

use crate::arena::{PacketArena, PacketFifo, PacketId};
use crate::packet::Color;
use crate::rng::DetRng;
use crate::time::SimTime;

/// Why a queue refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Hard limit reached (tail drop).
    QueueFull,
    /// RED/RIO probabilistic early drop.
    EarlyDrop,
    /// RED/RIO forced drop (average beyond hard threshold).
    ForcedDrop,
    /// Lost by the link's loss model (never produced by queues; shares the
    /// enum so statistics can aggregate every loss cause).
    LinkLoss,
}

/// Configuration for any of the supported queue disciplines.
#[derive(Debug, Clone)]
pub enum QueueConfig {
    /// FIFO limited to a number of packets.
    DropTailPkts(usize),
    /// Two-average RED with In/Out (DiffServ AF core queue).
    Rio(RioParams),
}

impl QueueConfig {
    /// Instantiate the discipline.
    pub fn build(&self) -> AqmQueue {
        match self {
            QueueConfig::DropTailPkts(n) => AqmQueue::DropTail(DropTailQueue::with_pkt_limit(*n)),
            QueueConfig::Rio(p) => AqmQueue::Rio(Box::new(RioQueue::new(p.clone()))),
        }
    }
}

/// A queue discipline instance. Enum dispatch keeps the hot path free of
/// virtual calls and the set of disciplines is closed by design. RIO's
/// state is boxed: every access link is drop-tail, and a link should not
/// carry a RIO's worth of bytes it never uses.
#[derive(Debug)]
pub enum AqmQueue {
    DropTail(DropTailQueue),
    Rio(Box<RioQueue>),
}

impl AqmQueue {
    /// Offer the live packet `id`, whose color is final, to the queue. On
    /// a drop the caller still holds the packet.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        id: PacketId,
        arena: &mut PacketArena,
        rng: &mut DetRng,
    ) -> Result<(), DropReason> {
        match self {
            AqmQueue::DropTail(q) => q.enqueue(id, arena),
            AqmQueue::Rio(q) => q.enqueue(now, id, arena, rng),
        }
    }

    /// Remove the next packet to transmit.
    pub fn dequeue(&mut self, now: SimTime, arena: &mut PacketArena) -> Option<PacketId> {
        match self {
            AqmQueue::DropTail(q) => q.fifo.pop(arena),
            AqmQueue::Rio(q) => q.dequeue(now, arena),
        }
    }

    /// Packets currently queued.
    pub fn len_pkts(&self) -> usize {
        match self {
            AqmQueue::DropTail(q) => q.fifo.len(),
            AqmQueue::Rio(q) => q.fifo.len(),
        }
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len_pkts() == 0
    }
}

/// Plain FIFO with a hard packet limit.
#[derive(Debug)]
pub struct DropTailQueue {
    fifo: PacketFifo,
    limit_pkts: usize,
}

impl DropTailQueue {
    /// FIFO bounded by packet count.
    pub fn with_pkt_limit(limit: usize) -> Self {
        DropTailQueue {
            fifo: PacketFifo::new(),
            limit_pkts: limit,
        }
    }

    fn enqueue(&mut self, id: PacketId, arena: &mut PacketArena) -> Result<(), DropReason> {
        if self.fifo.len() + 1 > self.limit_pkts {
            return Err(DropReason::QueueFull);
        }
        self.fifo.push(arena, id);
        Ok(())
    }
}

/// RED parameters (thresholds in packets, as in ns-2's default mode).
#[derive(Debug, Clone)]
pub struct RedParams {
    /// Average queue length below which no packet is dropped.
    pub min_th: f64,
    /// Average queue length above which every packet is dropped (or, with
    /// `gentle`, the start of the ramp toward certain drop at `2*max_th`).
    pub max_th: f64,
    /// Maximum early-drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue size.
    pub w_q: f64,
    /// Hard limit in packets (tail drop beyond this).
    pub limit_pkts: usize,
    /// Gentle mode: linear ramp `max_p → 1` between `max_th` and `2*max_th`
    /// instead of a cliff.
    pub gentle: bool,
    /// Mean packet transmission time, used to age the average across idle
    /// periods (ns-2's `ptc` idle compensation).
    pub mean_pkt_time_s: f64,
}

impl Default for RedParams {
    fn default() -> Self {
        RedParams {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            w_q: 0.002,
            limit_pkts: 60,
            gentle: true,
            mean_pkt_time_s: 0.001,
        }
    }
}

/// The EWMA/count state RED keeps per managed average; RIO runs two.
#[derive(Debug, Clone)]
struct RedVar {
    avg: f64,
    /// Packets since the last early drop; drives the count correction that
    /// spaces drops out evenly.
    count: i64,
}

impl RedVar {
    fn new() -> Self {
        RedVar {
            avg: 0.0,
            count: -1,
        }
    }

    /// Update the average on packet arrival given the instantaneous queue
    /// length `q` (in packets).
    fn update_avg(&mut self, q: f64, w_q: f64, idle: Option<f64>, mean_pkt_time_s: f64) {
        if let Some(idle_s) = idle {
            // Queue was idle: decay the average as if `m` small packets had
            // been transmitted through an empty queue.
            let m = (idle_s / mean_pkt_time_s).max(0.0);
            self.avg *= (1.0 - w_q).powf(m);
        }
        self.avg = (1.0 - w_q) * self.avg + w_q * q;
    }

    /// Decide whether to early/force-drop at the current average.
    fn drop_decision(&mut self, p: &RedParams, rng: &mut DetRng) -> Option<DropReason> {
        let hard_max = if p.gentle { 2.0 * p.max_th } else { p.max_th };
        if self.avg < p.min_th {
            self.count = -1;
            return None;
        }
        if self.avg >= hard_max {
            self.count = 0;
            return Some(DropReason::ForcedDrop);
        }
        // Base probability p_b.
        let p_b = if self.avg < p.max_th {
            p.max_p * (self.avg - p.min_th) / (p.max_th - p.min_th)
        } else {
            // gentle region
            p.max_p + (1.0 - p.max_p) * (self.avg - p.max_th) / p.max_th
        };
        self.count += 1;
        // Count correction: p_a = p_b / (1 - count * p_b).
        let denom = 1.0 - self.count as f64 * p_b;
        let p_a = if denom <= 0.0 {
            1.0
        } else {
            (p_b / denom).min(1.0)
        };
        if rng.chance(p_a) {
            self.count = 0;
            Some(DropReason::EarlyDrop)
        } else {
            None
        }
    }
}

/// RIO-C parameters: separate RED parameter sets for in-profile (green)
/// traffic and for the aggregate.
#[derive(Debug, Clone)]
pub struct RioParams {
    /// Thresholds applied to *green* packets against the green-only average.
    pub in_params: RedParams,
    /// Thresholds applied to red packets against the *total* average.
    /// Conventionally more aggressive (`min_th_out < min_th_in`).
    pub out_params: RedParams,
}

impl Default for RioParams {
    fn default() -> Self {
        // Clark & Fang style: OUT thresholds below IN so out-of-profile
        // traffic absorbs the early discards, with moderate max_p so TCP
        // sees spaced single drops rather than RTO-inducing bursts (the
        // parameterization the AF assurance studies use).
        let in_params = RedParams {
            min_th: 50.0,
            max_th: 90.0,
            max_p: 0.02,
            w_q: 0.002,
            limit_pkts: 120,
            gentle: true,
            mean_pkt_time_s: 0.001,
        };
        let out_params = RedParams {
            min_th: 15.0,
            max_th: 45.0,
            max_p: 0.1,
            w_q: 0.002,
            limit_pkts: 120,
            gentle: true,
            mean_pkt_time_s: 0.001,
        };
        RioParams {
            in_params,
            out_params,
        }
    }
}

/// RED with In/Out, coupled variant (RIO-C).
#[derive(Debug)]
pub struct RioQueue {
    params: RioParams,
    in_var: RedVar,
    total_var: RedVar,
    fifo: PacketFifo,
    in_pkts: usize,
    idle_since: Option<SimTime>,
}

impl RioQueue {
    pub fn new(params: RioParams) -> Self {
        RioQueue {
            params,
            in_var: RedVar::new(),
            total_var: RedVar::new(),
            fifo: PacketFifo::new(),
            in_pkts: 0,
            idle_since: Some(SimTime::ZERO),
        }
    }

    /// Current (in, total) average queue estimates.
    pub fn avgs(&self) -> (f64, f64) {
        (self.in_var.avg, self.total_var.avg)
    }

    fn enqueue(
        &mut self,
        now: SimTime,
        id: PacketId,
        arena: &mut PacketArena,
        rng: &mut DetRng,
    ) -> Result<(), DropReason> {
        let idle = self
            .idle_since
            .take()
            .map(|t| now.saturating_since(t).as_secs_f64());
        let is_in = arena.get(id).color == Color::Green;
        // The total average always advances; the in average only when an
        // in-profile packet arrives (Clark & Fang).
        self.total_var.update_avg(
            self.fifo.len() as f64,
            self.params.out_params.w_q,
            idle,
            self.params.out_params.mean_pkt_time_s,
        );
        if is_in {
            self.in_var.update_avg(
                self.in_pkts as f64,
                self.params.in_params.w_q,
                idle,
                self.params.in_params.mean_pkt_time_s,
            );
        }
        let decision = if is_in {
            self.in_var.drop_decision(&self.params.in_params, rng)
        } else {
            self.total_var.drop_decision(&self.params.out_params, rng)
        };
        if let Some(reason) = decision {
            return Err(reason);
        }
        let limit = if is_in {
            self.params.in_params.limit_pkts
        } else {
            self.params.out_params.limit_pkts
        };
        if self.fifo.len() + 1 > limit {
            return Err(DropReason::QueueFull);
        }
        if is_in {
            self.in_pkts += 1;
        }
        self.fifo.push(arena, id);
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime, arena: &mut PacketArena) -> Option<PacketId> {
        let id = self.fifo.pop(arena)?;
        if arena.get(id).color == Color::Green {
            self.in_pkts -= 1;
        }
        if self.fifo.len() == 0 {
            self.idle_since = Some(now);
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::time::SimTime;

    /// A live packet of `color` in `arena`, ready to queue.
    fn pkt(arena: &mut PacketArena, uid: u64, size: u32, color: Color) -> PacketId {
        let mut p = Packet::new(uid, 0, 0, 1, size, SimTime::ZERO, Vec::new());
        p.color = color;
        arena.alloc(p)
    }

    /// A RIO queue whose in and out estimators share `params`: all-green
    /// traffic exercises the in estimator alone, all-red the total one, so
    /// each behaves as one single-average RED queue.
    fn red_as_rio(params: RedParams) -> RioQueue {
        RioQueue::new(RioParams {
            in_params: params.clone(),
            out_params: params,
        })
    }

    #[test]
    fn droptail_respects_pkt_limit() {
        let mut q = QueueConfig::DropTailPkts(2).build();
        let mut rng = DetRng::new(1);
        let mut a = PacketArena::new();
        assert!(q
            .enqueue(
                SimTime::ZERO,
                pkt(&mut a, 1, 100, Color::Green),
                &mut a,
                &mut rng
            )
            .is_ok());
        assert!(q
            .enqueue(
                SimTime::ZERO,
                pkt(&mut a, 2, 100, Color::Green),
                &mut a,
                &mut rng
            )
            .is_ok());
        let third = pkt(&mut a, 3, 100, Color::Green);
        let err = q.enqueue(SimTime::ZERO, third, &mut a, &mut rng);
        assert_eq!(err, Err(DropReason::QueueFull));
        assert_eq!(
            a.get(third).uid,
            3,
            "the caller still holds the dropped packet"
        );
        assert_eq!(q.len_pkts(), 2);
    }

    #[test]
    fn droptail_fifo_order() {
        let mut q = QueueConfig::DropTailPkts(10).build();
        let mut rng = DetRng::new(1);
        let mut a = PacketArena::new();
        for i in 0..5 {
            q.enqueue(
                SimTime::ZERO,
                pkt(&mut a, i, 100, Color::Green),
                &mut a,
                &mut rng,
            )
            .unwrap();
        }
        for i in 0..5 {
            let id = q.dequeue(SimTime::ZERO, &mut a).unwrap();
            assert_eq!(a.get(id).uid, i);
        }
        assert!(q.dequeue(SimTime::ZERO, &mut a).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn red_no_drops_below_min_threshold() {
        let params = RedParams {
            min_th: 100.0,
            max_th: 200.0,
            limit_pkts: 1000,
            ..RedParams::default()
        };
        let mut q = red_as_rio(params);
        let mut rng = DetRng::new(7);
        let mut a = PacketArena::new();
        // Instantaneous queue stays far below min_th=100, for both the
        // total (red) and the in (green) estimator.
        for i in 0..50 {
            let color = if i < 25 { Color::Red } else { Color::Green };
            assert!(q
                .enqueue(SimTime::ZERO, pkt(&mut a, i, 100, color), &mut a, &mut rng)
                .is_ok());
        }
    }

    #[test]
    fn red_forces_drops_at_saturated_average() {
        // Tiny thresholds and a huge EWMA weight drive avg up immediately.
        let params = RedParams {
            min_th: 1.0,
            max_th: 2.0,
            max_p: 1.0,
            w_q: 1.0,
            limit_pkts: 1000,
            gentle: false,
            mean_pkt_time_s: 0.001,
        };
        let mut q = red_as_rio(params);
        let mut rng = DetRng::new(7);
        let mut a = PacketArena::new();
        let mut dropped = 0;
        // Out-of-profile traffic: the total estimator decides.
        for i in 0..100 {
            if q.enqueue(
                SimTime::ZERO,
                pkt(&mut a, i, 100, Color::Red),
                &mut a,
                &mut rng,
            )
            .is_err()
            {
                dropped += 1;
            }
        }
        assert!(dropped > 50, "dropped={dropped}");
    }

    #[test]
    fn red_average_decays_when_idle() {
        let params = RedParams {
            w_q: 0.5,
            mean_pkt_time_s: 0.001,
            limit_pkts: 1000,
            min_th: 1000.0, // never drop; we only observe the average
            max_th: 2000.0,
            ..RedParams::default()
        };
        let mut q = red_as_rio(params);
        let mut rng = DetRng::new(7);
        let mut a = PacketArena::new();
        for i in 0..20 {
            q.enqueue(
                SimTime::ZERO,
                pkt(&mut a, i, 100, Color::Green),
                &mut a,
                &mut rng,
            )
            .unwrap();
        }
        let avg_busy = q.avgs().0;
        assert!(avg_busy > 1.0);
        // Drain, then come back after one second of idleness.
        while q.dequeue(SimTime::from_millis(1), &mut a).is_some() {}
        q.enqueue(
            SimTime::from_secs(1),
            pkt(&mut a, 99, 100, Color::Green),
            &mut a,
            &mut rng,
        )
        .unwrap();
        let avg_in = q.avgs().0;
        assert!(
            avg_in < avg_busy * 0.01,
            "idle decay should collapse the average: {avg_in} vs {avg_busy}"
        );
    }

    #[test]
    fn rio_discards_out_before_in() {
        // Hold the queue near 25 packets: that is above the OUT thresholds
        // (min 10, max 30) but below the IN minimum (40), so red packets are
        // early-dropped while green packets sail through. Parameters pinned
        // explicitly so the test is independent of the defaults.
        let params = RioParams {
            in_params: RedParams {
                min_th: 40.0,
                max_th: 70.0,
                max_p: 0.02,
                w_q: 0.002,
                limit_pkts: 100,
                gentle: true,
                mean_pkt_time_s: 0.001,
            },
            out_params: RedParams {
                min_th: 10.0,
                max_th: 30.0,
                max_p: 0.5,
                w_q: 0.002,
                limit_pkts: 100,
                gentle: true,
                mean_pkt_time_s: 0.001,
            },
        };
        let mut q = RioQueue::new(params);
        let mut rng = DetRng::new(11);
        let mut a = PacketArena::new();
        // Build a 25-packet backlog of green (below every IN threshold).
        for i in 0..25u64 {
            q.enqueue(
                SimTime::ZERO,
                pkt(&mut a, i, 1000, Color::Green),
                &mut a,
                &mut rng,
            )
            .unwrap();
        }
        let mut dropped = [0u32; 2];
        let mut offered = [0u32; 2];
        for i in 25..8000u64 {
            let color = if i % 2 == 0 { Color::Green } else { Color::Red };
            offered[color.index()] += 1;
            let accepted = q
                .enqueue(SimTime::ZERO, pkt(&mut a, i, 1000, color), &mut a, &mut rng)
                .is_ok();
            if !accepted {
                dropped[color.index()] += 1;
            } else {
                // One-in-one-out keeps occupancy pinned at ~25.
                q.dequeue(SimTime::ZERO, &mut a);
            }
        }
        let red_rate = dropped[Color::Red.index()] as f64 / offered[Color::Red.index()] as f64;
        let green_rate =
            dropped[Color::Green.index()] as f64 / offered[Color::Green.index()] as f64;
        assert!(red_rate > 0.05, "red should see early drops: {red_rate:.3}");
        assert!(
            green_rate < red_rate / 10.0,
            "green drop rate {green_rate:.4} should be far below red {red_rate:.3}"
        );
    }

    #[test]
    fn rio_in_average_only_counts_green() {
        let mut q = RioQueue::new(RioParams {
            in_params: RedParams {
                w_q: 1.0,
                min_th: 1000.0,
                max_th: 2000.0,
                limit_pkts: 10_000,
                ..RedParams::default()
            },
            out_params: RedParams {
                w_q: 1.0,
                min_th: 1000.0,
                max_th: 2000.0,
                limit_pkts: 10_000,
                ..RedParams::default()
            },
        });
        let mut rng = DetRng::new(13);
        let mut a = PacketArena::new();
        for i in 0..10u64 {
            q.enqueue(
                SimTime::ZERO,
                pkt(&mut a, i, 100, Color::Red),
                &mut a,
                &mut rng,
            )
            .unwrap();
        }
        let (avg_in, avg_total) = q.avgs();
        assert_eq!(avg_in, 0.0, "no green packet arrived yet");
        assert!(avg_total > 0.0);
    }

    #[test]
    fn red_count_spacing_reduces_burst_drops() {
        // With the count correction, consecutive early drops should be rare:
        // measure the longest run of consecutive drops in the early-drop band.
        let params = RedParams {
            min_th: 2.0,
            max_th: 50.0,
            max_p: 0.1,
            w_q: 1.0, // avg == instantaneous queue
            limit_pkts: 1000,
            gentle: true,
            mean_pkt_time_s: 0.001,
        };
        let mut q = red_as_rio(params);
        let mut rng = DetRng::new(5);
        let mut a = PacketArena::new();
        // Hold the queue around 26 packets -> p_b ~ 0.05.
        for i in 0..26 {
            let _ = q.enqueue(
                SimTime::ZERO,
                pkt(&mut a, i, 100, Color::Green),
                &mut a,
                &mut rng,
            );
        }
        let mut longest_run = 0;
        let mut run = 0;
        for i in 26..5000u64 {
            let res = q.enqueue(
                SimTime::ZERO,
                pkt(&mut a, i, 100, Color::Green),
                &mut a,
                &mut rng,
            );
            if res.is_err() {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 0;
                q.dequeue(SimTime::ZERO, &mut a); // keep occupancy constant
            }
        }
        assert!(longest_run <= 3, "longest_run={longest_run}");
    }
}
