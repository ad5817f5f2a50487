//! TCP sender agent: NewReno congestion control with optional SACK-based
//! loss recovery, at packet granularity (sequence numbers count segments,
//! as in the ns-2 models every study this paper builds on used).
//!
//! Implements:
//! * slow start / congestion avoidance (packet-counted cwnd),
//! * fast retransmit on three duplicate acks,
//! * NewReno fast recovery with partial-ack retransmission and window
//!   inflation/deflation (RFC 6582),
//! * SACK recovery using the scoreboard "pipe" algorithm (RFC 6675) when
//!   the flavor is [`TcpFlavor::Sack`],
//! * RFC 6298 retransmission timeouts with exponential backoff,
//! * RTT sampling from echoed timestamps (RFC 7323 style).

use qtp_sack::{Scoreboard, SeqRange};
use qtp_simnet::prelude::*;

use crate::rto::RtoEstimator;
use crate::wire::{header_wire_size, TcpHeader, TcpKind, IP_OVERHEAD};

/// Loss-recovery flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpFlavor {
    /// RFC 6582 NewReno: cumulative acks only.
    NewReno,
    /// RFC 6675-style SACK recovery (receiver must enable SACK too).
    Sack,
}

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Payload bytes per segment.
    pub mss: u32,
    /// Recovery flavor.
    pub flavor: TcpFlavor,
    /// Initial congestion window in segments.
    pub initial_cwnd: f64,
    /// Receiver window cap in segments (memory bound; effectively infinite
    /// by default).
    pub rwnd: f64,
    /// Stop after this many data segments (`None`: greedy FTP source).
    pub limit: Option<u64>,
}

impl TcpConfig {
    pub fn new(flavor: TcpFlavor) -> Self {
        TcpConfig {
            mss: 1000,
            flavor,
            initial_cwnd: 2.0,
            rwnd: 10_000.0,
            limit: None,
        }
    }
}

/// TCP sender state machine + simnet agent.
pub struct TcpSender {
    flow: FlowId,
    receiver_node: NodeId,
    cfg: TcpConfig,
    /// Scoreboard: send times, SACK bookkeeping, loss declarations.
    sb: Scoreboard,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    /// `next_seq` at the moment recovery began; acks beyond it end recovery.
    recover: u64,
    rto: RtoEstimator,
    /// Generation counter distinguishing live from stale RTO timers.
    timer_gen: u64,
    /// Whether an RTO timer is conceptually armed.
    timer_armed: bool,
    /// Statistics: retransmissions performed.
    pub retransmissions: u64,
    /// Statistics: timeouts suffered.
    pub timeouts: u64,
}

impl TcpSender {
    pub fn new(flow: FlowId, receiver_node: NodeId, cfg: TcpConfig) -> Self {
        let cwnd = cfg.initial_cwnd;
        TcpSender {
            flow,
            receiver_node,
            cfg,
            sb: Scoreboard::new(),
            cwnd,
            ssthresh: 1e9,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            rto: RtoEstimator::new(),
            timer_gen: 0,
            timer_armed: false,
            retransmissions: 0,
            timeouts: 0,
        }
    }

    /// Current congestion window (segments).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Has the configured transfer completed (limit reached and all acked)?
    pub fn finished(&self) -> bool {
        match self.cfg.limit {
            Some(limit) => self.sb.cum_ack() >= limit,
            None => false,
        }
    }

    fn window(&self) -> f64 {
        self.cwnd.min(self.cfg.rwnd)
    }

    /// Packets out in the network, flavor-appropriate.
    fn outstanding(&self) -> f64 {
        match self.cfg.flavor {
            // NewReno has no per-segment knowledge: everything unacked
            // counts (window inflation compensates during recovery).
            TcpFlavor::NewReno => (self.sb.next_seq() - self.sb.cum_ack()) as f64,
            // SACK pipe: unacked minus sacked minus declared-lost-unsent.
            TcpFlavor::Sack => self.sb.in_flight() as f64,
        }
    }

    fn data_wire_size(&self) -> u32 {
        self.cfg.mss + header_wire_size(0) + IP_OVERHEAD
    }

    fn send_new_segment(&mut self, ctx: &mut Ctx) {
        let seq = self.sb.register_send(ctx.now);
        let h = TcpHeader::data(seq, ctx.now.as_nanos());
        ctx.send_new(
            self.flow,
            self.receiver_node,
            self.data_wire_size(),
            &h.encode(),
        );
    }

    fn send_retransmission(&mut self, ctx: &mut Ctx, seq: u64) {
        self.sb.register_retransmit(seq, ctx.now);
        self.retransmissions += 1;
        let h = TcpHeader::data(seq, ctx.now.as_nanos());
        ctx.send_new(
            self.flow,
            self.receiver_node,
            self.data_wire_size(),
            &h.encode(),
        );
    }

    /// Transmit whatever the window currently allows.
    fn try_send(&mut self, ctx: &mut Ctx) {
        loop {
            // SACK mode: retransmissions have strict priority (RFC 6675).
            if self.cfg.flavor == TcpFlavor::Sack {
                if self.outstanding() >= self.window().floor() {
                    break;
                }
                if let Some(seq) = self.sb.next_lost() {
                    self.send_retransmission(ctx, seq);
                    continue;
                }
            }
            let can_new = match self.cfg.limit {
                Some(limit) => self.sb.next_seq() < limit,
                None => true,
            };
            if !can_new || self.outstanding() >= self.window().floor() {
                break;
            }
            self.send_new_segment(ctx);
        }
        if !self.timer_armed && !self.sb.all_acked() {
            self.arm_timer(ctx);
        }
    }

    fn arm_timer(&mut self, ctx: &mut Ctx) {
        self.timer_gen += 1;
        self.timer_armed = true;
        ctx.set_timer_in(self.rto.rto(), self.timer_gen);
    }

    fn disarm_timer(&mut self) {
        self.timer_gen += 1;
        self.timer_armed = false;
    }

    fn enter_recovery(&mut self, ctx: &mut Ctx) {
        self.ssthresh = (self.outstanding() / 2.0).max(2.0);
        self.recover = self.sb.next_seq();
        self.in_recovery = true;
        match self.cfg.flavor {
            TcpFlavor::NewReno => {
                // Retransmit the presumed-lost head and inflate.
                self.cwnd = self.ssthresh + 3.0;
                let head = self.sb.cum_ack();
                self.send_retransmission(ctx, head);
            }
            TcpFlavor::Sack => {
                // Pipe-based: cwnd pinned to ssthresh, scoreboard supplies
                // the retransmission queue.
                self.cwnd = self.ssthresh;
            }
        }
    }

    fn exit_recovery(&mut self) {
        self.cwnd = self.ssthresh;
        self.in_recovery = false;
        self.dupacks = 0;
    }

    fn on_ack(&mut self, ctx: &mut Ctx, h: &TcpHeader) {
        // RTT sample from the echoed timestamp (RFC 7323: TSecr is the
        // TSval of the segment that triggered this ack).
        if h.ts_nanos > 0 {
            let sample = ctx.now.saturating_since(SimTime::from_nanos(h.ts_nanos));
            if !sample.is_zero() {
                self.rto.on_sample(sample);
            }
        }

        let prev_cum = self.sb.cum_ack();
        self.sb.on_feedback(h.ack, &h.sack_blocks);

        if h.ack > prev_cum {
            // ---- New data acknowledged ----
            let newly = (h.ack - prev_cum) as f64;
            if self.in_recovery {
                if h.ack >= self.recover {
                    self.exit_recovery();
                } else {
                    // NewReno partial ack: retransmit the next hole and
                    // deflate by the amount acked (RFC 6582).
                    if self.cfg.flavor == TcpFlavor::NewReno {
                        let head = self.sb.cum_ack();
                        self.send_retransmission(ctx, head);
                        self.cwnd = (self.cwnd - newly + 1.0).max(1.0);
                    }
                    // SACK mode: scoreboard retransmissions flow in
                    // try_send; cwnd stays at ssthresh.
                }
            } else {
                self.dupacks = 0;
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly; // slow start
                } else {
                    self.cwnd += newly / self.cwnd; // congestion avoidance
                }
            }
            // Restart the RTO for the new oldest outstanding data.
            if self.sb.all_acked() && self.finished_sending() {
                self.disarm_timer();
            } else {
                self.arm_timer(ctx);
            }
        } else {
            // ---- Duplicate ack ----
            self.dupacks += 1;
            let sack_loss = self.cfg.flavor == TcpFlavor::Sack && !self.sb.newly_lost().is_empty();
            if !self.in_recovery && (self.dupacks >= 3 || sack_loss) {
                self.enter_recovery(ctx);
            } else if self.in_recovery && self.cfg.flavor == TcpFlavor::NewReno {
                self.cwnd += 1.0; // window inflation per extra dupack
            }
        }
        self.try_send(ctx);
    }

    fn finished_sending(&self) -> bool {
        match self.cfg.limit {
            Some(limit) => self.sb.next_seq() >= limit,
            None => false,
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx) {
        self.timeouts += 1;
        self.rto.on_timeout();
        self.ssthresh = (self.outstanding() / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.in_recovery = false;
        self.dupacks = 0;
        // Pull everything back: unsacked outstanding data is presumed lost.
        if self.cfg.flavor == TcpFlavor::Sack {
            self.sb
                .force_mark_lost(SeqRange::new(self.sb.cum_ack(), self.sb.next_seq()));
            // try_send will retransmit the head (window = 1).
            self.arm_timer(ctx);
            self.try_send(ctx);
        } else {
            let head = self.sb.cum_ack();
            if head < self.sb.next_seq() {
                self.send_retransmission(ctx, head);
            }
            self.arm_timer(ctx);
        }
    }
}

impl Agent for TcpSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.try_send(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
        let Ok(h) = TcpHeader::decode(pkt.header) else {
            return;
        };
        if h.kind == TcpKind::Ack {
            self.on_ack(ctx, &h);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token != self.timer_gen || !self.timer_armed {
            return; // stale timer
        }
        self.timer_armed = false;
        if self.sb.all_acked() && self.finished_sending() {
            return;
        }
        self.on_timeout(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::TcpReceiver;
    use qtp_simnet::loss::LossModel;
    use qtp_simnet::queue::QueueConfig;
    use qtp_simnet::sim::NetworkBuilder;
    use std::time::Duration;

    /// Two hosts, duplex link; returns (sim, data_flow, sender_node id kept
    /// implicit). The forward path takes `loss` and `queue`.
    fn harness(
        flavor: TcpFlavor,
        rate: Rate,
        delay: Duration,
        loss: LossModel,
        queue: QueueConfig,
        limit: Option<u64>,
    ) -> (qtp_simnet::sim::Simulator, FlowId) {
        let mut b = NetworkBuilder::new();
        let s = b.host();
        let r = b.host();
        b.simplex_link(
            s,
            r,
            LinkConfig::new(rate, delay)
                .with_loss(loss)
                .with_queue(queue),
        );
        b.simplex_link(r, s, LinkConfig::new(rate, delay));
        let mut sim = b.build(77);
        let df = sim.register_flow();
        let af = sim.register_flow();
        let mut cfg = TcpConfig::new(flavor);
        cfg.limit = limit;
        let sack = flavor == TcpFlavor::Sack;
        sim.attach_agent(s, Box::new(TcpSender::new(df, r, cfg)));
        sim.attach_agent(r, Box::new(TcpReceiver::new(df, af, s, sack, 1000)));
        (sim, df)
    }

    #[test]
    fn clean_path_transfers_everything_fast() {
        let (mut sim, df) = harness(
            TcpFlavor::NewReno,
            Rate::from_mbps(10),
            Duration::from_millis(10),
            LossModel::None,
            QueueConfig::DropTailPkts(100),
            Some(500),
        );
        sim.run_until(SimTime::from_secs(10));
        let f = sim.stats().flow(df);
        assert_eq!(f.bytes_app_delivered, 500 * 1000);
    }

    #[test]
    fn slow_start_grows_window_exponentially() {
        // Over a long-RTT clean path, delivered bytes in the first few RTTs
        // should roughly double per RTT: 2, 4, 8, 16...
        let (mut sim, df) = harness(
            TcpFlavor::NewReno,
            Rate::from_mbps(100),
            Duration::from_millis(50), // RTT 100 ms
            LossModel::None,
            QueueConfig::DropTailPkts(1000),
            None,
        );
        sim.set_sample_interval(Duration::from_millis(100));
        sim.run_until(SimTime::from_millis(450));
        let series = &sim.stats().flow(df).arrive_series;
        // Windows arriving per 100 ms slot: ~2, 4, 8, 16 segments.
        let segs: Vec<u64> = series.iter().map(|b| b / 1040).collect();
        assert!(segs[1] >= 2 * segs[0].max(1), "{segs:?}");
        assert!(segs[2] >= 2 * segs[1], "{segs:?}");
    }

    #[test]
    fn greedy_flow_fills_bottleneck() {
        let (mut sim, df) = harness(
            TcpFlavor::NewReno,
            Rate::from_mbps(2),
            Duration::from_millis(10),
            LossModel::None,
            QueueConfig::DropTailPkts(50),
            None,
        );
        sim.run_until(SimTime::from_secs(30));
        let bps = sim.stats().flow(df).throughput_bps(Duration::from_secs(30));
        assert!(bps > 1_800_000.0, "utilization too low: {bps}");
    }

    #[test]
    fn recovers_from_random_loss_newreno() {
        let (mut sim, df) = harness(
            TcpFlavor::NewReno,
            Rate::from_mbps(10),
            Duration::from_millis(5),
            LossModel::bernoulli(0.01),
            QueueConfig::DropTailPkts(100),
            Some(2000),
        );
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(
            sim.stats().flow(df).bytes_app_delivered,
            2000 * 1000,
            "full reliability despite 1% loss"
        );
    }

    #[test]
    fn recovers_from_random_loss_sack() {
        let (mut sim, df) = harness(
            TcpFlavor::Sack,
            Rate::from_mbps(10),
            Duration::from_millis(5),
            LossModel::bernoulli(0.03),
            QueueConfig::DropTailPkts(100),
            Some(2000),
        );
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.stats().flow(df).bytes_app_delivered, 2000 * 1000);
    }

    #[test]
    fn sack_beats_newreno_under_bursty_loss() {
        // Gilbert-Elliott burst loss: SACK recovers multiple losses per
        // window in one RTT, NewReno needs one RTT per loss.
        fn completion_time(flavor: TcpFlavor) -> f64 {
            let (mut sim, df) = harness(
                flavor,
                Rate::from_mbps(10),
                Duration::from_millis(20),
                LossModel::gilbert_elliott(0.01, 0.3, 0.0, 0.5),
                QueueConfig::DropTailPkts(200),
                Some(3000),
            );
            let mut t = 0.0;
            for step in 1..=1200 {
                sim.run_until(SimTime::from_millis(step * 100));
                if sim.stats().flow(df).bytes_app_delivered >= 3000 * 1000 {
                    t = step as f64 * 0.1;
                    break;
                }
            }
            assert!(t > 0.0, "{flavor:?} never completed");
            t
        }
        let t_sack = completion_time(TcpFlavor::Sack);
        let t_reno = completion_time(TcpFlavor::NewReno);
        assert!(
            t_sack <= t_reno * 1.05,
            "SACK ({t_sack}s) should not lose to NewReno ({t_reno}s)"
        );
    }

    #[test]
    fn timeout_recovers_tail_loss() {
        // Lose every 50th packet; with limit=49 the LAST packet of the
        // transfer can be among the lost — only the RTO can save it.
        let (mut sim, df) = harness(
            TcpFlavor::NewReno,
            Rate::from_mbps(10),
            Duration::from_millis(5),
            LossModel::periodic(25),
            QueueConfig::DropTailPkts(100),
            Some(200),
        );
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(sim.stats().flow(df).bytes_app_delivered, 200 * 1000);
    }

    #[test]
    fn congestion_collapse_avoided_under_tiny_buffer() {
        // 5-packet buffer forces frequent loss; TCP must still make steady
        // progress and not deadlock.
        let (mut sim, df) = harness(
            TcpFlavor::NewReno,
            Rate::from_mbps(1),
            Duration::from_millis(20),
            LossModel::None,
            QueueConfig::DropTailPkts(5),
            None,
        );
        sim.run_until(SimTime::from_secs(60));
        let bps = sim.stats().flow(df).throughput_bps(Duration::from_secs(60));
        assert!(bps > 500_000.0, "throughput collapsed: {bps}");
    }
}
