//! Canned topologies used throughout the experiments.
//!
//! The workhorse is the **dumbbell**: `n` sender hosts and `n` receiver
//! hosts attached by fast access links to two routers joined by one
//! bottleneck link. All the paper's scenarios (AF class with RIO core,
//! drop-tail fairness runs, wireless last hop) are dumbbell variants.
//!
//! The hostile-path scenario matrix adds two more shapes: the
//! [`LongFatPipe`] (satellite-class large bandwidth-delay product path,
//! possibly with an asymmetric return channel) and the [`Handover`]
//! (server → router → mobile where the last hop switches character at a
//! deterministic instant mid-run).

use std::time::Duration;

use crate::link::LinkConfig;
use crate::packet::{LinkId, NodeId};
use crate::path::PathModel;
use crate::queue::QueueConfig;
use crate::sim::{NetworkBuilder, Simulator};
use crate::time::Rate;

/// Parameters of a dumbbell network.
#[derive(Debug, Clone)]
pub struct DumbbellConfig {
    /// Number of sender/receiver host pairs.
    pub pairs: usize,
    /// Access link rate (both sides). Usually much faster than the core.
    pub access_rate: Rate,
    /// One-way access propagation delay per side. Per-pair overrides via
    /// `access_delays`.
    pub access_delay: Duration,
    /// Optional per-pair access delay (sender side), to give flows
    /// heterogeneous RTTs. Length must equal `pairs` if provided.
    pub access_delays: Option<Vec<Duration>>,
    /// Bottleneck rate.
    pub bottleneck_rate: Rate,
    /// Bottleneck one-way propagation delay.
    pub bottleneck_delay: Duration,
    /// Queue on the forward bottleneck (router1 → router2). This is where
    /// RIO goes for the AF experiments.
    pub bottleneck_queue: QueueConfig,
    /// Queue on the reverse bottleneck (acks); generous drop-tail default.
    pub reverse_queue: QueueConfig,
    /// Path impairments on the forward bottleneck (reordering,
    /// duplication). The no-op default keeps every existing dumbbell
    /// scenario byte-identical.
    pub bottleneck_path: PathModel,
}

impl Default for DumbbellConfig {
    fn default() -> Self {
        DumbbellConfig {
            pairs: 2,
            access_rate: Rate::from_mbps(100),
            access_delay: Duration::from_millis(1),
            access_delays: None,
            bottleneck_rate: Rate::from_mbps(10),
            bottleneck_delay: Duration::from_millis(10),
            bottleneck_queue: QueueConfig::DropTailPkts(50),
            reverse_queue: QueueConfig::DropTailPkts(1000),
            bottleneck_path: PathModel::none(),
        }
    }
}

/// The node/link ids of a built dumbbell.
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// Sender hosts, index `i` talks to `receivers[i]`.
    pub senders: Vec<NodeId>,
    /// Receiver hosts.
    pub receivers: Vec<NodeId>,
    /// Left router (senders' side).
    pub left_router: NodeId,
    /// Right router (receivers' side).
    pub right_router: NodeId,
    /// Forward bottleneck link id (left → right); marker target for
    /// edge conditioning in the AF experiments.
    pub bottleneck: LinkId,
    /// Reverse bottleneck link id (right → left).
    pub reverse_bottleneck: LinkId,
    /// Sender-side access link ids (sender → left router), per pair. These
    /// are the canonical place to attach per-flow markers (first hop).
    pub sender_access: Vec<LinkId>,
}

impl Dumbbell {
    /// Build the topology into a fresh simulator.
    pub fn build(cfg: &DumbbellConfig, seed: u64) -> (Simulator, Dumbbell) {
        if let Some(d) = &cfg.access_delays {
            assert_eq!(d.len(), cfg.pairs, "access_delays length mismatch");
        }
        let mut b = NetworkBuilder::new();
        let left_router = b.router();
        let right_router = b.router();
        let mut senders = Vec::with_capacity(cfg.pairs);
        let mut receivers = Vec::with_capacity(cfg.pairs);
        let mut sender_access = Vec::with_capacity(cfg.pairs);
        for i in 0..cfg.pairs {
            let s = b.host();
            let r = b.host();
            let s_delay = cfg
                .access_delays
                .as_ref()
                .map(|d| d[i])
                .unwrap_or(cfg.access_delay);
            let (s2l, _l2s) =
                b.duplex_link(s, left_router, LinkConfig::new(cfg.access_rate, s_delay));
            b.duplex_link(
                right_router,
                r,
                LinkConfig::new(cfg.access_rate, cfg.access_delay),
            );
            senders.push(s);
            receivers.push(r);
            sender_access.push(s2l);
        }
        let bottleneck = b.simplex_link(
            left_router,
            right_router,
            LinkConfig::new(cfg.bottleneck_rate, cfg.bottleneck_delay)
                .with_queue(cfg.bottleneck_queue.clone())
                .with_path(cfg.bottleneck_path.clone()),
        );
        let reverse_bottleneck = b.simplex_link(
            right_router,
            left_router,
            LinkConfig::new(cfg.bottleneck_rate, cfg.bottleneck_delay)
                .with_queue(cfg.reverse_queue.clone()),
        );
        let sim = b.build(seed);
        (
            sim,
            Dumbbell {
                senders,
                receivers,
                left_router,
                right_router,
                bottleneck,
                reverse_bottleneck,
                sender_access,
            },
        )
    }

    /// End-to-end base round-trip time for pair `i` (propagation + nothing
    /// else): `2 * (access_i + bottleneck + access)`.
    pub fn base_rtt(cfg: &DumbbellConfig, i: usize) -> Duration {
        let s_delay = cfg
            .access_delays
            .as_ref()
            .map(|d| d[i])
            .unwrap_or(cfg.access_delay);
        (s_delay + cfg.bottleneck_delay + cfg.access_delay) * 2
    }
}

/// Parameters of a large bandwidth-delay-product ("long fat pipe") path:
/// two hosts joined by one high-rate, high-latency duplex link — the
/// satellite / intercontinental regime (300–600 ms RTT) where window-based
/// transports need a full BDP in flight to fill the pipe and equation-based
/// rate control changes character.
#[derive(Debug, Clone)]
pub struct LongFatPipeConfig {
    /// Forward (data) direction.
    pub forward: LinkConfig,
    /// Reverse (feedback) direction; configure a lower rate for asymmetric
    /// paths (e.g. a satellite downlink with a narrowband return channel).
    pub reverse: LinkConfig,
}

impl LongFatPipeConfig {
    /// A symmetric long fat pipe: `rate` in both directions, `one_way`
    /// propagation delay each way (RTT = `2 * one_way`), and a forward
    /// queue sized to one bandwidth-delay product of `pkt_size`-byte
    /// packets — the classic "buffer = BDP" provisioning rule.
    pub fn symmetric(rate: Rate, one_way: Duration, pkt_size: u32) -> Self {
        let bdp = Self::bdp_packets(rate, 2 * one_way, pkt_size).max(10);
        LongFatPipeConfig {
            forward: LinkConfig::new(rate, one_way).with_queue(QueueConfig::DropTailPkts(bdp)),
            reverse: LinkConfig::new(rate, one_way).with_queue(QueueConfig::DropTailPkts(1000)),
        }
    }

    /// Replace the reverse channel (rate + delay), keeping a generous
    /// feedback queue. The asymmetry knob for the H3 scenarios.
    pub fn with_reverse(mut self, rate: Rate, one_way: Duration) -> Self {
        self.reverse = LinkConfig::new(rate, one_way).with_queue(QueueConfig::DropTailPkts(1000));
        self
    }

    /// Packets of `pkt_size` bytes that fit in one bandwidth-delay product.
    pub fn bdp_packets(rate: Rate, rtt: Duration, pkt_size: u32) -> usize {
        let bits = rate.bps() as f64 * rtt.as_secs_f64();
        (bits / (8.0 * pkt_size as f64)).ceil() as usize
    }

    /// End-to-end base round-trip time (forward + reverse propagation).
    pub fn rtt(&self) -> Duration {
        self.forward.delay + self.reverse.delay
    }
}

/// The node/link ids of a built long fat pipe.
#[derive(Debug, Clone)]
pub struct LongFatPipe {
    /// Data sender.
    pub tx: NodeId,
    /// Data receiver.
    pub rx: NodeId,
    /// Forward (tx → rx) link id.
    pub forward: LinkId,
    /// Reverse (rx → tx) link id.
    pub reverse: LinkId,
}

impl LongFatPipe {
    /// Build the topology into a fresh simulator.
    pub fn build(cfg: &LongFatPipeConfig, seed: u64) -> (Simulator, LongFatPipe) {
        let mut b = NetworkBuilder::new();
        let tx = b.host();
        let rx = b.host();
        let (forward, reverse) =
            b.duplex_link_asym(tx, rx, cfg.forward.clone(), cfg.reverse.clone());
        (
            b.build(seed),
            LongFatPipe {
                tx,
                rx,
                forward,
                reverse,
            },
        )
    }
}

/// Parameters of a mobility-handover path: server → router over a clean
/// backbone, router → mobile over a last hop that switches from `initial`
/// to `target` at a deterministic instant (the driver runs the simulator
/// to [`HandoverConfig::switch_at`] and calls [`Handover::switch`]).
#[derive(Debug, Clone)]
pub struct HandoverConfig {
    /// Backbone rate (server ↔ router).
    pub backbone_rate: Rate,
    /// Backbone one-way delay.
    pub backbone_delay: Duration,
    /// Last hop before the handover (e.g. clean WLAN).
    pub initial: LinkConfig,
    /// Last hop after the handover (e.g. lossy, slower cellular).
    pub target: LinkConfig,
    /// When the path switches.
    pub switch_at: Duration,
}

impl Default for HandoverConfig {
    fn default() -> Self {
        HandoverConfig {
            backbone_rate: Rate::from_mbps(100),
            backbone_delay: Duration::from_millis(15),
            initial: LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5)),
            target: LinkConfig::new(Rate::from_mbps(2), Duration::from_millis(30)),
            switch_at: Duration::from_secs(10),
        }
    }
}

/// The node/link ids of a built handover path.
#[derive(Debug, Clone)]
pub struct Handover {
    /// Fixed server host.
    pub server: NodeId,
    /// Mobile host behind the switching last hop.
    pub mobile: NodeId,
    /// The intermediate router.
    pub router: NodeId,
    /// Last-hop downlink (router → mobile).
    pub down: LinkId,
    /// Last-hop uplink (mobile → router).
    pub up: LinkId,
    /// The post-switch last-hop configuration.
    target: LinkConfig,
}

impl Handover {
    /// Build the topology into a fresh simulator. The last hop starts with
    /// `cfg.initial` in both directions.
    pub fn build(cfg: &HandoverConfig, seed: u64) -> (Simulator, Handover) {
        let mut b = NetworkBuilder::new();
        let server = b.host();
        let router = b.router();
        let mobile = b.host();
        b.duplex_link(
            server,
            router,
            LinkConfig::new(cfg.backbone_rate, cfg.backbone_delay),
        );
        let (down, up) = b.duplex_link(router, mobile, cfg.initial.clone());
        (
            b.build(seed),
            Handover {
                server,
                mobile,
                router,
                down,
                up,
                target: cfg.target.clone(),
            },
        )
    }

    /// Apply the handover: switch the last hop (both directions) to the
    /// target rate, delay, loss and path models. Queue discipline is kept;
    /// packets already queued or in flight keep their original timing —
    /// the switch is felt from the next serialization on.
    pub fn switch(&self, sim: &mut Simulator) {
        for id in [self.down, self.up] {
            sim.set_link_rate(id, self.target.rate);
            sim.set_link_delay(id, self.target.delay);
            sim.set_link_loss(id, self.target.loss.clone());
            sim.set_link_path(id, self.target.path.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::{CbrSource, Sink};
    use crate::time::SimTime;

    #[test]
    fn dumbbell_connects_all_pairs() {
        let cfg = DumbbellConfig {
            pairs: 3,
            ..DumbbellConfig::default()
        };
        let (mut sim, net) = Dumbbell::build(&cfg, 9);
        let mut flows = Vec::new();
        for i in 0..3 {
            let f = sim.register_flow();
            sim.attach_agent(
                net.senders[i],
                Box::new(CbrSource::new(
                    f,
                    net.receivers[i],
                    1000,
                    Rate::from_kbps(500),
                )),
            );
            sim.attach_agent(net.receivers[i], Box::new(Sink));
            flows.push(f);
        }
        sim.run_until(SimTime::from_secs(5));
        for f in flows {
            assert!(sim.stats().flow(f).pkts_arrived > 100, "flow {f} starved");
            assert_eq!(sim.stats().flow(f).pkts_dropped, 0);
        }
    }

    #[test]
    fn bottleneck_caps_aggregate_throughput() {
        let cfg = DumbbellConfig {
            pairs: 2,
            bottleneck_rate: Rate::from_mbps(1),
            ..DumbbellConfig::default()
        };
        let (mut sim, net) = Dumbbell::build(&cfg, 11);
        for i in 0..2 {
            let f = sim.register_flow();
            // Each offers 1 Mbit/s into a 1 Mbit/s bottleneck.
            sim.attach_agent(
                net.senders[i],
                Box::new(CbrSource::new(
                    f,
                    net.receivers[i],
                    1000,
                    Rate::from_mbps(1),
                )),
            );
        }
        sim.run_until(SimTime::from_secs(20));
        let total: f64 = (0..2)
            .map(|i| {
                sim.stats()
                    .flow(i as u32)
                    .throughput_bps(Duration::from_secs(20))
            })
            .sum();
        assert!(total < 1_100_000.0, "aggregate {total} exceeds bottleneck");
        assert!(total > 900_000.0, "bottleneck underutilized: {total}");
    }

    #[test]
    fn base_rtt_accounts_for_heterogeneous_access() {
        let cfg = DumbbellConfig {
            pairs: 2,
            access_delay: Duration::from_millis(1),
            access_delays: Some(vec![Duration::from_millis(1), Duration::from_millis(40)]),
            bottleneck_delay: Duration::from_millis(10),
            ..DumbbellConfig::default()
        };
        assert_eq!(Dumbbell::base_rtt(&cfg, 0), Duration::from_millis(24));
        assert_eq!(Dumbbell::base_rtt(&cfg, 1), Duration::from_millis(102));
    }

    #[test]
    #[should_panic(expected = "access_delays length mismatch")]
    fn wrong_delay_vector_length_panics() {
        let cfg = DumbbellConfig {
            pairs: 2,
            access_delays: Some(vec![Duration::from_millis(1)]),
            ..DumbbellConfig::default()
        };
        let _ = Dumbbell::build(&cfg, 1);
    }

    #[test]
    fn long_fat_pipe_rtt_and_bdp() {
        let cfg =
            LongFatPipeConfig::symmetric(Rate::from_mbps(10), Duration::from_millis(250), 1250);
        assert_eq!(cfg.rtt(), Duration::from_millis(500));
        // 10 Mbit/s * 0.5 s = 5 Mbit = 500 packets of 1250 B.
        assert_eq!(
            LongFatPipeConfig::bdp_packets(Rate::from_mbps(10), cfg.rtt(), 1250),
            500
        );
    }

    #[test]
    fn long_fat_pipe_delivers_at_satellite_latency() {
        let cfg =
            LongFatPipeConfig::symmetric(Rate::from_mbps(10), Duration::from_millis(150), 1250);
        let (mut sim, net) = LongFatPipe::build(&cfg, 5);
        let f = sim.register_flow();
        sim.attach_agent(
            net.tx,
            Box::new(CbrSource::new(f, net.rx, 1250, Rate::from_mbps(1))),
        );
        sim.attach_agent(net.rx, Box::new(Sink));
        sim.run_until(SimTime::from_secs(10));
        let st = sim.stats().flow(f);
        assert!(st.pkts_arrived > 500, "pipe starved: {}", st.pkts_arrived);
        assert_eq!(st.pkts_dropped, 0);
    }

    #[test]
    fn asymmetric_reverse_channel_is_slower() {
        let cfg =
            LongFatPipeConfig::symmetric(Rate::from_mbps(10), Duration::from_millis(150), 1250)
                .with_reverse(Rate::from_kbps(64), Duration::from_millis(150));
        let (sim, net) = LongFatPipe::build(&cfg, 5);
        assert_eq!(sim.link(net.forward).rate, Rate::from_mbps(10));
        assert_eq!(sim.link(net.reverse).rate, Rate::from_kbps(64));
        assert_eq!(cfg.rtt(), Duration::from_millis(300));
    }

    #[test]
    fn handover_switches_last_hop_mid_run() {
        let cfg = HandoverConfig {
            initial: LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5)),
            target: LinkConfig::new(Rate::from_mbps(2), Duration::from_millis(30))
                .with_loss(crate::loss::LossModel::bernoulli(0.5)),
            switch_at: Duration::from_secs(5),
            ..HandoverConfig::default()
        };
        let (mut sim, ho) = Handover::build(&cfg, 21);
        let f = sim.register_flow();
        sim.attach_agent(
            ho.server,
            Box::new(CbrSource::new(f, ho.mobile, 1250, Rate::from_mbps(1))),
        );
        sim.attach_agent(ho.mobile, Box::new(Sink));
        sim.run_until(SimTime::ZERO + cfg.switch_at);
        let before = sim.stats().flow(f).pkts_dropped;
        assert_eq!(before, 0, "clean WLAN phase must not drop");
        ho.switch(&mut sim);
        assert_eq!(sim.link(ho.down).rate, Rate::from_mbps(2));
        assert_eq!(sim.link(ho.down).delay, Duration::from_millis(30));
        sim.run_until(SimTime::from_secs(10));
        let st = sim.stats().flow(f);
        assert!(
            st.pkts_dropped > 50,
            "post-switch loss model not applied ({} drops)",
            st.pkts_dropped
        );
        assert!(st.pkts_arrived > 100);
    }
}
