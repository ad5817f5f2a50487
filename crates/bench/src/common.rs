//! Shared scenario builders for the experiment harness: the DiffServ/AF
//! dumbbell (the EuQoS network-service substitute) and endpoint attachment
//! helpers for TCP and QTP flows.

use qtp_core::session::{attach_pair, ConnectionPlan, PairHandles};
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Simulator;
use qtp_tcp::TcpFlavor;
use std::time::Duration;

/// Nominal committed burst size used by all experiment markers (bytes).
pub const CBS: u32 = 20_000;

/// Build the standard AF dumbbell: `pairs` host pairs, 100 Mbit/s access,
/// `core_mbps` RIO bottleneck, given one-way bottleneck delay.
pub fn af_dumbbell(
    pairs: usize,
    core_mbps: u64,
    bottleneck_delay: Duration,
    access_delays: Option<Vec<Duration>>,
    seed: u64,
) -> (Simulator, Dumbbell) {
    let cfg = DumbbellConfig {
        pairs,
        access_rate: Rate::from_mbps(100),
        access_delay: Duration::from_millis(1),
        access_delays,
        bottleneck_rate: Rate::from_mbps(core_mbps),
        bottleneck_delay,
        bottleneck_queue: QueueConfig::Rio(RioParams::default()),
        reverse_queue: QueueConfig::DropTailPkts(2000),
        bottleneck_path: PathModel::none(),
    };
    Dumbbell::build(&cfg, seed)
}

/// Plain (best-effort) dumbbell with a drop-tail bottleneck.
pub fn droptail_dumbbell(
    pairs: usize,
    core_mbps: u64,
    bottleneck_delay: Duration,
    queue_pkts: usize,
    seed: u64,
) -> (Simulator, Dumbbell) {
    let cfg = DumbbellConfig {
        pairs,
        access_rate: Rate::from_mbps(100),
        access_delay: Duration::from_millis(1),
        access_delays: None,
        bottleneck_rate: Rate::from_mbps(core_mbps),
        bottleneck_delay,
        bottleneck_queue: QueueConfig::DropTailPkts(queue_pkts),
        reverse_queue: QueueConfig::DropTailPkts(2000),
        bottleneck_path: PathModel::none(),
    };
    Dumbbell::build(&cfg, seed)
}

/// Give `flow` a committed-rate profile at pair `i`'s first hop: packets
/// within `cir` are marked Green (in-profile), the excess Red.
pub fn set_profile(sim: &mut Simulator, net: &Dumbbell, pair: usize, flow: FlowId, cir: Rate) {
    sim.set_marker(
        net.sender_access[pair],
        flow,
        TokenBucketMarker::new(cir, CBS),
    );
}

/// Mark every packet of `flow` out-of-profile (best-effort traffic inside
/// the AF class).
pub fn set_out_of_profile(sim: &mut Simulator, net: &Dumbbell, pair: usize, flow: FlowId) {
    sim.set_marker(
        net.sender_access[pair],
        flow,
        TokenBucketMarker::new(Rate::ZERO, 0),
    );
}

/// Attach a greedy TCP connection on pair `i`. Returns the data flow id.
pub fn attach_tcp(sim: &mut Simulator, net: &Dumbbell, pair: usize, flavor: TcpFlavor) -> FlowId {
    qtp_tcp::attach_tcp(sim, net.senders[pair], net.receivers[pair], flavor)
}

/// Attach a planned QTP connection on pair `i`.
pub fn attach_plan_pair(
    sim: &mut Simulator,
    net: &Dumbbell,
    pair: usize,
    plan: &ConnectionPlan,
) -> PairHandles {
    attach_pair(sim, net.senders[pair], net.receivers[pair], plan)
}

/// Network-level throughput of a flow over `secs` seconds, bit/s.
pub fn throughput(sim: &Simulator, flow: FlowId, secs: u64) -> f64 {
    sim.stats()
        .flow(flow)
        .throughput_bps(Duration::from_secs(secs))
}

/// Application goodput of a flow over `secs` seconds, bit/s.
pub fn goodput(sim: &Simulator, flow: FlowId, secs: u64) -> f64 {
    sim.stats()
        .flow(flow)
        .goodput_bps(Duration::from_secs(secs))
}

/// A two-host lossy path (no routers): forward direction takes the loss
/// model; reverse is clean. Used by the wireless and equivalence sweeps.
pub fn lossy_path(
    rate_mbps: u64,
    one_way: Duration,
    loss: LossModel,
    seed: u64,
) -> (Simulator, NodeId, NodeId) {
    let rate = Rate::from_mbps(rate_mbps);
    impaired_path(rate, one_way, loss, PathModel::none(), seed)
}

/// [`lossy_path`] whose forward direction also carries a [`PathModel`].
pub(crate) fn impaired_path(
    rate: Rate,
    one_way: Duration,
    loss: LossModel,
    path: PathModel,
    seed: u64,
) -> (Simulator, NodeId, NodeId) {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.simplex_link(
        s,
        r,
        LinkConfig::new(rate, one_way)
            .with_queue(QueueConfig::DropTailPkts(500))
            .with_loss(loss)
            .with_path(path),
    );
    b.simplex_link(r, s, LinkConfig::new(rate, one_way));
    (b.build(seed), s, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_core::session::Profile;

    #[test]
    fn af_dumbbell_builds_and_runs() {
        let (mut sim, net) = af_dumbbell(2, 10, Duration::from_millis(10), None, 1);
        let h = attach_plan_pair(&mut sim, &net, 0, &ConnectionPlan::new(Profile::tfrc()));
        set_profile(&mut sim, &net, 0, h.data_flow, Rate::from_mbps(2));
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.stats().flow(h.data_flow).pkts_arrived > 100);
    }

    #[test]
    fn out_of_profile_marks_red() {
        let (mut sim, net) = af_dumbbell(1, 10, Duration::from_millis(5), None, 2);
        let f = sim.register_flow();
        set_out_of_profile(&mut sim, &net, 0, f);
        sim.attach_agent(
            net.senders[0],
            Box::new(CbrSource::new(
                f,
                net.receivers[0],
                1000,
                Rate::from_mbps(1),
            )),
        );
        sim.run_until(SimTime::from_secs(2));
        // All enqueued packets at the bottleneck were red.
        let stats = sim.stats().link(net.bottleneck);
        assert_eq!(stats.enqueued_by_color[Color::Green.index()], 0);
        assert!(stats.enqueued_by_color[Color::Red.index()] > 100);
    }
}
