//! Cross-crate integration tests: the paper's headline claims asserted
//! end-to-end through the facade crate.

use qtp::prelude::*;
use qtp::simnet::marker::TokenBucketMarker;
use std::time::Duration;

/// AF dumbbell with a RIO core, one conditioned pair + one out-of-profile
/// TCP aggressor pair.
fn af_scenario(seed: u64) -> (qtp::simnet::sim::Simulator, Dumbbell) {
    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_rate: Rate::from_mbps(10),
        bottleneck_delay: Duration::from_millis(10),
        bottleneck_queue: QueueConfig::Rio(RioParams::default()),
        ..DumbbellConfig::default()
    };
    Dumbbell::build(&cfg, seed)
}

fn attach_bg_tcp(sim: &mut qtp::simnet::sim::Simulator, net: &Dumbbell, pair: usize) {
    let bg = attach_tcp(
        sim,
        net.senders[pair],
        net.receivers[pair],
        TcpFlavor::NewReno,
    );
    sim.set_marker(
        net.sender_access[pair],
        bg,
        TokenBucketMarker::new(Rate::ZERO, 0),
    );
}

/// The paper's §4 claim as a single assertion: with a 4 Mbit/s reservation
/// on a 10 Mbit/s AF bottleneck against an aggressor, QTPAF achieves its
/// target and TCP does not.
#[test]
fn qtpaf_achieves_negotiated_qos_where_tcp_fails() {
    const SECS: u64 = 40;
    let g = Rate::from_mbps(4);

    // QTPAF run.
    let (mut sim, net) = af_scenario(1);
    let h = attach_pair(
        &mut sim,
        net.senders[0],
        net.receivers[0],
        &ConnectionPlan::new(Profile::qtp_af(g)),
    );
    sim.set_marker(
        net.sender_access[0],
        h.data_flow,
        TokenBucketMarker::new(g, 20_000),
    );
    attach_bg_tcp(&mut sim, &net, 1);
    sim.run_until(SimTime::from_secs(SECS));
    let qtpaf_rate = sim
        .stats()
        .flow(h.data_flow)
        .throughput_bps(Duration::from_secs(SECS));

    // TCP-with-reservation run.
    let (mut sim, net) = af_scenario(1);
    let data = attach_tcp(
        &mut sim,
        net.senders[0],
        net.receivers[0],
        TcpFlavor::NewReno,
    );
    sim.set_marker(
        net.sender_access[0],
        data,
        TokenBucketMarker::new(g, 20_000),
    );
    attach_bg_tcp(&mut sim, &net, 1);
    sim.run_until(SimTime::from_secs(SECS));
    let tcp_rate = sim
        .stats()
        .flow(data)
        .throughput_bps(Duration::from_secs(SECS));

    assert!(
        qtpaf_rate >= 0.95 * g.bps() as f64,
        "QTPAF must hold its reservation: got {:.2} of 4 Mbit/s",
        qtpaf_rate / 1e6
    );
    assert!(
        tcp_rate < 0.9 * g.bps() as f64,
        "TCP should fail the reservation in this scenario: got {:.2} Mbit/s",
        tcp_rate / 1e6
    );
}

/// QTPAF keeps full reliability while holding the rate on a lossy path.
#[test]
fn qtpaf_is_reliable_end_to_end() {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.simplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(10))
            .with_loss(LossModel::gilbert_elliott(0.01, 0.3, 0.0, 0.6))
            .with_queue(QueueConfig::DropTailPkts(300)),
    );
    b.simplex_link(
        r,
        s,
        LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(10)),
    );
    let mut sim = b.build(3);
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(1))).finite(2000);
    let h = attach_pair(&mut sim, s, r, &plan);
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(
        sim.stats().flow(h.data_flow).bytes_app_delivered,
        2000 * 1000,
        "bursty wireless loss must not cost a single application byte"
    );
}

/// Negotiation downgrades work end-to-end through the facade.
#[test]
fn negotiation_downgrade_full_stack() {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.duplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(10)),
    );
    let mut sim = b.build(4);
    // Offer QTPAF (Full reliability); server refuses reliability.
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(2))).policy(ServerPolicy {
        allow_reliability: false,
        ..ServerPolicy::default()
    });
    let h = attach_pair(&mut sim, s, r, &plan);
    sim.run_until(SimTime::from_secs(10));
    // Data still flows and nothing is ever retransmitted.
    assert!(sim.stats().flow(h.data_flow).pkts_arrived > 100);
    assert_eq!(h.tx_tracer.read(|c| c.retransmits), 0);
}

/// Two QTP flows sharing a bottleneck split it roughly fairly.
#[test]
fn two_tfrc_flows_share_fairly() {
    const SECS: u64 = 60;
    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_rate: Rate::from_mbps(10),
        bottleneck_delay: Duration::from_millis(10),
        bottleneck_queue: QueueConfig::DropTailPkts(50),
        ..DumbbellConfig::default()
    };
    let (mut sim, net) = Dumbbell::build(&cfg, 5);
    let h1 = attach_pair(
        &mut sim,
        net.senders[0],
        net.receivers[0],
        &ConnectionPlan::new(Profile::tfrc()),
    );
    let h2 = attach_pair(
        &mut sim,
        net.senders[1],
        net.receivers[1],
        &ConnectionPlan::new(Profile::qtp_light()),
    );
    sim.run_until(SimTime::from_secs(SECS));
    let r1 = sim
        .stats()
        .flow(h1.data_flow)
        .throughput_bps(Duration::from_secs(SECS));
    let r2 = sim
        .stats()
        .flow(h2.data_flow)
        .throughput_bps(Duration::from_secs(SECS));
    let fairness = jain_index(&[r1, r2]);
    assert!(
        fairness > 0.85,
        "standard and light flows should share fairly: {:.2} vs {:.2} Mbit/s (J={fairness:.3})",
        r1 / 1e6,
        r2 / 1e6
    );
    // And together they should not overdrive the link.
    assert!(r1 + r2 < 10.5e6);
}

/// The facade's prelude exposes a working surface (doc example shape).
#[test]
fn facade_quickstart_shape() {
    let mut b = NetworkBuilder::new();
    let server = b.host();
    let mobile = b.host();
    b.duplex_link(
        server,
        mobile,
        LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(20))
            .with_loss(LossModel::bernoulli(0.01)),
    );
    let mut sim = b.build(42);
    let h = attach_pair(
        &mut sim,
        server,
        mobile,
        &ConnectionPlan::new(Profile::qtp_light()),
    );
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.stats().flow(h.data_flow);
    assert!(stats.bytes_app_delivered > 0);
    assert!(h.rx_tracer.read(|c| c.ops_per_data_pkt()) < 20.0);
}
