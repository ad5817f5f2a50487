//! Seeded example scenarios, shared between `examples/` and the
//! integration tests.
//!
//! Each function builds its topology, runs the session-layer transport
//! under a fixed seed, and returns the headline numbers the example
//! prints. The examples are thin formatters over these; the tests in
//! `tests/example_scenarios.rs` assert the headlines — so an example
//! cannot silently rot into printing nonsense.

use crate::prelude::*;
use std::time::Duration;

/// One bursty 5 Mbit/s wireless path (Gilbert–Elliott, ~1.6% average
/// erasure) shared by every `wireless_loss` contender.
fn wireless_path(seed: u64) -> (Simulator, NodeId, NodeId) {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.simplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps(5), Duration::from_millis(20))
            .with_loss(LossModel::gilbert_elliott(0.01, 0.3, 0.0, 0.5))
            .with_queue(QueueConfig::DropTailPkts(200)),
    );
    b.simplex_link(
        r,
        s,
        LinkConfig::new(Rate::from_mbps(5), Duration::from_millis(20)),
    );
    (b.build(seed), s, r)
}

/// Headline numbers of the `wireless_loss` example.
#[derive(Debug, Clone)]
pub struct WirelessLossReport {
    /// TCP SACK goodput over the bursty path (bit/s).
    pub tcp_goodput_bps: f64,
    /// QTPlight (no retransmission) goodput (bit/s).
    pub light_goodput_bps: f64,
    /// QTPlight + 200 ms partial reliability goodput (bit/s).
    pub partial_goodput_bps: f64,
    /// Retransmissions the partial-reliability sender performed.
    pub partial_retransmissions: u64,
    /// Frames the partial-reliability sender abandoned as stale.
    pub partial_abandoned: u64,
}

/// Paper §2 motivation: rate-based control vs TCP over bursty wireless
/// loss, plus the partial-reliability composition. Deterministic in
/// `seed`; `secs` is the run horizon per contender.
pub fn wireless_loss(seed: u64, secs: u64) -> WirelessLossReport {
    let horizon = Duration::from_secs(secs);

    let (mut sim, s, r) = wireless_path(seed);
    let data = attach_tcp(&mut sim, s, r, TcpFlavor::Sack);
    sim.run_until(SimTime::ZERO + horizon);
    let tcp_goodput_bps = sim.stats().flow(data).goodput_bps(horizon);

    let (mut sim, s, r) = wireless_path(seed);
    let h = attach_pair(&mut sim, s, r, &ConnectionPlan::new(Profile::qtp_light()));
    sim.run_until(SimTime::ZERO + horizon);
    let light_goodput_bps = sim.stats().flow(h.data_flow).goodput_bps(horizon);

    let (mut sim, s, r) = wireless_path(seed);
    let hp = attach_pair(
        &mut sim,
        s,
        r,
        &ConnectionPlan::new(
            Profile::qtp_light_partial(Duration::from_millis(200)).expect("nonzero TTL"),
        ),
    );
    sim.run_until(SimTime::ZERO + horizon);
    let partial_goodput_bps = sim.stats().flow(hp.data_flow).goodput_bps(horizon);
    let pd = hp.tx_tracer.counters();

    WirelessLossReport {
        tcp_goodput_bps,
        light_goodput_bps,
        partial_goodput_bps,
        partial_retransmissions: pd.retransmits,
        partial_abandoned: pd.abandoned,
    }
}

/// Headline numbers of one `mobile_receiver` contender.
#[derive(Debug, Clone)]
pub struct MobileRun {
    /// Application goodput at the mobile receiver (bit/s).
    pub goodput_bps: f64,
    /// Receiver-side processing cost per delivered packet.
    pub rx_ops_per_packet: f64,
    /// Peak receiver-side estimator state (bytes).
    pub rx_state_bytes: u64,
    /// Feedback packets the receiver sent.
    pub rx_feedback_sent: u64,
}

/// Paper §3: a streaming server feeding a resource-limited mobile
/// receiver across a WAN hop plus a lossy wireless last hop. `light`
/// selects QTPlight (sender-side loss estimation) over standard TFRC.
pub fn mobile_receiver(light: bool, loss_p: f64, seed: u64, secs: u64) -> MobileRun {
    let horizon = Duration::from_secs(secs);
    let mut b = NetworkBuilder::new();
    let server = b.host();
    let mobile = b.host();
    let r = b.router();
    b.duplex_link(
        server,
        r,
        LinkConfig::new(Rate::from_mbps(100), Duration::from_millis(15)),
    );
    b.duplex_link(
        r,
        mobile,
        LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5))
            .with_loss(LossModel::bernoulli(loss_p)),
    );
    let mut sim = b.build(seed);
    let profile = if light {
        Profile::qtp_light()
    } else {
        Profile::tfrc()
    };
    let h = attach_pair(&mut sim, server, mobile, &ConnectionPlan::new(profile));
    sim.run_until(SimTime::ZERO + horizon);
    let rx = h.rx_tracer.counters();
    MobileRun {
        goodput_bps: sim.stats().flow(h.data_flow).goodput_bps(horizon),
        rx_ops_per_packet: rx.ops_per_data_pkt(),
        rx_state_bytes: rx.state_bytes_peak,
        rx_feedback_sent: rx.feedbacks_tx,
    }
}

/// Headline numbers of the mobile handover extension.
#[derive(Debug, Clone)]
pub struct HandoverReport {
    /// Goodput while still on the clean WLAN last hop (bit/s).
    pub pre_switch_goodput_bps: f64,
    /// Goodput after the switch to the slower cellular hop (bit/s).
    pub post_switch_goodput_bps: f64,
    /// Post-switch last-hop capacity (bit/s) — the adaptation ceiling.
    pub target_rate_bps: f64,
}

/// Mid-run path switch: the mobile walks out of WLAN coverage onto a
/// slower, lossier cellular hop and the stream must survive and adapt —
/// the session keeps running across [`Handover::switch`] with no
/// reconnect. Deterministic in `seed`.
pub fn mobile_handover(light: bool, seed: u64) -> HandoverReport {
    let cfg = HandoverConfig {
        initial: LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5)),
        target: LinkConfig::new(Rate::from_mbps(2), Duration::from_millis(30))
            .with_loss(LossModel::gilbert_elliott(0.02, 0.3, 0.0, 0.3)),
        switch_at: Duration::from_secs(15),
        ..HandoverConfig::default()
    };
    let (mut sim, ho) = Handover::build(&cfg, seed);
    let profile = if light {
        Profile::qtp_light()
    } else {
        Profile::tfrc()
    };
    let h = attach_pair(
        &mut sim,
        ho.server,
        ho.mobile,
        &ConnectionPlan::new(profile),
    );

    sim.run_until(SimTime::ZERO + cfg.switch_at);
    let at_switch = sim.stats().flow(h.data_flow).bytes_app_delivered;
    ho.switch(&mut sim);
    let total = Duration::from_secs(30);
    sim.run_until(SimTime::ZERO + total);
    let at_end = sim.stats().flow(h.data_flow).bytes_app_delivered;

    let post = total - cfg.switch_at;
    HandoverReport {
        pre_switch_goodput_bps: at_switch as f64 * 8.0 / cfg.switch_at.as_secs_f64(),
        post_switch_goodput_bps: (at_end - at_switch) as f64 * 8.0 / post.as_secs_f64(),
        target_rate_bps: cfg.target.rate.bps() as f64,
    }
}
