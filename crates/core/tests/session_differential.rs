//! The behaviour-preservation proof for the session layer: for a fixed
//! seed, wiring a connection through [`attach_pair`] replays
//! **byte-identically** to mounting a bare [`QtpSender`] / [`QtpReceiver`]
//! pair in [`SimAgent`]s (the pre-session wiring, kept here as a test-local
//! reference) — same per-flow statistics, same full counter bank on both
//! sides (every event-derived count and every endpoint-internal
//! measurement) — on a stochastic (lossy, RED-queued) scenario that
//! exercises retransmission, feedback and timers.
//!
//! A `SimAgent<Session>` passes endpoint commands through unchanged and
//! in order, so the simulation's event sequence cannot tell the two
//! wirings apart. This test is what lets the rest of the tree use the
//! session API without touching the committed claims ledger.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile, SessionEvent, SessionEvents};
use qtp_core::{QtpReceiver, QtpReceiverConfig, QtpSender, QtpSenderConfig, SimAgent};
use qtp_metrics::trace::Tracer;
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Simulator;
use std::time::Duration;

/// The reference wiring: bare endpoints between hosts 0 and 1, two
/// registered flows (`diff` data, `diff-fb` feedback). Returns the data
/// flow and both endpoints' tracers.
fn attach_bare(sim: &mut Simulator, cfg: QtpSenderConfig) -> (FlowId, Tracer, Tracer) {
    let data_flow = sim.register_flow("diff");
    let fb_flow = sim.register_flow("diff-fb");
    let sender = QtpSender::new(data_flow, 1, cfg);
    let tx = sender.tracer();
    sim.attach_agent(0, Box::new(SimAgent::new(sender)));
    let receiver = QtpReceiver::new(data_flow, fb_flow, 0, QtpReceiverConfig::default());
    let rx = receiver.tracer();
    sim.attach_agent(1, Box::new(SimAgent::new(receiver)));
    (data_flow, tx, rx)
}

/// One fixed-seed lossy scenario: wire a connection, run 30 virtual
/// seconds, then render flow stats and both sides' full counter sets for
/// comparison. Counters are snapshotted strictly *after* the run.
fn scenario(
    seed: u64,
    wire: impl FnOnce(&mut Simulator) -> (FlowId, Tracer, Tracer, Option<SessionEvents>),
) -> (String, Option<Vec<SessionEvent>>) {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.simplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps(5), Duration::from_millis(25))
            .with_loss(LossModel::bernoulli(0.02))
            .with_queue(QueueConfig::Red(RedParams::default())),
    );
    b.simplex_link(
        r,
        s,
        LinkConfig::new(Rate::from_mbps(5), Duration::from_millis(25)),
    );
    let mut sim = b.build(seed);
    let (data_flow, tx, rx, events) = wire(&mut sim);
    sim.run_until(SimTime::from_secs(30));
    let rendered = format!(
        "flow={:?}\nfb={:?}\ntx={:?}\nrx={:?}",
        sim.stats().flow(data_flow),
        sim.stats().flow(data_flow + 1),
        tx.counters(),
        rx.counters(),
    );
    (rendered, events.map(|e| e.drain()))
}

fn differential(profile: Profile, legacy_cfg: QtpSenderConfig) {
    for seed in [7u64, 42] {
        let (legacy, _) = scenario(seed, |sim| {
            let (data_flow, tx, rx) = attach_bare(sim, legacy_cfg.clone());
            (data_flow, tx, rx, None)
        });
        let (session, events) = scenario(seed, |sim| {
            let plan = ConnectionPlan::new(profile)
                .app(legacy_cfg.app.clone())
                .payload(legacy_cfg.s);
            let h = attach_pair(sim, 0, 1, "diff", &plan);
            (h.data_flow, h.tx_tracer, h.rx_tracer, Some(h.tx_events))
        });
        assert_eq!(
            legacy, session,
            "seed {seed}: session wiring must replay the legacy wiring byte-identically"
        );
        // The session layer adds typed events on top of identical
        // behaviour; negotiation must have been observed.
        assert!(
            events
                .unwrap()
                .iter()
                .any(|e| matches!(e, SessionEvent::Connected { .. })),
            "seed {seed}: sender session observed Connected"
        );
    }
}

#[test]
fn qtpaf_session_wiring_matches_legacy_byte_for_byte() {
    let mut cfg = QtpSenderConfig::new(qtp_core::CapabilitySet::qtp_af(Rate::from_mbps(1)));
    cfg.app = qtp_core::AppModel::Finite { packets: 500 };
    differential(Profile::qtp_af(Rate::from_mbps(1)), cfg);
}

#[test]
fn qtplight_session_wiring_matches_legacy_byte_for_byte() {
    let cfg = QtpSenderConfig::new(qtp_core::CapabilitySet::qtp_light());
    differential(Profile::qtp_light(), cfg);
}

#[test]
fn ttl_partial_session_wiring_matches_legacy_byte_for_byte() {
    let ttl = Duration::from_millis(120);
    let cfg = QtpSenderConfig::new(qtp_core::CapabilitySet::qtp_light_partial(ttl));
    differential(Profile::qtp_light_partial(ttl).expect("nonzero TTL"), cfg);
}
