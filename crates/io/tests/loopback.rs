//! End-to-end tests over real UDP sockets on 127.0.0.1: capability
//! negotiation, reliable transfer, and the differential check that the
//! simulator backend and the socket backend agree on what the protocol
//! *does* (same negotiated capabilities, same delivered ADU sequence) for
//! a loss-free run.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile, Session};
use qtp_core::ServerPolicy;
use qtp_io::{drive_mux_pair, Accepted, ConnStats, MuxDriver, MuxStats};
use qtp_simnet::prelude::*;
use std::time::Duration;

const PACKETS: u64 = 40;
const PAYLOAD: u64 = 1000;

/// One side of a finished loopback run: the session plus what its socket
/// and its connection counted.
struct Side {
    ep: Session,
    stats: MuxStats,
    conn: ConnStats,
}

/// Run one QTP connection over two loopback UDP sockets — a one-connection
/// mux of sessions on each side, the receiver accepted on the first frame —
/// until the transfer completes (or a generous wall-clock deadline passes).
/// Returns both sides for post-run inspection.
fn run_loopback(plan: &ConnectionPlan, done_needs_acks: bool) -> (Side, Side) {
    let mut rx: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").expect("bind receiver");
    let rx_plan = plan.clone();
    rx.set_acceptor(move |_, frame| {
        (frame.flow == 0).then(|| Accepted {
            endpoint: Session::receiver(0, 1, 0, &rx_plan),
            flows: vec![0, 1],
        })
    });
    let peer = rx.local_addr().expect("local addr");

    let mut tx: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").expect("bind sender");
    let tx_addr = tx.local_addr().expect("local addr");
    let tx_id = tx
        .add_connection(peer, vec![0, 1], Session::sender(0, 1, plan))
        .expect("register sender");

    // Gate on delivered *bytes*: under unreliable profiles the receiver
    // hands every arriving packet up immediately whatever its order, so
    // this predicate doesn't silently require in-order arrival the way the
    // cum-ack-based `delivered_packets()` would.
    let done = drive_mux_pair(&mut tx, &mut rx, Duration::from_secs(30), |tx, rx| {
        let delivered = rx
            .route(tx_addr, 0)
            .and_then(|id| rx.conn_stats(id))
            .map_or(0, |c| c.delivered_bytes);
        delivered >= PACKETS * PAYLOAD
            && (!done_needs_acks || tx.endpoint(tx_id).is_some_and(|s| s.all_acked()))
    })
    .expect("event loop error");
    assert!(done, "loopback transfer timed out");

    let rx_id = rx.route(tx_addr, 0).expect("receiver was accepted");
    (
        Side {
            stats: tx.stats(),
            conn: tx.conn_stats(tx_id).unwrap(),
            ep: tx.close(tx_id).unwrap(),
        },
        Side {
            stats: rx.stats(),
            conn: rx.conn_stats(rx_id).unwrap(),
            ep: rx.close(rx_id).unwrap(),
        },
    )
}

#[test]
fn reliable_transfer_over_loopback_completes() {
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500))).finite(PACKETS);
    let (tx, rx) = run_loopback(&plan, true);

    // Handshake: both ends converged on the same negotiated profile, and it
    // is exactly what the default server policy yields for this offer.
    let expected = ServerPolicy::default().negotiate(plan.profile.caps());
    assert_eq!(tx.ep.negotiated(), Some(expected));
    assert_eq!(rx.ep.negotiated(), Some(expected));

    // Reliable delivery: every ADU, in order, exactly once.
    assert_eq!(rx.ep.delivered_packets(), PACKETS);
    assert_eq!(rx.ep.cum_ack(), PACKETS);
    assert_eq!(rx.conn.delivered_bytes, PACKETS * PAYLOAD);
    assert!(tx.ep.all_acked(), "sender saw every ack");
    assert_eq!(tx.ep.sent_new(), PACKETS);

    // Real datagrams actually crossed the sockets.
    assert!(tx.stats.datagrams_sent >= PACKETS);
    assert!(rx.stats.datagrams_received >= PACKETS);
    assert!(rx.stats.datagrams_sent > 0, "feedback flowed back");
}

/// The differential backbone: the same protocol configuration, run once
/// through the discrete-event simulator and once over real sockets, must
/// negotiate the same `CapabilitySet` and deliver the same ADU sequence.
#[test]
fn sim_and_socket_backends_agree_loss_free() {
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500))).finite(PACKETS);

    // --- simulator backend, loss-free path -----------------------------
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.duplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5)),
    );
    let mut sim = b.build(7);
    let h = attach_pair(&mut sim, s, r, &plan);
    sim.run_until(SimTime::from_secs(60));
    let sim_delivered_bytes = sim.stats().flow(h.data_flow).bytes_app_delivered;
    let sim_delivered_pkts = sim_delivered_bytes / PAYLOAD;

    // --- socket backend, loopback ---------------------------------------
    let (tx, rx) = run_loopback(&plan, true);

    // Negotiation agrees (and matches the pure negotiation function, which
    // is what the simulator's endpoints run too).
    let expected = ServerPolicy::default().negotiate(plan.profile.caps());
    assert_eq!(tx.ep.negotiated(), Some(expected));
    assert_eq!(rx.ep.negotiated(), Some(expected));

    // Delivery agrees: same number of ADUs, same bytes, and — because this
    // profile delivers strictly in order from sequence 0 — the identical
    // ADU sequence 0..PACKETS on both backends.
    assert_eq!(sim_delivered_pkts, PACKETS, "sim delivered everything");
    assert_eq!(rx.ep.delivered_packets(), sim_delivered_pkts);
    assert_eq!(rx.conn.delivered_bytes, sim_delivered_bytes);
    assert_eq!(rx.ep.cum_ack(), PACKETS);
}

#[test]
fn qtp_light_negotiates_identically_on_both_backends() {
    // The QTPlight offer exercises the other half of the capability space
    // (SenderLoss feedback, no reliability). Negotiation is the part that
    // must agree exactly; unreliable delivery counts are not compared
    // (raw UDP makes no ordering/loss promises).
    let plan = ConnectionPlan::new(Profile::qtp_light()).finite(PACKETS);

    let (tx, rx) = run_loopback(&plan, false);
    let expected = ServerPolicy::default().negotiate(plan.profile.caps());
    assert_eq!(tx.ep.negotiated(), Some(expected));
    assert_eq!(rx.ep.negotiated(), Some(expected));
    assert!(rx.conn.delivered_bytes >= PACKETS * PAYLOAD);
}
