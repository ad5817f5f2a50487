//! Run a QTP connection over *real* UDP sockets on loopback.
//!
//! The same `ConnectionPlan` the simulator experiments use here
//! negotiates a capability profile and completes a fully reliable
//! transfer between two `std::net::UdpSocket`s on 127.0.0.1, driven by
//! `qtp-io`'s readiness loop (`MuxDriver`, here with a single connection)
//! behind the `MuxBackend` seam — through the same shared helper
//! (`qtp::app::run_and_report`) as the quickstart and many-flows examples:
//!
//! ```text
//! cargo run --example udp_loopback
//! ```

use qtp::app::run_and_report;
use qtp::prelude::*;

const PACKETS: u64 = 100;
const PAYLOAD: u64 = 1000;

fn main() -> std::io::Result<()> {
    // Offer the QTPAF profile (gTFRC with a 500 kbit/s floor, full
    // reliability, receiver-side loss estimation) and a finite backlog.
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
        .label("af")
        .finite(PACKETS);

    let mut backend = MuxBackend::default();
    let outcomes = run_and_report(&mut backend, std::slice::from_ref(&plan))?;
    let o = &outcomes[0];

    assert!(o.completion_s.is_some(), "transfer timed out");
    let chosen = o
        .negotiated
        .expect("handshake completed, so a profile was chosen");
    println!("\nnegotiated profile: {chosen:?}");
    println!(
        "retransmissions: {}; rtt estimate: {:.3} ms; feedback pkts: {}",
        o.tx.retransmits,
        o.tx.srtt_s * 1e3,
        o.rx.feedbacks_tx,
    );
    assert_eq!(o.delivered_bytes, PACKETS * PAYLOAD);
    // Typed events, not counter snapshots, carry the application-visible facts.
    assert!(o
        .tx_events
        .iter()
        .any(|e| matches!(e, SessionEvent::Connected { .. })));
    println!("OK: reliable transfer over real UDP sockets complete");
    Ok(())
}
