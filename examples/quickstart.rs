//! Quickstart: describe a QTP connection once, run it on two different
//! backends — the deterministic simulator and real UDP sockets — with the
//! *same* application code (`qtp::app::run_and_report`).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use qtp::app::run_and_report;
use qtp::prelude::*;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    // The application's intent, backend-neutral: a QTPlight connection
    // (sender-side loss estimation, light receiver) moving 200 packets,
    // plus a fully-reliable QTPAF connection with a 500 kbit/s floor.
    let plans = [
        ConnectionPlan::new(Profile::qtp_light())
            .label("stream")
            .finite(200),
        ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500)))
            .label("bulk")
            .finite(200),
    ];

    // Backend 1: a simulated 10 Mbit/s, 40 ms RTT path with 1% loss.
    println!("same plans, two backends\n");
    let mut sim = SimBackend::isolated(Rate::from_mbps(10), Duration::from_millis(20), 0.01);
    let sim_outcomes = run_and_report(&mut sim, &plans)?;

    // Backend 2: real UDP sockets on loopback, one per side, driven by
    // the readiness-based mux loop.
    println!();
    let mut udp = MuxBackend::default();
    let udp_outcomes = run_and_report(&mut udp, &plans)?;

    // Negotiation is a pure function of offer × policy, so both backends
    // granted the identical service.
    for (a, b) in sim_outcomes.iter().zip(&udp_outcomes) {
        assert_eq!(
            a.negotiated, b.negotiated,
            "{}: same service granted",
            a.label
        );
    }
    // The reliable connection delivered everything on both.
    assert_eq!(sim_outcomes[1].delivered_bytes, 200 * 1000);
    assert_eq!(udp_outcomes[1].delivered_bytes, 200 * 1000);
    println!("\nOK: identical negotiated service and reliable delivery on both backends");
    Ok(())
}
