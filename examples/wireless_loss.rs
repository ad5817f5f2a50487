//! Motivation experiment (paper §2): rate-based congestion control vs TCP
//! over a bursty wireless channel (Gilbert–Elliott loss), plus the
//! partial-reliability composition: a QTPlight stream that retransmits
//! only frames still young enough to matter.
//!
//! The run logic lives in [`qtp::scenarios::wireless_loss`], shared with
//! the integration test that asserts these headlines
//! (`tests/example_scenarios.rs`); this binary only formats the report.
//!
//! ```text
//! cargo run --example wireless_loss
//! ```

fn main() {
    println!("5 Mbit/s wireless path, Gilbert-Elliott bursty loss (~1.6% average)\n");

    let r = qtp::scenarios::wireless_loss(11, 40);

    println!("{:<34}{:>12}", "transport", "goodput");
    println!(
        "{:<34}{:>9.2} Mb",
        "TCP SACK (full reliability)",
        r.tcp_goodput_bps / 1e6
    );
    println!(
        "{:<34}{:>9.2} Mb",
        "QTPlight (no retransmission)",
        r.light_goodput_bps / 1e6
    );
    println!(
        "{:<34}{:>9.2} Mb   ({} retx, {} frames abandoned)",
        "QTPlight + Ttl(200ms)",
        r.partial_goodput_bps / 1e6,
        r.partial_retransmissions,
        r.partial_abandoned
    );
    println!(
        "\nRate-based control rides through loss bursts that implode TCP's window\n\
         (paper §2), and the SACK composition recovers recent frames without\n\
         blocking on stale ones."
    );
}
