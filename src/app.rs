//! The shared application driver: run [`ConnectionPlan`]s on any
//! [`Backend`] and report what happened.
//!
//! This is the "one program, every I/O strategy" helper the examples
//! share: `quickstart` runs it on the simulator *and* on real sockets,
//! `udp_loopback` on one connection over a loopback socket pair,
//! `many_flows` on 64 connections multiplexed over the same kind of pair
//! and on a simulated dumbbell — all with exactly the same call.

use crate::prelude::*;
use std::io;

/// Compact rendering of a negotiated capability set, one token per axis
/// (e.g. `Full/ReceiverLoss/gTFRC(500kbit/s)`).
pub fn caps_brief(caps: &CapabilitySet) -> String {
    let rel = match caps.reliability {
        Reliability::None => "None".to_string(),
        Reliability::Full => "Full".to_string(),
        Reliability::Ttl(d) => format!("Ttl({}ms)", d.as_millis()),
        Reliability::Budget(n) => format!("Budget({n})"),
    };
    let fb = match caps.feedback {
        FeedbackMode::ReceiverLoss => "ReceiverLoss",
        FeedbackMode::SenderLoss => "SenderLoss",
    };
    let cc = match caps.cc {
        CcKind::Tfrc => "TFRC".to_string(),
        CcKind::Gtfrc { target } => format!("gTFRC({}kbit/s)", target.bps() / 1000),
        CcKind::Fixed { rate } => format!("Fixed({}kbit/s)", rate.bps() / 1000),
        CcKind::Cubic => "CUBIC".to_string(),
        CcKind::BbrLite => "BBR-lite".to_string(),
    };
    format!("{rel}/{fb}/{cc}")
}

/// Run `plans` on `backend` and print one line per connection plus a
/// fairness headline. Returns the outcomes for further inspection.
///
/// The point of this helper is what it does *not* contain: nothing in it
/// knows whether the bytes crossed a simulated bottleneck or a pair of UDP
/// sockets, carrying one flow or every flow at once.
pub fn run_and_report(
    backend: &mut dyn Backend,
    plans: &[ConnectionPlan],
) -> io::Result<Vec<ConnectionOutcome>> {
    let outcomes = backend.run(plans)?;
    println!("[{}] ran {} connection(s):", backend.name(), outcomes.len());
    let shown = outcomes.len().min(8);
    for o in outcomes.iter().take(shown) {
        println!(
            "  {:<10} {:<28} delivered {:>8} B  goodput {:>9.1} kbit/s  {}",
            o.label,
            o.negotiated
                .as_ref()
                .map(caps_brief)
                .unwrap_or_else(|| "(no handshake)".into()),
            o.delivered_bytes,
            o.goodput_bps / 1e3,
            match o.completion_s {
                Some(t) => format!("done in {t:.3} s"),
                None => "incomplete".into(),
            },
        );
    }
    if outcomes.len() > shown {
        println!("  … {} more", outcomes.len() - shown);
    }
    let goodputs: Vec<f64> = outcomes.iter().map(|o| o.goodput_bps).collect();
    let completed = outcomes.iter().filter(|o| o.completion_s.is_some()).count();
    println!(
        "  {} of {} completed, jain fairness {:.4}, total delivered {} B",
        completed,
        outcomes.len(),
        jain_index(&goodputs),
        outcomes.iter().map(|o| o.delivered_bytes).sum::<u64>(),
    );
    Ok(outcomes)
}
