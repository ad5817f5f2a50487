//! QTPAF over a DiffServ Assured-Forwarding network (the paper's §4
//! scenario): a flow with a negotiated 4 Mbit/s guarantee competes with an
//! aggressive out-of-profile TCP flow across a RIO core. Compare with a
//! TCP flow holding the same reservation.
//!
//! ```text
//! cargo run --example qos_streaming
//! ```

use qtp::prelude::*;
use qtp::simnet::marker::TokenBucketMarker;
use std::time::Duration;

const SECS: u64 = 30;

/// Run one scenario; returns per-second throughput of the guaranteed flow.
fn run(use_qtpaf: bool, g: Rate) -> Vec<f64> {
    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_rate: Rate::from_mbps(10),
        bottleneck_delay: Duration::from_millis(10),
        bottleneck_queue: QueueConfig::Rio(RioParams::default()),
        ..DumbbellConfig::default()
    };
    let (mut sim, net) = Dumbbell::build(&cfg, 7);
    sim.set_sample_interval(Duration::from_secs(1));

    // Pair 0: the flow under test, with an edge conditioner for g.
    let flow = if use_qtpaf {
        attach_pair(
            &mut sim,
            net.senders[0],
            net.receivers[0],
            &ConnectionPlan::new(Profile::qtp_af(g)),
        )
        .data_flow
    } else {
        attach_tcp(
            &mut sim,
            net.senders[0],
            net.receivers[0],
            TcpFlavor::NewReno,
        )
    };
    sim.set_marker(
        net.sender_access[0],
        flow,
        TokenBucketMarker::new(g, 20_000),
    );

    // Pair 1: out-of-profile TCP aggressor (everything marked red).
    let bg = attach_tcp(
        &mut sim,
        net.senders[1],
        net.receivers[1],
        TcpFlavor::NewReno,
    );
    sim.set_marker(
        net.sender_access[1],
        bg,
        TokenBucketMarker::new(Rate::ZERO, 0),
    );

    sim.run_until(SimTime::from_secs(SECS));
    sim.stats()
        .flow(flow)
        .arrive_series_bps(Duration::from_secs(1))
}

fn main() {
    let g = Rate::from_mbps(4);
    println!("Assured Forwarding class, 10 Mbit/s RIO core, guarantee g = {g}");
    println!("flow under test vs an out-of-profile TCP aggressor\n");
    let qtpaf = run(true, g);
    let tcp = run(false, g);
    println!("  t(s)   QTPAF(Mbit/s)   TCP-with-reservation(Mbit/s)");
    for i in 0..qtpaf.len() {
        println!(
            "  {:>3}    {:>8.2}        {:>8.2}",
            i + 1,
            qtpaf[i] / 1e6,
            tcp[i] / 1e6
        );
    }
    let steady = |xs: &[f64]| xs[10..].iter().sum::<f64>() / (xs.len() - 10) as f64 / 1e6;
    println!(
        "\nsteady-state mean: QTPAF {:.2} Mbit/s vs TCP {:.2} Mbit/s (target 4.00)",
        steady(&qtpaf),
        steady(&tcp)
    );
    println!("QTPAF holds the negotiated rate; TCP cannot — the paper's §4 claim.");
}
