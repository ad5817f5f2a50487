//! The selfish-receiver attack (Georg & Gorinsky, cited in paper §3): a
//! receiver under-reports its loss event rate to grab more bandwidth.
//! Standard TFRC trusts the receiver and is fooled; QTPlight computes the
//! loss rate at the sender and is immune.
//!
//! ```text
//! cargo run --example selfish_receiver
//! ```

use qtp::prelude::*;
use std::time::Duration;

const SECS: u64 = 40;

fn run(light: bool, selfish_factor: f64) -> f64 {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.simplex_link(
        s,
        r,
        LinkConfig::new(Rate::from_mbps(50), Duration::from_millis(30))
            .with_loss(LossModel::bernoulli(0.02))
            .with_queue(QueueConfig::DropTailPkts(500)),
    );
    b.simplex_link(
        r,
        s,
        LinkConfig::new(Rate::from_mbps(50), Duration::from_millis(30)),
    );
    let mut sim = b.build(5);
    let profile = if light {
        Profile::qtp_light()
    } else {
        Profile::tfrc()
    };
    let plan = ConnectionPlan::new(profile).selfish_factor(selfish_factor);
    let h = attach_pair(&mut sim, s, r, &plan);
    sim.run_until(SimTime::from_secs(SECS));
    sim.stats()
        .flow(h.data_flow)
        .throughput_bps(Duration::from_secs(SECS))
}

fn main() {
    println!("2% lossy path; receiver divides its reported loss rate by k\n");
    println!(
        "{:>6} {:>22} {:>22}",
        "k", "standard TFRC (Mbit/s)", "QTPlight (Mbit/s)"
    );
    let honest_std = run(false, 1.0);
    let honest_light = run(true, 1.0);
    for k in [1.0, 2.0, 10.0, 100.0] {
        let std = run(false, k);
        let light = run(true, k);
        println!(
            "{:>6} {:>15.2} ({:>4.1}x) {:>15.2} ({:>4.2}x)",
            k,
            std / 1e6,
            std / honest_std,
            light / 1e6,
            light / honest_light
        );
    }
    println!(
        "\nWith sender-side estimation there is no loss report to falsify: the\n\
         sender counts its own losses from SACK feedback (paper §3: \"the sender\n\
         is no longer dependent of the accuracy and the veracity of the\n\
         information given by the receiver\")."
    );
}
