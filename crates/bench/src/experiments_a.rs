//! Experiments E1–E5: the DiffServ/AF bandwidth-assurance studies (paper
//! §4) and the QTPlight equivalence/cost studies (paper §3).
//!
//! Paper claims covered, one experiment each:
//!
//! * **E1** — §4 baseline (Seddigh et al.): TCP cannot sustain a
//!   bandwidth guarantee inside an AF class.
//! * **E2** — §4 headline: "QTPAF obtains the QoS negotiated by the
//!   application … whereas TCP fails to deliver this QoS".
//! * **E3** — §4 (gTFRC design): the guaranteed flow converges to ≥ g
//!   and stays there.
//! * **E4** — §3: moving loss estimation to the sender preserves TFRC's
//!   rate behaviour.
//! * **E5** — §3: "it allows the receiver load to be dramatically
//!   decreased".
//!
//! Each experiment records its headline numbers as gated
//! [`Table::metric`]s; `ledger::assertions` encodes the claim itself as
//! an ordering check over them.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile};
use qtp_simnet::prelude::*;
use qtp_tcp::TcpFlavor;
use std::time::Duration;

use crate::common::*;
use crate::table::{mbps, ratio, Table, Tolerance};

/// E1 — TCP cannot sustain a bandwidth guarantee inside an AF class
/// (the Seddigh et al. baseline the paper's §4 builds on).
///
/// Two TCP flows share a 10 Mbit/s RIO bottleneck with committed rates
/// `g` and `9 − g`. An assured service should give each flow its target
/// plus a fair share of the ~1 Mbit/s excess; measured achievement ratios
/// show TCP over-achieving small targets and failing large ones.
pub fn e1() -> Table {
    let mut t = Table::new(
        "E1",
        "TCP bandwidth assurance in an AF class (baseline)",
        "§4: \"the TCP throughput guarantee inside this class is not feasible under various network conditions\" (Seddigh et al.)",
        &["g1 (Mbit/s)", "g2 (Mbit/s)", "tcp1 achieved", "tcp2 achieved", "tcp1/g1", "tcp2/g2"],
    );
    const SECS: u64 = 60;
    let mut worst_high_target: f64 = f64::INFINITY;
    let mut best_low_target: f64 = 0.0;
    for g1 in 1..=8u64 {
        let g2 = 9 - g1;
        let (mut sim, net) = af_dumbbell(2, 10, Duration::from_millis(10), None, 100 + g1);
        let f1 = attach_tcp(&mut sim, &net, 0, TcpFlavor::NewReno);
        let f2 = attach_tcp(&mut sim, &net, 1, TcpFlavor::NewReno);
        set_profile(&mut sim, &net, 0, f1, Rate::from_mbps(g1));
        set_profile(&mut sim, &net, 1, f2, Rate::from_mbps(g2));
        sim.run_until(SimTime::from_secs(SECS));
        let a1 = throughput(&sim, f1, SECS);
        let a2 = throughput(&sim, f2, SECS);
        let r1 = a1 / (g1 as f64 * 1e6);
        let r2 = a2 / (g2 as f64 * 1e6);
        let (low, high) = if g1 <= g2 { (r1, r2) } else { (r2, r1) };
        worst_high_target = worst_high_target.min(high);
        best_low_target = best_low_target.max(low);
        t.row(vec![
            g1.to_string(),
            g2.to_string(),
            mbps(a1),
            mbps(a2),
            ratio(r1),
            ratio(r2),
        ]);
    }
    t.verdict = format!(
        "large targets under-achieve (worst ratio {worst_high_target:.2}) while small targets grab excess (best ratio {best_low_target:.2}) — TCP cannot enforce the reservation, matching Seddigh et al."
    );
    t.metric(
        "worst_high_target",
        worst_high_target,
        "ratio",
        Tolerance::AbsOrRel(0.05, 0.20),
    );
    t.metric(
        "best_low_target",
        best_low_target,
        "ratio",
        Tolerance::Rel(0.15),
    );
    t
}

/// E2 — the headline §4 claim: goodput/target ratio for TCP, standard
/// TFRC and QTPAF across targets and RTTs, against out-of-profile TCP
/// background load.
pub fn e2() -> Table {
    let mut t = Table::new(
        "E2",
        "Achieving the negotiated rate: TCP vs TFRC vs QTPAF",
        "§4: \"QTPAF obtains the QoS negotiated by the application with the network service whereas TCP fails to deliver this QoS\"",
        &["protocol", "g (Mbit/s)", "RTT 10ms", "RTT 100ms", "RTT 300ms"],
    );
    const SECS: u64 = 40;
    const BOTTLENECK_DELAY_MS: u64 = 4;
    let rtts_ms = [10u64, 100, 300];
    let targets_mbps = [0.5f64, 1.0, 2.0, 4.0, 8.0];
    let mut qtp_af_min: f64 = f64::INFINITY;
    let mut tcp_min: f64 = f64::INFINITY;

    for proto in ["TCP", "TFRC", "QTPAF"] {
        for &g in &targets_mbps {
            let mut cells = vec![proto.to_string(), format!("{g}")];
            for &rtt_ms in &rtts_ms {
                let access_ms = (rtt_ms / 2).saturating_sub(BOTTLENECK_DELAY_MS + 1);
                let seed = 7 + rtt_ms + (g * 10.0) as u64;
                // pair 0: flow under test; pairs 1-2: background TCP, out
                // of profile, low RTT (aggressive).
                let (mut sim, net) = af_dumbbell(
                    3,
                    10,
                    Duration::from_millis(BOTTLENECK_DELAY_MS),
                    Some(vec![
                        Duration::from_millis(access_ms),
                        Duration::from_millis(1),
                        Duration::from_millis(1),
                    ]),
                    seed,
                );
                let target = Rate::from_mbps_f64(g);
                let flow = match proto {
                    "TCP" => attach_tcp(&mut sim, &net, 0, TcpFlavor::NewReno),
                    "TFRC" => {
                        attach_plan_pair(&mut sim, &net, 0, &ConnectionPlan::new(Profile::tfrc()))
                            .data_flow
                    }
                    _ => {
                        attach_plan_pair(
                            &mut sim,
                            &net,
                            0,
                            &ConnectionPlan::new(Profile::qtp_af(target)),
                        )
                        .data_flow
                    }
                };
                set_profile(&mut sim, &net, 0, flow, target);
                for bg in 1..3 {
                    let f = attach_tcp(&mut sim, &net, bg, TcpFlavor::NewReno);
                    set_out_of_profile(&mut sim, &net, bg, f);
                }
                sim.run_until(SimTime::from_secs(SECS));
                let achieved = throughput(&sim, flow, SECS) / (g * 1e6);
                match proto {
                    "QTPAF" => qtp_af_min = qtp_af_min.min(achieved),
                    "TCP" => tcp_min = tcp_min.min(achieved),
                    _ => {}
                }
                cells.push(ratio(achieved));
            }
            t.row(cells);
        }
    }
    t.verdict = format!(
        "QTPAF worst-case achievement {qtp_af_min:.2} of target vs TCP worst case {tcp_min:.2} — the negotiated rate is held by QTPAF and not by TCP, matching the claim."
    );
    t.metric("qtpaf_min", qtp_af_min, "ratio", Tolerance::Rel(0.10));
    t.metric("tcp_min", tcp_min, "ratio", Tolerance::AbsOrRel(0.05, 0.25));
    t
}

/// E3 — convergence-to-guarantee time series: QTPAF(g=4 Mbit/s) vs a TCP
/// flow with the same reservation, each sharing the RIO bottleneck with an
/// out-of-profile TCP aggressor.
pub fn e3() -> Table {
    let mut t = Table::new(
        "E3",
        "Throughput over time with g = 4 Mbit/s (RIO core, TCP aggressor)",
        "§4 (gTFRC design): the guaranteed flow should converge to ≥ g and stay there; TCP with the same reservation oscillates below it",
        &["t (s)", "QTPAF (Mbit/s)", "TCP w/ profile (Mbit/s)"],
    );
    const SECS: u64 = 30;
    let g = Rate::from_mbps(4);

    let run = |use_qtpaf: bool| -> Vec<f64> {
        let (mut sim, net) = af_dumbbell(2, 10, Duration::from_millis(10), None, 31);
        sim.set_sample_interval(Duration::from_secs(1));
        let flow = if use_qtpaf {
            attach_plan_pair(&mut sim, &net, 0, &ConnectionPlan::new(Profile::qtp_af(g))).data_flow
        } else {
            attach_tcp(&mut sim, &net, 0, TcpFlavor::NewReno)
        };
        set_profile(&mut sim, &net, 0, flow, g);
        let bg = attach_tcp(&mut sim, &net, 1, TcpFlavor::NewReno);
        set_out_of_profile(&mut sim, &net, 1, bg);
        sim.run_until(SimTime::from_secs(SECS));
        sim.stats()
            .flow(flow)
            .arrive_series_bps(Duration::from_secs(1))
    };

    let qtpaf = run(true);
    let tcp = run(false);
    for (i, (a, b)) in qtpaf.iter().zip(&tcp).enumerate() {
        t.row(vec![(i + 1).to_string(), mbps(*a), mbps(*b)]);
    }
    // Steady-state check over the last 20 seconds.
    let steady = |xs: &[f64]| xs[10..].iter().sum::<f64>() / (xs.len() - 10) as f64;
    let (sa, sb) = (steady(&qtpaf), steady(&tcp));
    t.verdict = format!(
        "steady-state mean: QTPAF {:.2} Mbit/s (target 4) vs TCP {:.2} Mbit/s — QTPAF converges to the guarantee, TCP does not.",
        sa / 1e6,
        sb / 1e6
    );
    t.metric(
        "qtpaf_steady_mbps",
        sa / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.15),
    );
    t.metric(
        "tcp_steady_mbps",
        sb / 1e6,
        "Mbit/s",
        Tolerance::AbsOrRel(0.5, 0.25),
    );
    t
}

/// E4 — QTPlight rate equivalence: moving the loss estimation to the
/// sender must not change TFRC's rate behaviour (§3), across loss rates.
pub fn e4() -> Table {
    let mut t = Table::new(
        "E4",
        "QTPlight vs standard TFRC vs analytic equation (Bernoulli loss)",
        "§3: shifting loss-rate computation to the sender preserves TFRC behaviour (\"few changes ... in the TFRC header and algorithm\")",
        &["p", "TFRC (Mbit/s)", "QTPlight (Mbit/s)", "light/std", "equation (Mbit/s)"],
    );
    const SECS: u64 = 60;
    let mut worst: f64 = 1.0;
    for &p in &[0.001f64, 0.005, 0.01, 0.02, 0.05, 0.1] {
        let run = |light: bool| -> f64 {
            let (mut sim, s, r) = lossy_path(
                50,
                Duration::from_millis(30),
                LossModel::bernoulli(p),
                (p * 1e4) as u64 + 17,
            );
            let profile = if light {
                Profile::qtp_light()
            } else {
                Profile::tfrc()
            };
            let h = attach_pair(&mut sim, s, r, &ConnectionPlan::new(profile));
            sim.run_until(SimTime::from_secs(SECS));
            goodput(&sim, h.data_flow, SECS)
        };
        let std = run(false);
        let light = run(true);
        let rel = light / std;
        worst = if (rel - 1.0).abs() > (worst - 1.0).abs() {
            rel
        } else {
            worst
        };
        // Equation at the base RTT (60 ms) — the loop sits near this point.
        let eq = qtp_tfrc::throughput(1000, Duration::from_millis(60), p) * 8.0;
        t.row(vec![
            format!("{p}"),
            mbps(std),
            mbps(light),
            ratio(rel),
            mbps(eq),
        ]);
    }
    t.verdict = format!(
        "largest deviation of QTPlight from standard TFRC: factor {worst:.2} — the two track each other across two orders of magnitude of loss."
    );
    t.metric("worst_deviation", worst, "factor", Tolerance::Abs(0.15));
    t
}

/// E5 — the receiver-load ledger: per-packet processing operations and
/// peak state bytes for the RFC 3448 receiver vs the QTPlight receiver
/// (plus where the work went: the sender).
pub fn e5() -> Table {
    let mut t = Table::new(
        "E5",
        "Receiver processing load: standard TFRC vs QTPlight",
        "§3: \"it allows the receiver load to be dramatically decreased\"",
        &[
            "loss p",
            "std rx ops/pkt",
            "light rx ops/pkt",
            "reduction",
            "std rx state (B)",
            "light rx state (B)",
            "std tx ops",
            "light tx ops",
        ],
    );
    const SECS: u64 = 30;
    let mut min_reduction = f64::INFINITY;
    for &p in &[0.0f64, 0.01, 0.05] {
        let run = |light: bool| {
            let (mut sim, s, r) = lossy_path(
                10,
                Duration::from_millis(20),
                if p > 0.0 {
                    LossModel::bernoulli(p)
                } else {
                    LossModel::None
                },
                (p * 1e4) as u64 + 23,
            );
            let profile = if light {
                Profile::qtp_light()
            } else {
                Profile::tfrc()
            };
            let h = attach_pair(&mut sim, s, r, &ConnectionPlan::new(profile));
            sim.run_until(SimTime::from_secs(SECS));
            h
        };
        let std = run(false);
        let light = run(true);
        let (std_rx, light_rx) = (std.rx_tracer.counters(), light.rx_tracer.counters());
        let (so, lo) = (std_rx.ops_per_data_pkt(), light_rx.ops_per_data_pkt());
        let reduction = so / lo.max(1e-9);
        min_reduction = min_reduction.min(reduction);
        t.row(vec![
            format!("{p}"),
            format!("{so:.1}"),
            format!("{lo:.1}"),
            format!("{reduction:.1}x"),
            std_rx.state_bytes_peak.to_string(),
            light_rx.state_bytes_peak.to_string(),
            std.tx_tracer.read(|c| c.ops).to_string(),
            light.tx_tracer.read(|c| c.ops).to_string(),
        ]);
    }
    t.verdict = format!(
        "QTPlight cuts receiver work by at least {min_reduction:.1}x per packet (state shrinks too); the loss-history cost reappears at the sender, which is exactly the intended asymmetry."
    );
    t.metric(
        "min_reduction",
        min_reduction,
        "factor",
        Tolerance::Rel(0.20),
    );
    t
}
