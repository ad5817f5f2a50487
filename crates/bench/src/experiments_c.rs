//! Experiments E11–E12: ablations of the two central design choices.
//!
//! Paper claims covered:
//!
//! * **E11** — RFC 3448 §5.2 (design choice D1): losses within one RTT
//!   form a single congestion signal; ablating the grouping in the
//!   QTPlight estimator must collapse the rate on bursty paths.
//! * **E12** — §4 (design choice D3): the QTPAF guarantee emerges from
//!   the *composition* gTFRC floor × edge marker × RIO core; removing
//!   any piece either breaks the rate or pays for it in losses.
//!
//! Headline numbers are recorded as gated [`Table::metric`]s; the claim
//! orderings live in `ledger::assertions`.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile, Reliability};
use qtp_core::{CcKind, FeedbackMode};
use qtp_simnet::prelude::*;
use qtp_tcp::TcpFlavor;
use std::time::Duration;

use crate::common::*;
use crate::table::{mbps, ratio, Table, Tolerance};

/// E11 — **D1 ablation**: RFC 3448 groups losses within one RTT into a
/// single loss *event*. Disable the grouping in the QTPlight estimator and
/// measure the damage under bursty (Gilbert–Elliott) loss: every burst
/// packet now counts separately, `p` inflates, and the rate collapses.
pub fn e11() -> Table {
    let mut t = Table::new(
        "E11",
        "Ablation D1: loss-event grouping vs per-packet loss counting",
        "RFC 3448 §5.2 (design choice D1): losses within one RTT are one congestion signal; counting packets instead of events over-throttles bursty paths",
        &[
            "burstiness P(g→b)",
            "grouped p",
            "ungrouped p",
            "grouped rate (Mbit/s)",
            "ungrouped rate (Mbit/s)",
            "rate penalty",
        ],
    );
    const SECS: u64 = 60;
    let mut worst_penalty: f64 = 1.0;
    for &p_gb in &[0.002f64, 0.01, 0.02] {
        let run = |ungrouped: bool| -> (f64, f64) {
            let (mut sim, s, r) = lossy_path(
                20,
                Duration::from_millis(30),
                LossModel::gilbert_elliott(p_gb, 0.25, 0.0, 0.8),
                (p_gb * 1e4) as u64 + 111,
            );
            let plan = ConnectionPlan::new(Profile::qtp_light()).ablate_ungrouped_losses(ungrouped);
            let h = attach_pair(&mut sim, s, r, &plan);
            sim.run_until(SimTime::from_secs(SECS));
            let rate = goodput(&sim, h.data_flow, SECS);
            // Mean of the p values the rate computation actually used.
            let (p_sum, p_samples) = h.tx_tracer.read(|c| (c.p_sum, c.rate_updates));
            let p_mean = if p_samples == 0 {
                0.0
            } else {
                p_sum / p_samples as f64
            };
            (rate, p_mean)
        };
        let (rate_g, p_g) = run(false);
        let (rate_u, p_u) = run(true);
        let penalty = rate_g / rate_u.max(1.0);
        worst_penalty = worst_penalty.max(penalty);
        t.row(vec![
            format!("{p_gb}"),
            format!("{p_g:.4}"),
            format!("{p_u:.4}"),
            mbps(rate_g),
            mbps(rate_u),
            format!("{penalty:.1}x"),
        ]);
    }
    t.verdict = format!(
        "without event grouping the estimated p inflates and the rate drops by up to {worst_penalty:.1}x on bursty paths — grouping is load-bearing, as RFC 3448 prescribes."
    );
    t.metric(
        "worst_penalty",
        worst_penalty,
        "factor",
        Tolerance::Rel(0.30),
    );
    t
}

/// E12 — **D3 ablation**: which parts of the stack does the QTPAF
/// guarantee actually need? Remove one piece at a time: the gTFRC floor
/// (plain TFRC), the edge marker (all traffic out-of-profile), or the RIO
/// core (plain drop-tail). Only the full composition holds the target.
pub fn e12() -> Table {
    let mut t = Table::new(
        "E12",
        "Ablation D3: gTFRC floor × edge marker × RIO core",
        "§4 (design): the guarantee emerges from the composition — QoS-aware congestion control over an AF-conditioned path; any missing piece either breaks the rate or sustains it only by absorbing losses",
        &[
            "configuration",
            "achieved / g",
            "dut loss rate",
            "retx",
            "green drops at core",
            "verdict",
        ],
    );
    // The hard regime from E2: a large reservation (8 of 10 Mbit/s) held
    // across a 300 ms RTT against two short-RTT aggressors. This is where
    // the guarantee is genuinely contested.
    const SECS: u64 = 60;
    let g = Rate::from_mbps(8);
    let access = Some(vec![
        Duration::from_millis(145),
        Duration::from_millis(1),
        Duration::from_millis(1),
    ]);

    // configurations: (label, gtfrc?, marker?, rio?)
    let configs = [
        ("full QTPAF (gTFRC + marker + RIO)", true, true, true),
        ("no gTFRC floor (plain TFRC)", false, true, true),
        ("no edge marker (all red)", true, false, true),
        ("no RIO core (drop-tail)", true, true, false),
    ];
    let mut full_retx: u64 = 0;
    let mut max_retx: u64 = 0;
    let mut full_achieved: f64 = 0.0;
    let mut no_floor_achieved: f64 = 0.0;
    let mut droptail_holds = false;
    for (label, use_gtfrc, use_marker, use_rio) in configs {
        let (mut sim, net) = if use_rio {
            af_dumbbell(3, 10, Duration::from_millis(4), access.clone(), 121)
        } else {
            let cfg = DumbbellConfig {
                pairs: 3,
                access_rate: Rate::from_mbps(100),
                access_delay: Duration::from_millis(1),
                access_delays: access.clone(),
                bottleneck_rate: Rate::from_mbps(10),
                bottleneck_delay: Duration::from_millis(4),
                bottleneck_queue: QueueConfig::DropTailPkts(60),
                reverse_queue: QueueConfig::DropTailPkts(2000),
                bottleneck_path: PathModel::none(),
            };
            Dumbbell::build(&cfg, 121)
        };
        let profile = if use_gtfrc {
            Profile::qtp_af(g)
        } else {
            // Keep reliability identical so only the CC axis changes.
            Profile::new()
                .reliability(Reliability::Full)
                .feedback(FeedbackMode::ReceiverLoss)
                .cc(CcKind::Tfrc)
                .build()
                .expect("valid composition")
        };
        let h = attach_plan_pair(&mut sim, &net, 0, &ConnectionPlan::new(profile));
        if use_marker {
            set_profile(&mut sim, &net, 0, h.data_flow, g);
        } else {
            set_out_of_profile(&mut sim, &net, 0, h.data_flow);
        }
        // Aggressors: out-of-profile TCP at short RTT.
        for bgp in 1..3 {
            let bg = attach_tcp(&mut sim, &net, bgp, TcpFlavor::NewReno);
            set_out_of_profile(&mut sim, &net, bgp, bg);
        }
        sim.run_until(SimTime::from_secs(SECS));
        let achieved = throughput(&sim, h.data_flow, SECS) / g.bps() as f64;
        let loss_rate = sim.stats().flow(h.data_flow).loss_rate();
        let retx = h.tx_tracer.read(|c| c.retransmits);
        let (green_drops, _) = sim.stats().link_drops_by_color(net.bottleneck);
        let holds = achieved >= 0.95;
        if label.starts_with("full") {
            full_retx = retx;
            full_achieved = achieved;
        }
        if !use_gtfrc {
            no_floor_achieved = achieved;
        }
        if !use_rio {
            droptail_holds = holds;
        }
        max_retx = max_retx.max(retx);
        t.row(vec![
            label.into(),
            ratio(achieved),
            format!("{loss_rate:.4}"),
            retx.to_string(),
            green_drops.to_string(),
            if holds {
                "holds g".into()
            } else {
                "breaks".into()
            },
        ]);
    }
    let retx_burden = max_retx as f64 / full_retx.max(1) as f64;
    t.verdict = format!(
        "the gTFRC floor is load-bearing: without it the reservation collapses to {no_floor_achieved:.2} of g. The AF substrate is what makes holding it cheap — on a drop-tail core the floor still forces the rate through, but at {retx_burden:.1}x the retransmission burden ({max_retx} vs {full_retx} retx), i.e. the guarantee degrades from 'protected' to 'paid for in losses'."
    );
    t.metric(
        "full_achieved",
        full_achieved,
        "ratio",
        Tolerance::Abs(0.05),
    );
    t.metric(
        "no_floor_achieved",
        no_floor_achieved,
        "ratio",
        Tolerance::Abs(0.10),
    );
    t.metric("droptail_holds_g", droptail_holds, "flag", Tolerance::Exact);
    t.metric("retx_burden", retx_burden, "factor", Tolerance::Rel(0.40));
    t
}
