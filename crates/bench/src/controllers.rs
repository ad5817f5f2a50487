//! Controller-race scenario families C1–C3: the pluggable congestion
//! controllers (`qtp-cc`) raced under the scenarios that discriminate
//! between them.
//!
//! The paper's §3 argues congestion control is a *negotiated axis*, not a
//! fixed algorithm; PR 10 makes the axis real (TFRC, gTFRC, Fixed, CUBIC,
//! BBR-lite behind one trait). These families check that each controller
//! shows its textbook signature on the path type it was designed for —
//! and that none of them wrecks fairness at scale:
//!
//! * **C1 — droptail dumbbell, bloated queue**: loss-based CUBIC fills
//!   the 500-packet queue and pays for it in standing queue delay; the
//!   model-based BBR-lite paces at the bottleneck estimate and keeps the
//!   queue short; every controller still fills the link.
//! * **C2 — long fat pipe**: 300/600 ms RTT at 20 Mbit/s. The cubic
//!   window grows with wall time (not per-RTT), so CUBIC holds its
//!   goodput where the equation-based TFRC ramp is RTT-bound.
//! * **C3 — bursty loss and fairness at scale**: every controller
//!   survives a Gilbert–Elliott bursty hop, and a uniform N = 64 flock of
//!   each controller shares one bottleneck with Jain ≥ 0.9.
//!
//! Every family runs on the deterministic simulator at fixed constants
//! and seeds, gated in the claims ledger next to E1–E12/A/H (ids
//! `c1`…`c3`; run just this group with `expt --check --only c`).

use qtp_core::session::{attach_pair, ConnectionPlan, PairHandles, Profile};
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Simulator;
use std::time::Duration;

use crate::common::{droptail_dumbbell, goodput, lossy_path};
use crate::manyflow::{run_sim, ManyFlowConfig, ProfileKind};
use crate::table::{mbps, ratio, Table, Tolerance};

/// The racing controllers: ledger metric prefix, table label and profile.
/// gTFRC and Fixed sit out — their behaviour is pinned by E2/E3/E9
/// already; these families race the three *probing* controllers.
pub const RACERS: [(&str, &str, ProfileKind); 3] = [
    ("tfrc", "TFRC", ProfileKind::Tfrc),
    ("cubic", "CUBIC", ProfileKind::Cubic),
    ("bbr", "BBR-lite", ProfileKind::BbrLite),
];

fn profile_of(kind: ProfileKind) -> Profile {
    // The floor argument only matters for QTPAF; none of the racers use it.
    kind.profile(Rate::from_mbps(1))
}

/// Run one greedy planned connection on an already-built path and return
/// the pair handles for probing.
fn run_racer(
    sim: &mut Simulator,
    s: NodeId,
    r: NodeId,
    kind: ProfileKind,
    secs: u64,
) -> PairHandles {
    let h = attach_pair(sim, s, r, &ConnectionPlan::new(profile_of(kind)));
    sim.run_until(SimTime::from_secs(secs));
    h
}

// ---------------------------------------------------------------------------
// C1 — bloated droptail dumbbell: utilization vs standing queue delay
// ---------------------------------------------------------------------------

/// C1 — **bufferbloat signature**: on a drop-tail bottleneck whose queue
/// holds many times the BDP, a loss-based controller only sees congestion
/// when the queue overflows, so it keeps a large standing queue; a
/// model-based controller paces at its bottleneck estimate and does not.
/// Utilization must stay high for all of them — keeping the queue short
/// is only a win if the link stays full.
pub fn c1() -> Table {
    let mut t = Table::new(
        "C1",
        "Controller race: bloated droptail dumbbell (5 Mbit/s, 500-pkt queue)",
        "§3 (negotiated congestion control): the controller axis has real consequences — loss-based CUBIC fills the bloated queue into standing delay, model-based BBR-lite holds the link without it",
        &[
            "controller",
            "goodput (Mbit/s)",
            "utilization",
            "mean RTT (ms)",
            "queue delay (ms)",
        ],
    );
    /// Bottleneck rate, Mbit/s.
    const CORE_MBPS: u64 = 5;
    /// One-way bottleneck propagation delay.
    const BOTTLENECK_DELAY: Duration = Duration::from_millis(20);
    /// Drop-tail queue capacity, packets (well above the BDP: bufferbloat).
    const QUEUE_PKTS: usize = 500;
    const SECS: u64 = 60;
    const SEED: u64 = 53;
    // Propagation-only RTT of the dumbbell path: two access hops (1 ms
    // each way in `droptail_dumbbell`) plus the bottleneck, both ways.
    let base_rtt_s = 2.0 * (BOTTLENECK_DELAY.as_secs_f64() + 2.0 * 0.001);
    let cap_bps = (CORE_MBPS as f64) * 1e6;
    let mut utils = Vec::new();
    let mut qdelays = Vec::new();
    for (i, (_, label, kind)) in RACERS.iter().enumerate() {
        let (mut sim, net) =
            droptail_dumbbell(1, CORE_MBPS, BOTTLENECK_DELAY, QUEUE_PKTS, SEED + i as u64);
        let h = run_racer(&mut sim, net.senders[0], net.receivers[0], *kind, SECS);
        let g = goodput(&sim, h.data_flow, SECS);
        let rtt_s = h.tx_tracer.read(|c| c.srtt_s);
        let qdelay_ms = (rtt_s - base_rtt_s).max(0.0) * 1e3;
        t.row(vec![
            label.to_string(),
            mbps(g),
            ratio(g / cap_bps),
            format!("{:.1}", rtt_s * 1e3),
            format!("{qdelay_ms:.1}"),
        ]);
        utils.push(g / cap_bps);
        qdelays.push(qdelay_ms);
    }
    t.verdict = format!(
        "all three controllers hold ≥ {:.0}% of the link, but CUBIC sits on {:.0} ms of standing queue where BBR-lite keeps {:.0} ms — the negotiated controller decides the latency the path's applications live with.",
        utils.iter().cloned().fold(f64::INFINITY, f64::min) * 100.0,
        qdelays[1],
        qdelays[2],
    );
    for (i, (name, _, _)) in RACERS.iter().enumerate() {
        t.metric(
            &format!("{name}_util"),
            utils[i],
            "ratio",
            Tolerance::Abs(0.10),
        );
        t.metric(
            &format!("{name}_qdelay_ms"),
            qdelays[i],
            "ms",
            Tolerance::Rel(0.30),
        );
    }
    t
}

// ---------------------------------------------------------------------------
// C2 — long fat pipe: wall-time window growth vs RTT-bound ramps
// ---------------------------------------------------------------------------

/// C2 — **the large-BDP regime**: the cubic window `W(t)` grows with
/// wall-clock time since the last decrease, not per feedback round, so
/// CUBIC's ramp is RTT-independent where TFRC's equation tracks the
/// (slow) feedback loop. BBR-lite probes the bandwidth model directly
/// and is likewise RTT-insensitive.
pub fn c2() -> Table {
    let mut t = Table::new(
        "C2",
        "Controller race: long fat pipe (300/600 ms RTT, 20 Mbit/s)",
        "§3: at satellite-class BDP the controller choice dominates goodput — wall-time CUBIC growth and model-based BBR-lite beat the feedback-bound TFRC ramp",
        &["RTT (ms)", "TFRC", "CUBIC", "BBR-lite", "CUBIC / TFRC"],
    );
    /// One-way delays raced (300/600 ms RTT).
    const ONE_WAYS: [Duration; 2] = [Duration::from_millis(150), Duration::from_millis(300)];
    const SECS: u64 = 60;
    const SEED: u64 = 59;
    // goodputs[controller][rtt point]
    let mut pts = vec![Vec::new(); RACERS.len()];
    for one_way in ONE_WAYS {
        let cfg = LongFatPipeConfig::symmetric(Rate::from_mbps(20), one_way, 1250);
        let mut row = vec![format!("{}", cfg.rtt().as_millis())];
        for (i, (_, _, kind)) in RACERS.iter().enumerate() {
            let (mut sim, net) = LongFatPipe::build(&cfg, SEED + i as u64);
            let h = run_racer(&mut sim, net.tx, net.rx, *kind, SECS);
            pts[i].push(goodput(&sim, h.data_flow, SECS));
        }
        for p in &pts {
            row.push(mbps(*p.last().expect("one point per rtt")));
        }
        row.push(ratio(
            pts[1].last().unwrap() / pts[0].last().unwrap().max(1.0),
        ));
        t.row(row);
    }
    t.verdict = format!(
        "on the 600 ms pipe CUBIC delivers {} and BBR-lite {} against TFRC's {} — the negotiated controller, not the path, sets the achievable rate at high BDP.",
        mbps(pts[1][1]),
        mbps(pts[2][1]),
        mbps(pts[0][1]),
    );
    for (i, (name, _, _)) in RACERS.iter().enumerate() {
        t.metric(
            &format!("{name}_rtt300_mbps"),
            pts[i][0] / 1e6,
            "Mbit/s",
            Tolerance::Rel(0.20),
        );
        t.metric(
            &format!("{name}_rtt600_mbps"),
            pts[i][1] / 1e6,
            "Mbit/s",
            Tolerance::Rel(0.20),
        );
    }
    t
}

// ---------------------------------------------------------------------------
// C3 — bursty loss survival and uniform-flock fairness at N = 64
// ---------------------------------------------------------------------------

/// C3 — **no controller is a spoiler**: each controller keeps moving on a
/// Gilbert–Elliott bursty hop (the wireless regime of E8), and a uniform
/// flock of 64 same-controller flows shares one bottleneck fairly — the
/// new controllers hold Jain ≥ 0.9 while TFRC sits at its documented
/// RTT-proportional fairness floor (F1's ≥ 0.7 gate), so extending the
/// axis costs nothing in fairness.
pub fn c3() -> Table {
    let mut t = Table::new(
        "C3",
        "Controller race: bursty loss (solo) and uniform fairness at N = 64",
        "§3 + §4: every negotiated controller survives bursty wireless loss and stays self-fair at scale — the axis adds choice, not spoilers",
        &[
            "controller",
            "bursty goodput (Mbit/s)",
            "N=64 jain",
            "N=64 completed",
        ],
    );
    /// Measurement horizon of the solo bursty runs, seconds.
    const SECS: u64 = 60;
    /// Flock size of the uniform fairness runs.
    const FLOCK: usize = 64;
    const SEED: u64 = 61;
    let mut burst = Vec::new();
    let mut jains = Vec::new();
    for (i, (_, label, kind)) in RACERS.iter().enumerate() {
        // 10 Mbit/s, 30 ms one way, Gilbert–Elliott bursts: 2% good→bad,
        // 30% bad→good, 30% loss in the bad state.
        let (mut sim, s, r) = lossy_path(
            10,
            Duration::from_millis(30),
            LossModel::gilbert_elliott(0.02, 0.3, 0.0, 0.3),
            SEED + i as u64,
        );
        let h = run_racer(&mut sim, s, r, *kind, SECS);
        let g = goodput(&sim, h.data_flow, SECS);
        let report = run_sim(&ManyFlowConfig::uniform(FLOCK, *kind));
        t.row(vec![
            label.to_string(),
            mbps(g),
            format!("{:.4}", report.jain),
            format!("{}/{FLOCK}", report.completed),
        ]);
        burst.push(g);
        jains.push(report.jain);
    }
    t.verdict = format!(
        "every controller sustains ≥ {} on the bursty hop; at N = 64 the new controllers hold Jain ≥ {:.2} and TFRC sits at {:.2} (its documented RTT-proportional bias over the 2–30 ms spread) — adding CUBIC and BBR-lite to the axis costs nothing in fairness.",
        mbps(burst.iter().cloned().fold(f64::INFINITY, f64::min)),
        jains[1].min(jains[2]),
        jains[0],
    );
    for (i, (name, _, _)) in RACERS.iter().enumerate() {
        t.metric(
            &format!("{name}_burst_mbps"),
            burst[i] / 1e6,
            "Mbit/s",
            Tolerance::Rel(0.25),
        );
        t.metric(
            &format!("jain_{name}_n64"),
            jains[i],
            "index",
            Tolerance::Abs(0.05),
        );
    }
    t
}
