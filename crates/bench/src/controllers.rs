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
//! Every family is a parameterised struct on the deterministic simulator
//! at fixed seeds, gated in the claims ledger next to E1–E12/A/H (ids
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
    name: &str,
    kind: ProfileKind,
    secs: u64,
) -> PairHandles {
    let h = attach_pair(sim, s, r, name, &ConnectionPlan::new(profile_of(kind)));
    sim.run_until(SimTime::from_secs(secs));
    h
}

// ---------------------------------------------------------------------------
// C1 — bloated droptail dumbbell: utilization vs standing queue delay
// ---------------------------------------------------------------------------

/// Parameters of the bloated-dumbbell race.
#[derive(Debug, Clone)]
pub struct BloatParams {
    /// Bottleneck rate, Mbit/s.
    pub core_mbps: u64,
    /// One-way bottleneck propagation delay.
    pub bottleneck_delay: Duration,
    /// Drop-tail queue capacity, packets (well above the BDP: bufferbloat).
    pub queue_pkts: usize,
    /// Measurement horizon, seconds.
    pub secs: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for BloatParams {
    fn default() -> Self {
        BloatParams {
            core_mbps: 5,
            bottleneck_delay: Duration::from_millis(20),
            queue_pkts: 500,
            secs: 60,
            seed: 53,
        }
    }
}

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
    let params = BloatParams::default();
    // Propagation-only RTT of the dumbbell path: two access hops (1 ms
    // each way in `droptail_dumbbell`) plus the bottleneck, both ways.
    let base_rtt_s = 2.0 * (params.bottleneck_delay.as_secs_f64() + 2.0 * 0.001);
    let cap_bps = (params.core_mbps as f64) * 1e6;
    let mut utils = Vec::new();
    let mut qdelays = Vec::new();
    for (i, (_, label, kind)) in RACERS.iter().enumerate() {
        let (mut sim, net) = droptail_dumbbell(
            1,
            params.core_mbps,
            params.bottleneck_delay,
            params.queue_pkts,
            params.seed + i as u64,
        );
        let h = run_racer(
            &mut sim,
            net.senders[0],
            net.receivers[0],
            "race",
            *kind,
            params.secs,
        );
        let g = goodput(&sim, h.data_flow, params.secs);
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

/// Parameters of the long-fat-pipe controller race.
#[derive(Debug, Clone)]
pub struct LfpRaceParams {
    /// Pipe rate, Mbit/s.
    pub rate_mbps: u64,
    /// One-way delays raced (300/600 ms RTT).
    pub one_ways: [Duration; 2],
    /// Measurement horizon, seconds.
    pub secs: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for LfpRaceParams {
    fn default() -> Self {
        LfpRaceParams {
            rate_mbps: 20,
            one_ways: [Duration::from_millis(150), Duration::from_millis(300)],
            secs: 60,
            seed: 59,
        }
    }
}

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
    let params = LfpRaceParams::default();
    // goodputs[controller][rtt point]
    let mut pts = vec![Vec::new(); RACERS.len()];
    for &one_way in &params.one_ways {
        let cfg = LongFatPipeConfig::symmetric(Rate::from_mbps(params.rate_mbps), one_way, 1250);
        let mut row = vec![format!("{}", cfg.rtt().as_millis())];
        for (i, (_, _, kind)) in RACERS.iter().enumerate() {
            let (mut sim, net) = LongFatPipe::build(&cfg, params.seed + i as u64);
            let h = run_racer(&mut sim, net.tx, net.rx, "race", *kind, params.secs);
            pts[i].push(goodput(&sim, h.data_flow, params.secs));
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

/// Parameters of the bursty-loss / fairness family.
#[derive(Debug, Clone)]
pub struct BurstFairParams {
    /// Bursty-path rate, Mbit/s.
    pub rate_mbps: u64,
    /// Bursty-path one-way delay.
    pub one_way: Duration,
    /// Gilbert–Elliott transition probability good→bad.
    pub p_gb: f64,
    /// Gilbert–Elliott transition probability bad→good.
    pub p_bg: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
    /// Measurement horizon for the solo runs, seconds.
    pub secs: u64,
    /// Flock size of the uniform fairness runs.
    pub flock: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for BurstFairParams {
    fn default() -> Self {
        BurstFairParams {
            rate_mbps: 10,
            one_way: Duration::from_millis(30),
            p_gb: 0.02,
            p_bg: 0.3,
            loss_bad: 0.3,
            secs: 60,
            flock: 64,
            seed: 61,
        }
    }
}

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
    let params = BurstFairParams::default();
    let mut burst = Vec::new();
    let mut jains = Vec::new();
    for (i, (_, label, kind)) in RACERS.iter().enumerate() {
        let (mut sim, s, r) = lossy_path(
            params.rate_mbps,
            params.one_way,
            LossModel::gilbert_elliott(params.p_gb, params.p_bg, 0.0, params.loss_bad),
            params.seed + i as u64,
        );
        let h = run_racer(&mut sim, s, r, "burst", *kind, params.secs);
        let g = goodput(&sim, h.data_flow, params.secs);
        let report = run_sim(&ManyFlowConfig::uniform(params.flock, *kind));
        t.row(vec![
            label.to_string(),
            mbps(g),
            format!("{:.4}", report.jain),
            format!("{}/{}", report.completed, params.flock),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The C1 race discriminates: both new controllers fill the link and
    /// BBR-lite holds less standing queue than CUBIC. (Short horizon; the
    /// ledger gates the full-length numbers.)
    #[test]
    fn bloat_race_separates_loss_based_from_model_based() {
        let params = BloatParams {
            secs: 30,
            ..BloatParams::default()
        };
        let base_rtt_s = 2.0 * (params.bottleneck_delay.as_secs_f64() + 2.0 * 0.001);
        let mut qdelay = Vec::new();
        for (i, (_, _, kind)) in RACERS.iter().enumerate() {
            let (mut sim, net) = droptail_dumbbell(
                1,
                params.core_mbps,
                params.bottleneck_delay,
                params.queue_pkts,
                params.seed + i as u64,
            );
            let h = run_racer(
                &mut sim,
                net.senders[0],
                net.receivers[0],
                "race",
                *kind,
                params.secs,
            );
            let g = goodput(&sim, h.data_flow, params.secs);
            assert!(
                g > 0.5 * params.core_mbps as f64 * 1e6,
                "{kind:?} failed to fill half the link: {g}"
            );
            qdelay.push((h.tx_tracer.read(|c| c.srtt_s) - base_rtt_s).max(0.0));
        }
        // RACERS order: tfrc, cubic, bbr.
        assert!(
            qdelay[2] <= qdelay[1],
            "bbr queue delay {} > cubic {}",
            qdelay[2],
            qdelay[1]
        );
    }
}
