//! Hostile-path scenario families H1–H5: the versatility claim under the
//! path pathologies the paper's versatility argument is really about.
//!
//! E1–E12 reproduce the paper's own evaluation (DiffServ dumbbells, a
//! bursty wireless hop); these families push the same negotiated
//! transports through the path models the survey literature names as the
//! regimes where a one-size-fits-all transport breaks:
//!
//! * **H1 — bounded reordering**: a jitter sweep on an otherwise clean
//!   path. TCP SACK misreads reordering as loss (dupack fast retransmit)
//!   and collapses; equation-based QTPAF with its gTFRC floor degrades
//!   gracefully.
//! * **H2 — duplication**: a duplicating link under the reliable stream.
//!   Wire-level copies must not double-count delivered bytes or corrupt
//!   reassembly — the transfer stays byte-exact with near-full goodput.
//! * **H3 — asymmetric return channel**: a narrowband reverse link (VSAT
//!   return, ADSL uplink). Per-packet TCP acks starve; QTP's once-per-RTT
//!   feedback barely notices.
//! * **H4 — long fat pipe**: satellite-class 300–600 ms RTT at high rate.
//!   The window-based transport is cwnd/rwnd-limited and pays slow-start
//!   in RTTs; rate-based QTPAF fills the reserved floor regardless of RTT.
//! * **H5 — wireless burst × handover**: deadline streaming across a
//!   mid-run WLAN→cellular handover onto a Gilbert–Elliott bursty hop.
//!   TTL-partial reliability holds the deadline-miss floor where full
//!   reliability queues stale retransmissions.
//!
//! Every family runs on the deterministic simulator at fixed constants
//! and seeds, gated in the claims ledger next to E1–E12
//! (ids `h1`…`h5`; run just this group with `expt --check --only h`).
//! [`hostile_sweep`] is the nightly reorder-jitter × RTT grid.

use qtp_core::session::{attach_pair, ConnectionPlan, Profile};
use qtp_core::stream::StreamConfig;
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Simulator;
use qtp_tcp::{attach_tcp, TcpFlavor};
use std::time::Duration;

use crate::common::{goodput, impaired_path};
use crate::scenarios::{
    deadline_profiles, deadline_rows, pattern_bytes, stream_frames, transfer, FrameStream,
    DEADLINE_COLUMNS,
};
use crate::table::{mbps, ratio, Table, Tolerance};

/// A two-host path with asymmetric directions: a wide forward channel and
/// a (possibly narrowband) reverse channel with a small feedback queue —
/// the VSAT-return / ADSL-uplink shape.
fn asym_path(fwd: Rate, rev: Rate, one_way: Duration, seed: u64) -> (Simulator, NodeId, NodeId) {
    let mut b = NetworkBuilder::new();
    let s = b.host();
    let r = b.host();
    b.duplex_link_asym(
        s,
        r,
        LinkConfig::new(fwd, one_way).with_queue(QueueConfig::DropTailPkts(500)),
        LinkConfig::new(rev, one_way).with_queue(QueueConfig::DropTailPkts(100)),
    );
    (b.build(seed), s, r)
}

/// Greedy QTPAF goodput over `secs` seconds on an already-built path.
fn run_qtpaf(mut sim: Simulator, s: NodeId, r: NodeId, floor: Rate, secs: u64) -> f64 {
    let h = attach_pair(&mut sim, s, r, &ConnectionPlan::new(Profile::qtp_af(floor)));
    sim.run_until(SimTime::from_secs(secs));
    goodput(&sim, h.data_flow, secs)
}

/// Greedy TCP goodput over `secs` seconds on an already-built path.
fn run_tcp(mut sim: Simulator, s: NodeId, r: NodeId, flavor: TcpFlavor, secs: u64) -> f64 {
    let data = attach_tcp(&mut sim, s, r, flavor);
    sim.run_until(SimTime::from_secs(secs));
    goodput(&sim, data, secs)
}

// ---------------------------------------------------------------------------
// H1 — bounded reordering sweep
// ---------------------------------------------------------------------------

/// H1 — graceful degradation under bounded reordering: TCP SACK collapses
/// on spurious fast retransmits, QTPAF keeps its floor.
pub fn h1() -> Table {
    let mut t = Table::new(
        "H1",
        "Hostile path: bounded reordering sweep (TCP SACK vs QTPAF)",
        "versatility under reordering: a window-based transport misreads bounded reordering as loss and collapses, while the negotiated equation-based profile with a gTFRC floor degrades gracefully",
        &["jitter (ms)", "TCP SACK", "QTPAF", "QTPAF / TCP"],
    );
    const RATE_MBPS: u64 = 10;
    /// Per-packet probability of extra delay.
    const REORDER_P: f64 = 0.5;
    /// Jitter bounds swept, ms (0 = unimpaired baseline).
    const JITTERS_MS: [u64; 3] = [0, 25, 100];
    /// gTFRC floor of the QTPAF flow, Mbit/s.
    const FLOOR_MBPS: u64 = 6;
    const SECS: u64 = 30;
    const SEED: u64 = 17;
    let mut tcp_by_jitter = Vec::new();
    let mut qtpaf_by_jitter = Vec::new();
    for j in JITTERS_MS {
        let path = if j == 0 {
            PathModel::none()
        } else {
            PathModel::none().with_reorder(REORDER_P, Duration::from_millis(j))
        };
        let build = |salt: u64| {
            impaired_path(
                Rate::from_mbps(RATE_MBPS),
                Duration::from_millis(20),
                LossModel::None,
                path.clone(),
                SEED + salt,
            )
        };
        let (sim, s, r) = build(0);
        let tcp = run_tcp(sim, s, r, TcpFlavor::Sack, SECS);
        let (sim, s, r) = build(1);
        let qtpaf = run_qtpaf(sim, s, r, Rate::from_mbps(FLOOR_MBPS), SECS);
        t.row(vec![
            format!("{j}"),
            mbps(tcp),
            mbps(qtpaf),
            ratio(qtpaf / tcp.max(1.0)),
        ]);
        t.metric(
            &format!("tcp_j{j}_mbps"),
            tcp / 1e6,
            "Mbit/s",
            Tolerance::Rel(0.20),
        );
        t.metric(
            &format!("qtpaf_j{j}_mbps"),
            qtpaf / 1e6,
            "Mbit/s",
            Tolerance::Rel(0.20),
        );
        tcp_by_jitter.push(tcp);
        qtpaf_by_jitter.push(qtpaf);
    }
    let tcp_retention = tcp_by_jitter.last().unwrap() / tcp_by_jitter[0].max(1.0);
    let qtpaf_retention = qtpaf_by_jitter.last().unwrap() / qtpaf_by_jitter[0].max(1.0);
    t.verdict = format!(
        "at a {} ms jitter bound QTPAF keeps {:.0}% of its clean-path goodput while TCP SACK keeps {:.0}% — reordering tolerance is a negotiable property, not a given.",
        JITTERS_MS[JITTERS_MS.len() - 1],
        qtpaf_retention * 100.0,
        tcp_retention * 100.0,
    );
    t.metric(
        "qtpaf_retention",
        qtpaf_retention,
        "ratio",
        Tolerance::Abs(0.10),
    );
    t.metric(
        "tcp_retention",
        tcp_retention,
        "ratio",
        Tolerance::Abs(0.10),
    );
    t
}

// ---------------------------------------------------------------------------
// H2 — duplication under the reliable stream
// ---------------------------------------------------------------------------

/// Outcome of one bulk transfer over a duplicating link.
struct DupBulkRun {
    /// Application goodput, Mbit/s.
    goodput_mbps: f64,
    /// Seconds until the receive stream finished (horizon if never).
    completion_s: f64,
    /// Application bytes delivered (must equal the file size — duplicates
    /// must not double-count).
    delivered_bytes: u64,
    /// Delivered bytes reproduce the file exactly, in order.
    byte_exact: bool,
    /// Network-level arrival amplification (`pkts_arrived / pkts_sent`):
    /// proves the wire really carried duplicates.
    amplification: f64,
}

/// H2 — wire duplication must not confuse the reliable stream: byte-exact
/// delivery, exact delivered-byte accounting, near-full goodput.
pub fn h2() -> Table {
    let mut t = Table::new(
        "H2",
        "Hostile path: packet duplication under the reliable stream",
        "versatility under duplication: SACK-based reassembly deduplicates wire copies — delivered bytes stay exact and goodput holds while one packet in five arrives twice",
        &[
            "dup prob",
            "goodput (Mbit/s)",
            "completion (s)",
            "delivered (KiB)",
            "byte-exact",
            "arrivals/sent",
        ],
    );
    /// File size, KiB.
    const FILE_KIB: usize = 256;
    /// Duplication probability on the data direction.
    const DUP: f64 = 0.2;
    const SEED: u64 = 23;
    // One reliable bulk transfer at 10 Mbit/s, 20 ms one way, with 1%
    // Bernoulli loss on the data direction (so duplication interacts with
    // real retransmissions, not just clean flow) and a 6 Mbit/s floor.
    let dup_bulk = |dup_p: f64| {
        let path = if dup_p > 0.0 {
            PathModel::none().with_duplicate(dup_p)
        } else {
            PathModel::none()
        };
        let (mut sim, s, r) = impaired_path(
            Rate::from_mbps(10),
            Duration::from_millis(20),
            LossModel::bernoulli(0.01),
            path,
            SEED,
        );
        let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(6)))
            .label("h2")
            .stream(StreamConfig::with_send_buf(64 * 1024));
        let h = attach_pair(&mut sim, s, r, &plan);
        let file = pattern_bytes(FILE_KIB * 1024, SEED);
        let (received, elapsed) = transfer(&mut sim, &h, &file);
        let delivered = received.len() as u64;
        let st = sim.stats().flow(h.data_flow);
        DupBulkRun {
            goodput_mbps: delivered as f64 * 8.0 / elapsed / 1e6,
            completion_s: elapsed,
            delivered_bytes: delivered,
            byte_exact: received == file,
            amplification: st.pkts_arrived as f64 / (st.pkts_sent.max(1)) as f64,
        }
    };
    let clean = dup_bulk(0.0);
    let duped = dup_bulk(DUP);
    for (p, run) in [(0.0, &clean), (DUP, &duped)] {
        t.row(vec![
            format!("{p}"),
            format!("{:.2}", run.goodput_mbps),
            format!("{:.2}", run.completion_s),
            format!("{}", run.delivered_bytes / 1024),
            format!("{}", run.byte_exact),
            format!("{:.3}", run.amplification),
        ]);
    }
    let retention = duped.goodput_mbps / clean.goodput_mbps.max(1e-9);
    t.verdict = format!(
        "with 1-in-{:.0} packets duplicated in flight (arrival amplification {:.2}x) the {} KiB transfer stays byte-exact with delivered bytes counted once, at {:.0}% of the clean-path goodput.",
        1.0 / DUP,
        duped.amplification,
        FILE_KIB,
        retention * 100.0,
    );
    t.metric(
        "goodput_d0_mbps",
        clean.goodput_mbps,
        "Mbit/s",
        Tolerance::Rel(0.25),
    );
    t.metric(
        "goodput_dup_mbps",
        duped.goodput_mbps,
        "Mbit/s",
        Tolerance::Rel(0.25),
    );
    t.metric("byte_exact_dup", duped.byte_exact, "flag", Tolerance::Exact);
    t.metric(
        "delivered_kib_dup",
        duped.delivered_bytes / 1024,
        "KiB",
        Tolerance::Exact,
    );
    t.metric(
        "amplification",
        duped.amplification,
        "factor",
        Tolerance::Rel(0.10),
    );
    t.metric(
        "goodput_retention",
        retention,
        "ratio",
        Tolerance::Abs(0.10),
    );
    t
}

// ---------------------------------------------------------------------------
// H3 — asymmetric return channel
// ---------------------------------------------------------------------------

/// H3 — a narrowband return channel starves per-packet TCP acks; QTP's
/// once-per-RTT feedback keeps the forward channel full.
pub fn h3() -> Table {
    let mut t = Table::new(
        "H3",
        "Hostile path: asymmetric return channel (ack starvation)",
        "versatility under asymmetry: per-packet cumulative acks need forward-rate-proportional reverse capacity, so TCP collapses behind a narrowband return channel; QTP's per-RTT feedback is insensitive to it",
        &["reverse (kbit/s)", "TCP SACK", "QTPAF", "QTPAF / TCP"],
    );
    const FWD_MBPS: u64 = 10;
    /// Reverse (feedback) rates compared, kbit/s: wide baseline first,
    /// then the narrowband return channel.
    const REV_KBPS: [u64; 2] = [10_000, 100];
    /// gTFRC floor, Mbit/s.
    const FLOOR_MBPS: u64 = 6;
    const SECS: u64 = 30;
    const SEED: u64 = 29;
    let mut tcp_pts = Vec::new();
    let mut qtpaf_pts = Vec::new();
    for rev in REV_KBPS {
        let build = |salt: u64| {
            asym_path(
                Rate::from_mbps(FWD_MBPS),
                Rate::from_kbps(rev),
                Duration::from_millis(20),
                SEED + salt,
            )
        };
        let (sim, s, r) = build(0);
        let tcp = run_tcp(sim, s, r, TcpFlavor::Sack, SECS);
        let (sim, s, r) = build(1);
        let qtpaf = run_qtpaf(sim, s, r, Rate::from_mbps(FLOOR_MBPS), SECS);
        t.row(vec![
            format!("{rev}"),
            mbps(tcp),
            mbps(qtpaf),
            ratio(qtpaf / tcp.max(1.0)),
        ]);
        tcp_pts.push(tcp);
        qtpaf_pts.push(qtpaf);
    }
    let (tcp_wide, tcp_narrow) = (tcp_pts[0], tcp_pts[1]);
    let (qtpaf_wide, qtpaf_narrow) = (qtpaf_pts[0], qtpaf_pts[1]);
    let tcp_retention = tcp_narrow / tcp_wide.max(1.0);
    let qtpaf_retention = qtpaf_narrow / qtpaf_wide.max(1.0);
    t.verdict = format!(
        "shrinking the return channel from {} Mbit/s to {} kbit/s costs QTPAF {:.0}% of its goodput but TCP SACK {:.0}% — feedback economy is part of the negotiated service.",
        REV_KBPS[0] / 1000,
        REV_KBPS[1],
        (1.0 - qtpaf_retention) * 100.0,
        (1.0 - tcp_retention) * 100.0,
    );
    t.metric(
        "tcp_wide_mbps",
        tcp_wide / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.20),
    );
    t.metric(
        "tcp_narrow_mbps",
        tcp_narrow / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.30),
    );
    t.metric(
        "qtpaf_wide_mbps",
        qtpaf_wide / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.20),
    );
    t.metric(
        "qtpaf_narrow_mbps",
        qtpaf_narrow / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.20),
    );
    t.metric(
        "qtpaf_retention",
        qtpaf_retention,
        "ratio",
        Tolerance::Abs(0.10),
    );
    t.metric(
        "tcp_retention",
        tcp_retention,
        "ratio",
        Tolerance::Abs(0.10),
    );
    t
}

// ---------------------------------------------------------------------------
// H4 — long fat pipe (satellite-class LBDP)
// ---------------------------------------------------------------------------

/// H4 — the window regime: on a 600 ms RTT pipe the window transport is
/// receive-window- and slow-start-limited; the rate-based floor is not.
pub fn h4() -> Table {
    let mut t = Table::new(
        "H4",
        "Hostile path: long fat pipe (300/600 ms RTT, 20 Mbit/s)",
        "versatility at large bandwidth-delay product: a window-based transport needs a full BDP in flight and pays slow-start per RTT, so its goodput falls with RTT; the negotiated gTFRC floor fills the reservation at any latency",
        &["RTT (ms)", "BDP (pkts)", "TCP SACK", "QTPAF", "QTPAF / TCP"],
    );
    /// Pipe rate, Mbit/s (both directions).
    const RATE_MBPS: u64 = 20;
    /// One-way delays compared (RTT = 2×): the 300 ms and 600 ms RTT
    /// satellite regimes.
    const ONE_WAYS: [Duration; 2] = [Duration::from_millis(150), Duration::from_millis(300)];
    /// gTFRC floor, Mbit/s — the reservation the rate-based profile must
    /// fill regardless of RTT.
    const FLOOR_MBPS: u64 = 15;
    const SECS: u64 = 60;
    const SEED: u64 = 31;
    let mut tcp_pts = Vec::new();
    let mut qtpaf_pts = Vec::new();
    for one_way in ONE_WAYS {
        let cfg = LongFatPipeConfig::symmetric(Rate::from_mbps(RATE_MBPS), one_way, 1250);
        let bdp = LongFatPipeConfig::bdp_packets(Rate::from_mbps(RATE_MBPS), cfg.rtt(), 1250);
        let build = |salt: u64| LongFatPipe::build(&cfg, SEED + salt);
        let (sim, net) = build(0);
        let tcp = run_tcp(sim, net.tx, net.rx, TcpFlavor::Sack, SECS);
        let (sim, net) = build(1);
        let qtpaf = run_qtpaf(sim, net.tx, net.rx, Rate::from_mbps(FLOOR_MBPS), SECS);
        t.row(vec![
            format!("{}", cfg.rtt().as_millis()),
            format!("{bdp}"),
            mbps(tcp),
            mbps(qtpaf),
            ratio(qtpaf / tcp.max(1.0)),
        ]);
        tcp_pts.push(tcp);
        qtpaf_pts.push(qtpaf);
    }
    let qtpaf_retention = qtpaf_pts[1] / qtpaf_pts[0].max(1.0);
    t.verdict = format!(
        "doubling the RTT from 300 to 600 ms leaves QTPAF at {:.0}% of its goodput (the floor is RTT-independent) while TCP SACK delivers {} against QTPAF's {} on the 600 ms pipe.",
        qtpaf_retention * 100.0,
        mbps(tcp_pts[1]),
        mbps(qtpaf_pts[1]),
    );
    t.metric(
        "tcp_rtt300_mbps",
        tcp_pts[0] / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.20),
    );
    t.metric(
        "tcp_rtt600_mbps",
        tcp_pts[1] / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.20),
    );
    t.metric(
        "qtpaf_rtt300_mbps",
        qtpaf_pts[0] / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.20),
    );
    t.metric(
        "qtpaf_rtt600_mbps",
        qtpaf_pts[1] / 1e6,
        "Mbit/s",
        Tolerance::Rel(0.20),
    );
    t.metric(
        "qtpaf_retention",
        qtpaf_retention,
        "ratio",
        Tolerance::Abs(0.10),
    );
    t
}

// ---------------------------------------------------------------------------
// H5 — wireless burst × handover deadline streaming
// ---------------------------------------------------------------------------

/// The handover path of H5: clean 10 Mbit/s WLAN last hop switching to a
/// 2 Mbit/s cellular hop with Gilbert–Elliott burst loss and mild
/// reordering, behind a 15 ms backbone.
fn h5_handover(switch_at: Duration) -> HandoverConfig {
    HandoverConfig {
        backbone_rate: Rate::from_mbps(100),
        backbone_delay: Duration::from_millis(15),
        initial: LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5)),
        target: LinkConfig::new(Rate::from_mbps(2), Duration::from_millis(30))
            .with_loss(LossModel::gilbert_elliott(0.02, 0.3, 0.0, 0.3))
            .with_path(PathModel::none().with_reorder(0.2, Duration::from_millis(10))),
        switch_at,
    }
}

/// H5 — deadline streaming across a WLAN→cellular handover onto a bursty
/// Gilbert–Elliott hop: TTL-partial reliability holds the miss floor.
pub fn h5() -> Table {
    let mut t = Table::new(
        "H5",
        "Hostile path: deadline streaming across a mobility handover",
        "versatility under mobility: when the last hop degrades mid-stream to a slower, bursty-lossy cellular link, full reliability queues stale recoveries behind the handover while TTL-partial delivery keeps missing only the genuinely lost frames",
        &DEADLINE_COLUMNS,
    );
    const FRAMES: usize = 600;
    /// Playout deadline.
    const DEADLINE: Duration = Duration::from_millis(160);
    /// When the WLAN→cellular handover happens.
    const SWITCH_AT: Duration = Duration::from_secs(5);
    const SEED: u64 = 37;
    // 500 B frames every 20 ms. The partial variant tags each with a
    // 130 ms TTL — below the post-handover retransmission round trip, so
    // arriving retransmissions are stale — under a 400 ms connection TTL,
    // so the sender still retransmits and the receiver drops. Both
    // variants run gTFRC at a 1 Mbit/s floor.
    let (full_profile, partial_profile) = deadline_profiles(1, Duration::from_millis(400));
    // A deadline run ([`crate::scenarios::deadline`]) with the topology
    // switch applied mid-loop.
    let handover_deadline = |profile: Profile, tag_ttl: bool, label: &str| {
        let (sim, ho) = Handover::build(&h5_handover(SWITCH_AT), SEED);
        let frames = FrameStream {
            frames: FRAMES,
            frame_bytes: 500,
            interval: Duration::from_millis(20),
            deadline: DEADLINE,
            msg_ttl: tag_ttl.then_some(Duration::from_millis(130)),
            seed: SEED,
        };
        let switch_time = SimTime::ZERO + SWITCH_AT;
        let mut switched = false;
        let nodes = (ho.server, ho.mobile);
        stream_frames(sim, nodes, profile, label, &frames, |sim, t| {
            if !switched && t >= switch_time {
                ho.switch(sim);
                switched = true;
            }
        })
    };
    let full = handover_deadline(full_profile, false, "full");
    let partial = handover_deadline(partial_profile, true, "ttl-partial");
    deadline_rows(&mut t, FRAMES, &full, &partial);
    t.verdict = format!(
        "across the handover at {} s (RTT 40→90 ms, clean→bursty 30% bad-state loss) full reliability misses {:.1}% of the {} ms deadlines; TTL-partial misses {:.1}% and the receiver discarded {} stale retransmissions.",
        SWITCH_AT.as_secs(),
        full.miss_rate * 100.0,
        DEADLINE.as_millis(),
        partial.miss_rate * 100.0,
        partial.ttl_dropped,
    );
    t
}

// ---------------------------------------------------------------------------
// Nightly sweep: reorder-jitter × RTT grid
// ---------------------------------------------------------------------------

/// The nightly hostile-path grid: QTPAF goodput across reorder-jitter ×
/// RTT combinations (informational — each cell is one full run; the gated
/// H1/H4 points live on this surface).
pub fn hostile_sweep(jitters_ms: &[u64], one_way_ms: &[u64]) -> Table {
    let mut t = Table::new(
        "H-SWEEP",
        "QTPAF goodput across the reorder-jitter × RTT grid",
        "the H1/H4 orderings hold across the surface, not just at the gated points",
        &["RTT (ms)", "jitter (ms)", "QTPAF goodput (Mbit/s)"],
    );
    for &ow in one_way_ms {
        for &j in jitters_ms {
            let path = if j == 0 {
                PathModel::none()
            } else {
                PathModel::none().with_reorder(0.5, Duration::from_millis(j))
            };
            let (sim, s, r) = impaired_path(
                Rate::from_mbps(10),
                Duration::from_millis(ow),
                LossModel::None,
                path,
                101 + ow + j,
            );
            let goodput = run_qtpaf(sim, s, r, Rate::from_mbps(6), 15);
            t.row(vec![
                format!("{}", 2 * ow),
                format!("{j}"),
                format!("{:.2}", goodput / 1e6),
            ]);
            t.metric(
                &format!("qtpaf_rtt{}_j{j}", 2 * ow),
                goodput / 1e6,
                "Mbit/s",
                Tolerance::Info,
            );
        }
    }
    t.verdict = "rate-based control with a floor is flat across the grid".into();
    t
}
