//! Application scenario families A1–A3: the stream data plane under
//! realistic application workloads.
//!
//! Where E1–E12 reproduce the paper's rate/fairness claims with synthetic
//! greedy or CBR sources, these scenarios exercise the **application data
//! plane** end to end — `SendStream::send` → negotiated transport →
//! `RecvStream::recv` — and measure what an application would measure:
//!
//! * **A1 — bulk file transfer**: a fixed file pushed through the stream
//!   with backpressure over a lossy path; goodput and byte-exactness,
//!   QTPAF (full reliability + gTFRC floor) vs the plain-TFRC datagram
//!   baseline.
//! * **A2 — interactive request/response**: a closed-loop chat over two
//!   stream connections; response-time percentiles (p50/p95/p99 from
//!   [`qtp_metrics::agg`]) including the retransmission tail.
//! * **A3 — deadline-driven streaming**: timestamped frames with a playout
//!   deadline under loss; full reliability pays for recovery in
//!   head-of-line lateness, TTL-bounded partial reliability drops stale
//!   retransmissions at the receiver and misses fewer deadlines.
//!
//! Every scenario runs on the deterministic simulator at fixed constants
//! (A3 takes a [`DeadlineParams`] so the nightly [`deadline_sweep`] can vary
//! the loss rate); fixed seeds make each table a pure
//! function of the code, so A1–A3 are gated in the claims ledger alongside
//! E1–E12.

use qtp_core::session::{
    attach_pair, attach_pairs, ConnectionPlan, PairHandles, Profile, Reliability,
};
use qtp_core::stream::{RecvStream, SendStream, StreamConfig, StreamError};
use qtp_core::{CcKind, FeedbackMode};
use qtp_metrics::agg;
use qtp_metrics::trace::{FlightRecorder, TraceRegistry};
use qtp_simnet::prelude::*;
use qtp_simnet::sim::Simulator;
use std::time::Duration;

use crate::common::lossy_path;
use crate::table::{ratio, Table, Tolerance};

/// Deterministic position-dependent payload: any reordering, loss, or
/// duplication of delivered bytes breaks the byte-exact comparison.
pub(crate) fn pattern_bytes(len: usize, salt: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i ^ salt).wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

/// Push as much of `data` into the stream as the send buffer accepts.
pub(crate) fn feed(send: &SendStream, data: &[u8], offset: &mut usize, msg: usize) {
    while *offset < data.len() {
        let end = (*offset + msg).min(data.len());
        match send.send(&data[*offset..end]) {
            Ok(()) => *offset = end,
            Err(StreamError::Full) => break,
            Err(e) => panic!("scenario send failed: {e}"),
        }
    }
}

pub(crate) fn drain(recv: &RecvStream, into: &mut Vec<u8>) {
    while let Some(m) = recv.recv() {
        into.extend(m);
    }
}

// ---------------------------------------------------------------------------
// A1 — bulk file transfer
// ---------------------------------------------------------------------------

/// Outcome of one bulk transfer run.
struct BulkRun {
    label: String,
    /// Application goodput over the active period, Mbit/s.
    goodput_mbps: f64,
    /// Seconds until the receive stream finished (horizon if it never did).
    completion_s: f64,
    delivered_bytes: u64,
    /// Delivered bytes reproduce the file exactly, in order.
    byte_exact: bool,
}

/// Push `file` through the pair's streams in 1000-byte messages, 50 ms of
/// simulated time per step, for at most 60 s. Returns the bytes received
/// and the seconds until the receive stream finished (the horizon if it
/// never did).
pub(crate) fn transfer(sim: &mut Simulator, h: &PairHandles, file: &[u8]) -> (Vec<u8>, f64) {
    let tx = h.tx_stream.clone().expect("stream plan has a send stream");
    let rx = h.rx_stream.clone().expect("stream plan has a recv stream");
    let step = Duration::from_millis(50);
    let horizon = SimTime::ZERO + Duration::from_secs(60);
    let mut t = SimTime::ZERO;
    let mut offset = 0usize;
    let mut received = Vec::with_capacity(file.len());
    let mut completion = None;
    while t < horizon {
        t = (t + step).min(horizon);
        feed(&tx, file, &mut offset, 1000);
        if offset == file.len() && !tx.is_finished() {
            tx.finish();
        }
        sim.run_until(t);
        drain(&rx, &mut received);
        if rx.is_finished() {
            completion = Some(t);
            break;
        }
    }
    (received, completion.unwrap_or(horizon).as_secs_f64())
}

/// A1 — bulk file transfer: QTPAF vs the plain-TFRC datagram baseline on
/// the same 2%-loss path.
pub fn a1() -> Table {
    let mut t = Table::new(
        "A1",
        "App scenario: bulk file transfer over the stream data plane",
        "application extension of §4: full reliability over the gTFRC floor moves a file byte-exact at the reserved rate under loss, while the datagram baseline collapses to the TFRC equation and delivers holes",
        &[
            "profile",
            "goodput (Mbit/s)",
            "completion (s)",
            "delivered (KiB)",
            "byte-exact",
        ],
    );
    /// File size in KiB.
    const FILE_KIB: usize = 512;
    /// gTFRC floor of the QTPAF variant, Mbit/s.
    const FLOOR_MBPS: u64 = 6;
    const SEED: u64 = 42;
    // One bulk file transfer through the stream data plane: 10 Mbit/s,
    // 20 ms one way, 2% Bernoulli loss on the data direction.
    let bulk = |profile: Profile, label: &str| {
        let (mut sim, s, r) = lossy_path(
            10,
            Duration::from_millis(20),
            LossModel::bernoulli(0.02),
            SEED,
        );
        let plan = ConnectionPlan::new(profile)
            .label(label)
            .stream(StreamConfig::with_send_buf(64 * 1024));
        let h = attach_pair(&mut sim, s, r, &plan);
        let file = pattern_bytes(FILE_KIB * 1024, SEED);
        let (received, elapsed) = transfer(&mut sim, &h, &file);
        let delivered = received.len() as u64;
        BulkRun {
            label: label.to_string(),
            goodput_mbps: delivered as f64 * 8.0 / elapsed / 1e6,
            completion_s: elapsed,
            delivered_bytes: delivered,
            byte_exact: received == file,
        }
    };
    let af = bulk(Profile::qtp_af(Rate::from_mbps(FLOOR_MBPS)), "qtp_af");
    let tfrc = bulk(Profile::tfrc(), "tfrc");
    for run in [&af, &tfrc] {
        t.row(vec![
            run.label.clone(),
            format!("{:.2}", run.goodput_mbps),
            format!("{:.2}", run.completion_s),
            format!("{}", run.delivered_bytes / 1024),
            format!("{}", run.byte_exact),
        ]);
    }
    t.verdict = format!(
        "QTPAF finishes the {} KiB file byte-exact in {:.2} s ({:.2} Mbit/s); plain TFRC needs {:.2} s for a lossy copy ({:.2} Mbit/s) — the floor and the reliability compose for applications, not just for rate traces.",
        FILE_KIB, af.completion_s, af.goodput_mbps, tfrc.completion_s, tfrc.goodput_mbps,
    );
    t.metric(
        "qtpaf_goodput_mbps",
        af.goodput_mbps,
        "Mbit/s",
        Tolerance::Rel(0.25),
    );
    t.metric(
        "tfrc_goodput_mbps",
        tfrc.goodput_mbps,
        "Mbit/s",
        Tolerance::Rel(0.30),
    );
    t.metric("qtpaf_byte_exact", af.byte_exact, "flag", Tolerance::Exact);
    t.metric(
        "qtpaf_completion_s",
        af.completion_s,
        "s",
        Tolerance::Rel(0.30),
    );
    t
}

// ---------------------------------------------------------------------------
// A2 — interactive request/response
// ---------------------------------------------------------------------------

/// A2 — interactive request/response latency percentiles. Requests ride
/// one stream connection client→server (the lossy direction), responses a
/// second one server→client. A lost tail request has nothing behind it to
/// reveal the gap, so the tail-loss timer sets the p99 — exactly the
/// latency anatomy a real RPC client sees.
pub fn a2() -> Table {
    /// Closed-loop requests to complete.
    const REQUESTS: usize = 100;
    /// One-way propagation delay, ms.
    const ONE_WAY_MS: u64 = 10;
    const SEED: u64 = 7;
    let mut t = Table::new(
        "A2",
        "App scenario: closed-loop request/response over two stream connections",
        "application extension of §3: the stream data plane serves interactive traffic — median response time tracks the RTT plus pacing, and the only heavy tail is the tail-loss recovery of a lost request",
        &["exchanges", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
    );
    // 10 Mbit/s with 10% Bernoulli loss on the request direction.
    let (mut sim, c, s) = lossy_path(
        10,
        Duration::from_millis(ONE_WAY_MS),
        LossModel::bernoulli(0.10),
        SEED,
    );
    let plan = |label: &str| {
        ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(2)))
            .label(label)
            .stream(StreamConfig::with_send_buf(64 * 1024))
    };
    // Both connections terminate on both nodes (requests one way,
    // responses the other), so they must share per-node agents.
    let mut pairs = attach_pairs(&mut sim, &[(c, s, plan("a2-req")), (s, c, plan("a2-rsp"))]);
    let rsp = pairs.pop().expect("two pairs attached");
    let req = pairs.pop().expect("two pairs attached");
    let req_tx = req.tx_stream.clone().expect("stream plan");
    let req_rx = req.rx_stream.clone().expect("stream plan");
    let rsp_tx = rsp.tx_stream.clone().expect("stream plan");
    let rsp_rx = rsp.rx_stream.clone().expect("stream plan");

    let request = pattern_bytes(200, SEED);
    let response = pattern_bytes(1000, SEED + 1);
    let step = Duration::from_millis(1);
    let warmup = SimTime::ZERO + Duration::from_millis(500);
    let horizon = SimTime::ZERO + Duration::from_secs(120);
    let mut t_sim = SimTime::ZERO;
    sim.run_until(warmup);
    t_sim = t_sim.max(warmup);

    let mut sent = 0usize;
    let mut inflight: Option<SimTime> = None;
    let mut rts_ms: Vec<f64> = Vec::with_capacity(REQUESTS);
    while rts_ms.len() < REQUESTS && t_sim < horizon {
        // Server: every complete request gets one response.
        while req_rx.recv().is_some() {
            rsp_tx.send(&response).expect("response fits the buffer");
        }
        // Client: a response completes the exchange in flight.
        while rsp_rx.recv().is_some() {
            if let Some(at) = inflight.take() {
                rts_ms.push(t_sim.saturating_since(at).as_secs_f64() * 1e3);
            }
        }
        if inflight.is_none() && sent < REQUESTS {
            req_tx.send(&request).expect("request fits the buffer");
            inflight = Some(t_sim);
            sent += 1;
        }
        t_sim = (t_sim + step).min(horizon);
        sim.run_until(t_sim);
    }
    let (completed, p50_ms, p95_ms, p99_ms) = (
        rts_ms.len(),
        agg::p50(&rts_ms),
        agg::p95(&rts_ms),
        agg::p99(&rts_ms),
    );
    t.row(vec![
        format!("{completed}"),
        format!("{p50_ms:.1}"),
        format!("{p95_ms:.1}"),
        format!("{p99_ms:.1}"),
    ]);
    t.verdict = format!(
        "{completed} of {REQUESTS} exchanges completed; p50 {p50_ms:.1} ms over a {} ms RTT, p99 {p99_ms:.1} ms — the tail is the tail-loss timer recovering a lost request, not queueing.",
        2 * ONE_WAY_MS,
    );
    t.metric("completed", completed, "exchanges", Tolerance::Exact);
    t.metric("p50_ms", p50_ms, "ms", Tolerance::AbsOrRel(3.0, 0.35));
    t.metric("p95_ms", p95_ms, "ms", Tolerance::AbsOrRel(5.0, 0.40));
    t.metric("p99_ms", p99_ms, "ms", Tolerance::AbsOrRel(10.0, 0.50));
    t
}

// ---------------------------------------------------------------------------
// A3 — deadline-driven streaming
// ---------------------------------------------------------------------------

/// Parameters of the deadline-streaming family.
#[derive(Debug, Clone)]
pub struct DeadlineParams {
    /// Frames to stream.
    pub frames: usize,
    /// Frame size, bytes (one message per frame).
    pub frame_bytes: usize,
    /// Frame interval (CBR cadence).
    pub interval: Duration,
    /// Playout deadline: a frame older than this on delivery is missed.
    pub deadline: Duration,
    /// Per-message TTL for the partial-reliability variant. Set below the
    /// minimum retransmission round trip so every arriving retransmission
    /// is provably stale — the receiver, not the sender, drops it.
    pub msg_ttl: Duration,
    /// Connection-level TTL offered by the partial profile (kept well
    /// above `msg_ttl` so the sender still retransmits and the receiver
    /// exercises its drop path).
    pub policy_ttl: Duration,
    /// Path rate in Mbit/s.
    pub rate_mbps: u64,
    /// gTFRC floor in Mbit/s, identical in both variants so the
    /// comparison isolates the reliability axis.
    pub floor_mbps: u64,
    /// One-way propagation delay.
    pub one_way: Duration,
    /// Bernoulli loss probability on the data direction.
    pub loss: f64,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for DeadlineParams {
    fn default() -> Self {
        DeadlineParams {
            frames: 600,
            frame_bytes: 500,
            interval: Duration::from_millis(20),
            deadline: Duration::from_millis(120),
            msg_ttl: Duration::from_millis(110),
            policy_ttl: Duration::from_millis(400),
            rate_mbps: 4,
            floor_mbps: 1,
            one_way: Duration::from_millis(40),
            loss: 0.03,
            seed: 9,
        }
    }
}

/// The two A3 profiles: full reliability vs TTL-partial, with the *same*
/// congestion control (gTFRC at the same floor) so reliability is the
/// only axis that differs. `qtp_light_partial` would swap the whole
/// capability set at once and confound the deadline comparison with a
/// rate change.
pub(crate) fn deadline_profiles(floor_mbps: u64, policy_ttl: Duration) -> (Profile, Profile) {
    let floor = Rate::from_mbps(floor_mbps);
    let full = Profile::qtp_af(floor);
    let partial = Profile::new()
        .reliability(Reliability::Ttl(policy_ttl))
        .feedback(FeedbackMode::ReceiverLoss)
        .cc(CcKind::Gtfrc { target: floor })
        .build()
        .expect("non-zero TTL");
    (full, partial)
}

/// Outcome of one deadline-streaming run.
#[derive(Debug, Clone)]
pub struct DeadlineRun {
    /// Variant label.
    pub label: String,
    /// Frames delivered within the deadline.
    pub on_time: usize,
    /// Frames delivered after the deadline.
    pub late: usize,
    /// Frames never delivered.
    pub never: usize,
    /// (late + never) / frames.
    pub miss_rate: f64,
    /// Stale retransmissions dropped by the receiver's TTL check.
    pub ttl_dropped: u64,
    /// Flight-recorder tail of both endpoints (last events per side),
    /// kept for failure diagnostics — see [`Table::diagnostics`].
    pub flight_dump: String,
}

/// Stream timestamped CBR frames through one profile and score each frame
/// against the playout deadline.
pub fn deadline(
    params: &DeadlineParams,
    profile: Profile,
    tag_ttl: bool,
    label: &str,
) -> DeadlineRun {
    let (sim, s, r) = lossy_path(
        params.rate_mbps,
        params.one_way,
        LossModel::bernoulli(params.loss),
        params.seed,
    );
    let frames = FrameStream {
        frames: params.frames,
        frame_bytes: params.frame_bytes,
        interval: params.interval,
        deadline: params.deadline,
        msg_ttl: tag_ttl.then_some(params.msg_ttl),
        seed: params.seed,
    };
    stream_frames(sim, (s, r), profile, label, &frames, |_, _| {})
}

/// The frame stream a deadline scenario sends: `frames` frames of
/// `frame_bytes`, one per `interval`, each stamped with its index and send
/// time and scored against `deadline`.
pub(crate) struct FrameStream {
    pub(crate) frames: usize,
    pub(crate) frame_bytes: usize,
    pub(crate) interval: Duration,
    pub(crate) deadline: Duration,
    /// Per-message TTL tag (`None` = untagged).
    pub(crate) msg_ttl: Option<Duration>,
    pub(crate) seed: u64,
}

/// Send `params`' frames from `s` to `r` under `profile`, a flight
/// recorder riding along; `after_step` runs after each 5 ms step of
/// simulated time (H5 switches its handover there).
pub(crate) fn stream_frames(
    mut sim: Simulator,
    (s, r): (NodeId, NodeId),
    profile: Profile,
    label: &str,
    params: &FrameStream,
    mut after_step: impl FnMut(&mut Simulator, SimTime),
) -> DeadlineRun {
    let plan = ConnectionPlan::new(profile)
        .label(label)
        .payload(params.frame_bytes as u32)
        .stream(StreamConfig::default());
    let h = attach_pair(&mut sim, s, r, &plan);
    let tx = h.tx_stream.clone().expect("stream plan");
    let rx = h.rx_stream.clone().expect("stream plan");

    // Flight recorder riding along: the last events of each side, dumped
    // into the ledger's diagnostics if an A3 assertion fails. Tracing is
    // observation-only, so the scenario numbers cannot move.
    let recorder = std::rc::Rc::new(std::cell::RefCell::new(FlightRecorder::new(48)));
    let registry = TraceRegistry::new();
    registry.set_sink(recorder.clone());
    registry.register(&format!("{label}:tx"), &h.tx_tracer);
    registry.register(&format!("{label}:rx"), &h.rx_tracer);

    let ttl_micros = params.msg_ttl.map_or(0, |ttl| ttl.as_micros() as u32);
    let pad = pattern_bytes(params.frame_bytes, params.seed);
    let step = Duration::from_millis(5);
    let warmup = SimTime::ZERO + Duration::from_secs(1);
    let horizon = SimTime::ZERO + Duration::from_secs(30) + params.interval * params.frames as u32;
    let mut t = SimTime::ZERO;
    sim.run_until(warmup);
    t = t.max(warmup);

    let mut sent = 0usize;
    let mut delivered = vec![false; params.frames];
    let mut on_time = 0usize;
    let mut late = 0usize;
    while t < horizon {
        while sent < params.frames && t >= warmup + params.interval * sent as u32 {
            let mut frame = pad.clone();
            frame[..4].copy_from_slice(&(sent as u32).to_be_bytes());
            frame[4..12].copy_from_slice(&t.as_nanos().to_be_bytes());
            tx.send_with_ttl(&frame, ttl_micros)
                .expect("frame fits the buffer");
            sent += 1;
        }
        if sent == params.frames && !tx.is_finished() {
            tx.finish();
        }
        t = (t + step).min(horizon);
        sim.run_until(t);
        after_step(&mut sim, t);
        while let Some(frame) = rx.recv() {
            let mut idx = [0u8; 4];
            idx.copy_from_slice(&frame[..4]);
            let idx = u32::from_be_bytes(idx) as usize;
            let mut ts = [0u8; 8];
            ts.copy_from_slice(&frame[4..12]);
            let sent_at = SimTime::from_nanos(u64::from_be_bytes(ts));
            if delivered[idx] {
                continue;
            }
            delivered[idx] = true;
            if t.saturating_since(sent_at) <= params.deadline {
                on_time += 1;
            } else {
                late += 1;
            }
        }
        if rx.is_finished() && sent == params.frames {
            break;
        }
    }
    let never = delivered.iter().filter(|d| !**d).count();
    let flight_dump = recorder.borrow().dump();
    DeadlineRun {
        label: label.to_string(),
        on_time,
        late,
        never,
        miss_rate: (late + never) as f64 / params.frames as f64,
        ttl_dropped: rx.ttl_dropped(),
        flight_dump,
    }
}

/// A3 — deadline-driven streaming: full reliability vs TTL-bounded partial
/// reliability under 3% loss.
pub fn a3() -> Table {
    let mut t = Table::new(
        "A3",
        "App scenario: deadline streaming — full vs TTL-partial reliability",
        "§3's partial-reliability by-product, measured at the application: under loss, full reliability recovers every frame but behind the playout deadline (head-of-line lateness), while TTL-partial delivery drops stale retransmissions at the receiver and misses fewer deadlines",
        &DEADLINE_COLUMNS,
    );
    let params = DeadlineParams::default();
    let (full_profile, partial_profile) = deadline_profiles(params.floor_mbps, params.policy_ttl);
    let full = deadline(&params, full_profile, false, "full");
    let partial = deadline(&params, partial_profile, true, "ttl-partial");
    deadline_rows(&mut t, params.frames, &full, &partial);
    t.verdict = format!(
        "with a {} ms deadline over an {} ms RTT, full reliability misses {:.1}% of frames (every recovered frame arrives stale and delays the frames queued behind it); TTL-partial delivery misses {:.1}% — the lost frames themselves — and the receiver discarded {} stale retransmissions.",
        params.deadline.as_millis(),
        2 * params.one_way.as_millis(),
        full.miss_rate * 100.0,
        partial.miss_rate * 100.0,
        partial.ttl_dropped,
    );
    t
}

/// The columns of a deadline table (A3, H5).
pub(crate) const DEADLINE_COLUMNS: [&str; 7] = [
    "variant",
    "frames",
    "on-time",
    "late",
    "never",
    "miss rate",
    "ttl dropped",
];

/// The rows, gated metrics and flight-recorder diagnostics of a deadline
/// table (A3, H5): one row per variant, then the miss rates, the partial
/// variant's TTL drops and on-time count.
pub(crate) fn deadline_rows(
    t: &mut Table,
    frames: usize,
    full: &DeadlineRun,
    partial: &DeadlineRun,
) {
    for run in [full, partial] {
        t.row(vec![
            run.label.clone(),
            format!("{frames}"),
            format!("{}", run.on_time),
            format!("{}", run.late),
            format!("{}", run.never),
            ratio(run.miss_rate),
            format!("{}", run.ttl_dropped),
        ]);
    }
    t.metric(
        "full_miss_rate",
        full.miss_rate,
        "ratio",
        Tolerance::AbsOrRel(0.02, 0.5),
    );
    t.metric(
        "partial_miss_rate",
        partial.miss_rate,
        "ratio",
        Tolerance::AbsOrRel(0.02, 0.5),
    );
    t.metric(
        "partial_ttl_dropped",
        partial.ttl_dropped,
        "frames",
        Tolerance::AbsOrRel(10.0, 1.0),
    );
    t.metric(
        "partial_on_time",
        partial.on_time,
        "frames",
        Tolerance::AbsOrRel(20.0, 0.10),
    );
    for run in [full, partial] {
        t.diagnostics.push(format!(
            "{} variant {} — flight recorder tail:\n{}",
            t.id, run.label, run.flight_dump
        ));
    }
}

/// Sweep the deadline-miss rate across loss rates for both reliability
/// variants (the nightly artifact; each cell is a full scenario run).
pub fn deadline_sweep(losses: &[f64]) -> Table {
    let mut t = Table::new(
        "A3-SWEEP",
        "Deadline-miss rate vs loss: full vs TTL-partial reliability",
        "the A3 ordering holds across the loss range, not just at the gated point",
        &["loss", "full miss rate", "partial miss rate", "ttl dropped"],
    );
    for &loss in losses {
        let params = DeadlineParams {
            loss,
            seed: 9 + (loss * 1000.0) as u64,
            ..DeadlineParams::default()
        };
        let (full_profile, partial_profile) =
            deadline_profiles(params.floor_mbps, params.policy_ttl);
        let full = deadline(&params, full_profile, false, "full");
        let partial = deadline(&params, partial_profile, true, "ttl-partial");
        t.row(vec![
            format!("{loss}"),
            ratio(full.miss_rate),
            ratio(partial.miss_rate),
            format!("{}", partial.ttl_dropped),
        ]);
        t.metric(
            &format!("full_miss_l{}", (loss * 1000.0) as u64),
            full.miss_rate,
            "ratio",
            Tolerance::Info,
        );
        t.metric(
            &format!("partial_miss_l{}", (loss * 1000.0) as u64),
            partial.miss_rate,
            "ratio",
            Tolerance::Info,
        );
    }
    t.verdict = "partial ≤ full at every loss rate".into();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_partial_beats_full_and_drops_stale_retx() {
        let params = DeadlineParams {
            frames: 300,
            ..DeadlineParams::default()
        };
        let (full_profile, partial_profile) =
            deadline_profiles(params.floor_mbps, params.policy_ttl);
        let full = deadline(&params, full_profile, false, "full");
        let partial = deadline(&params, partial_profile, true, "partial");
        assert!(
            partial.miss_rate <= full.miss_rate,
            "TTL-partial misses fewer deadlines ({:.3} vs {:.3})",
            partial.miss_rate,
            full.miss_rate
        );
        assert!(
            partial.ttl_dropped >= 1,
            "the receiver-side TTL drop path must fire"
        );
        assert!(full.on_time > 0 && partial.on_time > 0);
    }
}
