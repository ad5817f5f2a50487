//! The measurement protocol shared by every workload, and the metric tables
//! `BENCHMARK.json` is written from.
//!
//! One process runs one workload: one warm-up repetition lets allocators and
//! caches settle, then fixed-size timed repetitions, each with its own timed
//! set-up, fill `--seconds`. Every timing metric is the median over
//! repetitions — the latency percentiles too: each repetition's own p50 and
//! p99, then the median of those, which one stalled repetition cannot move.
//! Latency samples are also pooled across repetitions, for the detail file
//! and the highest tail percentile the sample count supports.

use crate::alloc;
use crate::span::{NameId, Spans};
use crate::stats;
use crate::sys;
use std::time::Instant;

/// `(name, why)` — names are fixed; later issues cite them.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "mux_bulk1",
        "one reliable stream over the loopback mux: the loop idles between pace ticks, so sleeping, the timer wheel and one-packet-per-tick pacing set goodput; per-packet CPU savings must not move it",
    ),
    (
        "mux_fanout16",
        "16 reliable streams on one socket pair and one thread: the loop never sleeps, so this is the CPU-bound real-socket path where allocation removal, hashed routes and batched I/O show",
    ),
    (
        "mux_chat",
        "closed-loop 64 B request / 1000 B response over two mux connections: smallest datagrams, latency not throughput; batching delay or longer sleeps show as worse msg_latency",
    ),
    (
        "pipe_bulk",
        "the same reliable stream between two sans-io Sessions on a virtual clock, no sockets: isolates stream/session/sack/cc/wire from qtp-io and the kernel; counts repeat exactly",
    ),
    (
        "pipe_lossy_vlbi",
        "e-VLBI shape on the virtual-clock pipe: TTL-partial reliability, gTFRC floor, 1200 B messages, 100 ms RTT, 1 % seeded loss; sends a fixed share of traffic through loss recovery",
    ),
    (
        "sim_manyflow",
        "the 3162-flow mixed-profile dumbbell on the discrete-event simulator, which the five socket/pipe workloads bypass entirely; a datagram here is a simulated packet an endpoint sent",
    ),
];

/// `(name, unit, better, bound)`. Every workload reports every one of these;
/// the definitions per workload are in the README's glossary. The bounds on
/// times are as wide as the contract allows because the host they were
/// measured on is that noisy (README, "Protocol"); the bounds on counts are
/// tight because counts do not move.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("goodput_mbps", "Mbit/s", "higher", 0.25),
    ("dgrams_per_cpu_s", "1/s", "higher", 0.25),
    ("msg_latency_p50_us", "us", "lower", 0.25),
    ("msg_latency_p99_us", "us", "lower", 0.25),
    ("allocs_per_dgram", "count", "lower", 0.02),
    ("alloc_bytes_per_dgram", "B", "lower", 0.05),
    ("wire_overhead_ratio", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MiB", "lower", 0.15),
];

/// `(name, unit, better)`, grouped by layer (the prefix is the module name).
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("stream.send_ns_per_msg", "ns", "lower"),
    ("stream.recv_ns_per_msg", "ns", "lower"),
    ("stream.allocs_per_msg", "count", "lower"),
    ("stream.full_ratio", "ratio", "lower"),
    ("stream.ns_per_dgram", "ns", "lower"),
    ("session.tx_timeout_ns_per_fire", "ns", "lower"),
    ("session.tx_input_ns_per_dgram", "ns", "lower"),
    ("session.rx_input_ns_per_dgram", "ns", "lower"),
    ("session.rx_timeout_ns_per_fire", "ns", "lower"),
    ("session.ns_per_dgram", "ns", "lower"),
    ("session.allocs_per_dgram", "count", "lower"),
    ("session.timer_fires_per_dgram", "ratio", "lower"),
    ("session.timers_cancelled_ratio", "ratio", "lower"),
    ("session.fb_per_data_dgram", "ratio", "lower"),
    ("session.retx_ratio", "ratio", "lower"),
    ("session.abandoned_ratio", "ratio", "lower"),
    ("session.loss_events", "count", "lower"),
    ("wire.decode_ns_per_pkt", "ns", "lower"),
    ("wire.encode_ns_per_pkt", "ns", "lower"),
    ("wire.allocs_per_pkt", "count", "lower"),
    ("wire.hdr_bytes_per_data_pkt", "B", "lower"),
    ("frame.encode_ns_per_dgram", "ns", "lower"),
    ("frame.decode_ns_per_dgram", "ns", "lower"),
    ("frame.allocs_per_dgram", "count", "lower"),
    ("sack.scoreboard_ns_per_feedback", "ns", "lower"),
    ("sack.reassembly_ns_per_pkt", "ns", "lower"),
    ("sack.blocks_per_feedback", "count", "lower"),
    ("tfrc.detector_ns_per_pkt", "ns", "lower"),
    ("cc.feedback_ns", "ns", "lower"),
    ("mux.drive_once_idle_ratio", "ratio", "lower"),
    ("mux.drive_once_busy_us", "us", "lower"),
    ("mux.dgrams_per_drive_once", "count", "higher"),
    ("mux.drive_ns_per_dgram", "ns", "lower"),
    ("mux.timers_per_dgram", "ratio", "lower"),
    ("mux.ingest_ns_per_dgram", "ns", "lower"),
    ("mux.route_ns_16", "ns", "lower"),
    ("mux.route_ns_1024", "ns", "lower"),
    ("mux.allocs_per_dgram", "count", "lower"),
    ("mux.sends_requeued_ratio", "ratio", "lower"),
    ("mux.tx_backlog_high_water", "count", "lower"),
    ("mux.wheel_high_water", "count", "lower"),
    ("mux.unroutable", "count", "lower"),
    ("mux.rejected", "count", "lower"),
    ("mux.soft_errors", "count", "lower"),
    ("wheel.ns_per_timer", "ns", "lower"),
    ("socket.floor_us_per_dgram", "us", "lower"),
    ("socket.rx_drops", "count", "lower"),
    ("simnet.events", "count", "lower"),
    ("simnet.events_per_s", "1/s", "higher"),
    ("simnet.pool_high_water", "count", "lower"),
    ("simnet.ns_per_event", "ns", "lower"),
    ("simnet.calendar_ns_per_op", "ns", "lower"),
    ("simnet.arena_ns_per_pkt", "ns", "lower"),
    ("simnet.rss_kb_per_flow", "KiB", "lower"),
    ("harness.cpu_busy_ratio", "ratio", "lower"),
    ("harness.rep_spread_ratio", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.attribution_residual_ratio", "ratio", "lower"),
    ("harness.fail_ratio", "ratio", "lower"),
    ("harness.reps", "count", "higher"),
    ("harness.latency_samples", "count", "higher"),
    ("harness.msg_latency_tail_us", "us", "lower"),
    ("harness.wall_ns_per_dgram", "ns", "lower"),
    ("harness.cpu_ns_per_dgram", "ns", "lower"),
    ("harness.dgrams_per_rep", "count", "lower"),
    ("harness.app_bytes_per_rep", "B", "higher"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (n, u)))
        .find(|(n, _)| **n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
}

/// Span names: one per harness→layer call boundary.
pub mod names {
    use super::NameId;
    pub const REP: NameId = 0;
    pub const STREAM_SEND: NameId = 1;
    pub const STREAM_RECV: NameId = 2;
    pub const TX_INPUT: NameId = 3;
    pub const TX_TIMEOUT: NameId = 4;
    pub const TX_POLL: NameId = 5;
    pub const RX_INPUT: NameId = 6;
    pub const RX_TIMEOUT: NameId = 7;
    pub const RX_POLL: NameId = 8;
    /// One `drive_once` on each side of the socket pair.
    pub const MUX_DRIVE: NameId = 9;
    pub const SIM_RUN: NameId = 10;
    pub const ALL: [&str; 11] = [
        "rep",
        "stream.send",
        "stream.recv",
        "session.tx_input",
        "session.tx_timeout",
        "session.tx_poll_transmit",
        "session.rx_input",
        "session.rx_timeout",
        "session.rx_poll_transmit",
        "mux.drive_once_pair",
        "simnet.run",
    ];
}

/// A correctness violation: what went wrong where. Fatal to the run.
#[derive(Debug, Clone)]
pub struct Violation {
    pub what: String,
    /// Stream position (or message / flow index) of the first bad item.
    pub offset: u64,
}

impl Violation {
    pub fn new(what: impl Into<String>, offset: u64) -> Self {
        Violation {
            what: what.into(),
            offset,
        }
    }
}

impl From<std::io::Error> for Violation {
    fn from(e: std::io::Error) -> Self {
        Violation::new(format!("socket error: {e}"), 0)
    }
}

/// Raw per-layer counts of one repetition; summed (high-water marks: maxed)
/// over repetitions before the ratios are taken.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    // stream: what the application handles saw
    pub sends: u64,
    pub refused: u64,
    pub msgs_recv: u64,
    // session: the endpoints' own tracer counters
    pub data_dgrams: u64,
    pub fb_dgrams: u64,
    pub timer_fires: u64,
    pub timers_set: u64,
    pub timers_cancelled: u64,
    pub retransmits: u64,
    pub abandoned: u64,
    pub loss_events: u64,
    // mux: MuxStats of both sides and the drive loop seen from outside
    pub iterations: u64,
    pub idle_iterations: u64,
    pub busy_ns: u64,
    pub mux_timers: u64,
    pub requeued: u64,
    pub backlog_hw: u64,
    pub wheel_hw: u64,
    pub unroutable: u64,
    pub rejected: u64,
    pub soft_errors: u64,
    pub rx_drops: u64,
    // simnet: engine counters
    pub events: u64,
    pub pool_hw: u64,
}

impl Layer {
    fn merge(&mut self, o: &Layer) {
        self.sends += o.sends;
        self.refused += o.refused;
        self.msgs_recv += o.msgs_recv;
        self.data_dgrams += o.data_dgrams;
        self.fb_dgrams += o.fb_dgrams;
        self.timer_fires += o.timer_fires;
        self.timers_set += o.timers_set;
        self.timers_cancelled += o.timers_cancelled;
        self.retransmits += o.retransmits;
        self.abandoned += o.abandoned;
        self.loss_events += o.loss_events;
        self.iterations += o.iterations;
        self.idle_iterations += o.idle_iterations;
        self.busy_ns += o.busy_ns;
        self.mux_timers += o.mux_timers;
        self.requeued += o.requeued;
        self.backlog_hw = self.backlog_hw.max(o.backlog_hw);
        self.wheel_hw = self.wheel_hw.max(o.wheel_hw);
        self.unroutable += o.unroutable;
        self.rejected += o.rejected;
        self.soft_errors += o.soft_errors;
        self.rx_drops += o.rx_drops;
        self.events += o.events;
        self.pool_hw = self.pool_hw.max(o.pool_hw);
    }
}

/// What one repetition measured. Times cover the transfer only — first
/// `send` to receiver `Finished` and sender closed — not the set-up.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Application bytes delivered and verified.
    pub app_bytes: u64,
    /// Datagrams put on the wire, both directions.
    pub dgrams: u64,
    pub wire_bytes: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Operations (writes, messages, exchanges, flows) submitted / not
    /// completed and verified.
    pub attempted: u64,
    pub failed: u64,
    /// Median and 99th percentile of this repetition's message latencies;
    /// filled in by [`execute`].
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub layer: Layer,
}

/// What a repetition may touch besides its own rig.
pub struct Ctx<'a> {
    pub spans: &'a mut Spans,
    /// This repetition's latency samples, microseconds.
    pub lat_us: &'a mut Vec<f64>,
}

impl Ctx<'_> {
    /// Record one latency sample. The buffer never grows — that would be an
    /// allocation inside somebody's timed window — so samples beyond its
    /// capacity (twice the most any workload takes per repetition) are
    /// dropped.
    pub fn latency(&mut self, since: Instant) {
        if self.lat_us.len() < self.lat_us.capacity() {
            self.lat_us.push(since.elapsed().as_secs_f64() * 1e6);
        }
    }
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Whether every count of a repetition is a pure function of the seed
    /// (virtual clock, no sockets): such workloads must repeat exactly.
    fn exact(&self) -> bool;
    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Result<Rep, Violation>;
}

/// Times one transfer: wall clock, process CPU and allocator counts between
/// `start` and `stop`.
pub struct Meter {
    t0: Instant,
    cpu0: u64,
    alloc0: (u64, u64),
}

impl Meter {
    /// Reading the CPU clock allocates (a `/proc` file into a `String`), so
    /// it stays outside the allocator window on both ends.
    pub fn start() -> Self {
        let cpu0 = sys::cpu_ns();
        Meter {
            cpu0,
            alloc0: alloc::snapshot(),
            t0: Instant::now(),
        }
    }

    /// Fill `rep`'s time and allocation fields.
    pub fn stop(self, rep: &mut Rep) {
        rep.wall_s = self.t0.elapsed().as_secs_f64();
        (rep.allocs, rep.alloc_bytes) = alloc::delta(self.alloc0);
        rep.cpu_s = (sys::cpu_ns() - self.cpu0) as f64 / 1e9;
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seconds: f64,
    pub trace: bool,
    /// `--quick`: exactly one timed repetition.
    pub quick: bool,
}

/// Times the one-off buffers are made; the last set is the one used.
const ONE_OFF_SETUPS: usize = 9;
/// Never fewer timed repetitions than this, however slow the host.
const MIN_REPS: usize = 5;
/// Latency samples one repetition may take, and the pooled ones together.
const REP_LATENCIES: usize = 1 << 17;
const LATENCY_POOL: usize = MIN_REPS * REP_LATENCIES;
/// Spans kept for the trace file; totals stay exact beyond it.
const SPAN_BUFFER: usize = 200_000;

pub struct RunOut {
    pub workload: &'static str,
    pub one_off_s: f64,
    pub setups_s: Vec<f64>,
    /// Timed repetitions with tracing off (all of them when `--trace 0`).
    pub reps: Vec<Rep>,
    /// Timed repetitions with spans on (`--trace 1` only).
    pub traced: Vec<Rep>,
    /// Pooled over the first [`MIN_REPS`] of `reps`, ascending.
    pub lat_us: Vec<f64>,
    pub spans: Spans,
    pub hwm_kb: u64,
}

pub fn execute(w: &mut dyn Workload, opts: &Opts) -> Result<RunOut, Violation> {
    // One-off set-up: the buffers every repetition shares. Made several
    // times over, like every other set-up, so that its median is steady.
    let buffers = || {
        let t0 = Instant::now();
        let rep_lat: Vec<f64> = Vec::with_capacity(REP_LATENCIES);
        let pool: Vec<f64> = Vec::with_capacity(LATENCY_POOL);
        let spans = Spans::new(opts.trace, &names::ALL, SPAN_BUFFER);
        (rep_lat, pool, spans, t0.elapsed().as_secs_f64())
    };
    let mut one_offs = Vec::with_capacity(ONE_OFF_SETUPS);
    let (mut rep_lat, mut pool, mut spans) = loop {
        let (rep_lat, pool, spans, took_s) = buffers();
        one_offs.push(took_s);
        if one_offs.len() == ONE_OFF_SETUPS {
            break (rep_lat, pool, spans);
        }
    };
    let one_off_s = stats::median(&one_offs);
    spans.set_on(false);

    // Warm-up: same size as a timed repetition, discarded.
    let warm = w.rep(&mut Ctx {
        spans: &mut spans,
        lat_us: &mut rep_lat,
    })?;

    // Set-up is timed once per repetition, each on the state the previous
    // repetition left behind. (Set-ups timed back to back on their own ran
    // either four times faster or not, from one run to the next, depending
    // on whether the allocator had handed the freed memory back.)
    let mut setups_s = vec![warm.setup_s];
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut longest_s = warm.setup_s + warm.wall_s;
    let budget = Instant::now();
    loop {
        let n = reps.len() + traced.len();
        let enough = if opts.quick {
            n >= if opts.trace { 2 } else { 1 }
        } else {
            n >= MIN_REPS && budget.elapsed().as_secs_f64() + longest_s > opts.seconds
        };
        if enough {
            break;
        }
        // With tracing requested, odd repetitions run with spans on so both
        // kinds see the same machine state; only untraced ones are reported.
        let with_spans = opts.trace && n % 2 == 1;
        spans.set_on(with_spans);
        spans.set_rep(n);
        rep_lat.clear();
        let t = Instant::now();
        let mut rep = w.rep(&mut Ctx {
            spans: &mut spans,
            lat_us: &mut rep_lat,
        })?;
        longest_s = longest_s.max(t.elapsed().as_secs_f64());
        setups_s.push(rep.setup_s);
        rep_lat.sort_by(f64::total_cmp);
        rep.lat_p50_us = stats::percentile_sorted(&rep_lat, 0.50);
        rep.lat_p99_us = stats::percentile_sorted(&rep_lat, 0.99);
        if with_spans {
            traced.push(rep);
        } else {
            // Only the repetitions every run has go into the pool: memory
            // touched here must not depend on how many repetitions fit.
            if reps.len() < MIN_REPS {
                let room = pool.capacity() - pool.len();
                pool.extend_from_slice(&rep_lat[..rep_lat.len().min(room)]);
            }
            reps.push(rep);
        }
    }
    spans.set_on(false);

    if w.exact() {
        check_exact(&reps)?;
        check_exact(&traced)?;
    }
    pool.sort_by(f64::total_cmp);
    Ok(RunOut {
        workload: w.name(),
        one_off_s,
        setups_s,
        reps,
        traced,
        lat_us: pool,
        spans,
        hwm_kb: sys::vm_hwm_kb(),
    })
}

/// Repetitions of a virtual-clock workload must agree on every count.
fn check_exact(reps: &[Rep]) -> Result<(), Violation> {
    let key = |r: &Rep| (r.app_bytes, r.dgrams, r.wire_bytes, r.allocs, r.alloc_bytes);
    match reps.iter().position(|r| key(r) != key(&reps[0])) {
        None => Ok(()),
        Some(i) => Err(Violation::new(
            format!(
                "repetition {i} counted {:?}, repetition 0 {:?} (app bytes, datagrams, wire bytes, allocations, allocated bytes)",
                key(&reps[i]),
                key(&reps[0])
            ),
            i as u64,
        )),
    }
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// `num / den`, or 0 when the layer saw nothing to divide by.
fn div(num: f64, den: f64) -> f64 {
    if den == 0.0 || den.is_nan() {
        0.0
    } else {
        num / den
    }
}

impl RunOut {
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    pub fn goodputs_mbps(&self) -> Vec<f64> {
        per_rep(&self.reps, |r| r.app_bytes as f64 * 8.0 / r.wall_s / 1e6)
    }

    /// Every end-to-end metric, in table order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&per_rep(&self.reps, f));
        let values = [
            self.one_off_s + stats::median(&self.setups_s),
            stats::median(&self.goodputs_mbps()),
            med(&|r| r.dgrams as f64 / r.cpu_s),
            med(&|r| r.lat_p50_us),
            med(&|r| r.lat_p99_us),
            med(&|r| r.allocs as f64 / r.dgrams as f64),
            med(&|r| r.alloc_bytes as f64 / r.dgrams as f64),
            med(&|r| r.wire_bytes as f64 / r.app_bytes as f64),
            self.hwm_kb as f64 / 1024.0,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, ..), v)| (*name, v))
            .collect()
    }

    /// The per-layer metrics this run's own spans and counters give; the
    /// isolated replays (`replay.rs`) supply the rest. Counter ratios are
    /// taken over the untraced repetitions, span figures over the traced
    /// ones; a layer the workload does not drive reads 0.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        use names::*;
        let merged = |reps: &[Rep]| {
            let mut l = Layer::default();
            reps.iter().for_each(|r| l.merge(&r.layer));
            l
        };
        let (l, tl) = (merged(&self.reps), merged(&self.traced));
        let n = self.reps.len() as f64;
        let sum = |f: &dyn Fn(&Rep) -> f64| self.reps.iter().map(f).sum::<f64>();
        let (dgrams, wall_s, cpu_s) = (
            sum(&|r| r.dgrams as f64),
            sum(&|r| r.wall_s),
            sum(&|r| r.cpu_s),
        );
        let traced_dgrams: f64 = self.traced.iter().map(|r| r.dgrams as f64).sum();

        let t = |name: NameId| self.spans.totals(name);
        let ns_per_call = |name: NameId| div(t(name).total_ns as f64, t(name).count as f64);
        let session = [TX_INPUT, TX_TIMEOUT, TX_POLL, RX_INPUT, RX_TIMEOUT, RX_POLL];
        let total_ns = |names: &[NameId]| names.iter().map(|n| t(*n).total_ns).sum::<u64>() as f64;
        let allocs = |names: &[NameId]| names.iter().map(|n| t(*n).allocs).sum::<u64>() as f64;
        let busy_iterations = (tl.iterations - tl.idle_iterations) as f64;
        let tail = stats::highest_supported_tail(self.lat_us.len())
            .map_or(0.0, |(q, _)| stats::percentile_sorted(&self.lat_us, q));

        vec![
            ("stream.send_ns_per_msg", ns_per_call(STREAM_SEND)),
            ("stream.recv_ns_per_msg", ns_per_call(STREAM_RECV)),
            (
                "stream.allocs_per_msg",
                div(allocs(&[STREAM_SEND, STREAM_RECV]), tl.msgs_recv as f64),
            ),
            ("stream.full_ratio", div(l.refused as f64, l.sends as f64)),
            (
                "stream.ns_per_dgram",
                div(total_ns(&[STREAM_SEND, STREAM_RECV]), traced_dgrams),
            ),
            ("session.tx_timeout_ns_per_fire", ns_per_call(TX_TIMEOUT)),
            ("session.tx_input_ns_per_dgram", ns_per_call(TX_INPUT)),
            ("session.rx_input_ns_per_dgram", ns_per_call(RX_INPUT)),
            ("session.rx_timeout_ns_per_fire", ns_per_call(RX_TIMEOUT)),
            (
                "session.ns_per_dgram",
                div(total_ns(&session), traced_dgrams),
            ),
            (
                "session.allocs_per_dgram",
                div(allocs(&session), traced_dgrams),
            ),
            (
                "session.timer_fires_per_dgram",
                div(l.timer_fires as f64, (l.data_dgrams + l.fb_dgrams) as f64),
            ),
            (
                "session.timers_cancelled_ratio",
                div(l.timers_cancelled as f64, l.timers_set as f64),
            ),
            (
                "session.fb_per_data_dgram",
                div(l.fb_dgrams as f64, l.data_dgrams as f64),
            ),
            (
                "session.retx_ratio",
                div(l.retransmits as f64, l.data_dgrams as f64),
            ),
            (
                "session.abandoned_ratio",
                div(l.abandoned as f64, l.data_dgrams as f64),
            ),
            ("session.loss_events", l.loss_events as f64 / n),
            (
                "mux.drive_once_idle_ratio",
                div(tl.idle_iterations as f64, tl.iterations as f64),
            ),
            (
                "mux.drive_once_busy_us",
                div(tl.busy_ns as f64, busy_iterations) / 1e3,
            ),
            (
                "mux.dgrams_per_drive_once",
                if tl.iterations == 0 {
                    0.0
                } else {
                    div(traced_dgrams, busy_iterations)
                },
            ),
            (
                "mux.drive_ns_per_dgram",
                div(t(MUX_DRIVE).total_ns as f64, traced_dgrams),
            ),
            ("mux.timers_per_dgram", l.mux_timers as f64 / dgrams),
            ("mux.sends_requeued_ratio", l.requeued as f64 / dgrams),
            ("mux.tx_backlog_high_water", l.backlog_hw as f64),
            ("mux.wheel_high_water", l.wheel_hw as f64),
            ("mux.unroutable", l.unroutable as f64),
            ("mux.rejected", l.rejected as f64),
            ("mux.soft_errors", l.soft_errors as f64),
            ("socket.rx_drops", l.rx_drops as f64),
            ("simnet.events", l.events as f64 / n),
            ("simnet.events_per_s", l.events as f64 / wall_s),
            ("simnet.pool_high_water", l.pool_hw as f64),
            ("simnet.ns_per_event", div(wall_s * 1e9, l.events as f64)),
            (
                "simnet.rss_kb_per_flow",
                if l.events == 0 {
                    0.0
                } else {
                    self.hwm_kb as f64 * n / self.attempted() as f64
                },
            ),
            ("harness.cpu_busy_ratio", cpu_s / wall_s),
            (
                "harness.rep_spread_ratio",
                stats::spread(&self.goodputs_mbps()),
            ),
            (
                "harness.trace_overhead_ratio",
                div(
                    stats::median(&per_rep(&self.traced, |r| r.wall_s)),
                    stats::median(&per_rep(&self.reps, |r| r.wall_s)),
                ),
            ),
            (
                "harness.attribution_residual_ratio",
                div(t(REP).self_ns as f64, t(REP).total_ns as f64),
            ),
            (
                "harness.fail_ratio",
                div(self.failed() as f64, self.attempted() as f64),
            ),
            ("harness.reps", n),
            ("harness.latency_samples", self.lat_us.len() as f64),
            ("harness.msg_latency_tail_us", tail),
            ("harness.wall_ns_per_dgram", wall_s * 1e9 / dgrams),
            ("harness.cpu_ns_per_dgram", cpu_s * 1e9 / dgrams),
            ("harness.dgrams_per_rep", dgrams / n),
            (
                "harness.app_bytes_per_rep",
                sum(&|r| r.app_bytes as f64) / n,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_bench::json::{parse, Value};

    fn names_of(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what later changes are judged by; the binary must
    /// print exactly the workloads and metrics it names.
    #[test]
    fn benchmark_json_names_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, ..)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_of(&v, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_of(&v, "per_layer"), layers);
        let workloads: Vec<String> = names_of(&v, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| w.0.to_string())
                .collect::<Vec<_>>()
        );
        for ((name, _, better, bound), m) in END_TO_END
            .iter()
            .zip(v.get("end_to_end").and_then(Value::as_arr).unwrap())
        {
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(*better),
                "{name}"
            );
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                Some(*bound),
                "{name}"
            );
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.0))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn exact_workloads_must_repeat_every_count() {
        let rep = Rep {
            app_bytes: 10,
            dgrams: 4,
            wire_bytes: 12,
            allocs: 3,
            alloc_bytes: 99,
            ..Rep::default()
        };
        assert!(check_exact(&[rep.clone(), rep.clone()]).is_ok());
        let drifted = Rep {
            allocs: 4,
            ..rep.clone()
        };
        let v = check_exact(&[rep.clone(), rep, drifted]).unwrap_err();
        assert_eq!(v.offset, 2);
    }
}
