//! `sim_manyflow`: the 3162-flow point of the `manyflow` scaling ladder on
//! the discrete-event simulator — what the claims ledger and most current
//! users run, and what the socket and pipe workloads bypass entirely.
//!
//! A "datagram" here is a simulated packet an endpoint sent (data, feedback,
//! handshake), counted by the endpoints' own tracer counters in one extra,
//! untimed run with a [`TraceRegistry`] attached; the counts are a pure
//! function of the seed, so they hold for every timed repetition.

use crate::run::{names::*, Ctx, Layer, Meter, Rep, Violation, Workload};
use qtp_bench::json::{self, Value};
use qtp_bench::manyflow::{run_sim_instrumented, run_sim_traced, ManyFlowConfig, ManyFlowReport};
use qtp_metrics::trace::TraceRegistry;
use qtp_simnet::prelude::{Dumbbell, DumbbellConfig, QueueConfig};
use std::time::Instant;

/// The committed simulator baseline the deterministic counters are held to.
const BASELINE_FILE: &str = "BENCH_simnet.json";

struct Expected {
    events: u64,
    delivered_bytes: u64,
    pool_high_water: u64,
}

pub struct SimWorkload {
    cfg: ManyFlowConfig,
    /// `(datagrams, wire bytes)` of one run at this seed.
    wire: Option<(u64, u64)>,
    expected: Option<Expected>,
}

impl SimWorkload {
    pub fn new(flows: usize, seed: u64) -> Self {
        let mut cfg = ManyFlowConfig::new(flows);
        cfg.seed = seed;
        SimWorkload {
            expected: expected_counters(flows, seed),
            cfg,
            wire: None,
        }
    }

    /// The topology `run_sim` builds, from the config's public fields (the
    /// per-flow access delays repeat over 16 evenly spaced steps).
    fn topology(&self) -> DumbbellConfig {
        let cfg = &self.cfg;
        let (lo, hi) = cfg.rtt_spread;
        let delays = (0..cfg.flows)
            .map(|i| lo + hi.saturating_sub(lo) * (i as u32 % 16) / 15)
            .collect();
        DumbbellConfig {
            pairs: cfg.flows,
            access_rate: cfg.access,
            access_delay: lo,
            access_delays: Some(delays),
            bottleneck_rate: cfg.bottleneck,
            bottleneck_delay: cfg.bottleneck_delay,
            bottleneck_queue: QueueConfig::DropTailPkts(cfg.flows.max(50)),
            reverse_queue: QueueConfig::DropTailPkts((2 * cfg.flows).max(1000)),
            bottleneck_path: cfg.bottleneck_path.clone(),
        }
    }

    /// Set-up on the simulator is the topology build; `run_sim` does its own
    /// inside the timed run, so this times one more and drops it.
    fn setup_s(&self) -> f64 {
        let t0 = Instant::now();
        let built = Dumbbell::build(&self.topology(), self.cfg.seed);
        let s = t0.elapsed().as_secs_f64();
        drop(built);
        s
    }

    fn delivered(report: &ManyFlowReport) -> u64 {
        report.outcomes.iter().map(|o| o.delivered_bytes).sum()
    }
}

/// The `flows`-flow point of `BENCH_simnet.json`, when the file is there and
/// was measured at this seed; otherwise the counters are only required to
/// repeat.
fn expected_counters(flows: usize, seed: u64) -> Option<Expected> {
    let v = json::parse(&std::fs::read_to_string(BASELINE_FILE).ok()?).ok()?;
    if v.get("seed")?.as_f64()? != seed as f64 {
        return None;
    }
    let point = v
        .get("points")?
        .as_arr()?
        .iter()
        .find(|p| p.get("flows").and_then(Value::as_f64) == Some(flows as f64))?;
    let field = |k: &str| point.get(k).and_then(Value::as_f64).map(|x| x as u64);
    Some(Expected {
        events: field("events")?,
        delivered_bytes: field("delivered_bytes")?,
        pool_high_water: field("packet_pool_high_water")?,
    })
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        "sim_manyflow"
    }

    fn exact(&self) -> bool {
        true
    }

    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Result<Rep, Violation> {
        let (dgrams, wire_bytes) = match self.wire {
            Some(w) => w,
            None => {
                let registry = TraceRegistry::new();
                run_sim_traced(&self.cfg, registry.clone());
                let w = registry
                    .connections()
                    .iter()
                    .fold((0, 0), |(d, b), (_, _, c)| (d + c.pkts_tx, b + c.bytes_tx));
                *self.wire.insert(w)
            }
        };
        let setup_s = self.setup_s();

        let meter = Meter::start();
        let rep_span = ctx.spans.enter(REP);
        let t = ctx.spans.enter(SIM_RUN);
        let (report, metrics) = run_sim_instrumented(&self.cfg);
        ctx.spans.exit(t);
        ctx.spans.exit(rep_span);
        let mut rep = Rep {
            setup_s,
            app_bytes: Self::delivered(&report),
            dgrams,
            wire_bytes,
            attempted: self.cfg.flows as u64,
            failed: (self.cfg.flows - report.completed) as u64,
            layer: Layer {
                events: metrics.events_processed,
                pool_hw: metrics.packet_pool_high_water as u64,
                ..Layer::default()
            },
            ..Rep::default()
        };
        meter.stop(&mut rep);
        // One simulation is one "message": the wait a user of the simulator sees.
        ctx.lat_us.push(rep.wall_s * 1e6);

        if let Some(e) = &self.expected {
            let got = (rep.layer.events, rep.app_bytes, rep.layer.pool_hw);
            let want = (e.events, e.delivered_bytes, e.pool_high_water);
            if got != want {
                return Err(Violation::new(
                    format!(
                        "simulator counters drifted from {BASELINE_FILE}: (events, delivered bytes, pool high-water) = {got:?}, committed {want:?}"
                    ),
                    0,
                ));
            }
        }
        Ok(rep)
    }
}
