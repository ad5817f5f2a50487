//! Generic traffic agents: constant-bit-rate, Poisson and on/off sources,
//! plus a counting sink. These provide the background load in the DiffServ
//! experiments and the raw-UDP comparison points.

use std::time::Duration;

use crate::packet::{FlowId, NodeId, Packet};
use crate::sim::{Agent, Ctx};
use crate::time::{Rate, SimTime};

/// Constant-bit-rate source: a packet of `pkt_size` every
/// `pkt_size * 8 / rate` seconds between `start` and `stop`.
pub struct CbrSource {
    flow: FlowId,
    dst: NodeId,
    pkt_size: u32,
    interval: Duration,
    start: SimTime,
    stop: SimTime,
}

impl CbrSource {
    pub fn new(flow: FlowId, dst: NodeId, pkt_size: u32, rate: Rate) -> Self {
        CbrSource {
            flow,
            dst,
            pkt_size,
            interval: rate.tx_time(pkt_size),
            start: SimTime::ZERO,
            stop: SimTime::MAX,
        }
    }

    /// Restrict the active period.
    pub fn active(mut self, start: SimTime, stop: SimTime) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }
}

impl Agent for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer_at(self.start, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if ctx.now >= self.stop {
            return;
        }
        ctx.send_new(self.flow, self.dst, self.pkt_size, &[]);
        ctx.set_timer_in(self.interval, 0);
    }
}

/// Poisson source: exponential inter-packet gaps with the given mean rate.
pub struct PoissonSource {
    flow: FlowId,
    dst: NodeId,
    pkt_size: u32,
    mean_interval_s: f64,
    stop: SimTime,
}

impl PoissonSource {
    pub fn new(flow: FlowId, dst: NodeId, pkt_size: u32, rate: Rate) -> Self {
        PoissonSource {
            flow,
            dst,
            pkt_size,
            mean_interval_s: pkt_size as f64 * 8.0 / rate.bps() as f64,
            stop: SimTime::MAX,
        }
    }

    /// Stop sending after `stop`.
    pub fn until(mut self, stop: SimTime) -> Self {
        self.stop = stop;
        self
    }
}

impl Agent for PoissonSource {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let gap = ctx.rng.exponential(self.mean_interval_s);
        ctx.set_timer_in(Duration::from_secs_f64(gap), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if ctx.now >= self.stop {
            return;
        }
        ctx.send_new(self.flow, self.dst, self.pkt_size, &[]);
        let gap = ctx.rng.exponential(self.mean_interval_s);
        ctx.set_timer_in(Duration::from_secs_f64(gap), 0);
    }
}

/// Exponential on/off source: CBR while "on", silent while "off", with
/// exponentially distributed period lengths — the classic bursty background
/// workload of DiffServ studies.
pub struct OnOffSource {
    flow: FlowId,
    dst: NodeId,
    pkt_size: u32,
    interval: Duration,
    mean_on_s: f64,
    mean_off_s: f64,
    on: bool,
    /// When the current on-period ends (only meaningful while `on`).
    period_end: SimTime,
}

/// Timer tokens used by [`OnOffSource`].
const TOKEN_SEND: u64 = 0;
const TOKEN_TOGGLE: u64 = 1;

impl OnOffSource {
    pub fn new(
        flow: FlowId,
        dst: NodeId,
        pkt_size: u32,
        on_rate: Rate,
        mean_on: Duration,
        mean_off: Duration,
    ) -> Self {
        OnOffSource {
            flow,
            dst,
            pkt_size,
            interval: on_rate.tx_time(pkt_size),
            mean_on_s: mean_on.as_secs_f64(),
            mean_off_s: mean_off.as_secs_f64(),
            on: false,
            period_end: SimTime::ZERO,
        }
    }
}

impl Agent for OnOffSource {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // Begin with an off-period so sources desynchronize naturally.
        let off = ctx.rng.exponential(self.mean_off_s);
        ctx.set_timer_in(Duration::from_secs_f64(off), TOKEN_TOGGLE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            TOKEN_TOGGLE => {
                self.on = !self.on;
                if self.on {
                    let on_len = ctx.rng.exponential(self.mean_on_s);
                    self.period_end = ctx.now + Duration::from_secs_f64(on_len);
                    ctx.set_timer_at(self.period_end, TOKEN_TOGGLE);
                    ctx.set_timer_in(Duration::ZERO, TOKEN_SEND);
                } else {
                    let off_len = ctx.rng.exponential(self.mean_off_s);
                    ctx.set_timer_in(Duration::from_secs_f64(off_len), TOKEN_TOGGLE);
                }
            }
            TOKEN_SEND => {
                if self.on && ctx.now < self.period_end {
                    ctx.send_new(self.flow, self.dst, self.pkt_size, &[]);
                    ctx.set_timer_in(self.interval, TOKEN_SEND);
                }
            }
            _ => unreachable!("unknown token"),
        }
    }
}

/// Counts everything it receives as application-delivered bytes. Attach to
/// the destination host of raw (transport-less) flows so goodput equals
/// arrival rate.
pub struct Sink;

impl Agent for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet) {
        ctx.stats.app_deliver(pkt.flow, pkt.wire_size as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::NetworkBuilder;

    fn harness() -> (crate::sim::Simulator, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let a = b.host();
        let c = b.host();
        b.duplex_link(
            a,
            c,
            LinkConfig::new(Rate::from_mbps(100), Duration::from_millis(1)),
        );
        (b.build(5), a, c)
    }

    #[test]
    fn cbr_hits_configured_rate() {
        let (mut sim, a, c) = harness();
        let flow = sim.register_flow("cbr");
        sim.attach_agent(
            a,
            Box::new(CbrSource::new(flow, c, 1250, Rate::from_mbps(2))),
        );
        sim.attach_agent(c, Box::new(Sink));
        sim.run_until(SimTime::from_secs(10));
        let bps = sim
            .stats()
            .flow(flow)
            .throughput_bps(Duration::from_secs(10));
        assert!((bps - 2_000_000.0).abs() < 20_000.0, "bps={bps}");
        // Sink delivered everything.
        assert_eq!(
            sim.stats().flow(flow).bytes_app_delivered,
            sim.stats().flow(flow).bytes_arrived
        );
    }

    #[test]
    fn cbr_respects_active_window() {
        let (mut sim, a, c) = harness();
        let flow = sim.register_flow("cbr");
        sim.attach_agent(
            a,
            Box::new(
                CbrSource::new(flow, c, 1250, Rate::from_mbps(2))
                    .active(SimTime::from_secs(2), SimTime::from_secs(4)),
            ),
        );
        sim.run_until(SimTime::from_secs(10));
        let sent = sim.stats().flow(flow).bytes_sent;
        // 2 s at 2 Mbit/s = 500 kB.
        assert!((sent as f64 - 500_000.0).abs() < 10_000.0, "sent={sent}");
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let (mut sim, a, c) = harness();
        let flow = sim.register_flow("poisson");
        sim.attach_agent(
            a,
            Box::new(PoissonSource::new(flow, c, 1250, Rate::from_mbps(2))),
        );
        sim.run_until(SimTime::from_secs(60));
        let bps = sim.stats().flow(flow).bytes_sent as f64 * 8.0 / 60.0;
        assert!(
            (bps - 2_000_000.0).abs() < 100_000.0,
            "mean offered rate {bps}"
        );
    }

    #[test]
    fn onoff_duty_cycle_halves_mean_rate() {
        let (mut sim, a, c) = harness();
        let flow = sim.register_flow("onoff");
        sim.attach_agent(
            a,
            Box::new(OnOffSource::new(
                flow,
                c,
                1250,
                Rate::from_mbps(4),
                Duration::from_millis(500),
                Duration::from_millis(500),
            )),
        );
        sim.run_until(SimTime::from_secs(120));
        let bps = sim.stats().flow(flow).bytes_sent as f64 * 8.0 / 120.0;
        // 50% duty cycle of 4 Mbit/s ~ 2 Mbit/s; generous tolerance since
        // period lengths are exponential.
        assert!(
            (bps - 2_000_000.0).abs() < 400_000.0,
            "mean offered rate {bps}"
        );
    }
}
