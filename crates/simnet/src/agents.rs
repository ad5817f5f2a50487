//! Generic traffic agents: a constant-bit-rate source and a counting sink,
//! for raw (transport-less) load on a simulated topology.

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

/// Counts everything it receives as application-delivered bytes. Attach to
/// the destination host of raw (transport-less) flows so goodput equals
/// arrival rate.
pub struct Sink;

impl Agent for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
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
        let flow = sim.register_flow();
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
        let flow = sim.register_flow();
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
}
