//! Measurement: per-flow and per-link counters, throughput time series and
//! the summary statistics the experiments report (mean throughput, delay,
//! Jain fairness index, coefficient of variation for smoothness).
//!
//! Counters are updated by the simulator as packets move; transports report
//! application-level (in-order) delivery explicitly via
//! [`Stats::app_deliver`], which is what goodput measurements use.

use std::time::Duration;

use crate::packet::{Color, FlowId, LinkId, Packet};
use crate::queue::DropReason;
use crate::time::SimTime;

/// Per-flow counters and series.
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// Packets handed to the network by the source.
    pub pkts_sent: u64,
    /// Bytes handed to the network by the source (wire bytes).
    pub bytes_sent: u64,
    /// Packets that reached their destination node.
    pub pkts_arrived: u64,
    /// Wire bytes that reached their destination node.
    pub bytes_arrived: u64,
    /// Packets dropped inside the network (queues + link loss).
    pub pkts_dropped: u64,
    /// Application-level bytes delivered in order (reported by transports).
    pub bytes_app_delivered: u64,
    /// Sum of one-way delays of arrived packets, for the mean.
    delay_sum_s: f64,
    /// Arrived-packet count backing the delay mean.
    delay_samples: u64,
    /// Network-level throughput series: wire bytes arrived per sample tick.
    pub arrive_series: Vec<u64>,
    /// Application-level goodput series: app bytes delivered per sample tick.
    pub goodput_series: Vec<u64>,
    bytes_arrived_at_last_sample: u64,
    app_bytes_at_last_sample: u64,
}

impl FlowStats {
    fn new() -> Self {
        FlowStats {
            pkts_sent: 0,
            bytes_sent: 0,
            pkts_arrived: 0,
            bytes_arrived: 0,
            pkts_dropped: 0,
            bytes_app_delivered: 0,
            delay_sum_s: 0.0,
            delay_samples: 0,
            arrive_series: Vec::new(),
            goodput_series: Vec::new(),
            bytes_arrived_at_last_sample: 0,
            app_bytes_at_last_sample: 0,
        }
    }

    /// Mean one-way network delay of arrived packets.
    pub fn mean_delay(&self) -> Option<Duration> {
        if self.delay_samples == 0 {
            None
        } else {
            Some(Duration::from_secs_f64(
                self.delay_sum_s / self.delay_samples as f64,
            ))
        }
    }

    /// Network-level loss rate experienced by this flow.
    pub fn loss_rate(&self) -> f64 {
        if self.pkts_sent == 0 {
            0.0
        } else {
            self.pkts_dropped as f64 / self.pkts_sent as f64
        }
    }

    /// Network throughput in bit/s over a window of `elapsed`.
    pub fn throughput_bps(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes_arrived as f64 * 8.0 / elapsed.as_secs_f64()
        }
    }

    /// Application goodput in bit/s over a window of `elapsed`.
    pub fn goodput_bps(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes_app_delivered as f64 * 8.0 / elapsed.as_secs_f64()
        }
    }

    /// Throughput series in bit/s given the sampling interval used.
    pub fn arrive_series_bps(&self, interval: Duration) -> Vec<f64> {
        self.arrive_series
            .iter()
            .map(|&b| b as f64 * 8.0 / interval.as_secs_f64())
            .collect()
    }
}

/// Per-link counters, indexed by drop reason and color.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub pkts_enqueued: u64,
    /// Wire bytes accepted into the queue.
    pub bytes_enqueued: u64,
    /// Packets transmitted onto the wire (left the queue).
    pub pkts_transmitted: u64,
    /// Drops by cause: indexed with [`drop_reason_index`].
    pub drops_by_reason: [u64; 4],
    /// Drops by DiffServ color at the moment of drop.
    pub drops_by_color: [u64; 2],
    /// Enqueued packets by color (for in/out-profile accounting).
    pub enqueued_by_color: [u64; 2],
}

/// Stable index for a [`DropReason`] in counter arrays.
pub fn drop_reason_index(r: DropReason) -> usize {
    match r {
        DropReason::QueueFull => 0,
        DropReason::EarlyDrop => 1,
        DropReason::ForcedDrop => 2,
        DropReason::LinkLoss => 3,
    }
}

impl LinkStats {
    /// All drops regardless of cause.
    pub fn total_drops(&self) -> u64 {
        self.drops_by_reason.iter().sum()
    }
}

/// The simulation-wide measurement sink.
#[derive(Debug)]
pub struct Stats {
    flows: Vec<FlowStats>,
    links: Vec<LinkStats>,
    /// Interval between series samples, if sampling is enabled.
    pub sample_interval: Option<Duration>,
}

impl Stats {
    pub(crate) fn new() -> Self {
        Stats {
            flows: Vec::new(),
            links: Vec::new(),
            sample_interval: None,
        }
    }

    pub(crate) fn register_flow(&mut self) -> FlowId {
        let id = self.flows.len() as FlowId;
        self.flows.push(FlowStats::new());
        id
    }

    pub(crate) fn register_link(&mut self) -> LinkId {
        self.links.push(LinkStats::default());
        self.links.len() - 1
    }

    /// Counters for one flow.
    pub fn flow(&self, id: FlowId) -> &FlowStats {
        &self.flows[id as usize]
    }

    /// Counters for one link.
    pub fn link(&self, id: LinkId) -> &LinkStats {
        &self.links[id]
    }

    /// All flows, in registration order.
    pub fn flows(&self) -> &[FlowStats] {
        &self.flows
    }

    /// Record a source handing a packet to the network.
    pub(crate) fn on_send<H>(&mut self, pkt: &Packet<H>) {
        let f = &mut self.flows[pkt.flow as usize];
        f.pkts_sent += 1;
        f.bytes_sent += pkt.wire_size as u64;
    }

    /// Record a packet reaching its destination node.
    pub(crate) fn on_arrive<H>(&mut self, now: SimTime, pkt: &Packet<H>) {
        let f = &mut self.flows[pkt.flow as usize];
        f.pkts_arrived += 1;
        f.bytes_arrived += pkt.wire_size as u64;
        f.delay_sum_s += now.saturating_since(pkt.created_at).as_secs_f64();
        f.delay_samples += 1;
    }

    /// Record a network drop (queue or link loss).
    pub(crate) fn on_drop<H>(&mut self, link: LinkId, pkt: &Packet<H>, reason: DropReason) {
        self.flows[pkt.flow as usize].pkts_dropped += 1;
        let l = &mut self.links[link];
        l.drops_by_reason[drop_reason_index(reason)] += 1;
        l.drops_by_color[pkt.color.index()] += 1;
    }

    pub(crate) fn on_enqueue(&mut self, link: LinkId, color: Color, wire_size: u32) {
        let l = &mut self.links[link];
        l.pkts_enqueued += 1;
        l.bytes_enqueued += wire_size as u64;
        l.enqueued_by_color[color.index()] += 1;
    }

    /// Count a routing failure against the flow (no link involved).
    /// Routing failures indicate a topology bug; loud in debug builds.
    pub(crate) fn on_no_route(&mut self, flow: FlowId) {
        debug_assert!(false, "packet had no route — topology is disconnected");
        self.flows[flow as usize].pkts_dropped += 1;
    }

    pub(crate) fn on_transmit(&mut self, link: LinkId) {
        self.links[link].pkts_transmitted += 1;
    }

    /// Transports call this when bytes are delivered to the application in
    /// order; it is the basis of goodput measurements.
    pub fn app_deliver(&mut self, flow: FlowId, bytes: u64) {
        self.flows[flow as usize].bytes_app_delivered += bytes;
    }

    /// Close the current sampling window on every flow.
    pub(crate) fn sample_tick(&mut self) {
        for f in &mut self.flows {
            f.arrive_series
                .push(f.bytes_arrived - f.bytes_arrived_at_last_sample);
            f.bytes_arrived_at_last_sample = f.bytes_arrived;
            f.goodput_series
                .push(f.bytes_app_delivered - f.app_bytes_at_last_sample);
            f.app_bytes_at_last_sample = f.bytes_app_delivered;
        }
    }

    /// Color breakdown of drops on a link: (green, red).
    pub fn link_drops_by_color(&self, link: LinkId) -> (u64, u64) {
        let d = &self.links[link].drops_by_color;
        (d[Color::Green.index()], d[Color::Red.index()])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Coefficient of variation (std/mean); the smoothness metric used in E7.
/// Returns 0 when the mean is 0.
pub fn cov(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        std_dev(xs) / m
    }
}

/// Jain's fairness index over per-flow allocations: 1 = perfectly fair,
/// 1/n = maximally unfair. Returns 1 for an empty slice.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: FlowId, size: u32, created: SimTime) -> Packet {
        Packet::new(0, flow, 0, 1, size, created, Vec::new())
    }

    fn stats_with_flow() -> Stats {
        let mut s = Stats::new();
        s.register_flow();
        s.register_link();
        s
    }

    #[test]
    fn send_arrive_counters() {
        let mut s = stats_with_flow();
        let p = pkt(0, 1000, SimTime::ZERO);
        s.on_send(&p);
        s.on_arrive(SimTime::from_millis(50), &p);
        let f = s.flow(0);
        assert_eq!(f.pkts_sent, 1);
        assert_eq!(f.bytes_sent, 1000);
        assert_eq!(f.bytes_arrived, 1000);
        assert_eq!(f.mean_delay(), Some(Duration::from_millis(50)));
    }

    #[test]
    fn throughput_over_window() {
        let mut s = stats_with_flow();
        for _ in 0..10 {
            let p = pkt(0, 1250, SimTime::ZERO);
            s.on_send(&p);
            s.on_arrive(SimTime::from_millis(1), &p);
        }
        // 12_500 bytes in 0.1 s = 1 Mbit/s.
        let bps = s.flow(0).throughput_bps(Duration::from_millis(100));
        assert!((bps - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn loss_rate_counts_drops() {
        let mut s = stats_with_flow();
        for i in 0..10 {
            let p = pkt(0, 100, SimTime::ZERO);
            s.on_send(&p);
            if i < 3 {
                s.on_drop(0, &p, DropReason::QueueFull);
            }
        }
        assert!((s.flow(0).loss_rate() - 0.3).abs() < 1e-12);
        assert_eq!(s.link(0).total_drops(), 3);
        assert_eq!(
            s.link(0).drops_by_reason[drop_reason_index(DropReason::QueueFull)],
            3
        );
    }

    #[test]
    fn sampling_windows_are_differences() {
        let mut s = stats_with_flow();
        let p = pkt(0, 500, SimTime::ZERO);
        s.on_send(&p);
        s.on_arrive(SimTime::from_millis(1), &p);
        s.sample_tick();
        s.sample_tick(); // nothing new arrived
        let p2 = pkt(0, 700, SimTime::ZERO);
        s.on_send(&p2);
        s.on_arrive(SimTime::from_millis(2), &p2);
        s.app_deliver(0, 700);
        s.sample_tick();
        let f = s.flow(0);
        assert_eq!(f.arrive_series, vec![500, 0, 700]);
        assert_eq!(f.goodput_series, vec![0, 0, 700]);
    }

    #[test]
    fn series_bps_conversion() {
        let mut s = stats_with_flow();
        let p = pkt(0, 1250, SimTime::ZERO);
        s.on_send(&p);
        s.on_arrive(SimTime::from_millis(1), &p);
        s.sample_tick();
        let series = s.flow(0).arrive_series_bps(Duration::from_millis(10));
        assert_eq!(series, vec![1_000_000.0]); // 1250 B / 10 ms = 1 Mbit/s
    }

    #[test]
    fn jain_fairness_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let unfair = jain_index(&[10.0, 0.0, 0.0]);
        assert!((unfair - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0, "degenerate all-zero case");
    }

    #[test]
    fn cov_of_constant_series_is_zero() {
        assert_eq!(cov(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(cov(&[]), 0.0);
        assert!(cov(&[1.0, 5.0, 1.0, 5.0]) > 0.5);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
    }
}
