//! Shared-handle instrumentation for endpoints.
//!
//! Agents are moved into the simulator, so experiments keep a cloned
//! [`Probe`] handle to read endpoint-internal measurements afterwards:
//! processing costs (the E5 receiver-load ledger), rate/loss-estimate
//! summaries, reliability outcomes. Single-threaded simulation makes
//! `Rc<RefCell<…>>` the right tool.

use std::cell::RefCell;
use std::rc::Rc;

/// Snapshot-style data shared between an endpoint and its experiment.
#[derive(Debug, Default, Clone)]
pub struct ProbeData {
    // ---- receiver-side ----
    /// Data packets processed by the receiver.
    pub rx_data_pkts: u64,
    /// Total per-packet processing operations at the receiver (all
    /// components: loss detection, history, reassembly, feedback building).
    pub rx_ops: u64,
    /// Peak bytes of protocol state held at the receiver.
    pub rx_state_bytes_peak: usize,
    /// Feedback packets sent by the receiver.
    pub rx_feedback_sent: u64,

    // ---- sender-side ----
    /// Total sender-side processing operations (CC + scoreboard + estimator).
    pub tx_ops: u64,
    /// Allowed rate after the latest feedback, bytes/s.
    pub last_rate: f64,
    /// Sum of the loss-event rates `p` the rate computation used, one per
    /// feedback (the full series is `TraceEventKind::RateUpdate`).
    pub p_sum: f64,
    /// Feedbacks contributing to `p_sum`.
    pub p_samples: u64,
    /// Data packets sent (including retransmissions).
    pub tx_data_pkts: u64,
    /// Retransmissions sent.
    pub tx_retransmissions: u64,
    /// Sequences abandoned by partial reliability.
    pub tx_abandoned: u64,
    /// Smoothed RTT estimate at the end of the run (seconds).
    pub rtt_estimate_s: f64,

    // ---- delivery (receiver app) ----
    /// Mean latency accumulator: sum of (deliver - ADU submit) seconds.
    pub latency_sum_s: f64,
    /// Packets contributing to `latency_sum_s`.
    pub latency_samples: u64,
}

impl ProbeData {
    /// Mean ADU-to-delivery latency, seconds.
    pub fn mean_latency_s(&self) -> f64 {
        if self.latency_samples == 0 {
            0.0
        } else {
            self.latency_sum_s / self.latency_samples as f64
        }
    }

    /// Receiver operations per data packet — the headline E5 number.
    pub fn rx_ops_per_packet(&self) -> f64 {
        if self.rx_data_pkts == 0 {
            0.0
        } else {
            self.rx_ops as f64 / self.rx_data_pkts as f64
        }
    }
}

/// Cloneable handle to shared probe data.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    inner: Rc<RefCell<ProbeData>>,
}

impl Probe {
    pub fn new() -> Self {
        Probe::default()
    }

    /// Mutate the shared data.
    pub fn update(&self, f: impl FnOnce(&mut ProbeData)) {
        f(&mut self.inner.borrow_mut());
    }

    /// Read a copy of the shared data.
    pub fn snapshot(&self) -> ProbeData {
        self.inner.borrow().clone()
    }

    /// Read one value.
    pub fn read<T>(&self, f: impl FnOnce(&ProbeData) -> T) -> T {
        f(&self.inner.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_handles_share_state() {
        let a = Probe::new();
        let b = a.clone();
        a.update(|d| d.rx_data_pkts = 7);
        assert_eq!(b.read(|d| d.rx_data_pkts), 7);
        b.update(|d| d.rx_ops += 3);
        assert_eq!(a.snapshot().rx_ops, 3);
    }

    #[test]
    fn derived_metrics() {
        let p = Probe::new();
        p.update(|d| {
            d.rx_data_pkts = 4;
            d.rx_ops = 40;
            d.latency_sum_s = 2.0;
            d.latency_samples = 4;
        });
        assert_eq!(p.read(|d| d.rx_ops_per_packet()), 10.0);
        assert_eq!(p.read(|d| d.mean_latency_s()), 0.5);
        let empty = Probe::new();
        assert_eq!(empty.read(|d| d.rx_ops_per_packet()), 0.0);
        assert_eq!(empty.read(|d| d.mean_latency_s()), 0.0);
    }
}
