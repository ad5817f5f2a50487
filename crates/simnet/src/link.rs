//! Simplex links: a queue, a serializer and a propagation pipe.
//!
//! A [`Link`] owns its egress queue, an optional per-flow marker bank (the
//! DiffServ traffic conditioner sits at the entry of an edge link) and a
//! loss model applied to packets in flight. Timing is orchestrated by the
//! simulator; the link only holds state.

use std::time::Duration;

use crate::arena::PacketId;
use crate::loss::LossModel;
use crate::marker::TokenBucketMarker;
use crate::packet::{FlowId, LinkId, NodeId};
use crate::path::PathModel;
use crate::queue::{AqmQueue, QueueConfig};
use crate::rng::DetRng;
use crate::time::Rate;

/// Per-flow traffic conditioners for one link, stored densely.
///
/// Flow ids are small integers, so a link's markers live in a `Vec` indexed
/// by `flow - base` instead of a `BTreeMap`: lookup on the forwarding hot
/// path is a bounds check and an `Option` load. `base` is the smallest
/// marked flow id, so the common shapes stay compact — most links have no
/// markers (empty vec), an access link conditions exactly its own flow
/// (one slot regardless of the flow id's magnitude), and a core link
/// conditioning every flow gets one dense table.
#[derive(Debug, Default)]
pub(crate) struct MarkerBank {
    base: FlowId,
    slots: Vec<Option<TokenBucketMarker>>,
}

impl MarkerBank {
    /// Install (or replace) the conditioner for `flow`.
    pub(crate) fn set(&mut self, flow: FlowId, marker: TokenBucketMarker) {
        if self.slots.is_empty() {
            self.base = flow;
        } else if flow < self.base {
            // Grow downward: shift existing slots up. Rare (setup only).
            let shift = (self.base - flow) as usize;
            let mut grown: Vec<Option<TokenBucketMarker>> =
                Vec::with_capacity(self.slots.len() + shift);
            grown.resize_with(shift, || None);
            grown.append(&mut self.slots);
            self.slots = grown;
            self.base = flow;
        }
        let i = (flow - self.base) as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(marker);
    }

    /// The conditioner for `flow`, if one is installed.
    #[inline]
    pub(crate) fn get_mut(&mut self, flow: FlowId) -> Option<&mut TokenBucketMarker> {
        let i = flow.checked_sub(self.base)? as usize;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Whether `flow` has a conditioner.
    pub(crate) fn contains(&self, flow: FlowId) -> bool {
        flow.checked_sub(self.base)
            .and_then(|i| self.slots.get(i as usize))
            .is_some_and(Option::is_some)
    }
}

/// Static description of a simplex link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Serialization rate.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Egress queue discipline.
    pub queue: QueueConfig,
    /// In-flight loss process.
    pub loss: LossModel,
    /// In-flight path impairments (reordering, duplication).
    pub path: PathModel,
}

impl LinkConfig {
    /// A sensible default: rate + delay with a 100-packet drop-tail queue
    /// and no transmission loss.
    pub fn new(rate: Rate, delay: Duration) -> Self {
        LinkConfig {
            rate,
            delay,
            queue: QueueConfig::DropTailPkts(100),
            loss: LossModel::None,
            path: PathModel::none(),
        }
    }

    /// Replace the queue discipline.
    pub fn with_queue(mut self, queue: QueueConfig) -> Self {
        self.queue = queue;
        self
    }

    /// Replace the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Replace the path impairment model.
    pub fn with_path(mut self, path: PathModel) -> Self {
        self.path = path;
        self
    }
}

/// Runtime state of a simplex link.
pub struct Link {
    /// Own id (index into the simulator's link table).
    pub id: LinkId,
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Serialization rate.
    pub rate: Rate,
    /// Propagation delay.
    pub delay: Duration,
    /// Egress queue.
    pub(crate) queue: AqmQueue,
    /// Loss process for packets in flight.
    pub(crate) loss: LossModel,
    /// Path impairment model for packets in flight.
    pub(crate) path: PathModel,
    /// Per-flow traffic conditioners applied at enqueue.
    pub(crate) markers: MarkerBank,
    /// Whether a packet is currently being serialized.
    pub(crate) transmitting: bool,
    /// The packet on the wire (being serialized), if any.
    pub(crate) in_flight: Option<PacketId>,
    /// Private randomness for AQM and loss decisions.
    pub(crate) rng: DetRng,
    /// Separate randomness for path impairments: an independent stream, so
    /// enabling a `PathModel` never perturbs the loss/AQM draws, and a
    /// no-op model makes no draws at all (the byte-identity contract).
    pub(crate) path_rng: DetRng,
}

impl Link {
    pub(crate) fn new(id: LinkId, from: NodeId, to: NodeId, cfg: &LinkConfig, seed: u64) -> Self {
        Link {
            id,
            from,
            to,
            rate: cfg.rate,
            delay: cfg.delay,
            queue: cfg.queue.build(),
            loss: cfg.loss.clone(),
            path: cfg.path.clone(),
            markers: MarkerBank::default(),
            transmitting: false,
            in_flight: None,
            rng: DetRng::stream(seed, 0x11AC ^ id as u64),
            path_rng: DetRng::stream(seed, 0x9A77 ^ id as u64),
        }
    }

    /// Attach a traffic conditioner for one flow at this link's ingress.
    pub fn set_marker(&mut self, flow: FlowId, marker: TokenBucketMarker) {
        self.markers.set(flow, marker);
    }

    /// Whether a conditioner is installed for `flow`.
    pub fn has_marker(&self, flow: FlowId) -> bool {
        self.markers.contains(flow)
    }

    /// Packets currently queued (excluding the one being serialized).
    pub fn queue_len(&self) -> usize {
        self.queue.len_pkts()
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("id", &self.id)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("rate", &self.rate)
            .field("delay", &self.delay)
            .field("queue_len", &self.queue.len_pkts())
            .field("transmitting", &self.transmitting)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5))
            .with_queue(QueueConfig::DropTailPkts(7))
            .with_loss(LossModel::bernoulli(0.1));
        let link = Link::new(0, 1, 2, &cfg, 42);
        assert_eq!(link.rate, Rate::from_mbps(10));
        assert_eq!(link.delay, Duration::from_millis(5));
        assert_eq!(link.queue_len(), 0);
        assert!(!link.transmitting);
    }

    #[test]
    fn marker_registration() {
        let cfg = LinkConfig::new(Rate::from_mbps(1), Duration::ZERO);
        let mut link = Link::new(0, 0, 1, &cfg, 1);
        link.set_marker(3, TokenBucketMarker::new(Rate::from_kbps(500), 3000));
        assert!(link.has_marker(3));
        assert!(!link.has_marker(4));
        assert!(!link.has_marker(2), "below-base lookups are misses");
    }

    #[test]
    fn marker_bank_grows_in_both_directions() {
        let cfg = LinkConfig::new(Rate::from_mbps(1), Duration::ZERO);
        let mut link = Link::new(0, 0, 1, &cfg, 1);
        let tb = || TokenBucketMarker::new(Rate::from_kbps(500), 3000);
        link.set_marker(100, tb());
        link.set_marker(3, tb()); // below base: shifts the table down
        link.set_marker(50, tb());
        for f in [3, 50, 100] {
            assert!(link.has_marker(f), "flow {f}");
            assert!(link.markers.get_mut(f).is_some(), "flow {f}");
        }
        for f in [0, 2, 4, 49, 51, 99, 101] {
            assert!(!link.has_marker(f), "flow {f}");
            assert!(link.markers.get_mut(f).is_none(), "flow {f}");
        }
    }
}
