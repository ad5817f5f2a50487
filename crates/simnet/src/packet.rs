//! The network-layer view of a packet.
//!
//! The simulator forwards packets between nodes without interpreting their
//! transport headers: `header` holds opaque bytes that the endpoint
//! that owns the flow encodes and decodes. The only fields the network reads
//! are addressing (`src`, `dst`, `flow`), the wire size (for serialization
//! delay and queue occupancy) and the DiffServ `color` (set by edge markers,
//! read by RIO queues).

use crate::time::SimTime;

/// Identifies a transport flow end-to-end. Assigned by the simulator when a
/// flow is registered; carried by every packet of that flow.
pub type FlowId = u32;

/// Index of a node in the simulated topology.
pub type NodeId = usize;

/// Index of a (simplex) link in the simulated topology.
pub type LinkId = usize;

/// DiffServ drop precedence, as assigned by an edge traffic conditioner.
///
/// The Assured Forwarding experiments use two levels: `Green` (in-profile,
/// protected) and `Red` (out-of-profile, dropped first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Color {
    /// In-profile traffic, committed rate. Lowest drop precedence.
    Green,
    /// Out-of-profile traffic. Highest drop precedence.
    Red,
}

impl Color {
    /// All colors, in increasing drop-precedence order.
    pub const ALL: [Color; 2] = [Color::Green, Color::Red];

    /// Stable small index for per-color counters.
    pub fn index(self) -> usize {
        match self {
            Color::Green => 0,
            Color::Red => 1,
        }
    }
}

/// A packet in flight through the simulated network.
///
/// `H` is how the transport header is held. A packet is built owning it
/// (`Vec<u8>`, the default); the [`PacketArena`](crate::arena::PacketArena)
/// keeps every header in one slab and lends a packet out with a borrowed
/// `&[u8]`, which is what agents receive.
#[derive(Debug, Clone, Copy)]
pub struct Packet<H = Vec<u8>> {
    /// Globally unique id, assigned at creation (a wire duplicate shares
    /// its original's).
    pub uid: u64,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node; the simulator routes hop-by-hop toward it.
    pub dst: NodeId,
    /// Total size on the wire in bytes (headers + payload). Determines
    /// serialization time.
    pub wire_size: u32,
    /// DiffServ drop precedence. Packets start `Green`; edge markers may
    /// re-color them.
    pub color: Color,
    /// Time the packet was handed to the network by its source.
    pub created_at: SimTime,
    /// Opaque transport header bytes. The network never reads these.
    ///
    /// Simulated application payload is *not* materialized: `wire_size`
    /// accounts for it, which keeps memory use independent of payload size.
    pub header: H,
}

impl Packet {
    /// Convenience constructor; `uid` must come from the simulator's
    /// allocator (the per-run counter behind [`crate::sim::Ctx::send_new`])
    /// for uniqueness, or can be 0 in unit tests that don't care.
    pub fn new(
        uid: u64,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        wire_size: u32,
        created_at: SimTime,
        header: Vec<u8>,
    ) -> Self {
        Packet {
            uid,
            flow,
            src,
            dst,
            wire_size,
            color: Color::Green,
            created_at,
            header,
        }
    }
}

impl<H> Packet<H> {
    /// The same packet with its header held as `header`.
    pub(crate) fn with_header<G>(&self, header: G) -> Packet<G> {
        Packet {
            uid: self.uid,
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            wire_size: self.wire_size,
            color: self.color,
            created_at: self.created_at,
            header,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_index_is_stable() {
        assert_eq!(Color::Green.index(), 0);
        assert_eq!(Color::Red.index(), 1);
        for (i, c) in Color::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn color_ordering_tracks_drop_precedence() {
        assert!(Color::Green < Color::Red);
    }

    #[test]
    fn new_packet_defaults_green() {
        let p = Packet::new(1, 2, 0, 1, 1500, SimTime::ZERO, vec![0xAB]);
        assert_eq!(p.color, Color::Green);
        assert_eq!(p.wire_size, 1500);
        assert_eq!(p.header, vec![0xAB]);
    }
}
