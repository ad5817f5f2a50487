//! TCP receiver agent: reassembly plus immediate (optionally SACK-bearing)
//! acknowledgments.

use qtp_sack::{ReceiverBuffer, SeqRange};
use qtp_simnet::prelude::*;

use crate::wire::{header_wire_size, TcpHeader, TcpKind, IP_OVERHEAD, MAX_TCP_SACK_BLOCKS};

/// Receiver half of a simulated TCP connection.
pub struct TcpReceiver {
    /// Flow id of the incoming data stream (for goodput accounting).
    data_flow: FlowId,
    /// Flow id used by outgoing acknowledgments.
    ack_flow: FlowId,
    /// Node the sender lives on (destination for acks).
    sender_node: NodeId,
    /// Whether to include SACK blocks in acks.
    sack_enabled: bool,
    /// Payload bytes per data segment (for goodput accounting).
    mss: u32,
    buf: ReceiverBuffer,
}

impl TcpReceiver {
    pub fn new(
        data_flow: FlowId,
        ack_flow: FlowId,
        sender_node: NodeId,
        sack_enabled: bool,
        mss: u32,
    ) -> Self {
        TcpReceiver {
            data_flow,
            ack_flow,
            sender_node,
            sack_enabled,
            mss,
            buf: ReceiverBuffer::new(),
        }
    }

    /// Sequences delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.buf.delivered_total()
    }
}

impl Agent for TcpReceiver {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
        let Ok(h) = TcpHeader::decode(pkt.header) else {
            return; // corrupt header: drop silently
        };
        if h.kind != TcpKind::Data {
            return;
        }
        if let qtp_sack::Arrival::New { delivered } = self.buf.on_packet(h.seq) {
            if delivered > 0 {
                ctx.stats
                    .app_deliver(self.data_flow, delivered * self.mss as u64);
            }
        }
        // Ack immediately (no delayed acks: the configuration used by the
        // AF-study simulations this reproduces).
        let blocks: Vec<SeqRange> = if self.sack_enabled {
            self.buf.sack_blocks(MAX_TCP_SACK_BLOCKS)
        } else {
            Vec::new()
        };
        let ack = TcpHeader::ack(self.buf.cum_ack(), h.ts_nanos, blocks);
        let wire = header_wire_size(ack.sack_blocks.len()) + IP_OVERHEAD;
        ctx.send_new(self.ack_flow, self.sender_node, wire, &ack.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_simnet::sim::NetworkBuilder;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    /// Captures acks arriving back at the sender node.
    struct AckTrap {
        acks: Rc<RefCell<Vec<TcpHeader>>>,
        data_flow: FlowId,
        receiver_node: NodeId,
        script: Vec<(u64, u64)>, // (seq, ts) to send at start
    }

    impl Agent for AckTrap {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for &(seq, ts) in &self.script {
                let h = TcpHeader::data(seq, ts);
                ctx.send_new(self.data_flow, self.receiver_node, 1040, &h.encode());
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, pkt: &Packet<&[u8]>) {
            self.acks
                .borrow_mut()
                .push(TcpHeader::decode(pkt.header).unwrap());
        }
    }

    fn run_script(script: Vec<(u64, u64)>, sack: bool) -> Vec<TcpHeader> {
        let mut b = NetworkBuilder::new();
        let s = b.host();
        let r = b.host();
        b.duplex_link(
            s,
            r,
            LinkConfig::new(Rate::from_mbps(100), Duration::from_millis(1)),
        );
        let mut sim = b.build(1);
        let df = sim.register_flow();
        let af = sim.register_flow();
        let acks = Rc::new(RefCell::new(Vec::new()));
        sim.attach_agent(
            s,
            Box::new(AckTrap {
                acks: acks.clone(),
                data_flow: df,
                receiver_node: r,
                script,
            }),
        );
        sim.attach_agent(r, Box::new(TcpReceiver::new(df, af, s, sack, 1000)));
        sim.run_until(SimTime::from_secs(1));
        let out = acks.borrow().clone();
        out
    }

    #[test]
    fn acks_every_data_segment_cumulatively() {
        let acks = run_script(vec![(0, 10), (1, 20), (2, 30)], false);
        assert_eq!(acks.len(), 3);
        assert_eq!(acks[0].ack, 1);
        assert_eq!(acks[1].ack, 2);
        assert_eq!(acks[2].ack, 3);
        // Timestamps echoed from the triggering segment.
        assert_eq!(acks[0].ts_nanos, 10);
        assert_eq!(acks[2].ts_nanos, 30);
    }

    #[test]
    fn gap_produces_duplicate_acks_with_sack() {
        let acks = run_script(vec![(0, 1), (2, 2), (3, 3)], true);
        assert_eq!(acks.len(), 3);
        assert_eq!(acks[1].ack, 1, "cum ack stuck at the hole");
        assert_eq!(acks[1].sack_blocks, vec![SeqRange::new(2, 3)]);
        assert_eq!(acks[2].ack, 1);
        assert_eq!(acks[2].sack_blocks, vec![SeqRange::new(2, 4)]);
    }

    #[test]
    fn no_sack_blocks_when_disabled() {
        let acks = run_script(vec![(0, 1), (2, 2)], false);
        assert!(acks.iter().all(|a| a.sack_blocks.is_empty()));
    }
}
