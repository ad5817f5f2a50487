//! Pooled packet storage: a free-list slab that recycles header buffers.
//!
//! At 10^5 flows the simulator moves hundreds of millions of packets, and
//! the original representation — full [`Packet`] structs (with a heap
//! `Vec<u8>` header each) owned by whichever event/queue currently holds
//! them — made every hop a ~64-byte memmove and every send/drop a heap
//! round-trip. The arena fixes both: packets live in one dense slab for
//! their whole life, everything else (events, queues, links) passes around
//! a 4-byte [`PacketId`], and a released slot keeps its header `Vec`'s
//! allocation so the next packet through reuses it.
//!
//! # The header loan
//!
//! The simulator never takes ownership of an endpoint's header buffer.
//! [`Ctx::send_new`](crate::sim::Ctx::send_new) borrows the encoded bytes
//! and stages them in a per-callback byte buffer the simulator pools with
//! its command buffers; at injection [`PacketArena::insert`] copies them
//! into the slot's retained `header`. The endpoint keeps its buffer (the
//! `qtp-core` adapters give it straight back to the endpoint's outbox), so
//! once the pools have warmed a simulated packet's trip from encode to
//! delivery allocates nothing.
//!
//! # Lifetime rules
//!
//! A `PacketId` is live from [`PacketArena::alloc`] until exactly one
//! [`PacketArena::release`] — at delivery, drop (queue/loss), or routing
//! failure. The simulator is the only component that releases; queues and
//! links merely hold ids. Releasing recycles the slot: the id may be handed
//! out again by the very next `alloc`, so holding an id across a release is
//! a logic bug. Accessors check liveness (`debug_assert` on reads, hard
//! `assert` on double-release) so stale ids fail loudly instead of reading
//! another packet's fields.

use crate::packet::Packet;

/// Header capacity every new slot reserves, so a recycled slot never grows
/// for a header up to this size. The largest header endpoints send outside
/// stream mode is a QTP feedback with four SACK blocks, 99 bytes.
const SLOT_HEADER_FLOOR: usize = 128;

/// Handle to a packet slot in a [`PacketArena`]. Cheap to copy and store;
/// only meaningful to the arena that issued it, and only until released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(u32);

impl PacketId {
    /// The raw slot index (exposed for diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Construct from a raw index. Only for tests and benches that drive a
    /// queue standalone; an id made this way is not a valid arena handle.
    pub fn from_raw(index: u32) -> Self {
        PacketId(index)
    }
}

/// Free-list slab of [`Packet`]s. See the module docs for lifetime rules.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Packet>,
    /// Whether each slot currently holds a live packet.
    live: Vec<bool>,
    /// Released slot indices, reused LIFO (the hottest slot first, so the
    /// recycled header buffer is likely still in cache).
    free: Vec<u32>,
}

impl PacketArena {
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Number of live packets.
    pub fn live_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of slots ever created (live + pooled). The high-water mark of
    /// concurrent packets; a memory-footprint proxy.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store `pkt`, reusing a released slot (and its header allocation) when
    /// one is available. The header bytes are copied as by
    /// [`PacketArena::insert`].
    pub fn alloc(&mut self, mut pkt: Packet) -> PacketId {
        let header = std::mem::take(&mut pkt.header);
        self.insert(pkt, &header)
    }

    /// Store `pkt` with `header` copied into the slot's retained buffer;
    /// `pkt.header` itself is dropped, so pass an empty `Vec` (which owns no
    /// allocation). Once the pool has warmed to the peak number of live
    /// packets, this allocates nothing for headers up to
    /// `SLOT_HEADER_FLOOR` bytes.
    pub fn insert(&mut self, pkt: Packet, header: &[u8]) -> PacketId {
        debug_assert!(pkt.header.is_empty(), "header passed twice");
        let Some(i) = self.free.pop() else {
            let i = self.slots.len();
            assert!(i <= u32::MAX as usize, "packet arena overflow");
            let mut buf = Vec::with_capacity(header.len().max(SLOT_HEADER_FLOOR));
            buf.extend_from_slice(header);
            self.slots.push(Packet { header: buf, ..pkt });
            self.live.push(true);
            return PacketId(i as u32);
        };
        let slot = &mut self.slots[i as usize];
        let mut buf = std::mem::take(&mut slot.header);
        buf.clear();
        buf.extend_from_slice(header);
        *slot = Packet { header: buf, ..pkt };
        self.live[i as usize] = true;
        PacketId(i)
    }

    /// Read a live packet.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        debug_assert!(self.live[id.0 as usize], "read of released PacketId");
        &self.slots[id.0 as usize]
    }

    /// Mutate a live packet (markers re-color in place).
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        debug_assert!(self.live[id.0 as usize], "write to released PacketId");
        &mut self.slots[id.0 as usize]
    }

    /// Return a packet's slot to the pool. The id must not be used again.
    pub fn release(&mut self, id: PacketId) {
        let i = id.0 as usize;
        assert!(self.live[i], "double release of PacketId");
        self.live[i] = false;
        self.free.push(id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn pkt(uid: u64, header: Vec<u8>) -> Packet {
        Packet::new(uid, 0, 0, 1, 1000, SimTime::ZERO, header)
    }

    #[test]
    fn alloc_get_release_roundtrip() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(7, vec![1, 2, 3]));
        assert_eq!(a.get(id).uid, 7);
        assert_eq!(a.get(id).header, vec![1, 2, 3]);
        assert_eq!(a.live_count(), 1);
        a.release(id);
        assert_eq!(a.live_count(), 0);
        assert_eq!(a.capacity(), 1);
    }

    #[test]
    fn released_slot_is_reused_with_fresh_fields() {
        let mut a = PacketArena::new();
        let id1 = a.alloc(pkt(1, vec![0xAA; 32]));
        a.release(id1);
        // Same slot comes back; no stale bytes from the previous occupant.
        let id2 = a.alloc(pkt(2, vec![0xBB]));
        assert_eq!(id2.index(), id1.index(), "LIFO free list reuses the slot");
        assert_eq!(a.get(id2).uid, 2);
        assert_eq!(a.get(id2).header, vec![0xBB]);
        assert_eq!(a.capacity(), 1, "no new slot was created");
    }

    #[test]
    fn header_allocation_is_recycled() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1, vec![7; 64]));
        let buf = a.get(id).header.as_ptr();
        a.release(id);
        let id = a.insert(pkt(2, Vec::new()), &[9; 16]);
        // The recycled buffer survives (64 >= 16: reused in place).
        assert_eq!(a.get(id).header.as_ptr(), buf);
        assert!(a.get(id).header.capacity() >= 64);
        assert_eq!(a.get(id).header, vec![9; 16]);
    }

    #[test]
    fn a_new_slot_fits_any_header_up_to_the_floor() {
        let mut a = PacketArena::new();
        let id = a.insert(pkt(1, Vec::new()), &[1; 20]);
        let buf = a.get(id).header.as_ptr();
        a.release(id);
        let id = a.insert(pkt(2, Vec::new()), &[2; SLOT_HEADER_FLOOR]);
        assert_eq!(a.get(id).header.as_ptr(), buf, "the slot did not regrow");
        assert_eq!(a.get(id).header, vec![2; SLOT_HEADER_FLOOR]);
    }

    #[test]
    fn interleaved_alloc_release_keeps_ids_distinct() {
        let mut a = PacketArena::new();
        let ids: Vec<PacketId> = (0..100).map(|u| a.alloc(pkt(u, Vec::new()))).collect();
        for (u, &id) in ids.iter().enumerate() {
            assert_eq!(a.get(id).uid, u as u64);
        }
        // Release the evens; allocate 50 more; odds must be untouched.
        for &id in ids.iter().step_by(2) {
            a.release(id);
        }
        let new_ids: Vec<PacketId> = (100..150).map(|u| a.alloc(pkt(u, Vec::new()))).collect();
        assert_eq!(a.capacity(), 100, "new packets filled the freed slots");
        for (i, &id) in ids.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            assert_eq!(a.get(id).uid, i as u64, "live slot clobbered");
        }
        for (k, &id) in new_ids.iter().enumerate() {
            assert_eq!(a.get(id).uid, 100 + k as u64);
        }
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1, Vec::new()));
        a.release(id);
        a.release(id);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read of released PacketId")]
    fn stale_read_panics_in_debug() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1, Vec::new()));
        a.release(id);
        let _ = a.get(id);
    }
}
