//! Pooled packet storage: a free-list slab of packets beside one slab of
//! headers, and the FIFO the link queues thread through it.
//!
//! At 10^5 flows the simulator moves hundreds of millions of packets, and
//! the original representation — full [`Packet`] structs (with a heap
//! `Vec<u8>` header each) owned by whichever event/queue currently holds
//! them — made every hop a ~64-byte memmove and every send/drop a heap
//! round-trip. The arena fixes both: packets live in one dense slab for
//! their whole life, and everything else (events, queues, links) passes
//! around a 4-byte [`PacketId`].
//!
//! # One header slab
//!
//! Headers are not stored per slot. Every slot's header sits in one byte
//! slab at `slot × stride`, where the stride is the longest header the
//! arena has been given. A header longer than every earlier one re-lays
//! the slab out at the wider stride (in place, back to front). Headers come
//! in few sizes (a handshake, a data header, feedback with up to four SACK
//! blocks; in stream mode the data header carries its chunk, so it reaches
//! the chunk size at once), so that happens a handful of times per run: at
//! most five in any simulation of the stream-mode ledger group H. A new
//! slot grows the slab by one stride, so the slots and their headers
//! together cost a logarithmic number of allocations, whatever the pool's
//! high-water mark.
//!
//! # The header loan
//!
//! The simulator never takes ownership of an endpoint's header buffer.
//! [`Ctx::send_new`](crate::sim::Ctx::send_new) borrows the encoded bytes
//! and stages them in a per-callback byte buffer the simulator pools with
//! its command buffers; at injection the arena copies them into the slot's
//! place in the slab. The endpoint keeps its buffer (the `qtp-core`
//! adapters give it straight back to the endpoint's outbox), and
//! [`PacketArena::get`] lends the packet out with a `&[u8]` into the slab,
//! so once the pools have warmed a simulated packet's trip from encode to
//! delivery allocates nothing.
//!
//! # Queues own no storage
//!
//! A packet waits in at most one link queue at a time, so each slot carries
//! one `next` link and a queue is a `PacketFifo`: head, tail and length.
//! Enqueueing and dequeueing rewrite two links; no queue ever allocates.
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

use std::ops::Range;

use crate::packet::Packet;

/// Handle to a packet slot in a [`PacketArena`]. Cheap to copy and store;
/// only meaningful to the arena that issued it, and only until released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(u32);

impl PacketId {
    /// The raw slot index (exposed for diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// The end of a [`PacketFifo`].
const NIL: u32 = u32::MAX;

/// One pooled packet: its fields, its header's length (the bytes sit in
/// the arena's slab), and its link in the queue it waits in.
#[derive(Debug)]
struct Slot {
    pkt: Packet<()>,
    header_len: u32,
    next: u32,
    live: bool,
}

/// Free-list slab of [`Packet`]s. See the module docs for lifetime rules.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    /// Released slot indices, reused LIFO (the hottest slot first, so its
    /// header bytes are likely still in cache).
    free: Vec<u32>,
    /// Every slot's header, `stride` bytes apart.
    headers: Vec<u8>,
    /// The longest header stored so far.
    stride: usize,
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

    /// Store `pkt`, reusing a released slot when one is available. Its
    /// header bytes are copied into the slab; `pkt.header` itself is
    /// dropped.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.insert(pkt.with_header(()), &pkt.header)
    }

    /// Store `pkt` with `header` copied into its slot's place in the slab.
    /// Once the pool has warmed to the peak number of live packets and the
    /// longest header has been seen, this allocates nothing.
    pub(crate) fn insert(&mut self, pkt: Packet<()>, header: &[u8]) -> PacketId {
        self.widen(header.len());
        let id = self.place(pkt, header.len());
        let at = self.span(id);
        self.headers[at].copy_from_slice(header);
        id
    }

    /// A second live copy of `id`, header included (a wire duplicate).
    pub(crate) fn duplicate(&mut self, id: PacketId) -> PacketId {
        let slot = &self.slots[id.0 as usize];
        debug_assert!(slot.live, "duplicate of released PacketId");
        let pkt = slot.pkt;
        let from = self.span(id);
        let copy = self.place(pkt, from.len());
        let to = self.span(copy).start;
        self.headers.copy_within(from, to);
        copy
    }

    /// Make the stride fit a header of `len` bytes, moving every slot's
    /// header to its place at the new stride. Back to front, so no header
    /// is overwritten before it has moved.
    fn widen(&mut self, len: usize) {
        if len <= self.stride {
            return;
        }
        let old = self.stride;
        self.headers.resize(self.slots.len() * len, 0);
        for (i, slot) in self.slots.iter().enumerate().rev() {
            let n = slot.header_len as usize;
            self.headers.copy_within(i * old..i * old + n, i * len);
        }
        self.stride = len;
    }

    /// A slot for `pkt`, whose header is `len` bytes (at most the stride).
    fn place(&mut self, pkt: Packet<()>, len: usize) -> PacketId {
        let slot = Slot {
            pkt,
            header_len: len as u32,
            next: NIL,
            live: true,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                PacketId(i)
            }
            None => {
                let i = self.slots.len();
                assert!(i < NIL as usize, "packet arena overflow");
                self.slots.push(slot);
                self.headers.resize((i + 1) * self.stride, 0);
                PacketId(i as u32)
            }
        }
    }

    /// Where `id`'s header sits in the slab.
    fn span(&self, id: PacketId) -> Range<usize> {
        let at = id.0 as usize * self.stride;
        at..at + self.slots[id.0 as usize].header_len as usize
    }

    /// Read a live packet, its header borrowed from the slab.
    #[inline]
    pub fn get(&self, id: PacketId) -> Packet<&[u8]> {
        let slot = &self.slots[id.0 as usize];
        debug_assert!(slot.live, "read of released PacketId");
        slot.pkt.with_header(&self.headers[self.span(id)])
    }

    /// Mutate a live packet's fields (markers re-color in place).
    #[inline]
    pub(crate) fn get_mut(&mut self, id: PacketId) -> &mut Packet<()> {
        let slot = &mut self.slots[id.0 as usize];
        debug_assert!(slot.live, "write to released PacketId");
        &mut slot.pkt
    }

    /// Return a packet's slot to the pool. The id must not be used again.
    pub fn release(&mut self, id: PacketId) {
        let slot = &mut self.slots[id.0 as usize];
        assert!(slot.live, "double release of PacketId");
        slot.live = false;
        self.free.push(id.0);
    }
}

/// A FIFO of packets threaded through their arena slots' `next` links. It
/// owns no storage: pushing and popping rewrite links in the arena that
/// holds the packets, which every call must pass.
#[derive(Debug)]
pub(crate) struct PacketFifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl PacketFifo {
    pub(crate) const fn new() -> Self {
        PacketFifo {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Packets queued.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Append a live packet that waits in no other queue.
    pub(crate) fn push(&mut self, arena: &mut PacketArena, id: PacketId) {
        debug_assert!(
            arena.slots[id.0 as usize].live,
            "queued a released PacketId"
        );
        arena.slots[id.0 as usize].next = NIL;
        match self.tail {
            NIL => self.head = id.0,
            tail => arena.slots[tail as usize].next = id.0,
        }
        self.tail = id.0;
        self.len += 1;
    }

    /// Remove the oldest packet.
    pub(crate) fn pop(&mut self, arena: &mut PacketArena) -> Option<PacketId> {
        if self.head == NIL {
            return None;
        }
        let id = self.head;
        self.head = std::mem::replace(&mut arena.slots[id as usize].next, NIL);
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        Some(PacketId(id))
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
        assert_eq!(a.get(id).header, [1, 2, 3]);
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
        assert_eq!(a.get(id2).header, [0xBB]);
        assert_eq!(a.capacity(), 1, "no new slot was created");
    }

    #[test]
    fn a_longer_header_relays_the_slab_and_keeps_every_header() {
        let mut a = PacketArena::new();
        let ids: Vec<PacketId> = (0..5u8)
            .map(|k| a.alloc(pkt(k.into(), vec![k; 1 + k as usize])))
            .collect();
        let long = a.alloc(pkt(9, vec![0xEE; 200]));
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(
                a.get(id).header,
                vec![k as u8; 1 + k],
                "slot {k} moved intact"
            );
        }
        assert_eq!(a.get(long).header, [0xEE; 200]);
    }

    #[test]
    fn header_allocation_is_recycled() {
        let mut a = PacketArena::new();
        let warm: Vec<PacketId> = (0..64).map(|u| a.alloc(pkt(u, vec![1; 99]))).collect();
        warm.into_iter().for_each(|id| a.release(id));
        let before = crate::counting_alloc::Counts::now();
        for u in 0..1000 {
            let id = a.insert(pkt(u, Vec::new()).with_header(()), &[2; 67]);
            let copy = a.duplicate(id);
            assert_eq!(a.get(copy).header, [2; 67]);
            a.release(id);
            a.release(copy);
        }
        let counts = crate::counting_alloc::Counts::now().since(before);
        assert_eq!(counts.allocs, 0, "{counts}");
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
    fn fifos_thread_through_the_slots_in_order() {
        let mut a = PacketArena::new();
        let (mut q1, mut q2) = (PacketFifo::new(), PacketFifo::new());
        for u in 0..10 {
            let id = a.alloc(pkt(u, Vec::new()));
            if u % 2 == 0 {
                q1.push(&mut a, id);
            } else {
                q2.push(&mut a, id);
            }
        }
        assert_eq!((q1.len(), q2.len()), (5, 5));
        let drain = |q: &mut PacketFifo, a: &mut PacketArena| {
            let mut uids = Vec::new();
            while let Some(id) = q.pop(a) {
                uids.push(a.get(id).uid);
            }
            uids
        };
        assert_eq!(drain(&mut q1, &mut a), [0, 2, 4, 6, 8]);
        // A drained queue takes packets again from empty.
        let id = a.alloc(pkt(10, Vec::new()));
        q1.push(&mut a, id);
        assert_eq!(drain(&mut q2, &mut a), [1, 3, 5, 7, 9]);
        assert_eq!(drain(&mut q1, &mut a), [10]);
        assert_eq!((q1.len(), q2.len()), (0, 0));
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
