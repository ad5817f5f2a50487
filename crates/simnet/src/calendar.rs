//! The event scheduler: a calendar queue with a near-window heap.
//!
//! The simulator's original scheduler was a global `BinaryHeap` keyed by
//! `(time, seq)`. That is O(log n) per operation with n = every pending
//! event in the simulation — at 10^5 flows the heap holds hundreds of
//! thousands of events and every push/pop walks a cold, pointer-hopping
//! tree of large entries. A calendar queue (Brown 1988) exploits what a
//! discrete-event simulation guarantees: pops are monotone in time, and
//! most events are scheduled a short, bounded distance into the future.
//! Events hash into time-indexed buckets ("days"); popping scans the
//! current day and only consults other buckets when the day is empty.
//! Amortized O(1) per operation when event times are reasonably spread.
//!
//! # Determinism
//!
//! Pop order is **exactly** ascending `(time, seq)` — byte-identical to
//! the `BinaryHeap<Reverse<Event>>` it replaces. Two mechanisms make the
//! burst case (many events at the same instant, e.g. 10^5 flow start
//! timers at t=0) both correct and fast:
//!
//! * Events due inside the *current* day are not left in their bucket but
//!   moved into a small `BinaryHeap` (`near`), so same-tick bursts cost
//!   O(log k) per event instead of O(k) bucket rescans.
//! * An event pushed *behind* the current day (time earlier than the
//!   day's start) goes straight into `near`, so it can never be missed by
//!   the forward bucket scan. The simulator never does this (time is
//!   monotone), but the structure stays correct for arbitrary inputs —
//!   the drop-in proptest against a model heap exercises exactly this.
//!
//! Bucket count and width adapt to the number of queued events: the
//! calendar resizes (O(n), amortized) when the load factor leaves
//! [1/8, 4], aiming the bucket width at the mean event spacing so a day
//! holds O(1) events. A full fruitless sweep of the calendar (all events
//! far in the future) falls back to a direct O(n) minimum scan and jumps
//! the day straight to it, so sparse tails don't cost a bucket-by-bucket
//! crawl.
//!
//! # One node slab
//!
//! Buckets are not vectors of their own. Every bucketed entry lives in one
//! node `Vec`; a bucket is the index of its first node, and each node
//! holds the index of the next one in its bucket. Popped nodes go on a
//! free list and are reused by the next push, and a resize relinks the
//! live nodes into the new bucket heads in place. At a steady event count
//! push and pop therefore allocate nothing, however many buckets there
//! are; a vector per bucket would grow each of tens of thousands of
//! buckets on its own and keep every buffer it ever grew. Order inside a
//! bucket is irrelevant: a day's due entries pass through `near`, which
//! orders them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled entry: priority `(at, seq)` plus the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// End of a bucket list or of the free list. Never a valid node index.
const NIL: u32 = u32::MAX;

/// A slot of the node slab. A linked node holds an entry and the index of
/// the next node in its bucket; a vacant one holds `None` and the index of
/// the next vacant node.
#[derive(Debug)]
struct Node<T> {
    entry: Option<Entry<T>>,
    next: u32,
}

/// Calendar-queue event scheduler. See the module docs for the design.
///
/// Priorities are `(at, seq)` pairs popped in ascending order; `seq` is
/// supplied by the caller and must be unique (the simulator uses its
/// event counter), which makes the pop order a total order — there are
/// no ambiguous ties for the bucket layout to leak through.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// First node of each bucket; an entry is bucketed by
    /// `(at / width) % nbuckets`.
    heads: Vec<u32>,
    /// Every bucketed entry, plus vacant nodes awaiting reuse.
    nodes: Vec<Node<T>>,
    /// First vacant node.
    free: u32,
    /// Power-of-two bucket count, minus one.
    mask: usize,
    /// Day width in time units (≥ 1).
    width: u64,
    /// Index of the current day's bucket.
    cur: usize,
    /// Exclusive upper bound of the current day: events with
    /// `at < day_end` are due in this day. u128 so the last day before
    /// `u64::MAX` needs no special casing.
    day_end: u128,
    /// Events due in the current day (or pushed behind it), popped in
    /// exact `(at, seq)` order.
    near: BinaryHeap<Reverse<Entry<T>>>,
    /// Total queued events (buckets + near).
    len: usize,
}

const MIN_BUCKETS: usize = 8;

impl<T> CalendarQueue<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        CalendarQueue {
            heads: vec![NIL; MIN_BUCKETS],
            nodes: Vec::new(),
            free: NIL,
            mask: MIN_BUCKETS - 1,
            width: 1,
            cur: 0,
            day_end: 1,
            near: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` at priority `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        let e = Entry { at, seq, item };
        self.len += 1;
        if (at as u128) < self.day_end {
            // Due today (or pushed behind the current day): the forward
            // bucket scan must not be able to miss it.
            self.near.push(Reverse(e));
        } else {
            let node = Node {
                entry: Some(e),
                next: NIL,
            };
            let i = match self.free {
                NIL => {
                    debug_assert!(self.nodes.len() < NIL as usize, "node slab overflow");
                    self.nodes.push(node);
                    (self.nodes.len() - 1) as u32
                }
                i => {
                    self.free = self.nodes[i as usize].next;
                    self.nodes[i as usize] = node;
                    i
                }
            };
            self.link(i, at);
        }
        if self.len > 4 * self.heads.len() {
            self.resize();
        }
    }

    /// Remove and return the minimum-priority event.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.near.is_empty() {
            self.advance_to_next_event();
        }
        let Reverse(e) = self.near.pop().expect("advance found an event");
        self.len -= 1;
        if self.len < self.heads.len() / 8 && self.heads.len() > MIN_BUCKETS {
            self.resize();
        }
        Some((e.at, e.seq, e.item))
    }

    /// The bucket an event at `at` belongs to.
    fn bucket(&self, at: u64) -> usize {
        ((at / self.width) as usize) & self.mask
    }

    /// Put node `i`, holding an entry at `at`, at the head of its bucket.
    fn link(&mut self, i: u32, at: u64) {
        let b = self.bucket(at);
        self.nodes[i as usize].next = self.heads[b];
        self.heads[b] = i;
    }

    /// Move node `i`'s entry into `near` and put the node on the free list.
    /// The caller has already unlinked it from its bucket.
    fn vacate_to_near(&mut self, i: u32) {
        let node = &mut self.nodes[i as usize];
        node.next = self.free;
        self.free = i;
        if let Some(e) = node.entry.take() {
            self.near.push(Reverse(e));
        }
    }

    /// Move every entry of bucket `b` due before `day_end` into `near`.
    fn drain_due(&mut self, b: usize) {
        let day_end = self.day_end;
        let mut prev = NIL;
        let mut i = self.heads[b];
        while i != NIL {
            let node = &self.nodes[i as usize];
            let next = node.next;
            if node
                .entry
                .as_ref()
                .is_some_and(|e| (e.at as u128) < day_end)
            {
                match prev {
                    NIL => self.heads[b] = next,
                    p => self.nodes[p as usize].next = next,
                }
                self.vacate_to_near(i);
            } else {
                prev = i;
            }
            i = next;
        }
    }

    /// Walk days forward until at least one due event lands in `near`.
    /// Caller guarantees the queue is non-empty and `near` is empty.
    fn advance_to_next_event(&mut self) {
        for _ in 0..=self.heads.len() {
            // Move everything due in the current day into the near heap.
            self.drain_due(self.cur);
            if !self.near.is_empty() {
                return;
            }
            self.cur = (self.cur + 1) & self.mask;
            self.day_end += self.width as u128;
        }
        // A whole year of empty days: every event is far away. Find the
        // earliest one directly and jump the calendar to its day.
        let at = self
            .nodes
            .iter()
            .filter_map(|n| n.entry.as_ref().map(|e| e.at))
            .min()
            .expect("queue is non-empty");
        self.cur = self.bucket(at);
        self.day_end = (at as u128 / self.width as u128 + 1) * self.width as u128;
        self.drain_due(self.cur);
    }

    /// Rebuild the calendar for the current event count: bucket count
    /// tracks `len` and the day width tracks the mean spacing of queued
    /// events, so a day holds O(1) events. Nodes stay where they are in the
    /// slab and are relinked into the new buckets.
    fn resize(&mut self) {
        let target = (self.len.max(1)).next_power_of_two().max(MIN_BUCKETS);
        let floor = self.day_end.saturating_sub(self.width as u128) as u64;
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        let bucketed = self.nodes.iter().filter_map(|n| n.entry.as_ref());
        for e in bucketed.chain(self.near.iter().map(|Reverse(e)| e)) {
            lo = lo.min(e.at);
            hi = hi.max(e.at);
        }
        let span = hi.saturating_sub(lo.min(floor));
        // Mean spacing, clamped: a zero span (everything same-tick) gets
        // width 1; a huge span (one far-future tail event) is capped so
        // the common near-term events still spread across buckets.
        self.width = (span / self.len.max(1) as u64).clamp(1, u64::MAX / (4 * target as u64));
        self.mask = target - 1;
        self.heads.clear();
        self.heads.resize(target, NIL);
        // Anchor the new calendar at the first new-width day boundary at or
        // after the old `day_end`. `day_end` must never move backwards: the
        // near heap holds everything earlier than the old `day_end`, and
        // pop trusts that every bucketed event is later than every near
        // event. (A shrinking width would otherwise pull `day_end` back and
        // strand in-between events in buckets behind the near heap.)
        let w = self.width as u128;
        self.day_end = self.day_end.div_ceil(w) * w;
        self.cur = ((self.day_end / w - 1) % (target as u128)) as usize;
        // Every occupied node was in exactly one old bucket; vacant nodes
        // keep their free-list links.
        for i in 0..self.nodes.len() as u32 {
            match self.nodes[i as usize].entry.as_ref().map(|e| e.at) {
                None => {}
                Some(at) if (at as u128) < self.day_end => self.vacate_to_near(i),
                Some(at) => self.link(i, at),
            }
        }
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::counting_alloc::{sample, top_sites, Counts};

    /// Drain fully; returns (at, seq) in pop order.
    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(50, 1, 0);
        q.push(10, 2, 0);
        q.push(10, 3, 0);
        q.push(0, 4, 0);
        q.push(50, 5, 0);
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            vec![(0, 4), (10, 2), (10, 3), (50, 1), (50, 5)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_burst_preserves_insertion_order() {
        let mut q = CalendarQueue::new();
        for seq in 0..10_000u64 {
            q.push(42, seq, 0);
        }
        let order = drain(&mut q);
        assert!(order
            .iter()
            .enumerate()
            .all(|(i, &(at, seq))| at == 42 && seq == i as u64));
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        // Monotone-ish workload with re-pushes relative to the popped time,
        // like timers re-arming off `now`.
        q.push(0, seq, 0);
        seq += 1;
        while let Some((at, s, _)) = q.pop() {
            popped.push((at, s));
            if seq < 2000 {
                q.push(at + (seq % 7) * 3, seq, 0);
                seq += 1;
                q.push(at + 1000 + seq % 13, seq, 0);
                seq += 1;
            }
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), 2001); // 1 seed + 2 re-pushes per pop while seq < 2000
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q = CalendarQueue::new();
        // Trigger resizes with a dense cluster, then leave only sparse
        // far-future events, exercising the direct-scan jump.
        for seq in 0..200u64 {
            q.push(seq, seq, 0);
        }
        q.push(1_000_000_000_000, 200, 0);
        q.push(30_000_000_000_000, 201, 0);
        q.push(u64::MAX, 202, 0);
        let order = drain(&mut q);
        assert_eq!(order.len(), 203);
        assert_eq!(order[200], (1_000_000_000_000, 200));
        assert_eq!(order[201], (30_000_000_000_000, 201));
        assert_eq!(order[202], (u64::MAX, 202));
    }

    #[test]
    fn push_behind_current_day_is_not_lost() {
        let mut q = CalendarQueue::new();
        q.push(1_000_000, 0, 0);
        assert_eq!(q.pop().map(|(at, ..)| at), Some(1_000_000));
        // The day has advanced to ~1ms; push an "earlier" event.
        q.push(3, 1, 7);
        q.push(2_000_000, 2, 8);
        assert_eq!(q.pop(), Some((3, 1, 7)));
        assert_eq!(q.pop().map(|(at, ..)| at), Some(2_000_000));
    }

    #[test]
    fn shrink_grow_cycles_keep_everything() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for round in 0..5u64 {
            for i in 0..1000u64 {
                q.push(round * 1_000_000 + i * 997, seq, 0);
                seq += 1;
            }
            for _ in 0..900 {
                assert!(q.pop().is_some());
            }
        }
        let rest = drain(&mut q);
        assert_eq!(rest.len(), 500);
        assert!(rest.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Hold the queue at a constant length, popping the earliest event and
    /// re-arming it a spread-out delay later, the way timers and arrivals
    /// keep a simulation's event count level. Once the slab and the near
    /// heap have grown to that level, no push or pop allocates.
    #[test]
    fn steady_push_pop_allocates_nothing() {
        fn cycle(q: &mut CalendarQueue<u64>, seq: &mut u64) {
            let (at, ..) = q.pop().expect("constant length");
            *seq += 1;
            q.push(at + 1 + (*seq * 7919) % 4000, *seq, *seq);
        }
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for _ in 0..4096 {
            seq += 1;
            q.push((seq * 7919) % 4000, seq, seq);
        }
        for _ in 0..50_000 {
            cycle(&mut q, &mut seq);
        }
        let before = Counts::now();
        for _ in 0..100_000 {
            cycle(&mut q, &mut seq);
        }
        let counts = Counts::now().since(before);
        assert_eq!(q.len(), 4096);
        if counts.allocs > 0 {
            sample(1);
            for _ in 0..100_000 {
                cycle(&mut q, &mut seq);
            }
            panic!("{counts} in 10^5 cycles\n{}", top_sites());
        }
    }
}
