//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `{name, start, end, parent, rep, allocs}`. Totals per name —
//! count, duration, self time, allocations — are kept exactly for every span;
//! the spans themselves are kept in a preallocated buffer up to its capacity
//! (a full-size repetition opens millions) and written out when the run ends.
//! Self time is a span's duration minus the part its child spans cover.

use crate::alloc;
use std::time::Instant;

/// Index into the recorder's name table.
pub type NameId = u16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: NameId,
    pub rep: u16,
    /// Index of the enclosing span in the buffer, `u32::MAX` for a root (or
    /// when the parent itself fell outside the buffer).
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u32,
}

/// Exact totals of every span opened under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

struct Open {
    name: NameId,
    start_ns: u64,
    allocs_at_start: u64,
    child_ns: u64,
    /// Where this span will sit in the buffer, if it fits.
    slot: u32,
}

/// Handed out by [`Spans::enter`]; give it back to [`Spans::exit`].
#[must_use]
#[derive(Clone, Copy)]
pub struct Token(bool);

pub struct Spans {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    totals: Vec<NameTotals>,
    stack: Vec<Open>,
    buf: Vec<Span>,
    rep: u16,
    /// Spans closed in total, kept or not.
    pub closed: u64,
}

const NO_SLOT: u32 = u32::MAX;

impl Spans {
    /// A recorder over `names`; `capacity` spans are kept for the trace file.
    /// Disabled recorders cost one branch per call.
    pub fn new(on: bool, names: &[&'static str], capacity: usize) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            names: names.to_vec(),
            totals: vec![NameTotals::default(); names.len()],
            stack: Vec::with_capacity(if on { 16 } else { 0 }),
            buf: Vec::with_capacity(if on { capacity } else { 0 }),
            rep: 0,
            closed: 0,
        }
    }

    /// A recorder that is off and stays off; allocates nothing.
    pub fn off() -> Self {
        Spans::new(false, &[], 0)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording per repetition (untraced and traced repetitions
    /// alternate within one run).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep as u16;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: NameId) -> Token {
        if !self.on {
            return Token(false);
        }
        self.enter_at(name, self.now_ns(), alloc::snapshot().0);
        Token(true)
    }

    #[inline]
    pub fn exit(&mut self, token: Token) {
        if token.0 {
            self.exit_at(self.now_ns(), alloc::snapshot().0);
        }
    }

    fn enter_at(&mut self, name: NameId, now_ns: u64, allocs: u64) {
        // Reserve the buffer slot now so children can name their parent.
        let slot = if self.buf.len() < self.buf.capacity() {
            let parent = self.stack.last().map_or(NO_SLOT, |p| p.slot);
            self.buf.push(Span {
                name,
                rep: self.rep,
                parent,
                start_ns: now_ns,
                end_ns: now_ns,
                allocs: 0,
            });
            (self.buf.len() - 1) as u32
        } else {
            NO_SLOT
        };
        self.stack.push(Open {
            name,
            start_ns: now_ns,
            allocs_at_start: allocs,
            child_ns: 0,
            slot,
        });
    }

    fn exit_at(&mut self, now_ns: u64, allocs: u64) {
        let open = self.stack.pop().expect("exit without enter");
        let dur = now_ns - open.start_ns;
        let allocs = allocs - open.allocs_at_start;
        let t = &mut self.totals[open.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.allocs += allocs;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.slot != NO_SLOT {
            let s = &mut self.buf[open.slot as usize];
            s.end_ns = now_ns;
            s.allocs = allocs.min(u64::from(u32::MAX)) as u32;
        }
        self.closed += 1;
    }

    pub fn totals(&self, name: NameId) -> NameTotals {
        self.totals[name as usize]
    }

    pub fn name(&self, id: NameId) -> &'static str {
        self.names[id as usize]
    }

    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// The spans kept in the buffer, in opening order.
    pub fn kept(&self) -> &[Span] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["rep", "a", "b"];

    /// Self time of every span in `spans` from the `parent` links alone — the
    /// after-the-fact form of what [`Spans`] accumulates while running; the two
    /// must agree on any buffer that holds whole trees.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if s.parent != NO_SLOT {
                let p = s.parent as usize;
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// rep[0..100] { a[10..40] { b[15..25] }  a[40..60]  b[70..90] }
    fn tree() -> Spans {
        let mut s = Spans::new(true, &NAMES, 16);
        s.enter_at(0, 0, 0);
        s.enter_at(1, 10, 0);
        s.enter_at(2, 15, 1);
        s.exit_at(25, 3);
        s.exit_at(40, 4);
        s.enter_at(1, 40, 4); // adjacent: starts where the last one ended
        s.exit_at(60, 4);
        s.enter_at(2, 70, 4);
        s.exit_at(90, 9);
        s.exit_at(100, 9);
        s
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let s = tree();
        // rep: 100 - (30 + 20 + 20) covered by direct children.
        assert_eq!(s.totals(0).self_ns, 30);
        assert_eq!(s.totals(0).total_ns, 100);
        // a: (30 - 10 nested b) + 20.
        assert_eq!(s.totals(1).count, 2);
        assert_eq!(s.totals(1).total_ns, 50);
        assert_eq!(s.totals(1).self_ns, 40);
        // b: leaves keep their whole duration.
        assert_eq!(s.totals(2).self_ns, 30);
        let total_self: u64 = (0..3).map(|n| s.totals(n).self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");
    }

    #[test]
    fn allocations_are_attributed_inclusively() {
        let s = tree();
        assert_eq!(s.totals(2).allocs, 2 + 5);
        assert_eq!(s.totals(1).allocs, 4);
        assert_eq!(s.totals(0).allocs, 9);
    }

    #[test]
    fn buffer_links_agree_with_running_totals() {
        let s = tree();
        let kept = s.kept();
        assert_eq!(kept.len(), 5);
        assert_eq!(kept[0].parent, NO_SLOT);
        assert_eq!(kept[2].parent, 1, "b nests under the first a");
        assert_eq!(kept[4].parent, 0);
        let selfs = self_times(kept);
        for name in 0..3u16 {
            let from_buf: u64 = kept
                .iter()
                .zip(&selfs)
                .filter(|(sp, _)| sp.name == name)
                .map(|(_, t)| *t)
                .sum();
            assert_eq!(from_buf, s.totals(name).self_ns);
        }
    }

    #[test]
    fn overflow_keeps_totals_exact_and_buffer_bounded() {
        let mut s = Spans::new(true, &NAMES, 2);
        s.enter_at(0, 0, 0);
        for i in 0..10u64 {
            s.enter_at(1, i * 10, 0);
            s.exit_at(i * 10 + 5, 0);
        }
        s.exit_at(100, 0);
        assert_eq!(s.kept().len(), 2);
        assert_eq!(s.closed, 11);
        assert_eq!(s.totals(1).count, 10);
        assert_eq!(s.totals(0).self_ns, 50);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, &NAMES, 16);
        let t = s.enter(1);
        s.exit(t);
        assert_eq!(s.closed, 0);
        assert!(s.kept().is_empty());
    }
}
