//! A set of `u64` values stored as sorted, disjoint, half-open ranges.
//!
//! The workhorse of both SACK endpoints: the receiver's out-of-order set,
//! the sender's sacked/lost sets. Insertions merge adjacent ranges, so the
//! memory footprint is proportional to *fragmentation*, not to the number
//! of sequence numbers — the property that makes SACK state cheap. The
//! first four ranges are stored in place, so a set that never holds
//! more — most of them, in practice — never allocates.

use std::fmt;
use std::ops::Range;

/// Half-open range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqRange {
    pub start: u64,
    pub end: u64,
}

impl SeqRange {
    /// Construct; panics if `end <= start` in debug builds.
    pub fn new(start: u64, end: u64) -> Self {
        debug_assert!(start < end, "empty or inverted range {start}..{end}");
        SeqRange { start, end }
    }

    /// Number of sequence numbers covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Does the range contain `seq`?
    pub fn contains(&self, seq: u64) -> bool {
        self.start <= seq && seq < self.end
    }
}

impl fmt::Display for SeqRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Ranges a set stores in place before it moves them to the heap. A
/// receiver's out-of-order runs and a sender's SACKed and lost runs are
/// rarely more than four at once: in the `manyflow` dumbbell the sets
/// that outgrow them cost 1.2 allocations per flow, against 4.5 when every
/// set kept its ranges on the heap.
const INLINE: usize = 4;

/// A set's ranges: in place while they fit, then on the heap for good.
#[derive(Clone)]
enum Store {
    Inline { len: usize, buf: [SeqRange; INLINE] },
    Heap(Vec<SeqRange>),
}

impl Store {
    fn as_slice(&self) -> &[SeqRange] {
        match self {
            Store::Inline { len, buf } => &buf[..*len],
            Store::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [SeqRange] {
        match self {
            Store::Inline { len, buf } => &mut buf[..*len],
            Store::Heap(v) => v,
        }
    }

    /// Replace the ranges at `at` with `with`, as `Vec::splice` does. The
    /// first time the ranges outgrow the inline room they move to a heap
    /// vector with room for twice as many.
    fn splice(&mut self, at: Range<usize>, with: &[SeqRange]) {
        match self {
            Store::Inline { len, buf } => {
                let n = *len - at.len() + with.len();
                if n <= INLINE {
                    buf.copy_within(at.end..*len, at.start + with.len());
                    buf[at.start..at.start + with.len()].copy_from_slice(with);
                    *len = n;
                } else {
                    let mut v = Vec::with_capacity(2 * n);
                    v.extend_from_slice(&buf[..at.start]);
                    v.extend_from_slice(with);
                    v.extend_from_slice(&buf[at.end..*len]);
                    *self = Store::Heap(v);
                }
            }
            Store::Heap(v) => {
                v.splice(at, with.iter().copied());
            }
        }
    }
}

impl Default for Store {
    fn default() -> Self {
        Store::Inline {
            len: 0,
            buf: [SeqRange { start: 0, end: 0 }; INLINE],
        }
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Sorted, disjoint, coalesced set of ranges.
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    /// Invariant: sorted by `start`; `ranges[i].end < ranges[i+1].start`
    /// (strictly — adjacent ranges are merged).
    ranges: Store,
}

impl PartialEq for RangeSet {
    fn eq(&self, other: &Self) -> bool {
        self.ranges.as_slice() == other.ranges.as_slice()
    }
}

impl Eq for RangeSet {}

impl RangeSet {
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Number of stored ranges (fragmentation measure).
    pub fn range_count(&self) -> usize {
        self.ranges.as_slice().len()
    }

    /// Total sequence numbers covered.
    pub fn len(&self) -> u64 {
        self.ranges.as_slice().iter().map(|r| r.len()).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.ranges.as_slice().is_empty()
    }

    /// Is `seq` in the set?
    pub fn contains(&self, seq: u64) -> bool {
        let ranges = self.ranges.as_slice();
        let i = ranges.partition_point(|r| r.end <= seq);
        ranges.get(i).is_some_and(|r| r.start <= seq)
    }

    /// Insert a single value. Returns true if it was newly added.
    pub fn insert(&mut self, seq: u64) -> bool {
        self.insert_range(SeqRange::new(seq, seq + 1)) > 0
    }

    /// Insert a range; returns how many values were newly added.
    pub fn insert_range(&mut self, r: SeqRange) -> u64 {
        // Fast paths for the dominant streaming pattern: sequences arriving
        // in order above the highest stored range (extend or append at the
        // tail) are O(1) instead of two binary searches plus a splice.
        let n = self.ranges.as_slice().len();
        match self.ranges.as_mut_slice().last_mut() {
            None => {
                self.ranges.splice(n..n, &[r]);
                return r.len();
            }
            Some(last) if r.start == last.end => {
                last.end = r.end.max(last.end);
                return r.len();
            }
            Some(last) if r.start > last.end => {
                self.ranges.splice(n..n, &[r]);
                return r.len();
            }
            _ => {}
        }
        // Find the window of existing ranges overlapping or adjacent to r.
        let ranges = self.ranges.as_slice();
        let start_idx = ranges.partition_point(|x| x.end < r.start);
        let end_idx = ranges.partition_point(|x| x.start <= r.end);
        if start_idx == end_idx {
            // No overlap/adjacency: plain insert.
            self.ranges.splice(start_idx..start_idx, &[r]);
            return r.len();
        }
        let merged_start = ranges[start_idx].start.min(r.start);
        let merged_end = ranges[end_idx - 1].end.max(r.end);
        let existing: u64 = ranges[start_idx..end_idx].iter().map(|x| x.len()).sum();
        self.ranges.splice(
            start_idx..end_idx,
            &[SeqRange::new(merged_start, merged_end)],
        );
        (merged_end - merged_start) - existing
    }

    /// Remove a single value. Returns true if it was present.
    pub fn remove(&mut self, seq: u64) -> bool {
        self.remove_range(SeqRange::new(seq, seq + 1)) > 0
    }

    /// Remove every value in `[r.start, r.end)`. Returns how many values
    /// were actually removed.
    ///
    /// Works in place: the overlapped ranges are replaced by at most two
    /// remnants (the parts of the first and last overlapped range that
    /// stick out of `r`), so only a split of one range can grow the set.
    pub fn remove_range(&mut self, r: SeqRange) -> u64 {
        let ranges = self.ranges.as_slice();
        let lo = ranges.partition_point(|x| x.end <= r.start);
        let hi = ranges.partition_point(|x| x.start < r.end);
        if lo >= hi {
            return 0;
        }
        let (first, last) = (ranges[lo], ranges[hi - 1]);
        let removed = ranges[lo..hi]
            .iter()
            .map(|x| x.end.min(r.end) - x.start.max(r.start))
            .sum();
        let head = (first.start < r.start).then(|| SeqRange::new(first.start, r.start));
        let tail = (last.end > r.end).then(|| SeqRange::new(r.end, last.end));
        match (head, tail) {
            (Some(head), Some(tail)) => self.ranges.splice(lo..hi, &[head, tail]),
            (Some(one), None) | (None, Some(one)) => self.ranges.splice(lo..hi, &[one]),
            (None, None) => self.ranges.splice(lo..hi, &[]),
        }
        removed
    }

    /// Drop every value `< cutoff` (e.g. when the cumulative ack advances):
    /// the ranges that end by then go, and the next one is trimmed.
    pub fn remove_below(&mut self, cutoff: u64) {
        let ranges = self.ranges.as_mut_slice();
        let gone = ranges.partition_point(|r| r.end <= cutoff);
        if let Some(r) = ranges.get_mut(gone) {
            r.start = r.start.max(cutoff);
        }
        self.ranges.splice(0..gone, &[]);
    }

    /// First (lowest) value, if any.
    pub fn first(&self) -> Option<u64> {
        self.ranges.as_slice().first().map(|r| r.start)
    }

    /// One past the highest value, if any.
    pub fn max_end(&self) -> Option<u64> {
        self.ranges.as_slice().last().map(|r| r.end)
    }

    /// Iterate stored ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = SeqRange> + '_ {
        self.ranges.as_slice().iter().copied()
    }

    /// Number of stored values strictly greater than `seq`.
    pub fn count_above(&self, seq: u64) -> u64 {
        let mut n = 0;
        for r in self.ranges.as_slice().iter().rev() {
            if r.end <= seq + 1 {
                break;
            }
            let lo = r.start.max(seq + 1);
            n += r.end - lo;
        }
        n
    }

    /// The gaps between stored ranges within `[lo, hi)` — i.e. values in
    /// `[lo, hi)` that are *not* in the set, as maximal ranges, ascending.
    ///
    /// One pass over the stored ranges, allocating nothing: each hole is
    /// produced when the walk reaches the range that ends it.
    pub fn holes_within(&self, lo: u64, hi: u64) -> impl Iterator<Item = SeqRange> + '_ {
        let mut cursor = lo;
        let mut ranges = self.ranges.as_slice().iter();
        std::iter::from_fn(move || {
            for r in ranges.by_ref() {
                if cursor >= hi || r.start >= hi {
                    break;
                }
                if r.end <= cursor {
                    continue;
                }
                let hole = (r.start > cursor).then(|| SeqRange::new(cursor, r.start));
                cursor = r.end;
                if hole.is_some() {
                    return hole;
                }
            }
            // Past the last range that starts in the window: the rest of
            // the window, once.
            let hole = (cursor < hi).then(|| SeqRange::new(cursor, hi));
            cursor = hi;
            hole
        })
    }

    /// Debug invariant check (used by property tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.ranges.as_slice().windows(2) {
            if w[0].end >= w[1].start {
                return Err(format!(
                    "ranges not disjoint/coalesced: {} then {}",
                    w[0], w[1]
                ));
            }
        }
        for r in self.ranges.as_slice() {
            if r.start >= r.end {
                return Err(format!("degenerate range {r}"));
            }
        }
        Ok(())
    }

    /// Approximate live memory of the structure (for state accounting).
    pub fn state_bytes(&self) -> usize {
        self.range_count() * std::mem::size_of::<SeqRange>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u64, u64)]) -> RangeSet {
        let mut s = RangeSet::new();
        for &(a, b) in ranges {
            s.insert_range(SeqRange::new(a, b));
        }
        s.check_invariants().unwrap();
        s
    }

    #[test]
    fn insert_single_values() {
        let mut s = RangeSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5), "duplicate");
        assert!(s.insert(7));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.contains(7));
        assert_eq!(s.len(), 2);
        assert_eq!(s.range_count(), 2);
    }

    #[test]
    fn adjacent_inserts_coalesce() {
        let mut s = RangeSet::new();
        s.insert(1);
        s.insert(2);
        s.insert(3);
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.len(), 3);
        s.check_invariants().unwrap();
    }

    #[test]
    fn bridging_insert_merges_ranges() {
        let mut s = set(&[(0, 2), (4, 6)]);
        assert_eq!(s.range_count(), 2);
        let added = s.insert_range(SeqRange::new(2, 4));
        assert_eq!(added, 2);
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn overlapping_insert_counts_only_new() {
        let mut s = set(&[(0, 5)]);
        let added = s.insert_range(SeqRange::new(3, 8));
        assert_eq!(added, 3);
        assert_eq!(s.len(), 8);
        assert_eq!(s.range_count(), 1);
    }

    #[test]
    fn containment_binary_search() {
        let s = set(&[(10, 20), (30, 40), (50, 60)]);
        for seq in [10, 19, 30, 39, 50, 59] {
            assert!(s.contains(seq), "{seq}");
        }
        for seq in [0, 9, 20, 29, 40, 49, 60, 100] {
            assert!(!s.contains(seq), "{seq}");
        }
    }

    #[test]
    fn remove_splits_ranges() {
        let mut s = set(&[(0, 5)]);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert_eq!(s.range_count(), 2);
        assert_eq!(s.len(), 4);
        assert!(!s.contains(2));
        s.check_invariants().unwrap();
        // Removing at the edges shrinks rather than splits.
        assert!(s.remove(0));
        assert!(s.remove(4));
        assert_eq!(s.len(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn remove_below_trims_and_drops() {
        let mut s = set(&[(0, 5), (10, 15), (20, 25)]);
        s.remove_below(12);
        assert_eq!(s.len(), 8); // 12..15 + 20..25
        assert!(!s.contains(11));
        assert!(s.contains(12));
        s.check_invariants().unwrap();
    }

    #[test]
    fn count_above_counts_strictly_greater() {
        let s = set(&[(0, 3), (10, 13)]);
        assert_eq!(s.count_above(0), 5); // 1,2,10,11,12
        assert_eq!(s.count_above(5), 3);
        assert_eq!(s.count_above(12), 0);
        assert_eq!(s.count_above(100), 0);
    }

    #[test]
    fn holes_within_finds_gaps() {
        let s = set(&[(2, 4), (6, 8)]);
        let holes = |lo, hi| s.holes_within(lo, hi).collect::<Vec<_>>();
        assert_eq!(
            holes(0, 10),
            vec![
                SeqRange::new(0, 2),
                SeqRange::new(4, 6),
                SeqRange::new(8, 10)
            ]
        );
        // Window entirely inside a stored range has no holes.
        assert!(holes(2, 4).is_empty());
        // Window past everything is all hole.
        assert_eq!(holes(20, 22), vec![SeqRange::new(20, 22)]);
        // Windows that start or end inside a range clip the holes.
        assert_eq!(holes(3, 7), vec![SeqRange::new(4, 6)]);
        assert_eq!(holes(5, 6), vec![SeqRange::new(5, 6)]);
        assert!(RangeSet::new().holes_within(4, 4).next().is_none());
    }

    #[test]
    fn remove_range_carves_and_counts() {
        let mut s = set(&[(0, 10), (20, 30)]);
        let removed = s.remove_range(SeqRange::new(5, 25));
        assert_eq!(removed, 10); // 5..10 and 20..25
        assert_eq!(s.len(), 10);
        assert!(s.contains(4) && !s.contains(5));
        assert!(!s.contains(24) && s.contains(25));
        s.check_invariants().unwrap();
        // Removing a region with no overlap is a no-op.
        assert_eq!(s.remove_range(SeqRange::new(100, 200)), 0);
    }

    #[test]
    fn remove_range_middle_splits() {
        let mut s = set(&[(0, 10)]);
        assert_eq!(s.remove_range(SeqRange::new(3, 7)), 4);
        assert_eq!(s.range_count(), 2);
        assert_eq!(s.len(), 6);
        s.check_invariants().unwrap();
    }

    #[test]
    fn first_and_max_end() {
        let s = set(&[(5, 7), (9, 12)]);
        assert_eq!(s.first(), Some(5));
        assert_eq!(s.max_end(), Some(12));
        assert_eq!(RangeSet::new().first(), None);
    }

    #[test]
    fn seq_range_accessors() {
        let r = SeqRange::new(3, 7);
        assert_eq!(r.len(), 4);
        assert!(r.contains(3) && r.contains(6));
        assert!(!r.contains(7));
        assert_eq!(format!("{r}"), "[3, 7)");
    }
}
