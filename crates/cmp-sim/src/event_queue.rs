//! The engine's event queue: a calendar (bucketed) queue keyed by cycle.
//!
//! ## Ordering contract
//!
//! A queue is a strict priority queue over `(cycle, seq)`, where `seq` is
//! a monotonically increasing sequence number assigned at push time: events
//! at the same cycle drain in the order they were scheduled. This is the
//! exact order the old `BinaryHeap<Reverse<Scheduled>>` produced, and the
//! barrier filter's invalidate-before-fill guarantee (machine.rs module
//! docs) depends on it. `seq` is unique per event, so the order is *total*:
//! there are no unstable ties at equal `(cycle, seq)`, and bucket rotation
//! cannot reorder anything.
//!
//! ## Calendar structure ([`CalendarQueue`])
//!
//! Near-future events — the overwhelming majority: instruction retires a
//! handful of cycles out, bus grants, cache latencies — land in a ring of
//! `WINDOW` per-cycle buckets (`push` is an append + a bit set; `pop` is a
//! bitset scan + a front removal). Far-future events (deep bus backlogs,
//! hook deadlines, memory round trips past the window) go to a small
//! overflow heap and migrate into the ring as the cursor approaches:
//!
//! * every in-window event is in the ring, every event at
//!   `cycle >= base + WINDOW` is in the overflow heap;
//! * `base` never exceeds the earliest pending cycle, so a bucket holds
//!   events of exactly one cycle and append order within it is `seq` order;
//! * overflow events migrate via a binary insertion on `seq`, preserving
//!   the total order even though they arrive "late".
//!
//! ## Re-inserted events ([`CalendarQueue::insert_after`])
//!
//! The spin pool (machine.rs) takes a spinning core's ready event off the
//! queue and later puts it back at the position polling would have given
//! it: after every event pushed up to some counter value `seq`, before the
//! next push. Entries are therefore ordered by a key `seq << 1 | late`,
//! where `late` marks a re-inserted event; re-inserted events with equal
//! keys keep their insertion order (FIFO in a bucket, a tie counter in the
//! overflow heap).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ring capacity in cycles. Power of two; sized so that common latencies
/// (L1/L2/L3 hits, bus grants, the 138-cycle memory round trip, short hook
/// deadlines) stay in-window even under queueing backlogs, while keeping
/// the bucket-header array small enough to live in cache (the engine
/// touches a bucket per event; 512 deque headers are 16 KiB).
const WINDOW: u64 = 512;
const WORDS: usize = (WINDOW as usize) / 64;

/// A far-future event parked in the overflow heap, ordered by
/// `(cycle, key)` — the same total order the ring drains in — with `tie`
/// keeping re-inserted events of equal key in insertion order.
#[derive(Debug, PartialEq, Eq)]
struct Far<T: Eq> {
    cycle: u64,
    key: u64,
    tie: u64,
    item: T,
}

impl<T: Eq> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.cycle, self.key, self.tie).cmp(&(other.cycle, other.key, other.tie))
    }
}

impl<T: Eq> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Calendar queue over `(cycle, seq)` with FIFO semantics per cycle.
#[derive(Debug)]
pub(crate) struct CalendarQueue<T: Eq> {
    /// `WINDOW` per-cycle buckets; bucket `cycle % WINDOW` holds the events
    /// of one in-window cycle as `(key, item)`, sorted by (and in practice
    /// appended in) key order (see the module docs for the key). Deques, because the engine drains each bucket from the
    /// front one event at a time (`Vec::remove(0)` would shift the tail on
    /// every pop).
    buckets: Vec<VecDeque<(u64, T)>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Lower edge of the ring window. Invariant: `base` never exceeds the
    /// earliest pending cycle, and only grows.
    base: u64,
    /// Events at `cycle >= base + WINDOW`.
    overflow: BinaryHeap<Reverse<Far<T>>>,
    /// Cycle of the earliest overflow event (`u64::MAX` when empty), so the
    /// per-pop migration check is a register compare instead of a heap
    /// peek.
    overflow_min: u64,
    /// Last assigned sequence number (0 = none yet).
    seq: u64,
    /// Overflow insertion counter (the `Far::tie` source).
    far_ties: u64,
    /// Sequence number of the event [`pop_at`](CalendarQueue::pop_at)
    /// returned last.
    popped_seq: u64,
    len: usize,
    /// Memoized [`next_cycle`](CalendarQueue::next_cycle) result (`None` =
    /// not computed). The engine peeks then pops every event; caching the
    /// scan halves the bitset walks. A push can only *lower* the minimum,
    /// so it folds into the memo; a pop invalidates it.
    next_memo: Cell<Option<u64>>,
}

impl<T: Eq> CalendarQueue<T> {
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue {
            buckets: (0..WINDOW).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            base: 0,
            overflow: BinaryHeap::new(),
            overflow_min: u64::MAX,
            seq: 0,
            far_ties: 0,
            popped_seq: 0,
            len: 0,
            next_memo: Cell::new(None),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Schedule `item` at `cycle`, after everything already scheduled for
    /// that cycle. `cycle` must not precede an already-popped cycle.
    pub fn push(&mut self, cycle: u64, item: T) {
        assert!(
            cycle >= self.base,
            "event scheduled at cycle {cycle} behind the queue cursor {}",
            self.base
        );
        self.seq += 1;
        let key = self.seq << 1;
        if cycle - self.base < WINDOW {
            let b = (cycle % WINDOW) as usize;
            self.buckets[b].push_back((key, item));
            self.occupied[b / 64] |= 1 << (b % 64);
            self.len += 1;
            self.lower_memo(cycle);
        } else {
            self.push_far(cycle, key, item);
        }
    }

    /// Re-insert `item` at `cycle` in the position of an event pushed
    /// while the sequence counter read `seq`: after every event pushed up
    /// to that point, before every later push. Among earlier
    /// re-insertions with the same `seq` it goes last, or ahead of the
    /// first for which `ahead_of` holds (only consulted in the ring). The
    /// counter does not move.
    pub fn insert_after(&mut self, cycle: u64, seq: u64, item: T, ahead_of: impl Fn(&T) -> bool) {
        assert!(
            cycle >= self.base,
            "event re-inserted at cycle {cycle} behind the queue cursor {}",
            self.base
        );
        let key = seq << 1 | 1;
        if cycle - self.base < WINDOW {
            let b = (cycle % WINDOW) as usize;
            let bucket = &mut self.buckets[b];
            let (lo, hi) = (
                bucket.partition_point(|&(k, _)| k < key),
                bucket.partition_point(|&(k, _)| k <= key),
            );
            let pos = (lo..hi).find(|&i| ahead_of(&bucket[i].1)).unwrap_or(hi);
            bucket.insert(pos, (key, item));
            self.occupied[b / 64] |= 1 << (b % 64);
            self.len += 1;
            self.lower_memo(cycle);
        } else {
            self.push_far(cycle, key, item);
        }
    }

    fn push_far(&mut self, cycle: u64, key: u64, item: T) {
        self.far_ties += 1;
        self.overflow.push(Reverse(Far {
            cycle,
            key,
            tie: self.far_ties,
            item,
        }));
        self.overflow_min = self.overflow_min.min(cycle);
        self.len += 1;
        self.lower_memo(cycle);
    }

    /// A new event at `cycle` can only lower the memoized minimum.
    #[inline]
    fn lower_memo(&self, cycle: u64) {
        if let Some(memo) = self.next_memo.get() {
            if cycle < memo {
                self.next_memo.set(Some(cycle));
            }
        }
    }

    /// The sequence counter: the number of events pushed so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The sequence number the last [`pop_at`](CalendarQueue::pop_at)
    /// event was pushed (or re-inserted) at.
    pub fn popped_seq(&self) -> u64 {
        self.popped_seq
    }

    /// True iff every pending event lies strictly after `cycle` (vacuously
    /// true when empty). This is the burst-fast-path precondition
    /// (machine.rs): an event the engine would push at `cycle` and
    /// immediately pop — it would be the unique minimum, and same-cycle
    /// FIFO order gives queued events at `cycle` priority only when they
    /// exist — may instead be consumed in place.
    pub fn all_later_than(&self, cycle: u64) -> bool {
        self.next_cycle().is_none_or(|head| head > cycle)
    }

    /// Cycle of the earliest pending event.
    pub fn next_cycle(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if let Some(memo) = self.next_memo.get() {
            return Some(memo);
        }
        let ring = self.scan().map(|(cycle, _)| cycle);
        let over = (self.overflow_min != u64::MAX).then_some(self.overflow_min);
        let min = match (ring, over) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, None) => r,
            (None, o) => o,
        };
        self.next_memo.set(min);
        min
    }

    /// Remove and return the earliest event *if* it is scheduled exactly
    /// at `cycle`; `None` once every pending event lies later (or the
    /// queue is empty). The run loop's same-cycle cohort drain:
    /// consecutive same-cycle pops ride the memoized minimum and the hot
    /// bucket, so a cohort costs one bitset scan total.
    pub fn pop_at(&mut self, cycle: u64) -> Option<T> {
        if self.next_cycle() != Some(cycle) {
            return None;
        }
        // The minimum is `cycle`; drain it directly instead of re-deriving
        // it through `pop` (one memoized peek per event, not two).
        self.base = cycle;
        if self.overflow_min < self.base + WINDOW {
            self.migrate_overflow();
        }
        let b = (cycle % WINDOW) as usize;
        let bucket = &mut self.buckets[b];
        let item = bucket.pop_front().map(|(key, item)| {
            self.popped_seq = key >> 1;
            item
        });
        if bucket.is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.next_memo.set(None);
        } else {
            self.next_memo.set(Some(cycle));
        }
        self.len -= 1;
        item
    }

    /// Remove and return the earliest event as `(cycle, item)`. The run
    /// loop drains through [`pop_at`](CalendarQueue::pop_at); this form
    /// remains for the queue-equivalence tests, which need the cycle back.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let target = self.next_cycle()?;
        // Advance the cursor and pull every newly in-window overflow event
        // into the ring before draining the target bucket: an overflow
        // event *at* the target cycle must interleave by `seq` with the
        // bucket's direct pushes.
        self.base = target;
        if self.overflow_min < self.base + WINDOW {
            self.migrate_overflow();
        }
        let b = (target % WINDOW) as usize;
        let bucket = &mut self.buckets[b];
        let Some((_, item)) = bucket.pop_front() else {
            unreachable!("target bucket holds the minimum");
        };
        if bucket.is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.next_memo.set(None);
        } else {
            // Bucket still holds events at `target`: it stays the minimum.
            self.next_memo.set(Some(target));
        }
        self.len -= 1;
        Some((target, item))
    }

    /// Earliest `(cycle, bucket)` in the ring, scanning the occupancy
    /// bitset circularly from the cursor.
    fn scan(&self) -> Option<(u64, usize)> {
        let start = (self.base % WINDOW) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let hit = |word: usize, bits: u64| -> Option<(u64, usize)> {
            if bits == 0 {
                return None;
            }
            let b = word * 64 + bits.trailing_zeros() as usize;
            let delta = (b + WINDOW as usize - start) % WINDOW as usize;
            Some((self.base + delta as u64, b))
        };
        // The cursor's word, positions at/after the cursor.
        if let Some(found) = hit(sw, self.occupied[sw] & (!0u64 << sb)) {
            return Some(found);
        }
        // Remaining words, wrapping.
        for k in 1..WORDS {
            let w = (sw + k) % WORDS;
            if let Some(found) = hit(w, self.occupied[w]) {
                return Some(found);
            }
        }
        // The cursor's word, wrapped-around positions before the cursor.
        hit(sw, self.occupied[sw] & !(!0u64 << sb))
    }

    /// Move every overflow event that now fits the window into the ring,
    /// inserting by key so late arrivals interleave correctly with the
    /// bucket's existing (key-ordered) contents. A migrating pushed event
    /// has a unique key; a migrating re-inserted one goes after bucket
    /// entries of equal key, which were re-inserted later than it was.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.cycle - self.base >= WINDOW {
                break;
            }
            let Some(Reverse(f)) = self.overflow.pop() else {
                unreachable!("peeked above");
            };
            let b = (f.cycle % WINDOW) as usize;
            let bucket = &mut self.buckets[b];
            let pos = bucket.partition_point(|&(k, _)| k <= f.key);
            bucket.insert(pos, (f.key, f.item));
            self.occupied[b / 64] |= 1 << (b % 64);
        }
        self.overflow_min = self.overflow.peek().map_or(u64::MAX, |Reverse(f)| f.cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn same_cycle_drains_in_push_order() {
        let mut q = CalendarQueue::new();
        q.push(5, "a");
        q.push(5, "b");
        q.push(3, "c");
        q.push(5, "d");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![(3, "c"), (5, "a"), (5, "b"), (5, "d")]);
    }

    #[test]
    fn overflow_events_interleave_by_push_order() {
        let mut q = CalendarQueue::new();
        // Scheduled while far future -> overflow heap.
        q.push(WINDOW + 10, 1u32);
        // Drain the queue forward so the window covers WINDOW + 10, then
        // schedule a same-cycle event directly into the ring.
        q.push(20, 0);
        assert_eq!(q.pop(), Some((20, 0)));
        q.push(WINDOW + 10, 2);
        assert_eq!(q.pop(), Some((WINDOW + 10, 1)), "earlier push first");
        assert_eq!(q.pop(), Some((WINDOW + 10, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_reference_heap_on_a_mixed_workload() {
        // Deterministic pseudo-random workload compared against the
        // reference semantics (a heap over (cycle, seq)).
        let mut q = CalendarQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for i in 0..5000u32 {
            // Mostly near-future pushes, occasionally far past the window.
            let delta = match rnd() % 10 {
                0 => WINDOW + rnd() % (4 * WINDOW),
                1..=3 => rnd() % 600,
                _ => rnd() % 8,
            };
            q.push(now + delta, i);
            seq += 1;
            reference.push(Reverse((now + delta, seq, i)));
            if rnd() % 3 != 0 {
                let got = q.pop();
                let Some(Reverse((cycle, _, item))) = reference.pop() else {
                    panic!("reference empty while queue was not");
                };
                assert_eq!(got, Some((cycle, item)));
                now = cycle;
            }
        }
        while let Some(Reverse((cycle, _, item))) = reference.pop() {
            assert_eq!(q.pop(), Some((cycle, item)));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn reinserted_events_sit_between_pushes() {
        let mut q = CalendarQueue::new();
        q.push(7, "a"); // seq 1
        q.push(7, "b"); // seq 2
        q.push(7, "c"); // seq 3
        q.insert_after(7, 2, "after-b", |_| false);
        q.insert_after(7, 2, "after-b-too", |_| false);
        q.insert_after(7, 2, "ahead", |x| *x == "after-b-too");
        q.insert_after(7, 0, "first", |_| false);
        q.push(7, "d");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, x)| x)).collect();
        assert_eq!(
            drained,
            [
                "first",
                "a",
                "b",
                "after-b",
                "ahead",
                "after-b-too",
                "c",
                "d"
            ]
        );
        // Far re-insertions keep their order through the overflow heap.
        q.insert_after(WINDOW * 3, 5, "x", |_| false);
        q.insert_after(WINDOW * 3, 5, "y", |_| false);
        q.push(WINDOW * 3, "z");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, x)| x)).collect();
        assert_eq!(
            drained,
            ["z", "x", "y"],
            "x and y follow push 5, which is z"
        );
    }

    #[test]
    #[should_panic(expected = "behind the queue cursor")]
    fn pushing_behind_the_cursor_is_a_bug() {
        let mut q = CalendarQueue::new();
        q.push(100, ());
        q.pop();
        q.push(99, ());
    }
}
