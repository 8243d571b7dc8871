//! Deterministic event queue: a hierarchical timing wheel ordered by
//! (time, sequence), with the original binary heap kept as a selectable
//! baseline.
//!
//! Ties in time are broken by insertion order, so a simulation run is a
//! pure function of its inputs — a property every experiment in the
//! reproduction relies on. Both implementations produce the *same* pop
//! sequence for the same push sequence; the wheel is simply faster on
//! the simulator's hot path (near-future events, heavy time ties,
//! per-uplink serialization chains). `tests/queue_equiv.rs` proves the
//! equivalence by property test, with the heap as the oracle.
//!
//! ## The wheel
//!
//! Six levels of 64 slots each, 1 µs ticks at level 0: level *l* spans
//! `64^(l+1)` µs, so the wheel covers `2^36` µs ≈ 19 h of relative
//! time. An event lands in the level where its time first differs from
//! the wheel's `base` time (the XOR trick used by kernel timer wheels),
//! which guarantees a slot index never wraps past the scan cursor.
//! Events beyond the horizon — and events pushed *behind* `base`, which
//! the generic API permits — go to an overflow min-heap that every pop
//! compares against, so far-future timers cost heap behavior and
//! nothing else degrades. Per-level occupancy bitmaps make "find next
//! non-empty slot" a `trailing_zeros`. A level-0 slot (one µs) is sorted
//! at its first pop and kept sorted while it drains: ties pop in O(1).
//!
//! ## Lanes
//!
//! A *lane* is an optional FIFO fast path for producers whose events
//! are (almost always) pushed in nondecreasing time order — in netsim,
//! one lane per sending uplink, which serializes transfers one after
//! another. Only the head of a lane lives in the wheel; followers wait
//! in a per-lane `VecDeque` and are promoted (with their original
//! sequence number, so ordering is untouched) when the head pops. A
//! push that would violate the lane's time order falls back to a plain
//! wheel push. `len()` counts parked followers, so queue-depth metrics
//! are identical across implementations.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Bits per wheel level: 64 slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot index mask.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// Events whose time differs from `base` at or above this bit go to the
/// overflow heap (2^36 µs ≈ 19 simulated hours).
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Lane id meaning "not part of any lane".
const LANE_NONE: u32 = u32::MAX;

struct Entry<T> {
    at: u64,
    seq: u64,
    lane: u32,
    item: T,
}

/// Out of line, as is [`sort_desc`]: inlined, the two kept `place` and
/// `pop_min` from inlining, and untied holds ran about 25 % slower.
#[inline(never)]
fn insert_desc<T>(bucket: &mut Vec<Entry<T>>, e: Entry<T>) {
    bucket.insert(bucket.partition_point(|x| x.seq > e.seq), e);
}

#[inline(never)]
fn sort_desc<T>(bucket: &mut [Entry<T>]) {
    bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
}

/// Min-ordering on (at, seq) for `BinaryHeap` (which is a max-heap).
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// Which implementation an [`EventQueue`] built by
/// [`EventQueue::with_kind`] uses. Both are deterministic and produce
/// identical pop sequences. The simulator always runs on `Wheel`;
/// `Heap` is the reference `tests/queue_equiv.rs` compares the wheel
/// against and the baseline of the `event_queue_hold_10k` Criterion
/// group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Hierarchical timing wheel with overflow heap and lane fast path.
    #[default]
    Wheel,
    /// The original `BinaryHeap<(time, seq)>`.
    Heap,
}

struct Lane<T> {
    /// Followers parked behind the in-wheel head, in push order.
    chain: VecDeque<Entry<T>>,
    /// True while some entry of this lane is in the wheel/overflow.
    head_out: bool,
    /// Time of the last entry routed through this lane.
    tail_at: u64,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            chain: VecDeque::new(),
            head_out: false,
            tail_at: 0,
        }
    }
}

struct Wheel<T> {
    /// `LEVELS * SLOTS` buckets, flattened `[level][slot]`.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ slot `s` non-empty.
    occ: [u64; LEVELS],
    /// Bit `s` set ⇔ level-0 slot `s` is sorted by descending `seq`.
    sorted0: u64,
    /// Lower bound on every in-wheel entry's time; advances on pop.
    base: u64,
    /// Entries currently resident in `slots`.
    count: usize,
    /// Far-future / behind-base entries, min-ordered by (at, seq).
    overflow: BinaryHeap<HeapEntry<T>>,
    lanes: Vec<Lane<T>>,
}

impl<T> Wheel<T> {
    fn new() -> Self {
        Wheel {
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occ: [0; LEVELS],
            sorted0: 0,
            base: 0,
            count: 0,
            overflow: BinaryHeap::new(),
            lanes: Vec::new(),
        }
    }

    /// Level an event at `at` belongs to, relative to `base` (valid only
    /// when `base <= at` and within the horizon).
    fn level_of(&self, at: u64) -> usize {
        let diff = at ^ self.base;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// File an entry into the wheel, or the overflow heap when it lies
    /// behind `base` or beyond the horizon.
    fn place(&mut self, e: Entry<T>) {
        if e.at < self.base || (e.at ^ self.base) >> HORIZON_BITS != 0 {
            self.overflow.push(HeapEntry(e));
            return;
        }
        let level = self.level_of(e.at);
        let slot = ((e.at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let bucket = &mut self.slots[level * SLOTS + slot];
        if level == 0 && self.sorted0 & (1 << slot) != 0 {
            insert_desc(bucket, e);
        } else {
            bucket.push(e);
        }
        self.occ[level] |= 1 << slot;
        self.count += 1;
    }

    fn push_lane(&mut self, lane_id: usize, at: u64, seq: u64, item: T) {
        if lane_id >= self.lanes.len() {
            self.lanes.resize_with(lane_id + 1, Lane::default);
        }
        let lane = &mut self.lanes[lane_id];
        if lane.head_out {
            if at >= lane.tail_at {
                lane.tail_at = at;
                lane.chain.push_back(Entry {
                    at,
                    seq,
                    lane: lane_id as u32,
                    item,
                });
            } else {
                // Out-of-order arrival (shorter path latency): this event
                // cannot ride the FIFO chain; order it globally instead.
                self.place(Entry {
                    at,
                    seq,
                    lane: LANE_NONE,
                    item,
                });
            }
        } else {
            lane.head_out = true;
            lane.tail_at = at;
            self.place(Entry {
                at,
                seq,
                lane: lane_id as u32,
                item,
            });
        }
    }

    /// Earliest in-wheel event time, without mutating anything.
    fn wheel_peek_at(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let pos0 = (self.base & SLOT_MASK) as u32;
        let m0 = self.occ[0] & (!0u64 << pos0);
        if m0 != 0 {
            return Some((self.base & !SLOT_MASK) | u64::from(m0.trailing_zeros()));
        }
        for l in 1..LEVELS {
            let pos = ((self.base >> (SLOT_BITS * l as u32)) & SLOT_MASK) as u32;
            let m = self.occ[l] & (!0u64 << pos);
            if m != 0 {
                let s = m.trailing_zeros() as usize;
                // Entries in one higher-level slot differ below the
                // level's bit range; the earliest is their minimum.
                return self.slots[l * SLOTS + s].iter().map(|e| e.at).min();
            }
        }
        unreachable!("wheel count is non-zero but every level scan came up empty")
    }

    fn peek_at(&self) -> Option<u64> {
        match (self.wheel_peek_at(), self.overflow.peek().map(|e| e.0.at)) {
            (None, o) => o,
            (w, None) => w,
            (Some(w), Some(o)) => Some(w.min(o)),
        }
    }

    /// Cascade until the earliest in-wheel event sits in a level-0 slot;
    /// return that slot index (its time == `self.base` afterwards).
    fn settle(&mut self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        loop {
            let pos0 = (self.base & SLOT_MASK) as u32;
            let m0 = self.occ[0] & (!0u64 << pos0);
            if m0 != 0 {
                let s = m0.trailing_zeros() as usize;
                self.base = (self.base & !SLOT_MASK) | s as u64;
                return Some(s);
            }
            let mut cascaded = false;
            for l in 1..LEVELS {
                let pos = ((self.base >> (SLOT_BITS * l as u32)) & SLOT_MASK) as u32;
                let m = self.occ[l] & (!0u64 << pos);
                if m != 0 {
                    let s = m.trailing_zeros() as usize;
                    let span_mask = (1u64 << (SLOT_BITS * (l as u32 + 1))) - 1;
                    let start = (self.base & !span_mask) | ((s as u64) << (SLOT_BITS * l as u32));
                    self.base = self.base.max(start);
                    let drained = std::mem::take(&mut self.slots[l * SLOTS + s]);
                    self.occ[l] &= !(1u64 << s);
                    self.count -= drained.len();
                    for e in drained {
                        self.place(e);
                    }
                    cascaded = true;
                    break;
                }
            }
            assert!(
                cascaded,
                "wheel count is non-zero but every level scan came up empty"
            );
        }
    }

    /// Remove and return the globally earliest (at, seq) entry.
    fn pop_min(&mut self) -> Option<Entry<T>> {
        let slot = self.settle();
        let Some(s) = slot else {
            // Wheel empty: drain the overflow heap directly. Re-basing
            // on the popped time keeps *future* pushes in the wheel.
            let e = self.overflow.pop()?.0;
            self.base = self.base.max(e.at);
            return Some(e);
        };
        let bucket = &mut self.slots[s];
        if bucket.len() > 1 && self.sorted0 & (1 << s) == 0 {
            sort_desc(bucket);
            self.sorted0 |= 1 << s;
        }
        let min_seq = bucket.last().expect("occupied slot").seq;
        if let Some(o) = self.overflow.peek() {
            if (o.0.at, o.0.seq) < (self.base, min_seq) {
                return self.overflow.pop().map(|e| e.0);
            }
        }
        let e = bucket.pop().expect("occupied slot");
        if bucket.is_empty() {
            self.occ[0] &= !(1u64 << s);
            self.sorted0 &= !(1u64 << s);
        }
        self.count -= 1;
        Some(e)
    }

    fn pop(&mut self) -> Option<Entry<T>> {
        let e = self.pop_min()?;
        if e.lane != LANE_NONE {
            let lane = &mut self.lanes[e.lane as usize];
            if let Some(next) = lane.chain.pop_front() {
                self.place(next);
            } else {
                lane.head_out = false;
            }
        }
        Some(e)
    }
}

enum Imp<T> {
    Wheel(Box<Wheel<T>>),
    Heap(BinaryHeap<HeapEntry<T>>),
}

/// A time-ordered queue of simulation events.
pub struct EventQueue<T> {
    seq: u64,
    len: usize,
    imp: Imp<T>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue (timing wheel).
    #[must_use]
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Wheel)
    }

    /// Create an empty queue with an explicit implementation.
    #[must_use]
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue {
            seq: 0,
            len: 0,
            imp: match kind {
                QueueKind::Wheel => Imp::Wheel(Box::new(Wheel::new())),
                QueueKind::Heap => Imp::Heap(BinaryHeap::new()),
            },
        }
    }

    /// Which implementation this queue runs on.
    #[must_use]
    pub fn kind(&self) -> QueueKind {
        match self.imp {
            Imp::Wheel(_) => QueueKind::Wheel,
            Imp::Heap(_) => QueueKind::Heap,
        }
    }

    /// Schedule `item` at time `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.push_keyed(at, seq, item);
    }

    /// Schedule `item` at time `at` with a caller-supplied tie-break
    /// key: among events at the same time, smaller keys pop first.
    ///
    /// [`push`] derives its key from a queue-internal push counter,
    /// which makes tie order depend on *global* push order — fine for a
    /// single queue, but not reproducible when the same logical event
    /// stream is split across several queues (the parallel simulator's
    /// islands). Callers that need partition-independent ordering mint
    /// their own keys (netsim packs `(source station, per-source
    /// counter)`) and must not mix keyed and unkeyed pushes in one
    /// queue.
    ///
    /// [`push`]: EventQueue::push
    pub fn push_keyed(&mut self, at: SimTime, key: u64, item: T) {
        self.len += 1;
        let e = Entry {
            at: at.as_micros(),
            seq: key,
            lane: LANE_NONE,
            item,
        };
        match &mut self.imp {
            Imp::Wheel(w) => w.place(e),
            Imp::Heap(h) => h.push(HeapEntry(e)),
        }
    }

    /// Schedule `item` at time `at` on FIFO fast-path `lane` (netsim:
    /// the sender's uplink). Pop order is identical to [`push`]; lanes
    /// only make nondecreasing per-producer pushes cheaper.
    ///
    /// [`push`]: EventQueue::push
    pub fn push_lane(&mut self, lane: usize, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.push_lane_keyed(lane, at, seq, item);
    }

    /// [`push_lane`] with a caller-supplied tie-break key (see
    /// [`push_keyed`] for the key discipline).
    ///
    /// [`push_lane`]: EventQueue::push_lane
    /// [`push_keyed`]: EventQueue::push_keyed
    pub fn push_lane_keyed(&mut self, lane: usize, at: SimTime, key: u64, item: T) {
        self.len += 1;
        match &mut self.imp {
            Imp::Wheel(w) => w.push_lane(lane, at.as_micros(), key, item),
            Imp::Heap(h) => h.push(HeapEntry(Entry {
                at: at.as_micros(),
                seq: key,
                lane: LANE_NONE,
                item,
            })),
        }
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = match &mut self.imp {
            Imp::Wheel(w) => w.pop(),
            Imp::Heap(h) => h.pop().map(|e| e.0),
        }?;
        self.len -= 1;
        Some((SimTime::from_micros(e.at), e.item))
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.imp {
            Imp::Wheel(w) => w.peek_at().map(SimTime::from_micros),
            Imp::Heap(h) => h.peek().map(|e| SimTime::from_micros(e.0.at)),
        }
    }

    /// Number of pending events (including lane-parked followers).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> [QueueKind; 2] {
        [QueueKind::Wheel, QueueKind::Heap]
    }

    #[test]
    fn pops_in_time_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime(30), "c");
            q.push(SimTime(10), "a");
            q.push(SimTime(20), "b");
            assert_eq!(q.pop(), Some((SimTime(10), "a")));
            assert_eq!(q.pop(), Some((SimTime(20), "b")));
            assert_eq!(q.pop(), Some((SimTime(30), "c")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..100 {
                q.push(SimTime(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((SimTime(5), i)));
            }
        }
    }

    #[test]
    fn peek_and_len() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.push(SimTime(7), ());
            assert_eq!(q.peek_time(), Some(SimTime(7)));
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Beyond 2^36 µs the wheel spills to its overflow heap; order
        // must be seamless across the boundary, and near events pushed
        // *after* far ones still pop first.
        let mut q = EventQueue::new();
        let far = 1u64 << 40;
        q.push(SimTime(far), "far");
        q.push(SimTime(far + 1), "farther");
        q.push(SimTime(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.pop(), Some((SimTime(3), "near")));
        assert_eq!(q.pop(), Some((SimTime(far), "far")));
        // After draining past the horizon, new near-future pushes are
        // wheel-resident again (relative to the new base).
        q.push(SimTime(far + 2), "near-again");
        assert_eq!(q.pop(), Some((SimTime(far + 1), "farther")));
        assert_eq!(q.pop(), Some((SimTime(far + 2), "near-again")));
        assert!(q.is_empty());
    }

    #[test]
    fn push_behind_base_still_pops_first() {
        // The generic API allows pushing earlier than the last pop; the
        // heap handles it naturally, the wheel via overflow.
        let mut q = EventQueue::new();
        q.push(SimTime(100), "late");
        assert_eq!(q.pop(), Some((SimTime(100), "late")));
        q.push(SimTime(5), "past");
        q.push(SimTime(200), "future");
        assert_eq!(q.pop(), Some((SimTime(5), "past")));
        assert_eq!(q.pop(), Some((SimTime(200), "future")));
    }

    #[test]
    fn lanes_preserve_order_and_len() {
        let mut q = EventQueue::new();
        // One lane pushing in nondecreasing times, interleaved with
        // plain pushes at tying times.
        q.push_lane(0, SimTime(10), "lane-a");
        q.push(SimTime(10), "plain");
        q.push_lane(0, SimTime(10), "lane-b");
        q.push_lane(0, SimTime(20), "lane-c");
        assert_eq!(q.len(), 4);
        // Sequence order within the tie: lane-a, plain, lane-b.
        assert_eq!(q.pop(), Some((SimTime(10), "lane-a")));
        assert_eq!(q.pop(), Some((SimTime(10), "plain")));
        assert_eq!(q.pop(), Some((SimTime(10), "lane-b")));
        assert_eq!(q.pop(), Some((SimTime(20), "lane-c")));
        assert!(q.is_empty());
    }

    #[test]
    fn lane_out_of_order_push_falls_back() {
        let mut q = EventQueue::new();
        q.push_lane(3, SimTime(50), "head");
        // Earlier than the lane tail: must not ride the FIFO chain.
        q.push_lane(3, SimTime(40), "early");
        q.push_lane(3, SimTime(60), "tail");
        assert_eq!(q.pop(), Some((SimTime(40), "early")));
        assert_eq!(q.pop(), Some((SimTime(50), "head")));
        assert_eq!(q.pop(), Some((SimTime(60), "tail")));
    }

    #[test]
    fn interleaved_hold_matches_heap() {
        // A deterministic pseudo-random hold workload, cross-checked
        // wheel vs heap (the full property test lives in
        // tests/queue_equiv.rs).
        let mut wheel = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = 0u64;
        for i in 0..2_000u64 {
            let r = next();
            if r % 3 == 0 && !wheel.is_empty() {
                let a = wheel.pop().unwrap();
                let b = heap.pop().unwrap();
                assert_eq!(a, b);
                t = a.0.as_micros();
            } else {
                // Mix near, tying, far-future and lane pushes.
                let at = match r % 5 {
                    0 => SimTime(t),
                    1 => SimTime(t + r % 50),
                    2 => SimTime(t + r % 100_000),
                    3 => SimTime(t + (1 << 37) + r % 1000),
                    _ => SimTime(t + r % 64),
                };
                if r % 7 < 3 {
                    let lane = (r % 4) as usize;
                    wheel.push_lane(lane, at, i);
                    heap.push_lane(lane, at, i);
                } else {
                    wheel.push(at, i);
                    heap.push(at, i);
                }
            }
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.len(), heap.len());
        }
        while let Some(a) = wheel.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.is_empty());
    }
}
