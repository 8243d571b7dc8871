//! The reference event queue: the binary heap the simulator ran on
//! before its timing wheel.
//!
//! [`HeapQueue`] orders events by `(time, key)` and nothing else — no
//! levels, no lanes, no overflow — which is what makes it the oracle
//! `netsim`'s `tests/queue_equiv.rs` replays the wheel against, and the
//! baseline of the `event_queue_hold_10k` and `event_queue_ties`
//! Criterion groups. [`Queue`] is the surface the two share, so a test
//! or bench can drive either through one generic body.

use netsim::{EventQueue, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The event-queue surface [`EventQueue`] and [`HeapQueue`] share:
/// among events at one time, smaller keys pop first, and unkeyed
/// pushes are keyed by a per-queue push counter.
pub trait Queue<T> {
    /// Schedule `item` at time `at`.
    fn push(&mut self, at: SimTime, item: T);
    /// Schedule `item` at time `at` with tie-break key `key`.
    fn push_keyed(&mut self, at: SimTime, key: u64, item: T);
    /// Schedule `item` at time `at` on FIFO lane `lane`.
    fn push_lane(&mut self, lane: usize, at: SimTime, item: T);
    /// [`Queue::push_lane`] with tie-break key `key`.
    fn push_lane_keyed(&mut self, lane: usize, at: SimTime, key: u64, item: T);
    /// Pop the earliest event, if any.
    fn pop(&mut self) -> Option<(SimTime, T)>;
    /// Time of the next event without removing it.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Queue<T> for EventQueue<T> {
    fn push(&mut self, at: SimTime, item: T) {
        EventQueue::push(self, at, item);
    }
    fn push_keyed(&mut self, at: SimTime, key: u64, item: T) {
        EventQueue::push_keyed(self, at, key, item);
    }
    fn push_lane(&mut self, lane: usize, at: SimTime, item: T) {
        EventQueue::push_lane(self, lane, at, item);
    }
    fn push_lane_keyed(&mut self, lane: usize, at: SimTime, key: u64, item: T) {
        EventQueue::push_lane_keyed(self, lane, at, key, item);
    }
    fn pop(&mut self) -> Option<(SimTime, T)> {
        EventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

/// One pending event, min-ordered on `(at, key)` for `BinaryHeap`
/// (which is a max-heap).
struct Pending<T> {
    at: u64,
    key: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// A `BinaryHeap<(time, key)>` event queue. Lanes are accepted and
/// ignored: they only make a queue faster, never change its order.
pub struct HeapQueue<T> {
    seq: u64,
    heap: BinaryHeap<Pending<T>>,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        HeapQueue {
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Queue<T> for HeapQueue<T> {
    fn push(&mut self, at: SimTime, item: T) {
        let key = self.seq;
        self.seq += 1;
        self.push_keyed(at, key, item);
    }
    fn push_keyed(&mut self, at: SimTime, key: u64, item: T) {
        let at = at.as_micros();
        self.heap.push(Pending { at, key, item });
    }
    fn push_lane(&mut self, _lane: usize, at: SimTime, item: T) {
        self.push(at, item);
    }
    fn push_lane_keyed(&mut self, _lane: usize, at: SimTime, key: u64, item: T) {
        self.push_keyed(at, key, item);
    }
    fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.heap.pop()?;
        Some((SimTime::from_micros(e.at), e.item))
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime::from_micros(e.at))
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
}
