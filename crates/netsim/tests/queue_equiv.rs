//! Property: the timing wheel and the binary heap are observationally
//! identical event queues.
//!
//! The heap is the pre-overhaul implementation and serves as the
//! oracle: both queues replay the same random interleaving of `push`,
//! `push_lane`, and `pop`, and must agree on every popped `(time,
//! item)` pair, every `peek_time`, and every `len` — i.e. exact
//! `(time, seq)` FIFO-within-tick order. The time distribution
//! deliberately stresses the wheel's corner cases: duplicate
//! timestamps (FIFO tie-break), times beyond the 2^36 µs wheel
//! horizon (overflow heap), and small times pushed after larger ones
//! were popped (behind the advanced wheel base).

use netsim::{EventQueue, QueueKind, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    PushLane(usize, u64),
    Pop,
}

/// Event times. Repeated arms stand in for weights (the vendored
/// `prop_oneof!` draws uniformly).
fn times() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..5_000,
        0u64..5_000,
        0u64..5_000,
        Just(1_234u64), // exact duplicates: FIFO tie-break
        Just(1_234u64),
        0u64..64, // behind the base once pops advanced it
        0u64..64,
        (1u64 << 36)..(1u64 << 40), // beyond the wheel horizon: overflow heap
        0u64..(1u64 << 22),         // upper wheel levels
    ]
    .boxed()
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // A few lanes, reused often enough that chains actually form;
    // times are *not* forced monotonic per lane, so the out-of-order
    // fallback path is exercised too.
    let op = prop_oneof![
        times().prop_map(Op::Push),
        times().prop_map(Op::Push),
        (0usize..6, times()).prop_map(|(l, t)| Op::PushLane(l, t)),
        (0usize..6, times()).prop_map(|(l, t)| Op::PushLane(l, t)),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
    ];
    proptest::collection::vec(op, 1..400)
}

proptest! {
    #[test]
    fn wheel_matches_heap(ops in ops()) {
        let mut wheel = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut item = 0u64;
        for op in ops {
            match op {
                Op::Push(t) => {
                    wheel.push(SimTime::from_micros(t), item);
                    heap.push(SimTime::from_micros(t), item);
                    item += 1;
                }
                Op::PushLane(l, t) => {
                    wheel.push_lane(l, SimTime::from_micros(t), item);
                    heap.push_lane(l, SimTime::from_micros(t), item);
                    item += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    prop_assert_eq!(wheel.pop(), heap.pop());
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        // Drain both: the full remaining order must agree.
        while let Some(e) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(e));
        }
        prop_assert_eq!(wheel.pop(), None);
    }
}

/// An operation of the keyed and tie-heavy arms. Pushes carry a key
/// prefix; a keyed run pushes with key `(prefix << 20) | item`, so keys
/// are unique but not in push order.
#[derive(Debug, Clone, Copy)]
enum KeyedOp {
    /// At a time, with a key prefix.
    Push(u64, u64),
    /// On a lane, at a time.
    PushLane(usize, u64),
    /// `d` µs after the last popped time, with a key prefix: `d = 0`
    /// lands in the tick being drained.
    PushNow(u64, u64),
    Pop,
}

/// Replay `ops` on a wheel and on the heap oracle, with caller keys
/// (`keyed`) or the queue's own push counter, and compare every pop,
/// peek and length, then the whole remaining order.
fn replay(ops: impl IntoIterator<Item = KeyedOp>, keyed: bool) {
    let mut wheel = EventQueue::with_kind(QueueKind::Wheel);
    let mut heap = EventQueue::with_kind(QueueKind::Heap);
    let (mut item, mut now) = (0u64, 0u64);
    for op in ops {
        let (lane, at, prefix) = match op {
            KeyedOp::Pop => {
                assert_eq!(wheel.peek_time(), heap.peek_time());
                let popped = wheel.pop();
                assert_eq!(popped, heap.pop());
                now = popped.map_or(now, |(t, _)| t.as_micros());
                continue;
            }
            KeyedOp::Push(t, prefix) => (None, t, prefix),
            KeyedOp::PushNow(d, prefix) => (None, now + d, prefix),
            // One prefix per lane: its keys grow in push order, as
            // netsim's `(station, counter)` keys do on a station's
            // uplink lane.
            KeyedOp::PushLane(l, t) => (Some(l), t, 150 * (l as u64 + 1)),
        };
        let (at, key) = (SimTime::from_micros(at), (prefix << 20) | item);
        for q in [&mut wheel, &mut heap] {
            match (lane, keyed) {
                (None, true) => q.push_keyed(at, key, item),
                (None, false) => q.push(at, item),
                (Some(l), true) => q.push_lane_keyed(l, at, key, item),
                (Some(l), false) => q.push_lane(l, at, item),
            }
        }
        item += 1;
        assert_eq!(wheel.len(), heap.len());
    }
    while let Some(e) = heap.pop() {
        assert_eq!(wheel.pop(), Some(e));
    }
    assert_eq!(wheel.pop(), None);
}

/// Pushes at the given times: plain, on a lane, or into the tick
/// being drained.
fn keyed_pushes(times: fn() -> BoxedStrategy<u64>) -> BoxedStrategy<KeyedOp> {
    prop_oneof![
        (times(), 0u64..1024).prop_map(|(t, k)| KeyedOp::Push(t, k)),
        (times(), 0u64..1024).prop_map(|(t, k)| KeyedOp::Push(t, k)),
        (0usize..6, times()).prop_map(|(l, t)| KeyedOp::PushLane(l, t)),
        (0u64..2, 0u64..1024).prop_map(|(d, k)| KeyedOp::PushNow(d, k)),
    ]
    .boxed()
}

/// A few adjacent ticks, so hundreds of events share each one.
fn tied_times() -> BoxedStrategy<u64> {
    prop_oneof![1_000u64..1_004, Just(1_000u64), 0u64..2].boxed()
}

proptest! {
    #[test]
    fn keyed_pushes_match_heap(
        ops in proptest::collection::vec(
            prop_oneof![keyed_pushes(times), keyed_pushes(times), Just(KeyedOp::Pop)],
            1..400,
        )
    ) {
        replay(ops, true);
    }

    #[test]
    fn tied_ticks_match_heap(
        fill in proptest::collection::vec(keyed_pushes(tied_times), 200..600),
        mixed in proptest::collection::vec(
            prop_oneof![keyed_pushes(tied_times), Just(KeyedOp::Pop), Just(KeyedOp::Pop)],
            1..800,
        ),
        keyed in 0u8..2,
    ) {
        replay(fill.into_iter().chain(mixed), keyed == 1);
    }
}
