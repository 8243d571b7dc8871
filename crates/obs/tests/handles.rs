//! Pre-registered handles against the by-name path: whichever way a
//! value is recorded, and from however many threads, the snapshot is
//! the one the same totals give through `add` / `observe_with` alone.

use obs::{buckets, Registry};
use proptest::collection::vec;
use proptest::prelude::*;

const NAMES: [&str; 3] = ["t.a", "t.b", "t.c"];

#[derive(Debug, Clone)]
enum Op {
    Add(usize, u64),
    Inc(usize),
    HandleAdd(usize, u64),
    HandleInc(usize),
    Observe(usize, u64),
    HandleObserve(usize, u64),
}

fn op() -> impl Strategy<Value = Op> {
    let name = 0..NAMES.len();
    let delta = 0u64..1_000;
    let sample = || prop_oneof![0u64..2_000_000, any::<u64>()];
    prop_oneof![
        (name.clone(), delta.clone()).prop_map(|(n, d)| Op::Add(n, d)),
        name.clone().prop_map(Op::Inc),
        (name.clone(), delta).prop_map(|(n, d)| Op::HandleAdd(n, d)),
        name.clone().prop_map(Op::HandleInc),
        (name.clone(), sample()).prop_map(|(n, v)| Op::Observe(n, v)),
        (name, sample()).prop_map(|(n, v)| Op::HandleObserve(n, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_interleaving_snapshots_like_add_alone(ops in vec(op(), 0..80)) {
        let mixed = Registry::new();
        let plain = Registry::new();
        // Registered up front, as an instrumented component does; the
        // ones never bumped must leave no trace in the snapshot.
        let counters: Vec<_> = NAMES.iter().map(|n| mixed.counter_handle(n)).collect();
        let hists: Vec<_> = NAMES
            .iter()
            .map(|n| mixed.histogram_handle(n, buckets::TIME_US))
            .collect();
        for op in &ops {
            match *op {
                Op::Add(n, d) => {
                    mixed.add(NAMES[n], d);
                    plain.add(NAMES[n], d);
                }
                Op::Inc(n) => {
                    mixed.inc(NAMES[n]);
                    plain.add(NAMES[n], 1);
                }
                Op::HandleAdd(n, d) => {
                    counters[n].add(d);
                    plain.add(NAMES[n], d);
                }
                Op::HandleInc(n) => {
                    counters[n].inc();
                    plain.add(NAMES[n], 1);
                }
                Op::Observe(n, v) => {
                    mixed.observe(NAMES[n], v);
                    plain.observe_with(NAMES[n], buckets::TIME_US, v);
                }
                Op::HandleObserve(n, v) => {
                    hists[n].observe(v);
                    plain.observe_with(NAMES[n], buckets::TIME_US, v);
                }
            }
        }
        prop_assert_eq!(mixed.snapshot().to_json(), plain.snapshot().to_json());
        for n in NAMES {
            prop_assert_eq!(mixed.counter(n), plain.counter(n));
            prop_assert_eq!(mixed.histogram(n), plain.histogram(n));
        }
        // Reset leaves the handles live: the same ops give the same
        // snapshot again.
        mixed.reset();
        prop_assert_eq!(mixed.snapshot().to_json(), Registry::new().snapshot().to_json());
        counters[0].add(3);
        hists[1].observe(u64::MAX);
        hists[1].observe(u64::MAX);
        let again = Registry::new();
        again.add(NAMES[0], 3);
        again.observe(NAMES[1], u64::MAX);
        again.observe(NAMES[1], u64::MAX);
        prop_assert_eq!(mixed.snapshot().to_json(), again.snapshot().to_json());
    }
}

#[test]
fn concurrent_bumps_from_four_threads_sum_exactly() {
    const THREADS: u64 = 4;
    const BUMPS: u64 = 200_000;
    let reg = Registry::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            // Each thread registers for itself: handles of one name
            // share their storage.
            let reg = &reg;
            s.spawn(move || {
                let c = reg.counter_handle("c");
                let h = reg.histogram_handle("h", buckets::COUNT);
                for i in 0..BUMPS {
                    c.add(t + 1);
                    h.observe(i % 300);
                }
            });
        }
    });
    assert_eq!(reg.counter("c"), BUMPS * (1..=THREADS).sum::<u64>());
    let h = reg.histogram("h").unwrap();
    assert_eq!(h.count(), THREADS * BUMPS);
    let per_thread: u128 = (0..BUMPS).map(|i| u128::from(i % 300)).sum();
    assert_eq!(h.sum(), u128::from(THREADS) * per_thread);
    assert_eq!(h.counts().iter().sum::<u64>(), h.count());
    // 257..=299 of every 300 overflow the last COUNT bound (256).
    let overflow = (0..BUMPS).filter(|i| i % 300 > 256).count() as u64;
    assert_eq!(*h.counts().last().unwrap(), THREADS * overflow);
}

#[test]
fn handles_of_a_disabled_registry_do_nothing() {
    let reg = Registry::disabled();
    reg.counter_handle("c").inc();
    reg.histogram_handle("h", buckets::COUNT).observe(1);
    assert_eq!(reg.counter("c"), 0);
    assert!(reg.snapshot().counters.is_empty());
}

#[test]
fn flush_primitives_override_a_handle() {
    let reg = Registry::new();
    let c = reg.counter_handle("c");
    c.add(5);
    reg.counter_set("c", 2);
    assert_eq!(reg.counter("c"), 2);
    c.inc();
    assert_eq!(reg.counter("c"), 3);
    // A bump of zero creates the counter, as `add(name, 0)` does.
    reg.counter_handle("z").add(0);
    assert_eq!(reg.snapshot().counters.get("z"), Some(&0));
}
