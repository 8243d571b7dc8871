//! Building a simulator clones one student table per station, so its
//! allocations follow the number of stations, not stations × documents.
//! This binary's global allocator counts the allocations of the calling
//! thread, so a count is exact and another test thread cannot move it.

use netsim::StationId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wdoc_dist::{BroadcastTree, DemandSim, DocSpec, LectureDoc, MigrationSim};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread; its result is dropped after
/// the count.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    n
}

const STATIONS: u32 = 1_024;

fn tree() -> BroadcastTree {
    BroadcastTree::new((0..STATIONS).map(StationId).collect(), 4)
}

fn names(docs: usize) -> impl Iterator<Item = (usize, String)> {
    (0..docs).map(|i| (i, format!("lecture-{i:02}")))
}

fn demand_sim(docs: usize) -> u64 {
    let (tree, docs): (_, Vec<DocSpec>) = (
        tree(),
        names(docs)
            .map(|(i, name)| DocSpec {
                name,
                view_bytes: 8_000,
                full_bytes: 10_000 * (i as u64 + 1),
            })
            .collect(),
    );
    allocations(|| DemandSim::new(tree, docs, 3))
}

fn migration_sim(docs: usize) -> u64 {
    let (tree, docs): (_, Vec<LectureDoc>) = (
        tree(),
        names(docs)
            .map(|(i, name)| LectureDoc {
                name,
                bytes: 10_000 * (i as u64 + 1),
            })
            .collect(),
    );
    allocations(|| MigrationSim::new(tree, docs, true))
}

#[test]
fn building_a_simulator_allocates_per_station_not_per_document() {
    let (few, many) = (demand_sim(8), demand_sim(48));
    assert_eq!(few, many, "DemandSim::new at 8 and at 48 documents");
    assert!(
        many < 2 * u64::from(STATIONS),
        "{many} allocations for {STATIONS} stations"
    );
    assert_eq!(migration_sim(8), migration_sim(48), "MigrationSim::new");
}
