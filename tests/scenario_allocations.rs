//! Heap allocations of a generated scenario's transitions.
//!
//! The closure enumerator applies every operation to every state as an
//! in-place candidate (`FiniteModel::expand_delta`). In a toggle
//! scenario half of those candidates fail (an insert of a present fact,
//! a delete of an absent one), so a failing candidate must cost no heap
//! allocation, and a successful one exactly one: its boxed undo. (The
//! model keeps each operation's steps for its undos in a slot filled on
//! the operation's first success; the test fills them first by running
//! the model's closure.)
//!
//! The binary holds a single test and counts the allocations of the
//! test's own thread through a counting global allocator. The states
//! hold 2 to 10 facts, so the fact set's B-tree stays one leaf node
//! whether a toggle inserts (at most 11 facts) or deletes (at least 1):
//! any allocation counted is the transition's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use borkin_equiv::logic::FactBase;
use borkin_equiv::workload::scenario::{Scenario, ScenarioConfig};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown is not a panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell`, which neither
// allocates nor needs a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn toggles_allocate_only_the_undo_of_a_success() {
    let scenario = Scenario::generate(ScenarioConfig::sized(0x5CE7, 1 << 12));
    assert_eq!(scenario.facts.len(), 12);
    assert_eq!(scenario.ops.len(), 24, "one insert and one delete per fact");
    let model = scenario.model("m");
    assert_eq!(model.closure(1 << 12).unwrap().len(), 1 << 12);
    let (mut failures, mut successes) = (0, 0);
    for k in 2..=10 {
        // Two fact sets of each size: the first k facts and the last k.
        for facts in [&scenario.facts[..k], &scenario.facts[12 - k..]] {
            let state: FactBase = facts.iter().cloned().collect();
            let mut scratch = state.clone();
            for op in 0..model.ops().len() {
                let before = allocations();
                match model.expand_delta(op, &mut scratch) {
                    None => {
                        assert_eq!(allocations(), before, "failing op {op} on {k} facts");
                        failures += 1;
                    }
                    Some(undo) => {
                        assert_ne!(scratch, state, "op {op} changed the state");
                        undo(&mut scratch);
                        assert_eq!(
                            allocations() - before,
                            1,
                            "op {op} on {k} facts: the boxed undo only"
                        );
                        successes += 1;
                    }
                }
                assert_eq!(scratch, state, "op {op} on {k} facts leaves the state");
            }
        }
    }
    // Every state fails exactly its 12 impossible toggles.
    assert_eq!((failures, successes), (18 * 12, 18 * 12));
}
