//! Attribute reads off a mapped snapshot allocate nothing and keep nothing.
//!
//! `MmapSnapshot` decodes an attribute straight from the node's record in
//! the mapping on every read.  Two properties follow, and both would
//! silently regress if a per-node decode cache came back:
//!
//! 1. reading an `Int` or `Bool` attribute performs no heap allocation;
//! 2. dropping the snapshot frees the same number of blocks whether no
//!    node or every node was read.
//!
//! The counts come from a process-wide counting allocator, which is why
//! this is a test binary of its own.  Only the test thread's allocations
//! are counted, so the harness's own threads cannot disturb them.

use ngd_datagen::{generate_knowledge, KnowledgeConfig};
use ngd_graph::{GraphView, MmapSnapshot, NodeId, SnapshotWriter, Sym, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// `(allocations, frees)` of this thread while counting is on.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn note(alloc: u64, free: u64) {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = COUNTS.try_with(|counts| {
        if let Some((a, f)) = counts.get() {
            counts.set(Some((a + alloc, f + free)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting only touches a `const`-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, 0);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, 0);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, 1);
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 1);
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocations, frees)` this thread made while running `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    COUNTS.with(|counts| counts.set(Some((0, 0))));
    let result = f();
    let counts = COUNTS
        .with(|counts| counts.take())
        .expect("counting was on");
    (result, counts)
}

#[test]
fn mapped_int_and_bool_reads_allocate_nothing_and_cache_nothing() {
    let graph = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(1)).graph;
    assert_eq!(graph.node_count(), 11_100);
    let path = std::env::temp_dir().join(format!("ngd-attr-reads-{}.ngds", std::process::id()));
    SnapshotWriter::new()
        .write(&graph.freeze(), &path)
        .expect("snapshot writes");

    // Every Int/Bool attribute of every node, with the value it must read.
    let wanted: Vec<(NodeId, Sym, Value)> = graph
        .node_ids()
        .flat_map(|id| {
            graph
                .attrs(id)
                .iter()
                .filter(|(_, value)| !matches!(value, Value::Str(_)))
                .map(move |(name, value)| (id, name, value.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(wanted.len() > 5_000, "most nodes carry a numeric attribute");

    let read_all = |snapshot: &MmapSnapshot| -> usize {
        wanted
            .iter()
            .filter(|(id, name, want)| GraphView::attr(snapshot, *id, *name).as_ref() == Some(want))
            .count()
    };

    // Property 1: reading them all allocates nothing.
    let snapshot = MmapSnapshot::load(&path).expect("snapshot loads");
    let (matched, (allocs, _)) = counted(|| read_all(&snapshot));
    assert_eq!(
        matched,
        wanted.len(),
        "every read returns the graph's value"
    );
    assert_eq!(
        allocs, 0,
        "{allocs} allocations for {matched} Int/Bool reads"
    );
    drop(snapshot);

    // Property 2: what the drop frees does not depend on what was read.
    let untouched = MmapSnapshot::load(&path).expect("snapshot loads");
    let ((), (_, frees_untouched)) = counted(|| drop(untouched));
    let read = MmapSnapshot::load(&path).expect("snapshot loads");
    assert_eq!(read_all(&read), wanted.len());
    let ((), (_, frees_read)) = counted(|| drop(read));
    std::fs::remove_file(&path).ok();
    assert_eq!(
        frees_read,
        frees_untouched,
        "dropping a snapshot after {} reads frees {frees_read} blocks, untouched {frees_untouched}",
        wanted.len()
    );
}
