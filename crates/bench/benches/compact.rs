//! Snapshot-compaction benchmark: merge an accumulated overlay into the
//! next epoch file versus re-freezing from the mutable graph.
//!
//! The scenario is the serving loop's maintenance moment: a daemon has
//! absorbed ~1k unit updates over the 11k-node synthetic snapshot and
//! must emit the next `.ngds` epoch.  Two ways to get there:
//!
//! * `refreeze/*` — the pre-compaction baseline: materialise `G ⊕ ΔG` as
//!   a mutable graph (clone + apply), `freeze()` it (linear passes over
//!   the adjacency lists, each run sorted) and encode the file (symbol
//!   table, every run re-sorted into file-symbol order);
//! * `compact/*` — `CompactionWriter`: merge-join the *mapped* old file's
//!   arrays with the net delta (monotone symbol remap, two-pointer run
//!   merges, attribute-blob rewrite) — no `Graph`, no freeze, no sorts
//!   over bulk data.
//!
//! Both paths must produce **byte-identical** output (asserted before any
//! timing), so the speedup is pure mechanism.  Running it rewrites
//! `BENCH_compact.json`; CI's `bench-smoke` job runs it per PR and the run
//! asserts the acceptance bar: over 20 interleaved pairs, the lower
//! quartile of re-freeze→write ÷ compaction is at least **3×**.  That bar
//! is the budget a faster freeze or encode spends, so the three stages of
//! the re-freeze side are timed on their own too (un-gated
//! `refreeze/stage/*` rows): a ratio that moves can be traced to the side
//! and the stage that moved it.

use ngd_bench::harness::{black_box, Harness};
use ngd_datagen::{generate_knowledge, generate_update, KnowledgeConfig, UpdateConfig};
use ngd_graph::persist::{CompactionWriter, MmapSnapshot, SnapshotWriter};

fn main() {
    // The 11k-node synthetic workload of the equivalence suite, with an
    // accumulated overlay of ~1k unit updates (the ISSUE's scenario).
    let graph = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(0xC5_A11)).graph;
    assert!(graph.node_count() >= 10_000);
    let delta = generate_update(&graph, &UpdateConfig::fraction(0.04).with_seed(13));
    assert!(delta.len() >= 1_000, "overlay holds {} ops", delta.len());

    let snap_path =
        std::env::temp_dir().join(format!("ngd-bench-compact-{}.ngds", std::process::id()));
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("write snapshot");
    let mapped = MmapSnapshot::load(&snap_path).expect("load snapshot");

    // Sanity before timing: the two mechanisms must agree byte-for-byte.
    let compactor = CompactionWriter::new();
    let merged = compactor
        .encode(&mapped, &delta, 1)
        .expect("compaction encodes");
    let refrozen = SnapshotWriter::with_epoch(1)
        .encode(&delta.applied_to(&graph).expect("delta applies").freeze());
    assert_eq!(merged, refrozen, "compaction must equal re-freeze→write");

    let mut h = Harness::new();
    println!(
        "# compact: |V| = {}, |E| = {}, |ΔG| = {} ({} new nodes), file = {} B",
        graph.node_count(),
        graph.edge_count(),
        delta.len(),
        delta.new_nodes.len(),
        merged.len(),
    );

    let speedup = h.ratio(
        "compact_vs_refreeze_speedup",
        ("refreeze/materialise_freeze_encode", || {
            let updated = delta.applied_to(&graph).unwrap();
            black_box(SnapshotWriter::with_epoch(1).encode(&updated.freeze()));
        }),
        ("compact/merge_encode", || {
            black_box(compactor.encode(&mapped, &delta, 1).unwrap());
        }),
    );
    let updated = delta.applied_to(&graph).unwrap();
    let frozen = updated.freeze();
    h.bench("refreeze/stage/materialise", || {
        black_box(delta.applied_to(&graph).unwrap());
    });
    h.bench("refreeze/stage/freeze", || {
        black_box(updated.freeze());
    });
    h.bench("refreeze/stage/encode", || {
        black_box(SnapshotWriter::with_epoch(1).encode(&frozen));
    });
    h.bench("compact/identity_rewrite", || {
        black_box(compactor.encode(&mapped, &Default::default(), 1).unwrap());
    });
    std::fs::remove_file(&snap_path).ok();

    // Folding ~1k updates into the 11k snapshot must beat the full
    // re-freeze→write path by a wide margin, or the merge has silently
    // degenerated into a re-freeze.
    h.write_if_met(
        "BENCH_compact.json",
        &[
            ("bench", "compact".to_string()),
            ("nodes", graph.node_count().to_string()),
            ("edges", graph.edge_count().to_string()),
            ("delta_ops", delta.len().to_string()),
            ("file_bytes", merged.len().to_string()),
        ],
        &[speedup.at_least(3.0)],
    );
}
