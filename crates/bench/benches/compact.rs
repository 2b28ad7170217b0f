//! Snapshot-compaction benchmark: merge an accumulated overlay into the
//! next epoch file versus re-freezing from the mutable graph.
//!
//! The scenario is the serving loop's maintenance moment: a daemon has
//! absorbed ~1k unit updates over the 11k-node synthetic snapshot and
//! must emit the next `.ngds` epoch.  Two ways to get there:
//!
//! * `refreeze/*` — the pre-compaction baseline: materialise `G ⊕ ΔG` as
//!   a mutable graph, `freeze()` it (hashing + sorting everything) and
//!   encode the file;
//! * `compact/*` — `CompactionWriter`: merge-join the *mapped* old file's
//!   arrays with the net delta (monotone symbol remap, two-pointer run
//!   merges, attribute-blob rewrite) — no `Graph`, no freeze, no sorts
//!   over bulk data.
//!
//! Both paths must produce **byte-identical** output (asserted before any
//! timing), so the speedup is pure mechanism.  Running it rewrites
//! `BENCH_compact.json`; CI's `bench-smoke` job runs it per PR and the run
//! asserts the acceptance bar: compaction at least **3× faster** than
//! re-freeze→write.

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

    let refreeze = h.bench("refreeze/materialise_freeze_encode", || {
        let updated = delta.applied_to(&graph).unwrap();
        black_box(SnapshotWriter::with_epoch(1).encode(&updated.freeze()));
    });
    let compact = h.bench("compact/merge_encode", || {
        black_box(compactor.encode(&mapped, &delta, 1).unwrap());
    });
    let compact_empty = h.bench("compact/identity_rewrite", || {
        black_box(compactor.encode(&mapped, &Default::default(), 1).unwrap());
    });
    let speedup = refreeze.ns_per_iter / compact.ns_per_iter;
    println!("compaction vs re-freeze→write speedup: {speedup:.2}x");

    let json = h.to_json(&[
        ("bench".to_string(), "compact".to_string()),
        ("nodes".to_string(), graph.node_count().to_string()),
        ("edges".to_string(), graph.edge_count().to_string()),
        ("delta_ops".to_string(), delta.len().to_string()),
        ("file_bytes".to_string(), merged.len().to_string()),
        (
            "compact_vs_refreeze_speedup".to_string(),
            format!("{speedup:.2}"),
        ),
        (
            "identity_rewrite_ns".to_string(),
            format!("{:.0}", compact_empty.ns_per_iter),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compact.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }

    std::fs::remove_file(&snap_path).ok();

    // The acceptance bar: folding ~1k updates into the 11k snapshot must
    // beat the full re-freeze→write path by a wide margin, or the merge
    // has silently degenerated into a re-freeze.
    assert!(
        speedup >= 3.0,
        "compaction must be at least 3x faster than re-freeze→write (got {speedup:.2}x)"
    );
}
