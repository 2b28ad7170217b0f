//! Freeze-once / serve-many: the on-disk snapshot pipeline.
//!
//! The paper's detectors assume a graph is loaded once and served to many
//! batch and incremental runs.  This example plays both roles of that
//! deployment across a file boundary:
//!
//! 1. **Ingest** (run once): generate a synthetic knowledge graph, freeze
//!    it, and write shared + sharded snapshot files with `SnapshotWriter`.
//! 2. **Serve** (run per detector process): `MmapSnapshot::load` /
//!    `MmapShardedSnapshot::load` map the files zero-copy and run batch
//!    (`dect`/`pdect_sharded`) and incremental (`inc_dect`) detection
//!    straight off the mapped arrays — no re-freeze, no deserialisation.
//!
//! Run with `cargo run -p ngd-examples --example persist_pipeline`.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_knowledge, generate_update, KnowledgeConfig, UpdateConfig};
use ngd_detect::{dect_on, delta_neighborhood, inc_dect_snapshot, pdect_sharded, DetectorConfig};
use ngd_examples::section;
use ngd_graph::persist::{MmapShardedSnapshot, MmapSnapshot, SnapshotWriter};
use ngd_graph::{DeltaOverlay, PartitionStrategy};
use std::time::Instant;

fn main() {
    // Per-process file names: a concurrent run must not truncate a file
    // this process still has memory-mapped.
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("ngd-pipeline-{}.snap", std::process::id()));
    let sharded_path = dir.join(format!("ngd-pipeline-{}-sharded.snap", std::process::id()));

    // ---- Ingest process: build, freeze, persist. ------------------------
    section("ingest: freeze once, write snapshot files");
    let graph = generate_knowledge(&KnowledgeConfig::dbpedia_like(8).with_seed(0xF11E)).graph;
    let sigma = RuleSet::from_rules(vec![paper::phi1(1), paper::phi2(), paper::phi3()]);
    println!(
        "graph: |V| = {}, |E| = {}, ‖Σ‖ = {}",
        graph.node_count(),
        graph.edge_count(),
        sigma.len()
    );

    let start = Instant::now();
    let snapshot = graph.freeze();
    let freeze_time = start.elapsed();

    let writer = SnapshotWriter::new();
    let bytes = writer.write(&snapshot, &snap_path).expect("write snapshot");
    let sharded = snapshot.clone().into_sharded(
        ngd_graph::partition::partition(&snapshot, 4, PartitionStrategy::EdgeCut),
        sigma.diameter(),
    );
    let sharded_bytes = writer
        .write_sharded(&sharded, &sharded_path)
        .expect("write sharded snapshot");
    println!(
        "froze in {freeze_time:?}; wrote {bytes} bytes (shared) + {sharded_bytes} bytes (sharded, 4 fragments)"
    );

    // Reference answer from the in-memory snapshot, for the cross-check.
    let reference = dect_on(&sigma, &snapshot);

    // ---- Serving process: map the file, detect from disk. ---------------
    section("serve: mmap-load and detect from the file");
    let start = Instant::now();
    let mapped = MmapSnapshot::load(&snap_path).expect("load snapshot");
    let load_time = start.elapsed();
    println!(
        "mapped {} bytes in {load_time:?} ({}x faster than the freeze)",
        mapped.file_len(),
        (freeze_time.as_nanos() / load_time.as_nanos().max(1))
    );

    let report = dect_on(&sigma, &mapped);
    println!(
        "batch detection off the file: {} violations in {:?}",
        report.violation_count(),
        report.elapsed
    );
    assert_eq!(report.violations, reference.violations);

    let mapped_sharded = MmapShardedSnapshot::load(&sharded_path).expect("load sharded snapshot");
    let sharded_report = pdect_sharded(&sigma, &mapped_sharded, &DetectorConfig::default());
    println!(
        "sharded detection off the file: {} violations across {} fragment workers \
         ({} remote fetches)",
        sharded_report.violation_count(),
        mapped_sharded.fragment_count(),
        sharded_report.cost.remote_fetches
    );
    assert_eq!(sharded_report.violations, reference.violations);

    // ---- Incremental monitoring against the mapped snapshot. ------------
    section("serve: incremental ΔG batches against the mapped snapshot");
    let delta = generate_update(&graph, &UpdateConfig::fraction(0.05).with_seed(21));
    let inc = inc_dect_snapshot(&sigma, &mapped, &delta);
    println!(
        "ΔG with {} ops: ΔVio⁺ = {}, ΔVio⁻ = {} in {:?} (dΣ-neighbourhood: {} nodes)",
        delta.len(),
        inc.delta.added.len(),
        inc.delta.removed.len(),
        inc.elapsed,
        delta_neighborhood(
            &DeltaOverlay::new(&mapped, &delta),
            &delta,
            sigma.diameter()
        )
    );

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&sharded_path).ok();
    println!("\nfreeze once, serve many: every detector ran off the snapshot files.");
}
