//! Freeze-once / serve-many: the on-disk snapshot pipeline.
//!
//! The paper's detectors assume a graph is loaded once and served to many
//! batch and incremental runs.  This example plays both roles of that
//! deployment across a file boundary:
//!
//! 1. **Ingest** (run once): generate a synthetic knowledge graph, freeze
//!    it, and write a snapshot file with `SnapshotWriter`.
//! 2. **Serve** (run per detector process): `MmapSnapshot::load` maps the
//!    file zero-copy and runs batch (`dect`) and incremental (`inc_dect`)
//!    detection straight off the mapped arrays — no re-freeze, no
//!    deserialisation.
//!
//! Run with `cargo run -p ngd-examples --example persist_pipeline`.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_knowledge, generate_update, KnowledgeConfig, UpdateConfig};
use ngd_detect::{dect_on, delta_neighborhood, inc_dect_snapshot};
use ngd_examples::section;
use ngd_graph::persist::{MmapSnapshot, SnapshotWriter};
use ngd_graph::DeltaOverlay;
use std::time::Instant;

fn main() {
    // Per-process file name: a concurrent run must not truncate a file
    // this process still has memory-mapped.
    let snap_path = std::env::temp_dir().join(format!("ngd-pipeline-{}.snap", std::process::id()));

    // ---- Ingest process: build, freeze, persist. ------------------------
    section("ingest: freeze once, write the snapshot file");
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

    let bytes = SnapshotWriter::new()
        .write(&snapshot, &snap_path)
        .expect("write snapshot");
    println!("froze in {freeze_time:?}; wrote {bytes} bytes");

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
    println!("\nfreeze once, serve many: every detector ran off the snapshot file.");
}
