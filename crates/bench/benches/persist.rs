//! On-disk snapshot benchmarks: freeze vs write vs mmap-load vs detect.
//!
//! Measures, on the same 11k-node synthetic knowledge graph the
//! equivalence suite uses, the costs the persist subsystem trades
//! against each other:
//!
//! * `freeze/*` — re-freezing from the mutable graph (what every process
//!   paid before snapshots could be persisted);
//! * `persist/write*` — serialising the frozen snapshot to disk
//!   (paid once, at ingest);
//! * `persist/load*` — mmap-loading a snapshot file, including checksum
//!   verification and structural validation (paid per serving process —
//!   the number the freeze-once/serve-many story rests on);
//! * `dect/*` and `incdect/*` — detection over the in-memory snapshot
//!   versus straight off the mapped file.
//!
//! Running it rewrites `BENCH_persist.json` at the repository root; CI's
//! `bench-smoke` job runs it on every PR.  The run asserts the acceptance
//! bar of the subsystem: mmap load must be at least 5× faster than a
//! re-freeze, and every detector answer off the file must be
//! byte-identical to the in-memory path.

use ngd_bench::harness::{black_box, Harness};
use ngd_core::{paper, RuleSet};
use ngd_datagen::{
    generate_knowledge, generate_rules, generate_update, KnowledgeConfig, RuleGenConfig,
    UpdateConfig,
};
use ngd_detect::{dect_on, inc_dect_snapshot};
use ngd_graph::persist::{MmapSnapshot, SnapshotWriter};

fn main() {
    // The 11k-node synthetic workload of the equivalence suite.
    let graph = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(0xC5_A11)).graph;
    assert!(graph.node_count() >= 10_000);
    let mut rules = vec![paper::phi1(1), paper::phi2(), paper::phi3(), paper::ngd3()];
    rules.extend(
        generate_rules(&graph, &RuleGenConfig::paper_style(4, 3).with_seed(11))
            .rules()
            .iter()
            .cloned(),
    );
    let sigma = RuleSet::from_rules(rules);
    let delta = generate_update(&graph, &UpdateConfig::fraction(0.02).with_seed(13));

    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("ngd-bench-persist-{}.snap", std::process::id()));

    let writer = SnapshotWriter::new();
    let snapshot = graph.freeze();
    let file_bytes = writer.write(&snapshot, &snap_path).expect("write snapshot");

    // Sanity before timing anything: detection off the file must return
    // the byte-identical answers whose speed is being compared.
    let mapped = MmapSnapshot::load(&snap_path).expect("load snapshot");
    let reference = dect_on(&sigma, &snapshot);
    assert_eq!(reference.violations, dect_on(&sigma, &mapped).violations);
    let inc_reference = inc_dect_snapshot(&sigma, &snapshot, &delta);
    let inc_mapped = inc_dect_snapshot(&sigma, &mapped, &delta);
    assert_eq!(inc_reference.delta, inc_mapped.delta);

    let mut h = Harness::new();
    println!(
        "# persist: |V| = {}, |E| = {}, ‖Σ‖ = {}, snapshot file = {} B",
        graph.node_count(),
        graph.edge_count(),
        sigma.len(),
        file_bytes
    );

    let freeze = h.bench("freeze/shared_snapshot", || {
        black_box(graph.freeze());
    });
    // The write bench targets a scratch path: `mapped` holds a live
    // MAP_SHARED mapping of the original file, and rewriting a file under
    // a mapping would be a SIGBUS hazard.
    let scratch_path = dir.join(format!(
        "ngd-bench-persist-{}-scratch.snap",
        std::process::id()
    ));
    h.bench("persist/write", || {
        black_box(writer.write(&snapshot, &scratch_path).unwrap());
    });
    let load = h.bench("persist/load_mmap", || {
        black_box(MmapSnapshot::load(&snap_path).unwrap());
    });

    let dect_csr = h.bench("dect/csr_snapshot", || {
        black_box(dect_on(&sigma, &snapshot));
    });
    let dect_mmap = h.bench("dect/mmap_snapshot", || {
        black_box(dect_on(&sigma, &mapped));
    });
    let inc_csr = h.bench("incdect/csr_snapshot", || {
        black_box(inc_dect_snapshot(&sigma, &snapshot, &delta));
    });
    let inc_mmap = h.bench("incdect/mmap_snapshot", || {
        black_box(inc_dect_snapshot(&sigma, &mapped, &delta));
    });

    let load_speedup = freeze.ns_per_iter / load.ns_per_iter;
    let dect_ratio = dect_csr.ns_per_iter / dect_mmap.ns_per_iter;
    let inc_ratio = inc_csr.ns_per_iter / inc_mmap.ns_per_iter;
    println!("mmap load vs re-freeze speedup: {load_speedup:.2}x");
    println!("dect mmap/csr throughput ratio: {dect_ratio:.2}x");
    println!("incdect mmap/csr throughput ratio: {inc_ratio:.2}x");

    let json = h.to_json(&[
        ("bench".to_string(), "persist".to_string()),
        ("nodes".to_string(), graph.node_count().to_string()),
        ("edges".to_string(), graph.edge_count().to_string()),
        ("snapshot_file_bytes".to_string(), file_bytes.to_string()),
        (
            "mmap_load_vs_refreeze_speedup".to_string(),
            format!("{load_speedup:.2}"),
        ),
        (
            "dect_mmap_vs_csr_ratio".to_string(),
            format!("{dect_ratio:.2}"),
        ),
        (
            "incdect_mmap_vs_csr_ratio".to_string(),
            format!("{inc_ratio:.2}"),
        ),
        (
            "violations".to_string(),
            reference.violation_count().to_string(),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&scratch_path).ok();

    // The acceptance bar of the subsystem: serving a snapshot from disk
    // must beat re-freezing by a wide margin, or the freeze-once /
    // serve-many architecture has silently regressed.
    assert!(
        load_speedup >= 5.0,
        "mmap load must be at least 5x faster than re-freezing (got {load_speedup:.2}x)"
    );
}
