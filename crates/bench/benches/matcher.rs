//! Matcher micro-benchmarks: homomorphic match/violation enumeration for
//! the paper's rules, plus the CSR-snapshot versus adjacency-list
//! candidate-selection comparison.  Running this bench records the CSR
//! performance baseline in `BENCH_csr.json` at the repository root; CI's
//! `bench-smoke` job runs it per PR and asserts the acceptance bar: over
//! 20 interleaved pairs, the lower quartile of adjacency ÷ CSR on the
//! label-skewed workload is at least **1.5×**.

use ngd_bench::harness::{black_box, Harness};
use ngd_core::paper;
use ngd_datagen::{generate_knowledge, generate_social, KnowledgeConfig, SocialConfig, StdRng};
use ngd_graph::{intern, AttrMap, Graph};
use ngd_match::{find_matches, find_violations};

/// A label-skewed workload: `n` satellites spread over 8 node labels and
/// 25 edge labels, all attached to a handful of hub nodes.  Candidate
/// selection for a concrete `(label) -[label]-> (hub)` pattern must pick a
/// rare run out of very long hub adjacency lists — a scan per candidate on
/// the adjacency-list path, a binary search on the CSR path.
fn label_skew_graph(satellites: usize) -> Graph {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(0xC5A);
    let hubs: Vec<_> = (0..10)
        .map(|_| g.add_node_named("hub", AttrMap::new()))
        .collect();
    for _ in 0..satellites {
        let s = g.add_node_named(&format!("L{}", rng.gen_range(0..8usize)), AttrMap::new());
        let hub = hubs[rng.gen_range(0..hubs.len())];
        let label = format!("e{}", rng.gen_range(0..25usize));
        let _ = g.add_edge(s, hub, intern(&label));
    }
    g
}

fn skewed_pattern() -> ngd_core::Pattern {
    let mut q = ngd_core::Pattern::new();
    let x = q.add_node("x", "L3");
    let y = q.add_node("y", "hub");
    q.add_edge(x, y, "e7");
    q
}

fn main() {
    let knowledge = generate_knowledge(&KnowledgeConfig::dbpedia_like(4)).graph;
    let social = generate_social(&SocialConfig::pokec_like(1)).graph;
    let knowledge_snap = knowledge.freeze();
    let social_snap = social.freeze();

    let mut h = Harness::new();

    println!("# matcher: violation search, paper rules (CSR snapshot path)");
    for (name, rule) in [
        ("phi1", paper::phi1(1)),
        ("phi2", paper::phi2()),
        ("phi3", paper::phi3()),
        ("ngd3", paper::ngd3()),
    ] {
        h.bench(&format!("violations_knowledge_csr/{name}"), || {
            black_box(find_violations(&rule, &knowledge_snap));
        });
        h.bench(&format!("violations_knowledge_adj/{name}"), || {
            black_box(find_violations(&rule, &knowledge));
        });
    }
    let phi4 = paper::phi4(1, 1, 10_000);
    h.bench("violations_social_phi4/csr", || {
        black_box(find_violations(&phi4, &social_snap));
    });
    h.bench("violations_social_phi4/adj", || {
        black_box(find_violations(&phi4, &social));
    });
    h.bench("matches_social_phi4_pattern/csr", || {
        black_box(find_matches(&phi4.pattern, &social_snap));
    });

    println!("# matcher: label-skewed candidate selection (the CSR case)");
    let skew = label_skew_graph(120_000);
    let skew_snap = skew.freeze();
    let pattern = skewed_pattern();
    let speedup = h.ratio(
        "skewed_candidate_selection_speedup",
        ("candidate_selection_skewed/adjacency", || {
            black_box(find_matches(&pattern, &skew));
        }),
        ("candidate_selection_skewed/csr", || {
            black_box(find_matches(&pattern, &skew_snap));
        }),
    );

    h.bench("freeze/label_skew_120k_nodes", || {
        black_box(skew.freeze());
    });

    h.write_if_met(
        "BENCH_csr.json",
        &[("bench", "matcher".to_string())],
        &[speedup.at_least(1.5)],
    );
}
