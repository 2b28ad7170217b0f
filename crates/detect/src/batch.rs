//! Batch detectors `Dect` (sequential) and `PDect` (parallel).
//!
//! `Dect` computes `Vio(Σ, G)` by running each rule's unseeded match plan
//! — the yardstick every incremental algorithm is compared against.
//!
//! `PDect` is the same search with its match space split over `p` workers
//! (the paper extends the GFD detection algorithms of SIGMOD'16 to NGDs):
//! the caller draws each rule's first-step candidates once, from the plan's
//! seed choice, and every worker expands its stride of them exactly as the
//! sequential search would.  `PDect` therefore returns `Dect`'s violations
//! and the same search counts at every `p`, and [`dect`] is this body on
//! one worker, inline on the caller.
//!
//! Both detectors run over any [`GraphView`] via [`dect_on`] /
//! [`pdect_on`]; the [`Graph`]-taking entry points freeze the graph into a
//! [`CsrSnapshot`](ngd_graph::CsrSnapshot) first (its `.ngds` bytes, laid
//! out in memory), making the label-partitioned CSR representation the
//! default hot path.

use crate::config::{AlgorithmKind, DetectorConfig};
use crate::cost::CostLedger;
use crate::report::{DetectionReport, SearchStats};
use ngd_core::RuleSet;
use ngd_graph::{Graph, GraphView};
use ngd_match::{compile_rule_plan, Matcher, PlanCache, Violation, ViolationSet};
use std::sync::Arc;
use std::time::Instant;

/// Sequential batch detection on the default (CSR snapshot) path.
pub fn dect(sigma: &RuleSet, graph: &Graph) -> DetectionReport {
    let snapshot = graph.freeze();
    dect_on(sigma, &snapshot)
}

/// Sequential batch detection over any graph view: compute `Vio(Σ, G)`.
pub fn dect_on<G: GraphView + Sync>(sigma: &RuleSet, graph: &G) -> DetectionReport {
    dect_on_cached(sigma, graph, &PlanCache::new())
}

/// [`dect_on`] with a caller-owned [`PlanCache`]: compiled match plans are
/// reused across calls against the same snapshot epoch (the serving path).
/// One cache serves one (Σ, epoch): it keys plans by rule id, so a cache
/// shared with another rule set can hand this Σ a plan of another rule.
///
/// This is the `PDect` body on one worker, which never leaves the calling
/// thread.
pub fn dect_on_cached<G: GraphView + Sync>(
    sigma: &RuleSet,
    graph: &G,
    cache: &PlanCache,
) -> DetectionReport {
    let config = DetectorConfig::with_processors(1);
    DetectionReport {
        algorithm: AlgorithmKind::Dect,
        ..pdect_on_cached(sigma, graph, &config, cache)
    }
}

/// Parallel batch detection on the default (CSR snapshot) path.
pub fn pdect(sigma: &RuleSet, graph: &Graph, config: &DetectorConfig) -> DetectionReport {
    let snapshot = graph.freeze();
    pdect_on(sigma, &snapshot, config)
}

/// Parallel batch detection over any graph view with `config.processors`
/// workers.
pub fn pdect_on<G: GraphView + Sync>(
    sigma: &RuleSet,
    graph: &G,
    config: &DetectorConfig,
) -> DetectionReport {
    pdect_on_cached(sigma, graph, config, &PlanCache::new())
}

/// [`pdect_on`] with a caller-owned [`PlanCache`]: the one batch body,
/// which every `dect*` and `pdect*` entry point ends in.  The caller is
/// worker 0 and `p − 1` scoped threads are spawned.  One cache serves one
/// (Σ, epoch), as on [`dect_on_cached`].
pub fn pdect_on_cached<G: GraphView + Sync>(
    sigma: &RuleSet,
    graph: &G,
    config: &DetectorConfig,
    cache: &PlanCache,
) -> DetectionReport {
    let start = Instant::now();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let p = config.processors.max(1);
    // The caller fetches each rule's unseeded plan and draws its first
    // step's candidates once, so the depth-0 counts are the sequential's.
    let mut stats = SearchStats::default();
    let mut drawn = Vec::with_capacity(sigma.len());
    for rule in sigma.iter() {
        let plan = cache.get_or_compile(&rule.id, &[], || compile_rule_plan(rule, graph, &[]));
        let (roots, depth0) = Matcher::new(&rule.pattern, graph)
            .with_plan(Arc::clone(&plan))
            .first_step_candidates(rule);
        stats.merge(&depth0.into());
        drawn.push((rule, plan, roots));
    }

    let outputs = crate::on_workers(p, |worker| {
        let mut found: Vec<Violation> = Vec::new();
        let mut stats = SearchStats::default();
        let mut offset = 0;
        for (rule, plan, roots) in &drawn {
            let stride_start = Instant::now();
            // Strided over all rules' candidates end to end, so the load
            // stays even when one rule's consecutive candidates cost alike.
            let first = (worker + p - offset % p) % p;
            offset += roots.len();
            let stride = roots.iter().copied().skip(first).step_by(p);
            let matcher = Matcher::new(&rule.pattern, graph).with_plan(Arc::clone(plan));
            let run_stats = matcher.expand_roots(stride, rule, &mut |m| {
                found.push(Violation::new(rule.id.clone(), m.to_vec()));
            });
            stats.merge(&run_stats.into());
            // One registry lookup per (worker, rule) stride, nowhere near
            // the per-candidate hot path.
            if ngd_obs::enabled() {
                ngd_obs::global()
                    .histogram(&format!("detect.rule.{}.match_ns", rule.id))
                    .record_duration(stride_start.elapsed());
            }
        }
        (found, stats)
    });
    let mut found = Vec::new();
    for (part, s) in outputs {
        found.extend(part);
        stats.merge(&s);
    }
    // Distinct roots give distinct matches, so the set is built once.
    let violations: ViolationSet = found.into_iter().collect();
    stats.record_plan_cache(hits0, misses0, cache);

    let mut cost = CostLedger::default();
    cost.record_scan(stats.candidates_inspected);
    DetectionReport {
        algorithm: AlgorithmKind::PDect,
        violations,
        elapsed: start.elapsed(),
        stats,
        cost,
        processors: p,
    }
    .observed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngd_core::paper;
    use ngd_graph::NodeId;

    fn paper_graph() -> Graph {
        // Union of the four Figure-1 graphs as one dataset.
        let mut combined = Graph::new();
        for (g, _) in [
            paper::figure1_g1(),
            paper::figure1_g2(),
            paper::figure1_g3(),
            paper::figure1_g4(),
        ] {
            let offset = combined.node_count() as u32;
            for id in g.node_ids() {
                let data = g.node(id);
                combined.add_node(data.label, data.attrs.clone());
            }
            for e in g.edges() {
                combined
                    .add_edge(NodeId(e.src.0 + offset), NodeId(e.dst.0 + offset), e.label)
                    .unwrap();
            }
        }
        combined
    }

    #[test]
    fn dect_finds_all_figure1_violations() {
        let graph = paper_graph();
        let sigma = paper::paper_rule_set();
        let report = dect(&sigma, &graph);
        // φ1–φ4 each have exactly one violation in the combined graph;
        // NGD1–NGD3 have none (their entities are absent).
        assert_eq!(report.violation_count(), 4);
        assert!(report.stats.expanded > 0);
        assert_eq!(report.algorithm, AlgorithmKind::Dect);
    }

    #[test]
    fn csr_and_adjacency_paths_agree() {
        let graph = paper_graph();
        let sigma = paper::paper_rule_set();
        let adjacency = dect_on(&sigma, &graph);
        let snapshot = graph.freeze();
        let csr = dect_on(&sigma, &snapshot);
        assert_eq!(adjacency.violations, csr.violations);
        // The Graph entry point routes through the snapshot.
        assert_eq!(dect(&sigma, &graph).violations, csr.violations);
    }

    #[test]
    fn pdect_agrees_with_dect() {
        let graph = paper_graph();
        let sigma = paper::paper_rule_set();
        let sequential = dect(&sigma, &graph);
        for p in [1, 2, 4] {
            let parallel = pdect(&sigma, &graph, &DetectorConfig::with_processors(p));
            assert_eq!(
                parallel.violations, sequential.violations,
                "PDect with p={p} must agree with Dect"
            );
            assert_eq!(parallel.stats, sequential.stats, "p={p}");
            assert_eq!(parallel.processors, p);
        }
    }

    #[test]
    fn zero_processors_run_and_report_one_worker() {
        let graph = paper_graph();
        let sigma = paper::paper_rule_set();
        let report = pdect(&sigma, &graph, &DetectorConfig { processors: 0 });
        assert_eq!(report.processors, 1);
        assert_eq!(report.violations, dect(&sigma, &graph).violations);
    }

    #[test]
    fn empty_rule_set_or_graph() {
        let graph = paper_graph();
        let empty_rules = RuleSet::new();
        assert_eq!(dect(&empty_rules, &graph).violation_count(), 0);
        let empty_graph = Graph::new();
        let sigma = paper::paper_rule_set();
        assert_eq!(dect(&sigma, &empty_graph).violation_count(), 0);
        assert_eq!(
            pdect(&sigma, &empty_graph, &DetectorConfig::default()).violation_count(),
            0
        );
    }
}
