//! Batch detectors `Dect` (sequential) and `PDect` (parallel).
//!
//! `Dect` computes `Vio(Σ, G)` by running the violation matcher rule by
//! rule — the yardstick every incremental algorithm is compared against.
//!
//! `PDect` is the parallel batch baseline (the paper extends the GFD
//! detection algorithms of SIGMOD'16 to NGDs): the match space of every
//! rule is partitioned by the candidate nodes of the rule's most selective
//! pattern variable, and the resulting work units are processed by a fixed
//! pool of OS threads.  Each unit expands the seeded partial solution
//! exactly like the sequential matcher, so `PDect` returns the same
//! violation set as `Dect`.
//!
//! Both detectors run over any [`GraphView`] via [`dect_on`] /
//! [`pdect_on`]; the [`Graph`]-taking entry points freeze the graph into a
//! [`CsrSnapshot`](ngd_graph::CsrSnapshot) first, making the
//! label-partitioned CSR representation
//! the default hot path.

use crate::config::{AlgorithmKind, DetectorConfig};
use crate::cost::CostLedger;
use crate::report::{DetectionReport, SearchStats};
use ngd_core::{Ngd, RuleSet, Var};
use ngd_graph::{Graph, GraphView, NodeId, WILDCARD};
use ngd_match::{compile_rule_plan, MatchPlan, Matcher, PlanCache, Violation, ViolationSet};
use std::sync::Arc;
use std::time::Instant;

/// Sequential batch detection on the default (CSR snapshot) path.
pub fn dect(sigma: &RuleSet, graph: &Graph) -> DetectionReport {
    let snapshot = graph.freeze();
    dect_on(sigma, &snapshot)
}

/// Sequential batch detection over any graph view: compute `Vio(Σ, G)`.
pub fn dect_on<G: GraphView>(sigma: &RuleSet, graph: &G) -> DetectionReport {
    dect_on_cached(sigma, graph, &PlanCache::new())
}

/// [`dect_on`] with a caller-owned [`PlanCache`]: compiled match plans are
/// reused across calls against the same snapshot epoch (the serving path).
pub fn dect_on_cached<G: GraphView>(
    sigma: &RuleSet,
    graph: &G,
    cache: &PlanCache,
) -> DetectionReport {
    let start = Instant::now();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let mut violations = ViolationSet::new();
    let mut stats = SearchStats::default();
    for rule in sigma.iter() {
        let rule_start = Instant::now();
        let plan = cache.get_or_compile(&rule.id, &[], || compile_rule_plan(rule, graph, &[]));
        let matcher = Matcher::new(&rule.pattern, graph).with_plan(plan);
        let (vio, s) = matcher.find_violations_with_stats(rule);
        violations.extend(vio);
        stats.merge(&s.into());
        // Per-rule match latency: one registry lookup per rule per run,
        // nowhere near the per-candidate hot path.
        if ngd_obs::enabled() {
            ngd_obs::global()
                .histogram(&format!("detect.rule.{}.match_ns", rule.id))
                .record_duration(rule_start.elapsed());
        }
    }
    stats.record_plan_cache(hits0, misses0, cache);
    DetectionReport {
        algorithm: AlgorithmKind::Dect,
        violations,
        elapsed: start.elapsed(),
        stats,
        cost: CostLedger::default(),
        processors: 1,
    }
    .observed()
}

/// The most selective pattern variable of a rule: the one with the fewest
/// label-compatible candidates in `graph`.
fn root_variable<G: GraphView>(rule: &Ngd, graph: &G) -> Option<Var> {
    rule.pattern.vars().min_by_key(|&v| {
        let label = rule.pattern.label(v);
        if label == WILDCARD {
            graph.node_count()
        } else {
            graph.label_count(label)
        }
    })
}

/// Candidate nodes for a pattern variable.
fn candidates_for<G: GraphView>(rule: &Ngd, graph: &G, var: Var) -> Vec<NodeId> {
    let label = rule.pattern.label(var);
    if label == WILDCARD {
        graph.node_ids_vec()
    } else {
        graph.nodes_with_label_vec(label)
    }
}

/// Parallel batch detection on the default (CSR snapshot) path.
pub fn pdect(sigma: &RuleSet, graph: &Graph, config: &DetectorConfig) -> DetectionReport {
    let snapshot = graph.freeze();
    pdect_on(sigma, &snapshot, config)
}

/// Parallel batch detection over any graph view with `config.processors`
/// worker threads.
pub fn pdect_on<G: GraphView + Sync>(
    sigma: &RuleSet,
    graph: &G,
    config: &DetectorConfig,
) -> DetectionReport {
    pdect_on_cached(sigma, graph, config, &PlanCache::new())
}

/// The batch pivots of one rule: every candidate of its root variable,
/// expanded through one compiled plan.
struct RootedRule<'a> {
    rule: &'a Ngd,
    root: Var,
    plan: Arc<MatchPlan>,
    candidates: Vec<NodeId>,
    /// Position of the rule's first candidate in the concatenation of all
    /// rules' candidates, which is what the workers stride over.
    offset: usize,
}

/// [`pdect_on`] with a caller-owned [`PlanCache`].  Each rule's plan is
/// compiled (or fetched) once, before the worker pool starts, and the one
/// `Arc<MatchPlan>` is shared by every batch pivot of that rule.
pub fn pdect_on_cached<G: GraphView + Sync>(
    sigma: &RuleSet,
    graph: &G,
    config: &DetectorConfig,
    cache: &PlanCache,
) -> DetectionReport {
    let start = Instant::now();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    // One work unit per (rule, candidate of the rule's root variable); one
    // compiled plan per rule, shared across all of its pivots.
    let mut rooted: Vec<RootedRule<'_>> = Vec::new();
    let mut units = 0usize;
    for rule in sigma.iter() {
        if let Some(root) = root_variable(rule, graph) {
            let plan = cache.get_or_compile(&rule.id, &[root], || {
                compile_rule_plan(rule, graph, &[root])
            });
            let candidates = candidates_for(rule, graph, root);
            let offset = units;
            units += candidates.len();
            rooted.push(RootedRule {
                rule,
                root,
                plan,
                candidates,
                offset,
            });
        }
    }

    let p = config.processors.max(1);
    let rooted_ref = &rooted;
    let (found, mut stats) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p)
            .map(|worker| {
                scope.spawn(move || {
                    let mut found: Vec<Violation> = Vec::new();
                    let mut stats = SearchStats::default();
                    for work in rooted_ref {
                        // Strided assignment over the concatenated units
                        // keeps the per-thread load even when consecutive
                        // units (same rule) have similar cost.  One matcher
                        // and one set of search buffers serve the stride.
                        let first = (worker + p - work.offset % p) % p;
                        let stride = work.candidates.iter().copied().skip(first).step_by(p);
                        let matcher = Matcher::new(&work.rule.pattern, graph)
                            .with_plan(Arc::clone(&work.plan));
                        let run_stats =
                            matcher.expand_roots(work.root, stride, work.rule, &mut |m| {
                                found.push(Violation::new(work.rule.id.clone(), m.to_vec()));
                            });
                        stats.merge(&SearchStats::from(run_stats));
                    }
                    (found, stats)
                })
            })
            .collect();
        let mut found: Vec<Violation> = Vec::new();
        let mut stats = SearchStats::default();
        for handle in handles {
            let (part, s) = handle.join().expect("PDect worker must not panic");
            found.extend(part);
            stats.merge(&s);
        }
        (found, stats)
    });
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
        processors: config.processors,
    }
    .observed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngd_core::paper;

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
            assert_eq!(parallel.processors, p);
        }
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

    #[test]
    fn root_variable_prefers_selective_labels() {
        let graph = paper_graph();
        let rule = paper::phi4(1, 1, 10_000);
        let root = root_variable(&rule, &graph).unwrap();
        // `company` has a single node in the combined graph; `integer` has
        // many — the root must be the company variable.
        assert_eq!(rule.pattern.name(root), "w");
    }
}
