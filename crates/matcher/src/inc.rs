//! The building blocks of update-driven incremental matching (`IncMatch` /
//! `IncSubMatch`, Section 6.2).
//!
//! Given a batch update `ΔG`, incremental detection computes
//!
//! * `ΔVio⁺` — violations of `G ⊕ ΔG` whose matches use at least one
//!   **inserted** edge (edge insertions can only introduce violations), and
//! * `ΔVio⁻` — violations of `G` whose matches use at least one **deleted**
//!   edge (edge deletions can only remove violations),
//!
//! by expanding **update pivots** ([`update_pivots`]): for every unit update
//! `(v, v')` and every pattern edge `(u, u')` with matching labels, the
//! partial solution `{u ↦ v, u' ↦ v'}` is expanded with the seeded matcher
//! ([`Matcher::expand_seeded_into`](crate::Matcher::expand_seeded_into)),
//! with every updated edge ranked below the pivot's forbidden
//! ([`edge_ranks`]).  Expansion only ever walks adjacency lists of
//! already-matched nodes, so the work is confined to the
//! `d_Q`-neighbourhood of the updated edges — this is what makes the
//! enclosing `IncDect` algorithm *localizable*.
//!
//! Each candidate violation is finally checked against the "other side"
//! graph ([`pattern_matches`]) so that `ΔVio⁺`/`ΔVio⁻` are exactly the set
//! differences of the paper's definition even in degenerate cases (e.g. an
//! edge deleted and re-inserted in the same batch).  The detector in
//! `ngd-detect` composes these pieces; the tests below compose them the
//! same way, one rule at a time, against a batch recomputation.

use ngd_core::Ngd;
use ngd_graph::{EdgeRef, GraphView, IdMap, NodeId, WILDCARD};

/// An update pivot: a pattern edge together with the updated graph edge it
/// may be matched onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatePivot {
    /// Index of the pattern edge within the rule's pattern.
    pub pattern_edge: usize,
    /// The updated graph edge.
    pub edge: EdgeRef,
}

/// Enumerate the update pivots of a rule triggered by the given unit
/// updates: pairs of (pattern edge, updated edge) whose edge label and
/// endpoint labels are compatible.
pub fn update_pivots<'a, G: GraphView>(
    rule: &'a Ngd,
    graph: &'a G,
    edges: impl Iterator<Item = EdgeRef> + 'a,
) -> impl Iterator<Item = UpdatePivot> + 'a {
    edges.flat_map(move |edge| {
        rule.pattern
            .edges()
            .iter()
            .enumerate()
            .filter(move |(_, pe)| {
                if pe.label != edge.label {
                    return false;
                }
                if !graph.contains_node(edge.src) || !graph.contains_node(edge.dst) {
                    return false;
                }
                let src_label = rule.pattern.label(pe.src);
                let dst_label = rule.pattern.label(pe.dst);
                (src_label == WILDCARD || src_label == graph.label(edge.src))
                    && (dst_label == WILDCARD || dst_label == graph.label(edge.dst))
            })
            .map(move |(idx, _)| UpdatePivot {
                pattern_edge: idx,
                edge,
            })
            .collect::<Vec<_>>()
    })
}

/// Is `assignment` a (not necessarily violating) match of the rule's
/// pattern in `graph`?  Used to turn "violations containing an updated
/// edge" into exact set-difference semantics: a violation found in
/// `G ⊕ ΔG` only belongs to `ΔVio⁺` if it is *not* a match in `G` (and
/// symmetrically for `ΔVio⁻`).
pub fn pattern_matches<G: GraphView>(rule: &Ngd, graph: &G, assignment: &[NodeId]) -> bool {
    for (var, &node) in rule.pattern.vars().zip(assignment.iter()) {
        if !graph.contains_node(node) {
            return false;
        }
        let want = rule.pattern.label(var);
        if want != WILDCARD && want != graph.label(node) {
            return false;
        }
    }
    rule.pattern.edges().iter().all(|pe| {
        graph.has_edge(
            assignment[pe.src.index()],
            assignment[pe.dst.index()],
            pe.label,
        )
    })
}

/// Rank every updated edge by its position in the batch, for the pivot
/// de-duplication of Section 6.2: a match containing several updated edges
/// is enumerated only from its lowest-ranked one.
pub fn edge_ranks(edges: &[EdgeRef]) -> IdMap<EdgeRef, usize> {
    let mut ranks = IdMap::with_capacity_and_hasher(edges.len(), Default::default());
    for (idx, &edge) in edges.iter().enumerate() {
        ranks.entry(edge).or_insert(idx);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchn::{find_violations, FastPathTally, Matcher};
    use crate::violation::{DeltaViolations, Violation, ViolationSet};
    use ngd_core::paper;
    use ngd_core::RuleSet;
    use ngd_graph::{intern, AttrMap, BatchUpdate, Graph, Value};

    /// Recompute ΔVio from scratch (batch on both graphs) — the oracle the
    /// incremental computation must agree with.
    fn oracle_delta(rule: &Ngd, g_old: &Graph, g_new: &Graph) -> DeltaViolations {
        let old = find_violations(rule, g_old);
        let new = find_violations(rule, g_new);
        DeltaViolations {
            added: new.difference(&old),
            removed: old.difference(&new),
        }
    }

    /// `ΔVio` for one rule, expanded from the update pivots of both
    /// halves of the batch, and the search-tree nodes it took.
    fn rule_delta(
        rule: &Ngd,
        g_old: &Graph,
        g_new: &Graph,
        inserted: &[EdgeRef],
        deleted: &[EdgeRef],
    ) -> (DeltaViolations, usize) {
        let mut expanded = 0;
        let mut side = |search: &Graph, other: &Graph, edges: &[EdgeRef]| {
            let ranks = edge_ranks(edges);
            let mut found = ViolationSet::new();
            for (rank, &edge) in edges.iter().enumerate() {
                let matcher = Matcher::new(&rule.pattern, search).with_forbidden(&ranks, rank);
                for pivot in update_pivots(rule, search, std::iter::once(edge)) {
                    let pe = rule.pattern.edges()[pivot.pattern_edge];
                    let seeds = [(pe.src, edge.src), (pe.dst, edge.dst)];
                    let mut tally = FastPathTally::default();
                    let stats = matcher.expand_seeded_into(&seeds, rule, &mut tally, &mut |m| {
                        if !pattern_matches(rule, other, m) {
                            found.insert(Violation::new(rule.id.clone(), m.to_vec()));
                        }
                    });
                    expanded += stats.expanded;
                }
            }
            found
        };
        let added = side(g_new, g_old, inserted);
        let removed = side(g_old, g_new, deleted);
        (DeltaViolations { added, removed }, expanded)
    }

    #[test]
    fn pivots_require_matching_labels() {
        let (g4, _) = paper::figure1_g4();
        let rule = paper::phi4(1, 1, 10_000);
        // A `keys` edge triggers pivots only for the two `keys` pattern edges.
        let keys_edge = g4.edges().find(|e| e.label == intern("keys")).unwrap();
        let pivots: Vec<_> = update_pivots(&rule, &g4, std::iter::once(keys_edge)).collect();
        assert_eq!(pivots.len(), 2);
        // A bogus edge label triggers nothing.
        let bogus = EdgeRef::new(keys_edge.src, keys_edge.dst, intern("unrelated"));
        assert_eq!(update_pivots(&rule, &g4, std::iter::once(bogus)).count(), 0);
    }

    #[test]
    fn deleting_an_edge_removes_the_violation() {
        // Example 6 of the paper: deleting the status edge of the fake
        // account removes the φ4 violation.
        let (g_old, fake) = paper::figure1_g4();
        let rule = paper::phi4(1, 1, 10_000);
        let status_edge = g_old
            .out_neighbors(fake)
            .iter()
            .find(|&&(_, l)| l == intern("status"))
            .map(|&(n, l)| EdgeRef::new(fake, n, l))
            .unwrap();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(status_edge.src, status_edge.dst, status_edge.label);
        let g_new = delta.applied_to(&g_old).unwrap();

        let (result, _) = rule_delta(&rule, &g_old, &g_new, &[], &[status_edge]);
        assert_eq!(result.removed.len(), 1);
        assert!(result.added.is_empty());
        assert_eq!(result, oracle_delta(&rule, &g_old, &g_new));
    }

    #[test]
    fn inserting_edges_introduces_violations() {
        // Start from G2 with the populationTotal edge missing: no violation.
        let (g_full, village) = paper::figure1_g2();
        let rule = paper::phi2();
        let total_edge = g_full
            .out_neighbors(village)
            .iter()
            .find(|&&(_, l)| l == intern("populationTotal"))
            .map(|&(n, l)| EdgeRef::new(village, n, l))
            .unwrap();
        let mut remove = BatchUpdate::new();
        remove.delete_edge(total_edge.src, total_edge.dst, total_edge.label);
        let g_old = remove.applied_to(&g_full).unwrap();
        assert!(find_violations(&rule, &g_old).is_empty());

        // Re-insert the edge: the violation appears and is found
        // incrementally from the inserted edge alone.
        let mut insert = BatchUpdate::new();
        insert.insert_edge(total_edge.src, total_edge.dst, total_edge.label);
        let g_new = insert.applied_to(&g_old).unwrap();
        let (result, _) = rule_delta(&rule, &g_old, &g_new, &[total_edge], &[]);
        assert_eq!(result.added.len(), 1);
        assert!(result.removed.is_empty());
        assert_eq!(result, oracle_delta(&rule, &g_old, &g_new));
    }

    #[test]
    fn example6_insertions_that_satisfy_the_rule_add_nothing() {
        // Example 6: inserting a *consistent* new account (low followers but
        // status 0... here: a small account with status 1 and tiny gap) does
        // not create new violations under φ4 with a large threshold.
        let (g_old, _) = paper::figure1_g4();
        let rule = paper::phi4(1, 1, 10_000);
        let company = g_old.nodes_with_label(intern("company"))[0];

        let mut delta = BatchUpdate::new();
        let base = g_old.node_count();
        let acct = delta.add_node(base, intern("account"), AttrMap::new());
        let following = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(21_000))]),
        );
        let follower = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(70_000))]),
        );
        let status = delta.add_node(
            base,
            intern("boolean"),
            AttrMap::from_pairs([("val", Value::Bool(true))]),
        );
        delta.insert_edge(acct, company, intern("keys"));
        delta.insert_edge(acct, following, intern("following"));
        delta.insert_edge(acct, follower, intern("follower"));
        delta.insert_edge(acct, status, intern("status"));
        let g_new = delta.applied_to(&g_old).unwrap();

        let inserted: Vec<EdgeRef> = delta.insertions().collect();
        let (result, _) = rule_delta(&rule, &g_old, &g_new, &inserted, &[]);
        // The pre-existing fake-account violation is NOT reported (it does
        // not involve an inserted edge and was already in Vio(Σ, G)).
        assert!(
            result
                .added
                .iter()
                .all(|v| v.nodes.contains(&acct) || v.nodes.contains(&follower)),
            "only update-driven violations may appear: {result:?}"
        );
        assert_eq!(result, oracle_delta(&rule, &g_old, &g_new));
    }

    #[test]
    fn mixed_batch_matches_oracle() {
        let (g_old, fake) = paper::figure1_g4();
        let rule = paper::phi4(1, 1, 10_000);
        let company = g_old.nodes_with_label(intern("company"))[0];

        // Delete the fake account's keys edge AND add a brand-new very
        // popular verified account (which makes *other* accounts look fake).
        let mut delta = BatchUpdate::new();
        delta.delete_edge(fake, company, intern("keys"));
        let base = g_old.node_count();
        let acct = delta.add_node(base, intern("account"), AttrMap::new());
        let following = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(1_000_000))]),
        );
        let follower = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(2_000_000))]),
        );
        let status = delta.add_node(
            base,
            intern("boolean"),
            AttrMap::from_pairs([("val", Value::Bool(true))]),
        );
        delta.insert_edge(acct, company, intern("keys"));
        delta.insert_edge(acct, following, intern("following"));
        delta.insert_edge(acct, follower, intern("follower"));
        delta.insert_edge(acct, status, intern("status"));
        let g_new = delta.applied_to(&g_old).unwrap();

        let inserted: Vec<EdgeRef> = delta.insertions().collect();
        let deleted: Vec<EdgeRef> = delta.deletions().collect();
        let (result, _) = rule_delta(&rule, &g_old, &g_new, &inserted, &deleted);
        assert_eq!(result, oracle_delta(&rule, &g_old, &g_new));
        assert!(
            !result.removed.is_empty(),
            "fake-account violation is removed"
        );
        assert!(
            !result.added.is_empty(),
            "new popular account exposes the real one"
        );
    }

    #[test]
    fn whole_rule_set_delta() {
        let (g_old, fake) = paper::figure1_g4();
        let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000), paper::phi1(1)]);
        let status_node = g_old
            .out_neighbors(fake)
            .iter()
            .find(|&&(_, l)| l == intern("status"))
            .map(|&(n, _)| n)
            .unwrap();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(fake, status_node, intern("status"));
        let g_new = delta.applied_to(&g_old).unwrap();
        let deleted: Vec<EdgeRef> = delta.deletions().collect();
        let mut result = DeltaViolations::new();
        let mut expanded = 0;
        for rule in sigma.iter() {
            let (delta, nodes) = rule_delta(rule, &g_old, &g_new, &[], &deleted);
            result.extend(delta);
            expanded += nodes;
        }
        assert_eq!(result.removed.len(), 1);
        assert!(result.added.is_empty());
        assert!(expanded > 0);
    }

    #[test]
    fn noop_update_produces_empty_delta() {
        let (g, _) = paper::figure1_g2();
        let rule = paper::phi2();
        let (result, _) = rule_delta(&rule, &g, &g, &[], &[]);
        assert!(result.added.is_empty());
        assert!(result.removed.is_empty());
    }
}
