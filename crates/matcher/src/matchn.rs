//! The generic backtracking subgraph-homomorphism matcher (`Matchn` /
//! `SubMatchn` of Section 6.2).
//!
//! Given a pattern `Q` and a graph `G`, [`Matcher`] enumerates homomorphic
//! matches by recursively extending a partial solution one pattern node at
//! a time:
//!
//! * **matching order** — variables are ordered so that, after the first
//!   (most selective) variable, every subsequent variable is connected to
//!   an already-matched one; this lets candidates be drawn from adjacency
//!   lists instead of the whole graph (the data-locality the paper exploits);
//! * **candidate filtering** — candidates for the next variable are the
//!   correctly-labelled neighbours of an already-matched node along a
//!   connecting pattern edge, further filtered by every other pattern edge
//!   into the partial solution;
//! * **literal pruning** — when searching for *violations* of an NGD, a
//!   partial solution is abandoned as soon as a premise literal is decided
//!   false, or all consequence literals are decided true (Section 6.2,
//!   step (3)).  "As soon as" is computed once, when the plan is compiled,
//!   not on every node of the search tree: the plan's literal schedule
//!   (see [`crate::plan`]) names the one step at which each literal becomes
//!   decided, and the planned search evaluates a literal at that step only
//!   — every literal is evaluated once more where the seeds are installed,
//!   and the leaf test `is_violation` is unchanged.
//!
//! The planned search allocates nothing per search-tree node: a step with
//! one anchored run iterates the graph's own slice, a multi-anchor step
//! intersects its runs into a per-depth buffer that is reused across the
//! run, and complete matches are handed out as borrowed slices.  The
//! [`FastPathTally`] counters say, from outside, whether both fast paths
//! are engaged.
//!
//! The same engine expands the *update pivots* of [`crate::inc`] for the
//! incremental detectors, via [`Matcher::expand_seeded_into`].

use crate::plan::{self, MatchPlan, PlanStep};
use crate::violation::{Violation, ViolationSet};
use ngd_core::eval::eval_literal_partial;
use ngd_core::{Ngd, Pattern, Var};
use ngd_graph::{Dir, EdgeRef, Graph, GraphView, IdMap, NodeId, WILDCARD};
use std::borrow::Cow;
use std::sync::Arc;

/// Update-pivot de-duplication (Section 6.2, "optimization strategy").
///
/// When the incremental matcher expands the pivots of a batch update in
/// order, a match whose image contains several updated edges would be
/// enumerated once per pivot.  To enumerate it exactly once — from its
/// *lowest-ranked* updated edge — the expansion of pivot `rank` treats
/// every updated edge of rank `< below` as **forbidden**: a partial
/// solution that maps a pattern edge onto a forbidden edge is pruned, since
/// the earlier pivot already covers that match.
#[derive(Debug, Clone, Copy)]
pub struct ForbiddenEdges<'a> {
    /// Rank of every updated edge within the batch.
    pub rank: &'a IdMap<EdgeRef, usize>,
    /// Edges with a rank strictly below this value are forbidden.
    pub below: usize,
}

impl<'a> ForbiddenEdges<'a> {
    /// Is the given graph edge forbidden for this expansion?
    pub fn is_forbidden(&self, edge: &EdgeRef) -> bool {
        self.rank.get(edge).is_some_and(|&r| r < self.below)
    }
}

/// Statistics of a matching run (used by tests that assert locality and by
/// the detectors' reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of partial solutions expanded (search-tree nodes).
    pub expanded: usize,
    /// Number of candidate nodes inspected.
    pub candidates_inspected: usize,
    /// Number of complete matches emitted (before violation filtering).
    pub matches_found: usize,
    /// Number of multi-anchor gallop run intersections performed.
    pub gallop_intersections: usize,
}

/// Hit/miss tallies of the planned search's two fast paths, kept in plain
/// integers during a run and folded into the metrics registry once per run
/// ([`FastPathTally::observe`]).
///
/// `literal_evals ÷ matcher.search.expanded` well below 1 says the literal
/// schedule is engaged (a search that re-checked every literal on every
/// node reads about the number of literals); `borrowed ÷ (borrowed +
/// materialised)` says how many steps iterated the graph's own adjacency
/// run instead of a copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathTally {
    /// Literal evaluations made by the pruning checks (at seed installation
    /// and at scheduled steps; the leaf `is_violation` is not counted).
    pub literal_evals: u64,
    /// Partial solutions abandoned by a literal check.
    pub literal_pruned: u64,
    /// Steps that iterated a borrowed adjacency run.
    pub candidates_borrowed: u64,
    /// Steps that copied their candidates into a list (run intersections,
    /// seed lists, views without contiguous runs).
    pub candidates_materialised: u64,
}

impl FastPathTally {
    /// Add another tally into this one.
    pub fn merge(&mut self, other: &FastPathTally) {
        self.literal_evals += other.literal_evals;
        self.literal_pruned += other.literal_pruned;
        self.candidates_borrowed += other.candidates_borrowed;
        self.candidates_materialised += other.candidates_materialised;
    }

    /// Fold the tally into the global metrics registry
    /// (`matcher.literal.*`, `matcher.candidates.*`).
    pub fn observe(&self) {
        static EVALS: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("matcher.literal.evals");
        static PRUNED: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("matcher.literal.pruned");
        static BORROWED: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("matcher.candidates.borrowed");
        static MATERIALISED: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("matcher.candidates.materialised");
        EVALS.add(self.literal_evals);
        PRUNED.add(self.literal_pruned);
        BORROWED.add(self.candidates_borrowed);
        MATERIALISED.add(self.candidates_materialised);
    }
}

/// Where a plan step's candidates were drawn to.
enum Drawn<'g> {
    /// The step's single anchored run, borrowed from the graph.  Every
    /// anchor edge is present by construction.
    Run(&'g [NodeId]),
    /// The caller's buffer; `verified` says whether every anchor edge is
    /// already guaranteed present (so the executor can skip `has_edge`).
    Buffer { verified: bool },
}

/// A subgraph-homomorphism matcher for one pattern over one graph view.
///
/// The matcher is generic over [`GraphView`], so the same search runs over
/// the mutable adjacency-list [`Graph`], a frozen
/// [`CsrSnapshot`](ngd_graph::CsrSnapshot) — the graph's `.ngds` bytes, in
/// memory or mapped, where candidate selection is a binary search yielding
/// a contiguous slice, and the first variable can be seeded from the
/// label-triple index — or a
/// [`DeltaOverlay`](ngd_graph::DeltaOverlay).
pub struct Matcher<'g, G: GraphView = Graph> {
    pattern: &'g Pattern,
    graph: &'g G,
    forbidden: Option<ForbiddenEdges<'g>>,
    plan: Option<Arc<MatchPlan>>,
    legacy: bool,
}

impl<'g, G: GraphView> Matcher<'g, G> {
    /// Create a matcher for `pattern` over `graph`.
    pub fn new(pattern: &'g Pattern, graph: &'g G) -> Self {
        Matcher {
            pattern,
            graph,
            forbidden: None,
            plan: None,
            legacy: false,
        }
    }

    /// Prune any partial solution that maps a pattern edge onto an updated
    /// edge of rank `< below` (the incremental matchers' pivot
    /// de-duplication; see [`ForbiddenEdges`]).
    pub fn with_forbidden(mut self, rank: &'g IdMap<EdgeRef, usize>, below: usize) -> Self {
        self.forbidden = Some(ForbiddenEdges { rank, below });
        self
    }

    /// Execute runs through the given compiled plan (typically fetched from
    /// a [`crate::PlanCache`]).  The plan is used when its seed-variable
    /// set matches the run's and — for a violation search — its literal
    /// schedule was compiled for the run's rule; otherwise a fresh plan is
    /// compiled.
    pub fn with_plan(mut self, plan: Arc<MatchPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Use the pre-planner greedy order and per-candidate edge filtering.
    /// Kept as the reference implementation for the plan-equivalence suites
    /// and as the "unplanned" baseline of the planner benchmarks.
    pub fn with_legacy_order(mut self) -> Self {
        self.legacy = true;
        self
    }

    /// Compile a [`MatchPlan`] for this matcher's pattern over its graph,
    /// with `seeds` assigned before the search starts.
    pub fn compile_plan(&self, seeds: &[Var]) -> MatchPlan {
        plan::compile_plan(self.pattern, self.graph, seeds)
    }

    /// The plan a run seeded at `seed_vars` executes.  The installed plan,
    /// if the seed sets agree and — when literals will be checked — its
    /// schedule indexes this rule's literals and no other's; else a fresh
    /// one, with `rule`'s literal schedule when violations are searched and
    /// pattern-only otherwise.
    fn plan_for(
        &self,
        seed_vars: impl Iterator<Item = Var> + Clone,
        rule: Option<&Ngd>,
    ) -> Cow<'_, MatchPlan> {
        if let Some(plan) = self.plan.as_deref() {
            if plan.seeds_match(seed_vars.clone()) && rule.is_none_or(|r| plan.matches_rule(r)) {
                return Cow::Borrowed(plan);
            }
        }
        let seed_vars: Vec<Var> = seed_vars.collect();
        Cow::Owned(match rule {
            Some(rule) => plan::compile_rule_plan(rule, self.graph, &seed_vars),
            None => self.compile_plan(&seed_vars),
        })
    }

    fn label_ok(&self, var: Var, node: NodeId) -> bool {
        let want = self.pattern.label(var);
        want == WILDCARD || want == self.graph.label(node)
    }

    /// Number of label-compatible candidates for a variable (selectivity).
    fn candidate_count(&self, var: Var) -> usize {
        let label = self.pattern.label(var);
        if label == WILDCARD {
            self.graph.node_count()
        } else {
            self.graph.label_count(label)
        }
    }

    /// Compute a matching order: seeds first, then a connectivity-driven
    /// expansion preferring selective variables, then any remaining
    /// (disconnected) variables.
    fn matching_order(&self, seeds: &[Var]) -> Vec<Var> {
        let n = self.pattern.node_count();
        let mut order: Vec<Var> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        for &s in seeds {
            if !placed[s.index()] {
                placed[s.index()] = true;
                order.push(s);
            }
        }
        if order.is_empty() {
            // Pick the most selective variable to start.
            if let Some(first) = self.pattern.vars().min_by_key(|&v| self.candidate_count(v)) {
                placed[first.index()] = true;
                order.push(first);
            }
        }
        while order.len() < n {
            // Prefer an unplaced variable adjacent to a placed one, breaking
            // ties by selectivity; fall back to any unplaced variable.
            let next = self
                .pattern
                .vars()
                .filter(|v| !placed[v.index()])
                .filter(|v| self.pattern.neighbors(*v).iter().any(|n| placed[n.index()]))
                .min_by_key(|&v| self.candidate_count(v))
                .or_else(|| {
                    self.pattern
                        .vars()
                        .filter(|v| !placed[v.index()])
                        .min_by_key(|&v| self.candidate_count(v))
                });
            match next {
                Some(v) => {
                    placed[v.index()] = true;
                    order.push(v);
                }
                None => break,
            }
        }
        order
    }

    /// Are all pattern edges whose endpoints are both assigned present in
    /// the graph with the right label (and not forbidden by the pivot
    /// de-duplication, if configured)?
    fn edges_consistent(&self, assignment: &[Option<NodeId>]) -> bool {
        for edge in self.pattern.edges() {
            if let (Some(src), Some(dst)) =
                (assignment[edge.src.index()], assignment[edge.dst.index()])
            {
                if !self.graph.has_edge(src, dst, edge.label) {
                    return false;
                }
                if let Some(forbidden) = &self.forbidden {
                    if forbidden.is_forbidden(&EdgeRef::new(src, dst, edge.label)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Candidate nodes for `var` given the current partial assignment:
    /// neighbours of an already-matched variable when possible, otherwise
    /// a seed set from the triple index (CSR) or the label index.
    ///
    /// Anchored selection first *sizes* every applicable adjacency run
    /// (`O(log deg)` per run on a CSR snapshot) and materialises only the
    /// smallest — on CSR a contiguous, label-sorted slice copy rather than
    /// a filter over a heap list.
    fn candidates(
        &self,
        var: Var,
        assignment: &[Option<NodeId>],
        stats: &mut MatchStats,
    ) -> Vec<NodeId> {
        // (anchor, edge label, direction read from the anchor, run length)
        let mut best: Option<(NodeId, ngd_graph::Sym, Dir, usize)> = None;
        for edge in self.pattern.edges() {
            let Some((dir, other)) = edge.from_var(var) else {
                continue;
            };
            if let Some(anchor) = assignment[other.index()] {
                let len = self.graph.labeled_count(anchor, edge.label, dir.rev());
                if best.is_none_or(|(.., best_len)| len < best_len) {
                    best = Some((anchor, edge.label, dir.rev(), len));
                }
            }
        }
        let raw = match best {
            Some((anchor, label, dir, _)) => match self.graph.labeled_slice(anchor, label, dir) {
                Some(run) => run.to_vec(),
                None => {
                    let mut run = Vec::new();
                    self.graph
                        .for_each_labeled(anchor, label, dir, &mut |n| run.push(n));
                    run
                }
            },
            None => self.seed_candidates(var),
        };
        stats.candidates_inspected += raw.len();
        raw.into_iter().filter(|&n| self.label_ok(var, n)).collect()
    }

    /// Candidates for an unanchored variable (the search's first variable,
    /// or a variable in a disconnected pattern component).
    ///
    /// On representations with a `(node label, edge label, node label)`
    /// triple index, any incident pattern edge whose endpoint labels are
    /// both concrete narrows the seed set to nodes that actually carry a
    /// matching edge — a sound restriction, since every homomorphic image
    /// of `var` must satisfy that pattern edge.  Otherwise the label index
    /// (or the full node set, for a wildcard) is used, exactly as on the
    /// adjacency-list path.
    fn seed_candidates(&self, var: Var) -> Vec<NodeId> {
        let var_label = self.pattern.label(var);
        // (src label, edge label, dst label, end), smallest run first.
        // Wildcard labels are allowed on either side: a wildcard-labelled
        // seed variable with a concrete incident edge still seeds from the
        // (unioned) triple-index groups instead of the full node set.
        let mut best: Option<(ngd_graph::Sym, ngd_graph::Sym, ngd_graph::Sym, Dir, usize)> = None;
        for edge in self.pattern.edges() {
            let Some((end, other)) = edge.from_var(var) else {
                continue;
            };
            if other == var {
                continue;
            }
            let (src_label, dst_label) = end.src_dst(var_label, self.pattern.label(other));
            // Size the run in O(1) first; only the winner is
            // materialised (sorted + deduped) below.
            if let Some(len) = self
                .graph
                .labeled_triple_run_len(src_label, edge.label, dst_label)
            {
                if best.is_none_or(|(.., l)| len < l) {
                    best = Some((src_label, edge.label, dst_label, end, len));
                }
            }
        }
        if let Some((src_label, edge_label, dst_label, end, len)) = best {
            // Only follow the triple index when it actually narrows the
            // seed set below the label partition.
            let label_bound = if var_label == WILDCARD {
                self.graph.node_count()
            } else {
                self.graph.label_count(var_label)
            };
            if len <= label_bound {
                if let Some(list) = self
                    .graph
                    .labeled_triple_endpoints(src_label, edge_label, dst_label, end)
                {
                    return list;
                }
            }
        }
        if var_label == WILDCARD {
            self.graph.node_ids_vec()
        } else {
            self.graph.nodes_with_label_vec(var_label)
        }
    }

    /// Enumerate every match that violates the rule (`h ⊨ X`, `h ⊭ Y`),
    /// with literal-based pruning.  The rule's pattern must be the matcher's
    /// pattern.
    pub fn find_violations(&self, rule: &Ngd) -> ViolationSet {
        self.find_violations_with_stats(rule).0
    }

    /// As [`Matcher::find_violations`], additionally returning the search
    /// statistics of the run.
    pub fn find_violations_with_stats(&self, rule: &Ngd) -> (ViolationSet, MatchStats) {
        let mut out = ViolationSet::new();
        let stats = self.run_observed(&[], Some(rule), &mut |m| {
            out.insert(Violation::new(rule.id.clone(), m.to_vec()));
        });
        (out, stats)
    }

    /// Enumerate matches (or violations, if `rule` is given) that extend the
    /// given seed assignment.  Returns the matches and the search
    /// statistics.
    pub fn expand_seeded(
        &self,
        seeds: &[(Var, NodeId)],
        rule: Option<&Ngd>,
    ) -> (Vec<Vec<NodeId>>, MatchStats) {
        let mut out = Vec::new();
        let stats = self.run_observed(seeds, rule, &mut |m| out.push(m.to_vec()));
        (out, stats)
    }

    /// The first half of [`Matcher::find_violations_with_stats`]: check the
    /// literals no variable decides, expand the empty partial solution and
    /// draw the candidates of the unseeded plan's first step (from its seed
    /// choice — the triple index or the label partition).  Returns them with
    /// the statistics of that depth-0 expansion; no candidates when a
    /// literal already prunes the whole search.
    ///
    /// [`Matcher::expand_roots`] over the returned candidates is the second
    /// half: the two runs' statistics add up to the one-call search's.
    pub fn first_step_candidates(&self, rule: &Ngd) -> (Vec<NodeId>, MatchStats) {
        let mut roots = Vec::new();
        let mut stats = MatchStats::default();
        let n = self.pattern.node_count();
        if n == 0 {
            return (roots, stats);
        }
        let plan = self.plan_for(std::iter::empty(), Some(rule));
        let mut tally = FastPathTally::default();
        if self.install_seeds(&[], Some(rule), &mut vec![None; n], &mut tally) {
            stats.expanded += 1;
            self.draw_seeds(&plan.steps[0], &mut stats, &mut roots);
            tally.candidates_materialised += 1;
        }
        tally.observe();
        (roots, stats)
    }

    /// Search below each of `roots` as the first step of `rule`'s unseeded
    /// plan, handing each violation to `emit`.  A root goes through the
    /// same checks as any candidate of that step — its label, the step's
    /// self-loops and the literals scheduled on it — and a root the view
    /// does not contain is skipped.  One plan lookup and one set of search
    /// buffers serve the whole call.
    ///
    /// This is the batch detectors' inner loop: a worker's stride of the
    /// candidates [`Matcher::first_step_candidates`] drew.
    pub fn expand_roots(
        &self,
        roots: impl IntoIterator<Item = NodeId>,
        rule: &Ngd,
        emit: &mut dyn FnMut(&[NodeId]),
    ) -> MatchStats {
        if self.pattern.node_count() == 0 {
            return MatchStats::default();
        }
        let plan = self.plan_for(std::iter::empty(), Some(rule));
        let first = &plan.steps[0];
        let mut search = PlannedSearch::new(self, &plan, Some(rule), emit);
        for node in roots {
            let root = std::slice::from_ref(&node);
            if self.graph.contains_node(node) {
                search.try_each(first, 0, root, false);
            }
        }
        search.tally.observe();
        search.stats
    }

    /// Is the partial assignment still viable: all decided pattern edges
    /// present, and (when searching for violations of `rule`) not pruned by
    /// any literal?  This is the **full** check — every pattern edge and
    /// every literal — applied where seeds or pivots are installed; after
    /// that, an extension by one plan step only needs
    /// [`Matcher::step_viable`].
    pub fn partial_viable(&self, rule: Option<&Ngd>, assignment: &[Option<NodeId>]) -> bool {
        self.edges_consistent(assignment)
            && rule.is_none_or(|r| !self.pruned(r, assignment, &mut FastPathTally::default()))
    }

    /// Is the extension of a viable partial assignment by the variable of
    /// `plan.steps[depth]` (already written into `assignment`) still
    /// viable?  Checks exactly what the step newly decides — its anchor and
    /// self-loop edges and the literals the plan scheduled on it — which,
    /// for an assignment that was viable before the step, is equivalent to
    /// [`Matcher::partial_viable`] (see [`crate::plan`]).  This is the test
    /// the recursive search applies to every candidate.  A plan that was
    /// not compiled for `rule` carries no usable schedule; it falls back to
    /// the full check.
    pub fn step_viable(
        &self,
        plan: &MatchPlan,
        depth: usize,
        rule: Option<&Ngd>,
        assignment: &[Option<NodeId>],
        tally: &mut FastPathTally,
    ) -> bool {
        let step = &plan.steps[depth];
        match rule {
            Some(rule) if !plan.matches_rule(rule) => self.partial_viable(Some(rule), assignment),
            _ => {
                self.step_consistent(step, false, assignment)
                    && rule.is_none_or(|r| !self.step_pruned(step, r, assignment, tally))
            }
        }
    }

    /// Does a node satisfy the label constraint of a pattern variable?
    pub fn node_matches_var(&self, var: Var, node: NodeId) -> bool {
        self.graph.contains_node(node) && self.label_ok(var, node)
    }

    /// [`Matcher::expand_seeded`] for a caller that runs many seeded
    /// searches: each violation of `rule` is handed to `emit` as a borrowed
    /// slice, and the fast-path tallies are added to `tally` instead of the
    /// metrics registry, so the caller folds them once.  This is the
    /// incremental detectors' inner loop: one call per update pivot.
    pub fn expand_seeded_into(
        &self,
        seeds: &[(Var, NodeId)],
        rule: &Ngd,
        tally: &mut FastPathTally,
        emit: &mut dyn FnMut(&[NodeId]),
    ) -> MatchStats {
        self.run(seeds, Some(rule), tally, emit)
    }

    /// [`Matcher::run`] with its fast-path tally folded into the metrics
    /// registry.
    fn run_observed(
        &self,
        seeds: &[(Var, NodeId)],
        rule: Option<&Ngd>,
        emit: &mut dyn FnMut(&[NodeId]),
    ) -> MatchStats {
        let mut tally = FastPathTally::default();
        let stats = self.run(seeds, rule, &mut tally, emit);
        tally.observe();
        stats
    }

    /// Core search driver.
    fn run(
        &self,
        seeds: &[(Var, NodeId)],
        rule: Option<&Ngd>,
        tally: &mut FastPathTally,
        emit: &mut dyn FnMut(&[NodeId]),
    ) -> MatchStats {
        let n = self.pattern.node_count();
        if n == 0 {
            return MatchStats::default();
        }
        let seed_vars = seeds.iter().map(|&(v, _)| v);
        if self.legacy {
            let mut stats = MatchStats::default();
            let mut assignment: Vec<Option<NodeId>> = vec![None; n];
            if self.install_seeds(seeds, rule, &mut assignment, tally) {
                let order = self.matching_order(&seed_vars.collect::<Vec<_>>());
                self.search(&order, 0, &mut assignment, rule, emit, &mut stats, tally);
            }
            return stats;
        }
        let plan = self.plan_for(seed_vars, rule);
        let mut search = PlannedSearch::new(self, &plan, rule, emit);
        search.run_seeded(seeds);
        tally.merge(&search.tally);
        search.stats
    }

    /// Write `seeds` into `assignment` and validate them: nodes present and
    /// correctly labelled, no variable seeded with two nodes, every pattern
    /// edge among the seeds present, and no literal the seeds already
    /// decide pruning the match.  Already-seeded variables are skipped
    /// inside the search (this also handles duplicate seed variables
    /// safely).
    fn install_seeds(
        &self,
        seeds: &[(Var, NodeId)],
        rule: Option<&Ngd>,
        assignment: &mut [Option<NodeId>],
        tally: &mut FastPathTally,
    ) -> bool {
        for &(var, node) in seeds {
            if !self.graph.contains_node(node) || !self.label_ok(var, node) {
                return false;
            }
            if assignment[var.index()].is_some_and(|existing| existing != node) {
                return false;
            }
            assignment[var.index()] = Some(node);
        }
        self.edges_consistent(assignment) && rule.is_none_or(|r| !self.pruned(r, assignment, tally))
    }

    /// Should the partial solution be pruned based on the rule's literals?
    /// The full check: every literal, whatever the assignment binds.
    fn pruned(&self, rule: &Ngd, assignment: &[Option<NodeId>], tally: &mut FastPathTally) -> bool {
        let mut eval = |literal| {
            tally.literal_evals += 1;
            eval_literal_partial(literal, self.graph, assignment)
        };
        // A premise literal decided false ⇒ the match cannot satisfy X;
        // every consequence literal decided true ⇒ the match satisfies Y.
        let pruned = rule.premise.iter().any(|l| eval(l) == Ok(false))
            || (!rule.consequence.is_empty()
                && rule.consequence.iter().all(|l| eval(l) == Ok(true)));
        tally.literal_pruned += u64::from(pruned);
        pruned
    }

    /// The scheduled part of [`Matcher::pruned`]: only the literals `step`
    /// decides (its variable is already written into `assignment`).  The
    /// plan must be bound to `rule` ([`MatchPlan::matches_rule`]).
    fn step_pruned(
        &self,
        step: &PlanStep,
        rule: &Ngd,
        assignment: &[Option<NodeId>],
        tally: &mut FastPathTally,
    ) -> bool {
        let mut eval = |literal| {
            tally.literal_evals += 1;
            eval_literal_partial(literal, self.graph, assignment)
        };
        let pruned = step
            .premise_checks
            .iter()
            .any(|&i| eval(&rule.premise[i]) == Ok(false))
            || (step.consequence_check && rule.consequence.iter().all(|l| eval(l) == Ok(true)));
        tally.literal_pruned += u64::from(pruned);
        pruned
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        order: &[Var],
        depth: usize,
        assignment: &mut Vec<Option<NodeId>>,
        rule: Option<&Ngd>,
        emit: &mut dyn FnMut(&[NodeId]),
        stats: &mut MatchStats,
        tally: &mut FastPathTally,
    ) {
        stats.expanded += 1;
        if depth == order.len() {
            let complete: Vec<NodeId> = assignment.iter().map(|n| n.unwrap()).collect();
            stats.matches_found += 1;
            if rule.is_none_or(|r| ngd_core::is_violation(r, self.graph, &complete)) {
                emit(&complete);
            }
            return;
        }
        let var = order[depth];
        if assignment[var.index()].is_some() {
            // Seed variable already assigned (can happen when seeds overlap
            // the natural order); just descend.
            return self.search(order, depth + 1, assignment, rule, emit, stats, tally);
        }
        let candidates = self.candidates(var, assignment, stats);
        for node in candidates {
            assignment[var.index()] = Some(node);
            let consistent = self.edges_consistent(assignment)
                && rule.is_none_or(|r| !self.pruned(r, assignment, tally));
            if consistent {
                self.search(order, depth + 1, assignment, rule, emit, stats, tally);
            }
            assignment[var.index()] = None;
        }
    }

    /// Draw the candidates of an unanchored plan step into `buf`, from its
    /// compiled seed choice.
    fn draw_seeds(&self, step: &PlanStep, stats: &mut MatchStats, buf: &mut Vec<NodeId>) {
        *buf = match &step.seed {
            Some(choice) => plan::seed_nodes(choice, self.pattern.label(step.var), self.graph),
            None => self.seed_candidates(step.var),
        };
        // Seed-run size distribution: once per seeded step, so the
        // histogram record is off the per-candidate hot path.
        static SEED_RUN: ngd_obs::LazyHistogram =
            ngd_obs::LazyHistogram::new("matcher.seed_run.size");
        SEED_RUN.record(buf.len() as u64);
        stats.candidates_inspected += buf.len();
    }

    /// Draw the (not yet label-filtered) candidates of one plan step: the
    /// step's one anchored run as a borrowed slice, else — into `buf` — the
    /// gallop intersection of two or more anchored slices, the smallest
    /// anchored run of a view without contiguous runs, or the step's
    /// compiled seed choice.  `runs` is scratch for the slices of a
    /// multi-anchor step; both buffers are cleared here and keep their
    /// capacity across calls.
    fn draw_candidates(
        &self,
        step: &PlanStep,
        assignment: &[Option<NodeId>],
        stats: &mut MatchStats,
        runs: &mut Vec<&'g [NodeId]>,
        buf: &mut Vec<NodeId>,
    ) -> Drawn<'g> {
        if step.anchors.is_empty() {
            self.draw_seeds(step, stats, buf);
            return Drawn::Buffer { verified: false };
        }
        let anchored = |anchor: &plan::Anchor| {
            assignment[anchor.other.index()].expect("anchor endpoint assigned")
        };
        // Try the slice fast path for every anchor run.
        runs.clear();
        let all_slices = step.anchors.iter().all(|anchor| {
            (self.graph)
                .labeled_slice(anchored(anchor), anchor.label, anchor.dir)
                .map(|run| runs.push(run))
                .is_some()
        });
        buf.clear();
        if all_slices {
            if let [run] = runs[..] {
                stats.candidates_inspected += run.len();
                return Drawn::Run(run);
            }
            intersect_sorted_runs(runs, buf);
            stats.gallop_intersections += 1;
            stats.candidates_inspected += buf.len();
            return Drawn::Buffer { verified: true };
        }
        // No contiguous runs (adjacency lists, overlay-touched nodes):
        // materialise the smallest run; the executor re-checks the rest.
        let (anchor, node) = step
            .anchors
            .iter()
            .map(|anchor| (anchor, anchored(anchor)))
            .min_by_key(|&(anchor, node)| self.graph.labeled_count(node, anchor.label, anchor.dir))
            .expect("anchors non-empty");
        match self.graph.labeled_slice(node, anchor.label, anchor.dir) {
            Some(run) => buf.extend_from_slice(run),
            None => {
                self.graph
                    .for_each_labeled(node, anchor.label, anchor.dir, &mut |n| buf.push(n));
            }
        }
        stats.candidates_inspected += buf.len();
        Drawn::Buffer { verified: false }
    }

    /// Are the pattern edges newly decided by `step` satisfied for the
    /// candidate just written into the assignment?  When `anchors_verified`,
    /// the candidate came from the anchored runs themselves and only the
    /// forbidden-edge (pivot de-duplication) checks remain.
    fn step_consistent(
        &self,
        step: &PlanStep,
        anchors_verified: bool,
        assignment: &[Option<NodeId>],
    ) -> bool {
        let node = assignment[step.var.index()].expect("step variable assigned");
        for anchor in &step.anchors {
            let other = assignment[anchor.other.index()].expect("anchor endpoint assigned");
            let (src, dst) = anchor.dir.src_dst(other, node);
            if !anchors_verified && !self.graph.has_edge(src, dst, anchor.label) {
                return false;
            }
            if let Some(forbidden) = &self.forbidden {
                if forbidden.is_forbidden(&EdgeRef::new(src, dst, anchor.label)) {
                    return false;
                }
            }
        }
        for &label in &step.self_loops {
            if !self.graph.has_edge(node, node, label) {
                return false;
            }
            if let Some(forbidden) = &self.forbidden {
                if forbidden.is_forbidden(&EdgeRef::new(node, node, label)) {
                    return false;
                }
            }
        }
        true
    }
}

/// One plan-driven search: the plan-side counterpart of
/// [`Matcher::search`].  The order, anchor sets, seed choices and literal
/// schedule come from the compiled plan; newly-decided edges and literals
/// are checked per step instead of rescanning the whole pattern and rule,
/// and multi-anchor steps intersect their runs.  The struct owns every
/// buffer the search needs, so a caller expanding many seeds (one per root
/// candidate, say) pays for them once.
struct PlannedSearch<'m, 'g, G: GraphView> {
    matcher: &'m Matcher<'g, G>,
    plan: &'m MatchPlan,
    rule: Option<&'m Ngd>,
    emit: &'m mut dyn FnMut(&[NodeId]),
    assignment: Vec<Option<NodeId>>,
    /// The complete match handed to `emit` at a leaf.
    complete: Vec<NodeId>,
    /// Per-depth candidate buffers for the steps that cannot borrow a run.
    buffers: Vec<Vec<NodeId>>,
    /// Scratch for the slices of a multi-anchor step.
    runs: Vec<&'g [NodeId]>,
    stats: MatchStats,
    tally: FastPathTally,
}

impl<'m, 'g, G: GraphView> PlannedSearch<'m, 'g, G> {
    fn new(
        matcher: &'m Matcher<'g, G>,
        plan: &'m MatchPlan,
        rule: Option<&'m Ngd>,
        emit: &'m mut dyn FnMut(&[NodeId]),
    ) -> Self {
        let n = matcher.pattern.node_count();
        PlannedSearch {
            matcher,
            plan,
            rule,
            emit,
            assignment: vec![None; n],
            complete: Vec::with_capacity(n),
            buffers: vec![Vec::new(); plan.len()],
            runs: Vec::new(),
            stats: MatchStats::default(),
            tally: FastPathTally::default(),
        }
    }

    /// Install `seeds`, search below them, and clear them again.
    fn run_seeded(&mut self, seeds: &[(Var, NodeId)]) {
        if self
            .matcher
            .install_seeds(seeds, self.rule, &mut self.assignment, &mut self.tally)
        {
            self.descend(0);
        }
        for &(var, _) in seeds {
            self.assignment[var.index()] = None;
        }
    }

    /// Expand the partial solution at `depth`.
    fn descend(&mut self, depth: usize) {
        self.stats.expanded += 1;
        let plan = self.plan;
        if depth == plan.len() {
            self.complete.clear();
            self.complete
                .extend(self.assignment.iter().map(|n| n.expect("complete match")));
            self.stats.matches_found += 1;
            let graph = self.matcher.graph;
            if self
                .rule
                .is_none_or(|r| ngd_core::is_violation(r, graph, &self.complete))
            {
                (self.emit)(&self.complete);
            }
            return;
        }
        let step = &plan.steps[depth];
        if self.assignment[step.var.index()].is_some() {
            // Seed variable already assigned; its edges and literals were
            // validated when the seeds were installed.
            return self.descend(depth + 1);
        }
        let mut buf = std::mem::take(&mut self.buffers[depth]);
        let drawn = self.matcher.draw_candidates(
            step,
            &self.assignment,
            &mut self.stats,
            &mut self.runs,
            &mut buf,
        );
        match drawn {
            Drawn::Run(run) => {
                self.tally.candidates_borrowed += 1;
                self.try_each(step, depth, run, true);
            }
            Drawn::Buffer { verified } => {
                self.tally.candidates_materialised += 1;
                self.try_each(step, depth, &buf, verified);
            }
        }
        self.buffers[depth] = buf;
    }

    /// Try every label-compatible candidate of `step`, descending below the
    /// ones that pass the step's edge and literal checks.
    fn try_each(
        &mut self,
        step: &PlanStep,
        depth: usize,
        candidates: &[NodeId],
        anchors_verified: bool,
    ) {
        let matcher = self.matcher;
        let slot = step.var.index();
        let want = matcher.pattern.label(step.var);
        for &node in candidates {
            if want != WILDCARD && want != matcher.graph.label(node) {
                continue;
            }
            self.assignment[slot] = Some(node);
            let viable = matcher.step_consistent(step, anchors_verified, &self.assignment)
                && self.rule.is_none_or(|r| {
                    !matcher.step_pruned(step, r, &self.assignment, &mut self.tally)
                });
            if viable {
                self.descend(depth + 1);
            }
            self.assignment[slot] = None;
        }
    }
}

/// Intersect k ≥ 2 sorted neighbour runs by galloping: walk the smallest
/// run and exponentially probe the rest, so the cost is bounded by the
/// smallest run times log of the larger ones rather than their sum.
///
/// The result is appended to `out`; the entries of `runs` are consumed as
/// cursors (each is advanced past what has been probed), so the
/// intersection itself allocates nothing.
fn intersect_sorted_runs(runs: &mut [&[NodeId]], out: &mut Vec<NodeId>) {
    runs.sort_unstable_by_key(|r| r.len());
    let (first, rest) = runs.split_first_mut().expect("at least one run");
    'outer: for (idx, &node) in first.iter().enumerate() {
        if idx > 0 && first[idx - 1] == node {
            continue; // duplicate in the driving run
        }
        for run in rest.iter_mut() {
            *run = &run[gallop(run, node)..];
            match run.first() {
                None => break 'outer, // this run is exhausted; no further matches
                Some(&next) if next != node => continue 'outer,
                Some(_) => {}
            }
        }
        out.push(node);
    }
}

/// Index of the first element `>= target` in a sorted slice, found by
/// exponential probing followed by a binary search over the final doubling.
fn gallop(slice: &[NodeId], target: NodeId) -> usize {
    if slice.first().is_none_or(|&x| x >= target) {
        return 0;
    }
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi] < target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    lo + slice[lo..hi].partition_point(|&x| x < target)
}

/// Convenience: all matches of `pattern` in any graph view.
pub fn find_matches<G: GraphView>(pattern: &Pattern, graph: &G) -> Vec<Vec<NodeId>> {
    Matcher::new(pattern, graph).expand_seeded(&[], None).0
}

/// Convenience: all violations of `rule` in any graph view.
pub fn find_violations<G: GraphView>(rule: &Ngd, graph: &G) -> ViolationSet {
    Matcher::new(&rule.pattern, graph).find_violations(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{chain_rule, val};
    use ngd_core::{paper, Expr, Literal};
    use ngd_graph::{AttrMap, GraphBuilder, Value};

    #[test]
    fn matches_figure1_g1_with_q1() {
        let (g, bbc) = paper::figure1_g1();
        let rule = paper::phi1(1);
        let matches = find_matches(&rule.pattern, &g);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0][0], bbc);
    }

    #[test]
    fn homomorphism_is_not_injective() {
        // Pattern: x -[knows]-> y with both wildcards; graph: single node
        // with a self-loop.  Homomorphism allows x and y to map to the same
        // node.
        let mut b = GraphBuilder::new();
        b.node("a", "person");
        b.edge("a", "a", "knows");
        let g = b.build();
        let mut q = ngd_core::Pattern::new();
        let x = q.add_wildcard("x");
        let y = q.add_wildcard("y");
        q.add_edge(x, y, "knows");
        let matches = find_matches(&q, &g);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0][0], matches[0][1]);
    }

    #[test]
    fn label_and_edge_label_constraints_are_enforced() {
        let mut b = GraphBuilder::new();
        b.node("p1", "person");
        b.node("c1", "city");
        b.edge("p1", "c1", "livesIn");
        b.edge("p1", "c1", "worksIn");
        let g = b.build();

        let mut q = ngd_core::Pattern::new();
        let p = q.add_node("p", "person");
        let c = q.add_node("c", "city");
        q.add_edge(p, c, "livesIn");
        assert_eq!(find_matches(&q, &g).len(), 1);

        let mut q2 = ngd_core::Pattern::new();
        let p = q2.add_node("p", "person");
        let c = q2.add_node("c", "country");
        q2.add_edge(p, c, "livesIn");
        assert!(find_matches(&q2, &g).is_empty());

        let mut q3 = ngd_core::Pattern::new();
        let p = q3.add_node("p", "person");
        let c = q3.add_node("c", "city");
        q3.add_edge(p, c, "bornIn");
        assert!(find_matches(&q3, &g).is_empty());
    }

    #[test]
    fn edge_direction_matters() {
        let mut b = GraphBuilder::new();
        b.node("a", "t");
        b.node("b", "t");
        b.edge("a", "b", "e");
        let g = b.build();
        let mut q = ngd_core::Pattern::new();
        let x = q.add_node("x", "t");
        let y = q.add_node("y", "t");
        q.add_edge(y, x, "e"); // reversed
        let matches = find_matches(&q, &g);
        assert_eq!(matches.len(), 1);
        // y must map to a, x to b.
        assert_eq!(matches[0][x.index()], ngd_graph::NodeId(1));
        assert_eq!(matches[0][y.index()], ngd_graph::NodeId(0));
    }

    #[test]
    fn all_paper_figure1_violations_are_found() {
        let (g1, _) = paper::figure1_g1();
        assert_eq!(find_violations(&paper::phi1(1), &g1).len(), 1);
        let (g2, _) = paper::figure1_g2();
        assert_eq!(find_violations(&paper::phi2(), &g2).len(), 1);
        let (g3, _) = paper::figure1_g3();
        assert_eq!(find_violations(&paper::phi3(), &g3).len(), 1);
        let (g4, fake) = paper::figure1_g4();
        let vio = find_violations(&paper::phi4(1, 1, 10_000), &g4);
        assert_eq!(vio.len(), 1);
        // The fake account is the `y` variable (index 1) of φ4.
        let v = vio.iter().next().unwrap();
        assert_eq!(v.nodes[1], fake);
    }

    #[test]
    fn satisfied_graph_has_no_violations() {
        // Fix Bhonpur's total population: no more violation of φ2.
        let (mut g2, village) = paper::figure1_g2();
        // total node is the one reached via populationTotal.
        let total_node = g2
            .neighbors(village, Dir::Out)
            .iter()
            .find(|&&(_, l)| l == ngd_graph::intern("populationTotal"))
            .map(|&(n, _)| n)
            .unwrap();
        g2.set_attr(total_node, ngd_graph::intern("val"), Value::Int(1322));
        assert!(find_violations(&paper::phi2(), &g2).is_empty());
    }

    #[test]
    fn premise_pruning_does_not_lose_violations() {
        // φ3 on G3 has a violation only in the (x=Downey, y=Corona)
        // orientation (Downey has the smaller population, so its rank must
        // be numerically larger); the pruned search must still find it.
        let (g3, downey) = paper::figure1_g3();
        let vio = find_violations(&paper::phi3(), &g3);
        assert_eq!(vio.len(), 1);
        assert_eq!(vio.iter().next().unwrap().nodes[0], downey);
    }

    #[test]
    fn multiple_matches_of_the_same_pattern() {
        // Two villages, both violating φ2.
        let mut b = GraphBuilder::new();
        for (idx, total) in [(0, 100), (1, 999)] {
            let area = format!("area{idx}");
            b.node(&area, "area");
            b.node_with_attrs(&format!("f{idx}"), "integer", [("val", Value::Int(40))]);
            b.node_with_attrs(&format!("m{idx}"), "integer", [("val", Value::Int(50))]);
            b.node_with_attrs(&format!("t{idx}"), "integer", [("val", Value::Int(total))]);
            b.edge(&area, &format!("f{idx}"), "femalePopulation");
            b.edge(&area, &format!("m{idx}"), "malePopulation");
            b.edge(&area, &format!("t{idx}"), "populationTotal");
        }
        let g = b.build();
        let vio = find_violations(&paper::phi2(), &g);
        assert_eq!(vio.len(), 2);
    }

    #[test]
    fn expand_seeded_respects_seeds() {
        let (g4, fake) = paper::figure1_g4();
        let rule = paper::phi4(1, 1, 10_000);
        let y = rule.pattern.var_by_name("y").unwrap();
        let matcher = Matcher::new(&rule.pattern, &g4);
        // Seeding y with the fake account finds the violation; seeding y
        // with the real account finds nothing.
        let (with_fake, stats) = matcher.expand_seeded(&[(y, fake)], Some(&rule));
        assert_eq!(with_fake.len(), 1);
        assert!(stats.expanded > 0);
        let real = g4
            .nodes_with_label(ngd_graph::intern("account"))
            .iter()
            .copied()
            .find(|&n| n != fake)
            .unwrap();
        let (with_real, _) = matcher.expand_seeded(&[(y, real)], Some(&rule));
        assert!(with_real.is_empty());
    }

    #[test]
    fn seeds_with_wrong_label_yield_nothing() {
        let (g1, bbc) = paper::figure1_g1();
        let rule = paper::phi1(1);
        let y = rule.pattern.var_by_name("y").unwrap();
        let matcher = Matcher::new(&rule.pattern, &g1);
        // Seeding the date variable with the institution node fails the
        // label check.
        let (res, _) = matcher.expand_seeded(&[(y, bbc)], Some(&rule));
        assert!(res.is_empty());
    }

    /// A 12-node ring with chords, every node labelled `T` with `val`.
    fn ring() -> Graph {
        let mut g = Graph::new();
        for i in 0..12i64 {
            g.add_node_named("T", AttrMap::from_pairs([("val", Value::Int(i * 7 % 12))]));
        }
        for i in 0..12u32 {
            for hop in [1, 5] {
                g.add_edge_named(NodeId(i), NodeId((i + hop) % 12), "e")
                    .unwrap();
            }
        }
        g
    }

    #[test]
    fn a_plan_bound_to_another_rule_is_recompiled_not_trusted() {
        let snap = ring().freeze();
        // `wide` schedules premise #2 on its last step; `narrow` has one
        // premise literal, so trusting `wide`'s plan would index past it.
        let wide = chain_rule(
            "r",
            vec![
                Literal::ge(val(0), Expr::constant(0)),
                Literal::ge(val(1), Expr::constant(0)),
                Literal::lt(val(0), val(2)),
            ],
            vec![Literal::lt(val(1), val(2))],
        );
        let narrow = chain_rule("r", vec![Literal::lt(val(2), val(0))], vec![]);
        let other_id = chain_rule("s", wide.premise.clone(), wide.consequence.clone());
        let wide_plan = Arc::new(plan::compile_rule_plan(&wide, &snap, &[]));
        assert!(wide_plan.matches_rule(&wide));
        assert!(!wide_plan.matches_rule(&narrow), "same id, other lengths");
        assert!(
            !wide_plan.matches_rule(&other_id),
            "same literals, other id"
        );
        for rule in [&wide, &narrow, &other_id] {
            let own = Matcher::new(&rule.pattern, &snap).find_violations_with_stats(rule);
            let installed = Matcher::new(&rule.pattern, &snap)
                .with_plan(Arc::clone(&wide_plan))
                .find_violations_with_stats(rule);
            assert_eq!(installed, own, "{}", rule.id);
            let legacy = Matcher::new(&rule.pattern, &snap)
                .with_legacy_order()
                .find_violations(rule);
            assert_eq!(installed.0, legacy, "{}", rule.id);
        }
        // A pattern-only plan is bound to no rule: a violation search
        // recompiles it, a plain match enumeration runs it as it is.
        let bare = Arc::new(Matcher::new(&wide.pattern, &snap).compile_plan(&[]));
        let installed = Matcher::new(&wide.pattern, &snap).with_plan(Arc::clone(&bare));
        assert_eq!(
            installed.find_violations_with_stats(&wide),
            Matcher::new(&wide.pattern, &snap).find_violations_with_stats(&wide)
        );
        assert_eq!(
            installed.expand_seeded(&[], None).0,
            find_matches(&wide.pattern, &snap)
        );
        // The per-step check does the same: with a foreign plan it falls
        // back to the full check instead of reading the foreign schedule.
        let matcher = Matcher::new(&narrow.pattern, &snap);
        let last = wide_plan.len() - 1;
        let mut tally = FastPathTally::default();
        for m in find_matches(&narrow.pattern, &snap) {
            let assignment: Vec<Option<NodeId>> = m.iter().copied().map(Some).collect();
            assert_eq!(
                matcher.step_viable(&wide_plan, last, Some(&narrow), &assignment, &mut tally),
                matcher.partial_viable(Some(&narrow), &assignment),
            );
        }
    }

    #[test]
    fn expand_roots_over_the_first_step_candidates_is_the_unseeded_search() {
        let sum = |a: MatchStats, b: MatchStats| MatchStats {
            expanded: a.expanded + b.expanded,
            candidates_inspected: a.candidates_inspected + b.candidates_inspected,
            matches_found: a.matches_found + b.matches_found,
            gallop_intersections: a.gallop_intersections + b.gallop_intersections,
        };
        // A self-loop on the first step's variable is checked on each root.
        let mut looped = ring();
        looped.add_edge_named(NodeId(3), NodeId(3), "e").unwrap();
        let mut q = Pattern::new();
        let a = q.add_node("a", "T");
        let b = q.add_node("b", "T");
        q.add_edge(a, a, "e").add_edge(a, b, "e");
        let self_loop = Ngd::new("loop", q, vec![], vec![Literal::lt(val(0), val(1))]).unwrap();
        let plain = chain_rule(
            "plain",
            vec![Literal::le(val(1), Expr::constant(8))],
            vec![Literal::lt(val(1), val(2))],
        );
        for (rule, graph) in [(&plain, ring().freeze()), (&self_loop, looped.freeze())] {
            let matcher = Matcher::new(&rule.pattern, &graph);
            let first = &matcher.compile_plan(&[]).steps[0];
            assert_eq!(first.self_loops.is_empty(), rule.id == "plain");
            let (expected, expected_stats) = matcher.find_violations_with_stats(rule);
            assert!(!expected.is_empty(), "{}", rule.id);
            let (roots, drawn) = matcher.first_step_candidates(rule);
            assert_eq!(
                (drawn.expanded, drawn.candidates_inspected),
                (1, roots.len())
            );
            // p = 1 is every candidate in one call; p > 1 splits them into
            // strides whose matches and stats add up to the same totals.
            // Absent nodes are skipped.
            for p in 1..=4 {
                let mut found = ViolationSet::new();
                let mut stats = drawn;
                for worker in 0..p {
                    let stride = roots.iter().copied().skip(worker).step_by(p);
                    let absent = [NodeId(12), NodeId(13)];
                    let part = matcher.expand_roots(stride.chain(absent), rule, &mut |m| {
                        assert!(found.insert(Violation::new(rule.id.clone(), m.to_vec())));
                    });
                    stats = sum(stats, part);
                }
                assert_eq!(found, expected, "{} p={p}", rule.id);
                assert_eq!(stats, expected_stats, "{} p={p}", rule.id);
            }
            // A repeated root is searched again.
            let once = matcher.expand_roots([roots[3]], rule, &mut |_| {});
            let twice = matcher.expand_roots([roots[3]; 2], rule, &mut |_| {});
            assert_eq!(twice, sum(once, once), "{}", rule.id);
        }
    }

    #[test]
    fn empty_pattern_has_no_matches() {
        let (g1, _) = paper::figure1_g1();
        let q = ngd_core::Pattern::new();
        assert!(find_matches(&q, &g1).is_empty());
    }

    #[test]
    fn disconnected_pattern_is_supported_by_batch_matcher() {
        // Two independent wildcard nodes: matches are the cross product.
        let mut b = GraphBuilder::new();
        b.node("a", "t");
        b.node("b", "t");
        let g = b.build();
        let mut q = ngd_core::Pattern::new();
        q.add_node("x", "t");
        q.add_node("y", "t");
        assert_eq!(find_matches(&q, &g).len(), 4);
    }
}
