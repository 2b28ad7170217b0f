//! The cost-based match planner (Section 6.2's matching order, made
//! explicit): compiled [`MatchPlan`]s and the epoch-keyed [`PlanCache`].
//!
//! The matcher used to re-derive its variable order greedily from label
//! cardinalities on every run.  The planner instead compiles a pattern once
//! per (rule, seed set) into an explicit plan:
//!
//! * the **seed choice** for the first unanchored variable — the smallest
//!   of the label partition and any incident triple-index run (wildcard
//!   endpoints included, via
//!   [`labeled_triple_run_len`](ngd_graph::GraphView::labeled_triple_run_len));
//! * the **variable order**, chosen by estimated fan-out from
//!   [`SelectivityStats`] (triple-run length over anchor-label cardinality)
//!   rather than raw label counts;
//! * the **per-step anchor sets** — every pattern edge connecting the step's
//!   variable to the already-assigned prefix — which the executor
//!   gallop-intersects when two or more anchored runs are available as
//!   sorted slices.
//!
//! Plans depend only on pattern shape and label statistics, never on the
//! particular assignment, so one plan serves every pivot of a batch update
//! and every candidate of a parallel scan.  [`PlanCache`] keys plans by
//! (rule id, seed variables) and is invalidated wholesale when its snapshot
//! epoch moves.
//!
//! # The literal schedule
//!
//! A plan compiled for a *rule* ([`compile_rule_plan`]) also says **when
//! each literal is checked** (Section 6.2, step (3): abandon a partial
//! match as soon as a premise literal is decided false or every consequence
//! literal is decided true).  A literal is decided once every variable it
//! names is bound, and a decided literal keeps its value however the match
//! grows, so there is exactly one step per literal at which looking at it
//! can change anything — the step that binds the last of its variables.
//! The schedule records that step:
//!
//! * [`PlanStep::premise_checks`] — the premise literals whose last
//!   variable this step binds;
//! * [`PlanStep::consequence_check`] — this step binds the last variable of
//!   the whole consequence, so "every consequence literal is true" can be
//!   asked here and nowhere earlier.
//!
//! Literals decided by the seeds alone (or naming no variable at all) are
//! not scheduled: the executor checks every literal once when the seeds are
//! installed.  A literal naming a variable the pattern does not have is
//! never decided, so it is never scheduled either (and it keeps the
//! consequence check off every step); the leaf test `is_violation` rejects
//! such matches exactly as before.  [`MatchPlan::describe`] prints the
//! schedule (`ngd-cli explain`):
//!
//! ```text
//! phi3:
//!   ...
//!   5. m2:integer via y -[population]-> ∩ <-[date]- w (est 0.36)
//!        check premise #0: m1.val < m2.val
//!   ...
//!   7. n2:integer via y -[populationRank]-> (est 0.89)
//!        check consequence
//! ```
//!
//! One case decides a literal *before* its last variable is bound: a bound
//! node that lacks a named attribute makes the literal false whatever the
//! remaining variables turn out to be.  The scheduled check sees the same
//! `false` at the literal's step, so the set of violations is unchanged;
//! only the abandoned subtree is noticed a few steps later.
//!
//! The schedule indexes into one rule's literal lists, so a plan is **bound
//! to its rule** ([`MatchPlan::rule`]): the executor uses an installed plan
//! only for the rule it was compiled for and recompiles otherwise, exactly
//! as it does for a plan with the wrong seed set.

use ngd_core::{Expr, Literal, Ngd, Pattern, Var};
use ngd_graph::{resolve, Dir, GraphView, NodeId, SelectivityStats, Sym, WILDCARD};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a plan step with no anchors draws its initial candidate set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeedChoice {
    /// From the `(src label, edge label, dst label)` triple index, taking
    /// the endpoints that read the edges in direction `end` (sources for
    /// [`Dir::Out`], destinations for [`Dir::In`]).  Any label may be
    /// [`WILDCARD`].
    Triple {
        /// Source-label component of the triple key.
        src_label: Sym,
        /// Edge-label component of the triple key.
        edge_label: Sym,
        /// Destination-label component of the triple key.
        dst_label: Sym,
        /// Take edge sources ([`Dir::Out`]) or destinations.
        end: Dir,
    },
    /// From the label partition.
    Label(Sym),
    /// From the full node set (an unconstrained wildcard).
    AllNodes,
}

/// One anchor of a plan step: a pattern edge between the step's variable
/// and an already-assigned variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// The already-assigned endpoint.
    pub other: Var,
    /// The pattern edge's label.
    pub label: Sym,
    /// The direction the pattern edge is read from `other`: [`Dir::Out`]
    /// for `other -[label]-> var` (candidates come from the anchor node's
    /// out-run), [`Dir::In`] for `var -[label]-> other` (its in-run).
    pub dir: Dir,
}

/// One step of a compiled plan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The variable assigned at this step.
    pub var: Var,
    /// Pattern edges from `var` into the already-assigned prefix.  Empty
    /// for externally-seeded variables and for the first variable of a
    /// (component of a) pattern.
    pub anchors: Vec<Anchor>,
    /// Labels of `var -> var` self-loop pattern edges, decided here.
    pub self_loops: Vec<Sym>,
    /// Seed strategy when `anchors` is empty and the variable is not
    /// externally seeded.
    pub seed: Option<SeedChoice>,
    /// Estimated candidate count of this step under the statistics the plan
    /// was compiled against.
    pub est: f64,
    /// Indices into the bound rule's premise of the literals whose last
    /// variable this step binds (see the module docs).  Empty on seed steps
    /// and in pattern-only plans.
    pub premise_checks: Vec<usize>,
    /// This step binds the last variable of the bound rule's consequence:
    /// the one step at which "every consequence literal holds" is asked.
    pub consequence_check: bool,
}

/// The rule a plan's literal schedule was compiled for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRule {
    /// The rule's id.
    pub id: String,
    /// Length of the rule's premise (bounds every `premise_checks` index).
    pub premise_len: usize,
    /// Length of the rule's consequence.
    pub consequence_len: usize,
}

/// A compiled matching plan for one pattern and one seed-variable set.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// The externally-seeded variables, sorted and deduplicated.
    pub seeds: Vec<Var>,
    /// Execution order: one step per pattern variable, seeds first.
    pub steps: Vec<PlanStep>,
    /// Product of the per-step estimates — the plan's total cost estimate.
    pub est_cost: f64,
    /// The rule whose literals the steps' schedule indexes; `None` for a
    /// pattern-only plan ([`compile_plan`]), which schedules nothing.
    pub rule: Option<PlanRule>,
}

impl MatchPlan {
    /// The variable order the plan executes (seeds first).
    pub fn order(&self) -> impl Iterator<Item = Var> + '_ {
        self.steps.iter().map(|s| s.var)
    }

    /// The variable assigned at `depth`.
    pub fn var_at(&self, depth: usize) -> Var {
        self.steps[depth].var
    }

    /// Number of steps (= pattern variables).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is the plan empty (empty pattern)?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Would this plan be valid for a run seeded with exactly `seeds`
    /// (order and duplicates ignored)?
    pub fn matches_seeds(&self, seeds: &[Var]) -> bool {
        self.seeds_match(seeds.iter().copied())
    }

    /// [`MatchPlan::matches_seeds`] over any re-iterable seed listing:
    /// mutual containment, so the per-run check allocates nothing.
    pub(crate) fn seeds_match(&self, seeds: impl Iterator<Item = Var> + Clone) -> bool {
        seeds.clone().all(|s| self.seeds.contains(&s))
            && self
                .seeds
                .iter()
                .all(|&s| seeds.clone().any(|other| other == s))
    }

    /// Was this plan's literal schedule compiled for `rule`?  The id names
    /// the rule and the two lengths keep every scheduled index in bounds
    /// even if two rule sets reuse an id.
    pub fn matches_rule(&self, rule: &Ngd) -> bool {
        self.rule.as_ref().is_some_and(|bound| {
            bound.id == rule.id
                && bound.premise_len == rule.premise.len()
                && bound.consequence_len == rule.consequence.len()
        })
    }

    /// Record, per step, the literals of `rule` that the step decides (the
    /// module docs give the argument), and bind the plan to the rule.
    fn schedule_literals(&mut self, rule: &Ngd) {
        let mut step_of = vec![None; self.steps.len()];
        for (idx, step) in self.steps.iter().enumerate() {
            step_of[step.var.index()] = Some(idx);
        }
        let seed_steps = self.seeds.len();
        // When the literal is decided: `Some(None)` before the search (its
        // variables are all seeds, or it names none), `Some(Some(step))` at
        // a searched step, `None` never (a variable outside the pattern).
        let decided_at = |literal: &Literal| -> Option<Option<usize>> {
            let mut last = None;
            for var in literal.vars() {
                let step = (*step_of.get(var.index())?)?;
                last = last.max(Some(step));
            }
            Some(last.filter(|&step| step >= seed_steps))
        };
        for (idx, literal) in rule.premise.iter().enumerate() {
            if let Some(Some(step)) = decided_at(literal) {
                self.steps[step].premise_checks.push(idx);
            }
        }
        let consequence: Option<Vec<Option<usize>>> =
            rule.consequence.iter().map(decided_at).collect();
        if let Some(Some(step)) = consequence.map(|steps| steps.into_iter().max().flatten()) {
            self.steps[step].consequence_check = true;
        }
        self.rule = Some(PlanRule {
            id: rule.id.clone(),
            premise_len: rule.premise.len(),
            consequence_len: rule.consequence.len(),
        });
    }

    /// Human-readable plan listing (the `ngd-cli explain` output): one line
    /// per step, and under it the literal checks the step was scheduled.
    pub fn describe(&self, rule: &Ngd) -> String {
        let pattern = &rule.pattern;
        let scheduled = self.matches_rule(rule);
        let mut out = String::new();
        for (idx, step) in self.steps.iter().enumerate() {
            let name = pattern.name(step.var);
            let label = resolve(pattern.label(step.var));
            let _ = write!(out, "  {idx}. {name}:{label}");
            if self.seeds.contains(&step.var) {
                out.push_str(" (seed)");
            } else if let Some(seed) = &step.seed {
                match seed {
                    SeedChoice::Triple {
                        src_label,
                        edge_label,
                        dst_label,
                        end,
                    } => {
                        let _ = write!(
                            out,
                            " from triple ({})-[{}]->({}) {}",
                            resolve(*src_label),
                            resolve(*edge_label),
                            resolve(*dst_label),
                            match end {
                                Dir::Out => "sources",
                                Dir::In => "targets",
                            },
                        );
                    }
                    SeedChoice::Label(l) => {
                        let _ = write!(out, " from label {}", resolve(*l));
                    }
                    SeedChoice::AllNodes => out.push_str(" from all nodes"),
                }
            } else if !step.anchors.is_empty() {
                out.push_str(" via ");
                for (i, a) in step.anchors.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" ∩ ");
                    }
                    let (other, label) = (pattern.name(a.other), resolve(a.label));
                    let _ = match a.dir {
                        Dir::Out => write!(out, "{other} -[{label}]->"),
                        Dir::In => write!(out, "<-[{label}]- {other}"),
                    };
                }
            }
            for l in &step.self_loops {
                let _ = write!(out, " + self-loop [{}]", resolve(*l));
            }
            let _ = writeln!(out, " (est {:.2})", step.est);
            if !scheduled {
                continue;
            }
            for &i in &step.premise_checks {
                let literal = literal_text(pattern, &rule.premise[i]);
                let _ = writeln!(out, "       check premise #{i}: {literal}");
            }
            if step.consequence_check {
                let _ = writeln!(out, "       check consequence");
            }
        }
        let _ = writeln!(out, "  total estimated cost {:.2}", self.est_cost);
        out
    }
}

/// `literal` with pattern variable names (`m1.val < m2.val`) in place of
/// the positional `$4.val < $5.val` of its `Display`.
fn literal_text(pattern: &Pattern, literal: &Literal) -> String {
    fn expr(pattern: &Pattern, e: &Expr, out: &mut String) {
        let binary = |a: &Expr, op: &str, b: &Expr, out: &mut String| {
            out.push('(');
            expr(pattern, a, out);
            out.push_str(op);
            expr(pattern, b, out);
            out.push(')');
        };
        match e {
            Expr::Attr(r) if r.var.index() < pattern.node_count() => {
                let _ = write!(out, "{}.{}", pattern.name(r.var), resolve(r.attr));
            }
            Expr::Abs(inner) => {
                out.push('|');
                expr(pattern, inner, out);
                out.push('|');
            }
            Expr::Add(a, b) => binary(a, " + ", b, out),
            Expr::Sub(a, b) => binary(a, " - ", b, out),
            Expr::Mul(a, b) => binary(a, " * ", b, out),
            Expr::Div(a, b) => binary(a, " / ", b, out),
            Expr::Const(_) | Expr::Lit(_) | Expr::Attr(_) => {
                let _ = write!(out, "{e}");
            }
        }
    }
    let mut out = String::new();
    expr(pattern, &literal.lhs, &mut out);
    let _ = write!(out, " {} ", literal.op);
    expr(pattern, &literal.rhs, &mut out);
    out
}

fn sorted_dedup(vars: &[Var]) -> Vec<Var> {
    let mut v = vars.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Compile a plan for `pattern` over `graph`, with `seeds` assigned before
/// the search starts.
///
/// Cost-estimate ties break toward the **lowest variable index** — i.e.
/// toward declaration order, since `Pattern::add_node` numbers variables
/// in insertion order.  This makes the order a rule author lists nodes in
/// (e.g. the `MATCH` clause of an `.ngdl` rule, whose parser assigns
/// indices by first mention) a deterministic seed hint: when the
/// statistics can't separate two candidates, the author's first-written
/// variable is matched first.
///
/// ```
/// use ngd_core::{Pattern, Var};
/// use ngd_match::compile_plan;
///
/// // Two structurally identical halves: x-e->y and z-e->w.  With no
/// // statistics to separate them, the plan starts at x (declared first).
/// let mut q = Pattern::new();
/// let x = q.add_node("x", "A");
/// let y = q.add_node("y", "B");
/// let z = q.add_node("z", "A");
/// let w = q.add_node("w", "B");
/// q.add_edge(x, y, "e").add_edge(z, w, "e");
///
/// let plan = compile_plan(&q, &ngd_graph::Graph::new(), &[]);
/// assert_eq!(plan.var_at(0), Var(0));
/// ```
pub fn compile_plan<G: GraphView>(pattern: &Pattern, graph: &G, seeds: &[Var]) -> MatchPlan {
    let stats = SelectivityStats::new(graph);
    let n = pattern.node_count();
    let mut placed = vec![false; n];
    let mut steps: Vec<PlanStep> = Vec::with_capacity(n);

    // Seeds first, in caller order (duplicates collapse).
    for &s in seeds {
        if !placed[s.index()] {
            placed[s.index()] = true;
            steps.push(PlanStep {
                var: s,
                anchors: Vec::new(),
                self_loops: Vec::new(),
                seed: None,
                est: 1.0,
                premise_checks: Vec::new(),
                consequence_check: false,
            });
        }
    }

    while steps.len() < n {
        // Prefer an unplaced variable adjacent to a placed one, by estimated
        // fan-out; fall back to the cheapest seed among the rest (a new
        // component, or the very first variable).
        let anchored = pattern
            .vars()
            .filter(|v| !placed[v.index()])
            .filter(|&v| anchors_of(pattern, &placed, v).next().is_some())
            .map(|v| (v, extension_estimate(pattern, &stats, &placed, v)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let (var, est, seed) = match anchored {
            Some((v, est)) => (v, est, None),
            None => {
                let (v, est, choice) = pattern
                    .vars()
                    .filter(|v| !placed[v.index()])
                    .map(|v| {
                        let (est, choice) = seed_estimate(pattern, &stats, v);
                        (v, est, choice)
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .expect("unplaced variable exists");
                (v, est, Some(choice))
            }
        };
        placed[var.index()] = true;
        let anchors: Vec<Anchor> = anchors_of(pattern, &placed, var).collect();
        // `placed[var]` was just set, so self-loops are not in `anchors`.
        let self_loops: Vec<Sym> = pattern
            .edges()
            .iter()
            .filter(|e| e.src == var && e.dst == var)
            .map(|e| e.label)
            .collect();
        steps.push(PlanStep {
            var,
            anchors,
            self_loops,
            seed,
            est,
            premise_checks: Vec::new(),
            consequence_check: false,
        });
    }

    let est_cost = steps.iter().map(|s| s.est.max(1.0)).product();
    MatchPlan {
        seeds: sorted_dedup(seeds),
        steps,
        est_cost,
        rule: None,
    }
}

/// [`compile_plan`] for `rule`'s pattern, plus the rule's literal schedule
/// (see the module docs).  Every plan that will search for *violations* is
/// compiled here — same order, anchors and estimates as the pattern-only
/// plan, since literals do not enter the cost model.
pub fn compile_rule_plan<G: GraphView>(rule: &Ngd, graph: &G, seeds: &[Var]) -> MatchPlan {
    let mut plan = compile_plan(&rule.pattern, graph, seeds);
    plan.schedule_literals(rule);
    plan
}

/// The anchors of `var` into the placed prefix (self-loops excluded).
fn anchors_of<'p>(
    pattern: &'p Pattern,
    placed: &'p [bool],
    var: Var,
) -> impl Iterator<Item = Anchor> + 'p {
    pattern.edges().iter().filter_map(move |e| {
        let (dir, other) = e.from_var(var)?;
        (other != var && placed[other.index()]).then_some(Anchor {
            other,
            label: e.label,
            dir: dir.rev(),
        })
    })
}

/// Estimated candidate count for extending the match to `var` through its
/// anchors: the smallest per-anchor average fan-out, halved per additional
/// intersected anchor.  Falls back to the label cardinality when no triple
/// statistics exist (the pre-planner greedy's ordering key).
fn extension_estimate(
    pattern: &Pattern,
    stats: &SelectivityStats<'_>,
    placed: &[bool],
    var: Var,
) -> f64 {
    let var_label = pattern.label(var);
    let mut best: Option<f64> = None;
    let mut count = 0usize;
    for anchor in anchors_of(pattern, placed, var) {
        count += 1;
        let (src_label, dst_label) = anchor.dir.src_dst(pattern.label(anchor.other), var_label);
        let fanout = stats
            .avg_fanout(src_label, anchor.label, dst_label, anchor.dir)
            .unwrap_or_else(|| stats.label_size(var_label) as f64);
        best = Some(match best {
            Some(b) => b.min(fanout),
            None => fanout,
        });
    }
    let base = best.unwrap_or_else(|| stats.label_size(var_label) as f64);
    base * (0.5f64).powi(count.saturating_sub(1) as i32)
}

/// Estimated initial candidate count for an unanchored `var`, with the seed
/// strategy achieving it.
fn seed_estimate(pattern: &Pattern, stats: &SelectivityStats<'_>, var: Var) -> (f64, SeedChoice) {
    let var_label = pattern.label(var);
    let label_est = stats.label_size(var_label);
    let mut best = (
        label_est as f64,
        if var_label == WILDCARD {
            SeedChoice::AllNodes
        } else {
            SeedChoice::Label(var_label)
        },
    );
    for edge in pattern.edges() {
        let Some((end, other)) = edge.from_var(var) else {
            continue;
        };
        if other == var {
            continue;
        }
        let (src_label, dst_label) = end.src_dst(var_label, pattern.label(other));
        if let Some(len) = stats.triple_size(src_label, edge.label, dst_label) {
            if (len as f64) < best.0 {
                best = (
                    len as f64,
                    SeedChoice::Triple {
                        src_label,
                        edge_label: edge.label,
                        dst_label,
                        end,
                    },
                );
            }
        }
    }
    best
}

/// Materialise the candidates of a [`SeedChoice`] over a view.  Falls back
/// to the label partition if the view cannot answer the recorded triple
/// (e.g. a plan compiled on a snapshot executed over an overlay).
pub(crate) fn seed_nodes<G: GraphView>(
    choice: &SeedChoice,
    var_label: Sym,
    graph: &G,
) -> Vec<NodeId> {
    if let SeedChoice::Triple {
        src_label,
        edge_label,
        dst_label,
        end,
    } = choice
    {
        if let Some(list) =
            graph.labeled_triple_endpoints(*src_label, *edge_label, *dst_label, *end)
        {
            return list;
        }
    }
    match choice {
        SeedChoice::AllNodes => graph.node_ids_vec(),
        SeedChoice::Label(l) => graph.nodes_with_label_vec(*l),
        SeedChoice::Triple { .. } => {
            if var_label == WILDCARD {
                graph.node_ids_vec()
            } else {
                graph.nodes_with_label_vec(var_label)
            }
        }
    }
}

/// A concurrent cache of compiled plans, keyed by (rule id, seed variable
/// set) and valid for a single snapshot epoch.
///
/// **One cache serves one (Σ, epoch).**  The key names a rule by its id
/// only, and [`MatchPlan::matches_rule`] accepts any plan whose id and
/// literal counts agree, so two rule sets that reuse an id must not share
/// a cache: the second would run the first's pattern.  `ngd-serve` keeps
/// one per epoch for the server's Σ and gives a session that installs its
/// own Σ a cache of its own.
///
/// Plans encode label statistics of the snapshot they were compiled
/// against, and a compaction changes those — so a cache is never carried
/// across epochs: whoever maps a new epoch builds a fresh
/// [`PlanCache::for_epoch`] beside it.  Hit/miss counters feed the
/// detection reports and the serve `STATS` reply.
#[derive(Debug, Default)]
pub struct PlanCache {
    epoch: AtomicU64,
    plans: Mutex<HashMap<PlanKey, Arc<MatchPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cache key: (rule id, sorted seed variables).
type PlanKey = (String, Vec<Var>);

impl PlanCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// An empty cache pinned to `epoch`.
    pub fn for_epoch(epoch: u64) -> Self {
        let cache = PlanCache::new();
        cache.epoch.store(epoch, Ordering::Relaxed);
        cache
    }

    /// The epoch the cached plans were compiled against.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Fetch the plan for `(rule_id, seeds)`, compiling it on a miss.
    pub fn get_or_compile(
        &self,
        rule_id: &str,
        seeds: &[Var],
        compile: impl FnOnce() -> MatchPlan,
    ) -> Arc<MatchPlan> {
        static HITS: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("matcher.plan_cache.hits");
        static MISSES: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("matcher.plan_cache.misses");
        let key = (rule_id.to_owned(), sorted_dedup(seeds));
        if let Some(plan) = self.plans.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            HITS.inc();
            return Arc::clone(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        MISSES.inc();
        let plan = Arc::new({
            let _span = ngd_obs::span!("matcher.plan.compile");
            compile()
        });
        // First insert wins if another thread compiled concurrently, so
        // every consumer sees one canonical plan per key.
        Arc::clone(
            self.plans
                .lock()
                .unwrap()
                .entry(key)
                .or_insert_with(|| plan),
        )
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (= compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ngd_core::paper;
    use ngd_graph::Graph;

    #[test]
    fn plan_covers_every_variable_exactly_once() {
        for rule in [
            paper::phi1(1),
            paper::phi2(),
            paper::phi3(),
            paper::phi4(1, 1, 10_000),
        ] {
            let (g, _) = paper::figure1_g2();
            let snap = g.freeze();
            let plan = compile_plan(&rule.pattern, &snap, &[]);
            assert_eq!(plan.len(), rule.pattern.node_count(), "{}", rule.id);
            let mut vars: Vec<Var> = plan.order().collect();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(vars.len(), rule.pattern.node_count(), "{}", rule.id);
        }
    }

    #[test]
    fn every_pattern_edge_is_decided_exactly_once() {
        let rule = paper::phi2();
        let (g, _) = paper::figure1_g2();
        let snap = g.freeze();
        for seeds in [vec![], vec![Var(0)], vec![Var(0), Var(1)]] {
            let plan = compile_plan(&rule.pattern, &snap, &seeds);
            let decided: usize = plan
                .steps
                .iter()
                .map(|s| s.anchors.len() + s.self_loops.len())
                .sum();
            // Edges between two seeds are decided by the runner's initial
            // consistency check instead of a step.
            let seed_internal = rule
                .pattern
                .edges()
                .iter()
                .filter(|e| seeds.contains(&e.src) && seeds.contains(&e.dst))
                .count();
            assert_eq!(decided + seed_internal, rule.pattern.edge_count());
        }
    }

    #[test]
    fn seeded_plans_start_with_the_seeds() {
        let rule = paper::phi4(1, 1, 10_000);
        let (g, _) = paper::figure1_g4();
        let snap = g.freeze();
        let x = rule.pattern.var_by_name("x").unwrap();
        let y = rule.pattern.var_by_name("y").unwrap();
        let plan = compile_plan(&rule.pattern, &snap, &[y, x]);
        assert_eq!(plan.var_at(0), y);
        assert_eq!(plan.var_at(1), x);
        assert!(plan.matches_seeds(&[x, y]));
        assert!(plan.matches_seeds(&[y, x, x]));
        assert!(!plan.matches_seeds(&[x]));
    }

    #[test]
    fn cache_hits_and_misses() {
        let rule = paper::phi1(1);
        let (g, _) = paper::figure1_g1();
        let snap = g.freeze();
        let cache = PlanCache::new();
        let compile = || compile_plan(&rule.pattern, &snap, &[]);
        let a = cache.get_or_compile(&rule.id, &[], compile);
        let b = cache.get_or_compile(&rule.id, &[], compile);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same rule, different seeds: a distinct plan.
        cache.get_or_compile(&rule.id, &[Var(0)], || {
            compile_plan(&rule.pattern, &snap, &[Var(0)])
        });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn estimate_ties_break_toward_declaration_order() {
        // Two structurally identical components; every label statistic is
        // identical, so only the declaration-order tie-break can decide.
        // Swapping the declaration order must swap the chosen start — this
        // is the contract that makes .ngdl MATCH-clause ordering a seed
        // hint.
        let build = |first_pair: [&str; 2], second_pair: [&str; 2]| {
            let mut q = Pattern::new();
            let a = q.add_node(first_pair[0], "A");
            let b = q.add_node(first_pair[1], "B");
            let c = q.add_node(second_pair[0], "A");
            let d = q.add_node(second_pair[1], "B");
            q.add_edge(a, b, "e").add_edge(c, d, "e");
            q
        };
        let g = ngd_graph::Graph::new();
        let forward = build(["x", "y"], ["z", "w"]);
        let plan = compile_plan(&forward, &g, &[]);
        assert_eq!(forward.name(plan.var_at(0)), "x");
        let swapped = build(["z", "w"], ["x", "y"]);
        let plan = compile_plan(&swapped, &g, &[]);
        assert_eq!(swapped.name(plan.var_at(0)), "z");
    }

    /// The eight rules every benchmark workload runs.
    fn benchmark_rules() -> Vec<Ngd> {
        ngd_lang::load_rules(include_str!("../../../benchmark/sigma.ngdl"))
            .expect("benchmark/sigma.ngdl parses")
            .rules()
            .to_vec()
    }

    /// Seed sets to compile each rule with: none, every single variable,
    /// and the endpoints of every pattern edge (the update-pivot shape).
    fn seed_sets(rule: &Ngd) -> Vec<Vec<Var>> {
        let mut sets = vec![vec![]];
        sets.extend(rule.pattern.vars().map(|v| vec![v]));
        sets.extend(rule.pattern.edges().iter().map(|e| vec![e.src, e.dst]));
        sets
    }

    /// A one-node graph whose node carries every attribute `rule` names,
    /// so a literal is decided exactly when its variables are bound.
    fn one_node_with_every_attribute(rule: &Ngd) -> Graph {
        let mut attrs = ngd_graph::AttrMap::new();
        for literal in rule.literals() {
            for r in literal.attr_refs() {
                attrs.set(r.attr, ngd_graph::Value::Int(1));
            }
        }
        let mut g = Graph::new();
        g.add_node_named("n", attrs);
        g
    }

    /// The schedule's contract, checked against evaluation itself: binding
    /// the plan's first `k` variables, a literal scheduled at step `k − 1`
    /// is decided there and was undecided one step earlier; a literal that
    /// is scheduled nowhere is decided by the seeds alone; no literal is
    /// scheduled twice; and the consequence check sits at the first step
    /// that decides every consequence literal.
    fn assert_schedule_is_exact(rule: &Ngd, plan: &MatchPlan) {
        use ngd_core::eval::eval_literal_partial;
        let ctx = format!("{} seeds {:?}", rule.id, plan.seeds);
        assert!(plan.matches_rule(rule), "{ctx}");
        let g = one_node_with_every_attribute(rule);
        let bound_through = |steps: usize| -> Vec<Option<NodeId>> {
            let mut a = vec![None; rule.pattern.node_count()];
            for step in &plan.steps[..steps] {
                a[step.var.index()] = Some(NodeId(0));
            }
            a
        };
        let decided =
            |l: &Literal, steps: usize| eval_literal_partial(l, &g, &bound_through(steps)).is_ok();
        let seed_steps = plan.seeds.len();
        for (idx, step) in plan.steps.iter().enumerate() {
            if idx < seed_steps {
                assert!(step.premise_checks.is_empty(), "{ctx}: seed step {idx}");
                assert!(!step.consequence_check, "{ctx}: seed step {idx}");
            }
        }
        for (i, literal) in rule.premise.iter().enumerate() {
            let at: Vec<usize> = (0..plan.len())
                .filter(|&k| plan.steps[k].premise_checks.contains(&i))
                .collect();
            match at[..] {
                [] => assert!(
                    decided(literal, seed_steps),
                    "{ctx}: premise #{i} unscheduled"
                ),
                [k] => {
                    assert!(decided(literal, k + 1), "{ctx}: premise #{i} at step {k}");
                    assert!(
                        !decided(literal, k),
                        "{ctx}: premise #{i} decided before {k}"
                    );
                    let occurrences = plan.steps[k].premise_checks.iter().filter(|&&j| j == i);
                    assert_eq!(occurrences.count(), 1, "{ctx}: premise #{i} repeated");
                }
                _ => panic!("{ctx}: premise #{i} scheduled at steps {at:?}"),
            }
        }
        let all_decided = |steps: usize| rule.consequence.iter().all(|l| decided(l, steps));
        let at: Vec<usize> = (0..plan.len())
            .filter(|&k| plan.steps[k].consequence_check)
            .collect();
        match at[..] {
            [] => assert!(
                rule.consequence.is_empty() || all_decided(seed_steps),
                "{ctx}: consequence unscheduled"
            ),
            [k] => {
                assert!(!rule.consequence.is_empty(), "{ctx}");
                assert!(all_decided(k + 1), "{ctx}: consequence at step {k}");
                assert!(!all_decided(k), "{ctx}: consequence decided before {k}");
            }
            _ => panic!("{ctx}: consequence checked at steps {at:?}"),
        }
    }

    #[test]
    fn every_literal_is_scheduled_once_at_the_step_of_its_last_variable() {
        let g = Graph::new();
        let mut rules = paper::paper_rule_set().rules().to_vec();
        rules.extend(benchmark_rules());
        assert_eq!(rules.len(), 7 + 8);
        for rule in &rules {
            for seeds in seed_sets(rule) {
                let plan = compile_rule_plan(rule, &g, &seeds);
                assert_schedule_is_exact(rule, &plan);
                // Literals do not enter the cost model: same steps as the
                // pattern-only plan.
                let bare = compile_plan(&rule.pattern, &g, &seeds);
                assert!(bare.rule.is_none());
                assert!(!bare.matches_rule(rule));
                assert_eq!(
                    plan.order().collect::<Vec<_>>(),
                    bare.order().collect::<Vec<_>>()
                );
                assert_eq!(plan.est_cost, bare.est_cost);
            }
        }
    }

    /// `a -e-> b -e-> c`, all labelled `T`, with the given literals.
    pub(crate) fn chain_rule(id: &str, premise: Vec<Literal>, consequence: Vec<Literal>) -> Ngd {
        let mut q = Pattern::new();
        let a = q.add_node("a", "T");
        let b = q.add_node("b", "T");
        let c = q.add_node("c", "T");
        q.add_edge(a, b, "e").add_edge(b, c, "e");
        Ngd::new(id, q, premise, consequence).unwrap()
    }

    pub(crate) fn val(var: u32) -> Expr {
        Expr::attr(Var(var), "val")
    }

    #[test]
    fn schedule_edge_cases() {
        let g = Graph::new();
        let checks = |plan: &MatchPlan| -> Vec<(Vec<usize>, bool)> {
            plan.steps
                .iter()
                .map(|s| (s.premise_checks.clone(), s.consequence_check))
                .collect()
        };
        let nothing = (vec![], false);

        // A constant-only literal is decided before the search starts; an
        // empty consequence has nothing to check.
        let rule = chain_rule(
            "chain",
            vec![Literal::le(Expr::constant(1), Expr::constant(2))],
            vec![],
        );
        let plan = compile_rule_plan(&rule, &g, &[]);
        assert_schedule_is_exact(&rule, &plan);
        assert!(checks(&plan).iter().all(|c| *c == nothing));

        // Empty premise; consequence literals decided at different steps
        // (order a, b, c): the check sits at the later one only.
        let rule = chain_rule(
            "chain",
            vec![],
            vec![
                Literal::le(val(0), Expr::constant(5)),
                Literal::lt(val(0), val(2)),
            ],
        );
        let plan = compile_rule_plan(&rule, &g, &[]);
        assert_schedule_is_exact(&rule, &plan);
        assert_eq!(plan.order().collect::<Vec<_>>(), [Var(0), Var(1), Var(2)]);
        assert_eq!(
            checks(&plan),
            [nothing.clone(), nothing.clone(), (vec![], true)]
        );

        // Literals decided entirely by the seeds are left to the seed
        // installation; the others keep their steps.
        let rule = chain_rule(
            "chain",
            vec![Literal::lt(val(0), val(1)), Literal::lt(val(1), val(2))],
            vec![Literal::ge(val(0), Expr::constant(0))],
        );
        let plan = compile_rule_plan(&rule, &g, &[Var(0), Var(1)]);
        assert_schedule_is_exact(&rule, &plan);
        assert_eq!(
            checks(&plan),
            [nothing.clone(), nothing.clone(), (vec![1], false)]
        );

        // A variable the pattern does not have is never bound: the literal
        // is never scheduled, and keeps the consequence check off.
        let rule = Ngd::new_unchecked(
            "stray",
            chain_rule("chain", vec![], vec![]).pattern,
            vec![Literal::lt(val(0), val(7))],
            vec![Literal::lt(val(1), val(7)), Literal::lt(val(0), val(1))],
        );
        let plan = compile_rule_plan(&rule, &g, &[]);
        assert!(checks(&plan).iter().all(|c| *c == nothing));
    }

    #[test]
    fn a_missing_attribute_changes_when_a_branch_dies_not_what_is_found() {
        // Half the nodes lack `val`.  The full check sees `a.val < c.val`
        // false as soon as `a` is bound to one of them; the schedule sees
        // it when `c` is bound.  Same violations either way.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..6i64)
            .map(|i| {
                let mut attrs = ngd_graph::AttrMap::new();
                if i % 2 == 0 {
                    attrs.set_named("val", ngd_graph::Value::Int(i));
                }
                g.add_node_named("T", attrs)
            })
            .collect();
        for w in ids.windows(2) {
            g.add_edge_named(w[0], w[1], "e").unwrap();
        }
        g.add_edge_named(ids[4], ids[0], "e").unwrap();
        g.add_edge_named(ids[0], ids[2], "e").unwrap();
        g.add_edge_named(ids[2], ids[4], "e").unwrap();
        let rule = chain_rule(
            "chain",
            vec![Literal::lt(val(0), val(2))],
            vec![Literal::lt(val(1), val(0))],
        );
        let snap = g.freeze();
        let legacy = crate::Matcher::new(&rule.pattern, &snap)
            .with_legacy_order()
            .find_violations(&rule);
        assert!(!legacy.is_empty());
        assert_eq!(crate::find_violations(&rule, &snap), legacy);
        assert_eq!(crate::find_violations(&rule, &g), legacy);
    }

    #[test]
    fn describe_prints_each_check_under_the_step_that_decides_it() {
        let rule = paper::phi3();
        let (g, _) = paper::figure1_g3();
        let plan = compile_rule_plan(&rule, &g.freeze(), &[]);
        let text = plan.describe(&rule);
        let lines: Vec<&str> = text.lines().collect();
        let line_of = |needle: &str| {
            lines
                .iter()
                .position(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("no `{needle}` in\n{text}"))
        };
        // The premise compares m1 and m2: it cannot bite before both are
        // bound, and is printed under whichever the plan binds second.
        let check = line_of("check premise #0: m1.val < m2.val");
        let last_bound = line_of(" m1:integer").max(line_of(" m2:integer"));
        assert_eq!(check, last_bound + 1, "{text}");
        let check = line_of("check consequence");
        let last_bound = line_of(" n1:integer").max(line_of(" n2:integer"));
        assert_eq!(check, last_bound + 1, "{text}");
        // A pattern-only plan lists the same steps and no checks.
        let bare = compile_plan(&rule.pattern, &g.freeze(), &[]).describe(&rule);
        assert!(!bare.contains("check"), "{bare}");
        let without_checks: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| !l.contains("check"))
            .collect();
        assert_eq!(bare.lines().collect::<Vec<_>>(), without_checks);
    }

    #[test]
    fn describe_lists_anchors_and_seed() {
        let rule = paper::phi2();
        let (g, _) = paper::figure1_g2();
        let snap = g.freeze();
        let plan = compile_plan(&rule.pattern, &snap, &[]);
        let text = plan.describe(&rule);
        assert!(text.contains("0."), "{text}");
        assert!(text.contains("est"), "{text}");
        assert!(text.contains("total estimated cost"), "{text}");
    }
}
