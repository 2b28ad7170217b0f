//! `PIncDect` — the parallel incremental detector (Section 6.3).
//!
//! The algorithm runs `p` workers over the update pivots of `ΔG`:
//!
//! 1. **Pivot generation** — for every unit update and every compatible
//!    pattern edge, an update pivot (a two-variable partial solution) is
//!    created exactly as in `IncDect`; the pivots are distributed evenly
//!    over the `p` worker queues (`BVio_i`).
//! 2. **Parallel expansion** — each worker repeatedly pops a partial
//!    solution from its own queue, generates the candidates of the next
//!    pattern variable from the adjacency list of an already-matched node,
//!    and either
//!      * **splits** the candidate list across all workers when the paper's
//!        cost model says the parallel route is cheaper
//!        (`C·(k+1) + |adj|/p < |adj|`), or
//!      * extends the partial solution locally, pushing the viable children
//!        back onto its own queue.
//!
//!    Complete assignments are checked for violation and against the
//!    "other side" graph so that the result is exactly
//!    `ΔVio = (ΔVio⁺, ΔVio⁻)`.
//! 3. **Workload balancing** — with balancing on and `p > 1`, a coordinator
//!    thread wakes up every `intvl` milliseconds of wall time, measures
//!    queue skewness and migrates work units from workers above `η` to
//!    workers below `η'` ([`crate::balance`]).
//!
//! The caller is worker 0 and `p − 1` threads are spawned — none at `p = 1`
//! or when `ΔG` triggers no pivot, so a small served `UPDATE` runs inline.
//! Nothing polls: idle workers and the coordinator block on one condvar
//! (`tests/locality.rs` pins the inline path and the termination protocol).
//!
//! The two hybrid-strategy ingredients can be disabled independently,
//! giving the paper's ablation variants `PIncDect_ns`, `PIncDect_nb` and
//! `PIncDect_NO`.
//!
//! The runtime is a shared-memory simulation of the paper's cluster: the
//! `p` "processors" are OS threads, replication of the candidate
//! neighbourhood is free, and communication latency is *accounted* (in the
//! [`CostLedger`]) rather than suffered, so that the latency/interval
//! sweeps of Figures 4(m)/4(n) can be reproduced from the modelled cost.

use crate::balance::plan_migrations;
use crate::config::{AlgorithmKind, DetectorConfig};
use crate::cost::{should_split, CostLedger};
use crate::report::{DeltaReport, SearchStats, VioSide, VioSink};
use ngd_core::{is_violation, Ngd, RuleSet};
use ngd_graph::{BatchUpdate, DeltaOverlay, EdgeRef, Graph, GraphView, NodeId};
use ngd_match::{
    compile_rule_plan, edge_ranks, pattern_matches, update_pivots, DeltaViolations, FastPathTally,
    MatchPlan, Matcher, PlanCache, Violation,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which half of the delta a work unit contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Searching `G ⊕ ΔG` from inserted edges — contributes to `ΔVio⁺`.
    Added,
    /// Searching `G` from deleted edges — contributes to `ΔVio⁻`.
    Removed,
}

/// A partial solution waiting to be expanded — one entry of a worker's
/// `BVio_i` queue.
#[derive(Debug, Clone)]
struct WorkUnit {
    /// Index of the rule in `Σ`.
    rule_idx: usize,
    /// Added (insertion-driven) or Removed (deletion-driven).
    phase: Phase,
    /// The compiled match plan fixed when the pivot was created (shared by
    /// every unit descending from the same (rule, seed-variable) pair).
    plan: Arc<MatchPlan>,
    /// Position in the plan of the next variable to match.
    depth: usize,
    /// The partial assignment (indexed by pattern variable).
    assignment: Vec<Option<NodeId>>,
    /// Candidates for `order[depth]` pre-computed by a split, if any.
    presplit: Option<Vec<NodeId>>,
    /// Rank of the update pivot this unit descends from; updated edges of a
    /// lower rank are forbidden during its expansion (pivot de-duplication,
    /// Section 6.2).
    pivot_rank: usize,
}

/// Per-worker accumulator merged into the final report.
#[derive(Debug, Default)]
struct WorkerOutput {
    delta: DeltaViolations,
    stats: SearchStats,
    cost: CostLedger,
    /// Literal-schedule and candidate-list tallies, folded into the metrics
    /// registry once when the run ends.
    fast_path: FastPathTally,
}

/// Streaming state shared by every worker when the caller installed a
/// [`VioSink`]: the `seen` set de-duplicates across workers (each worker's
/// own `WorkerOutput` set only catches its *local* repeats — two workers
/// can legitimately complete the same match after a split or a migration),
/// so the sink observes each violation exactly once and the streamed
/// totals equal the merged report's.
struct EmitState<'a> {
    sink: VioSink<'a>,
    seen: Mutex<DeltaViolations>,
}

/// Shared runtime state of one `PIncDect` invocation.  Every worker reads
/// the same `(old, new)` view pair, so a work unit may be expanded by any
/// worker (splitting and balancing move units freely).
struct Runtime<'a, V: GraphView> {
    sigma: &'a RuleSet,
    /// `G`.
    old_graph: &'a V,
    /// `G ⊕ ΔG`.
    new_graph: &'a V,
    /// Rank of each inserted edge in `ΔG⁺` (pivot de-duplication).
    inserted_ranks: HashMap<EdgeRef, usize>,
    /// Rank of each deleted edge in `ΔG⁻`.
    deleted_ranks: HashMap<EdgeRef, usize>,
    config: DetectorConfig,
    /// Present when the caller wants violations streamed during expansion.
    emit: Option<EmitState<'a>>,
    queues: Vec<Mutex<VecDeque<WorkUnit>>>,
    /// Work units queued or being expanded (all workers).  A unit counts
    /// from its `push` until its expansion — which pushes its children
    /// first — has finished, so zero means the run is complete.
    in_flight: AtomicUsize,
    /// Idle workers and the coordinator block on `wake` under `idle`,
    /// notified by [`Runtime::wake_idle`].
    idle: Mutex<()>,
    wake: Condvar,
}

impl<'a, V: GraphView> Runtime<'a, V> {
    /// `(search graph, other-side graph)` of a phase.
    fn graphs_for(&self, phase: Phase) -> (&'a V, &'a V) {
        match phase {
            Phase::Added => (self.new_graph, self.old_graph),
            Phase::Removed => (self.old_graph, self.new_graph),
        }
    }

    fn ranks_for(&self, phase: Phase) -> &HashMap<EdgeRef, usize> {
        match phase {
            Phase::Added => &self.inserted_ranks,
            Phase::Removed => &self.deleted_ranks,
        }
    }

    /// Enqueue a unit on a specific worker queue.  Pushing onto a queue
    /// other than the caller's own must be followed by [`Self::wake_idle`].
    fn push(&self, worker: usize, unit: WorkUnit) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.queues[worker]
            .lock()
            .expect("queue lock poisoned")
            .push_back(unit);
    }

    /// Pop the next unit for a worker (LIFO on its own queue, so expansion
    /// is depth-first and queue memory stays bounded; the balancer moves
    /// the oldest — shallowest, hence largest — units from the front).
    fn pop(&self, worker: usize) -> Option<WorkUnit> {
        self.queues[worker]
            .lock()
            .expect("queue lock poisoned")
            .pop_back()
    }

    /// Wake every blocked thread: called after units land on another
    /// worker's queue and when `in_flight` reaches zero.  Taking `idle`
    /// first orders the notification after any waiter's check of its queue
    /// and of `in_flight`, which it makes under the same lock: a waiter
    /// either sees the new state or is already waiting — no lost wake-up.
    fn wake_idle(&self) {
        drop(self.idle.lock().expect("idle lock poisoned"));
        self.wake.notify_all();
    }

    /// Expand one work unit on behalf of `worker`, writing results into
    /// `out` and pushing children / split chunks onto the queues.
    fn expand(&self, worker: usize, unit: WorkUnit, out: &mut WorkerOutput) {
        let rule = &self.sigma.rules()[unit.rule_idx];
        let (search_graph, other_graph) = self.graphs_for(unit.phase);
        let matcher = Matcher::new(&rule.pattern, search_graph)
            .with_forbidden(self.ranks_for(unit.phase), unit.pivot_rank);
        out.stats.expanded += 1;

        // Skip over variables the pivot already assigned.
        let mut depth = unit.depth;
        while depth < unit.plan.len() && unit.assignment[unit.plan.var_at(depth).index()].is_some()
        {
            depth += 1;
        }
        if depth == unit.plan.len() {
            let complete: Vec<NodeId> = unit
                .assignment
                .iter()
                .map(|n| n.expect("complete"))
                .collect();
            out.stats.matches_found += 1;
            if is_violation(rule, search_graph, &complete)
                && !pattern_matches(rule, other_graph, &complete)
            {
                let violation = Violation::new(rule.id.clone(), complete);
                if let Some(emit) = &self.emit {
                    // Global dedup before the sink: only the worker that
                    // wins the `seen` insert delivers, so a violation that
                    // several workers complete (split/migrated units) is
                    // still streamed exactly once.  The lock is released
                    // before the sink runs — a sink blocked on
                    // back-pressure must not serialize the dedup path.
                    let fresh = {
                        let mut seen = emit.seen.lock().expect("emit set lock poisoned");
                        match unit.phase {
                            Phase::Added => seen.added.insert(violation.clone()),
                            Phase::Removed => seen.removed.insert(violation.clone()),
                        }
                    };
                    if fresh {
                        let side = match unit.phase {
                            Phase::Added => VioSide::Added,
                            Phase::Removed => VioSide::Removed,
                        };
                        (emit.sink)(side, &violation);
                    }
                }
                match unit.phase {
                    Phase::Added => out.delta.added.insert(violation),
                    Phase::Removed => out.delta.removed.insert(violation),
                };
            }
            return;
        }

        let var = unit.plan.var_at(depth);
        let (candidates, anchor_degree) = match unit.presplit {
            Some(ref pre) => (pre.clone(), pre.len()),
            None => matcher.planned_candidate_step(
                &unit.plan,
                depth,
                &unit.assignment,
                &mut out.fast_path,
            ),
        };
        out.stats.candidates_inspected += candidates.len();
        out.cost.record_scan(candidates.len());

        // Work-unit splitting (hybrid strategy, ingredient (a)): if the cost
        // model prefers the parallel route, scatter the candidate list over
        // all workers and stop here.
        let p = self.queues.len();
        let already_split = unit.presplit.is_some();
        if self.config.work_splitting
            && !already_split
            && p > 1
            && candidates.len() >= p
            && should_split(self.config.latency_c, depth, anchor_degree, p)
        {
            out.cost.record_split(self.config.latency_c, depth);
            let chunk = candidates.len().div_ceil(p);
            for (offset, slice) in candidates.chunks(chunk).enumerate() {
                let target = (worker + offset) % p;
                self.push(
                    target,
                    WorkUnit {
                        presplit: Some(slice.to_vec()),
                        depth,
                        ..unit.clone()
                    },
                );
            }
            self.wake_idle();
            return;
        }
        out.cost.record_local();

        for candidate in candidates {
            let mut child_assignment = unit.assignment.clone();
            child_assignment[var.index()] = Some(candidate);
            // The unit was viable before this step, so only what the step
            // newly decides needs checking — the recursive search's test.
            if !matcher.step_viable(
                &unit.plan,
                depth,
                Some(rule),
                &child_assignment,
                &mut out.fast_path,
            ) {
                continue;
            }
            self.push(
                worker,
                WorkUnit {
                    rule_idx: unit.rule_idx,
                    phase: unit.phase,
                    plan: Arc::clone(&unit.plan),
                    depth: depth + 1,
                    assignment: child_assignment,
                    presplit: None,
                    pivot_rank: unit.pivot_rank,
                },
            );
        }
    }

    /// Worker main loop: drain the own queue, then block until units land
    /// on it or the run completes.
    fn worker_loop(&self, worker: usize) -> WorkerOutput {
        let mut out = WorkerOutput::default();
        loop {
            while let Some(unit) = self.pop(worker) {
                self.expand(worker, unit, &mut out);
                if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.wake_idle();
                }
            }
            // Zero is final: only an in-flight expansion pushes.
            if self.in_flight.load(Ordering::SeqCst) == 0 {
                return out;
            }
            let idle = self.idle.lock().expect("idle lock poisoned");
            let own = &self.queues[worker];
            let blocked = |_: &mut ()| {
                self.in_flight.load(Ordering::SeqCst) != 0
                    && own.lock().expect("queue lock poisoned").is_empty()
            };
            drop(
                self.wake
                    .wait_while(idle, blocked)
                    .expect("idle lock poisoned"),
            );
        }
    }

    /// Coordinator loop: workload balancing every `intvl` of wall time
    /// until completion.  Returns the cost attributed to balancing
    /// (migrations and their modelled communication latency).
    fn coordinator_loop(&self) -> CostLedger {
        let mut ledger = CostLedger::default();
        let interval = Duration::from_millis(self.config.balance_interval_ms.max(1));
        let mut due = Instant::now() + interval;
        // Held except while waiting, so no worker goes idle mid-migration.
        let mut idle = self.idle.lock().expect("idle lock poisoned");
        while self.in_flight.load(Ordering::SeqCst) != 0 {
            let now = Instant::now();
            if now < due {
                idle = self
                    .wake
                    .wait_timeout(idle, due - now)
                    .expect("idle lock poisoned")
                    .0;
                continue;
            }
            due = now + interval;
            let lens: Vec<usize> = self
                .queues
                .iter()
                .map(|q| q.lock().expect("queue lock poisoned").len())
                .collect();
            let plan = plan_migrations(&lens, self.config.skew_high, self.config.skew_low);
            for migration in plan {
                let mut moved = Vec::with_capacity(migration.units);
                {
                    let mut from = self.queues[migration.from]
                        .lock()
                        .expect("queue lock poisoned");
                    for _ in 0..migration.units {
                        // Take the oldest (shallowest) units: they carry the
                        // most remaining work.
                        match from.pop_front() {
                            Some(unit) => moved.push(unit),
                            None => break,
                        }
                    }
                }
                if moved.is_empty() {
                    continue;
                }
                ledger.record_migration(moved.len());
                // Moving a unit between processors is a message: account its
                // latency so the `intvl` sweep exposes the paper's trade-off.
                ledger.latency_units += self.config.latency_c * moved.len() as f64;
                self.queues[migration.to]
                    .lock()
                    .expect("queue lock poisoned")
                    .extend(moved);
                self.wake.notify_all();
            }
        }
        ledger
    }
}

/// Create the initial work units (update pivots) of one rule for one
/// updated edge.  The `ranks` map drives the pivot de-duplication: the
/// unit created for the `rank`-th updated edge never expands into an
/// earlier updated edge.
#[allow(clippy::too_many_arguments)]
fn edge_pivot_units<G: GraphView>(
    rule_idx: usize,
    rule: &Ngd,
    phase: Phase,
    search_graph: &G,
    edge: EdgeRef,
    rank: usize,
    ranks: &HashMap<EdgeRef, usize>,
    cache: &PlanCache,
) -> Vec<WorkUnit> {
    let mut units = Vec::new();
    let matcher = Matcher::new(&rule.pattern, search_graph).with_forbidden(ranks, rank);
    for pivot in update_pivots(rule, search_graph, std::iter::once(edge)) {
        let pe = rule.pattern.edges()[pivot.pattern_edge];
        let seeds = [(pe.src, pivot.edge.src), (pe.dst, pivot.edge.dst)];
        // Install the seeds, rejecting label clashes and self-loop
        // pattern edges seeded with two different nodes.
        let mut assignment = vec![None; rule.pattern.node_count()];
        let mut ok = true;
        for &(var, node) in &seeds {
            if !matcher.node_matches_var(var, node) {
                ok = false;
                break;
            }
            match assignment[var.index()] {
                Some(existing) if existing != node => {
                    ok = false;
                    break;
                }
                _ => assignment[var.index()] = Some(node),
            }
        }
        if !ok || !matcher.partial_viable(Some(rule), &assignment) {
            continue;
        }
        let plan = cache.get_or_compile(&rule.id, &[pe.src, pe.dst], || {
            compile_rule_plan(rule, search_graph, &[pe.src, pe.dst])
        });
        units.push(WorkUnit {
            rule_idx,
            phase,
            plan,
            depth: 0,
            assignment,
            presplit: None,
            pivot_rank: rank,
        });
    }
    units
}

/// Run `PIncDect` (or one of its ablation variants, depending on
/// `config.work_splitting` / `config.workload_balancing`) on a graph and a
/// batch update.
///
/// Default path: the graph is frozen once and both sides of the run are
/// [`DeltaOverlay`]s over the snapshot (the old side with no pending
/// update), so `G ⊕ ΔG` is never materialised.
pub fn pinc_dect(
    sigma: &RuleSet,
    graph: &Graph,
    delta: &BatchUpdate,
    config: &DetectorConfig,
) -> DeltaReport {
    let snapshot = graph.freeze();
    let old_view = snapshot.as_overlay();
    let new_view = DeltaOverlay::new(&snapshot, delta);
    pinc_dect_prepared(sigma, &old_view, &new_view, delta, config)
}

/// Run `PIncDect` when both `G` and `G ⊕ ΔG` are already available as
/// graph views (of the same representation).
pub fn pinc_dect_prepared<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
    config: &DetectorConfig,
) -> DeltaReport {
    pinc_dect_prepared_cached(
        sigma,
        old_graph,
        new_graph,
        delta,
        config,
        &PlanCache::new(),
    )
}

/// [`pinc_dect_prepared`] with a caller-owned [`PlanCache`]: every pivot
/// of the same (rule, seed-variable) pair — within this batch and across
/// batches against the same snapshot epoch — shares one compiled plan.
pub fn pinc_dect_prepared_cached<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
    config: &DetectorConfig,
    cache: &PlanCache,
) -> DeltaReport {
    pinc_dect_prepared_streaming(sigma, old_graph, new_graph, delta, config, cache, None)
}

/// [`pinc_dect_prepared_cached`] with an optional [`VioSink`]: every
/// violation is also handed to `sink` **while expansion is still running**,
/// so a serving layer can put the first `ΔVio` bytes on the wire long
/// before the run completes.  The returned report is identical either way
/// (same deterministic sets); see [`VioSink`] for the delivery guarantees.
pub fn pinc_dect_prepared_streaming<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
    config: &DetectorConfig,
    cache: &PlanCache,
    sink: Option<VioSink<'_>>,
) -> DeltaReport {
    let start = Instant::now();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let p = config.processors.max(1);
    let inserted: Vec<EdgeRef> = delta.insertions().collect();
    let deleted: Vec<EdgeRef> = delta.deletions().collect();

    // Phase 1: update pivots for every rule, both phases, dealt out evenly:
    // all pivots of one (rule, updated edge) go to the same worker.
    let inserted_ranks = edge_ranks(&inserted);
    let deleted_ranks = edge_ranks(&deleted);
    let mut pivots: Vec<(usize, WorkUnit)> = Vec::new();
    for (rule_idx, rule) in sigma.iter().enumerate() {
        for (rank, edge) in inserted.iter().enumerate() {
            let worker = pivots.len() % p;
            pivots.extend(
                edge_pivot_units(
                    rule_idx,
                    rule,
                    Phase::Added,
                    new_graph,
                    *edge,
                    rank,
                    &inserted_ranks,
                    cache,
                )
                .into_iter()
                .map(|unit| (worker, unit)),
            );
        }
        for (rank, edge) in deleted.iter().enumerate() {
            let worker = pivots.len() % p;
            pivots.extend(
                edge_pivot_units(
                    rule_idx,
                    rule,
                    Phase::Removed,
                    old_graph,
                    *edge,
                    rank,
                    &deleted_ranks,
                    cache,
                )
                .into_iter()
                .map(|unit| (worker, unit)),
            );
        }
    }

    let runtime = Runtime {
        sigma,
        old_graph,
        new_graph,
        inserted_ranks,
        deleted_ranks,
        config: *config,
        emit: sink.map(|sink| EmitState {
            sink,
            seen: Mutex::new(DeltaViolations::new()),
        }),
        queues: (0..p).map(|_| Mutex::new(VecDeque::new())).collect(),
        in_flight: AtomicUsize::new(0),
        idle: Mutex::new(()),
        wake: Condvar::new(),
    };

    // Phase 1 (continued): enqueue the pivots on their workers.
    let workers_spawned = if pivots.is_empty() { 0 } else { p - 1 };
    for (worker, unit) in pivots {
        runtime.push(worker, unit);
    }

    // Phase 2 + 3: workers expand — the caller as worker 0 — and, with
    // more than one of them, the coordinator balances.
    let runtime_ref = &runtime;
    let balancing = config.workload_balancing && workers_spawned > 0;
    let (outputs, balance_cost) = std::thread::scope(|scope| {
        let coordinator = balancing.then(|| scope.spawn(|| runtime_ref.coordinator_loop()));
        let handles: Vec<_> = (1..=workers_spawned)
            .map(|worker| scope.spawn(move || runtime_ref.worker_loop(worker)))
            .collect();
        let mut outputs = vec![runtime_ref.worker_loop(0)];
        outputs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread must not panic")),
        );
        let balance_cost = coordinator.map_or_else(CostLedger::default, |h| {
            h.join().expect("coordinator thread must not panic")
        });
        (outputs, balance_cost)
    });

    let mut delta_vio = DeltaViolations::new();
    let mut stats = SearchStats::default();
    let mut cost = balance_cost;
    let mut fast_path = FastPathTally::default();
    {
        let _span = ngd_obs::span!("detect.fold");
        for out in outputs {
            delta_vio.extend(out.delta);
            stats.merge(&out.stats);
            cost.merge(&out.cost);
            fast_path.merge(&out.fast_path);
        }
    }
    fast_path.observe();
    stats.record_plan_cache(hits0, misses0, cache);

    let algorithm = match (config.work_splitting, config.workload_balancing) {
        (true, true) => AlgorithmKind::PIncDect,
        (false, true) => AlgorithmKind::PIncDectNs,
        (true, false) => AlgorithmKind::PIncDectNb,
        (false, false) => AlgorithmKind::PIncDectNo,
    };
    DeltaReport {
        algorithm,
        delta: delta_vio,
        stats,
        cost,
        processors: p,
        neighborhood_nodes: 0,
        elapsed: start.elapsed(),
    }
    .observed(workers_spawned + usize::from(balancing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incdect::inc_dect;
    use ngd_core::paper;
    use ngd_graph::{intern, AttrMap, Value};

    /// Example 7 of the paper: G4 plus 98 small helper accounts, then the
    /// *real* account's status edge — which every violation shares as the
    /// `s1` match — is deleted, removing 99 violations at once.
    fn example7() -> (Graph, BatchUpdate, RuleSet) {
        let (mut g, fake) = paper::figure1_g4();
        let company = g.nodes_with_label(intern("company"))[0];
        let real = g
            .nodes_with_label(intern("account"))
            .iter()
            .copied()
            .find(|&n| n != fake)
            .expect("figure 1 G4 has a real account besides the fake one");
        for i in 0..98 {
            let acct = g.add_node_named("account", AttrMap::new());
            let following =
                g.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(1))]));
            let follower =
                g.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(2))]));
            let status =
                g.add_node_named("boolean", AttrMap::from_pairs([("val", Value::Bool(true))]));
            g.add_edge_named(acct, company, "keys").unwrap();
            g.add_edge_named(acct, following, "following").unwrap();
            g.add_edge_named(acct, follower, "follower").unwrap();
            g.add_edge_named(acct, status, "status").unwrap();
            let _ = i;
        }
        let status_node = g
            .out_neighbors(real)
            .iter()
            .find(|&&(_, l)| l == intern("status"))
            .map(|&(n, _)| n)
            .unwrap();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(real, status_node, intern("status"));
        let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
        (g, delta, sigma)
    }

    #[test]
    fn parallel_agrees_with_sequential_incremental() {
        let (g, delta, sigma) = example7();
        let sequential = inc_dect(&sigma, &g, &delta);
        for p in [1, 2, 4, 8] {
            for config in [
                DetectorConfig::with_processors(p).hybrid(),
                DetectorConfig::with_processors(p).no_splitting(),
                DetectorConfig::with_processors(p).no_balancing(),
                DetectorConfig::with_processors(p).no_hybrid(),
            ] {
                let parallel = pinc_dect(&sigma, &g, &delta, &config);
                assert_eq!(
                    parallel.delta, sequential.delta,
                    "{:?} with p={p} must agree with IncDect",
                    parallel.algorithm
                );
            }
        }
    }

    #[test]
    fn example7_finds_99_removed_violations() {
        // Deleting the status edge of NatWest Help removes the violation in
        // which it was the real account paired with NatWest_Help — and the
        // 98 helper accounts pair with the fake account the same way, so the
        // paper reports a total of 99 removed violations.
        let (g, delta, sigma) = example7();
        let report = pinc_dect(&sigma, &g, &delta, &DetectorConfig::with_processors(4));
        assert_eq!(report.delta.removed.len(), 99);
        assert!(report.delta.added.is_empty());
        assert_eq!(report.algorithm, AlgorithmKind::PIncDect);
    }

    #[test]
    fn splitting_is_recorded_in_the_ledger() {
        let (g, delta, sigma) = example7();
        // A tiny latency constant makes every sizable adjacency list split.
        let config = DetectorConfig::with_processors(4).latency(0.5);
        let report = pinc_dect(&sigma, &g, &delta, &config);
        assert!(report.cost.splits > 0, "expected at least one split");
        // The ablation without splitting performs none.
        let ns = pinc_dect(&sigma, &g, &delta, &config.no_splitting());
        assert_eq!(ns.cost.splits, 0);
        assert_eq!(ns.algorithm, AlgorithmKind::PIncDectNs);
        assert_eq!(ns.delta, report.delta);
    }

    #[test]
    fn streaming_sink_delivers_each_violation_exactly_once() {
        // Forced splitting (tiny latency constant) maximises the chance of
        // two workers completing the same match — the sink must still see
        // every violation of the final report exactly once, so collecting
        // the stream into fresh sets (which would hide duplicates) is not
        // enough: count raw deliveries too.
        let (g, delta, sigma) = example7();
        let snapshot = g.freeze();
        let old_view = snapshot.as_overlay();
        let new_view = DeltaOverlay::new(&snapshot, &delta);
        for config in [
            DetectorConfig::with_processors(4).latency(0.5),
            DetectorConfig::with_processors(1),
            DetectorConfig::with_processors(4).no_hybrid(),
        ] {
            let streamed: Mutex<(DeltaViolations, u64)> = Mutex::new((DeltaViolations::new(), 0));
            let report = pinc_dect_prepared_streaming(
                &sigma,
                &old_view,
                &new_view,
                &delta,
                &config,
                &PlanCache::new(),
                Some(&|side, violation| {
                    let mut guard = streamed.lock().unwrap();
                    match side {
                        VioSide::Added => guard.0.added.insert(violation.clone()),
                        VioSide::Removed => guard.0.removed.insert(violation.clone()),
                    };
                    guard.1 += 1;
                }),
            );
            let (collected, deliveries) = streamed.into_inner().unwrap();
            assert_eq!(collected, report.delta);
            assert_eq!(deliveries as usize, report.delta.len());
            assert_eq!(report.delta.removed.len(), 99);
        }
    }

    #[test]
    fn empty_update_terminates_immediately() {
        let (g, _) = paper::figure1_g2();
        let sigma = paper::paper_rule_set();
        let report = pinc_dect(
            &sigma,
            &g,
            &BatchUpdate::new(),
            &DetectorConfig::with_processors(3),
        );
        assert!(report.delta.is_empty());
        assert_eq!(report.stats.expanded, 0);
    }

    #[test]
    fn insertions_and_deletions_in_one_batch() {
        let (g_old, fake) = paper::figure1_g4();
        let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
        let company = g_old.nodes_with_label(intern("company"))[0];
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

        let sequential = inc_dect(&sigma, &g_old, &delta);
        let parallel = pinc_dect(&sigma, &g_old, &delta, &DetectorConfig::with_processors(4));
        assert_eq!(parallel.delta, sequential.delta);
        assert!(!parallel.delta.added.is_empty());
        assert!(!parallel.delta.removed.is_empty());
    }

    /// Runs Example 7 on two workers with worker 0 (the caller, which owns
    /// the only pivot) held in the sink at its first violation until the
    /// spawned worker delivers one or 50 ms pass.  Worker 1 only ever gets
    /// work by migration, so the return value says whether the coordinator
    /// balanced within 50 ms of wall time.
    fn worker_one_got_work_within_50ms(config: &DetectorConfig) -> (bool, DeltaReport) {
        let (g, delta, sigma) = example7();
        let snapshot = g.freeze();
        let old_view = snapshot.as_overlay();
        let new_view = DeltaOverlay::new(&snapshot, &delta);
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        // `Some` until worker 0's first delivery takes it to wait on.
        let rx = Mutex::new(Some(rx));
        let in_time = Mutex::new(false);
        let report = pinc_dect_prepared_streaming(
            &sigma,
            &old_view,
            &new_view,
            &delta,
            config,
            &PlanCache::new(),
            Some(&|_, _| {
                if std::thread::current().id() != caller {
                    let _ = tx.send(());
                } else if let Some(rx) = rx.lock().unwrap().take() {
                    *in_time.lock().unwrap() = rx.recv_timeout(Duration::from_millis(50)).is_ok();
                }
            }),
        );
        (in_time.into_inner().unwrap(), report)
    }

    #[test]
    fn balancing_interval_is_wall_time() {
        // Two queues never exceed the paper's η = 3, so lower it; no
        // splitting, so migration is the only way work reaches worker 1.
        let config = DetectorConfig {
            skew_high: 1.5,
            ..DetectorConfig::with_processors(2).interval_ms(5)
        }
        .no_splitting();
        let (in_time, report) = worker_one_got_work_within_50ms(&config);
        assert!(in_time, "no migration within 10 intervals of wall time");
        assert!(report.cost.migrations >= 1);
        assert_eq!(report.delta.removed.len(), 99);

        let (_, report) = worker_one_got_work_within_50ms(&config.no_balancing());
        assert_eq!(report.cost.migrations, 0);
        assert_eq!(report.delta.removed.len(), 99);
    }

    #[test]
    fn frequent_balancing_does_not_change_the_result() {
        let (g, delta, sigma) = example7();
        let reference = inc_dect(&sigma, &g, &delta);
        let config = DetectorConfig::with_processors(4).interval_ms(1);
        let report = pinc_dect(&sigma, &g, &delta, &config);
        assert_eq!(report.delta, reference.delta);
    }
}
