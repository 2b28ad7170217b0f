//! What the harness prints and writes: the one-line result the driver
//! reads, the results file of a multi-run `run`, and `compare`.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::sut::{parse_json, Json, JsonError};
use crate::workloads::Outcome;
use std::collections::BTreeMap;
use std::path::Path;

/// The metrics a run must print: every end-to-end metric untraced, every
/// per-layer metric traced.  A per-layer metric a workload does not
/// define reads 0.
pub fn contract_metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static MetricDef, f64)> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    defs.iter()
        .map(|def| (def, outcome.metrics.get(def.name).copied().unwrap_or(0.0)))
        .collect()
}

/// The last line of a run's standard output.
pub fn contract_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = contract_metrics(outcome, trace)
        .into_iter()
        .map(|(def, value)| {
            (
                def.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(def.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::Int(outcome.attempted as i64)),
        ("failed".into(), Json::Int(outcome.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// The lines above it, for a human.
pub fn print_outcome(outcome: &Outcome, trace: bool) {
    println!("workload_digest {}", outcome.digest);
    for (def, value) in contract_metrics(outcome, trace) {
        println!("{:<44} {:>16.4} {}", def.name, value, def.unit);
    }
    println!(
        "{:<44} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
}

/// What a multi-run `run` accumulates per workload.
#[derive(Default)]
pub struct WorkloadResults {
    pub digests: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (unit, one value per run).
    pub metrics: BTreeMap<String, (String, Vec<f64>)>,
}

impl WorkloadResults {
    /// Fold in one child's standard output: its `workload_digest` line
    /// and its closing result line.
    pub fn absorb(&mut self, stdout: &str) -> Result<(), String> {
        if let Some(digest) = stdout
            .lines()
            .find_map(|line| line.strip_prefix("workload_digest "))
        {
            if !self.digests.iter().any(|d| d == digest) {
                self.digests.push(digest.to_string());
            }
        }
        let line = stdout.lines().last().ok_or("the run printed nothing")?;
        let result = parse_json(line).map_err(|e| format!("result line: {e}"))?;
        let field = |key: &str| result.field(key).map_err(|e| e.to_string());
        self.attempted += field("attempted")?.as_i64().map_err(|e| e.to_string())? as u64;
        self.failed += field("failed")?.as_i64().map_err(|e| e.to_string())? as u64;
        for (name, entry) in field("metrics")?.as_obj().map_err(|e| e.to_string())? {
            let value = entry
                .field("value")
                .and_then(Json::as_f64)
                .map_err(|e| e.to_string())?;
            let unit = entry
                .field("unit")
                .and_then(Json::as_str)
                .map_err(|e| e.to_string())?;
            self.metrics
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(value);
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (unit, values))| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("unit".into(), Json::Str(unit.clone())),
                        ("median".into(), Json::Float(median(values).unwrap_or(0.0))),
                        (
                            "spread".into(),
                            spread(values).map_or(Json::Null, Json::Float),
                        ),
                        (
                            "values".into(),
                            Json::Arr(values.iter().map(|&v| Json::Float(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            (
                "workload_digests".into(),
                Json::Arr(self.digests.iter().cloned().map(Json::Str).collect()),
            ),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            (
                "error_rate".into(),
                Json::Float(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

pub fn results_json(
    seed: u64,
    runs: u64,
    seconds: f64,
    workloads: &BTreeMap<String, WorkloadResults>,
) -> String {
    Json::Obj(vec![
        ("seed".into(), Json::Int(seed as i64)),
        ("runs".into(), Json::Int(runs as i64)),
        ("seconds".into(), Json::Float(seconds)),
        (
            "available_parallelism".into(),
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
        (
            "workloads".into(),
            Json::Obj(
                workloads
                    .iter()
                    .map(|(name, results)| (name.clone(), results.to_json()))
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

// ---- compare ------------------------------------------------------------------

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Bounded {
    name: String,
    better: Better,
    bound: f64,
}

fn declared_bounds(benchmark_json: &Path) -> Result<Vec<Bounded>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("read {}: {e}", benchmark_json.display()))?;
    let doc = parse_json(&text).map_err(|e| e.to_string())?;
    doc.field("end_to_end")
        .and_then(Json::as_arr)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|entry| {
            let text = |key: &str| entry.field(key).and_then(Json::as_str);
            Ok(Bounded {
                name: text("name")?.to_string(),
                better: match text("better")? {
                    "higher" => Better::Higher,
                    _ => Better::Lower,
                },
                bound: entry.field("bound")?.as_f64()?,
            })
        })
        .collect::<Result<_, JsonError>>()
        .map_err(|e| e.to_string())
}

fn values_of(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()
        .ok()?
        .iter()
        .map(|v| v.as_f64().ok())
        .collect()
}

/// How one (metric, workload) pair of two result sets compares.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference within the bound cannot be told from noise.
    Unresolved,
}

/// Judge `b` against `a`: `worse_by` is the share of `a`'s median by which
/// `b`'s median is worse (negative when better).  Medians are the middle
/// quartile, as the acceptance check takes them.  `spread_counts` is false
/// for `setup_s`, whose spread that check does not hold against the bound.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    spread_counts: bool,
) -> (Verdict, f64, f64) {
    let middle = |values: &[f64]| quartiles(values).map_or(0.0, |(_, q2, _)| q2);
    let (ma, mb) = (middle(a), middle(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let verdict = if spread_counts && widest > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, widest)
}

/// Print one row per (end-to-end metric, workload); `Ok(true)` when every
/// row is `ok`.
pub fn compare(benchmark_json: &Path, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads: Vec<String> = a
        .field("workloads")
        .and_then(Json::as_obj)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    let mut all_ok = true;
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "metric", "workload", "median a", "median b", "worse by", "spread", "bound"
    );
    for metric in declared_bounds(benchmark_json)? {
        for workload in &workloads {
            let (Some(va), Some(vb)) = (
                values_of(&a, workload, &metric.name),
                values_of(&b, workload, &metric.name),
            ) else {
                continue;
            };
            let spread_counts = metric.name != "setup_s";
            let (verdict, worse_by, widest) =
                judge(&va, &vb, metric.better, metric.bound, spread_counts);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{:<14} {:<14} {:>12.4} {:>12.4} {:>+8.1}% {:>7.1}% {:>6.0}%  {}",
                metric.name,
                workload,
                quartiles(&va).map_or(0.0, |q| q.1),
                quartiles(&vb).map_or(0.0, |q| q.1),
                100.0 * worse_by,
                100.0 * widest,
                100.0 * metric.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    // Counts that must repeat exactly when both sets measured the same
    // inputs.
    for workload in &workloads {
        let digests = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("workload_digests"))
                .map(Json::render)
        };
        let same = digests(&a) == digests(&b);
        println!(
            "workload_digest {workload:<14} {}",
            if same {
                "identical"
            } else {
                "DIFFERENT INPUTS"
            }
        );
        if !same {
            continue;
        }
        for def in PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("match.search."))
        {
            if let (Some(va), Some(vb)) = (
                values_of(&a, workload, def.name),
                values_of(&b, workload, def.name),
            ) {
                if va != vb {
                    println!("  {} differs between the two sets on {workload}", def.name);
                }
            }
        }
    }
    for (label, doc) in [("a", &a), ("b", &b)] {
        if let (Some(big), Some(small)) = (
            values_of(doc, "small_111k", "op_p50_ms").and_then(|v| median(&v)),
            values_of(doc, "small_11k", "op_p50_ms").and_then(|v| median(&v)),
        ) {
            println!(
                "localizability ({label}): op_p50_ms(small_111k) / op_p50_ms(small_11k) = {:.3} / {:.3} = {:.2}",
                big,
                small,
                big / small
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_metric_s_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let slower = [10.9, 11.0, 11.1, 11.0];
        assert_eq!(
            judge(&a, &slower, Better::Lower, 0.07, true).0,
            Verdict::Worse
        );
        assert_eq!(judge(&a, &slower, Better::Lower, 0.15, true).0, Verdict::Ok);
        // Higher-is-better: the same move up is an improvement.
        assert_eq!(
            judge(&a, &slower, Better::Higher, 0.07, true).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&slower, &a, Better::Higher, 0.07, true).0,
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        let steady = [10.0, 10.0, 10.1, 9.9, 10.0];
        let (verdict, _, widest) = judge(&steady, &noisy, Better::Lower, 0.07, true);
        assert_eq!(verdict, Verdict::Unresolved);
        assert!(widest > 0.07);
        // `setup_s`: only the medians are held against the bound.
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.07, false).0,
            Verdict::Ok
        );
    }

    #[test]
    fn a_child_s_output_is_absorbed_by_name() {
        let stdout = "workload_digest abc\nop_p50_ms 1.0 ms\n\
            {\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"op_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}";
        let mut results = WorkloadResults::default();
        results.absorb(stdout).unwrap();
        results.absorb(stdout).unwrap();
        assert_eq!(results.digests, ["abc"]);
        assert_eq!(results.attempted, 10);
        assert_eq!(
            results.metrics["op_p50_ms"],
            ("ms".to_string(), vec![1.5, 1.5])
        );
        assert!(results.absorb("no json here").is_err());
    }
}
