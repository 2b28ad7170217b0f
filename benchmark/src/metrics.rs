//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, and — for a per-layer metric — the end-to-end metric and
//! workload it is expected to move.  `BENCHMARK.json` at the repository
//! root lists the same names (a unit test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// "end-to-end metric → workload(s)" this metric should move; empty
    /// for an end-to-end metric.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Defined, and never zero, on every workload.  "op" is the workload's
/// operation: one served `UPDATE` round trip, or one audit iteration.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_p50_ms", "ms", Lower),
    e2e("ops_per_s", "1/s", Higher),
    e2e("cpu_ms_per_op", "ms", Lower),
    e2e("setup_s", "s", Lower),
];

/// Zero on a workload where the layer does no work (or the metric is not
/// defined there).
#[rustfmt::skip] // one metric per row
pub const PER_LAYER: &[MetricDef] = &[
    // What a client sees, on the workloads that have it.
    layer("update_p95_ms", "ms", Lower, "served tail; 0 on audit_111k"),
    layer("first_vio_p50_ms", "ms", Lower, "send → first VIO_CHUNK; served workloads"),
    layer("query_p50_ms", "ms", Lower, "reader's QUERY → QUERY_DONE; stream_11k"),
    layer("epoch_switch_p50_ms", "ms", Lower, "first UPDATE on each new epoch; stream_11k"),
    // graph.persist
    layer("graph.persist.freeze_ms", "ms", Lower, "setup_s → all"),
    layer("graph.persist.write_ms", "ms", Lower, "setup_s → all"),
    layer("graph.persist.load_ms", "ms", Lower, "op_p50_ms → audit_111k"),
    layer("graph.persist.file_bytes_per_edge", "B", Lower, "space beside read speed"),
    layer("graph.persist.compact_ms", "ms", Lower, "epoch_switch_p50_ms → stream_11k"),
    layer("graph.persist.compact_out_bytes", "B", Lower, "epoch_switch_p50_ms → stream_11k"),
    // graph.overlay
    layer("graph.overlay.validate_ms", "ms", Lower, "op_p50_ms → stream_11k, small_*"),
    layer("graph.overlay.merge_ms", "ms", Lower, "op_p50_ms → stream_11k"),
    layer("graph.overlay.build_ms", "ms", Lower, "op_p50_ms → stream_11k"),
    layer("graph.overlay.pending_ops_p50", "count", Lower, "work behind merge/build"),
    // lang
    layer("lang.parse_ms", "ms", Lower, "op_p50_ms → audit_111k"),
    // match
    layer("match.plan.compile_ms", "ms", Lower, "op_p50_ms → audit_111k"),
    layer("match.plan.cache_hit_ratio", "ratio", Higher, "op_p50_ms → small_*; must stay ≈ 1"),
    layer("match.search.expanded_per_op", "count", Lower, "op_p50_ms → audit_111k, bulk_11k"),
    layer("match.search.candidates_per_op", "count", Lower, "op_p50_ms → audit_111k, bulk_11k"),
    layer("match.search.matches_per_op", "count", Lower, "op_p50_ms → audit_111k, bulk_11k"),
    layer("match.search.gallops_per_op", "count", Lower, "op_p50_ms → audit_111k, bulk_11k"),
    layer("match.search.useful_ratio", "ratio", Higher, "wasted work behind match.search.*"),
    // detect
    layer("detect.batch.run_ms", "ms", Lower, "op_p50_ms → audit_111k"),
    layer("detect.batch.mem_vs_mmap_ratio", "ratio", Higher, "op_p50_ms → audit_111k"),
    layer("detect.delta.run_ms", "ms", Lower, "op_p50_ms → bulk_11k, small_111k"),
    layer("detect.delta.neighborhood_nodes_p50", "count", Lower, "localizability yardstick"),
    layer("detect.delta.us_per_neighborhood_node", "us", Lower, "equal on small_11k and small_111k if localizable"),
    layer("detect.delta.scanned_per_op", "count", Lower, "op_p50_ms → bulk_11k"),
    layer("detect.delta.changes_per_op", "count", Lower, "op_p50_ms → bulk_11k"),
    layer("detect.session.apply_ms", "ms", Lower, "op_p50_ms → every served workload"),
    layer("detect.session.non_detect_ms", "ms", Lower, "op_p50_ms → stream_11k, small_111k"),
    layer("detect.session.unattributed_pct", "%", Lower, "attribution completeness"),
    layer("detect.session.rebase_ms", "ms", Lower, "epoch_switch_p50_ms → stream_11k"),
    // serve.wire
    layer("serve.wire.update_encode_us", "us", Lower, "op_p50_ms → bulk_11k"),
    layer("serve.wire.update_decode_us", "us", Lower, "op_p50_ms → bulk_11k"),
    layer("serve.wire.vio_encode_us", "us", Lower, "op_p50_ms → bulk_11k; query_p50_ms → stream_11k"),
    layer("serve.wire.vio_decode_us", "us", Lower, "op_p50_ms → bulk_11k; query_p50_ms → stream_11k"),
    layer("serve.wire.request_bytes_per_op", "B", Lower, "op_p50_ms → bulk_11k"),
    layer("serve.wire.response_bytes_per_op", "B", Lower, "op_p50_ms → bulk_11k"),
    // serve.server
    layer("serve.server.overhead_ms", "ms", Lower, "op_p50_ms → small_11k"),
    layer("serve.server.residual_ms", "ms", Lower, "op_p50_ms, ops_per_s → small_11k"),
    layer("serve.server.frame_update_p50_ms", "ms", Lower, "cross-check of overhead/residual"),
    layer("serve.server.loop_iterations_per_op", "count", Lower, "cpu_ms_per_op → small_11k"),
    layer("serve.server.ready_events_per_op", "count", Lower, "cpu_ms_per_op → small_11k"),
    layer("serve.server.backpressure_stalls", "count", Lower, "query_p50_ms → stream_11k"),
    layer("serve.server.epoch_switches", "count", Lower, "epoch_switch_p50_ms → stream_11k"),
    layer("serve.server.session_rebases", "count", Lower, "epoch_switch_p50_ms → stream_11k"),
    layer("serve.server.rss_mb", "MiB", Lower, "memory beside time → all"),
    layer("trace_overhead_pct", "%", Lower, "validity of the traced numbers"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{parse_json, Json};
    use crate::workloads::SPECS;

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the harness prints.  They must name the same things.
    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let text = std::fs::read_to_string(crate::benchmark_json()).expect("BENCHMARK.json");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let triples = |key: &str| -> Vec<(String, String, String)> {
            doc.field(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.field(k).and_then(Json::as_str).unwrap().to_string();
                    (text("name"), text("unit"), text("better"))
                })
                .collect()
        };
        let catalogue = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        assert_eq!(triples("end_to_end"), catalogue(END_TO_END));
        assert_eq!(triples("per_layer"), catalogue(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .field("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let text = |k: &str| w.field(k).and_then(Json::as_str).unwrap().to_string();
                (text("name"), text("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .filter(|s| s.gated)
            .map(|s| (s.name.into(), s.why.into()))
            .collect();
        assert_eq!(workloads, specs);
        for bounded in doc.field("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = bounded.field("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_naming_rules() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
