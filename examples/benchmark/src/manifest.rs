//! The names this benchmark emits — the single list `BENCHMARK.json` is
//! checked against (`--check-manifest`), so neither can go stale.

use crate::json::{self, Json};

/// The workloads `BENCHMARK.json` names: the ones the driver runs and
/// gates.
pub const WORKLOADS: [&str; 4] = [
    "wave3d_sweep",
    "cold_compile",
    "seismic_ckpt",
    "serve_singles",
];

/// Workloads of the ledger only — `benchmark --seed N` runs them after
/// the gated four and `--workload NAME` runs one — which `BENCHMARK.json`
/// does not name: each is the second use of a layer one of the four
/// already covers, and the driver's time for all its runs buys four
/// workloads long enough to be steady, or six that are not (README).
pub const LEDGER_ONLY: [&str; 2] = ["burgers1d_sweep", "serve_survey"];

/// `(name, unit)` of every end-to-end metric; each workload reports all
/// of them (what each means per workload is in the README).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms", "ms"),
    ("alt_ms", "ms"),
    ("speedup", "ratio"),
    ("footprint_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A workload that does not
/// exercise a call reports 0 for it.
pub const PER_LAYER: [(&str, &str); 78] = [
    ("symbolic.diff_us", "us"),
    ("symbolic.expr_nodes", "count"),
    ("core.adjoint_us.star1d", "us"),
    ("core.adjoint_us.star2d", "us"),
    ("core.adjoint_us.star3d", "us"),
    ("core.scatter_adjoint_us", "us"),
    ("core.adjoint_nests", "count"),
    ("codegen.parse_us", "us"),
    ("codegen.emit_rust_us", "us"),
    ("codegen.emit_bytes", "bytes"),
    ("sched.compile_us", "us"),
    ("sched.groups", "count"),
    ("sched.tiles", "count"),
    ("tune.search_cold_ms", "ms"),
    ("tune.cache_hit_us", "us"),
    ("tune.candidates_timed", "count"),
    ("jit.rustc_ms", "ms"),
    ("jit.artifact_hit_ms", "ms"),
    ("jit.artifact_bytes", "bytes"),
    ("jit.artifacts_built", "count"),
    ("exec.perpoint_ns_per_point", "ns"),
    ("exec.rows_ns_per_point", "ns"),
    ("exec.jit_ns_per_point", "ns"),
    ("exec.scatter_atomic_ns_per_point", "ns"),
    ("exec.primal_ns_per_point", "ns"),
    ("exec.thread_speedup", "ratio"),
    ("exec.region_overhead_us", "us"),
    ("exec.computed_bytes_per_point", "bytes"),
    ("exec.computed_gbs", "GB/s"),
    ("exec.stream_triad_gbs", "GB/s"),
    ("exec.bandwidth_fraction", "ratio"),
    ("perfmodel.predicted_ns_per_point", "ns"),
    ("perfmodel.residual", "ratio"),
    ("perfmodel.batch_pick_matches", "count"),
    ("ckpt.plan_actions_us", "us"),
    ("ckpt.memstore_save_gbs", "GB/s"),
    ("ckpt.memstore_load_gbs", "GB/s"),
    ("ckpt.diskstore_save_gbs", "GB/s"),
    ("ckpt.diskstore_load_gbs", "GB/s"),
    ("ckpt.gradient_disk_ms", "ms"),
    ("ckpt.recompute_ratio", "ratio"),
    ("ckpt.snapshots_saved", "count"),
    ("ckpt.spill_fallbacks", "count"),
    ("pde.batchplan_new_ms", "ms"),
    ("pde.forward_ns_per_point_step", "ns"),
    ("pde.storeall_gradient_s", "s"),
    ("pde.batch_shot_parallel_ms", "ms"),
    ("pde.batch_grid_parallel_ms", "ms"),
    ("autodiff.tape_gradient_ms", "ms"),
    ("obs.disabled_span_ns", "ns"),
    ("obs.enabled_span_ns", "ns"),
    ("serve.encode_ns_per_value", "ns"),
    ("serve.decode_ns_per_value", "ns"),
    ("serve.payload_bytes_per_value", "bytes"),
    ("serve.stats_rtt_us", "us"),
    ("serve.engine_handle_ms", "ms"),
    ("serve.unloaded_rtt_ms", "ms"),
    ("serve.wire_share", "ratio"),
    ("serve.paired_rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.model_swap_ms", "ms"),
    ("serve.compile_cold_s", "s"),
    ("serve.busy_replies", "count"),
    ("serve.request_tail_ms", "ms"),
    ("serve.sustained_rate", "1/s"),
    ("serve.within_limit_share", "ratio"),
    ("bench.generator_late_ms_p95", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.guards_tripped", "count"),
    ("core.busy_share", "ratio"),
    ("codegen.busy_share", "ratio"),
    ("sched.busy_share", "ratio"),
    ("tune.busy_share", "ratio"),
    ("jit.busy_share", "ratio"),
    ("exec.busy_share", "ratio"),
    ("pde.busy_share", "ratio"),
    ("serve.busy_share", "ratio"),
    ("bench.busy_share", "ratio"),
];

pub fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names_of<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
    doc.get(key)
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            (
                e.get("name").and_then(Json::as_str).unwrap_or(""),
                e.get("unit").and_then(Json::as_str),
            )
        })
        .collect()
}

/// Compare `BENCHMARK.json` (its text) with what the benchmark emits.
/// Returns every disagreement; empty means the two cannot be stale.
pub fn check(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut compare = |key: &str, emitted: &[(&str, Option<&str>)], cap: usize| {
        let named = names_of(&doc, key);
        if named.len() > cap {
            problems.push(format!(
                "{key}: {} entries exceed the cap of {cap}",
                named.len()
            ));
        }
        for (name, unit) in &named {
            if !valid_name(name) {
                problems.push(format!(
                    "{key}: name {name:?} has characters outside [A-Za-z0-9_.-]"
                ));
            }
            match emitted.iter().find(|(n, _)| n == name) {
                None => problems.push(format!(
                    "{key}: BENCHMARK.json names {name:?}, which no run emits"
                )),
                Some((_, u)) if u.is_some() && u != unit => problems.push(format!(
                    "{key}: {name:?} has unit {unit:?} in BENCHMARK.json but is emitted as {u:?}"
                )),
                _ => {}
            }
            if named.iter().filter(|(n, _)| n == name).count() > 1 {
                problems.push(format!("{key}: name {name:?} is used more than once"));
            }
        }
        for (name, _) in emitted {
            if !named.iter().any(|(n, _)| n == name) {
                problems.push(format!(
                    "{key}: runs emit {name:?}, which BENCHMARK.json does not name"
                ));
            }
        }
    };
    let workloads: Vec<_> = WORKLOADS.iter().map(|w| (*w, None)).collect();
    let e2e: Vec<_> = END_TO_END.iter().map(|(n, u)| (*n, Some(*u))).collect();
    let layer: Vec<_> = PER_LAYER.iter().map(|(n, u)| (*n, Some(*u))).collect();
    compare("workloads", &workloads, 8);
    compare("end_to_end", &e2e, 16);
    compare("per_layer", &layer, 128);
    if !names_of(&doc, "end_to_end")
        .iter()
        .any(|(n, _)| *n == "setup_s")
    {
        problems.push("end_to_end: setup_s is missing".into());
    }
    problems
}
