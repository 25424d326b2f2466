//! Observability end-to-end: run a checkpointed seismic gradient with
//! tracing on, write the Chrome-trace JSON (`chrome://tracing` /
//! Perfetto-loadable), and print the [`TraceReport`] per-phase rollup
//! plus the metrics registry — the same spans `examples/benchmark`
//! reads its per-layer busy shares from.
//!
//! Run with: `cargo run --release --example trace [-- OUT]` — the trace
//! goes to `OUT` (default `seismic.trace.json`).

use perforad::exec::Grid;
use perforad::pde::seismic::{
    forward, ricker, BatchOptions, BatchPlan, SeismicConfig, ShotBatch, SnapshotBackend,
};
use perforad::prelude::*;

fn main() {
    // Equivalent to PERFORAD_TRACE=1 in the environment.
    perforad::obs::set_enabled(true);

    let cfg = SeismicConfig {
        n: 12,
        steps: 24,
        d: 0.1,
    };
    let src = ricker(cfg.steps);
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
    let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();

    let opts = BatchOptions {
        checkpointed: Some(true),
        budget: Some(5),
        backend: SnapshotBackend::Memory,
        ..BatchOptions::default()
    };
    let mut shot = ShotBatch::new();
    shot.push(src, data);
    let res = BatchPlan::new(&cfg, &c0, &opts, default_pool()).run(&shot);
    let report = res.reports[0].as_ref().expect("checkpointed shot reports");
    println!(
        "misfit J(c0) = {:.6e},  |dJ/dc| = {:.6e}",
        res.misfits[0],
        res.gradients[0].norm2()
    );
    println!(
        "ckpt: budget {}, recompute ratio {:.2} (observed {:.2})",
        report.budget,
        report.recompute_ratio(),
        report.recompute_ratio_observed.unwrap_or(f64::NAN),
    );

    // Everything above recorded spans; export and summarize them.
    let events = collect_events();
    assert!(!events.is_empty(), "tracing was enabled — spans expected");

    let out = std::env::args_os()
        .nth(1)
        .map_or_else(|| "seismic.trace.json".into(), std::path::PathBuf::from);
    write_chrome_trace(&out, &events).expect("write Chrome trace");
    println!(
        "\nwrote {} ({} spans) — load it in chrome://tracing or ui.perfetto.dev",
        out.display(),
        events.len()
    );

    println!("\n{}", TraceReport::build(&events, 10));
    println!("{}", MetricsSnapshot::collect());
}
