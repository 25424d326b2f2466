//! Gradient-as-a-service, end to end: compile a seismic kernel over the
//! wire, stream single-shot and batched gradient requests against the
//! cached plan, and read the daemon's Stats — including proof that the
//! second `Compile` of the same fingerprint is a pure cache hit.
//!
//! Two modes:
//! * `--endpoint EP` — connect to a running daemon at that endpoint
//!   (socket path or `host:port`; what the CI serve job does after
//!   starting `perforad-serve` in the background). Add `--shutdown` to
//!   also stop the daemon at the end.
//! * no flags — spawn the server in-process on a private socket, drive
//!   it, and shut it down. No setup needed:
//!   `cargo run --release --example serve`.

use perforad::exec::Grid;
use perforad::pde::seismic::{forward, ricker, SeismicConfig};
use perforad::serve::{
    stats_counter, Client, CompileRequest, Endpoint, RetryPolicy, ServeOptions, Server,
};

fn main() {
    let mut endpoint_arg = None;
    let mut shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--endpoint" => endpoint_arg = Some(args.next().unwrap_or_else(|| usage())),
            "--shutdown" => shutdown = true,
            _ => usage(),
        }
    }
    let (endpoint, external) = match endpoint_arg {
        Some(e) => (Endpoint::parse(&e), true),
        None => {
            let opts = ServeOptions {
                socket: Some(std::env::temp_dir().join(format!(
                    "perforad-serve-example-{}.sock",
                    std::process::id()
                ))),
                ..ServeOptions::default()
            };
            let server = Server::bind(&opts).expect("bind in-process server");
            let endpoint = server.endpoint();
            std::thread::spawn(move || server.run());
            (endpoint, false)
        }
    };
    println!("connecting to {endpoint}");
    let mut client = Client::connect(&endpoint).expect("connect");

    // Synthesize a tiny survey: true model = +5% velocity, observations
    // recorded at final time per shot.
    let cfg = SeismicConfig {
        n: 10,
        steps: 12,
        d: 0.1,
    };
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
    let base = ricker(cfg.steps);
    let shots: Vec<(Vec<f64>, Vec<f64>)> = (0..3)
        .map(|k| {
            let source: Vec<f64> = base.iter().map(|s| s * (1.0 + 0.3 * k as f64)).collect();
            let observed = forward(&cfg, &c_true, &source)[cfg.steps].clone();
            (source, observed.as_slice().to_vec())
        })
        .collect();

    // Cold compile: adjoint transform + autotune + JIT warm-up +
    // checkpoint budget, all server-side, keyed by fingerprint.
    let req = CompileRequest::Seismic {
        n: cfg.n,
        steps: cfg.steps,
        d: cfg.d,
        c: Some(c0.as_slice().to_vec()),
        budget: None,
        checkpointed: None,
    };
    let compiled = client.compile(req.clone()).expect("compile");
    println!(
        "compiled fingerprint {} (cached={}, nests={}, config: {})",
        compiled.fingerprint,
        compiled.cached,
        compiled.nests,
        compiled.config.as_deref().unwrap_or("-")
    );

    // Second identical Compile: must be answered from the cache — no
    // transform, no tuning, no rustc.
    let again = client.compile(req).expect("recompile");
    println!(
        "second compile: cache hit={} (same fingerprint: {})",
        again.cached,
        again.fingerprint == compiled.fingerprint
    );

    // One shot over the wire... retried under a backoff policy, so a
    // daemon running with admission control (or armed fault injection —
    // the CI chaos job) still answers correctly.
    let retry = RetryPolicy::default();
    let g = client
        .gradient_with_retry(
            &compiled.fingerprint,
            shots[0].0.clone(),
            shots[0].1.clone(),
            &retry,
        )
        .expect("gradient");
    println!(
        "shot 0: J = {:.6e}, ‖∂J/∂c‖ lives in {} served values (checkpointed={})",
        g.misfit,
        g.gradient.len(),
        g.checkpointed
    );

    // ...then the whole survey in one request.
    let batch = client
        .gradient_batch_with_retry(&compiled.fingerprint, shots, &retry)
        .expect("gradient batch");
    let total: f64 = batch.misfits.iter().sum();
    println!(
        "batch of {}: total J = {total:.6e} (strategy {})",
        batch.misfits.len(),
        batch.strategy
    );

    // Stats: cache hit rates, queue depth, per-fingerprint traffic.
    let stats = client.stats().expect("stats");
    println!(
        "stats: serve.requests_total={} serve.compile_cache_hits={} serve.compile_cache_misses={} \
         tune.cache_hits={} jit.compiles={} queue_depth={}",
        stats_counter(&stats, "serve.requests_total"),
        stats_counter(&stats, "serve.compile_cache_hits"),
        stats_counter(&stats, "serve.compile_cache_misses"),
        stats_counter(&stats, "tune.cache_hits"),
        stats_counter(&stats, "jit.compiles"),
        stats
            .get("queue_depth")
            .and_then(|v| v.as_f64())
            .unwrap_or(-1.0)
    );
    // Robustness counters: what the daemon absorbed without a wrong
    // answer (the CI chaos job greps this line for a nonzero
    // fault.injected_total after arming PERFORAD_FAULT server-side).
    println!(
        "faults: fault.injected_total={} ckpt.spill_fallbacks={} serve.degraded_total={} \
         serve.rejected_total={} serve.deadline_exceeded_total={}",
        stats_counter(&stats, "fault.injected_total"),
        stats_counter(&stats, "ckpt.spill_fallbacks"),
        stats_counter(&stats, "serve.degraded_total"),
        stats_counter(&stats, "serve.rejected_total"),
        stats_counter(&stats, "serve.deadline_exceeded_total"),
    );
    for k in stats
        .get("kernels")
        .and_then(|v| v.as_array())
        .unwrap_or(&[])
    {
        println!(
            "  kernel {}: {} gradient shots served",
            k.get("fingerprint").and_then(|v| v.as_str()).unwrap_or("?"),
            k.get("requests").and_then(|v| v.as_f64()).unwrap_or(0.0)
        );
    }

    if !external || shutdown {
        client.shutdown().expect("shutdown");
        println!("daemon shut down");
    }
}

fn usage() -> ! {
    eprintln!("usage: serve [--endpoint EP [--shutdown]]");
    std::process::exit(2)
}
