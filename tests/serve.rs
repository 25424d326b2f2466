//! The serving guarantees, pinned end to end over a real socket:
//!
//! 1. a served gradient (and a served batch) is **bitwise-identical** to
//!    the in-process `pde::seismic::BatchPlan::run` call;
//! 2. the second `Compile` of the same fingerprint is a pure cache hit —
//!    zero adjoint transforms, zero tuner timings, zero out-of-process
//!    rustc invocations, asserted via the obs counters in the Stats
//!    reply;
//! 3. malformed wire input (unknown request type, garbage JSON, a
//!    truncated frame, bad fingerprints, wrong shot shapes) produces
//!    error replies or dropped connections, never a dead server;
//! 4. a `Compile` of any kernel but `seismic` is refused by name, and the
//!    connection it came on is served on.
//!
//! Every test spawns its own in-process server on a private socket, but
//! all of them share the process-wide metrics registry — the suite
//! serializes itself behind one lock.

mod common;

use common::reference_gradient;
use perforad::exec::Grid;
use perforad::obs::json::Value;
use perforad::pde::seismic::{forward, ricker, SeismicConfig};
use perforad::serve::{
    proto, stats_counter, Client, CompileRequest, Endpoint, Reply, Request, ServeOptions, Server,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One engine at a time: the tests read process-wide obs counters
/// (`seismic.adjoint_transforms`, `tune.timed`, …) before and after their
/// requests, and another test's requests would move them too.
static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

static SOCK_ID: AtomicUsize = AtomicUsize::new(0);

fn start_server() -> (Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
    let path = std::env::temp_dir().join(format!(
        "perforad-serve-test-{}-{}.sock",
        std::process::id(),
        SOCK_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let opts = ServeOptions {
        socket: Some(path),
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind test server");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.run());
    (endpoint, handle)
}

fn test_cfg() -> SeismicConfig {
    SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    }
}

fn velocity(n: usize) -> Grid {
    Grid::from_fn(&[n, n, n], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64))
}

/// Synthetic observed data: the true model is a perturbed velocity.
fn observed(cfg: &SeismicConfig, source: &[f64]) -> Grid {
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| velocity(cfg.n).get(ix) * 1.05);
    forward(cfg, &c_true, source)[cfg.steps].clone()
}

fn compile_req(cfg: &SeismicConfig, c: &Grid) -> CompileRequest {
    CompileRequest::Seismic {
        n: cfg.n,
        steps: cfg.steps,
        d: cfg.d,
        c: Some(c.as_slice().to_vec()),
        budget: None,
        checkpointed: None,
    }
}

#[test]
fn served_gradient_is_bitwise_identical_to_in_process() {
    let _guard = suite_lock();
    let cfg = test_cfg();
    let c = velocity(cfg.n);
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);

    // In-process reference, same process-wide tuning cache as the server.
    let (j_ref, g_ref) = reference_gradient(&cfg, &c, &data, &source);

    let (endpoint, handle) = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let compiled = client.compile(compile_req(&cfg, &c)).expect("compile");

    let reply = client
        .gradient(
            &compiled.fingerprint,
            source.clone(),
            data.as_slice().to_vec(),
        )
        .expect("served gradient");
    assert_eq!(
        reply.misfit.to_bits(),
        j_ref.to_bits(),
        "served misfit must match in-process bitwise"
    );
    assert_eq!(reply.gradient.len(), g_ref.len());
    for (i, (a, b)) in reply.gradient.iter().zip(g_ref.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "gradient[{i}] differs bitwise");
    }

    // A served batch equals N independent in-process calls, bitwise.
    let shots: Vec<(Vec<f64>, Vec<f64>)> = (0..3)
        .map(|k| {
            let src: Vec<f64> = source.iter().map(|s| s * (1.0 + 0.25 * k as f64)).collect();
            let obs = observed(&cfg, &src);
            (src, obs.as_slice().to_vec())
        })
        .collect();
    let batch = client
        .gradient_batch(&compiled.fingerprint, shots.clone())
        .expect("served batch");
    assert_eq!(batch.misfits.len(), 3);
    for (k, (src, obs)) in shots.iter().enumerate() {
        let dims = [cfg.n; 3];
        let (jk, gk) = reference_gradient(&cfg, &c, &Grid::from_vec(&dims, obs.clone()), src);
        assert_eq!(batch.misfits[k].to_bits(), jk.to_bits(), "shot {k} misfit");
        for (i, (a, b)) in batch.gradients[k].iter().zip(gk.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "shot {k} gradient[{i}]");
        }
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn second_compile_same_fingerprint_skips_all_compile_work() {
    let _guard = suite_lock();
    let cfg = test_cfg();
    let c = velocity(cfg.n);

    let (endpoint, handle) = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");

    let first = client.compile(compile_req(&cfg, &c)).expect("cold compile");
    assert!(!first.cached, "first compile of this server must be cold");

    let before = client.stats().expect("stats before");
    let again = client.compile(compile_req(&cfg, &c)).expect("warm compile");
    let after = client.stats().expect("stats after");

    assert!(again.cached, "second compile must be served from cache");
    assert_eq!(again.fingerprint, first.fingerprint);

    // The acceptance criterion: the warm path performs ZERO adjoint
    // transforms, ZERO tuner timing runs, and ZERO out-of-process rustc
    // invocations — pinned by counter deltas across the second Compile.
    for counter in ["seismic.adjoint_transforms", "tune.timed", "jit.compiles"] {
        let delta = stats_counter(&after, counter).saturating_sub(stats_counter(&before, counter));
        assert_eq!(delta, 0, "{counter} must not move on a warm Compile");
    }
    let hits = stats_counter(&after, "serve.compile_cache_hits")
        .saturating_sub(stats_counter(&before, "serve.compile_cache_hits"));
    assert_eq!(hits, 1, "the warm Compile must count as one cache hit");

    // The warm plan still serves gradients — and a warm Gradient is all
    // kernel time: no adjoint re-transform, and no `Lowering::Jit` run
    // that found its native module missing (a cold compile prepares two
    // artifacts, adjoint and primal step; a primal that could not be
    // prepared is compiled for the row executor outright, which must
    // never read as a degraded JIT).
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);
    let before = client.stats().expect("stats before gradient");
    let reply = client
        .gradient(&again.fingerprint, source, data.as_slice().to_vec())
        .expect("gradient after warm compile");
    let after = client.stats().expect("stats after gradient");
    assert!(reply.misfit.is_finite());
    for counter in [
        "seismic.adjoint_transforms",
        "jit.degraded_fallbacks",
        "serve.degraded_total",
    ] {
        let delta = stats_counter(&after, counter).saturating_sub(stats_counter(&before, counter));
        assert_eq!(delta, 0, "{counter} must not move on a warm Gradient");
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn malformed_input_gets_error_replies_not_a_dead_server() {
    let _guard = suite_lock();
    let (endpoint, handle) = start_server();

    // Unknown request type and garbage JSON: error replies on a live
    // connection.
    let mut conn = perforad::serve::connect(&endpoint).expect("raw connect");
    for payload in [
        "{\"type\":\"frobnicate\"}",
        "not json at all",
        "{}",
        "[1,2]",
        // Bulk arrays that are neither 16-lowercase-hex-digits-per-value
        // strings nor number arrays: odd length, non-hex, upper case,
        // non-finite bits.
        "{\"type\":\"gradient\",\"fingerprint\":\"00\",\"source\":\"3ff\",\"observed\":[]}",
        "{\"type\":\"gradient\",\"fingerprint\":\"00\",\"source\":\"3ff00000000000zz\",\"observed\":[]}",
        "{\"type\":\"gradient\",\"fingerprint\":\"00\",\"source\":\"3FF0000000000000\",\"observed\":[]}",
        "{\"type\":\"gradient\",\"fingerprint\":\"00\",\"source\":[],\"observed\":\"7ff0000000000000\"}",
    ] {
        proto::write_frame(&mut conn, payload).expect("send");
        let reply = proto::read_frame(&mut conn).expect("reply frame");
        match Reply::from_json(&reply).expect("parse reply") {
            Reply::Error(msg) => assert!(!msg.is_empty()),
            other => panic!("expected error reply for {payload:?}, got {other:?}"),
        }
    }

    // A truncated frame (length prefix promises more bytes than sent)
    // kills only that connection.
    {
        use std::io::Write;
        let mut sneaky = perforad::serve::connect(&endpoint).expect("raw connect");
        sneaky.write_all(&100u32.to_be_bytes()).expect("prefix");
        sneaky.write_all(b"0123456789").expect("short body");
        sneaky.flush().expect("flush");
        // Dropping the stream mid-frame leaves the server's read_exact
        // with an EOF error; the handler exits, the daemon survives.
    }

    // An oversized length prefix is rejected without allocating.
    {
        use std::io::Write;
        let mut hostile = perforad::serve::connect(&endpoint).expect("raw connect");
        hostile.write_all(&u32::MAX.to_be_bytes()).expect("prefix");
        hostile.flush().expect("flush");
    }

    // The server is still answering typed requests afterwards.
    let mut client = Client::connect(&endpoint).expect("connect after abuse");
    let stats = client.stats().expect("stats after abuse");
    assert!(stats.get("uptime_ns").and_then(Value::as_f64).is_some());

    // Bad fingerprints and wrong shot shapes are server-side errors.
    let err = client
        .gradient("deadbeef", vec![0.0; 6], vec![0.0; 512])
        .expect_err("unknown fingerprint must fail");
    assert!(err.to_string().contains("fingerprint"));

    let cfg = test_cfg();
    let compiled = client
        .compile(compile_req(&cfg, &velocity(cfg.n)))
        .expect("compile");
    let err = client
        .gradient(&compiled.fingerprint, vec![0.0; 1], vec![0.0; 512])
        .expect_err("wrong source length must fail");
    assert!(err.to_string().contains("source"));
    let err = client
        .gradient(&compiled.fingerprint, vec![0.0; 6], vec![0.0; 3])
        .expect_err("wrong observed length must fail");
    assert!(err.to_string().contains("observed"));

    // Invalid Compile parameters error out instead of panicking a worker.
    let err = client
        .compile(CompileRequest::Seismic {
            n: 2,
            steps: 6,
            d: 0.1,
            c: None,
            budget: None,
            checkpointed: None,
        })
        .expect_err("n too small must fail");
    assert!(err.to_string().contains('n'));
    // A grid whose gradient reply could not fit one frame is refused at
    // Compile, with the limit spelled out — not compiled and then dropped
    // mid-reply.
    let err = client
        .compile(CompileRequest::Seismic {
            n: 162,
            steps: 6,
            d: 0.1,
            c: None,
            budget: None,
            checkpointed: None,
        })
        .expect_err("162³ values do not fit a frame");
    assert!(err.to_string().contains("frame"), "{err}");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// The raw stencil-DSL `Compile` is gone: its frame, as clients sent it,
/// earns an error reply naming the kernel, and the next request on the
/// same connection is served.
#[test]
fn a_stencil_compile_is_refused_and_the_connection_served_on() {
    let _guard = suite_lock();
    let (endpoint, handle) = start_server();
    let mut conn = perforad::serve::connect(&endpoint).expect("raw connect");
    let stencil = concat!(
        r#"{"type":"compile","kernel":"stencil","#,
        r#""stencil":"for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }","#,
        r#""sizes":{"n":64},"params":{},"active":["u","r"]}"#,
    );
    proto::write_frame(&mut conn, stencil).expect("send");
    let reply = proto::read_frame(&mut conn).expect("reply frame");
    match Reply::from_json(&reply).expect("parse reply") {
        Reply::Error(msg) => assert_eq!(msg, r#"unknown compile kernel "stencil""#),
        other => panic!("expected an error reply, got {other:?}"),
    }
    proto::write_frame(&mut conn, &Request::Stats.to_json()).expect("send stats");
    let reply = proto::read_frame(&mut conn).expect("stats frame");
    let Reply::Stats(stats) = Reply::from_json(&reply).expect("parse stats") else {
        panic!("expected a stats reply, got {reply}");
    };
    assert!(stats.get("uptime_ns").and_then(Value::as_f64).is_some());

    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn request_and_reply_wire_format_round_trips() {
    // Pure proto-level checks (no server): every request variant
    // round-trips, f64 payloads survive bitwise.
    let source = vec![0.1, -0.25, 1.0 / 3.0, f64::MIN_POSITIVE];
    let req = Request::Gradient(perforad::serve::GradientRequest {
        fingerprint: "00ff".to_string(),
        source: source.clone(),
        observed: vec![std::f64::consts::PI; 3],
        deadline_ms: None,
        trace: false,
    });
    let Request::Gradient(back) = Request::from_json(&req.to_json()).expect("decode") else {
        panic!("wrong variant");
    };
    for (a, b) in back.source.iter().zip(&source) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let reply = Reply::GradientBatch(perforad::serve::BatchReply {
        misfits: vec![1.5, 2.5],
        gradients: vec![vec![0.0, -0.0], vec![1e-300, 1e300]],
        strategy: "ShotParallel".to_string(),
        request_id: 42,
        trace: None,
    });
    let Reply::GradientBatch(back) = Reply::from_json(&reply.to_json()).expect("decode") else {
        panic!("wrong variant");
    };
    assert_eq!(back.strategy, "ShotParallel");
    assert_eq!(back.request_id, 42);
    assert!(back.trace.is_none());
    assert_eq!(back.gradients[0][1].to_bits(), (-0.0f64).to_bits());
    assert_eq!(back.gradients[1][0].to_bits(), 1e-300f64.to_bits());
}
