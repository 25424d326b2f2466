//! The chaos suite: every named fault point in the workspace is fired
//! against a live gradient daemon, and every injected failure must be
//! *survivable* — either the degraded path produces a **bitwise-
//! identical** gradient (disk spill falls back to memory, JIT falls back
//! to the rows executor, corrupt caches are quarantined and rebuilt) or
//! the client sees a structured error/Busy reply. Never a hang, never a
//! silently wrong number.
//!
//! Also pinned here, over a real socket:
//! * a client killed halfway through a large `GradientBatch` frame costs
//!   exactly one connection, not the daemon;
//! * `GradientBatch` edge cases (zero shots, one shot, more shots than
//!   pool workers, shape mismatches against the compiled fingerprint)
//!   are structured errors or correct replies, with the compile cache
//!   untouched by the rejects;
//! * admission control: an overloaded daemon answers `Busy`, and the
//!   client's jittered-backoff retry eventually lands the request;
//! * deadlines: a request still queued past its `deadline_ms` is refused
//!   with a clean error, counted in `serve.deadline_exceeded_total`;
//! * `PERFORAD_SERVE_MAX_CONNS` / `PERFORAD_SERVE_TIMEOUT_MS` shed and
//!   reap connections without touching other clients.
//!
//! Fault-injection state and the serve env knobs are process-global, so
//! the suite serializes behind one lock (same pattern as `tests/serve.rs`;
//! cargo runs the two binaries sequentially).

mod common;

use common::reference_gradient;
use perforad::exec::Grid;
use perforad::obs::fault;
use perforad::pde::seismic::{forward, ricker, SeismicConfig};
use perforad::serve::{
    stats_counter, Client, ClientError, CompileRequest, Endpoint, GradientRequest, Reply, Request,
    RetryPolicy, ServeOptions, Server,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

static SOCK_ID: AtomicUsize = AtomicUsize::new(0);

fn start_server() -> (Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
    start_server_with(ServeOptions::default())
}

/// A server on a private socket, otherwise as `opts` says.
fn start_server_with(
    opts: ServeOptions,
) -> (Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
    let path = std::env::temp_dir().join(format!(
        "perforad-fault-test-{}-{}.sock",
        std::process::id(),
        SOCK_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let opts = ServeOptions {
        socket: Some(path),
        ..opts
    };
    let server = Server::bind(&opts).expect("bind test server");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.run());
    (endpoint, handle)
}

fn velocity(n: usize) -> Grid {
    Grid::from_fn(&[n, n, n], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64))
}

fn observed(cfg: &SeismicConfig, source: &[f64]) -> Grid {
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| velocity(cfg.n).get(ix) * 1.05);
    forward(cfg, &c_true, source)[cfg.steps].clone()
}

fn compile_req(cfg: &SeismicConfig, checkpointed: Option<bool>) -> CompileRequest {
    CompileRequest::Seismic {
        n: cfg.n,
        steps: cfg.steps,
        d: cfg.d,
        c: Some(velocity(cfg.n).as_slice().to_vec()),
        budget: if checkpointed == Some(true) {
            Some(2)
        } else {
            None
        },
        checkpointed,
    }
}

fn assert_bitwise(served: &[f64], reference: &[f64], what: &str) {
    assert_eq!(served.len(), reference.len(), "{what}: length");
    for (i, (a, b)) in served.iter().zip(reference).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: value {i} differs bitwise"
        );
    }
}

/// Count of `ckpt_*` spill files in `dir` — must return to zero after
/// every request, injected faults included (Drop sweeps by tag prefix).
fn spill_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt_"))
                .count()
        })
        .unwrap_or(0)
}

/// The tentpole: walk the whole fault-point matrix against one live
/// daemon. Warm-path points fire under gradient traffic; compile-path
/// points fire under cold compiles. Every round must end with a served
/// gradient bitwise-identical to the unarmed in-process reference.
#[test]
fn chaos_matrix_every_fault_point_degrades_bitwise_or_errors_cleanly() {
    let _guard = suite_lock();
    fault::disarm();

    // Disk-backed checkpoint spills for the ckpt.* points.
    let ckpt_dir = std::env::temp_dir().join(format!("perforad-fault-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).expect("ckpt dir");
    std::env::set_var(perforad::ckpt::CKPT_DIR_ENV, &ckpt_dir);

    let cfg = SeismicConfig {
        n: 8,
        steps: 12,
        d: 0.1,
    };
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);

    let (endpoint, handle) = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let compiled = client
        .compile(compile_req(&cfg, Some(true)))
        .expect("compile checkpointed kernel");
    assert_eq!(compiled.checkpointed, Some(true));

    // Unarmed reference: served and in-process agree bitwise.
    let reference = client
        .gradient(
            &compiled.fingerprint,
            source.clone(),
            data.as_slice().to_vec(),
        )
        .expect("unarmed gradient");
    let (j_ref, g_ref) = reference_gradient(&cfg, &velocity(cfg.n), &data, &source);
    assert_eq!(reference.misfit.to_bits(), j_ref.to_bits());
    assert_bitwise(&reference.gradient, g_ref.as_slice(), "unarmed");

    // Warm-path points: each is armed to fail on its first hit, then a
    // retrying client drives a gradient through it. The degraded path
    // (memory fallback, connection retry) must reproduce the reference
    // bits exactly.
    let policy = RetryPolicy {
        max_attempts: 8,
        base_ms: 5,
        max_ms: 100,
        seed: 7,
    };
    for point in [
        "ckpt.disk.write",
        "ckpt.disk.read",
        "serve.frame.read",
        "serve.frame.write",
    ] {
        fault::arm(&format!("{point}=fail@1")).expect("arm");
        let mut chaos_client = Client::connect(&endpoint).expect("connect under fault");
        let reply = chaos_client
            .gradient_with_retry(
                &compiled.fingerprint,
                source.clone(),
                data.as_slice().to_vec(),
                &policy,
            )
            .unwrap_or_else(|e| panic!("gradient under {point} fault: {e}"));
        fault::disarm();
        // `arm` resets tallies, so each round's injection count must be
        // read before the next round arms.
        assert!(
            fault::injected(point) >= 1,
            "{point} must actually have fired"
        );
        assert_eq!(
            reply.misfit.to_bits(),
            reference.misfit.to_bits(),
            "misfit under {point} fault"
        );
        assert_bitwise(&reply.gradient, &reference.gradient, point);
        assert_eq!(
            spill_files(&ckpt_dir),
            0,
            "spill files must be swept after {point} fault"
        );
    }

    // Compile-path points: a *cold* compile per point (fresh step count
    // → fresh fingerprint) while the point is armed for every hit. The
    // pipeline must degrade (skip JIT, treat the tune cache as a miss)
    // and still serve gradients matching the unarmed in-process call.
    for (k, point) in [
        "tune.cache.read",
        "tune.cache.write",
        "jit.rustc.spawn",
        "jit.artifact.read",
    ]
    .iter()
    .enumerate()
    {
        let cold_cfg = SeismicConfig {
            n: 8,
            steps: 13 + k,
            d: 0.1,
        };
        let cold_source = ricker(cold_cfg.steps);
        let cold_data = observed(&cold_cfg, &cold_source);
        fault::arm(&format!("{point}=fail")).expect("arm");
        let cold = client
            .compile(compile_req(&cold_cfg, None))
            .unwrap_or_else(|e| panic!("cold compile under {point} fault: {e}"));
        let reply = client
            .gradient(
                &cold.fingerprint,
                cold_source.clone(),
                cold_data.as_slice().to_vec(),
            )
            .unwrap_or_else(|e| panic!("gradient under {point} fault: {e}"));
        fault::disarm();
        let (j_cold, g_cold) =
            reference_gradient(&cold_cfg, &velocity(cold_cfg.n), &cold_data, &cold_source);
        assert_eq!(
            reply.misfit.to_bits(),
            j_cold.to_bits(),
            "misfit under {point} fault"
        );
        assert_bitwise(&reply.gradient, g_cold.as_slice(), point);
    }

    // The matrix as a whole injected real failures, and the daemon's
    // stats expose the cumulative tally (the obs counter survives the
    // per-`arm` tally resets).
    let stats = client.stats().expect("stats after chaos");
    assert!(
        stats_counter(&stats, "fault.injected_total") >= 4,
        "expected several injected faults, stats says {}",
        stats_counter(&stats, "fault.injected_total")
    );
    assert!(stats_counter(&stats, "ckpt.spill_fallbacks") >= 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    std::env::remove_var(perforad::ckpt::CKPT_DIR_ENV);
    assert_eq!(spill_files(&ckpt_dir), 0, "ckpt dir must end empty");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// Satellite: a client killed halfway through a large `GradientBatch`
/// frame is a per-connection error — the daemon neither panics nor
/// busy-loops, and keeps serving everyone else.
#[test]
fn client_killed_mid_large_batch_frame_costs_one_connection_only() {
    let _guard = suite_lock();
    fault::disarm();
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);

    let (endpoint, handle) = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let compiled = client.compile(compile_req(&cfg, None)).expect("compile");

    // A genuinely large batch frame (dozens of n³ shot payloads), cut
    // off halfway: the length prefix promises the full body, the socket
    // dies mid-payload.
    {
        use std::io::Write;
        let shots: Vec<(Vec<f64>, Vec<f64>)> = (0..64)
            .map(|_| (source.clone(), data.as_slice().to_vec()))
            .collect();
        let req = Request::GradientBatch(perforad::serve::BatchRequest {
            fingerprint: compiled.fingerprint.clone(),
            shots,
            deadline_ms: None,
            trace: false,
        });
        let payload = req.to_json();
        assert!(payload.len() > 100_000, "frame must be large to matter");
        let mut dying = perforad::serve::connect(&endpoint).expect("raw connect");
        dying
            .write_all(&(payload.len() as u32).to_be_bytes())
            .expect("prefix");
        dying
            .write_all(&payload.as_bytes()[..payload.len() / 2])
            .expect("half the body");
        dying.flush().expect("flush");
        // Drop: the client dies here. The server's read_exact sees EOF
        // mid-payload and must retire this connection only.
    }

    // The daemon still serves correct gradients on other connections.
    let reply = client
        .gradient(
            &compiled.fingerprint,
            source.clone(),
            data.as_slice().to_vec(),
        )
        .expect("gradient after mid-frame death");
    let (j_ref, g_ref) = reference_gradient(&cfg, &velocity(cfg.n), &data, &source);
    assert_eq!(reply.misfit.to_bits(), j_ref.to_bits());
    assert_bitwise(&reply.gradient, g_ref.as_slice(), "after mid-frame death");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// Satellite: `GradientBatch` edge cases over the wire. Wrong shapes are
/// structured errors that leave the compile cache untouched; valid edge
/// sizes (one shot, more shots than pool workers) serve bitwise.
#[test]
fn gradient_batch_edge_cases_over_the_wire() {
    let _guard = suite_lock();
    fault::disarm();
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);

    let (endpoint, handle) = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let compiled = client.compile(compile_req(&cfg, None)).expect("compile");
    let before = client.stats().expect("stats before");

    // Zero shots: structured error.
    let err = client
        .gradient_batch(&compiled.fingerprint, vec![])
        .expect_err("zero shots must be refused");
    assert!(err.to_string().contains("at least one shot"), "{err}");

    // Source length ≠ compiled steps, observed length ≠ compiled n³:
    // structured errors naming the offending shot.
    let err = client
        .gradient_batch(
            &compiled.fingerprint,
            vec![(vec![0.0; cfg.steps + 3], data.as_slice().to_vec())],
        )
        .expect_err("steps mismatch must be refused");
    assert!(err.to_string().contains("source"), "{err}");
    let err = client
        .gradient_batch(
            &compiled.fingerprint,
            vec![
                (source.clone(), data.as_slice().to_vec()),
                (source.clone(), vec![0.0; 7 * 7 * 7]),
            ],
        )
        .expect_err("n mismatch must be refused");
    assert!(err.to_string().contains("shot 1"), "{err}");

    // The rejects above touched neither the compile cache nor the
    // kernel's request count.
    let after = client.stats().expect("stats after rejects");
    for counter in ["serve.compile_cache_misses", "serve.compile_cache_hits"] {
        assert_eq!(
            stats_counter(&after, counter),
            stats_counter(&before, counter),
            "{counter} must not move on rejected batches"
        );
    }

    // One shot: equals the in-process single-shot call bitwise.
    let (j_ref, g_ref) = reference_gradient(&cfg, &velocity(cfg.n), &data, &source);
    let one = client
        .gradient_batch(
            &compiled.fingerprint,
            vec![(source.clone(), data.as_slice().to_vec())],
        )
        .expect("one-shot batch");
    assert_eq!(one.misfits.len(), 1);
    assert_eq!(one.misfits[0].to_bits(), j_ref.to_bits());
    assert_bitwise(&one.gradients[0], g_ref.as_slice(), "one-shot batch");

    // More shots than pool workers: dispatch must wrap around and every
    // shot must still match its independent in-process reference.
    let width = perforad::exec::default_pool().size();
    let shots: Vec<(Vec<f64>, Vec<f64>)> = (0..width + 2)
        .map(|k| {
            let src: Vec<f64> = source.iter().map(|s| s * (1.0 + 0.1 * k as f64)).collect();
            let obs = observed(&cfg, &src);
            (src, obs.as_slice().to_vec())
        })
        .collect();
    let batch = client
        .gradient_batch(&compiled.fingerprint, shots.clone())
        .expect("oversubscribed batch");
    assert_eq!(batch.misfits.len(), width + 2);
    for (k, (src, obs)) in shots.iter().enumerate() {
        let (jk, gk) = reference_gradient(
            &cfg,
            &velocity(cfg.n),
            &Grid::from_vec(&[cfg.n; 3], obs.clone()),
            src,
        );
        assert_eq!(batch.misfits[k].to_bits(), jk.to_bits(), "shot {k} misfit");
        assert_bitwise(&batch.gradients[k], gk.as_slice(), "oversubscribed shot");
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// Admission control end to end: with `ServeOptions::max_queue` at 1,
/// concurrent gradients contending for the 1-deep run queue get real
/// `Busy` pushback (no execution, rejection counted), every answered
/// request is bitwise-correct, and the client's backoff retry lands
/// once the queue drains.
#[test]
fn overloaded_daemon_rejects_busy_and_backoff_retry_succeeds() {
    let _guard = suite_lock();
    fault::disarm();
    let (endpoint, handle) = start_server_with(ServeOptions {
        max_queue: Some(1),
        ..ServeOptions::default()
    });

    let cfg = SeismicConfig {
        n: 12,
        steps: 24,
        d: 0.1,
    };
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);
    let mut client = Client::connect(&endpoint).expect("connect");
    let compiled = client.compile(compile_req(&cfg, None)).expect("compile");
    let (j_ref, g_ref) = reference_gradient(&cfg, &velocity(cfg.n), &data, &source);
    let g_ref: Vec<f64> = g_ref.as_slice().to_vec();

    // 8 retry-less clients hammer the 1-deep queue concurrently. The
    // queue admits one at a time, so overlapping requests — guaranteed
    // with this much contention — bounce with Busy; the rest must be
    // answered bitwise-correct. Each thread reports (ok, busy) tallies.
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let endpoint = endpoint.clone();
            let fingerprint = compiled.fingerprint.clone();
            let source = source.clone();
            let data = data.as_slice().to_vec();
            let g_ref = g_ref.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&endpoint).expect("probe connect");
                let (mut ok, mut busy) = (0u64, 0u64);
                for _ in 0..40 {
                    match c.gradient(&fingerprint, source.clone(), data.clone()) {
                        Ok(g) => {
                            assert_eq!(g.misfit.to_bits(), j_ref.to_bits());
                            assert_bitwise(&g.gradient, &g_ref, "contended gradient");
                            ok += 1;
                        }
                        Err(ClientError::Busy { retry_after_ms }) => {
                            assert!(retry_after_ms > 0, "Busy must carry a retry hint");
                            busy += 1;
                        }
                        Err(e) => panic!("unexpected failure under load: {e}"),
                    }
                }
                (ok, busy)
            })
        })
        .collect();
    let (mut total_ok, mut total_busy) = (0u64, 0u64);
    for t in threads {
        let (ok, busy) = t.join().expect("probe thread");
        total_ok += ok;
        total_busy += busy;
    }
    assert!(total_ok >= 1, "someone must get through the queue");
    assert!(
        total_busy >= 1,
        "a 1-deep queue under 8-way load must push back Busy"
    );

    // The retrying path absorbs any leftover pushback and succeeds,
    // bitwise-correct, now that the queue has drained.
    let policy = RetryPolicy {
        max_attempts: 60,
        base_ms: 10,
        max_ms: 200,
        seed: 3,
    };
    let reply = client
        .gradient_with_retry(
            &compiled.fingerprint,
            source.clone(),
            data.as_slice().to_vec(),
            &policy,
        )
        .expect("retry through Busy");
    assert_eq!(reply.misfit.to_bits(), j_ref.to_bits());
    assert_bitwise(&reply.gradient, &g_ref, "retried gradient");

    let stats = client.stats().expect("stats");
    assert!(
        stats_counter(&stats, "serve.rejected_total") >= total_busy,
        "rejections must be counted"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// Deadlines: a request whose budget is already spent when it reaches
/// the run queue is refused with a clean error (and counted), and a
/// generous deadline changes nothing about the bits.
#[test]
fn expired_deadline_is_a_clean_error_not_a_stale_gradient() {
    let _guard = suite_lock();
    fault::disarm();
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);

    let (endpoint, handle) = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let compiled = client.compile(compile_req(&cfg, None)).expect("compile");
    let before = client.stats().expect("stats before");

    // deadline_ms = 0: expired on arrival, deterministically.
    let req = Request::Gradient(GradientRequest {
        fingerprint: compiled.fingerprint.clone(),
        source: source.clone(),
        observed: data.as_slice().to_vec(),
        deadline_ms: Some(0),
        trace: false,
    });
    match client.roundtrip(&req).expect("roundtrip") {
        Reply::Error(msg) => assert!(msg.contains("deadline"), "{msg}"),
        other => panic!("expected a deadline error, got {other:?}"),
    }
    let after = client.stats().expect("stats after");
    assert_eq!(
        stats_counter(&after, "serve.deadline_exceeded_total")
            .saturating_sub(stats_counter(&before, "serve.deadline_exceeded_total")),
        1
    );

    // A generous deadline executes normally, bitwise.
    let req = Request::Gradient(GradientRequest {
        fingerprint: compiled.fingerprint.clone(),
        source: source.clone(),
        observed: data.as_slice().to_vec(),
        deadline_ms: Some(60_000),
        trace: false,
    });
    let Reply::Gradient(reply) = client.roundtrip(&req).expect("roundtrip") else {
        panic!("expected a gradient reply");
    };
    let (j_ref, g_ref) = reference_gradient(&cfg, &velocity(cfg.n), &data, &source);
    assert_eq!(reply.misfit.to_bits(), j_ref.to_bits());
    assert_bitwise(&reply.gradient, g_ref.as_slice(), "deadline gradient");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// Connection cap and socket timeouts: the accept loop sheds connections
/// past `PERFORAD_SERVE_MAX_CONNS` with one `Busy` frame, and a peer
/// idle past `PERFORAD_SERVE_TIMEOUT_MS` is reaped — both without
/// touching other clients.
#[test]
fn connection_cap_sheds_and_timeout_reaps_without_collateral() {
    let _guard = suite_lock();
    fault::disarm();
    std::env::set_var("PERFORAD_SERVE_MAX_CONNS", "1");
    std::env::set_var("PERFORAD_SERVE_TIMEOUT_MS", "300");
    let path = std::env::temp_dir().join(format!(
        "perforad-fault-cap-{}-{}.sock",
        std::process::id(),
        SOCK_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let opts = ServeOptions {
        socket: Some(path),
        ..ServeOptions::from_env()
    };
    std::env::remove_var("PERFORAD_SERVE_MAX_CONNS");
    std::env::remove_var("PERFORAD_SERVE_TIMEOUT_MS");
    let server = Server::bind(&opts).expect("bind capped server");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.run());

    // First connection occupies the only slot.
    let mut first = Client::connect(&endpoint).expect("first connect");
    first.stats().expect("first client works");

    // Second connection is shed with a Busy frame (or, if the server
    // closed the socket before our request left the buffer, a transport
    // error — both are clean rejections, never a hang).
    let mut second = Client::connect(&endpoint).expect("second connect");
    match second.stats() {
        Err(ClientError::Busy { .. }) | Err(ClientError::Io(_)) => {}
        other => panic!("over-cap connection must be shed, got {other:?}"),
    }

    // An idle peer is reaped by the read timeout; its next use fails,
    // while a fresh connection (slot freed) works.
    std::thread::sleep(std::time::Duration::from_millis(600));
    assert!(
        first.stats().is_err(),
        "idle connection must be reaped by the socket timeout"
    );
    let retry = RetryPolicy {
        max_attempts: 10,
        base_ms: 20,
        max_ms: 200,
        seed: 11,
    };
    let mut fresh = Client::connect(&endpoint).expect("fresh connect");
    let stats = fresh
        .roundtrip_with_retry(&Request::Stats, &retry)
        .expect("fresh client after reap");
    assert!(matches!(stats, Reply::Stats(_)));

    // Shutdown may race the reaper for the last slot; retry absorbs it.
    let reply = fresh
        .roundtrip_with_retry(&Request::Shutdown, &retry)
        .expect("shutdown");
    assert!(matches!(reply, Reply::Ok));
    handle.join().expect("server thread").expect("server run");
}
