//! The live telemetry plane, pinned end to end:
//!
//! * a `trace: true` gradient request returns a per-request span rollup
//!   whose self times telescope to the request's duration — with zero
//!   effect on the gradient bits;
//! * the `--metrics` endpoint emits parseable Prometheus text exposition
//!   containing `serve_requests_total` and per-fingerprint latency
//!   quantiles, plus a JSON `/healthz`;
//! * an injected fault mid-request produces exactly one flight-recorder
//!   dump in `PERFORAD_FLIGHT_DIR`, valid JSON, carrying the failing
//!   request's id;
//! * the Chrome-trace export stays valid JSON with per-thread nesting
//!   and `request_id` args when worker threads record concurrently;
//! * the disabled path of the new request-scope machinery allocates
//!   nothing (the <1% wall-time bound itself stays pinned by
//!   `tests/obs.rs`).
//!
//! Obs state, fault injection, and the env knobs are process-global, so
//! the suite serializes on one lock (same pattern as `tests/fault.rs`).

mod common;

use perforad::exec::{default_pool, Grid};
use perforad::obs::fault;
use perforad::obs::json::{parse, Value};
use perforad::pde::seismic::{forward, ricker, SeismicConfig};
use perforad::serve::{
    Client, CompileRequest, Endpoint, GradientRequest, Reply, Request, ServeOptions, Server,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

static SOCK_ID: AtomicUsize = AtomicUsize::new(0);

fn start_server(metrics: bool) -> (Server, Endpoint) {
    let path = std::env::temp_dir().join(format!(
        "perforad-telemetry-test-{}-{}.sock",
        std::process::id(),
        SOCK_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let opts = ServeOptions {
        socket: Some(path),
        metrics: metrics.then(|| "127.0.0.1:0".to_string()),
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind test server");
    let endpoint = server.endpoint();
    (server, endpoint)
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

fn observed(cfg: &SeismicConfig, source: &[f64]) -> Grid {
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| velocity(cfg.n).get(ix) * 1.05);
    forward(cfg, &c_true, source)[cfg.steps].clone()
}

fn compile_req(cfg: &SeismicConfig, checkpointed: bool) -> CompileRequest {
    CompileRequest::Seismic {
        n: cfg.n,
        steps: cfg.steps,
        d: cfg.d,
        c: Some(velocity(cfg.n).as_slice().to_vec()),
        budget: checkpointed.then_some(2),
        checkpointed: checkpointed.then_some(true),
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

#[test]
fn traced_gradient_rolls_up_without_touching_the_bits() {
    let _g = suite_lock();
    let (server, endpoint) = start_server(false);
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&endpoint).expect("connect");

    let cfg = test_cfg();
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);
    // The model's configuration, not the wall-clock tuner's pick of the day.
    common::pin_model_config(&cfg, false, default_pool());
    let fp = client
        .compile(compile_req(&cfg, false))
        .expect("compile")
        .fingerprint;

    let plain = client
        .gradient(&fp, source.clone(), data.as_slice().to_vec())
        .expect("untraced gradient");
    assert!(plain.trace.is_none(), "untraced replies carry no rollup");
    assert!(plain.request_id > 0);

    let traced = client
        .gradient_traced(&fp, source.clone(), data.as_slice().to_vec())
        .expect("traced gradient");
    assert!(traced.request_id > plain.request_id, "ids are sequential");

    // Zero effect on the payload: bitwise-identical gradient and misfit.
    assert_eq!(plain.misfit.to_bits(), traced.misfit.to_bits());
    assert_eq!(plain.gradient.len(), traced.gradient.len());
    for (a, b) in plain.gradient.iter().zip(&traced.gradient) {
        assert_eq!(a.to_bits(), b.to_bits(), "traced run changed the gradient");
    }

    // The rollup names this request and telescopes: per-phase self times
    // sum to at least the trace extent (worker threads can push the sum
    // above it — parallel self time is real time).
    let rollup = traced.trace.expect("trace rollup present");
    assert_eq!(num(&rollup, "request_id") as u64, traced.request_id);
    let wall_ns = num(&rollup, "wall_ns");
    assert!(wall_ns > 0.0, "rollup has a measured extent");
    let phases = match rollup.get("phases") {
        Some(Value::Arr(phases)) => phases,
        _ => panic!("rollup has no phases"),
    };
    let self_total: f64 = phases.iter().map(|p| num(p, "self_ns")).sum();
    // Spans at the grain of regions: per step the primal's group, the back
    // step and its group; the batch, the shot and the forward sweep; and
    // the request's own `serve.*` spans. None per tile.
    let serve_spans: f64 = phases
        .iter()
        .filter(|p| p.get("phase").and_then(Value::as_str) == Some("serve"))
        .map(|p| num(p, "spans"))
        .sum();
    let spans = num(&rollup, "spans");
    assert!(
        (1.0..=(3 * cfg.steps + 4) as f64 + serve_spans).contains(&spans),
        "{spans} spans for {} steps: {rollup}",
        cfg.steps
    );
    assert!(
        self_total >= 0.9 * wall_ns,
        "rollup accounts for the request duration: self {self_total} vs wall {wall_ns}\n{:?}",
        rollup
    );

    // A follow-up untraced request is unaffected by the traced one.
    let again = client
        .gradient(&fp, source, data.as_slice().to_vec())
        .expect("gradient after trace");
    assert!(again.trace.is_none());
    assert_eq!(plain.misfit.to_bits(), again.misfit.to_bits());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn metrics_endpoint_emits_parseable_prometheus_and_healthz() {
    let _g = suite_lock();
    let (server, endpoint) = start_server(true);
    let metrics_addr = server
        .metrics_addr()
        .expect("metrics endpoint bound")
        .to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&endpoint).expect("connect");

    let cfg = test_cfg();
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);
    let fp = client
        .compile(compile_req(&cfg, false))
        .expect("compile")
        .fingerprint;
    for _ in 0..3 {
        client
            .gradient(&fp, source.clone(), data.as_slice().to_vec())
            .expect("gradient");
    }

    let body = perforad::serve::scrape(&metrics_addr, "/metrics").expect("scrape /metrics");
    assert!(
        body.contains("serve_requests_total"),
        "request counter exported: {body}"
    );
    assert!(
        body.contains("serve_request_ns{fingerprint=\""),
        "per-fingerprint latency series exported"
    );
    assert!(
        body.contains("quantile=\"0.99\""),
        "latency quantiles exported"
    );
    assert!(body.contains("serve_uptime_seconds"));
    // Every sample line is `name[{labels}] value` with a finite value —
    // the whole exposition must be machine-parseable.
    let mut samples = 0;
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        let v: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable sample value in line {line:?}");
        });
        assert!(v.is_finite(), "non-finite sample in line {line:?}");
        samples += 1;
    }
    assert!(samples > 10, "exposition has a real sample population");

    let health = perforad::serve::scrape(&metrics_addr, "/healthz").expect("scrape /healthz");
    let health = parse(&health).expect("healthz is valid JSON");
    assert_eq!(
        health.get("status").and_then(Value::as_str),
        Some("ok"),
        "daemon reports healthy"
    );
    assert!(num(&health, "uptime_ns") > 0.0);
    assert!(num(&health, "queue_depth") >= 0.0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn injected_fault_dumps_flight_recorder_exactly_once() {
    let _g = suite_lock();
    fault::disarm();
    let pid = std::process::id();
    let flight_dir = std::env::temp_dir().join(format!("perforad-telemetry-flight-{pid}"));
    let ckpt_dir = std::env::temp_dir().join(format!("perforad-telemetry-ckpt-{pid}"));
    let _ = std::fs::remove_dir_all(&flight_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).expect("ckpt dir");
    std::env::set_var(perforad::ckpt::CKPT_DIR_ENV, &ckpt_dir);
    std::env::set_var(perforad::obs::FLIGHT_DIR_ENV, &flight_dir);

    let cfg = SeismicConfig {
        n: 8,
        steps: 12,
        d: 0.1,
    };
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);

    let (server, endpoint) = start_server(false);
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&endpoint).expect("connect");
    let fp = client
        .compile(compile_req(&cfg, true))
        .expect("compile checkpointed")
        .fingerprint;

    // Unarmed request: no degradation, no dump.
    client
        .gradient(&fp, source.clone(), data.as_slice().to_vec())
        .expect("unarmed gradient");
    let dumps_before = flight_dumps(&flight_dir);
    assert!(
        dumps_before.is_empty(),
        "healthy requests never dump: {dumps_before:?}"
    );

    // Armed: the first checkpoint disk write fails, the store spills to
    // memory (the gradient still answers), and the degradation dumps the
    // flight recorder exactly once.
    fault::arm("ckpt.disk.write=fail@1").expect("arm");
    let degraded = client
        .gradient(&fp, source.clone(), data.as_slice().to_vec())
        .expect("degraded gradient still answers");
    fault::disarm();

    let dumps = flight_dumps(&flight_dir);
    assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
    let body = std::fs::read_to_string(&dumps[0]).expect("read dump");
    let dump = parse(&body).expect("flight dump is valid JSON");
    assert_eq!(dump.get("reason").and_then(Value::as_str), Some("degraded"));
    assert_eq!(
        num(&dump, "request_id") as u64,
        degraded.request_id,
        "dump names the failing request"
    );
    assert!(
        dump.get("faults")
            .map(|f| num(f, "injected_total") >= 1.0)
            .unwrap_or(false),
        "dump carries the fault tallies"
    );
    assert!(dump.get("trace").is_some(), "dump carries the span ring");
    assert!(dump.get("metrics").is_some());

    // Second trigger path: a request already past its deadline dumps
    // with its own reason.
    let req = Request::Gradient(GradientRequest {
        fingerprint: fp.clone(),
        source: source.clone(),
        observed: data.as_slice().to_vec(),
        deadline_ms: Some(0),
        trace: false,
    });
    match client.roundtrip(&req).expect("deadline roundtrip") {
        Reply::Error(msg) => assert!(msg.contains("deadline"), "got {msg}"),
        other => panic!("expected deadline error, got {other:?}"),
    }
    let dumps = flight_dumps(&flight_dir);
    assert_eq!(dumps.len(), 2, "deadline breach added one dump");
    assert!(
        dumps
            .iter()
            .any(|p| p.to_string_lossy().contains("deadline")),
        "deadline dump labeled by reason: {dumps:?}"
    );

    std::env::remove_var(perforad::obs::FLIGHT_DIR_ENV);
    std::env::remove_var(perforad::ckpt::CKPT_DIR_ENV);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&flight_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

fn flight_dumps(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    out.sort();
    out
}

#[test]
fn stats_reply_carries_the_dashboard() {
    let _g = suite_lock();
    let (server, endpoint) = start_server(false);
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&endpoint).expect("connect");

    let cfg = test_cfg();
    let source = ricker(cfg.steps);
    let data = observed(&cfg, &source);
    let fp = client
        .compile(compile_req(&cfg, false))
        .expect("compile")
        .fingerprint;
    for _ in 0..2 {
        client
            .gradient(&fp, source.clone(), data.as_slice().to_vec())
            .expect("gradient");
    }

    // Everything perforad-top renders comes from this one reply.
    let stats = client.stats().expect("stats");
    assert!(num(&stats, "uptime_ns") > 0.0);
    assert!(num(&stats, "requests_total") >= 3.0);
    assert!(num(&stats, "degraded_total") >= 0.0);
    assert!(num(&stats, "rejected_total") >= 0.0);
    assert!(num(&stats, "deadline_exceeded_total") >= 0.0);
    assert!(
        stats
            .get("faults")
            .map(|f| num(f, "injected_total") >= 0.0)
            .unwrap_or(false),
        "fault tallies inline"
    );
    let lat = stats.get("latency_ns").expect("global latency histogram");
    assert!(num(lat, "count") >= 2.0, "gradient latencies recorded");
    let (p50, p95, p99, max) = (
        num(lat, "p50"),
        num(lat, "p95"),
        num(lat, "p99"),
        num(lat, "max"),
    );
    assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99, "ordered quantiles");
    assert!(max > 0.0 && p50 <= max);
    match stats.get("kernels") {
        Some(Value::Arr(kernels)) => {
            let k = kernels
                .iter()
                .find(|k| k.get("fingerprint").and_then(Value::as_str) == Some(fp.as_str()))
                .expect("compiled kernel listed");
            let klat = k.get("latency_ns").expect("per-kernel latency");
            assert!(
                num(klat, "count") >= 2.0,
                "per-fingerprint series populated"
            );
        }
        _ => panic!("stats has no kernels array"),
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn one_served_gradient_is_one_sample_of_the_wire_and_its_two_frames_of_bytes() {
    let _g = suite_lock();
    let (server, endpoint) = start_server(false);
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&endpoint).expect("connect");

    let cfg = test_cfg();
    let source = ricker(cfg.steps);
    let fingerprint = client
        .compile(compile_req(&cfg, false))
        .expect("compile")
        .fingerprint;
    let request = Request::Gradient(GradientRequest {
        fingerprint,
        observed: observed(&cfg, &source).as_slice().to_vec(),
        source,
        deadline_ms: None,
        trace: false,
    });

    // The daemon records a request's wire cost before it writes the reply.
    let wire = || {
        let samples = |name| perforad::obs::histogram(name).count();
        let bytes = |name| perforad::obs::counter(name).get();
        [
            samples("serve.decode_ns"),
            samples("serve.encode_ns"),
            bytes("serve.frame_bytes_in"),
            bytes("serve.frame_bytes_out"),
        ]
    };
    let before = wire();
    let reply = client.roundtrip(&request).expect("round trip");
    let after = wire();
    assert!(matches!(reply, Reply::Gradient(_)));
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let frame = |json: String| json.len() as u64 + 4;
    assert_eq!(
        delta,
        [1, 1, frame(request.to_json()), frame(reply.to_json())],
        "decode samples, encode samples, bytes in, bytes out"
    );
    assert!(perforad::obs::histogram("serve.decode_ns").sum() > 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn chrome_trace_stays_nested_across_concurrent_workers() {
    let _g = suite_lock();
    perforad::obs::set_enabled(true);
    perforad::obs::clear_events();
    {
        let _scope = perforad::obs::RequestScope::enter(7);
        let _root = perforad::obs::span!("telemetry.root", "test");
        let workers: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _outer = perforad::obs::span!("telemetry.worker", "test");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    let _inner = perforad::obs::span!("telemetry.inner", "test");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    }
    let events = perforad::obs::collect_events();
    perforad::obs::set_enabled(false);
    assert_eq!(events.len(), 7, "root + 3×(outer+inner) + nothing else");
    assert!(events.iter().all(|e| e.req == 7), "every span scoped");

    let json = perforad::obs::chrome_trace_json(&events);
    let doc = parse(&json).expect("chrome trace is valid JSON");
    let Some(Value::Arr(trace_events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    assert_eq!(trace_events.len(), events.len());

    // Group by tid; within a tid, spans sorted by start must properly
    // nest (a later span either starts after the previous ends or ends
    // within it) — 1µs slack for the ns→µs rounding of the export.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    for ev in trace_events {
        assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            ev.get("args")
                .map(|a| num(a, "request_id") as u64)
                .unwrap_or(0),
            7,
            "request_id arg on every scoped span"
        );
        let tid = num(ev, "tid") as u64;
        by_tid
            .entry(tid)
            .or_default()
            .push((num(ev, "ts"), num(ev, "ts") + num(ev, "dur")));
    }
    assert_eq!(by_tid.len(), 4, "main + 3 worker tids interleave");
    for (tid, spans) in &mut by_tid {
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut stack: Vec<f64> = Vec::new();
        for &(start, end) in spans.iter() {
            while let Some(&open_end) = stack.last() {
                if open_end <= start + 1.0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&open_end) = stack.last() {
                assert!(
                    end <= open_end + 1.0,
                    "tid {tid}: span [{start}, {end}] straddles its parent ending {open_end}"
                );
            }
            stack.push(end);
        }
    }
}

#[test]
fn disabled_request_scope_allocates_nothing() {
    let _g = suite_lock();
    perforad::obs::set_enabled(false);
    // Warm both code paths once (lazy statics, thread registration).
    {
        let _scope = perforad::obs::RequestScope::enter(1);
        let _s = perforad::obs::span!("telemetry.warm", "test");
    }
    // Counted on this thread only: daemon and pool threads left over from
    // earlier tests in this binary allocate on their own tallies.
    let before = common::thread_allocs();
    for i in 0..10_000u64 {
        let _scope = perforad::obs::RequestScope::enter(i);
        let _s = perforad::obs::span!("telemetry.cold", "test", "i" => i);
    }
    let allocs = common::thread_allocs() - before;
    assert_eq!(allocs, 0, "disabled request-scoped spans must not allocate");
}
