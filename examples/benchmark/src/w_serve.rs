//! `serve_singles` and `serve_survey`: a live `Server` on a private
//! Unix socket, driven the two ways the daemon is used.
//!
//! * `serve_singles` — **open loop**: seeded Poisson arrivals of single
//!   `Gradient` requests over two connections at three fixed rates, each
//!   request timed from when it was due. Serve-bound under concurrency:
//!   wire encode/decode and the engine's run-lock queue dominate.
//! * `serve_survey` — **closed loop**, one client (an inversion driver
//!   waits for its gradient): each iteration swaps the velocity model
//!   with a `Compile` and requests one `GradientBatch` of eight shots.
//!   Few huge frames, batch dispatch, model writes beside gradient reads.
//!
//! Every served gradient is compared bit for bit with the in-process
//! `BatchPlan::run` on the same inputs.

use crate::gen::{self, Rng};
use crate::harness::{self, ms_since, Args, Checks, Outcome, RunDir, GENERATOR_LATE_LIMIT_MS};
use crate::loadgen::{self, Phase};
use crate::surface::*;
use crate::{probes, stats, trace, tuning};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    Singles,
    Survey,
}

/// `serve_singles` request shape (the issue's): an unloaded round trip
/// of about 10 ms on the calibration host (plain median 9.9 ms in a
/// quiet campaign, 12–15 ms in a noisy one), so one lane carries about
/// 100 requests/s.
pub const SINGLES_N: usize = 16;
pub const SINGLES_STEPS: usize = 24;
/// The three fixed open-loop arrival rates, requests per second: about
/// 30 %, 60 % and 90 % of that one-lane capacity.
pub const RATES: [f64; 3] = [30.0, 60.0, 90.0];
/// Latency limit, ms: four to five times the unloaded median measured at
/// calibration. Frozen.
pub const LIMIT_MS: f64 = 48.0;
/// Shares of the timed region, each in four slots, one per round: one
/// connection closed loop, the same requests handed to the engine
/// in-process, and two connections closed loop. The first two carry the
/// gated metrics, and the fastest of a series needs its hundreds of
/// samples. The rest goes to the open-loop phases at R1, R2, R3, one after
/// each of the first three rounds.
const UNLOADED_SHARE: f64 = 0.35;
const HANDLE_SHARE: f64 = 0.2;
const PAIRED_SHARE: f64 = 0.1;
/// Share of the timed region the open-loop phase after each round gets.
const OPEN_SHARE: [f64; 4] = [0.07, 0.17, 0.11, 0.0];
/// Open-loop connections.
const CONNECTIONS: usize = 2;
/// Distinct shots the requests cycle through.
const SHOT_POOL: usize = 8;

/// `serve_survey` shape.
pub const SURVEY_N: usize = 24;
pub const SURVEY_STEPS: usize = 32;
pub const SURVEY_SHOTS: usize = 8;

impl Mode {
    fn shape(self) -> (usize, usize) {
        match self {
            Mode::Singles => (SINGLES_N, SINGLES_STEPS),
            Mode::Survey => (SURVEY_N, SURVEY_STEPS),
        }
    }
}

type Shot = (Vec<f64>, Vec<f64>);

/// What a client needs to send a request and judge its reply; plain
/// data, shared by the open-loop connections.
struct Served {
    fingerprint: String,
    shots: Vec<Shot>,
    /// `reference[model][shot]` = in-process misfit and gradient.
    reference: Vec<Vec<(f64, Vec<f64>)>>,
}

pub struct Prepared {
    mode: Mode,
    endpoint: Endpoint,
    engine: Arc<Engine>,
    server: Option<std::thread::JoinHandle<()>>,
    served: Served,
    cfg: SeismicConfig,
    /// Velocity models the survey alternates between (one for singles).
    models: Vec<Vec<f64>>,
    plan: BatchPlan<'static>,
    pool: &'static ThreadPool,
    compile_cold_s: f64,
    plan_new_ms: f64,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.endpoint) {
            let _ = c.roundtrip(&Request::Shutdown);
        }
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

fn compile_request(cfg: &SeismicConfig, c: &[f64]) -> CompileRequest {
    CompileRequest::Seismic {
        n: cfg.n,
        steps: cfg.steps,
        d: cfg.d,
        c: Some(c.to_vec()),
        budget: None,
        checkpointed: None,
    }
}

fn gradient_request(fingerprint: &str, shot: &Shot) -> Request {
    Request::Gradient(GradientRequest {
        fingerprint: fingerprint.to_string(),
        source: shot.0.clone(),
        observed: shot.1.clone(),
        deadline_ms: None,
        trace: false,
    })
}

fn batch_request(fingerprint: &str, shots: &[Shot]) -> Request {
    Request::GradientBatch(BatchRequest {
        fingerprint: fingerprint.to_string(),
        shots: shots.to_vec(),
        deadline_ms: None,
        trace: false,
    })
}

/// Bytes one exchange puts on the wire: two frames, each a four-byte
/// length and its JSON.
fn wire_bytes(request: &Request, reply: &Reply) -> f64 {
    (request.to_json().len() + reply.to_json().len() + 8) as f64
}

fn to_batch(cfg: &SeismicConfig, shots: &[Shot]) -> ShotBatch {
    let mut b = ShotBatch::new();
    for (source, observed) in shots {
        b.push(
            source.clone(),
            Grid::from_vec(&[cfg.n; 3], observed.clone()),
        );
    }
    b
}

pub fn setup(
    mode: Mode,
    args: &Args,
    dir: &RunDir,
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let caches = dir.point_caches("cache");
    let (n, steps) = mode.shape();
    let cfg = SeismicConfig {
        n,
        steps,
        d: Rng::new(args.seed, 10).range(0.08, 0.12),
    };
    let n_models = if mode == Mode::Survey { 2 } else { 1 };
    let models: Vec<Vec<f64>> = (0..n_models)
        .map(|m| gen::velocity_model(&mut Rng::new(args.seed, 20 + m), n, 0.02))
        .collect();
    let pool_size = if mode == Mode::Survey {
        SURVEY_SHOTS
    } else {
        SHOT_POOL
    };
    let shots: Vec<Shot> = (0..pool_size as u64)
        .map(|k| {
            (
                gen::wavelet(&mut Rng::new(args.seed, 100 + k), steps),
                gen::uniform_vec(&mut Rng::new(args.seed, 200 + k), n * n * n, -0.01, 0.01),
            )
        })
        .collect();

    // The daemon, in-process on a private socket as `examples/serve.rs`
    // does; the path is relative so it stays short of the sun_path limit
    // wherever the checkout lives.
    let server = Server::bind(&ServeOptions {
        socket: Some(dir.path().join("s.sock")),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let endpoint = server.endpoint();
    checks.op(
        matches!(endpoint, Endpoint::Unix(_)),
        "daemon listens on its private Unix socket",
    );
    let engine = server.engine();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });

    let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(harness::threads())));
    let pinned = tuning::pin_seismic(
        &cfg,
        steps >= CKPT_THRESHOLD_STEPS,
        // The daemon runs on the program's shared pool.
        &[pool.size(), default_pool().size()],
        &caches.join("tune.json"),
    );
    let mut client = Client::connect(&endpoint).map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let compiled = client
        .compile(compile_request(&cfg, &models[0]))
        .map_err(|e| format!("compile: {e}"))?;
    let compile_cold_s = t.elapsed().as_secs_f64();
    checks.op(!compiled.cached, "first Compile of the fingerprint is cold");
    let daemon_config = compiled.config.clone().unwrap_or_default();
    tuning::check_pinned(checks, &pinned, &daemon_config);
    eprintln!("{}: daemon config {daemon_config}", args.workload);

    // The in-process reference: the same plan options the engine uses.
    let dims = [n; 3];
    let t = Instant::now();
    let mut plan = BatchPlan::new(
        &cfg,
        &Grid::from_vec(&dims, models[0].clone()),
        &BatchOptions::default(),
        pool,
    );
    let plan_new_ms = ms_since(t);
    tuning::check_pinned(checks, &pinned, &plan.tuned().describe());
    let batch = to_batch(&cfg, &shots);
    let mut reference = Vec::new();
    for model in &models {
        plan.set_model(&Grid::from_vec(&dims, model.clone()));
        let r = plan.run(&batch);
        let per_shot = r.misfits.iter().zip(&r.gradients);
        reference.push(
            per_shot
                .map(|(j, g)| (*j, g.as_slice().to_vec()))
                .collect::<Vec<_>>(),
        );
    }

    let prepared = Prepared {
        mode,
        endpoint,
        engine,
        server: Some(handle),
        served: Served {
            fingerprint: compiled.fingerprint,
            shots,
            reference,
        },
        cfg,
        models,
        plan,
        pool,
        compile_cold_s,
        plan_new_ms,
    };
    // Warm the served path.
    for k in 0..3 {
        let ok = prepared.served.single(&mut client, k, 0);
        checks.op(ok, "warm-up request");
    }
    Ok(prepared)
}

impl Served {
    fn check_gradient(&self, model: usize, shot: usize, misfit: f64, gradient: &[f64]) -> bool {
        let (j, g) = &self.reference[model][shot];
        misfit.to_bits() == j.to_bits() && gen::bitwise_equal(gradient, g)
    }

    /// One `Gradient` request for shot `k` of the pool; true when the
    /// reply is a gradient equal to the reference bit for bit.
    fn single(&self, client: &mut Client, k: usize, model: usize) -> bool {
        let shot = k % self.shots.len();
        match client.roundtrip(&gradient_request(&self.fingerprint, &self.shots[shot])) {
            Ok(Reply::Gradient(g)) => self.check_gradient(model, shot, g.misfit, &g.gradient),
            _ => false,
        }
    }
}

pub fn measure(p: &mut Prepared, args: &Args, out: &mut Outcome) {
    match p.mode {
        Mode::Singles => measure_singles(p, args, out),
        Mode::Survey => measure_survey(p, args, out),
    }
}

fn measure_singles(p: &mut Prepared, args: &Args, out: &mut Outcome) {
    let mut checks = Checks::default();
    let served = &p.served;
    let total = args.timed_seconds();
    let root = trace::span("timed_region", "bench");
    let root_id = root.id();

    // Closed-loop slots are interleaved with the open-loop phases, so a
    // disturbed spell of the host cannot fall on one series alone.
    let slot = |share: f64| Duration::from_secs_f64(total * share / OPEN_SHARE.len() as f64);
    // Three connections for the whole run: every connection is a daemon
    // thread with its own allocator arena, and opening one per phase
    // makes the peak resident set a matter of chance.
    let mut client = Client::connect(&p.endpoint).expect("connect");
    let mut pair: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(&p.endpoint).expect("connect"))
        .collect();
    let request = gradient_request(&served.fingerprint, &served.shots[0]);
    let exchange = client.roundtrip(&request);
    checks.op(
        matches!(exchange, Ok(Reply::Gradient(_))),
        "request whose frames are counted",
    );
    let footprint = exchange.map_or(0.0, |reply| wire_bytes(&request, &reply));
    let (mut unloaded, mut handled, mut paired) = (Vec::new(), Vec::new(), Vec::new());
    let mut k = 0;
    let busy = AtomicU64::new(0);
    let mut phases = Vec::new();
    for (round, open_share) in OPEN_SHARE.iter().enumerate() {
        // One connection, back to back.
        unloaded.extend(harness::time_loop(
            slot(UNLOADED_SHARE),
            5,
            &mut checks,
            "unloaded request",
            || {
                k += 1;
                let _s = trace::span_under(root_id, "serve.client.roundtrip", "serve", k as u64);
                served.single(&mut client, k, 0)
            },
        ));

        // The same requests handed to the daemon's engine with no socket
        // and no frames in the way: the engine's share of a round trip.
        handled.extend(harness::time_loop(
            slot(HANDLE_SHARE),
            5,
            &mut checks,
            "in-process request",
            || {
                k += 1;
                let _s = trace::span_under(root_id, "serve.engine.handle", "serve", k as u64);
                let shot = k % served.shots.len();
                let request = gradient_request(&served.fingerprint, &served.shots[shot]);
                match p.engine.handle(&request) {
                    Reply::Gradient(g) => served.check_gradient(0, shot, g.misfit, &g.gradient),
                    _ => false,
                }
            },
        ));

        // Two connections, each back to back: what concurrency costs. The
        // engine runs one gradient at a time, so this is where a queue forms.
        let per_conn: Vec<(Vec<f64>, Checks)> = std::thread::scope(|scope| {
            let handles: Vec<_> = pair
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut checks = Checks::default();
                        let mut k = c;
                        let paired_slot = slot(PAIRED_SHARE);
                        let v = harness::time_loop(
                            paired_slot,
                            5,
                            &mut checks,
                            "paired request",
                            || {
                                k += CONNECTIONS;
                                let _s = trace::span_under(
                                    root_id,
                                    "serve.client.roundtrip",
                                    "serve",
                                    k as u64,
                                );
                                served.single(client, k, 0)
                            },
                        );
                        (v, checks)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (v, c) in per_conn {
            paired.extend(v);
            checks.merge(c);
        }

        // One open-loop phase after each of the first three rounds.
        let Some(&rate) = RATES.get(round) else {
            continue;
        };
        let duration = total * open_share;
        let schedule =
            gen::poisson_schedule(&mut Rng::new(args.seed, 300 + round as u64), rate, duration);
        let done = loadgen::run_open_loop(&schedule, &mut pair, |client, index| {
            let _s =
                trace::span_under(root_id, "serve.client.roundtrip", "serve", index as u64 + 1);
            let shot = index % served.shots.len();
            match client.roundtrip(&gradient_request(&served.fingerprint, &served.shots[shot])) {
                Ok(Reply::Gradient(g)) => served.check_gradient(0, shot, g.misfit, &g.gradient),
                Ok(Reply::Busy { .. }) => {
                    busy.fetch_add(1, Ordering::Relaxed);
                    false
                }
                _ => false,
            }
        });
        for c in &done {
            checks.op(c.ok, "open-loop request");
        }
        phases.push(Phase::new(rate, duration, LIMIT_MS, &done));
    }
    let unloaded_p50 = stats::median(&unloaded);
    drop(root);

    let p50 = |ph: &Phase| stats::median(&ph.latencies_ms);
    let r2 = &phases[1];
    let (one, engine) = (stats::fastest(&unloaded), stats::fastest(&handled));
    out.e2e.insert("op_ms", one);
    out.e2e.insert("alt_ms", engine);
    // The engine's share of a round trip; the rest is the wire: frames,
    // JSON both ways, the socket, a thread hand-over.
    out.e2e.insert("speedup", engine / one);
    out.e2e
        .insert("footprint_mb", footprint / (1u64 << 20) as f64);
    // Two connections keep their queueing — it is the signal there, and
    // the fastest paired request is the one that met no queue — so the
    // ledger carries their median, and no gated metric rests on them:
    // five busy threads on two cores measure the scheduler.
    let two = out.timing("paired_rtt_ms", &paired, 1.0, "ms").median;
    out.value(
        "requests_per_s.paired",
        CONNECTIONS as f64 * 1e3 / two,
        "1/s",
    );
    out.timing("unloaded_rtt_ms", &unloaded, 1.0, "ms");
    out.timing("engine_handle_ms", &handled, 1.0, "ms");
    out.value("concurrency_cost", two / unloaded_p50, "ratio");
    let tail = out
        .timing("request_p50_ms", &r2.latencies_ms, 1.0, "ms")
        .tail;
    out.value(
        "request_p95_ms",
        stats::percentile_sorted(&stats::sorted(&r2.latencies_ms), 95.0),
        "ms",
    );
    for (name, ph) in ["r1", "r2", "r3"].iter().zip(&phases) {
        out.timing(&format!("latency_ms.{name}"), &ph.latencies_ms, 1.0, "ms");
        out.value(&format!("rate.{name}"), ph.rate, "1/s");
        out.value(&format!("goodput.{name}"), ph.goodput(), "1/s");
        out.value(
            &format!("within_limit_share.{name}"),
            ph.within_limit as f64 / ph.sent.max(1) as f64,
            "ratio",
        );
        out.value(
            &format!("backlog_grows.{name}"),
            ph.backlog_grows as u8 as f64,
            "count",
        );
    }
    let sustained = loadgen::sustained_rate(&phases);
    out.value("sustained_rate", sustained, "1/s");
    out.value("latency_limit_ms", LIMIT_MS, "ms");
    // Pooled over the three phases: a 95th percentile needs the samples.
    let late: Vec<f64> = phases.iter().flat_map(|ph| ph.late_ms.clone()).collect();
    let late = if late.is_empty() {
        0.0
    } else {
        stats::percentile_sorted(&stats::sorted(&late), 95.0)
    };
    // A generator that runs late measures itself, not the daemon: the
    // open-loop lines above are then not to be quoted.
    out.guard("generator_late_ms_p95", late, GENERATOR_LATE_LIMIT_MS, "ms");

    if args.traced {
        out.layer("serve.unloaded_rtt_ms", unloaded_p50);
        out.layer("serve.paired_rtt_ms", stats::median(&paired));
        out.layer("serve.queue_wait_ms", p50(r2) - unloaded_p50);
        out.layer("serve.request_tail_ms", tail.1);
        out.layer("serve.sustained_rate", sustained);
        out.layer(
            "serve.within_limit_share",
            r2.within_limit as f64 / r2.sent.max(1) as f64,
        );
        out.layer("serve.busy_replies", busy.load(Ordering::Relaxed) as f64);
        out.layer("bench.generator_late_ms_p95", late);
        serve_layers(
            p,
            args,
            &mut client,
            unloaded_p50,
            root_id,
            out,
            &mut checks,
        );
    }
    out.checks.merge(checks);
}

fn measure_survey(p: &mut Prepared, args: &Args, out: &mut Outcome) {
    let mut checks = Checks::default();
    let mut client = Client::connect(&p.endpoint).expect("connect");
    let (mut swap, mut batch, mut local) = (Vec::new(), Vec::new(), Vec::new());
    let mut footprint = 0.0;
    let served = &p.served;
    let local_batch = to_batch(&p.cfg, &served.shots);
    let dims = [p.cfg.n; 3];
    let root = trace::span("timed_region", "bench");
    let root_id = root.id();
    let t0 = Instant::now();
    let (mut iteration, mut served_s) = (0usize, 0.0);
    while t0.elapsed().as_secs_f64() < args.timed_seconds() || iteration < 4 {
        iteration += 1;
        // The model installed by the previous iteration is the other one,
        // so every Compile is a real swap on the warm fingerprint.
        let model = iteration % p.models.len();
        let t_iter = Instant::now();
        let t = Instant::now();
        let swap_req = Request::Compile(compile_request(&p.cfg, &p.models[model]));
        let swapped = {
            let _s = trace::span_under(root_id, "serve.client.compile", "serve", iteration as u64);
            client.roundtrip(&swap_req)
        };
        swap.push(ms_since(t));
        checks.op(
            matches!(&swapped, Ok(Reply::Compiled(c)) if c.cached && c.fingerprint == served.fingerprint),
            "model swap is a warm Compile of the same fingerprint",
        );
        let batch_req = batch_request(&served.fingerprint, &served.shots);
        let t = Instant::now();
        let reply = {
            let _s = trace::span_under(
                root_id,
                "serve.client.gradient_batch",
                "serve",
                iteration as u64,
            );
            client.roundtrip(&batch_req)
        };
        batch.push(ms_since(t));
        served_s += t_iter.elapsed().as_secs_f64();
        // The first iteration's four frames, counted off the clock.
        if let (1, Ok(swapped), Ok(reply)) = (iteration, &swapped, &reply) {
            footprint = wire_bytes(&swap_req, swapped) + wire_bytes(&batch_req, reply);
        }
        match reply {
            Ok(Reply::GradientBatch(b)) => {
                let ok = b.gradients.len() == served.shots.len()
                    && (0..served.shots.len())
                        .all(|k| served.check_gradient(model, k, b.misfits[k], &b.gradients[k]));
                checks.op(ok, "served batch bitwise-equal to the in-process plan");
            }
            _ => checks.op(false, "GradientBatch reply"),
        }
        // Every other iteration, the same batch in-process: the share of
        // a served iteration that is the engine's own work.
        if iteration % 2 == 0 {
            p.plan
                .set_model(&Grid::from_vec(&dims, p.models[model].clone()));
            let t = Instant::now();
            let r = {
                let _s = trace::span_under(root_id, "pde.batchplan.run", "pde", iteration as u64);
                p.plan.run(&local_batch)
            };
            local.push(ms_since(t));
            checks.op(
                gen::bitwise_equal(r.gradients[0].as_slice(), &served.reference[model][0].1),
                "in-process batch reproduces the reference",
            );
        }
    }
    drop(root);

    let (b, s, l) = (
        stats::fastest(&batch),
        stats::fastest(&swap),
        stats::fastest(&local),
    );
    // What the inversion driver waits for each iteration: swap + batch.
    let iterations: Vec<f64> = swap.iter().zip(&batch).map(|(s, b)| s + b).collect();
    let op = stats::fastest(&iterations);
    out.e2e.insert("op_ms", op);
    out.e2e.insert("alt_ms", l);
    // The engine's share of a served iteration; the rest is the wire.
    out.e2e.insert("speedup", l / op);
    out.e2e
        .insert("footprint_mb", footprint / (1u64 << 20) as f64);
    let shots_per_s = served.shots.len() as f64 * 1e3 / op;
    out.value(
        "shots_per_s_with_stalls",
        (iteration * served.shots.len()) as f64 / served_s,
        "1/s",
    );
    let tail = out.timing("request_p50_ms", &batch, 1.0, "ms").tail;
    out.timing("model_swap_ms", &swap, 1.0, "ms");
    out.timing("inprocess_batch_ms", &local, 1.0, "ms");
    out.value("shots_per_s", shots_per_s, "1/s");
    out.value("engine_share", l / b, "ratio");

    if args.traced {
        out.layer("serve.model_swap_ms", s);
        out.layer("serve.request_tail_ms", tail.1);

        // Both forced batch strategies on this shape, and the model's pick.
        let c = Grid::from_vec(&dims, p.models[0].clone());
        let mut forced = Vec::new();
        for strategy in [BatchStrategy::ShotParallel, BatchStrategy::GridParallel] {
            let opts = BatchOptions {
                strategy: Some(strategy),
                ..BatchOptions::default()
            };
            let plan = BatchPlan::new(&p.cfg, &c, &opts, p.pool);
            let v = harness::time_loop(
                Duration::from_secs_f64(args.probe_seconds() / 8.0),
                2,
                &mut checks,
                "forced-strategy batch",
                || {
                    let _s = trace::span("pde.batchplan.run.forced", "pde");
                    gen::bitwise_equal(
                        plan.run(&local_batch).gradients[0].as_slice(),
                        &served.reference[0][0].1,
                    )
                },
            );
            forced.push((strategy, stats::median(&v)));
        }
        out.layer("pde.batch_shot_parallel_ms", forced[0].1);
        out.layer("pde.batch_grid_parallel_ms", forced[1].1);
        let faster = if forced[0].1 <= forced[1].1 {
            forced[0].0
        } else {
            forced[1].0
        };
        out.layer(
            "perfmodel.batch_pick_matches",
            (p.plan.strategy_for(served.shots.len()) == faster) as u8 as f64,
        );

        let first = served.shots[0].clone();
        let unloaded = harness::time_loop(
            Duration::from_secs_f64(args.probe_seconds() / 8.0),
            5,
            &mut checks,
            "unloaded single request",
            || {
                // The last swap of the timed region decides which model
                // the daemon holds; check against that one.
                matches!(
                    client.roundtrip(&gradient_request(&served.fingerprint, &first)),
                    Ok(Reply::Gradient(_))
                )
            },
        );
        let unloaded_p50 = stats::median(&unloaded);
        out.layer("serve.unloaded_rtt_ms", unloaded_p50);
        serve_layers(
            p,
            args,
            &mut client,
            unloaded_p50,
            root_id,
            out,
            &mut checks,
        );
    }
    out.checks.merge(checks);
}

/// Per-layer probes both serve workloads share: wire cost per value,
/// `Stats` round trip, the engine without a socket.
fn serve_layers(
    p: &Prepared,
    args: &Args,
    client: &mut Client,
    unloaded_p50: f64,
    root: u64,
    out: &mut Outcome,
    checks: &mut Checks,
) {
    let budget = Duration::from_secs_f64(args.probe_seconds() / 8.0);
    let shot = &p.served.shots[0];
    let request = gradient_request(&p.served.fingerprint, shot);

    // Encode a request, decode a reply of the same size.
    let values = (shot.0.len() + shot.1.len()) as f64;
    let mut bytes = 0;
    let enc = harness::time_loop(budget.mul_f64(0.5), 10, checks, "encode", || {
        let _s = trace::span("serve.proto.encode", "serve");
        bytes = request.to_json().len();
        bytes > 0
    });
    out.layer(
        "serve.encode_ns_per_value",
        stats::median(&enc) * 1e6 / values,
    );
    out.layer("serve.payload_bytes_per_value", bytes as f64 / values);
    let reply_json = match p.engine.handle(&request) {
        Reply::Gradient(g) => Reply::Gradient(g).to_json(),
        _ => String::new(),
    };
    let reply_values = shot.1.len() as f64;
    let dec = harness::time_loop(budget.mul_f64(0.5), 10, checks, "decode", || {
        let _s = trace::span("serve.proto.decode", "serve");
        matches!(Reply::from_json(&reply_json), Ok(Reply::Gradient(_)))
    });
    out.layer(
        "serve.decode_ns_per_value",
        stats::median(&dec) * 1e6 / reply_values,
    );

    let stats_rtt = harness::time_loop(budget.mul_f64(0.5), 10, checks, "stats", || {
        let _s = trace::span("serve.client.stats", "serve");
        client
            .stats()
            .is_ok_and(|s| stats_counter(&s, "serve.requests_total") > 0)
    });
    out.layer("serve.stats_rtt_us", stats::median(&stats_rtt) * 1e3);

    // The engine with no socket in the way.
    let handle = harness::time_loop(budget, 10, checks, "engine handle", || {
        let _s = trace::span("serve.engine.handle", "serve");
        matches!(p.engine.handle(&request), Reply::Gradient(_))
    });
    let handle_p50 = stats::median(&handle);
    out.layer("serve.engine_handle_ms", handle_p50);
    out.layer("serve.wire_share", 1.0 - handle_p50 / unloaded_p50);
    out.layer("serve.compile_cold_s", p.compile_cold_s);
    out.layer("pde.batchplan_new_ms", p.plan_new_ms);
    out.layer(
        "exec.region_overhead_us",
        probes::region_overhead_us(p.pool, 400),
    );
    probes::finish_traced(&args.workload, root, out);
}
