//! The request engine: one process-wide compile cache in front of the
//! whole pipeline.
//!
//! A seismic `Compile` builds a [`BatchPlan`] — adjoint transform,
//! cache-keyed autotune (JIT warm-up included), compiled primal stepper,
//! checkpoint budget — exactly once per fingerprint and keeps it.
//! Every later request with that fingerprint is pure warm path: zero
//! adjoint transforms, zero tuner timings, zero out-of-process rustc
//! invocations (the obs counters `seismic.adjoint_transforms`,
//! `tune.timed`, and `jit.compiles` pin this in `tests/serve.rs`).
//!
//! Gradient executions are serialized behind one run lock: the shared
//! [`default_pool`] is not reentrant and must host one parallel region
//! at a time. The wait-plus-run population is exported as the
//! `serve.queue_depth` gauge. Gradient admission is bounded by
//! `PERFORAD_SERVE_MAX_QUEUE` (unset/0 = unlimited): a request that
//! would push the population past the cap is turned away with a
//! [`Reply::Busy`] carrying a `retry_after_ms` hint instead of piling
//! onto the lock, and a request that is still queued when its
//! client-supplied `deadline_ms` runs out earns an error reply without
//! executing. `Stats` and cache-hit `Compile`s bypass the lock entirely,
//! and cold `Compile`s are deliberately exempt from the cap — a
//! fingerprint warms up exactly once and every later shot depends on it.

use crate::proto::{
    BatchReply, BatchRequest, CompileRequest, CompiledReply, GradientReply, GradientRequest, Reply,
    Request, MAX_FRAME, MAX_FRAME_VALUES,
};
use perforad_codegen::parse_stencil;
use perforad_core::{ActivityMap, AdjointOptions, BoundaryStrategy};
use perforad_exec::native::Fnv;
use perforad_exec::{default_pool, fnv1a64, Binding, Grid};
use perforad_pde::seismic::{BatchOptions, BatchPlan, SeismicConfig, ShotBatch};
use perforad_tune::{cache, fingerprint_nests};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Largest accepted step count per shot.
const MAX_STEPS: usize = 1 << 20;

/// Env knob bounding the gradient wait-plus-run population (the
/// `serve.queue_depth` gauge). Unset or `0` means unlimited.
pub const MAX_QUEUE_ENV: &str = "PERFORAD_SERVE_MAX_QUEUE";

/// Why a request was refused without (fully) executing.
enum Refusal {
    /// Admission control: the run queue is full. Nothing ran.
    Busy { retry_after_ms: u64 },
    /// Validation or execution failure — becomes a [`Reply::Error`].
    Error(String),
}

/// An admitted slot in the gradient run queue; releases the slot (and
/// refreshes the `serve.queue_depth` gauge) on drop, whatever path the
/// request exits through — success, validation error, or panic unwind.
struct Admission<'a> {
    engine: &'a Engine,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        let depth = self.engine.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        perforad_obs::gauge("serve.queue_depth").set(depth);
    }
}

/// A warm seismic kernel: the amortized plan plus its request accounting.
struct KernelEntry {
    plan: BatchPlan<'static>,
    cfg: SeismicConfig,
    /// FNV over the velocity model's bit pattern — a repeat `Compile`
    /// with identical `c` is a pure no-op.
    c_digest: u64,
    requests: u64,
}

/// A compiled raw-DSL kernel: fingerprinted and cached, no gradient
/// driver attached (only the seismic kernel has a time-loop driver).
struct DslEntry {
    nests: usize,
    requests: u64,
}

#[derive(Default)]
struct Registry {
    /// Serve fingerprint → warm kernel.
    kernels: HashMap<u64, Arc<Mutex<KernelEntry>>>,
    /// Request-parameter digest → serve fingerprint (the pre-transform
    /// dedup index; hit = skip the build entirely).
    by_params: HashMap<u64, u64>,
    dsl: HashMap<u64, DslEntry>,
    dsl_by_src: HashMap<u64, u64>,
}

/// The shared state behind every connection: compile caches, the pool
/// run lock, and request accounting for `Stats`.
pub struct Engine {
    started: Instant,
    registry: Mutex<Registry>,
    /// Serializes everything that drives the shared pool (tuner runs and
    /// gradient executions) — the pool hosts one parallel region at a time.
    run_lock: Mutex<()>,
    /// Requests waiting for or holding the run lock.
    in_flight: AtomicU64,
    /// Admission cap on `in_flight` for gradient requests (0 = unlimited),
    /// read once from [`MAX_QUEUE_ENV`] at construction.
    max_queue: u64,
}

/// Next gradient request id (sequential, starting at 1; 0 means "no
/// request" throughout the telemetry plane). Returned in replies,
/// stamped on spans via [`perforad_obs::RequestScope`], and quoted in
/// flight-recorder dumps. Process-global, not per-engine: the span
/// recorder's request stamping is process-wide, so ids must stay unique
/// across every engine in the process (tests and embedders run several)
/// or a per-request drain could sweep up a different engine's spans.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// Survive a poisoned mutex: a panicking request is turned into an
/// `Error` reply by the connection handler, and the next request must
/// still be served.
fn lock_any<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Engine {
    pub fn new() -> Engine {
        let max_queue = std::env::var(MAX_QUEUE_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        Engine {
            started: Instant::now(),
            registry: Mutex::new(Registry::default()),
            run_lock: Mutex::new(()),
            in_flight: AtomicU64::new(0),
            max_queue,
        }
    }

    /// Requests currently waiting for or holding the run lock — the
    /// server's shutdown path drains this to zero before exiting.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    fn next_request_id(&self) -> u64 {
        REQUEST_SEQ.fetch_add(1, Ordering::Relaxed)
    }

    /// How long this engine has been up — the metrics endpoint and the
    /// `Stats` reply both report it.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Handle one decoded request. Validation failures come back as
    /// [`Reply::Error`]; this method never panics on malformed *values*
    /// (panics from deeper layers are caught by the connection handler).
    pub fn handle(&self, req: &Request) -> Reply {
        perforad_obs::counter("serve.requests_total").inc();
        let t0 = Instant::now();
        let _span = perforad_obs::span!("serve.request", "serve");
        let reply = match req {
            Request::Compile(c) => match self.compile(c) {
                Ok(r) => Reply::Compiled(r),
                Err(msg) => Reply::Error(msg),
            },
            Request::Gradient(g) => match self.gradient(g) {
                Ok(r) => Reply::Gradient(r),
                Err(Refusal::Busy { retry_after_ms }) => Reply::Busy { retry_after_ms },
                Err(Refusal::Error(msg)) => Reply::Error(msg),
            },
            Request::GradientBatch(b) => match self.gradient_batch(b) {
                Ok(r) => Reply::GradientBatch(r),
                Err(Refusal::Busy { retry_after_ms }) => Reply::Busy { retry_after_ms },
                Err(Refusal::Error(msg)) => Reply::Error(msg),
            },
            Request::Stats => Reply::Stats(self.stats()),
            Request::Shutdown => Reply::Ok,
        };
        perforad_obs::histogram("serve.request_ns").record(t0.elapsed().as_nanos() as u64);
        reply
    }

    /// Run `f` under the pool run lock, tracking the wait-plus-run
    /// population in `serve.queue_depth`. No admission check — this is
    /// the `Compile` path (a fingerprint warms up exactly once).
    fn with_pool<T>(&self, f: impl FnOnce() -> T) -> T {
        let depth = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let gauge = perforad_obs::gauge("serve.queue_depth");
        gauge.set(depth);
        let guard = lock_any(&self.run_lock);
        let out = f();
        drop(guard);
        gauge.set(self.in_flight.fetch_sub(1, Ordering::SeqCst) - 1);
        out
    }

    /// Bounded admission for the gradient path. Must be taken *before*
    /// any per-kernel lock, so concurrent requests against the same
    /// fingerprint are all visible to the depth check (contending on the
    /// entry lock first would serialize them and the queue would never
    /// look deeper than one). The returned guard keeps the request
    /// counted in `in_flight` / `serve.queue_depth` until dropped.
    fn admit(&self) -> Result<Admission<'_>, Refusal> {
        let depth = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        if self.max_queue > 0 && depth > self.max_queue {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            perforad_obs::counter("serve.rejected_total").inc();
            // Back-pressure hint scales with how deep the queue is; the
            // client's retry policy jitters around it.
            return Err(Refusal::Busy {
                retry_after_ms: (25 * depth).min(1000),
            });
        }
        perforad_obs::gauge("serve.queue_depth").set(depth);
        Ok(Admission { engine: self })
    }

    /// Admitted gradient work: the run lock, then a last-chance deadline
    /// check before execution starts.
    ///
    /// The deadline is measured from `received` (request decode time). A
    /// running sweep is never interrupted — there is no cancellation —
    /// so the honest contract is "if this request already waited past
    /// its budget, refuse to start it": the client has long since given
    /// up, and running anyway would hold the lock against live requests.
    fn run_deadlined<T>(
        &self,
        received: Instant,
        deadline_ms: Option<u64>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> Result<T, Refusal> {
        let _guard = lock_any(&self.run_lock);
        match deadline_ms {
            Some(ms) if received.elapsed() >= Duration::from_millis(ms) => {
                perforad_obs::counter("serve.deadline_exceeded_total").inc();
                let _ = perforad_obs::flight::dump("deadline", request_id);
                Err(Refusal::Error(format!(
                    "deadline of {ms}ms exceeded after {}ms in queue; nothing was executed",
                    received.elapsed().as_millis()
                )))
            }
            _ => Ok(f()),
        }
    }

    /// Run one warm plan and count a degraded execution (`plan.run` fell
    /// back from its JIT'd kernels to the interpreted rows executor —
    /// same bits, slower) via the `jit.degraded_fallbacks` delta. A
    /// degraded run or a checkpoint spill fallback (`ckpt.spill_fallbacks`
    /// delta) also dumps the flight recorder: the request still answered,
    /// but something in the pipeline gave way mid-flight and the recent
    /// spans say what.
    fn run_plan(
        entry: &mut KernelEntry,
        batch: &ShotBatch,
        request_id: u64,
    ) -> perforad_pde::seismic::BatchResult {
        let degraded_before = perforad_obs::counter("jit.degraded_fallbacks").get();
        let spills_before = perforad_obs::counter("ckpt.spill_fallbacks").get();
        let result = entry.plan.run(batch);
        let degraded = perforad_obs::counter("jit.degraded_fallbacks").get() > degraded_before;
        let spilled = perforad_obs::counter("ckpt.spill_fallbacks").get() > spills_before;
        if degraded {
            perforad_obs::counter("serve.degraded_total").inc();
        }
        if degraded || spilled {
            let _ = perforad_obs::flight::dump("degraded", request_id);
        }
        result
    }

    /// Run one warm plan inside a [`perforad_obs::RequestScope`] so every
    /// span — worker threads included — carries `request_id`, and
    /// optionally build the per-request trace rollup the client asked for
    /// with `trace: true`.
    ///
    /// When the client requests a trace but recording is off (an embedded
    /// engine without the daemon's always-on ring), recording is forced on
    /// for exactly this run and restored after — the rollup drains only
    /// this request's spans, so the global ring is left as found either
    /// way. Must be called under the run lock: the request scope is
    /// process-wide, which is sound precisely because gradient executions
    /// are serialized.
    fn run_traced(
        entry: &mut KernelEntry,
        batch: &ShotBatch,
        request_id: u64,
        trace: bool,
    ) -> (
        perforad_pde::seismic::BatchResult,
        Option<perforad_tune::json::Value>,
    ) {
        use perforad_tune::json::Value;
        let forced = trace && !perforad_obs::enabled();
        if forced {
            perforad_obs::set_enabled(true);
        }
        let result = {
            let _scope = perforad_obs::RequestScope::enter(request_id);
            // Declared after the scope so it drops (and records) first,
            // while the scope is still open — the rollup's root span.
            let _root = perforad_obs::span!("serve.run", "serve", "request_id" => request_id);
            Self::run_plan(entry, batch, request_id)
        };
        let rollup = if trace {
            let events = perforad_obs::take_request_events(request_id);
            let report = perforad_obs::TraceReport::build(&events, 10);
            let mut v = perforad_tune::json::parse(&report.to_json()).unwrap_or(Value::Null);
            if let Value::Obj(ref mut fields) = v {
                fields.insert(0, ("request_id".into(), Value::Num(request_id as f64)));
            }
            Some(v)
        } else {
            None
        };
        if forced {
            perforad_obs::set_enabled(false);
        }
        (result, rollup)
    }

    fn compile(&self, req: &CompileRequest) -> Result<CompiledReply, String> {
        let _span = perforad_obs::span!("serve.compile", "serve");
        match req {
            CompileRequest::Seismic {
                n,
                steps,
                d,
                c,
                budget,
                checkpointed,
            } => self.compile_seismic(*n, *steps, *d, c.as_deref(), *budget, *checkpointed),
            CompileRequest::Stencil {
                stencil,
                sizes,
                params,
                active,
            } => self.compile_stencil(stencil, sizes, params, active),
        }
    }

    fn compile_seismic(
        &self,
        n: usize,
        steps: usize,
        d: f64,
        c: Option<&[f64]>,
        budget: Option<usize>,
        checkpointed: Option<bool>,
    ) -> Result<CompiledReply, String> {
        // A plan is only worth compiling if its answers can be sent: the
        // gradient reply carries n³ values in one frame. Refusing here is a
        // `Reply::Error` now instead of a dropped connection at reply time.
        let framed = n.checked_pow(3).is_some_and(|v| v <= MAX_FRAME_VALUES);
        if n < 4 || !framed {
            let max_n = (MAX_FRAME_VALUES as f64).cbrt() as usize;
            return Err(format!(
                "n must be in 4..={max_n}, got {n}: one frame ({MAX_FRAME} bytes) has to carry \
                 the n³-value gradient at 16 bytes per value"
            ));
        }
        if !(1..=MAX_STEPS).contains(&steps) {
            return Err(format!("steps must be in 1..={MAX_STEPS}, got {steps}"));
        }
        if !d.is_finite() || d <= 0.0 {
            return Err(format!("d must be finite and positive, got {d}"));
        }
        if let Some(c) = c {
            if c.len() != n * n * n {
                return Err(format!(
                    "c has {} values, expected n³ = {}",
                    c.len(),
                    n * n * n
                ));
            }
            if c.iter().any(|v| !v.is_finite()) {
                return Err("c contains non-finite values".to_string());
            }
        }

        // Identity of the *compiled artifact*: shape, step count, d bits,
        // and the checkpointing knobs (they select the plan's sweep).
        // The velocity model is deliberately excluded — same-shape
        // requests share the schedule and swap models in place. Hashed
        // from the request fields alone: the real nest fingerprint needs
        // the adjoint transform, which is exactly what a hit must avoid.
        let mut key = format!("seismic|n={n}|steps={steps}|d={:016x}", d.to_bits());
        key.push_str(&format!(
            "|b={}|ck={:?}",
            budget.map_or(-1i64, |b| b as i64),
            checkpointed
        ));
        let param_key = fnv1a64(key.as_bytes());
        let c_digest = c.map(digest_f64);

        let hit = {
            let reg = lock_any(&self.registry);
            reg.by_params
                .get(&param_key)
                .and_then(|id| reg.kernels.get(id).map(|e| (*id, Arc::clone(e))))
        };
        if let Some((id, entry)) = hit {
            perforad_obs::counter("serve.compile_cache_hits").inc();
            let mut entry = lock_any(&entry);
            if let (Some(c), Some(dig)) = (c, c_digest) {
                if dig != entry.c_digest {
                    let dims = [n, n, n];
                    entry.plan.set_model(&Grid::from_vec(&dims, c.to_vec()));
                    entry.c_digest = dig;
                }
            }
            return Ok(CompiledReply {
                fingerprint: format!("{id:016x}"),
                cached: true,
                nests: entry.plan.nest_count(),
                config: Some(entry.plan.tuned().describe()),
                checkpointed: Some(entry.plan.checkpointed()),
                budget: Some(entry.plan.budget()),
            });
        }

        perforad_obs::counter("serve.compile_cache_misses").inc();
        let cfg = SeismicConfig { n, steps, d };
        let dims = [n, n, n];
        let model = match c {
            Some(c) => Grid::from_vec(&dims, c.to_vec()),
            None => Grid::full(&dims, 1.0),
        };
        let opts = BatchOptions {
            budget,
            checkpointed,
            ..BatchOptions::default()
        };
        // The cold path: adjoint transform + autotune (JIT warm-up
        // included) + primal compile + budget selection, all on the
        // shared pool.
        let plan = self.with_pool(|| BatchPlan::new(&cfg, &model, &opts, default_pool()));
        // The serve fingerprint extends the nest fingerprint (the tuning
        // cache's key, shape-only by design) with the time-loop length
        // and d bits, because the service caches compiled *drivers*, not
        // just schedules.
        let id = fnv1a64(
            format!(
                "{:016x}|steps={steps}|d={:016x}|b={:?}|ck={:?}",
                plan.fingerprint(),
                d.to_bits(),
                budget,
                checkpointed
            )
            .as_bytes(),
        );
        let reply = CompiledReply {
            fingerprint: format!("{id:016x}"),
            cached: false,
            nests: plan.nest_count(),
            config: Some(plan.tuned().describe()),
            checkpointed: Some(plan.checkpointed()),
            budget: Some(plan.budget()),
        };
        let entry = KernelEntry {
            plan,
            cfg,
            c_digest: c_digest.unwrap_or_else(|| digest_f64(model.as_slice())),
            requests: 0,
        };
        let mut reg = lock_any(&self.registry);
        reg.kernels.insert(id, Arc::new(Mutex::new(entry)));
        reg.by_params.insert(param_key, id);
        Ok(reply)
    }

    fn compile_stencil(
        &self,
        stencil: &str,
        sizes: &[(String, i64)],
        params: &[(String, f64)],
        active: &[String],
    ) -> Result<CompiledReply, String> {
        let mut key = format!("dsl|{stencil}|");
        for (k, v) in sizes {
            key.push_str(&format!("{k}={v};"));
        }
        for (k, v) in params {
            key.push_str(&format!("{k}={:016x};", v.to_bits()));
        }
        for a in active {
            key.push_str(&format!("@{a}"));
        }
        let src_key = fnv1a64(key.as_bytes());
        {
            let mut reg = lock_any(&self.registry);
            if let Some(&id) = reg.dsl_by_src.get(&src_key) {
                if let Some(entry) = reg.dsl.get_mut(&id) {
                    perforad_obs::counter("serve.compile_cache_hits").inc();
                    entry.requests += 1;
                    return Ok(CompiledReply {
                        fingerprint: format!("{id:016x}"),
                        cached: true,
                        nests: entry.nests,
                        config: None,
                        checkpointed: None,
                        budget: None,
                    });
                }
            }
        }
        perforad_obs::counter("serve.compile_cache_misses").inc();
        let nest = parse_stencil(stencil).map_err(|e| format!("stencil parse error: {e}"))?;
        let mut activity = ActivityMap::new();
        for a in active {
            activity = activity.with_suffixed(a.as_str());
        }
        let adj = nest
            .adjoint(&activity, &AdjointOptions::default())
            .map_err(|e| format!("adjoint transform failed: {e}"))?;
        let mut bind = Binding::new();
        for (k, v) in sizes {
            bind = bind.size(k.as_str(), *v);
        }
        for (k, v) in params {
            bind = bind.param(k.as_str(), *v);
        }
        let id = fingerprint_nests(&adj.nests, adj.strategy == BoundaryStrategy::Padded, &bind);
        let nests = adj.nests.len();
        let mut reg = lock_any(&self.registry);
        reg.dsl.insert(id, DslEntry { nests, requests: 1 });
        reg.dsl_by_src.insert(src_key, id);
        Ok(CompiledReply {
            fingerprint: format!("{id:016x}"),
            cached: false,
            nests,
            config: None,
            checkpointed: None,
            budget: None,
        })
    }

    /// Look up a warm kernel by hex fingerprint.
    fn kernel(&self, fingerprint: &str) -> Result<Arc<Mutex<KernelEntry>>, String> {
        let id = u64::from_str_radix(fingerprint, 16)
            .map_err(|_| format!("fingerprint {fingerprint:?} is not a hex id"))?;
        let reg = lock_any(&self.registry);
        if let Some(e) = reg.kernels.get(&id) {
            return Ok(Arc::clone(e));
        }
        if reg.dsl.contains_key(&id) {
            return Err(format!(
                "fingerprint {fingerprint} was compiled from raw stencil DSL — it has no \
                 gradient driver; only seismic kernels serve gradients"
            ));
        }
        Err(format!(
            "unknown fingerprint {fingerprint}; Compile it first (the cache is per-process)"
        ))
    }

    fn gradient(&self, req: &GradientRequest) -> Result<GradientReply, Refusal> {
        let received = Instant::now();
        let request_id = self.next_request_id();
        let _span = perforad_obs::span!(
            "serve.gradient", "serve", "shots" => 1u64, "request_id" => request_id
        );
        let _admitted = self.admit()?;
        let entry = self.kernel(&req.fingerprint).map_err(Refusal::Error)?;
        let mut entry = lock_any(&entry);
        let cfg = entry.cfg;
        validate_shot(&cfg, &req.source, &req.observed, 0).map_err(Refusal::Error)?;
        let dims = [cfg.n, cfg.n, cfg.n];
        let mut batch = ShotBatch::new();
        batch.push(
            req.source.clone(),
            Grid::from_vec(&dims, req.observed.clone()),
        );
        let (result, trace) = self.run_deadlined(received, req.deadline_ms, request_id, || {
            Self::run_traced(&mut entry, &batch, request_id, req.trace)
        })?;
        entry.requests += 1;
        record_request_latency(&req.fingerprint, received);
        Ok(GradientReply {
            misfit: result.misfits[0],
            gradient: result.gradients[0].as_slice().to_vec(),
            checkpointed: entry.plan.checkpointed(),
            request_id,
            trace,
        })
    }

    fn gradient_batch(&self, req: &BatchRequest) -> Result<BatchReply, Refusal> {
        let received = Instant::now();
        let request_id = self.next_request_id();
        let _span = perforad_obs::span!(
            "serve.gradient", "serve",
            "shots" => req.shots.len() as u64, "request_id" => request_id
        );
        if req.shots.is_empty() {
            return Err(Refusal::Error(
                "gradient_batch needs at least one shot".to_string(),
            ));
        }
        let _admitted = self.admit()?;
        let entry = self.kernel(&req.fingerprint).map_err(Refusal::Error)?;
        let mut entry = lock_any(&entry);
        let cfg = entry.cfg;
        let dims = [cfg.n, cfg.n, cfg.n];
        let mut batch = ShotBatch::new();
        for (k, (source, observed)) in req.shots.iter().enumerate() {
            validate_shot(&cfg, source, observed, k).map_err(Refusal::Error)?;
            batch.push(source.clone(), Grid::from_vec(&dims, observed.clone()));
        }
        let (result, trace) = self.run_deadlined(received, req.deadline_ms, request_id, || {
            Self::run_traced(&mut entry, &batch, request_id, req.trace)
        })?;
        entry.requests += req.shots.len() as u64;
        record_request_latency(&req.fingerprint, received);
        Ok(BatchReply {
            misfits: result.misfits,
            gradients: result
                .gradients
                .iter()
                .map(|g| g.as_slice().to_vec())
                .collect(),
            strategy: format!("{:?}", result.strategy),
            request_id,
            trace,
        })
    }

    /// The `Stats` payload: uptime, queue depth, cache populations,
    /// per-fingerprint request counts and latency percentiles, fault
    /// tallies, degradation totals, and the full metrics snapshot
    /// (`serve.*`, `tune.*`, `jit.*`, `seismic.*` counters included —
    /// clients diff these across requests to prove the warm path). This
    /// is deliberately a superset of what `perforad-top` renders, so the
    /// dashboard needs no second endpoint.
    fn stats(&self) -> perforad_tune::json::Value {
        use perforad_tune::json::Value;
        let hist_value = |snap: &perforad_obs::HistogramSnapshot| {
            perforad_tune::json::parse(&snap.to_json()).unwrap_or(Value::Null)
        };
        let mut kernels = Vec::new();
        let mut dsl = Vec::new();
        {
            let reg = lock_any(&self.registry);
            for (id, entry) in &reg.kernels {
                let e = lock_any(entry);
                let latency = perforad_obs::histogram_labeled(
                    "serve.request_ns",
                    "fingerprint",
                    &format!("{id:016x}"),
                )
                .snapshot();
                kernels.push(Value::Obj(vec![
                    ("fingerprint".into(), Value::Str(format!("{id:016x}"))),
                    ("requests".into(), Value::Num(e.requests as f64)),
                    ("n".into(), Value::Num(e.cfg.n as f64)),
                    ("steps".into(), Value::Num(e.cfg.steps as f64)),
                    ("checkpointed".into(), Value::Bool(e.plan.checkpointed())),
                    ("budget".into(), Value::Num(e.plan.budget() as f64)),
                    ("config".into(), Value::Str(e.plan.tuned().describe())),
                    ("latency_ns".into(), hist_value(&latency)),
                ]));
            }
            for (id, entry) in &reg.dsl {
                dsl.push(Value::Obj(vec![
                    ("fingerprint".into(), Value::Str(format!("{id:016x}"))),
                    ("nests".into(), Value::Num(entry.nests as f64)),
                    ("requests".into(), Value::Num(entry.requests as f64)),
                ]));
            }
        }
        let metrics =
            perforad_tune::json::parse(&perforad_obs::MetricsSnapshot::collect().to_json())
                .unwrap_or(Value::Null);
        let mut faults = vec![(
            "injected_total".into(),
            Value::Num(perforad_obs::fault::injected_total() as f64),
        )];
        for point in perforad_obs::fault::KNOWN_POINTS {
            let n = perforad_obs::fault::injected(point);
            if n > 0 {
                faults.push((point.to_string(), Value::Num(n as f64)));
            }
        }
        let latency = perforad_obs::histogram("serve.request_ns").snapshot();
        Value::Obj(vec![
            (
                "uptime_ns".into(),
                Value::Num(self.started.elapsed().as_nanos() as f64),
            ),
            (
                "queue_depth".into(),
                Value::Num(self.in_flight.load(Ordering::SeqCst) as f64),
            ),
            (
                "tune_cache_entries".into(),
                Value::Num(cache::memory_len() as f64),
            ),
            (
                "requests_total".into(),
                Value::Num(perforad_obs::counter("serve.requests_total").get() as f64),
            ),
            (
                "degraded_total".into(),
                Value::Num(perforad_obs::counter("serve.degraded_total").get() as f64),
            ),
            (
                "rejected_total".into(),
                Value::Num(perforad_obs::counter("serve.rejected_total").get() as f64),
            ),
            (
                "deadline_exceeded_total".into(),
                Value::Num(perforad_obs::counter("serve.deadline_exceeded_total").get() as f64),
            ),
            ("faults".into(), Value::Obj(faults)),
            ("latency_ns".into(), hist_value(&latency)),
            ("kernels".into(), Value::Arr(kernels)),
            ("dsl_kernels".into(), Value::Arr(dsl)),
            ("metrics".into(), metrics),
        ])
    }
}

/// Canonicalize a client-supplied hex fingerprint into the zero-padded
/// lowercase form used as the metrics label, so `"ab"` and `"00AB"` feed
/// the same per-fingerprint latency series.
fn canonical_fp(fingerprint: &str) -> String {
    u64::from_str_radix(fingerprint, 16)
        .map(|id| format!("{id:016x}"))
        .unwrap_or_else(|_| fingerprint.to_string())
}

/// Record end-to-end gradient latency into the per-fingerprint labeled
/// histogram (`serve.request_ns{fingerprint=...}`) feeding the Stats
/// reply and the Prometheus endpoint.
fn record_request_latency(fingerprint: &str, received: Instant) {
    perforad_obs::histogram_labeled(
        "serve.request_ns",
        "fingerprint",
        &canonical_fp(fingerprint),
    )
    .record(received.elapsed().as_nanos() as u64);
}

fn validate_shot(
    cfg: &SeismicConfig,
    source: &[f64],
    observed: &[f64],
    k: usize,
) -> Result<(), String> {
    let cells = cfg.n * cfg.n * cfg.n;
    if source.len() != cfg.steps {
        return Err(format!(
            "shot {k}: source has {} samples, kernel has {} steps",
            source.len(),
            cfg.steps
        ));
    }
    if observed.len() != cells {
        return Err(format!(
            "shot {k}: observed has {} values, kernel grid is n³ = {cells}",
            observed.len()
        ));
    }
    if source.iter().chain(observed).any(|v| !v.is_finite()) {
        return Err(format!("shot {k}: non-finite values in source/observed"));
    }
    Ok(())
}

fn digest_f64(xs: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for v in xs {
        h.write_u64(v.to_bits());
    }
    h.finish()
}
