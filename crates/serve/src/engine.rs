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
//! Every gradient and every cold compile runs on the shared
//! [`default_pool`], which runs their parallel regions one at a time, so
//! requests on different fingerprints interleave region by region.
//! Requests on one fingerprint queue on its kernel entry's lock. The
//! admitted population — waiting or running — is exported as the
//! `serve.queue_depth` gauge. Gradient admission is bounded by
//! [`ServeOptions::max_queue`](crate::ServeOptions::max_queue) (unset/0 =
//! unlimited; `PERFORAD_SERVE_MAX_QUEUE` at the daemon): a request that
//! would push the population past the cap is turned away with a
//! [`Reply::Busy`] carrying a `retry_after_ms` hint instead of piling
//! onto the queue, and a request that is still queued when its
//! client-supplied `deadline_ms` runs out earns an error reply without
//! executing. `Stats` and cache-hit `Compile`s are not counted, and cold
//! `Compile`s are deliberately exempt from the cap — a fingerprint warms
//! up exactly once and every later shot depends on it.

use crate::proto::{
    BatchReply, BatchRequest, CompileRequest, CompiledReply, GradientReply, GradientRequest, Reply,
    Request, MAX_FRAME, MAX_FRAME_VALUES,
};
use perforad_codegen::parse_stencil;
use perforad_core::{ActivityMap, AdjointOptions, BoundaryStrategy};
use perforad_exec::native::Fnv;
use perforad_exec::{default_pool, fnv1a64, Binding, Grid};
use perforad_obs::json::Value;
use perforad_pde::seismic::{BatchOptions, BatchPlan, BatchResult, SeismicConfig, ShotBatch};
use perforad_tune::{cache, fingerprint_nests};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Largest accepted step count per shot.
const MAX_STEPS: usize = 1 << 20;

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
    /// Queue depth counting this request, as of its arrival.
    depth: u64,
}

impl<'a> Admission<'a> {
    /// Count one more request in `in_flight` and the gauge; the guard
    /// uncounts it on drop.
    fn enter(engine: &'a Engine) -> Self {
        let depth = engine.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        perforad_obs::gauge("serve.queue_depth").set(depth);
        Admission { engine, depth }
    }
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

/// The shared state behind every connection: compile caches and request
/// accounting for `Stats`.
pub struct Engine {
    started: Instant,
    registry: Mutex<Registry>,
    /// Admitted requests, queued or running.
    in_flight: AtomicU64,
    /// Admission cap on `in_flight` for gradient requests (0 = unlimited).
    max_queue: u64,
}

/// Next gradient request id (sequential, starting at 1; 0 means "no
/// request" throughout the telemetry plane). Returned in replies,
/// stamped on spans via [`perforad_obs::RequestScope`], and quoted in
/// flight-recorder dumps. Process-global, not per-engine: the span rings
/// are process-wide and a rollup drains them by id, so ids must stay
/// unique across every engine in the process (tests and embedders run
/// several) or a per-request drain could sweep up a different engine's
/// spans.
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
    /// An engine with unlimited gradient admission. Building an engine
    /// switches recording on for the process, so `Stats`, the metrics
    /// endpoint and traced rollups have data whatever `PERFORAD_TRACE`
    /// says.
    pub fn new() -> Engine {
        Engine::with_max_queue(0)
    }

    /// An engine that answers a gradient `Busy` past `max_queue` waiting
    /// or running ones (0 = unlimited): [`crate::ServeOptions::max_queue`].
    pub(crate) fn with_max_queue(max_queue: u64) -> Engine {
        perforad_obs::set_enabled(true);
        Engine {
            started: Instant::now(),
            registry: Mutex::new(Registry::default()),
            in_flight: AtomicU64::new(0),
            max_queue,
        }
    }

    /// Admitted requests, queued or running — the server's shutdown path
    /// drains this to zero before exiting.
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

    /// Bounded admission for the gradient path. Must be taken *before*
    /// any per-kernel lock, so concurrent requests against the same
    /// fingerprint are all visible to the depth check (contending on the
    /// entry lock first would serialize them and the queue would never
    /// look deeper than one). The returned guard keeps the request
    /// counted in `in_flight` / `serve.queue_depth` until dropped.
    fn admit(&self) -> Result<Admission<'_>, Refusal> {
        let slot = Admission::enter(self);
        if self.max_queue > 0 && slot.depth > self.max_queue {
            perforad_obs::counter("serve.rejected_total").inc();
            // Back-pressure hint scales with how deep the queue is; the
            // client's retry policy jitters around it. Dropping `slot`
            // gives the place back.
            return Err(Refusal::Busy {
                retry_after_ms: (25 * slot.depth).min(1000),
            });
        }
        Ok(slot)
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
        // shared pool. Counted in the queue, never refused.
        let plan = {
            let _slot = Admission::enter(self);
            BatchPlan::new(&cfg, &model, &opts, default_pool())
        };
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

    /// The gradient path of both request kinds: admission, the kernel
    /// entry (requests on one fingerprint queue on its lock), shot
    /// validation, a last-chance deadline check, then one run. Returns
    /// the result, the rollup asked for with `trace`, the request id and
    /// whether the plan is checkpointed.
    ///
    /// The deadline is measured from request decode time and checked once
    /// the request holds its entry, where it actually starts. A running
    /// sweep is never interrupted — there is no cancellation — so the
    /// honest contract is "if this request already waited past its
    /// budget, refuse to start it": the client has long since given up,
    /// and running anyway would hold the entry against live requests.
    ///
    /// The run sits inside a [`perforad_obs::RequestScope`], so every span
    /// — the pool's workers' included — carries the request id, and the
    /// rollup drains only this request's spans. A degraded run (`plan.run`
    /// fell back from its JIT'd kernels to the rows executor — same bits,
    /// slower) counts in `serve.degraded_total`; it, or a checkpoint spill
    /// fallback, also dumps the flight recorder: the request still
    /// answered, but something in the pipeline gave way mid-flight and the
    /// recent spans say what.
    fn serve_shots(
        &self,
        fingerprint: &str,
        shots: &[(&[f64], &[f64])],
        deadline_ms: Option<u64>,
        trace: bool,
    ) -> Result<(BatchResult, Option<Value>, u64, bool), Refusal> {
        let received = Instant::now();
        let request_id = self.next_request_id();
        let _span = perforad_obs::span!(
            "serve.gradient", "serve",
            "shots" => shots.len() as u64, "request_id" => request_id
        );
        if shots.is_empty() {
            return Err(Refusal::Error(
                "gradient_batch needs at least one shot".to_string(),
            ));
        }
        let _admitted = self.admit()?;
        let entry = self.kernel(fingerprint).map_err(Refusal::Error)?;
        let mut entry = lock_any(&entry);
        let cfg = entry.cfg;
        let dims = [cfg.n, cfg.n, cfg.n];
        let mut batch = ShotBatch::new();
        for (k, &(source, observed)) in shots.iter().enumerate() {
            validate_shot(&cfg, source, observed, k).map_err(Refusal::Error)?;
            batch.push(source.to_vec(), Grid::from_vec(&dims, observed.to_vec()));
        }
        if let Some(ms) = deadline_ms.filter(|&ms| received.elapsed() >= Duration::from_millis(ms))
        {
            perforad_obs::counter("serve.deadline_exceeded_total").inc();
            let _ = perforad_obs::flight::dump("deadline", request_id);
            return Err(Refusal::Error(format!(
                "deadline of {ms}ms exceeded after {}ms in queue; nothing was executed",
                received.elapsed().as_millis()
            )));
        }
        let result = {
            let _scope = perforad_obs::RequestScope::enter(request_id);
            // Declared after the scope so it drops (and records) first,
            // while the scope is still open — the rollup's root span.
            let _root = perforad_obs::span!("serve.run", "serve", "request_id" => request_id);
            entry.plan.run(&batch)
        };
        if result.degraded {
            perforad_obs::counter("serve.degraded_total").inc();
        }
        if result.degraded || result.spill_fallback {
            let _ = perforad_obs::flight::dump("degraded", request_id);
        }
        let rollup = trace.then(|| {
            let events = perforad_obs::take_request_events(request_id);
            let mut v = perforad_obs::TraceReport::build(&events, 10).to_value();
            if let Value::Obj(fields) = &mut v {
                fields.insert(0, ("request_id".into(), request_id.into()));
            }
            v
        });
        entry.requests += shots.len() as u64;
        record_request_latency(fingerprint, received);
        Ok((result, rollup, request_id, entry.plan.checkpointed()))
    }

    fn gradient(&self, req: &GradientRequest) -> Result<GradientReply, Refusal> {
        let shot = [(&req.source[..], &req.observed[..])];
        let (result, trace, request_id, checkpointed) =
            self.serve_shots(&req.fingerprint, &shot, req.deadline_ms, req.trace)?;
        Ok(GradientReply {
            misfit: result.misfits[0],
            gradient: result.gradients[0].as_slice().to_vec(),
            checkpointed,
            request_id,
            trace,
        })
    }

    fn gradient_batch(&self, req: &BatchRequest) -> Result<BatchReply, Refusal> {
        let shots: Vec<_> = req.shots.iter().map(|(s, o)| (&s[..], &o[..])).collect();
        let (result, trace, request_id, _) =
            self.serve_shots(&req.fingerprint, &shots, req.deadline_ms, req.trace)?;
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
    fn stats(&self) -> Value {
        use perforad_obs::fault::{injected, injected_total, KNOWN_POINTS};
        // Entries are locked after the registry is released: a running
        // gradient holds its entry for a whole sweep, and every lookup and
        // `Compile` needs the registry meanwhile.
        let (entries, dsl): (Vec<_>, Vec<_>) = {
            let reg = lock_any(&self.registry);
            let entries = reg.kernels.iter().map(|(id, e)| (*id, Arc::clone(e)));
            let dsl = reg.dsl.iter().map(|(id, entry)| {
                Value::obj([
                    ("fingerprint", format!("{id:016x}").into()),
                    ("nests", entry.nests.into()),
                    ("requests", entry.requests.into()),
                ])
            });
            (entries.collect(), dsl.collect())
        };
        let kernels = entries
            .iter()
            .map(|(id, entry)| {
                let e = lock_any(entry);
                let fp = format!("{id:016x}");
                let latency =
                    perforad_obs::histogram_labeled("serve.request_ns", "fingerprint", &fp);
                Value::obj([
                    ("fingerprint", fp.into()),
                    ("requests", e.requests.into()),
                    ("n", e.cfg.n.into()),
                    ("steps", e.cfg.steps.into()),
                    ("checkpointed", e.plan.checkpointed().into()),
                    ("budget", e.plan.budget().into()),
                    ("config", e.plan.tuned().describe().into()),
                    ("latency_ns", latency.snapshot().to_value()),
                ])
            })
            .collect();
        let tallies = KNOWN_POINTS.iter().map(|&p| (p, injected(p)));
        let faults = [("injected_total", injected_total())]
            .into_iter()
            .chain(tallies.filter(|&(_, n)| n > 0));
        let latency = perforad_obs::histogram("serve.request_ns").snapshot();
        let metrics = perforad_obs::MetricsSnapshot::collect();
        Value::obj([
            ("uptime_ns", (self.uptime().as_nanos() as f64).into()),
            ("queue_depth", self.in_flight().into()),
            ("tune_cache_entries", cache::memory_len().into()),
            serve_total("serve.requests_total"),
            serve_total("serve.degraded_total"),
            serve_total("serve.rejected_total"),
            serve_total("serve.deadline_exceeded_total"),
            ("faults", Value::obj(faults.map(|(k, n)| (k, n.into())))),
            ("latency_ns", latency.to_value()),
            ("kernels", Value::Arr(kernels)),
            ("dsl_kernels", Value::Arr(dsl)),
            ("metrics", metrics.to_value()),
        ])
    }
}

/// A `serve.*` counter as `Stats` and `/healthz` name it, less `serve.`.
pub(crate) fn serve_total(counter: &'static str) -> (&'static str, Value) {
    let key = counter.strip_prefix("serve.").expect("a serve.* counter");
    (key, perforad_obs::counter(counter).get().into())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::CompileRequest;
    use std::sync::mpsc;

    /// A `Stats` poll that meets a busy kernel entry waits for that entry
    /// alone: lookups of other kernels, and so `Compile`s and gradients on
    /// them, go on meanwhile.
    #[test]
    fn stats_waits_on_a_busy_entry_without_holding_the_registry() {
        let engine = Engine::new();
        let compile = Request::Compile(CompileRequest::Seismic {
            n: 4,
            steps: 2,
            d: 0.1,
            c: None,
            budget: None,
            checkpointed: Some(false),
        });
        let Reply::Compiled(a) = engine.handle(&compile) else {
            panic!("compile failed");
        };
        let entry = engine.kernel(&a.fingerprint).expect("kernel A");
        std::thread::scope(|s| {
            // As a gradient on A does for its whole sweep.
            let busy = lock_any(&entry);
            let stats = s.spawn(|| engine.stats());
            // `stats` holds a handle on A once it has read the registry;
            // a registry that is never let go shows as the timeout below.
            let t0 = Instant::now();
            while Arc::strong_count(&entry) < 3 && t0.elapsed() < Duration::from_secs(1) {
                std::thread::yield_now();
            }
            let (tx, rx) = mpsc::channel();
            let engine = &engine;
            s.spawn(move || tx.send(engine.kernel("b").is_err()));
            let looked_up = rx.recv_timeout(Duration::from_secs(10));
            drop(busy);
            assert_eq!(looked_up, Ok(true), "kernel B's lookup waited on A's entry");
            assert!(
                matches!(stats.join().unwrap().get("kernels"), Some(Value::Arr(k)) if k.len() == 1)
            );
        });
    }
}
