//! Gradient-as-a-service: the long-running front for the whole
//! adjoint-stencil pipeline.
//!
//! Everything below this crate is batch machinery: transform an adjoint
//! (`perforad-core`), schedule it (`perforad-sched`), tune it
//! (`perforad-tune`), JIT it (`perforad-jit`), budget its time loop
//! (`perforad-ckpt`), and drive seismic shots through it
//! (`perforad-pde`). What a production deployment needs on top is a
//! process that pays all of that **once per kernel fingerprint** and
//! then answers gradient requests from the warm path. That process is
//! [`serve`]: an accept loop over a Unix-domain socket (localhost TCP
//! fallback) speaking a length-prefixed JSON protocol.
//!
//! ```text
//! client ──frame──►  Server (accept loop, thread per connection)
//!                      │ Request::Compile      ── cold: BatchPlan::new
//!                      ▼                          (adjoint+tune+JIT+ckpt)
//!                    Engine ── fingerprint ───► warm: cache hit, zero work
//!                      │ Request::Gradient[Batch]
//!                      ▼
//!                    entry lock ──► exec::default_pool() ──► shots
//! ```
//!
//! Request types: `Compile` (seismic driver or raw stencil DSL →
//! fingerprint), `Gradient` / `GradientBatch` (shot data against a
//! cached fingerprint), `Stats` (cache hit rates, queue depth,
//! per-fingerprint request counts, full obs metrics snapshot),
//! `Shutdown`. The serving guarantee, pinned by `tests/serve.rs`: a
//! served gradient is **bitwise-identical** to the in-process
//! [`perforad_pde::seismic::BatchPlan::run`] call, and a second `Compile` of
//! the same fingerprint performs zero adjoint transforms, zero tuner
//! timings, and zero out-of-process rustc invocations.
//!
//! Production hardening (pinned by `tests/fault.rs`): gradient admission
//! is bounded ([`ServeOptions::max_queue`], `PERFORAD_SERVE_MAX_QUEUE`
//! at the daemon → [`Reply::Busy`] with a
//! `retry_after_ms` hint), requests carry optional queue-side deadlines
//! (`deadline_ms`), sockets get read/write timeouts
//! (`PERFORAD_SERVE_TIMEOUT_MS`), open connections are capped
//! (`PERFORAD_SERVE_MAX_CONNS`), `Shutdown` drains in-flight work, and
//! the typed client retries Busy/transport failures with bounded
//! jittered exponential backoff ([`RetryPolicy`]). Fault injection for
//! all of it lives in `perforad_obs::fault` (`PERFORAD_FAULT`).
//!
//! The live telemetry plane (pinned by `tests/telemetry.rs`): every
//! gradient reply carries a `request_id`, and a request sent with
//! `trace: true` comes back with a per-request span rollup — without
//! changing a bit of the gradient. `--metrics`/`PERFORAD_SERVE_METRICS`
//! binds a localhost HTTP endpoint serving Prometheus text at
//! `/metrics` (per-fingerprint latency quantiles included) and a JSON
//! `/healthz`; `perforad-top` renders the same numbers as a live
//! terminal dashboard over the `Stats` request. When something gives
//! way mid-flight — panic, injected-fault degradation, deadline breach
//! — the flight recorder dumps the recent span ring to
//! `PERFORAD_FLIGHT_DIR` with the failing request's id.
//!
//! In-process embedding (no daemon) is two lines:
//!
//! ```no_run
//! let server = perforad_serve::Server::bind(&perforad_serve::ServeOptions::default()).unwrap();
//! let endpoint = server.endpoint();
//! std::thread::spawn(move || server.run());
//! let mut client = perforad_serve::Client::connect(&endpoint).unwrap();
//! ```

pub mod client;
pub mod engine;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{stats_counter, Client, ClientError, RetryPolicy};
pub use engine::Engine;
pub use metrics::{scrape, MetricsServer, METRICS_ENV};
pub use proto::{
    BatchReply, BatchRequest, CompileRequest, CompiledReply, GradientReply, GradientRequest, Reply,
    Request,
};
pub use server::{connect, serve, Conn, Endpoint, ServeOptions, Server};
