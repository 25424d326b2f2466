//! A blocking client for the serve protocol: one connection, typed
//! request/reply helpers, server-side errors surfaced as
//! [`ClientError::Server`], and an opt-in [`RetryPolicy`] that absorbs
//! admission-control [`ClientError::Busy`] pushback and transport drops
//! with bounded exponential backoff plus deterministic jitter.

use crate::proto::{
    self, BatchReply, BatchRequest, CompileRequest, CompiledReply, GradientReply, GradientRequest,
    Reply, Request,
};
use crate::server::{connect, Conn, Endpoint};
use perforad_obs::json::Value;
use std::fmt;
use std::io;

/// What can go wrong on a round trip.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, framing).
    Io(io::Error),
    /// The peer sent a frame this client cannot decode.
    Protocol(String),
    /// The server answered with an `Error` reply.
    Server(String),
    /// Admission control turned the request away; retry after the hint.
    Busy { retry_after_ms: u64 },
    /// The server answered with a well-formed reply of the wrong type.
    UnexpectedReply(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms}ms")
            }
            ClientError::UnexpectedReply(m) => write!(f, "unexpected reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Bounded exponential backoff with deterministic jitter, for retrying
/// [`ClientError::Busy`] pushback and transport drops. The jitter PRNG
/// is the obs crate's xorshift seeded per `(seed, attempt)`, so a given
/// policy replays the exact same delay sequence — chaos tests stay
/// reproducible.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total tries including the first (so `1` disables retrying).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) starts from `base_ms << (k-1)`.
    pub base_ms: u64,
    /// Ceiling on any single backoff sleep.
    pub max_ms: u64,
    /// Jitter seed; vary per client to avoid synchronized retry storms.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_ms: 10,
            max_ms: 500,
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// The sleep before 1-based retry `attempt`, given the server's
    /// `retry_after_ms` hint (0 when there was none): exponential base,
    /// jittered into `[half, full]`, never below the hint.
    pub fn backoff_ms(&self, attempt: u32, hint_ms: u64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.max_ms)
            .max(1);
        let mut state = self.seed ^ ((attempt as u64) << 32);
        let jittered = exp / 2 + perforad_obs::fault::xorshift64(&mut state) % (exp / 2 + 1);
        jittered.max(hint_ms)
    }
}

/// One blocking connection to a perforad-serve daemon.
pub struct Client {
    conn: Conn,
    endpoint: Endpoint,
    /// Every request frame is written in `out`, every reply read into `buf`.
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            conn: connect(endpoint)?,
            endpoint: endpoint.clone(),
            out: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Send one request and decode the reply. [`Reply::Error`] comes back
    /// as `Ok(Reply::Error(..))` here; the typed helpers below convert it
    /// to [`ClientError::Server`].
    pub fn roundtrip(&mut self, req: &Request) -> Result<Reply, ClientError> {
        req.frame_into(&mut self.out)?;
        proto::send_frame(&mut self.conn, &self.out)?;
        let payload = proto::read_payload(&mut self.conn, &mut self.buf)?;
        let reply = Reply::from_json(payload).map_err(ClientError::Protocol);
        proto::release_if_long(&mut self.out);
        proto::release_if_long(&mut self.buf);
        reply
    }

    /// [`Client::roundtrip`], retried per `policy`. Retryable outcomes:
    /// a [`Reply::Busy`] pushback (sleep at least its hint) and any
    /// transport error (reconnect first — the server drops connections
    /// on frame corruption, so a fresh socket is the recovery path).
    /// Server `Error` replies are NOT retried: they are deterministic
    /// verdicts about the request, not about server load.
    pub fn roundtrip_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> Result<Reply, ClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let hint_ms = match self.roundtrip(req) {
                Ok(Reply::Busy { retry_after_ms }) => retry_after_ms,
                Ok(other) => return Ok(other),
                Err(ClientError::Io(e)) => {
                    if attempt >= policy.max_attempts {
                        return Err(ClientError::Io(e));
                    }
                    0
                }
                Err(e) => return Err(e),
            };
            if attempt >= policy.max_attempts {
                return Err(ClientError::Busy {
                    retry_after_ms: hint_ms,
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(
                policy.backoff_ms(attempt, hint_ms),
            ));
            // Reconnect unconditionally: cheap, and it also clears a
            // connection the server half-closed after a Busy-at-accept.
            if let Ok(conn) = connect(&self.endpoint) {
                self.conn = conn;
            }
        }
    }

    fn expect<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Reply) -> Result<T, Reply>,
    ) -> Result<T, ClientError> {
        let reply = self.roundtrip(req)?;
        pick_reply(reply, pick)
    }

    /// Warm up (or hit the cache for) a kernel; returns its fingerprint.
    pub fn compile(&mut self, req: CompileRequest) -> Result<CompiledReply, ClientError> {
        self.expect(&Request::Compile(req), |r| match r {
            Reply::Compiled(c) => Ok(c),
            other => Err(other),
        })
    }

    /// One shot against a compiled fingerprint.
    pub fn gradient(
        &mut self,
        fingerprint: &str,
        source: Vec<f64>,
        observed: Vec<f64>,
    ) -> Result<GradientReply, ClientError> {
        let req = Request::Gradient(GradientRequest {
            fingerprint: fingerprint.to_string(),
            source,
            observed,
            deadline_ms: None,
            trace: false,
        });
        self.expect(&req, |r| match r {
            Reply::Gradient(g) => Ok(g),
            other => Err(other),
        })
    }

    /// [`Client::gradient`] with `trace: true`: the reply's `trace`
    /// field carries the per-request span rollup (phase self times, the
    /// top spans, the request id) for exactly this request — the
    /// gradient bits are identical to an untraced call.
    pub fn gradient_traced(
        &mut self,
        fingerprint: &str,
        source: Vec<f64>,
        observed: Vec<f64>,
    ) -> Result<GradientReply, ClientError> {
        let req = Request::Gradient(GradientRequest {
            fingerprint: fingerprint.to_string(),
            source,
            observed,
            deadline_ms: None,
            trace: true,
        });
        self.expect(&req, |r| match r {
            Reply::Gradient(g) => Ok(g),
            other => Err(other),
        })
    }

    /// [`Client::gradient`] with Busy/transport retry per `policy`.
    pub fn gradient_with_retry(
        &mut self,
        fingerprint: &str,
        source: Vec<f64>,
        observed: Vec<f64>,
        policy: &RetryPolicy,
    ) -> Result<GradientReply, ClientError> {
        let req = Request::Gradient(GradientRequest {
            fingerprint: fingerprint.to_string(),
            source,
            observed,
            deadline_ms: None,
            trace: false,
        });
        let reply = self.roundtrip_with_retry(&req, policy)?;
        pick_reply(reply, |r| match r {
            Reply::Gradient(g) => Ok(g),
            other => Err(other),
        })
    }

    /// A whole survey against a compiled fingerprint; `shots` is
    /// `(source, observed)` per shot.
    pub fn gradient_batch(
        &mut self,
        fingerprint: &str,
        shots: Vec<(Vec<f64>, Vec<f64>)>,
    ) -> Result<BatchReply, ClientError> {
        let req = Request::GradientBatch(BatchRequest {
            fingerprint: fingerprint.to_string(),
            shots,
            deadline_ms: None,
            trace: false,
        });
        self.expect(&req, |r| match r {
            Reply::GradientBatch(b) => Ok(b),
            other => Err(other),
        })
    }

    /// [`Client::gradient_batch`] with Busy/transport retry per `policy`.
    pub fn gradient_batch_with_retry(
        &mut self,
        fingerprint: &str,
        shots: Vec<(Vec<f64>, Vec<f64>)>,
        policy: &RetryPolicy,
    ) -> Result<BatchReply, ClientError> {
        let req = Request::GradientBatch(BatchRequest {
            fingerprint: fingerprint.to_string(),
            shots,
            deadline_ms: None,
            trace: false,
        });
        let reply = self.roundtrip_with_retry(&req, policy)?;
        pick_reply(reply, |r| match r {
            Reply::GradientBatch(b) => Ok(b),
            other => Err(other),
        })
    }

    /// The server's stats object (uptime, queue depth, cache sizes,
    /// per-kernel request counts, full metrics snapshot).
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.expect(&Request::Stats, |r| match r {
            Reply::Stats(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Ask the daemon to exit its accept loop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, |r| match r {
            Reply::Ok => Ok(()),
            other => Err(other),
        })
    }
}

/// Shared reply triage for the typed helpers: `Error` → `Server`,
/// `Busy` → `Busy`, anything else through `pick`.
fn pick_reply<T>(
    reply: Reply,
    pick: impl FnOnce(Reply) -> Result<T, Reply>,
) -> Result<T, ClientError> {
    match reply {
        Reply::Error(msg) => Err(ClientError::Server(msg)),
        Reply::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
        other => {
            pick(other).map_err(|r| ClientError::UnexpectedReply(format!("{:.120?}", r.to_json())))
        }
    }
}

/// Read a counter out of a stats object (0 when absent — counters only
/// exist once touched).
pub fn stats_counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_uint)
        .unwrap_or(0)
}
