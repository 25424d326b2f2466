//! The accept loop: a Unix-domain socket (TCP on localhost as the
//! fallback), one handler thread per connection, the shared [`Engine`]
//! behind all of them.
//!
//! A connection is a sequence of request frames, each answered with one
//! reply frame. Protocol-level garbage (unparseable JSON, unknown
//! `"type"`) earns a [`Reply::Error`] and the connection stays up; a
//! broken *frame* (truncation, oversized prefix, non-UTF-8) drops that
//! connection only — the daemon keeps serving everyone else. Panics out
//! of the engine are caught per-request and surfaced as `Error` replies.

use crate::engine::Engine;
use crate::proto::{self, Reply, Request};
use perforad_obs::fault;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Where a server listens (and a client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// Parse the `PERFORAD_SERVE_ENDPOINT` notation: `host:port` is TCP,
    /// anything else (optionally prefixed `unix:`/`tcp:`) is a socket
    /// path.
    pub fn parse(s: &str) -> Endpoint {
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Endpoint::Tcp(addr.to_string());
        }
        if let Some(path) = s.strip_prefix("unix:") {
            return Endpoint::Unix(PathBuf::from(path));
        }
        if s.parse::<std::net::SocketAddr>().is_ok() {
            return Endpoint::Tcp(s.to_string());
        }
        Endpoint::Unix(PathBuf::from(s))
    }
}

/// How to bind. [`ServeOptions::from_env`] reads the `PERFORAD_SERVE_*`
/// knobs; the plain default derives a per-process socket path under the
/// system temp dir.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Unix socket path; `None` derives `perforad-serve-<pid>.sock` in
    /// the temp dir.
    pub socket: Option<PathBuf>,
    /// Force TCP at this address instead of a Unix socket (`127.0.0.1:0`
    /// picks an ephemeral port). TCP is also the automatic fallback when
    /// the Unix bind fails.
    pub tcp: Option<String>,
    /// Per-socket read/write timeout. A peer that stops mid-frame (or
    /// never drains its replies) errors out after this long instead of
    /// pinning a handler thread forever. `None` = no timeout.
    pub timeout_ms: Option<u64>,
    /// Cap on simultaneously open connections; an accept past the cap is
    /// answered with one `Busy` frame and closed. `None`/`0` = unlimited.
    pub max_conns: Option<u64>,
    /// Bind a metrics export endpoint (`/metrics` Prometheus text,
    /// `/healthz` JSON) at this TCP address — `127.0.0.1:0` picks an
    /// ephemeral port. `None` = no endpoint.
    pub metrics: Option<String>,
    /// Cap on gradient requests queued or running (`serve.queue_depth`);
    /// one past it is answered `Busy`. `None`/`0` = unlimited.
    pub max_queue: Option<u64>,
}

impl ServeOptions {
    /// `PERFORAD_SERVE_SOCKET` (path), `PERFORAD_SERVE_TCP` (address;
    /// takes precedence when both are set), `PERFORAD_SERVE_TIMEOUT_MS`
    /// (per-socket read/write timeout), `PERFORAD_SERVE_MAX_CONNS`
    /// (open-connection cap), `PERFORAD_SERVE_METRICS` (metrics endpoint
    /// bind address), and `PERFORAD_SERVE_MAX_QUEUE` (gradient queue cap).
    pub fn from_env() -> ServeOptions {
        ServeOptions {
            socket: std::env::var_os("PERFORAD_SERVE_SOCKET").map(PathBuf::from),
            tcp: std::env::var("PERFORAD_SERVE_TCP").ok(),
            timeout_ms: env_u64("PERFORAD_SERVE_TIMEOUT_MS"),
            max_conns: env_u64("PERFORAD_SERVE_MAX_CONNS"),
            metrics: std::env::var(crate::metrics::METRICS_ENV)
                .ok()
                .filter(|v| !v.is_empty()),
            max_queue: env_u64("PERFORAD_SERVE_MAX_QUEUE"),
        }
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

fn default_socket_path() -> PathBuf {
    std::env::temp_dir().join(format!("perforad-serve-{}.sock", std::process::id()))
}

/// One live connection, Unix or TCP.
pub enum Conn {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

impl Conn {
    /// A TCP connection with `TCP_NODELAY` set (best effort: it is a latency
    /// setting). A frame is one write and the next thing either side does
    /// is read — nothing for Nagle to coalesce, only a frame to hold back.
    fn tcp(s: TcpStream) -> Conn {
        let _ = s.set_nodelay(true);
        Conn::Tcp(s)
    }

    /// Arm read and write timeouts (`None` clears them). A zero duration
    /// is invalid to the OS, so it is treated as "no timeout".
    pub fn set_timeouts(&self, timeout: Option<Duration>) -> io::Result<()> {
        let timeout = timeout.filter(|t| !t.is_zero());
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Conn::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }
}

/// Connect to a serving endpoint.
pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
    match endpoint {
        #[cfg(unix)]
        Endpoint::Unix(p) => UnixStream::connect(p).map(Conn::Unix),
        #[cfg(not(unix))]
        Endpoint::Unix(p) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("no Unix sockets on this platform: {}", p.display()),
        )),
        Endpoint::Tcp(a) => TcpStream::connect(a.as_str()).map(Conn::tcp),
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::tcp(s)),
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] consumes it and
/// blocks until a `Shutdown` request arrives.
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    unlink: Option<PathBuf>,
    timeout: Option<Duration>,
    max_conns: u64,
    conns: Arc<AtomicU64>,
    metrics: Option<crate::metrics::MetricsServer>,
}

impl Server {
    /// Bind per `opts`: explicit TCP if requested, else the Unix socket
    /// path, else localhost TCP as the fallback. The engine it builds
    /// switches recording on, so `Stats` counters are live.
    pub fn bind(opts: &ServeOptions) -> io::Result<Server> {
        let engine = Arc::new(Engine::with_max_queue(opts.max_queue.unwrap_or(0)));
        let metrics = match &opts.metrics {
            Some(addr) => Some(crate::metrics::MetricsServer::spawn(
                addr,
                Arc::clone(&engine),
            )?),
            None => None,
        };
        let tcp = |addr: &str| -> io::Result<(Listener, Endpoint, Option<PathBuf>)> {
            let l = TcpListener::bind(addr)?;
            let endpoint = Endpoint::Tcp(l.local_addr()?.to_string());
            Ok((Listener::Tcp(l), endpoint, None))
        };
        let (listener, endpoint, unlink) = match &opts.tcp {
            Some(addr) => tcp(addr)?,
            None => {
                let path = opts.socket.clone().unwrap_or_else(default_socket_path);
                match bind_unix(&path) {
                    Ok(l) => (l, Endpoint::Unix(path.clone()), Some(path)),
                    Err(e) => {
                        // Localhost TCP fallback: platforms or mount setups
                        // where the Unix bind is unavailable still get a
                        // daemon.
                        eprintln!(
                            "perforad-serve: unix bind at {} failed ({e}); falling back to localhost TCP",
                            path.display()
                        );
                        tcp("127.0.0.1:0")?
                    }
                }
            }
        };
        Ok(Server {
            listener,
            endpoint,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
            unlink,
            timeout: opts.timeout_ms.map(Duration::from_millis),
            max_conns: opts.max_conns.unwrap_or(0),
            conns: Arc::new(AtomicU64::new(0)),
            metrics,
        })
    }

    /// Where this server is actually listening (ephemeral TCP ports are
    /// resolved).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// The shared engine — in-process embedders can drive it directly.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// The metrics endpoint's resolved bind address, if one was
    /// requested (ephemeral ports resolved).
    pub fn metrics_addr(&self) -> Option<&str> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// Accept connections until a `Shutdown` request flips the stop flag,
    /// then drain: requests the engine already admitted finish (and their
    /// replies flush) before this returns.
    /// Connections past the `max_conns` cap are answered with one `Busy`
    /// frame and closed — the accept loop itself is never blocked.
    pub fn run(self) -> io::Result<()> {
        loop {
            let conn = self.listener.accept();
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            match conn {
                Ok(conn) => {
                    let _ = conn.set_timeouts(self.timeout);
                    let open = self.conns.fetch_add(1, Ordering::SeqCst) + 1;
                    if self.max_conns > 0 && open > self.max_conns {
                        self.conns.fetch_sub(1, Ordering::SeqCst);
                        perforad_obs::counter("serve.rejected_total").inc();
                        let mut conn = conn;
                        let busy = Reply::Busy { retry_after_ms: 50 };
                        let _ = proto::write_frame(&mut conn, &busy.to_json());
                        continue;
                    }
                    let engine = Arc::clone(&self.engine);
                    let stop = Arc::clone(&self.stop);
                    let endpoint = self.endpoint.clone();
                    let conns = Arc::clone(&self.conns);
                    std::thread::spawn(move || {
                        handle_conn(engine, stop, endpoint, conn);
                        conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) => {
                    if self.stop.load(Ordering::Acquire) {
                        break;
                    }
                    eprintln!("perforad-serve: accept failed: {e}");
                }
            }
        }
        // Graceful drain: wait (bounded) for in-flight work to clear the
        // engine before tearing the socket down. New connections are no
        // longer accepted; handlers that finish their current request
        // and loop back onto an idle read just see EOF when their
        // clients hang up.
        let drain_deadline = std::time::Instant::now() + Duration::from_secs(30);
        while self.engine.in_flight() > 0 && std::time::Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(p) = &self.unlink {
            let _ = std::fs::remove_file(p);
        }
        Ok(())
    }
}

fn bind_unix(path: &PathBuf) -> io::Result<Listener> {
    #[cfg(unix)]
    {
        // A stale socket file from a dead daemon is reclaimable: if
        // nothing answers a connect, unlink and rebind.
        if path.exists() && UnixStream::connect(path).is_err() {
            let _ = std::fs::remove_file(path);
        }
        UnixListener::bind(path).map(Listener::Unix)
    }
    #[cfg(not(unix))]
    {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("no Unix sockets on this platform: {}", path.display()),
        ))
    }
}

/// Bind and run in one call — the daemon entry point.
pub fn serve(opts: &ServeOptions) -> io::Result<()> {
    Server::bind(opts)?.run()
}

/// The wire's share of a request, beside the engine's `serve.request_ns`:
/// `serve.decode_ns` / `serve.encode_ns` time `Request::from_json` /
/// `Reply::to_json`, `serve.frame_bytes_in` / `_out` count whole frames,
/// prefix included — all recorded before the reply is written, so a client
/// holding a reply can read its request's cost. Resolved once per process.
type WireMetrics = ([perforad_obs::Histogram; 2], [perforad_obs::Counter; 2]);

fn wire_metrics() -> &'static WireMetrics {
    static M: OnceLock<WireMetrics> = OnceLock::new();
    M.get_or_init(|| {
        (
            ["serve.decode_ns", "serve.encode_ns"].map(perforad_obs::histogram),
            ["serve.frame_bytes_in", "serve.frame_bytes_out"].map(perforad_obs::counter),
        )
    })
}

fn handle_conn(engine: Arc<Engine>, stop: Arc<AtomicBool>, endpoint: Endpoint, mut conn: Conn) {
    let ([decode_ns, encode_ns], [bytes_in, bytes_out]) = wire_metrics();
    loop {
        // Injected frame faults take the exact same exits as the real
        // failures they stand in for: a read fault is a truncated frame
        // (drop this connection, keep serving), a write fault is a hung
        // peer (likewise). `tests/fault.rs` drives both under traffic.
        if fault::should_fail("serve.frame.read") {
            return;
        }
        let payload = match proto::read_frame(&mut conn) {
            Ok(p) => p,
            // EOF, truncated frame, hostile length prefix: this
            // connection is done; the server is not.
            Err(_) => return,
        };
        bytes_in.add(4 + payload.len() as u64);
        let t = Instant::now();
        let decoded = Request::from_json(&payload);
        decode_ns.record(t.elapsed().as_nanos() as u64);
        let (reply, is_shutdown) = match decoded {
            Err(msg) => (Reply::Error(msg), false),
            Ok(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                let reply = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.handle(&req)
                })) {
                    Ok(r) => r,
                    Err(p) => Reply::Error(format!("request panicked: {}", panic_msg(&p))),
                };
                (reply, is_shutdown)
            }
        };
        let t = Instant::now();
        let reply = reply.to_json();
        encode_ns.record(t.elapsed().as_nanos() as u64);
        bytes_out.add(4 + reply.len() as u64);
        if fault::should_fail("serve.frame.write") || proto::write_frame(&mut conn, &reply).is_err()
        {
            return;
        }
        if is_shutdown {
            stop.store(true, Ordering::Release);
            // Self-connect to unblock the accept loop.
            let _ = connect(&endpoint);
            return;
        }
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
