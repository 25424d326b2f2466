//! The metrics export endpoint: a tiny localhost HTTP listener serving
//! the obs registry in Prometheus text exposition format, plus a
//! `/healthz` liveness probe.
//!
//! This is deliberately not a web framework — one detached accept
//! thread, one short-lived handler thread per scrape, request-line-only
//! parsing, `HTTP/1.0` + `Connection: close` replies. A Prometheus
//! scraper, `curl`, or `perforad-top --scrape` all speak that much.
//! Routes:
//!
//! * `GET /metrics` — [`perforad_obs::MetricsSnapshot::to_prometheus`]
//!   over the live registry (counters, gauges, histogram quantiles, the
//!   per-fingerprint `serve_request_ns{fingerprint=...}` series), plus
//!   `serve_uptime_seconds` from the engine.
//! * `GET /healthz` — a small JSON body with queue depth, degradation
//!   totals, and uptime; status `"ok"` while the daemon can answer.
//!
//! Bind it with `perforad-serve --metrics 127.0.0.1:9464`. The listener
//! serves until the process exits; it holds only an `Arc<Engine>` and
//! takes no lock a gradient holds, so a scrape can never delay one.

use crate::engine::{serve_total, Engine};
use perforad_obs::json::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A running metrics endpoint. The accept thread is detached — dropping
/// this handle does not stop serving; it lives as long as the process.
pub struct MetricsServer {
    addr: String,
}

impl MetricsServer {
    /// Bind `addr` (`127.0.0.1:0` picks an ephemeral port) and start the
    /// accept loop on a detached thread.
    pub fn spawn(addr: &str, engine: Arc<Engine>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        std::thread::Builder::new()
            .name("perforad-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    let engine = Arc::clone(&engine);
                    std::thread::spawn(move || handle_scrape(stream, &engine));
                }
            })?;
        Ok(MetricsServer { addr })
    }

    /// The resolved bind address (ephemeral ports included).
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// The `/metrics` body: the full registry in Prometheus text format,
/// with the engine's uptime appended (the registry has no clock).
pub fn prometheus_body(engine: &Engine) -> String {
    let mut body = perforad_obs::MetricsSnapshot::collect().to_prometheus();
    body.push_str("# TYPE serve_uptime_seconds gauge\n");
    body.push_str(&format!(
        "serve_uptime_seconds {:.3}\n",
        engine.uptime().as_secs_f64()
    ));
    body
}

/// The `/healthz` body: liveness plus the three numbers an operator
/// checks first.
pub fn healthz_body(engine: &Engine) -> String {
    Value::obj([
        ("status", "ok".into()),
        ("uptime_ns", (engine.uptime().as_nanos() as f64).into()),
        ("queue_depth", engine.in_flight().into()),
        serve_total("serve.degraded_total"),
        serve_total("serve.rejected_total"),
        serve_total("serve.deadline_exceeded_total"),
    ])
    .to_string()
}

fn handle_scrape(mut stream: TcpStream, engine: &Engine) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    // Only the request line matters, but the whole header block must be
    // consumed — closing with unread bytes in the receive buffer makes
    // the OS send RST and the scraper loses the response. Hard size cap.
    let mut buf = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while buf.len() < 8192 && !buf.ends_with(b"\r\n\r\n") && !buf.ends_with(b"\n\n") {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => buf.push(byte[0]),
            Err(_) => return,
        }
    }
    let line = String::from_utf8_lossy(&buf);
    let line = line.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                prometheus_body(engine),
            ),
            "/healthz" => ("200 OK", "application/json", healthz_body(engine)),
            _ => (
                "404 Not Found",
                "text/plain",
                "try /metrics or /healthz\n".to_string(),
            ),
        }
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

/// Fetch one path from a running metrics endpoint over raw TCP — the
/// curl-free scrape used by `perforad-top --scrape` and the CI telemetry
/// job. Returns the response body (headers stripped).
pub fn scrape(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response: no header terminator",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Reply, Request};

    #[test]
    fn endpoint_serves_metrics_and_healthz() {
        let engine = Arc::new(Engine::new());
        perforad_obs::counter("serve.requests_total").inc();
        let srv = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&engine)).unwrap();

        let metrics = scrape(srv.addr(), "/metrics").unwrap();
        assert!(metrics.contains("serve_requests_total"));
        assert!(metrics.contains("serve_uptime_seconds"));

        let health = scrape(srv.addr(), "/healthz").unwrap();
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"queue_depth\":0"));

        let missing = scrape(srv.addr(), "/nope").unwrap();
        assert!(missing.contains("/metrics"));
    }

    fn keys(v: Option<&Value>) -> Vec<&str> {
        match v {
            Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// What `perforad-top`, every `Stats` client and a `/healthz` probe
    /// read, key for key.
    #[test]
    fn stats_and_healthz_keys_are_pinned() {
        let engine = Engine::new();
        let health = perforad_obs::json::parse(&healthz_body(&engine)).unwrap();
        assert_eq!(
            keys(Some(&health)).join(","),
            "status,uptime_ns,queue_depth,degraded_total,rejected_total,deadline_exceeded_total"
        );
        let Reply::Stats(stats) = engine.handle(&Request::Stats) else {
            panic!("Stats answers a stats object");
        };
        let at = |path: &[&str]| path.iter().try_fold(&stats, |v, key| v.get(key));
        assert_eq!(
            keys(at(&[])).join(","),
            "uptime_ns,queue_depth,tune_cache_entries,requests_total,degraded_total,\
             rejected_total,deadline_exceeded_total,faults,latency_ns,kernels,metrics"
        );
        assert_eq!(keys(at(&["faults"]))[0], "injected_total");
        let histogram = ["count", "sum", "mean", "p50", "p95", "p99", "max"];
        assert_eq!(keys(at(&["latency_ns"])), histogram);
        assert_eq!(keys(at(&["metrics"])), ["counters", "gauges", "histograms"]);
        assert_eq!(
            keys(at(&["metrics", "histograms", "serve.request_ns"])),
            histogram
        );
    }
}
