//! `perforad-top`: a live terminal dashboard for a running gradient
//! daemon, in the spirit of `top` — poll, render, repeat.
//!
//! Everything rendered comes from one `Stats` request per tick (the
//! reply is deliberately a superset of what this tool shows, so no
//! second endpoint is needed): request throughput (differenced across
//! ticks), queue depth, compile-cache hit rate, request-latency
//! percentiles from the `serve.request_ns` histogram, degradation and
//! fault tallies, and a per-fingerprint traffic table.
//!
//! ```text
//! perforad-top --endpoint EP [--interval-ms N] [--once] [--iterations N]
//! perforad-top --scrape ADDR [--path /metrics]
//! ```
//!
//! `--scrape` is a different mode entirely: one raw-TCP HTTP GET against
//! the daemon's `--metrics` endpoint, body to stdout. It exists so the
//! CI telemetry job (and any curl-less operator) can scrape Prometheus
//! text with the same binary.

use perforad_obs::json::Value;
use perforad_serve::{stats_counter, Client, Endpoint};
use std::io::Write;
use std::time::{Duration, Instant};

struct Args {
    endpoint: Option<String>,
    interval_ms: u64,
    once: bool,
    iterations: Option<u64>,
    scrape: Option<String>,
    path: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        endpoint: None,
        interval_ms: 1000,
        once: false,
        iterations: None,
        scrape: None,
        path: "/metrics".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("perforad-top: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--endpoint" => args.endpoint = Some(value_of("--endpoint")),
            "--interval-ms" => args.interval_ms = count("--interval-ms", value_of("--interval-ms")),
            "--once" => args.once = true,
            "--iterations" => {
                args.iterations = Some(count("--iterations", value_of("--iterations")))
            }
            "--scrape" => args.scrape = Some(value_of("--scrape")),
            "--path" => args.path = value_of("--path"),
            "--help" | "-h" => {
                println!(
                    "usage: perforad-top --endpoint EP [--interval-ms N] [--once] \
                     [--iterations N]\n       perforad-top --scrape ADDR [--path /metrics]\n\
                     EP is a socket path, host:port, or unix:/tcp:-prefixed."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("perforad-top: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

/// A whole-number flag value; anything else exits 2 naming the flag.
fn count(flag: &str, value: String) -> u64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("perforad-top: {flag} needs a whole number, got {value:?}");
        std::process::exit(2);
    })
}

fn main() {
    let args = parse_args();
    if let Some(addr) = &args.scrape {
        match perforad_serve::scrape(addr, &args.path) {
            Ok(body) => {
                print!("{body}");
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                eprintln!("perforad-top: scrape of {addr}{} failed: {e}", args.path);
                std::process::exit(1);
            }
        }
        return;
    }

    let Some(endpoint) = &args.endpoint else {
        eprintln!("perforad-top: no endpoint (use --endpoint EP, or --scrape ADDR)");
        std::process::exit(2);
    };
    let endpoint = Endpoint::parse(endpoint);
    let mut client = Client::connect(&endpoint).unwrap_or_else(|e| {
        eprintln!("perforad-top: cannot connect to {endpoint}: {e}");
        std::process::exit(1);
    });

    let mut prev: Option<(Instant, u64)> = None;
    let mut tick: u64 = 0;
    loop {
        let stats = match client.stats() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perforad-top: stats request failed: {e}");
                std::process::exit(1);
            }
        };
        let now = Instant::now();
        let requests = num(&stats, "requests_total");
        let rate = match prev {
            Some((t, r)) if now > t => {
                (requests.saturating_sub(r)) as f64 / (now - t).as_secs_f64()
            }
            _ => 0.0,
        };
        prev = Some((now, requests));

        if !args.once {
            // Clear and home — classic top behaviour.
            print!("\x1b[2J\x1b[H");
        }
        render(&stats, rate);
        let _ = std::io::stdout().flush();

        tick += 1;
        if args.once || args.iterations.is_some_and(|n| tick >= n) {
            break;
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

fn num(stats: &Value, key: &str) -> u64 {
    stats.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn hist_field(v: Option<&Value>, key: &str) -> f64 {
    v.and_then(|h| h.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn render(stats: &Value, rate: f64) {
    let uptime_s = num(stats, "uptime_ns") as f64 / 1e9;
    let hits = stats_counter(stats, "serve.compile_cache_hits");
    let misses = stats_counter(stats, "serve.compile_cache_misses");
    let hit_rate = if hits + misses > 0 {
        100.0 * hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    println!(
        "perforad-top — uptime {uptime_s:.0}s  req/s {rate:.1}  queue {}  \
         cache hit {hit_rate:.0}% ({hits}/{})",
        num(stats, "queue_depth"),
        hits + misses,
    );

    let lat = stats.get("latency_ns");
    println!(
        "latency   p50 {}  p95 {}  p99 {}  max {}  ({} requests)",
        fmt_ns(hist_field(lat, "p50")),
        fmt_ns(hist_field(lat, "p95")),
        fmt_ns(hist_field(lat, "p99")),
        fmt_ns(hist_field(lat, "max")),
        hist_field(lat, "count") as u64,
    );

    // The wire's share of that latency: JSON both ways, and frame bytes.
    let metrics = stats.get("metrics");
    let wire = |name: &str| metrics.and_then(|m| m.get("histograms")?.get(name));
    println!(
        "wire      decode p50 {}  encode p50 {}  in {} B  out {} B",
        fmt_ns(hist_field(wire("serve.decode_ns"), "p50")),
        fmt_ns(hist_field(wire("serve.encode_ns"), "p50")),
        stats_counter(stats, "serve.frame_bytes_in"),
        stats_counter(stats, "serve.frame_bytes_out"),
    );

    let injected = stats.get("faults").map_or(0, |f| num(f, "injected_total"));
    println!(
        "health    degraded {}  rejected {}  deadline {}  faults injected {}",
        num(stats, "degraded_total"),
        num(stats, "rejected_total"),
        num(stats, "deadline_exceeded_total"),
        injected,
    );

    if let Some(Value::Arr(kernels)) = stats.get("kernels") {
        if !kernels.is_empty() {
            println!();
            println!(
                "{:<18} {:>8} {:>5} {:>6} {:>9} {:>9}",
                "FINGERPRINT", "REQS", "N", "STEPS", "P50", "P95"
            );
            for k in kernels {
                let fp = k.get("fingerprint").and_then(Value::as_str).unwrap_or("?");
                let lat = k.get("latency_ns");
                println!(
                    "{:<18} {:>8} {:>5} {:>6} {:>9} {:>9}",
                    fp,
                    num(k, "requests"),
                    num(k, "n"),
                    num(k, "steps"),
                    fmt_ns(hist_field(lat, "p50")),
                    fmt_ns(hist_field(lat, "p95")),
                );
            }
        }
    }
}
