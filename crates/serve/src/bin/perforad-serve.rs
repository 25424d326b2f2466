//! The gradient daemon. Binds per its flags (default: a per-process
//! socket under the temp dir), prints the endpoint, and serves until a
//! `Shutdown` request. `--metrics <addr>` additionally binds a
//! localhost HTTP endpoint serving Prometheus text at `/metrics` and
//! JSON liveness at `/healthz`.

use perforad_serve::{ServeOptions, Server};
use std::io::Write;

const USAGE: &str = "usage: perforad-serve [--socket PATH | --tcp ADDR] [--metrics ADDR]
                     [--timeout-ms N] [--max-conns N] [--max-queue N]
  --socket PATH     Unix socket to listen on (default: $TMPDIR/perforad-serve-<pid>.sock)
  --tcp ADDR        listen on TCP instead (e.g. 127.0.0.1:7070); wins over --socket
  --metrics ADDR    also serve Prometheus /metrics and /healthz at this TCP address
  --timeout-ms N    per-connection read/write timeout (0 or absent: none)
  --max-conns N     cap on open connections; one past it gets Busy (0 or absent: none)
  --max-queue N     cap on gradients queued or running; one past it gets Busy (0 or absent: none)
Env: PERFORAD_FLIGHT_DIR, PERFORAD_FAULT, and the cache and trace variables in docs/OPERATIONS.md";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let opts = ServeOptions::from_args(&args).unwrap_or_else(|e| {
        eprintln!("perforad-serve: {e} (try --help)");
        std::process::exit(2);
    });
    let server = match Server::bind(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perforad-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("perforad-serve listening on {}", server.endpoint());
    if let Some(addr) = server.metrics_addr() {
        println!("perforad-serve metrics on http://{addr}/metrics");
    }
    if let Ok(spec) = std::env::var(perforad_obs::fault::FAULT_ENV) {
        if !spec.trim().is_empty() {
            println!("perforad-serve: fault injection armed: {spec}");
        }
    }
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("perforad-serve: {e}");
        std::process::exit(1);
    }
}
