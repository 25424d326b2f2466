//! The flight recorder's dump side: write the in-memory ring (recent
//! spans), the metrics registry, and the fault tallies to a JSON file
//! when something goes wrong, so post-mortems don't require rerunning
//! the workload with tracing armed.
//!
//! The recording side is the span recorder itself — every thread keeps a
//! bounded ring of recent spans ([`crate::set_ring_capacity`]), which the
//! serve daemon fills continuously because it enables recording on bind.
//! [`dump`] *snapshots* that state (no draining, no locking beyond the
//! per-thread buffer mutexes), so an in-flight trace export or
//! per-request rollup is never disturbed by a dump.
//!
//! Dumps are written only when `PERFORAD_FLIGHT_DIR` names a directory
//! (created on first dump); otherwise [`dump`] is a no-op returning
//! `Ok(None)`. The serve engine calls it on injected-fault degradation
//! and deadline breach, and [`crate::RequestScope`] calls it when a
//! request unwinds, so every dump carries the failing request's id.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault::{injected, injected_total, KNOWN_POINTS};
use crate::json::Value;
use crate::metrics::MetricsSnapshot;
use crate::recorder::{overwritten_total, ring_capacity, snapshot_events};
use crate::trace::chrome_trace;

/// Environment variable naming the flight-recorder dump directory.
/// Unset, [`dump`] does nothing.
pub const FLIGHT_DIR_ENV: &str = "PERFORAD_FLIGHT_DIR";

/// The dump directory configured via `PERFORAD_FLIGHT_DIR`, if any.
/// Read at every dump (not cached), like every other perforad knob.
pub fn flight_dir() -> Option<PathBuf> {
    std::env::var_os(FLIGHT_DIR_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Per-process dump sequence number, so one incident producing several
/// dumps (e.g. a panic inside an already-degraded request) never
/// overwrites evidence.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Sanitize `reason` into a filename fragment.
fn slug(reason: &str) -> String {
    reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Dump the flight recorder to `PERFORAD_FLIGHT_DIR` and return the
/// written path, or `Ok(None)` when the knob is unset.
///
/// The file is JSON: the trigger (`reason`, `request_id`, `unix_ms`,
/// `pid`, `seq`), ring stats (`capacity` per thread, `events` captured,
/// `overwritten` lost), the recent spans in Chrome-trace format (load
/// the `trace` object directly in Perfetto), the full metrics registry,
/// and the per-point fault-injection tallies. `request_id` 0 means no
/// request scope was open at the trigger.
pub fn dump(reason: &str, request_id: u64) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = flight_dir() else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let path = dir.join(format!("flight-{pid}-{seq}-{}.json", slug(reason)));

    let events = snapshot_events();
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let ring = Value::obj([
        ("capacity", ring_capacity().into()),
        ("events", events.len().into()),
        ("overwritten", overwritten_total().into()),
    ]);
    let mut faults = vec![("injected_total", injected_total().into())];
    faults.extend(KNOWN_POINTS.iter().map(|&p| (p, injected(p).into())));
    let body = Value::obj([
        ("reason", reason.into()),
        ("request_id", request_id.into()),
        ("pid", pid.into()),
        ("seq", seq.into()),
        ("unix_ms", unix_ms.into()),
        ("ring", ring),
        ("faults", Value::obj(faults)),
        ("metrics", MetricsSnapshot::collect().to_value()),
        ("trace", chrome_trace(&events)),
    ])
    .to_string();

    // Write-then-rename so a reader polling the directory (the CI
    // telemetry job, an operator's tail) never sees a torn dump.
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_clean_state;

    #[test]
    fn dump_is_noop_without_dir() {
        // FLIGHT_DIR_ENV is not set in the test environment.
        if std::env::var_os(FLIGHT_DIR_ENV).is_none() {
            assert!(dump("test", 1).unwrap().is_none());
        }
    }

    #[test]
    fn dump_writes_snapshot_without_draining() {
        with_clean_state(|| {
            let dir =
                std::env::temp_dir().join(format!("perforad-flight-ut-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::env::set_var(FLIGHT_DIR_ENV, &dir);
            {
                let _scope = crate::RequestScope::enter(99);
                let _s = crate::span!("flight.work", "test");
            }
            let path = dump("unit", 99).unwrap().expect("dump written");
            std::env::remove_var(FLIGHT_DIR_ENV);
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.contains("\"reason\":\"unit\""));
            assert!(body.contains("\"request_id\":99"));
            assert!(body.contains("\"traceEvents\""));
            assert!(body.contains("flight.work"));
            // Snapshot, not drain: the span is still collectable.
            let events = crate::collect_events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].req, 99);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}
