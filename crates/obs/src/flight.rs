//! The flight recorder's dump side: write the in-memory rings (recent
//! spans), the metrics registry, and the fault tallies to a JSON file
//! when something goes wrong, so post-mortems don't require rerunning
//! the workload with tracing armed.
//!
//! The recording side is the span recorder itself — every thread keeps a
//! bounded ring of recent spans ([`crate::set_ring_capacity`]), which the
//! serve daemon fills continuously because it enables recording on bind.
//! [`dump`] *snapshots* that state (no draining, no locking beyond the
//! recorder's and the rings' mutexes), so an in-flight trace export or
//! per-request rollup is never disturbed by a dump. The snapshot is the
//! compact records; the dump streams its JSON from them to the file
//! through a fixed buffer, so what it allocates is the records it writes
//! plus [`DUMP_BUFFER`] and the small head (metrics, fault tallies).
//!
//! Dumps are written only when `PERFORAD_FLIGHT_DIR` names a directory
//! (created on first dump); otherwise [`dump`] is a no-op returning
//! `Ok(None)`. The serve engine calls it on injected-fault degradation
//! and deadline breach, and [`crate::RequestScope`] calls it when a
//! request unwinds, so every dump carries the failing request's id.

use std::fmt;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault::{injected, injected_total, KNOWN_POINTS};
use crate::json::{ObjWriter, Value};
use crate::metrics::MetricsSnapshot;
use crate::recorder::{overwritten_total, ring_capacity, snapshot_records};
use crate::trace::ChromeTrace;

/// Environment variable naming the flight-recorder dump directory.
/// Unset, [`dump`] does nothing.
pub const FLIGHT_DIR_ENV: &str = "PERFORAD_FLIGHT_DIR";

/// Bytes a dump buffers before each write to its file.
pub const DUMP_BUFFER: usize = 64 << 10;

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
/// `overwritten` lost), the full metrics registry, the per-point
/// fault-injection tallies, and last the recent spans in Chrome-trace
/// format (load the `trace` object directly in Perfetto). `request_id` 0
/// means no request scope was open at the trigger.
pub fn dump(reason: &str, request_id: u64) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = flight_dir() else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let path = dir.join(format!("flight-{pid}-{seq}-{}.json", slug(reason)));

    let records = snapshot_records();
    let head = head(reason, request_id, pid, seq, records.len());
    let events = records.iter().map(|(tid, r)| r.expand(*tid));

    // Write-then-rename so a reader polling the directory (the CI
    // telemetry job, an operator's tail) never sees a torn dump.
    let tmp = path.with_extension("json.tmp");
    {
        let mut out = BufWriter::with_capacity(DUMP_BUFFER, std::fs::File::create(&tmp)?);
        let trace = ChromeTrace(events);
        write!(out, "{}", Dump { head: &head, trace })?;
        out.flush()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(Some(path))
}

/// Every field of a dump but its `trace`, in order.
fn head(
    reason: &str,
    request_id: u64,
    pid: u32,
    seq: u64,
    events: usize,
) -> Vec<(&'static str, Value)> {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let ring = Value::obj([
        ("capacity", ring_capacity().into()),
        ("events", events.into()),
        ("overwritten", overwritten_total().into()),
    ]);
    let mut faults = vec![("injected_total", injected_total().into())];
    faults.extend(KNOWN_POINTS.iter().map(|&p| (p, injected(p).into())));
    vec![
        ("reason", reason.into()),
        ("request_id", request_id.into()),
        ("pid", pid.into()),
        ("seq", seq.into()),
        ("unix_ms", unix_ms.into()),
        ("ring", ring),
        ("faults", Value::obj(faults)),
        ("metrics", MetricsSnapshot::collect().to_value()),
    ]
}

/// A dump's document: its head, then the trace, streamed.
struct Dump<'a, I> {
    head: &'a [(&'static str, Value)],
    trace: ChromeTrace<I>,
}

impl<I: Iterator<Item = crate::SpanEvent> + Clone> fmt::Display for Dump<'_, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut doc = ObjWriter::new(f)?;
        for (key, value) in self.head {
            doc.field(key, value)?;
        }
        doc.field("trace", &self.trace)?;
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_clean_state;

    use crate::recorder::tests::retire_records;
    use crate::recorder::Record;
    use crate::span::SpanSite;
    use crate::trace::tests::{chrome_trace_value, golden_events, GOLDEN_CHROME};

    /// The dump a test writes to a directory of its own.
    fn dump_body(reason: &str, request_id: u64) -> String {
        let dir = std::env::temp_dir().join(format!("perforad-flight-ut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var(FLIGHT_DIR_ENV, &dir);
        let path = dump(reason, request_id).unwrap().expect("dump written");
        std::env::remove_var(FLIGHT_DIR_ENV);
        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        body
    }

    /// The golden spans, put in the recorder as retired records: a dump
    /// streams the exporter's golden bytes as its `trace`, and a whole
    /// dump is what the old whole-`Value` dump printed for it.
    #[test]
    fn a_dump_streams_the_golden_trace_and_the_whole_value_bytes() {
        with_clean_state(|| {
            let events = golden_events();
            for ev in &events {
                let keys = [ev.args[0].0, ev.args[1].0];
                let (name, phase) = (ev.name, ev.phase);
                let site = Box::leak(Box::new(SpanSite { name, phase, keys }));
                let record = Record {
                    site,
                    start_ns: ev.start_ns,
                    dur_ns: ev.dur_ns,
                    req: ev.req,
                    args: [ev.args[0].1, ev.args[1].1],
                };
                retire_records(ev.tid, vec![record]);
            }
            assert_eq!(crate::snapshot_events(), events);
            let body = dump_body("golden", 42);
            let (_, trace) = body.split_once(",\"trace\":").expect("a trace field");
            assert_eq!(trace.strip_suffix('}'), Some(GOLDEN_CHROME));

            let head = head("golden", 42, 1, 2, events.len());
            let trace = ChromeTrace(events.iter().copied());
            let streamed = Dump { head: &head, trace }.to_string();
            let mut fields = head.clone();
            fields.push(("trace", chrome_trace_value(&events)));
            assert_eq!(streamed, Value::obj(fields).to_string());
        });
    }

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
            {
                let _scope = crate::RequestScope::enter(99);
                let _s = crate::span!("flight.work", "test");
            }
            let body = dump_body("unit", 99);
            assert!(body.contains("\"reason\":\"unit\""));
            assert!(body.contains("\"request_id\":99"));
            assert!(body.contains("\"traceEvents\""));
            assert!(body.contains("flight.work"));
            // Snapshot, not drain: the span is still collectable.
            let events = crate::collect_events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].req, 99);
        });
    }
}
