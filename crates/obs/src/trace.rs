//! Exporters: Chrome-trace JSON and the per-phase [`TraceReport`] rollup.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

use crate::json::{Arr, ObjWriter, Value};
use crate::recorder::SpanEvent;

/// Environment variable that enables recording (`1`/`true`/`on`).
pub const TRACE_ENV: &str = "PERFORAD_TRACE";

/// Encode spans in Chrome `chrome://tracing` / Perfetto JSON format:
/// one complete (`"ph":"X"`) event per span, timestamps in microseconds.
/// Load the file via `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    ChromeTrace(events.iter().copied()).to_string()
}

/// [`chrome_trace_json`]'s document over the spans an iterator yields,
/// printed as it is read: a flight dump streams it to its file.
pub(crate) struct ChromeTrace<I>(pub(crate) I);

impl<I: Iterator<Item = SpanEvent> + Clone> fmt::Display for ChromeTrace<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut doc = ObjWriter::new(f)?;
        doc.field("traceEvents", Arr(self.0.clone().map(ChromeEvent)))?;
        doc.str("displayTimeUnit", "ms")?;
        doc.finish()
    }
}

struct ChromeEvent(SpanEvent);

impl fmt::Display for ChromeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ev = &self.0;
        let mut obj = ObjWriter::new(f)?;
        obj.str("name", ev.name)?;
        obj.str("cat", ev.phase)?;
        obj.str("ph", "X")?;
        obj.num("ts", ev.start_ns as f64 / 1e3)?;
        obj.num("dur", ev.dur_ns as f64 / 1e3)?;
        obj.num("pid", 1.0)?;
        obj.num("tid", ev.tid as f64)?;
        if ev.req != 0 || ev.args.iter().any(|(k, _)| !k.is_empty()) {
            obj.field("args", ChromeArgs(ev))?;
        }
        obj.finish()
    }
}

/// An event's named arguments, then the request id (when a request scope
/// was open), so per-request spans group and interleave legibly across
/// worker threads in the Perfetto UI.
struct ChromeArgs<'a>(&'a SpanEvent);

impl fmt::Display for ChromeArgs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ev = self.0;
        let named = ev.args.iter().filter(|(k, _)| !k.is_empty()).copied();
        let request = (ev.req != 0).then_some(("request_id", ev.req));
        let mut obj = ObjWriter::new(f)?;
        for (k, v) in named.chain(request) {
            obj.num(k, v as f64)?;
        }
        obj.finish()
    }
}

/// Write `events` as Chrome-trace JSON to `path`; the library never
/// writes a trace file on its own.
pub fn write_chrome_trace(path: &Path, events: &[SpanEvent]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{}", ChromeTrace(events.iter().copied()))?;
    out.flush()
}

/// Aggregate times for one pipeline phase (`"sched"`, `"tune"`, `"jit"`,
/// `"ckpt"`, `"exec"`, `"seismic"`, ...).
#[derive(Clone, Debug)]
pub struct PhaseStat {
    /// Phase name.
    pub phase: String,
    /// Spans recorded under this phase.
    pub spans: u64,
    /// Wall time attributed to the phase: sum of durations of spans whose
    /// enclosing span (same thread) belongs to a *different* phase, so
    /// nested same-phase spans are not double-counted.
    pub total_ns: u64,
    /// Self time: durations minus time spent in enclosed child spans,
    /// summed over the phase's spans. Self times telescope — summed over
    /// every phase they equal the root spans' total duration — which is
    /// what makes the rollup account for the measured wall time.
    pub self_ns: u64,
}

/// Aggregate times for one span name.
#[derive(Clone, Debug)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus enclosed children).
    pub self_ns: u64,
}

/// Per-phase rollup of a recorded trace: where the wall time went.
///
/// Built from the span tree per thread: a span's *self* time is its
/// duration minus its direct children's durations, so self times sum to
/// the top-level spans' total and the per-phase breakdown accounts for
/// the measured wall time. A served request with `trace: true` gets this
/// back inline in its reply.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Trace extent: latest span end minus earliest span start.
    pub wall_ns: u64,
    /// Number of recorded spans.
    pub spans: u64,
    /// Per-phase totals, largest `total_ns` first.
    pub phases: Vec<PhaseStat>,
    /// Top-N span names by self time.
    pub top: Vec<SpanStat>,
}

impl TraceReport {
    /// Roll up `events` (as returned by [`crate::collect_events`]),
    /// keeping the `top_n` span names with the largest self time.
    pub fn build(events: &[SpanEvent], top_n: usize) -> Self {
        let mut sorted: Vec<&SpanEvent> = events.iter().collect();
        sorted.sort_by_key(|e| (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns)));

        // Per-thread stack walk: spans are properly nested per thread
        // (RAII guards), so a span's parent is the innermost span still
        // open at its start time.
        let mut child_ns = vec![0u64; sorted.len()];
        let mut parent_phase: Vec<Option<&str>> = vec![None; sorted.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..sorted.len() {
            if i > 0 && sorted[i].tid != sorted[i - 1].tid {
                stack.clear();
            }
            let ev = sorted[i];
            while let Some(&top) = stack.last() {
                if sorted[top].end_ns() <= ev.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                child_ns[top] += ev.dur_ns;
                parent_phase[i] = Some(sorted[top].phase);
            }
            stack.push(i);
        }

        let mut phases: BTreeMap<&str, PhaseStat> = BTreeMap::new();
        let mut names: BTreeMap<&str, SpanStat> = BTreeMap::new();
        for (i, ev) in sorted.iter().enumerate() {
            let self_ns = ev.dur_ns.saturating_sub(child_ns[i]);
            let p = phases.entry(ev.phase).or_insert_with(|| PhaseStat {
                phase: ev.phase.to_string(),
                spans: 0,
                total_ns: 0,
                self_ns: 0,
            });
            p.spans += 1;
            p.self_ns += self_ns;
            if parent_phase[i] != Some(ev.phase) {
                p.total_ns += ev.dur_ns;
            }
            let n = names.entry(ev.name).or_insert_with(|| SpanStat {
                name: ev.name.to_string(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            n.count += 1;
            n.total_ns += ev.dur_ns;
            n.self_ns += self_ns;
        }

        let mut phases: Vec<PhaseStat> = phases.into_values().collect();
        phases.sort_by_key(|p| std::cmp::Reverse(p.total_ns));
        let mut top: Vec<SpanStat> = names.into_values().collect();
        top.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
        top.truncate(top_n);

        let wall_ns = match (
            events.iter().map(|e| e.start_ns).min(),
            events.iter().map(|e| e.end_ns()).max(),
        ) {
            (Some(lo), Some(hi)) => hi.saturating_sub(lo),
            _ => 0,
        };
        TraceReport {
            wall_ns,
            spans: events.len() as u64,
            phases,
            top,
        }
    }

    /// Sum of self time across every phase. For a trace with a single
    /// root span this equals the root's duration, so
    /// `self_total_ns() / wall_ns` is the fraction of the trace extent
    /// the rollup accounts for.
    pub fn self_total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// An object with `wall_ns`, `spans`, `phases`, and `top_spans`
    /// fields.
    pub fn to_value(&self) -> Value {
        let phases = self.phases.iter().map(|p| {
            Value::obj([
                ("phase", p.phase.as_str().into()),
                ("spans", p.spans.into()),
                ("total_ns", p.total_ns.into()),
                ("self_ns", p.self_ns.into()),
            ])
        });
        let top = self.top.iter().map(|t| {
            Value::obj([
                ("name", t.name.as_str().into()),
                ("count", t.count.into()),
                ("total_ns", t.total_ns.into()),
                ("self_ns", t.self_ns.into()),
            ])
        });
        Value::obj([
            ("wall_ns", self.wall_ns.into()),
            ("spans", self.spans.into()),
            ("phases", Value::Arr(phases.collect())),
            ("top_spans", Value::Arr(top.collect())),
        ])
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} spans over {:.3} ms ({:.1}% accounted)",
            self.spans,
            ms(self.wall_ns),
            if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * self.self_total_ns() as f64 / self.wall_ns as f64
            },
        )?;
        writeln!(
            f,
            "{:<12} {:>8} {:>12} {:>12}",
            "phase", "spans", "total ms", "self ms"
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "{:<12} {:>8} {:>12.3} {:>12.3}",
                p.phase,
                p.spans,
                ms(p.total_ns),
                ms(p.self_ns)
            )?;
        }
        writeln!(
            f,
            "{:<24} {:>8} {:>12} {:>12}",
            "top spans (by self)", "count", "total ms", "self ms"
        )?;
        for t in &self.top {
            writeln!(
                f,
                "{:<24} {:>8} {:>12.3} {:>12.3}",
                t.name,
                t.count,
                ms(t.total_ns),
                ms(t.self_ns)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::recorder::SPAN_ARGS;

    fn ev(
        name: &'static str,
        phase: &'static str,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanEvent {
        SpanEvent {
            name,
            phase,
            start_ns,
            dur_ns,
            tid,
            req: 0,
            args: [("", 0); SPAN_ARGS],
        }
    }

    /// The whole-[`Value`] Chrome trace the exporters wrote before they
    /// streamed: the oracle the streamed bytes are held to.
    pub(crate) fn chrome_trace_value(events: &[SpanEvent]) -> Value {
        let event = |ev: &SpanEvent| {
            let mut fields = vec![
                ("name", ev.name.into()),
                ("cat", ev.phase.into()),
                ("ph", "X".into()),
                ("ts", (ev.start_ns as f64 / 1e3).into()),
                ("dur", (ev.dur_ns as f64 / 1e3).into()),
                ("pid", 1_u64.into()),
                ("tid", ev.tid.into()),
            ];
            let named = ev.args.iter().filter(|(k, _)| !k.is_empty()).copied();
            let request = (ev.req != 0).then_some(("request_id", ev.req));
            let args: Vec<(&str, Value)> =
                named.chain(request).map(|(k, v)| (k, v.into())).collect();
            if !args.is_empty() {
                fields.push(("args", Value::obj(args)));
            }
            Value::obj(fields)
        };
        let events = events.iter().map(event).collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ])
    }

    /// Spans with chosen times: nested, on three threads, under request
    /// ids 0, 7 and 42, with 0, 1 and 2 args (the engine's
    /// `"request_id"` arg too). Sorted as the recorder's readers sort.
    pub(crate) fn golden_events() -> Vec<SpanEvent> {
        let ev = |name, phase, tid, req, start_ns, dur_ns, args| SpanEvent {
            name,
            phase,
            start_ns,
            dur_ns,
            tid,
            req,
            args,
        };
        vec![
            ev(
                "serve.gradient",
                "serve",
                0,
                42,
                1_000,
                9_000_500,
                [("shots", 1), ("request_id", 42)],
            ),
            ev(
                "exec.group",
                "exec",
                0,
                42,
                2_500,
                3_000,
                [("group", 0), ("tiles", 5)],
            ),
            ev(
                "exec.worker",
                "exec",
                1,
                42,
                2_600,
                2_999,
                [("worker", 1), ("", 0)],
            ),
            ev(
                "exec.worker",
                "exec",
                0,
                42,
                6_000,
                1_250,
                [("worker", 0), ("", 0)],
            ),
            ev(
                "ckpt.forward",
                "ckpt",
                1,
                7,
                20_000,
                50,
                [("steps", 24), ("", 0)],
            ),
            ev(
                "ckpt.recompute",
                "ckpt",
                1,
                7,
                20_010,
                10,
                [("from", 3), ("to", 9)],
            ),
            ev(
                "tune.search",
                "tune",
                2,
                0,
                12_345_678_901,
                777,
                [("nests", 3), ("", 0)],
            ),
            ev(
                "tune.refine",
                "tune",
                2,
                0,
                12_345_679_000,
                100,
                [("", 0), ("", 0)],
            ),
        ]
    }

    /// [`chrome_trace_json`] of [`golden_events`], recorded from the
    /// exporter that built a whole `Value` tree.
    pub(crate) const GOLDEN_CHROME: &str = concat!(
        r#"{"traceEvents":[{"name":"serve.gradient","cat":"serve","ph":"X","ts":1,"dur":9000.5,"#,
        r#""pid":1,"tid":0,"args":{"shots":1,"request_id":42,"request_id":42}},"#,
        r#"{"name":"exec.group","cat":"exec","ph":"X","ts":2.5,"dur":3,"pid":1,"tid":0,"#,
        r#""args":{"group":0,"tiles":5,"request_id":42}},"#,
        r#"{"name":"exec.worker","cat":"exec","ph":"X","ts":2.6,"dur":2.999,"pid":1,"tid":1,"#,
        r#""args":{"worker":1,"request_id":42}},"#,
        r#"{"name":"exec.worker","cat":"exec","ph":"X","ts":6,"dur":1.25,"pid":1,"tid":0,"#,
        r#""args":{"worker":0,"request_id":42}},"#,
        r#"{"name":"ckpt.forward","cat":"ckpt","ph":"X","ts":20,"dur":0.05,"pid":1,"tid":1,"#,
        r#""args":{"steps":24,"request_id":7}},"#,
        r#"{"name":"ckpt.recompute","cat":"ckpt","ph":"X","ts":20.01,"dur":0.01,"pid":1,"tid":1,"#,
        r#""args":{"from":3,"to":9,"request_id":7}},"#,
        r#"{"name":"tune.search","cat":"tune","ph":"X","ts":12345678.901,"dur":0.777,"pid":1,"#,
        r#""tid":2,"args":{"nests":3}},"#,
        r#"{"name":"tune.refine","cat":"tune","ph":"X","ts":12345679,"dur":0.1,"pid":1,"tid":2}],"#,
        r#""displayTimeUnit":"ms"}"#,
    );

    /// The exporters' bytes for a fixed set of spans, recorded before
    /// the recorder stored compact records and the exporters streamed:
    /// the streamed Chrome trace, its whole-`Value` oracle and the
    /// rollup all reproduce them.
    #[test]
    fn exporters_write_their_golden_bytes() {
        let events = golden_events();
        assert_eq!(chrome_trace_json(&events), GOLDEN_CHROME);
        assert_eq!(chrome_trace_value(&events).to_string(), GOLDEN_CHROME);
        assert_eq!(
            TraceReport::build(&events, 10).to_value().to_string(),
            concat!(
                r#"{"wall_ns":12345678678,"spans":8,"phases":["#,
                r#"{"phase":"serve","spans":1,"total_ns":9000500,"self_ns":8996250},"#,
                r#"{"phase":"exec","spans":3,"total_ns":7249,"self_ns":7249},"#,
                r#"{"phase":"tune","spans":2,"total_ns":777,"self_ns":777},"#,
                r#"{"phase":"ckpt","spans":2,"total_ns":50,"self_ns":50}],"top_spans":["#,
                r#"{"name":"serve.gradient","count":1,"total_ns":9000500,"self_ns":8996250},"#,
                r#"{"name":"exec.worker","count":2,"total_ns":4249,"self_ns":4249},"#,
                r#"{"name":"exec.group","count":1,"total_ns":3000,"self_ns":3000},"#,
                r#"{"name":"tune.search","count":1,"total_ns":777,"self_ns":677},"#,
                r#"{"name":"tune.refine","count":1,"total_ns":100,"self_ns":100},"#,
                r#"{"name":"ckpt.forward","count":1,"total_ns":50,"self_ns":40},"#,
                r#"{"name":"ckpt.recompute","count":1,"total_ns":10,"self_ns":10}]}"#,
            )
        );
        // Empty, and one span on its own: the streamed bytes and the oracle's.
        for events in [&[][..], &events[7..]] {
            assert_eq!(
                chrome_trace_json(events),
                chrome_trace_value(events).to_string()
            );
        }
    }

    #[test]
    fn chrome_trace_has_complete_events_and_args() {
        let mut e = ev("exec.group", "exec", 3, 1_000, 2_500);
        e.args[0] = ("points", 64);
        let json = chrome_trace_json(&[e]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1,"));
        assert!(json.contains("\"dur\":2.5,"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"args\":{\"points\":64}"));
    }

    #[test]
    fn chrome_trace_carries_request_ids() {
        let mut e = ev("exec.group", "exec", 3, 1_000, 2_500);
        e.req = 42;
        let json = chrome_trace_json(&[e]);
        assert!(json.contains("\"args\":{\"request_id\":42}"));
        let mut with_args = ev("exec.group", "exec", 3, 1_000, 2_500);
        with_args.args[0] = ("points", 64);
        with_args.req = 7;
        let json = chrome_trace_json(&[with_args]);
        assert!(json.contains("\"args\":{\"points\":64,\"request_id\":7}"));
        // No open scope (req 0): no synthetic arg.
        let json = chrome_trace_json(&[ev("a", "exec", 0, 0, 1)]);
        assert!(!json.contains("request_id"));
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // root [0,100) > mid [10,60) > leaf [20,30); sibling leaf [70,80).
        let events = vec![
            ev("root", "seismic", 0, 0, 100),
            ev("mid", "exec", 0, 10, 50),
            ev("leaf", "exec", 0, 20, 10),
            ev("leaf", "ckpt", 0, 70, 10),
        ];
        let report = TraceReport::build(&events, 10);
        assert_eq!(report.wall_ns, 100);
        let by_phase = |p: &str| report.phases.iter().find(|s| s.phase == p).unwrap();
        assert_eq!(by_phase("seismic").self_ns, 100 - 50 - 10);
        assert_eq!(by_phase("exec").self_ns, (50 - 10) + 10);
        assert_eq!(by_phase("ckpt").self_ns, 10);
        // Self times telescope back to the root duration.
        assert_eq!(report.self_total_ns(), 100);
        // Nested exec-within-exec is not double counted in phase totals.
        assert_eq!(by_phase("exec").total_ns, 50);
    }

    #[test]
    fn phase_totals_do_not_leak_across_threads() {
        // Same window on two threads: neither nests inside the other.
        let events = vec![ev("a", "exec", 0, 0, 100), ev("b", "exec", 1, 10, 50)];
        let report = TraceReport::build(&events, 10);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].total_ns, 150);
        assert_eq!(report.phases[0].self_ns, 150);
    }

    #[test]
    fn top_spans_rank_by_self_time() {
        let events = vec![ev("big", "exec", 0, 0, 100), ev("small", "exec", 0, 10, 80)];
        let report = TraceReport::build(&events, 1);
        assert_eq!(report.top.len(), 1);
        assert_eq!(report.top[0].name, "small");
        assert_eq!(report.top[0].self_ns, 80);
    }

    /// What a traced reply's `trace` field carries, byte for byte.
    #[test]
    fn report_value_keys_are_pinned() {
        let events = vec![ev("root", "seismic", 0, 0, 100)];
        assert_eq!(
            TraceReport::build(&events, 5).to_value().to_string(),
            "{\"wall_ns\":100,\"spans\":1,\"phases\":[{\"phase\":\"seismic\",\"spans\":1,\
             \"total_ns\":100,\"self_ns\":100}],\"top_spans\":[{\"name\":\"root\",\"count\":1,\
             \"total_ns\":100,\"self_ns\":100}]}"
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let report = TraceReport::build(&[], 5);
        assert_eq!(report.wall_ns, 0);
        assert_eq!(report.spans, 0);
        assert!(report.to_value().to_string().contains("\"phases\":[]"));
    }
}
