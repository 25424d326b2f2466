//! `--self-check`: the benchmark's own arithmetic, asserted. Examples get
//! no `cargo test`, and a harness that mis-counts is worse than none.

use crate::gen::{self, Rng};
use crate::harness::Outcome;
use crate::loadgen::{self, Phase};
use crate::trace::{self, Span};
use crate::{manifest, stats};
use std::process::ExitCode;
use std::time::Duration;

struct Tally {
    failed: usize,
    run: usize,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.run += 1;
        if ok {
            println!("ok   {what}");
        } else {
            self.failed += 1;
            println!("FAIL {what}");
        }
    }
}

fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "t",
        layer,
        start_ns,
        end_ns,
        thread: 1,
        request: 0,
    }
}

pub fn run() -> ExitCode {
    let mut t = Tally { failed: 0, run: 0 };

    // The percentile rule: the highest ladder percentile with at least
    // ten samples beyond it.
    for (n, want) in [
        (19, None),
        (20, Some(50.0)),
        (39, Some(50.0)),
        (40, Some(75.0)),
        (100, Some(90.0)),
        (199, Some(90.0)),
        (200, Some(95.0)),
        (1000, Some(99.0)),
        (10_000, Some(99.9)),
    ] {
        t.check(
            stats::highest_supported_percentile(n) == want,
            &format!("percentile rule: n={n} supports {want:?}"),
        );
    }
    let ramp: Vec<f64> = (1..=200).map(f64::from).collect();
    let s = stats::summarize(&ramp);
    t.check(
        s.tail == (95.0, 190.0) && s.median == 100.5 && s.n == 200,
        "summary of 1..=200 is p50=100.5, p95=190",
    );
    let (q1, q2, q3) = stats::quartiles(&(1..=10).map(f64::from).collect::<Vec<_>>());
    t.check(
        (q1, q2, q3) == (2.75, 5.5, 8.25),
        "quartiles match statistics.quantiles(range(1,11), n=4)",
    );
    t.check(
        stats::fastest(&[9.0, 2.0, 7.0, 3.0, 50.0]) == 2.0,
        "the fastest sample is the minimum",
    );

    // Self time = duration − the part children cover (overlap once).
    let spans = vec![
        span(1, 0, "bench", 0, 100),
        span(2, 1, "exec", 10, 30),
        span(3, 1, "exec", 20, 50),
        span(4, 1, "serve", 60, 70),
        span(5, 2, "jit", 12, 18),
        span(6, 1, "exec", 90, 130),
    ];
    let selfs = trace::self_times(&spans);
    t.check(
        selfs[&1] == 40,
        "span self time: parent 100 − child coverage 60 (overlap once, clipped) = 40",
    );
    t.check(
        selfs[&2] == 14 && selfs[&5] == 6,
        "span self time: nested child subtracts from its own parent only",
    );
    let shares = trace::layer_shares(&spans, 1);
    // Self times: bench 40, exec 14 + 30 + 40, serve 10, jit 6 = 140.
    t.check(
        (shares["bench"] - 40.0 / 140.0).abs() < 1e-12
            && (shares["jit"] - 6.0 / 140.0).abs() < 1e-12
            && (shares.values().sum::<f64>() - 1.0).abs() < 1e-12,
        "layer shares are self time over all self time under the root, and add up to one",
    );

    // Open-loop accounting against a fake server that stalls once: the
    // requests due behind the stall must inherit it.
    let schedule: Vec<f64> = (0..24).map(|k| 0.05 + k as f64 * 0.02).collect();
    let mut conns = [()];
    let done = loadgen::run_open_loop(&schedule, &mut conns, |_, index| {
        // Busy service, so a sleepy host cannot stretch the quick requests.
        let service = Duration::from_micros(if index == 5 { 250_000 } else { 300 });
        let t = std::time::Instant::now();
        while t.elapsed() < service {
            std::hint::spin_loop();
        }
        true
    });
    t.check(
        done.len() == 24 && done.windows(2).all(|w| w[0].index < w[1].index),
        "open loop: every request once, in due order",
    );
    t.check(
        done[5].latency_ms() >= 250.0,
        "open loop: the stalled request is charged its stall",
    );
    t.check(
        done[6].latency_ms() >= 200.0 && !done[6].waited,
        "open loop: the request due behind the stall inherits it (timed from its due time)",
    );
    t.check(
        (6..12).all(|k| done[k].latency_ms() > (done[k].done_s - done[k].sent_s) * 1e3 + 40.0),
        "open loop: queued requests are charged more than their own service time",
    );
    let lateness = stats::median(
        &done
            .iter()
            .filter(|c| c.waited)
            .map(|c| (c.sent_s - c.due_s) * 1e3)
            .collect::<Vec<_>>(),
    );
    t.check(
        done[..5].iter().filter(|c| c.waited).count() >= 3 && lateness < 5.0,
        &format!("open loop: generator lateness is reported for idle connections and is small ({lateness:.3} ms)"),
    );
    let phase = Phase::new(50.0, 0.48, 20.0, &done);
    t.check(
        phase.sent == 24 && phase.within_limit < 24 && !phase.sustains(),
        "a phase with a stall misses its limit",
    );

    // Backlog growth.
    let flat: Vec<f64> = (0..100).map(|k| 10.0 + (k % 3) as f64).collect();
    let growing: Vec<f64> = (0..100).map(|k| 10.0 + k as f64).collect();
    t.check(
        !loadgen::backlog_grows(&flat) && loadgen::backlog_grows(&growing),
        "backlog growth: flat no, ramp yes",
    );
    let mk = |rate: f64, within: usize, grows: bool| Phase {
        rate,
        sent: 100,
        within_limit: within,
        latencies_ms: Vec::new(),
        backlog_grows: grows,
        late_ms: Vec::new(),
        duration_s: 1.0,
    };
    t.check(
        loadgen::sustained_rate(&[
            mk(10.0, 100, false),
            mk(20.0, 99, false),
            mk(30.0, 98, false),
        ]) == 20.0,
        "sustained rate: highest rate with ≥99 % within the limit",
    );
    t.check(
        loadgen::sustained_rate(&[mk(10.0, 100, false), mk(20.0, 100, true)]) == 10.0,
        "sustained rate: a growing backlog disqualifies a rate",
    );

    // Guards: over the limit invalidates the run and fails no operation.
    let mut out = Outcome::default();
    out.guard("late", 0.9, 1.0, "ms");
    t.check(
        out.tripped.is_empty(),
        "guard: a value within its limit trips nothing",
    );
    out.guard("late", 1.1, 1.0, "ms");
    t.check(
        out.tripped.len() == 1 && out.checks.failed == 0 && out.lines.len() == 2,
        "guard: a value over its limit marks the run invalid, fails no op, and both are printed",
    );

    // Seeded generators: byte-identical for one seed, different for two.
    let model = |seed| gen::digest(&gen::velocity_model(&mut Rng::new(seed, 11), 12, 0.02));
    t.check(
        model(7) == model(7) && model(7) != model(8),
        "velocity model is a function of the seed",
    );
    let wavelet = |seed| gen::digest(&gen::wavelet(&mut Rng::new(seed, 12), 24));
    t.check(
        wavelet(7) == wavelet(7) && wavelet(7) != wavelet(8),
        "source wavelet is a function of the seed",
    );
    let text = |seed| {
        gen::stencil_sources(&mut Rng::new(seed, 60), 64, 16, 8)
            .iter()
            .map(|s| s.text.clone())
            .collect::<String>()
    };
    t.check(
        text(7) == text(7) && text(7) != text(8),
        "stencil coefficients are a function of the seed",
    );
    let arrivals = |seed| gen::digest(&gen::poisson_schedule(&mut Rng::new(seed, 300), 50.0, 2.0));
    t.check(
        arrivals(7) == arrivals(7) && arrivals(7) != arrivals(8),
        "arrival schedule is a function of the seed",
    );
    let sched = gen::poisson_schedule(&mut Rng::new(3, 300), 200.0, 10.0);
    t.check(
        (sched.len() as f64 - 2000.0).abs() < 200.0,
        "Poisson schedule has about rate × duration arrivals",
    );
    t.check(
        Rng::new(1, 1).next_u64() != Rng::new(1, 2).next_u64(),
        "streams of one seed are independent",
    );

    // The manifest check itself.
    let entry =
        |n: &str, u: &str| format!("{{\"name\":\"{n}\",\"unit\":\"{u}\",\"better\":\"lower\"}}");
    let doc = |extra_workload: &str, e2e_unit: &str| {
        let w: Vec<String> = manifest::WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\":\"{w}\",\"why\":\"x\"}}"))
            .chain(
                (!extra_workload.is_empty())
                    .then(|| format!("{{\"name\":\"{extra_workload}\",\"why\":\"x\"}}")),
            )
            .collect();
        let e: Vec<String> = manifest::END_TO_END
            .iter()
            .map(|(n, u)| entry(n, if *n == "op_ms" { e2e_unit } else { u }))
            .collect();
        let l: Vec<String> = manifest::PER_LAYER
            .iter()
            .map(|(n, u)| entry(n, u))
            .collect();
        format!(
            "{{\"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
            w.join(","),
            e.join(","),
            l.join(",")
        )
    };
    t.check(
        manifest::check(&doc("", "ms")).is_empty(),
        "manifest: the emitted names pass",
    );
    t.check(
        !manifest::check(&doc("ghost", "ms")).is_empty(),
        "manifest: a workload no run emits fails",
    );
    t.check(
        !manifest::check(&doc("", "s")).is_empty(),
        "manifest: a unit mismatch fails",
    );
    t.check(
        !manifest::check(&doc("bad name", "ms")).is_empty(),
        "manifest: a name outside [A-Za-z0-9_.-] fails",
    );

    println!("{} checks, {} failed", t.run, t.failed);
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
