//! Small probes several workloads share: the host's sustainable
//! bandwidth, the cost of an empty parallel region, the cost of a span.

use crate::harness::{Outcome, TRACE_OVERHEAD_LIMIT};
use crate::surface::*;
use crate::{stats, trace};
use std::time::Instant;

/// The benchmark's own triad `a = b + s·c` over three arrays of `len`
/// f64s, split over `threads` scoped threads; GB/s counted as 24 bytes
/// per element (two loads, one store). Measured in the same run as the
/// kernel it is compared with, on arrays of the same size.
pub fn stream_triad_gbs(len: usize, threads: usize, reps: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut best = Vec::new();
    for rep in 0..reps + 1 {
        let s = 1.0 + rep as f64;
        let t = Instant::now();
        std::thread::scope(|scope| {
            for (k, part) in a.chunks_mut(chunk).enumerate() {
                let (b, c) = (&b[k * chunk..], &c[k * chunk..]);
                scope.spawn(move || {
                    for (i, x) in part.iter_mut().enumerate() {
                        *x = b[i] + s * c[i];
                    }
                });
            }
        });
        // The first repetition pages the arrays in.
        if rep > 0 {
            best.push(t.elapsed().as_secs_f64());
        }
    }
    std::hint::black_box(&a);
    24.0 * len as f64 / stats::median(&best) / 1e9
}

/// Median cost of an empty `ThreadPool::run`, µs: the fork/join a
/// parallel region pays before any tile runs.
pub fn region_overhead_us(pool: &ThreadPool, reps: usize) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        pool.run(&|_tid| {});
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&v)
}

/// Cost of one `obs::span!` guard, ns, with recording off and on. The
/// previous recording state is restored.
fn obs_span_ns() -> (f64, f64) {
    let was = obs_enabled();
    let price = |on: bool, iters: u32| {
        obs_set_enabled(on);
        let t = Instant::now();
        for _ in 0..iters {
            let _g = obs_span!("bench.probe", "bench");
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    let disabled = price(false, 2_000_000);
    // Stay inside the recorder's ring so the probe prices a record, not
    // an allocation storm.
    let enabled = price(true, 20_000);
    obs_set_enabled(was);
    (disabled, enabled)
}

/// Cost of one span of the benchmark's own recorder, ns: a guard opened
/// and dropped in a tight loop with the recorder on, minus the same with
/// it off. Discards what it recorded and leaves the recorder on.
fn recorder_span_ns() -> f64 {
    let price = |on: bool| {
        trace::set_enabled(on);
        const ITERS: u32 = 20_000;
        let t = Instant::now();
        for _ in 0..ITERS {
            let _g = trace::span("bench.recorder_probe", "bench");
        }
        t.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let cost = (price(true) - price(false)).max(0.0);
    trace::take();
    trace::set_enabled(true);
    cost
}

/// What every traced pass ends with: the price of an `obs` span, each
/// layer's share of the busy time under `root`, the trace file, and the
/// recorder's own overhead, held to its limit.
///
/// The overhead is priced, not differenced: the same operation timed
/// with the recorder off and on differs by ±5 % from one pair to the
/// next on a shared host, which cannot resolve a 5 % limit; a span costs
/// a fraction of a microsecond, which a tight loop resolves. So: spans
/// recorded under the timed region × the cost of one, over the region's
/// duration (its wall time, though client threads overlap — an
/// over-estimate). Above [`TRACE_OVERHEAD_LIMIT`] the traced timings are
/// the recorder's and the run is INVALID.
pub fn finish_traced(workload: &str, root: u64, out: &mut Outcome) {
    let (disabled, enabled) = obs_span_ns();
    out.layer("obs.disabled_span_ns", disabled);
    out.layer("obs.enabled_span_ns", enabled);
    let spans = trace::take();
    for (layer, share) in trace::layer_shares(&spans, root) {
        out.layer(&format!("{layer}.busy_share"), share);
    }
    let under_root = trace::subtree(&spans, root);
    let region_ns = under_root
        .iter()
        .find(|s| s.id == root)
        .map_or(0, |s| s.duration_ns());
    let overhead = under_root.len() as f64 * recorder_span_ns() / (region_ns.max(1) as f64);
    out.layer("bench.trace_overhead_share", overhead);
    out.guard(
        "trace_overhead_share",
        overhead,
        TRACE_OVERHEAD_LIMIT,
        "ratio",
    );
    crate::write_trace(workload, &spans);
}
