//! Machine descriptions and presets.
//!
//! The paper evaluates on a 12-core Broadwell Xeon and a 64-core Knights
//! Landing Xeon Phi; this host has neither. The presets below are
//! calibrated against the paper's *serial* numbers (wave primal ≈ 4.1 s at
//! 1000³, atomics ≈ 91 s single-threaded, KNL serial ≈ 3× slower than
//! Broadwell) so that the projected thread-scaling curves reproduce the
//! figures' shapes. See DESIGN.md §4 for the substitution rationale.

/// A simple analytic machine: roofline (compute vs bandwidth) plus an
/// atomic-contention term.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    pub name: &'static str,
    /// Physical cores (ideal-scaling limit for compute).
    pub cores: usize,
    /// Maximum hardware threads the paper sweeps to.
    pub threads_max: usize,
    /// Effective scalar+SIMD throughput per core, Gflop/s.
    pub flops_per_core: f64,
    /// Single-thread sustainable memory bandwidth, GB/s.
    pub bw_single: f64,
    /// Saturated (all-core) bandwidth, GB/s.
    pub bw_peak: f64,
    /// Threads needed to saturate bandwidth.
    pub bw_sat_threads: usize,
    /// Uncontended atomic read-modify-write cost, ns.
    pub atomic_ns: f64,
    /// Per-extra-contender multiplier on the atomic cost.
    pub atomic_contention: f64,
    /// Effective cost per byte pushed/popped on a sequential value stack, ns.
    pub stack_byte_ns: f64,
    /// Cost of one parallel-region barrier (pool fork/join), µs.
    pub barrier_us: f64,
    /// Per-tile dispatch overhead (scratch set-up, bounds resolution), ns.
    pub tile_dispatch_ns: f64,
    /// Per-point dispatch overhead of the per-point reference evaluator
    /// (`Lowering::PerPoint`, one register program op at a time), ns.
    pub interp_point_ns: f64,
    /// Per-point overhead of the vectorized register-IR row executor, ns.
    pub rows_point_ns: f64,
    /// Per-point overhead of JIT-compiled native tiles, ns. Native code
    /// has no op-dispatch loop at all — what remains is loop/call
    /// bookkeeping, well under the rows executor's per-op lane sweeps.
    pub jit_point_ns: f64,
    /// One out-of-process `rustc` build of a fused group, seconds. Paid
    /// only for cold fingerprints — the persistent artifact cache
    /// (`PERFORAD_JIT_CACHE`) amortises it to zero across runs, which is
    /// why [`crate::ScheduleShape::jit_cold_groups`] is a separate knob
    /// rather than folded into the per-point cost.
    pub jit_compile_s: f64,
    /// Memory the checkpointing layer may spend on live trajectory
    /// snapshots, bytes. Budgets whose working set exceeds this are
    /// infeasible to [`crate::predict_checkpoint`] — the knob that turns
    /// "how much RAM does this box have" into a snapshot-count ceiling.
    pub mem_budget_bytes: usize,
    /// Cost of moving one snapshot byte into or out of the snapshot
    /// store, ns/byte. Memcpy-grade for the in-memory store; set it to
    /// the storage device's effective rate when sweeps spill to disk.
    pub snapshot_cost: f64,
}

impl Machine {
    /// Bandwidth available at a given thread count (linear ramp, capped).
    pub fn bandwidth(&self, threads: usize) -> f64 {
        let t = threads.min(self.bw_sat_threads) as f64;
        (self.bw_single * t).min(self.bw_peak)
    }

    /// Compute throughput at a given thread count (no speedup beyond cores).
    pub fn flops(&self, threads: usize) -> f64 {
        self.flops_per_core * threads.min(self.cores) as f64
    }

    /// Cost of one atomic update when `threads` contend, ns.
    pub fn atomic_cost(&self, threads: usize) -> f64 {
        self.atomic_ns * (1.0 + self.atomic_contention * (threads.saturating_sub(1)) as f64)
    }
}

/// Dual-socket E5-2650 v4, restricted to one 12-core socket like the paper.
pub fn broadwell() -> Machine {
    Machine {
        name: "Broadwell (Xeon E5-2650 v4, 1 socket / 12 cores)",
        cores: 12,
        threads_max: 12,
        flops_per_core: 8.0,
        bw_single: 12.0,
        bw_peak: 65.0,
        bw_sat_threads: 8,
        atomic_ns: 12.0,
        atomic_contention: 1.3,
        stack_byte_ns: 0.35,
        barrier_us: 8.0,
        tile_dispatch_ns: 120.0,
        interp_point_ns: 16.0,
        rows_point_ns: 2.5,
        jit_point_ns: 0.6,
        jit_compile_s: 1.5,
        // 128 GiB per node; snapshots memcpy at roughly bw_single.
        mem_budget_bytes: 128 << 30,
        snapshot_cost: 0.1,
    }
}

/// Xeon Phi 7210 (64 cores, 256 hardware threads, MCDRAM).
pub fn knl() -> Machine {
    Machine {
        name: "KNL (Xeon Phi 7210, 64 cores / 256 threads)",
        cores: 64,
        threads_max: 256,
        flops_per_core: 2.8,
        bw_single: 7.0,
        bw_peak: 340.0,
        bw_sat_threads: 48,
        atomic_ns: 40.0,
        atomic_contention: 2.0,
        stack_byte_ns: 1.1,
        barrier_us: 60.0,
        tile_dispatch_ns: 400.0,
        interp_point_ns: 45.0,
        rows_point_ns: 6.0,
        jit_point_ns: 1.6,
        jit_compile_s: 4.0,
        // 16 GiB of MCDRAM — the budget that makes checkpointing bite.
        mem_budget_bytes: 16 << 30,
        snapshot_cost: 0.15,
    }
}

/// A description of this host for the "measured" series.
///
/// The snapshot-memory budget honours `PERFORAD_MEM_BUDGET_BYTES` when
/// set (CI runs the checkpoint suite under an address-space `ulimit` and
/// tells the model about it this way), defaulting to 2 GiB.
pub fn host(cores: usize) -> Machine {
    let mem_budget_bytes = std::env::var("PERFORAD_MEM_BUDGET_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2 << 30);
    Machine {
        name: "host",
        cores,
        threads_max: cores * 2,
        flops_per_core: 4.0,
        bw_single: 10.0,
        bw_peak: 20.0,
        bw_sat_threads: cores,
        atomic_ns: 15.0,
        atomic_contention: 1.2,
        stack_byte_ns: 0.5,
        // A std condvar fork/join on a handful of workers.
        barrier_us: 15.0,
        tile_dispatch_ns: 150.0,
        // Calibrated against measured rows-vs-interpreter serial speedups
        // (several-fold, ≈3–11× across kernels and runs): interpreter
        // dispatch dominates per-point cost, the row executor
        // amortises it away.
        interp_point_ns: 20.0,
        rows_point_ns: 3.0,
        // Calibrated against measurement: native fused groups run
        // several-fold under rows.
        jit_point_ns: 0.8,
        jit_compile_s: 1.5,
        // Containers and laptops: keep trajectory snapshots inside 2 GiB
        // unless overridden; snapshot copies run memcpy-grade.
        mem_budget_bytes,
        snapshot_cost: 0.1,
    }
}
