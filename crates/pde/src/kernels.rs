//! Statically generated kernels (Rust back-end output, produced at build
//! time by `build.rs` → `perforad-codegen`). These play the role of the
//! Intel-compiled C in the paper's setup, and they are the only numerical
//! check of `codegen::print_module`'s output (`tests/rows.rs`).
//!
//! These build-time kernels are the *oldest* corner of what is now a
//! five-stage pipeline — **schedule → tune → JIT → checkpoint →
//! execute** — frozen at the two shapes generated here:
//!
//! 1. **Schedule** (`perforad-sched`) — the adjoint's disjoint nests
//!    fuse into barrier-free groups and tile into cache blocks.
//! 2. **Tune** (`perforad-tune`) — the analytic model prunes the
//!    `Strategy × Lowering × TilePolicy × tile × fusion` space (plus
//!    the snapshot budget for time loops), the survivors are wall-clock
//!    timed, and the winner persists in the tuning cache.
//! 3. **JIT** (`perforad-jit`, `Lowering::Jit`) — the run-time
//!    generalisation of this module: *any* fused, tiled schedule (not
//!    just the two shapes frozen here) is emitted through the same
//!    `perforad-codegen` Rust back-end, compiled out-of-process by
//!    `rustc` into a `cdylib`, `dlopen`-loaded, and dispatched through
//!    the tile executors. Artifacts persist across processes
//!    (`PERFORAD_JIT_CACHE`); without a toolchain execution falls back
//!    to the register-IR row executor (`Lowering::Rows`), whose own
//!    reference is the per-point bytecode VM (`Lowering::PerPoint`) —
//!    every lowering must match it bitwise.
//! 4. **Checkpoint** (`perforad-ckpt`) — multi-step drivers (see
//!    [`crate::seismic`]) stream states from a memory-budgeted revolve
//!    plan rather than a densely stored trajectory; the executor never
//!    knows (or cares) whether a state was stored or recomputed.
//! 5. **Execute** (`perforad-exec`) — tile executors run each fusion
//!    group as one parallel region, dispatching per tile into
//!    native / rows / VM code.
//!
//! Every stage reports into the `perforad-obs` observability layer
//! (spans + metrics, enabled with `PERFORAD_TRACE=1`); these static
//! kernels remain the golden reference for the generated-code path and
//! the build-time counterpart of the JIT.

#[allow(dead_code)]
mod wave3d_gen {
    include!(concat!(env!("OUT_DIR"), "/wave3d_gen.rs"));
}

#[allow(dead_code)]
mod burgers_gen {
    include!(concat!(env!("OUT_DIR"), "/burgers_gen.rs"));
}

pub use burgers_gen::{burgers_adjoint, burgers_primal};
pub use wave3d_gen::{wave3d_adjoint, wave3d_primal};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{burgers, wave3d};
    use perforad_core::AdjointOptions;
    use perforad_exec::{compile_adjoint, compile_nest, run, ExecMode};

    #[test]
    fn static_wave_primal_matches_vm() {
        let n = 12usize;
        let (mut ws, bind) = wave3d::workspace(n, 0.1);
        let plan = compile_nest(&wave3d::nest(), &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();

        let (ws2, _) = wave3d::workspace(n, 0.1);
        let dims = [n, n, n];
        let mut u = vec![0.0; n * n * n];
        wave3d_primal(
            i64::MIN,
            i64::MAX,
            n as i64,
            0.1,
            &mut u,
            ws2.grid("c").as_slice(),
            ws2.grid("u_1").as_slice(),
            ws2.grid("u_2").as_slice(),
            &dims,
        );
        let reference = ws.grid("u").as_slice();
        for (a, b) in u.iter().zip(reference) {
            assert!((a - b).abs() < 1e-14, "{a} vs {b}");
        }
    }

    #[test]
    fn static_wave_adjoint_matches_vm() {
        let n = 12usize;
        let (mut ws, bind) = wave3d::workspace(n, 0.1);
        let adj = wave3d::nest()
            .adjoint(&wave3d::activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();

        let (ws2, _) = wave3d::workspace(n, 0.1);
        let dims = [n, n, n];
        let mut u1b = vec![0.0; n * n * n];
        let mut u2b = vec![0.0; n * n * n];
        wave3d_adjoint(
            i64::MIN,
            i64::MAX,
            n as i64,
            0.1,
            &mut u1b,
            &mut u2b,
            ws2.grid("c").as_slice(),
            ws2.grid("u_b").as_slice(),
            &dims,
        );
        for (a, b) in u1b.iter().zip(ws.grid("u_1_b").as_slice()) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
        for (a, b) in u2b.iter().zip(ws.grid("u_2_b").as_slice()) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
    }

    #[test]
    fn static_burgers_matches_vm() {
        let n = 128usize;
        let (mut ws, bind) = burgers::workspace(n, 0.3, 0.1);
        let plan = compile_nest(&burgers::nest(), &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();

        let (ws2, _) = burgers::workspace(n, 0.3, 0.1);
        let dims = [n];
        let mut u = vec![0.0; n];
        burgers_primal(
            i64::MIN,
            i64::MAX,
            n as i64,
            0.3,
            0.1,
            &mut u,
            ws2.grid("u_1").as_slice(),
            &dims,
        );
        for (a, b) in u.iter().zip(ws.grid("u").as_slice()) {
            assert!((a - b).abs() < 1e-14, "{a} vs {b}");
        }

        // Adjoint too.
        let adj = burgers::nest()
            .adjoint(&burgers::activity(), &AdjointOptions::default())
            .unwrap();
        let (mut wsa, _) = burgers::workspace(n, 0.3, 0.1);
        let plan_a = compile_adjoint(&adj, &wsa, &bind).unwrap();
        run(&plan_a, &mut wsa, ExecMode::serial()).unwrap();
        let mut u1b = vec![0.0; n];
        burgers_adjoint(
            i64::MIN,
            i64::MAX,
            n as i64,
            0.3,
            0.1,
            &mut u1b,
            ws2.grid("u_1").as_slice(),
            ws2.grid("u_b").as_slice(),
            &dims,
        );
        for (a, b) in u1b.iter().zip(wsa.grid("u_1_b").as_slice()) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
    }
}
