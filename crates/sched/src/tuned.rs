//! Tuner-selected schedule configurations.
//!
//! A [`TunedConfig`] is the pure-data description of one point in the
//! adjoint schedule space — parallel strategy × lowering × tile policy ×
//! tile edges × fusion on/off — as produced by the `perforad-tune`
//! autotuner and consumed by
//! [`SchedOptions::from_tuned`](crate::SchedOptions::from_tuned)
//! (compile-time half) and [`run_tuned`] (run-time half). It lives here
//! rather than in the tuner crate so the scheduler can accept it without
//! a dependency cycle.

use crate::error::SchedError;
use crate::schedule::{BoundSchedule, Schedule, TilePolicy};
use perforad_exec::{ExecStats, Lowering, Strategy, ThreadPool, Workspace};

/// Run-time half of a tuned configuration: how the compiled schedule is
/// driven (the compile-time half lives in
/// [`SchedOptions`](crate::SchedOptions)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TunedStrategy {
    /// Single thread, tile order — wins on problems too small to amortise
    /// a parallel region.
    Serial,
    /// Tiles distributed over a worker pool.
    #[default]
    Parallel,
}

/// One point of the adjoint schedule space, as selected by the tuner.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedConfig {
    /// Serial or pool-parallel execution.
    pub strategy: TunedStrategy,
    /// Per-point interpreter, vectorized register-IR rows, or JIT native
    /// code (rows when no module is registered).
    pub lowering: Lowering,
    /// Static (LPT) or dynamic (work-queue) tile assignment.
    pub policy: TilePolicy,
    /// Tile edges, one per nest dimension.
    pub tile: Vec<i64>,
    /// Whether conflict-free nests share parallel regions.
    pub fuse: bool,
    /// Worker count the configuration was tuned for (1 when serial).
    pub threads: usize,
    /// Snapshot budget for checkpointed time loops driving this
    /// schedule: `Some(b)` means "keep at most `b` trajectory snapshots
    /// live, recompute the rest" — the winner of the tuner's
    /// snapshot-count axis when a time loop was described
    /// (`TuneOptions::with_time_loop`), `None` for plain single-sweep
    /// tunings. Like `threads`, it is advice to the *driver* of the
    /// schedule (the checkpointed time loop), not a compile-time knob:
    /// [`SchedOptions::from_tuned`](crate::SchedOptions::from_tuned)
    /// ignores it.
    pub checkpoint: Option<usize>,
}

impl Default for TunedConfig {
    fn default() -> Self {
        TunedConfig {
            strategy: TunedStrategy::Parallel,
            lowering: Lowering::default(),
            policy: TilePolicy::default(),
            tile: Vec::new(),
            fuse: true,
            threads: 1,
            checkpoint: None,
        }
    }
}

impl TunedConfig {
    /// Compact one-line description for logs and bench output.
    pub fn describe(&self) -> String {
        let ckpt = match self.checkpoint {
            Some(b) => format!(" ckpt {b}"),
            None => String::new(),
        };
        format!(
            "{:?}/{:?}/{:?} tile {:?} fuse {}{ckpt} ({} threads)",
            self.strategy, self.lowering, self.policy, self.tile, self.fuse, self.threads
        )
    }

    /// The executor strategy this configuration's run-time half asks for:
    /// the calling thread alone, or `pool`.
    pub fn exec_strategy<'p>(&self, pool: &'p ThreadPool) -> Strategy<'p> {
        match self.strategy {
            TunedStrategy::Serial => Strategy::Serial,
            TunedStrategy::Parallel => Strategy::Parallel(pool),
        }
    }
}

/// Execute a schedule the way its tuned configuration asks: serially for
/// [`TunedStrategy::Serial`], on the pool otherwise. The schedule itself
/// must already have been compiled with
/// [`SchedOptions::from_tuned`](crate::SchedOptions::from_tuned) for the
/// tile/lowering/policy/fusion half of `cfg` to be in effect. Binds and
/// runs once; a time loop keeps a [`BoundSchedule`] instead.
pub fn run_tuned(
    schedule: &Schedule,
    cfg: &TunedConfig,
    ws: &mut Workspace,
    pool: &ThreadPool,
) -> Result<ExecStats, SchedError> {
    BoundSchedule::new(schedule, ws)?.run(schedule, ws, cfg.exec_strategy(pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SchedOptions;

    #[test]
    fn from_tuned_maps_every_compile_time_knob() {
        let cfg = TunedConfig {
            strategy: TunedStrategy::Serial,
            lowering: Lowering::Rows,
            policy: TilePolicy::Static,
            tile: vec![8, 128],
            fuse: false,
            threads: 4,
            checkpoint: Some(16),
        };
        let opts = SchedOptions::from_tuned(&cfg);
        assert_eq!(opts.tile.as_deref(), Some(&[8, 128][..]));
        assert_eq!(opts.policy, TilePolicy::Static);
        assert_eq!(opts.lowering, Lowering::Rows);
        assert!(!opts.fuse);
    }

    #[test]
    fn default_config_is_fused_parallel_interpreter() {
        let cfg = TunedConfig::default();
        assert_eq!(cfg.strategy, TunedStrategy::Parallel);
        assert!(cfg.fuse);
        assert_eq!(cfg.checkpoint, None, "no checkpointing unless tuned for");
        // The checkpoint budget is driver advice, not a compile-time knob.
        assert!(cfg.describe().contains("fuse true"));
        assert!(!cfg.describe().contains("ckpt"));
        let with_ckpt = TunedConfig {
            checkpoint: Some(8),
            ..cfg.clone()
        };
        assert!(with_ckpt.describe().contains("ckpt 8"));
        let opts = SchedOptions::from_tuned(&cfg);
        // An empty tile vector means "pick the rank default".
        assert_eq!(opts.tile, None);
    }
}
