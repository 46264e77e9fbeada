//! One untraced pass over a workload's plan through `SweepExecutor`.

use crate::workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use xsched_core::shard::encode_outcome;
use xsched_core::{MeasurementCache, ScenarioOutcome, ShardResult, SweepExecutor};

/// Digest of one cell's outcome: FNV-1a over the library's bit-exact
/// outcome encoding, which writes every float as its IEEE bit pattern.
pub fn outcome_digest(outcome: &ScenarioOutcome) -> u64 {
    encode_outcome(outcome)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// What one pass over a plan produced and cost.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds from the start of set-up to the first cell starting.
    pub setup_s: f64,
    /// Host seconds for the pass itself.
    pub wall_s: f64,
    /// Per task: host seconds of the cell (`ShardResult.timings`).
    pub cell_s: Vec<f64>,
    /// Per task: the outcome digest, `None` when the cell has no outcome.
    pub digests: Vec<Option<u64>>,
    /// Per task: the outcome itself.
    pub outcomes: Vec<Option<ScenarioOutcome>>,
    /// Per task: simulator events net of reference runs.
    pub net_events: Vec<u64>,
    /// Simulator events of the pass, reference runs included.
    pub events: u64,
    /// Host seconds spent computing reference (capacity) runs.
    pub ref_s: f64,
    /// Measurement-cache hits and misses during the pass.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
}

impl Pass {
    /// Cells of the pass without an outcome.
    pub fn missing(&self) -> usize {
        self.digests.iter().filter(|d| d.is_none()).count()
    }

    /// Σ cell seconds.
    pub fn busy_s(&self) -> f64 {
        self.cell_s.iter().sum()
    }

    /// Fold a shard result (full coverage expected) into per-task vectors.
    pub fn from_shard(n: usize, shard: ShardResult, setup_s: f64, wall_s: f64) -> Pass {
        let mut pass = Pass {
            setup_s,
            wall_s,
            cell_s: vec![0.0; n],
            digests: vec![None; n],
            outcomes: vec![None; n],
            net_events: vec![0; n],
            events: 0,
            ref_s: shard.ref_timings.iter().map(|&(_, s)| s).sum(),
            cache_hits: 0,
            cache_misses: 0,
        };
        for (t, o) in shard.entries {
            pass.digests[t] = Some(outcome_digest(&o));
            pass.outcomes[t] = Some(o);
        }
        for (t, s) in shard.timings {
            pass.cell_s[t] = s;
        }
        for (t, e) in shard.events {
            pass.net_events[t] = e;
            pass.events += e;
        }
        pass.events += shard.ref_events.iter().map(|&(_, e)| e).sum::<u64>();
        pass
    }

    /// A pass without outcomes (every cell counts as missing) — a sweep
    /// that panicked, or the frame a coordinated pass fills in.
    pub fn empty(n: usize, setup_s: f64, wall_s: f64) -> Pass {
        Pass::from_shard(
            n,
            ShardResult {
                shard: 0,
                of: 1,
                plan_fingerprint: 0,
                task_count: n,
                entries: Vec::new(),
                failures: Vec::new(),
                timings: Vec::new(),
                ref_timings: Vec::new(),
                events: Vec::new(),
                ref_events: Vec::new(),
            },
            setup_s,
            wall_s,
        )
    }
}

/// The set-up a direct pass does before its first cell: build the plan,
/// a fresh measurement cache and the executor.
pub fn direct_setup(
    w: Workload,
    seed: u64,
    threads: usize,
) -> (xsched_core::SweepPlan, Arc<MeasurementCache>, SweepExecutor) {
    let plan = w.plan(seed);
    let cache = MeasurementCache::shared();
    let exec = if threads <= 1 {
        SweepExecutor::serial()
    } else {
        SweepExecutor::parallel(threads)
    }
    .with_cache(Arc::clone(&cache));
    (plan, cache, exec)
}

/// One pass over `w`'s plan on a `threads`-worker `SweepExecutor`, with
/// a fresh measurement cache (so every pass pays the same capacity runs).
/// A panic anywhere in the sweep fails every cell of the pass.
pub fn direct_pass(w: Workload, seed: u64, threads: usize) -> Pass {
    let t0 = Instant::now();
    let (plan, cache, exec) = direct_setup(w, seed, threads);
    let setup_s = t0.elapsed().as_secs_f64();
    let n = plan.task_count();
    let t1 = Instant::now();
    let shard = catch_unwind(AssertUnwindSafe(|| exec.run_shard(&plan, 0, 1)));
    let wall_s = t1.elapsed().as_secs_f64();
    match shard {
        Ok(shard) => {
            let mut pass = Pass::from_shard(n, shard, setup_s, wall_s);
            pass.cache_hits = cache.hits();
            pass.cache_misses = cache.misses();
            pass
        }
        Err(_) => Pass::empty(n, setup_s, wall_s),
    }
}
