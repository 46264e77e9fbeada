//! The instrumented run loop: `Driver::run`'s loop rebuilt from the same
//! public pieces (`DbmsSim`, `TxnGen`, `ArrivalProcess`,
//! `ExternalScheduler`, the `xsched-sim` accumulators), with a clock read
//! wherever control passes from one layer to another.
//!
//! One clock read closes the open segment and opens the next, so every
//! instant of the loop is billed to exactly one layer. Consecutive
//! simulator steps that hand nothing back (no completion, no external
//! arrival) stay inside one `dbms` segment without a clock read, which
//! keeps the timing cost per event small. The loop attaches a
//! `CountingSink` to the simulator for the per-kind event counts;
//! tracing is observational, so results stay bit-identical.

use std::time::Instant;
use xsched_core::driver::BM_BATCH_TXNS;
use xsched_core::{
    ExternalScheduler, Fifo, PolicyKind, PriorityFifo, QueuePolicy, QueuedTxn, RunConfig,
    RunResult, Sjf, WeightedFair,
};
use xsched_dbms::{Completion, CountingSink, DbmsSim, PageId, Priority, StepOutcome, TraceEvent};
use xsched_obs::LogHistogram;
use xsched_sim::{BatchMeans, SampleSet, SimRng, SimTime, Welford};
use xsched_workload::{ArrivalProcess, Setup, TxnGen};

/// Host seconds per layer of one instrumented run, plus its counts.
#[derive(Debug, Clone, Default)]
pub struct LoopTimes {
    /// Building the simulator, warming its buffer pool, seeding arrivals.
    pub dbms_init: f64,
    /// `DbmsSim::{step, drain_completions_into, submit, schedule_external}`.
    pub dbms_step: f64,
    /// `TxnGen::next`.
    pub txn_gen: f64,
    /// `ArrivalProcess::next_delay`.
    pub arrivals: f64,
    /// `ExternalScheduler::{enqueue, dispatch, complete}`.
    pub scheduler: f64,
    /// The measurement accumulators and the final result assembly.
    pub stats: f64,
    /// `TxnGen::next` calls.
    pub txns: u64,
    /// Largest external-queue backlog after a dispatch round.
    pub peak_queue: usize,
    /// Simulator events processed.
    pub events: u64,
    /// Trace events by kind (`CountingSink::by_kind`).
    pub by_kind: [u64; TraceEvent::KINDS],
}

/// Segment clock: each `lap` returns the seconds since the previous one.
struct Clock(Instant);

impl Clock {
    #[inline]
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let d = now.duration_since(self.0).as_secs_f64();
        self.0 = now;
        d
    }
}

fn make_policy(setup: &Setup, kind: PolicyKind) -> Box<dyn QueuePolicy> {
    match kind {
        PolicyKind::Fifo => Box::new(Fifo::new()),
        PolicyKind::Priority => Box::new(PriorityFifo::new()),
        PolicyKind::Sjf => Box::new(Sjf::new(setup.hw.disk_read_time)),
        PolicyKind::WeightedFair => Box::new(WeightedFair::new(0.5)),
    }
}

/// Run one fixed-MPL measurement exactly as `Driver::run(mpl, kind,
/// arrivals)` does for `(setup, rc)`, timing each layer. Returns the
/// same `RunResult` (checked bit for bit by the caller) and the times.
pub fn instrumented_run(
    setup: &Setup,
    rc: &RunConfig,
    mpl: u32,
    kind: PolicyKind,
    arrivals: &ArrivalProcess,
) -> (RunResult, LoopTimes) {
    let mut t = LoopTimes::default();
    let mut clock = Clock(Instant::now());

    let mut sim = DbmsSim::with_trace(
        setup.hw.clone(),
        setup.cfg.clone(),
        rc.seed,
        CountingSink::default(),
    );
    if rc.warm_pool {
        let n = setup.hw.bufferpool_pages.min(setup.workload.db_pages);
        sim.warm_bufferpool((0..n).rev().map(PageId));
    }
    let mut gen = TxnGen::new(setup.workload.clone(), rc.seed).with_high_fraction(rc.high_fraction);
    let mut sched = ExternalScheduler::new(make_policy(setup, kind), mpl);
    let mut arr_rng = SimRng::derive(rc.seed, "arrivals");
    match arrivals {
        ArrivalProcess::Closed { clients, .. } => {
            for _ in 0..*clients {
                let d = arrivals.next_delay(&mut arr_rng);
                sim.schedule_external(SimTime::from_secs_f64(d), 0);
            }
        }
        ArrivalProcess::Open { .. } => {
            let d = arrivals.next_delay(&mut arr_rng);
            sim.schedule_external(SimTime::from_secs_f64(d), 0);
        }
    }
    let open = !arrivals.is_closed();

    let mut completed: u64 = 0;
    let mut measuring = false;
    let mut meas_start_t = 0.0;
    let mut meas_end_t = 0.0;
    let mut rt_all = Welford::new();
    let mut rt_bm = BatchMeans::new(BM_BATCH_TXNS);
    let mut rt_hi = Welford::new();
    let mut rt_lo = Welford::new();
    let mut ext_wait = Welford::new();
    let mut lock_wait = Welford::new();
    let mut samples = SampleSet::new();
    let mut rt_hist = LogHistogram::new();
    let mut aborts_at_meas_start = 0u64;
    let mut completions: Vec<Completion> = Vec::new();
    t.dbms_init += clock.lap();

    // Admit from the external queue until the gate closes, billing the
    // scheduler's `dispatch` and the simulator's `submit` separately.
    macro_rules! dispatch_round {
        () => {
            loop {
                let q = sched.dispatch();
                t.scheduler += clock.lap();
                let Some(q) = q else { break };
                sim.submit(q.body, q.arrival);
                t.dbms_step += clock.lap();
            }
            t.peak_queue = t.peak_queue.max(sched.queue_len());
        };
    }

    'outer: loop {
        match sim.step() {
            StepOutcome::Idle => {
                t.dbms_step += clock.lap();
                break;
            }
            StepOutcome::External(_) => {
                t.dbms_step += clock.lap();
                let body = gen.next();
                t.txns += 1;
                t.txn_gen += clock.lap();
                let now = sim.now();
                sched.enqueue(QueuedTxn { body, arrival: now });
                t.scheduler += clock.lap();
                dispatch_round!();
                if open {
                    let d = arrivals.next_delay(&mut arr_rng);
                    t.arrivals += clock.lap();
                    sim.schedule_external(SimTime::from_secs_f64(sim.now() + d), 0);
                    t.dbms_step += clock.lap();
                }
            }
            StepOutcome::Advanced => {
                sim.drain_completions_into(&mut completions);
                if completions.is_empty() {
                    continue;
                }
                t.dbms_step += clock.lap();
                for c in completions.drain(..) {
                    completed += 1;
                    sched.complete();
                    t.scheduler += clock.lap();
                    if !open {
                        let d = arrivals.next_delay(&mut arr_rng);
                        t.arrivals += clock.lap();
                        sim.schedule_external(SimTime::from_secs_f64(sim.now() + d), 0);
                        t.dbms_step += clock.lap();
                    }
                    if !measuring
                        && completed >= rc.warmup_txns
                        && c.completed >= rc.min_warmup_time
                    {
                        measuring = true;
                        meas_start_t = c.completed;
                        aborts_at_meas_start = sim.metrics().aborts;
                    } else if measuring {
                        let rt = c.response_time();
                        rt_all.push(rt);
                        rt_bm.push(rt);
                        samples.push(rt);
                        rt_hist.record(rt);
                        ext_wait.push(c.external_wait());
                        lock_wait.push(c.lock_wait);
                        match c.priority {
                            Priority::High => rt_hi.push(rt),
                            Priority::Low => rt_lo.push(rt),
                        }
                        meas_end_t = c.completed;
                    }
                    t.stats += clock.lap();
                    if rt_all.count() >= rc.measured_txns {
                        break 'outer;
                    }
                }
                dispatch_round!();
            }
        }
        if sim.now() > rc.max_sim_time {
            t.dbms_step += clock.lap();
            break;
        }
    }

    t.events = sim.events_processed();
    let metrics = sim.metrics();
    let span = (meas_end_t - meas_start_t).max(1e-9);
    let measured = rt_all.count();
    let result = RunResult {
        mpl,
        throughput: measured as f64 / span,
        mean_rt: rt_all.mean(),
        rt_high: rt_hi.mean(),
        rt_low: rt_lo.mean(),
        count_high: rt_hi.count(),
        count_low: rt_lo.count(),
        p95_rt: samples.percentile(0.95),
        rt_p95: rt_hist.quantile(0.95),
        rt_p99: rt_hist.quantile(0.99),
        c2_rt: rt_all.c2(),
        rt_bm_half_width: rt_bm.ci(0.95).half_width,
        mean_external_wait: ext_wait.mean(),
        mean_lock_wait: lock_wait.mean(),
        aborts_per_txn: if measured == 0 {
            0.0
        } else {
            (metrics.aborts.saturating_sub(aborts_at_meas_start)) as f64 / measured as f64
        },
        metrics,
    };
    t.by_kind = sim.into_trace().by_kind;
    t.stats += clock.lap();
    (result, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsched_core::shard::encode_outcome;
    use xsched_core::{Driver, ScenarioOutcome};
    use xsched_workload::setup;

    fn same_run(id: u32, mpl: u32, kind: PolicyKind, arrivals: ArrivalProcess) {
        let rc = RunConfig {
            warmup_txns: 50,
            measured_txns: 300,
            seed: 9,
            ..RunConfig::default()
        };
        let driver = Driver::new(setup(id)).with_config(rc.clone());
        let expected = driver.run(mpl, kind, &arrivals);
        let (got, times) = instrumented_run(&setup(id), &rc, mpl, kind, &arrivals);
        assert_eq!(
            encode_outcome(&ScenarioOutcome::Run(got)),
            encode_outcome(&ScenarioOutcome::Run(expected))
        );
        assert_eq!(times.events, driver.events_processed());
        assert!(times.dbms_step > 0.0 && times.txns > 0);
    }

    #[test]
    fn closed_fifo_run_matches_the_driver_bit_for_bit() {
        same_run(1, 5, PolicyKind::Fifo, ArrivalProcess::saturated(100));
    }

    #[test]
    fn open_priority_run_matches_the_driver_bit_for_bit() {
        same_run(11, 4, PolicyKind::Priority, ArrivalProcess::open(40.0));
    }
}
