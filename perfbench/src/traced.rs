//! The traced run (`--trace 1`): cross-checks, one traced pass, and the
//! per-layer metrics.
//!
//! Order of work:
//! 1. a one-thread pass (which also warms the process up);
//! 2. the reference pass (direct, two threads; pinned on the default
//!    seed), which the one-thread pass must match cell for cell — also
//!    the untraced baseline of `obs.trace_overhead`;
//! 3. the traced pass. Run cells go through the instrumented loop, whose
//!    `RunResult` and event count must equal the untraced cell's;
//!    controller cells time the reference, the jump-start (recomposed
//!    from its two queueing models, checked against
//!    `ControllerOutcome::jumpstart_mpl`) and the session;
//! 4. on `tput_sweep`, one coordinated pass of the same plan (checked
//!    against the direct run), for the coord layer's numbers.
//!
//! Spans live in memory and are written to `perfbench/out/` at the end.

use crate::coordpass::{coord_pass, rpc_floor_error, WORKERS};
use crate::pass::{direct_pass, outcome_digest};
use crate::probe::{instrumented_run, LoopTimes};
use crate::report::{quantile, Report};
use crate::workloads::Workload;
use crate::{mismatches, reference_pass, Args, THREADS};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xsched_core::{
    ArrivalSpec, CostModel, Driver, ExecSpec, MeasurementCache, MplSpec, RunConfig, Scenario,
    ScenarioOutcome, SweepPlan,
};
use xsched_dbms::TraceEvent;
use xsched_queueing::{min_mpl_for_response_time, min_mpl_for_throughput, ThroughputModel, H2};
use xsched_workload::ArrivalProcess;

/// One recorded span. Loop-layer spans are aggregates: one record per
/// (cell, layer) whose `busy` sums every call of that layer in the cell
/// (`calls` of them) between the loop's first and last instant.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id: `cell << 8 | ordinal`.
    pub id: u64,
    /// The span that caused this one (`None` for a cell).
    pub parent: Option<u64>,
    /// Task index of the cell every span of a cell shares.
    pub cell: usize,
    /// Worker thread that ran it.
    pub worker: usize,
    /// Layer-qualified name, e.g. `dbms.step`.
    pub name: &'static str,
    /// Seconds since the traced pass started.
    pub start: f64,
    /// See `start`.
    pub end: f64,
    /// Time the span covers: `end - start`, or the summed call time of an
    /// aggregate span.
    pub busy: f64,
    /// Calls folded into the span (1 for a plain span).
    pub calls: u64,
}

/// A worker's span recorder.
struct Tracer {
    origin: Instant,
    worker: usize,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record a plain span; returns its id.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        cell: usize,
        ordinal: u64,
        parent: Option<u64>,
        name: &'static str,
        start: f64,
        end: f64,
        busy: f64,
        calls: u64,
    ) -> u64 {
        let id = (cell as u64) << 8 | ordinal;
        self.spans.push(Span {
            id,
            parent,
            cell,
            worker: self.worker,
            name,
            start,
            end,
            busy,
            calls,
        });
        id
    }

    /// Time `f` as a plain span.
    fn time<R>(
        &mut self,
        cell: usize,
        ordinal: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let start = self.now();
        let r = f(self);
        let end = self.now();
        self.push(cell, ordinal, parent, name, start, end, end - start, 1);
        r
    }
}

/// What a traced cell reports for the fidelity checks.
enum CellCheck {
    /// A run cell: the instrumented loop's outcome and times.
    Run(ScenarioOutcome, Box<LoopTimes>),
    /// A controller cell: the recomposed jump-start and the session.
    Controller { jump: u32, outcome: ScenarioOutcome },
}

/// Resolve a run cell's MPL exactly as `Scenario` does.
fn fixed_mpl(scenario: &Scenario, mpl: &MplSpec) -> u32 {
    match mpl {
        MplSpec::Fixed(m) => *m,
        MplSpec::Unlimited => scenario.setup.clients,
        MplSpec::AtLoss(_) => unreachable!("no benchmark workload searches the MPL"),
    }
}

fn traced_cell(
    plan: &SweepPlan,
    t: usize,
    cache: &Arc<MeasurementCache>,
    tr: &mut Tracer,
) -> CellCheck {
    let (si, seed) = plan.tasks()[t];
    let scenario = &plan.scenarios[si];
    let rc = RunConfig {
        seed,
        ..scenario.rc.clone()
    };
    let driver = Driver::new(scenario.setup.clone())
        .with_config(rc.clone())
        .with_cache(Arc::clone(cache));
    let cell_start = tr.now();
    let cell_id = (t as u64) << 8;
    let check = match &scenario.exec {
        ExecSpec::Run {
            mpl,
            policy,
            arrivals,
        } => {
            let arr = match arrivals {
                ArrivalSpec::Saturated => driver.saturated(),
                ArrivalSpec::ClosedThink(mean) => {
                    ArrivalProcess::closed(scenario.setup.clients, *mean)
                }
                ArrivalSpec::OpenRate(rate) => ArrivalProcess::open(*rate),
                ArrivalSpec::OpenLoad(load) => {
                    let reference = tr.time(t, 1, Some(cell_id), "cache.reference", |_| {
                        driver.reference()
                    });
                    ArrivalProcess::open(load * reference.throughput)
                }
            };
            let m = fixed_mpl(scenario, mpl);
            let loop_start = tr.now();
            let (result, times) = instrumented_run(&scenario.setup, &rc, m, *policy, &arr);
            let loop_end = tr.now();
            let layers: [(&'static str, f64, u64); 6] = [
                ("dbms.init", times.dbms_init, 1),
                ("dbms.step", times.dbms_step, times.events),
                ("workload.txn_gen", times.txn_gen, times.txns),
                ("workload.arrivals", times.arrivals, times.txns),
                ("scheduler", times.scheduler, times.txns),
                ("sim.stats", times.stats, times.txns),
            ];
            for (k, (name, busy, calls)) in layers.into_iter().enumerate() {
                tr.push(
                    t,
                    2 + k as u64,
                    Some(cell_id),
                    name,
                    loop_start,
                    loop_end,
                    busy,
                    calls,
                );
            }
            CellCheck::Run(ScenarioOutcome::Run(result), Box::new(times))
        }
        ExecSpec::Controller { targets, start } => {
            let reference = tr.time(t, 1, Some(cell_id), "cache.reference", |_| {
                driver.reference()
            });
            // `MplController::jumpstart`'s five lines, with its two
            // model calls timed separately.
            let jump_id = cell_id | 2;
            let jump = tr.time(t, 2, Some(cell_id), "queueing.jumpstart", |tr| {
                let setup = &scenario.setup;
                let utils = reference.utilizations(setup.hw.cpus);
                let io_cost = setup.hw.disk_read_time * (1.0 - reference.metrics.hit_ratio());
                let (dmean, dc2) = setup.workload.intrinsic_demand_stats(io_cost);
                let max_mpl = setup.clients;
                let tput_mpl = tr.time(t, 3, Some(jump_id), "queueing.tput_model", |_| {
                    let model = ThroughputModel::from_utilizations(&utils);
                    min_mpl_for_throughput(&model, 1.0 - targets.max_tput_loss)
                });
                let rt_mpl = tr.time(t, 4, Some(jump_id), "queueing.rt_model", |_| {
                    let rho = (reference.throughput * dmean).min(0.95);
                    let h2 = H2::fit(dmean, dc2.max(1.0));
                    min_mpl_for_response_time(h2, rho / dmean, targets.max_rt_increase, max_mpl)
                });
                tput_mpl.max(rt_mpl).min(max_mpl)
            });
            let out = tr.time(t, 5, Some(cell_id), "controller.session", |_| {
                driver.run_controller_with_start(*targets, *start)
            });
            CellCheck::Controller {
                jump,
                outcome: ScenarioOutcome::Controller(out),
            }
        }
        other => unreachable!("no benchmark workload runs {other:?}"),
    };
    let end = tr.now();
    tr.push(t, 0, None, "cell", cell_start, end, end - cell_start, 1);
    check
}

/// One traced worker's spans and per-cell checks.
type WorkerTrace = (Vec<Span>, Vec<(usize, CellCheck)>);

/// The traced pass over a direct workload: two workers claim cells in
/// the executor's order (predicted cost, longest first) and trace each.
fn traced_pass(plan: &SweepPlan) -> (f64, Vec<Span>, Vec<(usize, CellCheck)>) {
    let model = CostModel::structural();
    let tasks = plan.tasks();
    let cost: Vec<f64> = tasks
        .iter()
        .map(|&(si, seed)| {
            let s = &plan.scenarios[si];
            model.predict(s)
                + CostModel::capacity_group(s, seed).map_or(0.0, |_| model.capacity_cost(s))
        })
        .collect();
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| cost[b].total_cmp(&cost[a]).then(a.cmp(&b)));

    let cache = MeasurementCache::shared();
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let per_worker: Vec<WorkerTrace> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let (order, next, cache) = (&order, &next, &cache);
                s.spawn(move || {
                    let mut tr = Tracer {
                        origin,
                        worker,
                        spans: Vec::new(),
                    };
                    let mut checks = Vec::new();
                    while let Some(&t) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        checks.push((t, traced_cell(plan, t, cache, &mut tr)));
                    }
                    (tr.spans, checks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    let (mut spans, mut checks) = (Vec::new(), Vec::new());
    for (s, c) in per_worker {
        spans.extend(s);
        checks.extend(c);
    }
    (wall, spans, checks)
}

/// Self time per span name: a span's time minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_busy: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_busy.entry(p).or_default() += s.busy;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.busy - child_busy.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own;
    }
    out
}

fn write_spans(w: Workload, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut f = std::io::BufWriter::new(f);
            for s in spans {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    f,
                    "{{\"id\": {}, \"parent\": {parent}, \"cell\": {}, \"worker\": {}, \
                     \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}, \"busy\": {:?}, \
                     \"calls\": {}}}",
                    s.id, s.cell, s.worker, s.name, s.start, s.end, s.busy, s.calls
                )?;
            }
            f.flush()
        });
    match written {
        Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
        Err(e) => eprintln!(
            "[perfbench] could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn kind_index(name: &str) -> usize {
    (0..TraceEvent::KINDS)
        .find(|&k| TraceEvent::kind_name(k) == name)
        .expect("trace event kind exists")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bounds on `trace.accounted_ratio` outside which the traced run fails:
/// its layer self times plus idle time must account for threads × wall
/// to within 10%.
const ACCOUNTED_MIN: f64 = 0.9;
/// See [`ACCOUNTED_MIN`].
const ACCOUNTED_MAX: f64 = 1.1;

/// The traced run. See the module docs for the order of work.
pub fn run(args: &Args) -> Report {
    let w = args.workload;
    // The one-thread pass goes first: it warms the process up, so the
    // two-thread reference pass is a warm baseline for the overhead.
    let serial = direct_pass(w, args.seed, 1);
    let (reference, mut failed) = reference_pass(args);
    let n = reference.digests.len();
    let mut attempted = 2 * n;
    let mut correct = true;
    let bad = mismatches(&serial, &reference.digests);
    if bad > 0 {
        eprintln!("[perfbench] threads 1 differs from threads 2 on {bad} cells");
    }
    failed += bad;

    // `tput_sweep` also serves its plan once through the coordinator,
    // which measures the coord layer on the same cells. The pass is
    // checked: worker errors, the RPC floor, and cell-for-cell identity
    // with the direct run.
    let coord = (w == Workload::TputSweep).then(|| {
        let cp = coord_pass(w, args.seed, 0);
        for e in cp.errors.iter().chain(rpc_floor_error(&cp).iter()) {
            eprintln!("[perfbench] coordinated pass: {e}");
            correct = false;
        }
        let bad = mismatches(&cp.pass, &reference.digests);
        if bad > 0 {
            eprintln!("[perfbench] coordinated run differs from direct on {bad} cells");
        }
        failed += bad;
        attempted += n;
        cp
    });
    let plan = w.plan(args.seed);
    let (traced_wall, spans, checks) = traced_pass(&plan);
    attempted += n;
    let mut bad = 0;
    let mut loops: Vec<LoopTimes> = Vec::new();
    for (t, check) in checks {
        let ok = match check {
            CellCheck::Run(outcome, times) => {
                let same = Some(outcome_digest(&outcome)) == reference.digests[t]
                    && times.events == reference.net_events[t];
                loops.push(*times);
                same
            }
            CellCheck::Controller { jump, outcome } => {
                let session_jump = match &outcome {
                    ScenarioOutcome::Controller(c) => c.jumpstart_mpl,
                    _ => unreachable!("controller cells yield controller outcomes"),
                };
                jump == session_jump && Some(outcome_digest(&outcome)) == reference.digests[t]
            }
        };
        if !ok {
            bad += 1;
        }
    }
    if bad > 0 {
        eprintln!("[perfbench] traced run differs from untraced on {bad} cells");
    }
    failed += bad;

    write_spans(w, args.seed, &spans);
    let selfs = self_times(&spans);
    let st = |name: &str| selfs.get(name).copied().unwrap_or(0.0);

    // The untraced pass's sweep numbers.
    let busy = reference.busy_s();
    let sweep_capacity = THREADS as f64 * reference.wall_s;
    let idle = (sweep_capacity - busy).max(0.0);
    // Accounting: the traced pass's layer self times plus the untraced
    // pass's idle time (measured apart, from `ShardResult.timings`)
    // against threads × traced wall. The benchmark's glue between spans
    // and any idle time the traced pass adds are what it leaves out.
    let capacity = THREADS as f64 * traced_wall;
    let layer_self: f64 = selfs
        .iter()
        .filter(|(name, _)| **name != "cell")
        .map(|(_, v)| v)
        .sum();
    let accounted = ratio(layer_self + idle, capacity);
    if !(ACCOUNTED_MIN..=ACCOUNTED_MAX).contains(&accounted) {
        eprintln!(
            "[perfbench] layer self times plus idle account for {accounted:.3} of \
             threads x wall, outside [{ACCOUNTED_MIN}, {ACCOUNTED_MAX}]"
        );
        correct = false;
    }
    let cell_busy: f64 = spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.busy)
        .sum();

    // Fold the outcome-derived counts over the reference pass's run cells.
    let outcomes: Vec<&ScenarioOutcome> = reference.outcomes.iter().flatten().collect();
    let runs: Vec<_> = outcomes.iter().filter_map(|o| o.as_run()).collect();
    let ctls: Vec<_> = outcomes.iter().filter_map(|o| o.as_controller()).collect();
    let commits: f64 = runs.iter().map(|r| r.metrics.commits as f64).sum();
    let aborts: f64 = runs.iter().map(|r| r.metrics.aborts as f64).sum();
    let bp_hits: f64 = runs.iter().map(|r| r.metrics.bp_hits as f64).sum();
    let bp_misses: f64 = runs.iter().map(|r| r.metrics.bp_misses as f64).sum();
    let run_events: f64 = reference
        .outcomes
        .iter()
        .zip(&reference.net_events)
        .filter(|(o, _)| o.as_ref().is_some_and(|o| o.as_run().is_some()))
        .map(|(_, &e)| e as f64)
        .sum();
    let loop_events: f64 = loops.iter().map(|l| l.events as f64).sum();
    let loop_txns: f64 = loops.iter().map(|l| l.txns as f64).sum();
    let loop_commits: f64 = loops
        .iter()
        .map(|l| l.by_kind[kind_index("commit")] as f64)
        .sum();
    let kind_total = |name: &str| -> f64 {
        loops
            .iter()
            .map(|l| l.by_kind[kind_index(name)] as f64)
            .sum()
    };
    let windows: f64 = ctls.iter().map(|c| f64::from(c.iterations)).sum();
    let discarded: f64 = ctls.iter().map(|c| f64::from(c.discarded_windows)).sum();
    let jump_spans: f64 =
        st("queueing.jumpstart") + st("queueing.tput_model") + st("queueing.rt_model");
    // The session repeats the jump-start internally; the loop is what
    // remains once the separately timed jump-start is taken out.
    let loop_s = (st("controller.session") - jump_spans).max(0.0);

    let (rpcs, rpc_s, rpc_ms, worker_idle, expired, reconnects) = match &coord {
        Some(cp) => {
            let all: Vec<_> = cp.rpcs.iter().flatten().collect();
            let ms: Vec<f64> = all.iter().map(|r| (r.end - r.start) * 1e3).collect();
            (
                all.len() as f64,
                all.iter().map(|r| r.end - r.start).sum::<f64>(),
                ms,
                WORKERS as f64 * cp.pass.wall_s - cp.pass.busy_s(),
                cp.leases_expired as f64,
                cp.reconnects as f64,
            )
        }
        None => (0.0, 0.0, Vec::new(), 0.0, 0.0, 0.0),
    };
    eprintln!(
        "[perfbench] traced pass {traced_wall:.3}s vs untraced {:.3}s on {THREADS} threads; \
         self time by span:",
        reference.wall_s
    );
    for (name, v) in &selfs {
        eprintln!(
            "    {name:<22} {v:>10.4}s  {:>6.1}%",
            100.0 * ratio(*v, capacity)
        );
    }
    eprintln!(
        "    {:<22} {idle:>10.4}s  {:>6.1}%",
        "(untraced idle)",
        100.0 * ratio(idle, capacity)
    );

    let mut r = Report {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    r.metric("sim.events", reference.events as f64, "count");
    r.metric("sim.events_per_commit", ratio(run_events, commits), "ratio");
    r.metric("sim.stats_s", st("sim.stats"), "s");
    r.metric("dbms.step_s", st("dbms.step"), "s");
    r.metric(
        "dbms.step_share",
        ratio(st("dbms.step"), cell_busy),
        "ratio",
    );
    r.metric("dbms.init_s", st("dbms.init"), "s");
    r.metric(
        "dbms.ns_per_event",
        1e9 * ratio(st("dbms.step"), loop_events),
        "ns",
    );
    r.metric("dbms.abort_ratio", ratio(aborts, commits + aborts), "ratio");
    r.metric(
        "dbms.lock_waits_per_commit",
        ratio(kind_total("lock_wait"), loop_commits),
        "ratio",
    );
    r.metric(
        "dbms.disk_ios_per_commit",
        ratio(kind_total("disk_io"), loop_commits),
        "ratio",
    );
    r.metric(
        "dbms.bp_hit_ratio",
        ratio(bp_hits, bp_hits + bp_misses),
        "ratio",
    );
    r.metric("workload.txn_gen_s", st("workload.txn_gen"), "s");
    r.metric(
        "workload.ns_per_txn",
        1e9 * ratio(st("workload.txn_gen"), loop_txns),
        "ns",
    );
    r.metric("workload.arrivals_s", st("workload.arrivals"), "s");
    r.metric("scheduler.s", st("scheduler"), "s");
    r.metric(
        "scheduler.peak_queue",
        loops.iter().map(|l| l.peak_queue).max().unwrap_or(0) as f64,
        "count",
    );
    r.metric(
        "scheduler.ext_wait",
        ratio(
            runs.iter().map(|r| r.mean_external_wait).sum(),
            runs.len() as f64,
        ),
        "s",
    );
    r.metric("queueing.jumpstart_s", jump_spans, "s");
    r.metric(
        "queueing.jumpstart_share",
        ratio(jump_spans, cell_busy - jump_spans),
        "ratio",
    );
    r.metric("queueing.rt_model_s", st("queueing.rt_model"), "s");
    r.metric("queueing.tput_model_s", st("queueing.tput_model"), "s");
    r.metric("controller.loop_s", loop_s, "s");
    r.metric("controller.windows", windows, "count");
    r.metric(
        "controller.discard_ratio",
        ratio(discarded, windows + discarded),
        "ratio",
    );
    r.metric("cache.hits", reference.cache_hits as f64, "count");
    r.metric("cache.misses", reference.cache_misses as f64, "count");
    r.metric(
        "cache.hit_ratio",
        ratio(
            reference.cache_hits as f64,
            (reference.cache_hits + reference.cache_misses) as f64,
        ),
        "ratio",
    );
    r.metric("cache.ref_s", reference.ref_s, "s");
    r.metric("sweep.busy_s", busy, "s");
    r.metric("sweep.utilization", ratio(busy, sweep_capacity), "ratio");
    r.metric("sweep.idle_s", idle, "s");
    r.metric("coord.rpcs", rpcs, "count");
    r.metric("coord.rpcs_per_task", ratio(rpcs, n as f64), "ratio");
    r.metric("coord.rpc_s", rpc_s, "s");
    r.metric("coord.rpc_p50_ms", quantile(&rpc_ms, 0.5), "ms");
    r.metric("coord.rpc_p99_ms", quantile(&rpc_ms, 0.99), "ms");
    r.metric("coord.worker_idle_s", worker_idle.max(0.0), "s");
    r.metric("coord.leases_expired", expired, "count");
    r.metric("coord.reconnects", reconnects, "count");
    r.metric(
        "obs.trace_overhead",
        ratio(traced_wall - reference.wall_s, reference.wall_s),
        "ratio",
    );
    r.metric("trace.wall_s", traced_wall, "s");
    r.metric("trace.accounted_ratio", accounted, "ratio");
    if failed > 0 || !correct {
        // Per-layer numbers stand only when every check held.
        r.metrics.clear();
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, busy: f64) -> Span {
        Span {
            id,
            parent,
            cell: 0,
            worker: 0,
            name,
            start: 0.0,
            end: busy,
            busy,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, "cell", 10.0),
            span(1, Some(0), "queueing.jumpstart", 6.0),
            span(2, Some(1), "queueing.rt_model", 5.0),
            span(3, Some(0), "controller.session", 3.0),
        ];
        let s = self_times(&spans);
        assert_eq!(s["cell"], 1.0);
        assert_eq!(s["queueing.jumpstart"], 1.0);
        assert_eq!(s["queueing.rt_model"], 5.0);
        assert_eq!(s["controller.session"], 3.0);
    }
}
