//! The three named workloads and the sweep plans behind them.
//!
//! Every workload is a [`SweepPlan`] of scenario literals built from the
//! benchmark's `--seed`: the seed becomes the plan's single replication
//! seed, so the same seed always yields the same cells and, through the
//! library's determinism contract, bit-identical outcomes.

use xsched_bench::{quick_rc, quick_rc_heavy, tput_scenarios, MPL_GRID};
use xsched_core::{
    ArrivalSpec, ExecSpec, MplSpec, PolicyKind, RunConfig, Scenario, SweepPlan, Targets,
};
use xsched_workload::{setup, setup_ids};

/// The setup of `mpl_tune`'s controller sessions. Setup 2 (CPU-bound
/// inventory mix, C²≈1.3, 2 CPUs) saturates above the 0.95 load cap of the
/// jump-start's response-time model, so the model's scan ends at MPL 21 on
/// every seed. Under the cap the scan's end MPL, and with it a session's
/// cost, follows the seed (setup 3: MPL 39 to past 50, 2.4 s to over a
/// minute; setups 1, 13, 17: tenfold). Capped setups with long scans cost
/// 12 s (setups 15, 16: MPL 65) to 80 s (setups 4, 9, 10) a session, and
/// two of them scanning at once swing the peak resident set by a third
/// between runs.
pub const MPL_TUNE_SETUP: u32 = 2;
/// Seeds (`seed`, `seed + 1`, …) the `mpl_tune` session runs under, so a
/// pass averages the seed-dependent controller windows over many and has
/// 10 cells beyond its 90th percentile.
pub const MPL_TUNE_SEEDS: usize = 100;

/// Seeds every `tput_sweep` cell runs under, so a pass averages the
/// seed-dependent length of its longest cells over two.
pub const TPUT_SWEEP_SEEDS: usize = 2;

/// Setups of `open_rt`: C²≈1, C²≈15, and the balanced CPU+I/O mix.
pub const OPEN_RT_SETUPS: [u32; 3] = [1, 3, 11];
/// Offered loads of `open_rt`, as fractions of measured capacity.
pub const OPEN_RT_LOADS: [f64; 3] = [0.5, 0.7, 0.9];
/// MPL grid of `open_rt`.
pub const OPEN_RT_MPLS: [u32; 6] = [2, 4, 8, 15, 30, 100];
/// Seeds (`seed`, `seed + 1`, …) every `open_rt` cell runs under: the
/// external backlog at high load and low MPL follows the seed, and a
/// pass over several seeds averages it.
pub const OPEN_RT_SEEDS: usize = 3;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed, saturated throughput-vs-MPL grid over all 17 setups.
    TputSweep,
    /// Open Poisson arrivals, FIFO and two-class priority, shared cache.
    OpenRt,
    /// Jump-started controller sessions.
    MplTune,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::TputSweep, Workload::OpenRt, Workload::MplTune];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TputSweep => "tput_sweep",
            Workload::OpenRt => "open_rt",
            Workload::MplTune => "mpl_tune",
        }
    }

    /// Nominal host seconds of one pass: the median pass of the ten-seed
    /// steadiness series on a 2-vCPU Intel Xeon virtual machine.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::TputSweep => 20.0,
            Workload::OpenRt => 8.5,
            Workload::MplTune => 9.2,
        }
    }

    /// Measured passes for a run of `seconds`: as many nominal passes as
    /// fit, at least one. A constant of the arguments, never of the
    /// host's speed, so every run measures the same quantity (the cold
    /// first pass is always among them).
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(1)
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sweep plan under `seed`: its scenarios, each
    /// replicated under seeds `seed`, `seed + 1`, ….
    pub fn plan(self, seed: u64) -> SweepPlan {
        let (scenarios, seeds) = match self {
            Workload::TputSweep => (tput_sweep_scenarios(), TPUT_SWEEP_SEEDS),
            Workload::OpenRt => (open_rt_scenarios(), OPEN_RT_SEEDS),
            Workload::MplTune => (vec![mpl_tune_scenario()], MPL_TUNE_SEEDS),
        };
        SweepPlan::new(scenarios).replicated(seeds, seed)
    }
}

/// The figures' run-length scaling: the heavy-tailed browsing and
/// ordering mixes run 3× the warm-up and 5× the measured transactions
/// (mirrors the `figures` binary, whose helper is private).
fn scaled(id: u32, rc: &RunConfig) -> RunConfig {
    let name = setup(id).workload.name;
    if name.contains("browsing") || name.contains("ordering") {
        RunConfig {
            warmup_txns: rc.warmup_txns * 3,
            measured_txns: rc.measured_txns * 5,
            min_warmup_time: 400.0,
            ..rc.clone()
        }
    } else {
        rc.clone()
    }
}

/// All 17 Table-2 setups × `MPL_GRID`, saturated, FIFO: 170 scenarios.
fn tput_sweep_scenarios() -> Vec<Scenario> {
    let labels: Vec<(String, u32)> = setup_ids().map(|id| (format!("setup {id}"), id)).collect();
    let rows: Vec<(&str, u32)> = labels.iter().map(|(l, id)| (l.as_str(), *id)).collect();
    tput_scenarios(&rows, &MPL_GRID, &quick_rc())
}

/// 3 setups × 3 loads × 6 MPLs × {FIFO, priority}: 108 open-load scenarios.
fn open_rt_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for id in OPEN_RT_SETUPS {
        let rc = scaled(id, &quick_rc_heavy());
        for load in OPEN_RT_LOADS {
            for m in OPEN_RT_MPLS {
                for policy in [PolicyKind::Fifo, PolicyKind::Priority] {
                    out.push(Scenario {
                        row: format!("setup {id} load {load} {policy:?}"),
                        col: format!("MPL {m}"),
                        setup: setup(id),
                        exec: ExecSpec::Run {
                            mpl: MplSpec::Fixed(m),
                            policy,
                            arrivals: ArrivalSpec::OpenLoad(load),
                        },
                        rc: rc.clone(),
                    });
                }
            }
        }
    }
    out
}

/// A controller session on [`MPL_TUNE_SETUP`], 5% targets, jump-started
/// from the queueing models. (Cold starts at MPL 1 run longer: mixing the
/// two put the per-cell median on the gap between them.)
fn mpl_tune_scenario() -> Scenario {
    Scenario {
        row: format!("setup {MPL_TUNE_SETUP}"),
        col: "jump".to_string(),
        setup: setup(MPL_TUNE_SETUP),
        exec: ExecSpec::Controller {
            targets: Targets::five_percent(),
            start: None,
        },
        rc: scaled(MPL_TUNE_SETUP, &quick_rc_heavy()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_have_the_documented_cell_counts() {
        let counts: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| w.plan(42).task_count())
            .collect();
        assert_eq!(counts, [340, 324, 100]);
    }

    #[test]
    fn pass_counts_follow_the_run_length_only() {
        let counts: Vec<usize> = Workload::ALL.iter().map(|w| w.passes(25.0)).collect();
        assert_eq!(counts, [1, 3, 3]);
        assert_eq!(Workload::TputSweep.passes(1.0), 1);
    }
}
