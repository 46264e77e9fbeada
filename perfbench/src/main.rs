//! The extsched benchmark: one command that runs a named workload through
//! the library's public API, checks every cell's outcome, and prints the
//! workload's metrics by name with their units as the last line of
//! standard output (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tput_sweep --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the cross-checks and a traced pass and prints the
//! per-layer metrics instead.

mod coordpass;
mod pass;
mod pins;
mod probe;
mod report;
mod traced;
mod workloads;

use pass::{direct_pass, direct_setup, Pass};
use report::{median, peak_rss_mb, quantile, Report};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// Busy threads per pass: the sweep executor's workers, or the
/// coordinated workers of `tput_sweep`'s traced run.
pub const THREADS: usize = 2;

/// Seed whose per-cell outcome digests are pinned in `pins/`.
pub const DEFAULT_SEED: u64 = 42;

/// Set-up samples per window. One window runs before the measured
/// passes and one after them, so the median spans the whole run rather
/// than the host's speed during one short stretch of it.
const SETUP_SAMPLES: usize = 21;

/// Shortest set-up sample: each sample times enough back-to-back set-ups
/// to last this long, so sub-microsecond set-ups are not lost in the
/// clock's own cost and a window lasts about half a second.
const SETUP_SAMPLE_S: f64 = 25e-3;

/// One window of samples of the seconds per in-process set-up (plan,
/// cache, executor), each timed over a batch of at least
/// `SETUP_SAMPLE_S`.
fn setup_samples(args: &Args) -> Vec<f64> {
    let batch = |k: usize| {
        let t0 = Instant::now();
        for _ in 0..k {
            drop(std::hint::black_box(direct_setup(
                args.workload,
                args.seed,
                THREADS,
            )));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut k = 1;
    while batch(k) < SETUP_SAMPLE_S {
        k *= 2;
    }
    (0..SETUP_SAMPLES).map(|_| batch(k) / k as f64).collect()
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length in seconds; sets the number of measured passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Rewrite the workload's pinned digests (default seed only).
    pub write_pins: bool,
}

const USAGE: &str = "usage: xsched-perfbench --workload <tput_sweep|open_rt|mpl_tune> \
[--seed N] [--seconds S] [--trace 0|1] [--write-pins]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut write_pins = false;
    while let Some(flag) = it.next() {
        if flag == "--write-pins" {
            write_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_pins,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced::run(&args)
    } else {
        run_end_to_end(&args)
    };
    println!("{}", report.json());
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Cells of `pass` whose outcome is missing or differs from `reference`.
pub fn mismatches(pass: &Pass, reference: &[Option<u64>]) -> usize {
    pass.digests
        .iter()
        .zip(reference)
        .filter(|(d, r)| d.is_none() || d != r)
        .count()
}

/// Failed cells of the pass every later pass of a run is checked against:
/// cells without an outcome and, on the default seed, cells whose digest
/// differs from its pin (`--write-pins` rewrites the pins first).
fn check_reference(args: &Args, pass: &Pass) -> usize {
    let w = args.workload;
    let mut failed = pass.missing();
    if args.seed == DEFAULT_SEED {
        if args.write_pins {
            pins::write(w, &pass.digests);
        }
        let bad = pins::mismatches(w, &pass.digests);
        if bad > 0 {
            eprintln!("[perfbench] {bad} cells differ from the pinned digests");
        }
        failed = failed.max(bad);
    }
    failed
}

/// The direct two-thread pass every other pass of a run is checked
/// against, and its failed-cell count.
pub fn reference_pass(args: &Args) -> (Pass, usize) {
    let pass = direct_pass(args.workload, args.seed, THREADS);
    let failed = check_reference(args, &pass);
    (pass, failed)
}

/// The end-to-end run: a window of set-up samples, the workload's fixed
/// number of measured passes for `--seconds` (`Workload::passes`), and a
/// second window of set-up samples. The first pass is the reference later
/// passes must match. Every time metric is taken per pass (the cell
/// percentiles over that pass's cells) and reported as the median over
/// passes, which includes the process's cold first pass on every run
/// alike.
fn run_end_to_end(args: &Args) -> Report {
    let w = args.workload;
    let mut setups = setup_samples(args);
    let (reference, mut failed) = reference_pass(args);
    let mut attempted = reference.digests.len();
    let mut passes = vec![reference];
    for _ in 1..w.passes(args.seconds) {
        let pass = direct_pass(w, args.seed, THREADS);
        attempted += pass.digests.len();
        failed += mismatches(&pass, &passes[0].digests);
        passes.push(pass);
    }
    setups.extend(setup_samples(args));
    let setup_s = median(&setups);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.events as f64 / p.wall_s).collect();
    let p50s: Vec<f64> = passes.iter().map(|p| quantile(&p.cell_s, 0.5)).collect();
    let p90s: Vec<f64> = passes.iter().map(|p| quantile(&p.cell_s, 0.9)).collect();
    eprintln!(
        "[perfbench] {}: seed {}, {} measured passes of {} cells, failed_frac {}",
        w.name(),
        args.seed,
        passes.len(),
        passes[0].digests.len(),
        failed as f64 / attempted as f64
    );
    eprintln!("[perfbench] pass walls {walls:.3?}; set-up {setup_s:.3e}s");
    let mut report = Report {
        correct: true,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.metric("wall_s", median(&walls), "s");
    report.metric("sim_events_per_s", median(&rates), "events/s");
    report.metric("cell_p50_s", median(&p50s), "s");
    report.metric("cell_p90_s", median(&p90s), "s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_documented_command_line_parses() {
        let a = parse(&[
            "--workload",
            "open_rt",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::OpenRt);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "open_rt", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "open_rt", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "open_rt", "--seed"]).is_err());
    }
}
