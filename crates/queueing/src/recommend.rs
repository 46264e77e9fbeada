//! MPL recommendation — the queueing-theoretic "jump start" of §4.3.
//!
//! The controller needs a good initial MPL. Two bounds are combined:
//!
//! * [`min_mpl_for_throughput`] — lowest population at which the closed
//!   resource model ([`crate::mva`]) reaches a target fraction of its
//!   asymptotic maximum throughput (the squares/circles of Fig. 7);
//! * [`min_mpl_for_response_time`] — lowest MPL at which the flexible
//!   multiserver queue ([`crate::flex`]) is within a given slack of the
//!   pure-PS mean response time (the flattening points of Fig. 10).
//!
//! The recommended starting MPL is the maximum of the two: it must be high
//! enough for *both* throughput and response time.

use crate::flex::{FlexServer, QueueingError};
use crate::h2::H2;
use crate::mg1;
use crate::mva::ClosedNetwork;
use serde::{Deserialize, Serialize};

/// The paper's throughput model: one exponential station per utilized
/// hardware resource, service rates proportional to the utilizations
/// observed in the MPL-unlimited system (§4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputModel {
    network: ClosedNetwork,
}

impl ThroughputModel {
    /// Build from per-resource utilizations of the unlimited system.
    ///
    /// Only relative values matter; resources with (near-)zero utilization
    /// are dropped — they never constrain the MPL.
    pub fn from_utilizations(utilizations: &[f64]) -> ThroughputModel {
        let demands: Vec<f64> = utilizations.iter().copied().filter(|u| *u > 1e-6).collect();
        assert!(
            !demands.is_empty(),
            "at least one resource must be utilized"
        );
        ThroughputModel {
            network: ClosedNetwork::new(demands),
        }
    }

    /// The worst-case balanced model used for the Fig. 7 analysis:
    /// `resources` equally utilized stations.
    pub fn balanced(resources: usize) -> ThroughputModel {
        ThroughputModel {
            network: ClosedNetwork::balanced(resources, 1.0),
        }
    }

    /// Relative throughput (fraction of the asymptotic maximum) at
    /// population `n`.
    pub fn relative_throughput(&self, n: u32) -> f64 {
        self.network.throughput(n) / self.network.max_throughput()
    }

    /// The underlying closed network.
    pub fn network(&self) -> &ClosedNetwork {
        &self.network
    }
}

/// Lowest MPL whose predicted throughput is at least `fraction` of the
/// maximum (e.g. `fraction = 0.95` for a 5% loss budget).
pub fn min_mpl_for_throughput(model: &ThroughputModel, fraction: f64) -> u32 {
    assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
    let series = model.network.solve_series(100_000.min(guess_cap(model)));
    let xmax = model.network.max_throughput();
    for s in &series {
        if s.throughput >= fraction * xmax {
            return s.population;
        }
    }
    series.last().map(|s| s.population).unwrap_or(1)
}

fn guess_cap(model: &ThroughputModel) -> u32 {
    // The MPL for 99.9% of max throughput is O(K / (1 - fraction)); a cap of
    // 1000·K is far beyond anything the controller will use.
    (model.network.demands().len() as u32)
        .saturating_mul(1000)
        .max(1000)
}

/// Relative slack of the scan's comparison `E[T](m) ≤ target`. The solver
/// gets `E[T]` to about 1e-11 relative; where the exact value equals the
/// target (C² = 1 makes the queue M/M/1 at every MPL, so slack 0 puts
/// every `E[T]` exactly on it) rounding alone would decide the answer.
/// Any `E[T]` within this much of the target meets it.
const RT_MATCH_TOLERANCE: f64 = 1e-9;

/// Lowest MPL at which the flexible multiserver queue's mean response time
/// is within `slack` (e.g. 0.05 for 5%) of the pure-PS response time, given
/// job-size mean/C² and the arrival rate.
///
/// Returns `max_mpl` if even that does not reach the target (callers treat
/// that as "effectively unlimited"). An MPL whose model cannot be solved
/// (see [`crate::flex::QueueingError`]) counts as not meeting the target.
pub fn min_mpl_for_response_time(job_size: H2, lambda: f64, slack: f64, max_mpl: u32) -> u32 {
    assert!(slack >= 0.0);
    let ps = mg1::mg1_ps_response_time(lambda, job_size.mean());
    let target = ps * (1.0 + slack);
    first_mpl_meeting(target, max_mpl, |mpl| {
        FlexServer::new(lambda, job_size, mpl)?.mean_response_time()
    })
}

/// The scan behind [`min_mpl_for_response_time`]: the first `m` in
/// `1..=max_mpl` whose `response_time(m)` is within
/// [`RT_MATCH_TOLERANCE`] of `target` or below it, else `max_mpl`.
///
/// E[T](m) is monotone nonincreasing in the MPL for H2 job sizes, so the
/// first hit is the answer. The scan stays linear because the cost of a
/// solve at m grows at least as (m+1)³, so the last probes dominate: the
/// linear scan to an answer of 21 costs Σ_{m≤21}(m+1)³ ≈ 64k units, while
/// galloping (1, 2, 4, …, 32) and bisecting back spends ≈ 64k on its
/// probes at 32, 24 and 22 alone and ≈ 89k in all.
fn first_mpl_meeting(
    target: f64,
    max_mpl: u32,
    mut response_time: impl FnMut(u32) -> Result<f64, QueueingError>,
) -> u32 {
    let limit = target * (1.0 + RT_MATCH_TOLERANCE);
    (1..=max_mpl)
        .find(|&mpl| response_time(mpl).is_ok_and(|t| t <= limit))
        .unwrap_or(max_mpl)
}

/// Combined jump-start: the MPL must satisfy both the throughput and the
/// response-time constraint, so take the maximum of the two bounds.
pub fn jumpstart_mpl(
    model: &ThroughputModel,
    tput_fraction: f64,
    job_size: H2,
    lambda: f64,
    rt_slack: f64,
    max_mpl: u32,
) -> u32 {
    let a = min_mpl_for_throughput(model, tput_fraction);
    let b = min_mpl_for_response_time(job_size, lambda, rt_slack, max_mpl);
    a.max(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_resource_needs_mpl_one() {
        let m = ThroughputModel::from_utilizations(&[0.9]);
        assert_eq!(min_mpl_for_throughput(&m, 0.95), 1);
    }

    #[test]
    fn fig7_mpl_grows_linearly_with_disks() {
        // The circles (80%) and squares (95%) of Fig. 7 fall on straight
        // lines in the number of disks.
        let mpl80: Vec<u32> = [1usize, 2, 3, 4, 8, 16]
            .iter()
            .map(|&d| min_mpl_for_throughput(&ThroughputModel::balanced(d), 0.80))
            .collect();
        let mpl95: Vec<u32> = [1usize, 2, 3, 4, 8, 16]
            .iter()
            .map(|&d| min_mpl_for_throughput(&ThroughputModel::balanced(d), 0.95))
            .collect();
        // Monotone growth.
        assert!(mpl80.windows(2).all(|w| w[0] <= w[1]), "{mpl80:?}");
        assert!(mpl95.windows(2).all(|w| w[0] <= w[1]), "{mpl95:?}");
        // Exact linearity: for K balanced stations X(n)/Xmax = n/(n+K−1),
        // so the minimum n for fraction f is ceil(f(K−1)/(1−f)) — linear
        // in K. Check the computed points against it.
        for (&d, &got) in [1usize, 2, 3, 4, 8, 16].iter().zip(&mpl95) {
            let k = d as f64;
            let want = (0.95 * (k - 1.0) / 0.05).ceil().max(1.0) as u32;
            assert_eq!(got, want, "95% point for {d} disks");
        }
        // 95% needs more than 80%.
        for (a, b) in mpl80.iter().zip(&mpl95) {
            assert!(a <= b);
        }
    }

    #[test]
    fn zero_utilization_resources_are_ignored() {
        let a = ThroughputModel::from_utilizations(&[0.5, 0.0, 0.0]);
        let b = ThroughputModel::from_utilizations(&[0.5]);
        assert_eq!(
            min_mpl_for_throughput(&a, 0.95),
            min_mpl_for_throughput(&b, 0.95)
        );
    }

    #[test]
    fn low_c2_needs_small_mpl_high_c2_needs_large() {
        // §4.2's summary: C² ≈ 1 ⇒ MPL ≈ 1–5 suffices; C² ≈ 15 at load 0.9
        // needs ~30.
        let lambda_07 = 7.0;
        let lambda_09 = 9.0;
        let lo = H2::fit(0.1, 1.0);
        let hi = H2::fit(0.1, 15.0);
        let m_lo = min_mpl_for_response_time(lo, lambda_07, 0.05, 100);
        let m_hi_07 = min_mpl_for_response_time(hi, lambda_07, 0.05, 100);
        let m_hi_09 = min_mpl_for_response_time(hi, lambda_09, 0.05, 100);
        assert!(m_lo <= 2, "exponential workload: {m_lo}");
        assert!(m_hi_07 >= 5, "C2=15 at 0.7: {m_hi_07}");
        assert!(
            m_hi_09 > m_hi_07,
            "load 0.9 needs more: {m_hi_09} vs {m_hi_07}"
        );
    }

    #[test]
    fn jumpstart_takes_the_max() {
        let model = ThroughputModel::balanced(4);
        let h2 = H2::fit(0.1, 15.0);
        let j = jumpstart_mpl(&model, 0.95, h2, 7.0, 0.05, 100);
        assert!(j >= min_mpl_for_throughput(&model, 0.95));
        assert!(j >= min_mpl_for_response_time(h2, 7.0, 0.05, 100));
    }

    #[test]
    fn exact_ties_resolve_to_the_first_mpl() {
        // C² = 1 makes the queue M/M/1 at every MPL, so with slack 0 each
        // E[T] equals the target and only rounding tells them apart.
        let h2 = H2::fit(0.1, 1.0);
        for i in 1..=19 {
            let rho = 0.05 * i as f64;
            assert_eq!(
                min_mpl_for_response_time(h2, rho / 0.1, 0.0, 60),
                1,
                "rho = {rho}"
            );
        }
    }

    #[test]
    fn unsolvable_mpl_counts_as_target_not_met() {
        let fail = QueueingError::NotConverged {
            steps: 64,
            residual: 1e-3,
        };
        // E[T](m) = 1/m meets 0.3 from m = 4 on.
        let rt = |m: u32| Ok(1.0 / f64::from(m));
        assert_eq!(first_mpl_meeting(0.3, 10, rt), 4);
        let rt = |m: u32| {
            if m == 4 {
                Err(fail)
            } else {
                Ok(1.0 / f64::from(m))
            }
        };
        assert_eq!(first_mpl_meeting(0.3, 10, rt), 5);
        assert_eq!(first_mpl_meeting(0.3, 10, |_| Err(fail)), 10);
    }

    /// The scan picks the MPL the functional-iteration oracle's scan
    /// picked, E[T] agrees with the oracle's to 1e-9, and logarithmic
    /// reduction needs at most 20 steps, over C² ∈ [1.3, 15],
    /// ρ ∈ [0.3, 0.95] and slack ∈ [0.01, 0.2].
    ///
    /// The oracle's scan took the first m with E[T](m) ≤ target. E[T] is
    /// monotone in the MPL (see `flex_monotone_in_mpl`), so that first m
    /// is `got` exactly when the oracle puts `got − 1` above the target
    /// and `got` on or below it; at the cap the oracle's scan returns 60
    /// either way. Those two probes are what the oracle solves here.
    #[test]
    fn scan_matches_functional_iteration_oracle() {
        let max_mpl = 60;
        for &c2 in &[1.3, 4.0, 15.0] {
            for &rho in &[0.3, 0.6, 0.95] {
                for &slack in &[0.01, 0.05, 0.2] {
                    let h2 = H2::fit(0.1, c2);
                    let lambda = rho / 0.1;
                    let target = mg1::mg1_ps_response_time(lambda, 0.1) * (1.0 + slack);
                    let got = min_mpl_for_response_time(h2, lambda, slack, max_mpl);
                    let case = format!("C2={c2} rho={rho} slack={slack}: scan gave {got}");
                    for m in [1, got - 1, got] {
                        if m == 0 {
                            continue;
                        }
                        let fs = FlexServer::new(lambda, h2, m).unwrap();
                        let new = fs.solve().unwrap();
                        let old = fs.solve_functional();
                        let (t_new, t_old) = (new.mean_response_time, old.mean_response_time);
                        assert!(new.r_iterations <= 20, "{case}: {} steps", new.r_iterations);
                        assert!(
                            (t_new - t_old).abs() <= 1e-9 * t_old,
                            "{case}: E[T]({m}) {t_new} vs oracle {t_old}"
                        );
                        if m == got - 1 {
                            assert!(t_old > target, "{case}: oracle meets target at {m}");
                        } else if m == got && got < max_mpl {
                            assert!(t_old <= target, "{case}: oracle misses target at {m}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_mpl_is_a_hard_cap() {
        let h2 = H2::fit(0.1, 15.0);
        assert_eq!(min_mpl_for_response_time(h2, 9.5, 0.0, 7), 7);
    }
}
