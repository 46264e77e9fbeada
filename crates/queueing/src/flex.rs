//! The *flexible multiserver queue* of Section 4.2.
//!
//! External scheduling with parameter MPL = m is an unbounded FIFO queue
//! feeding a processor-sharing server that at most `m` jobs may share
//! (Fig. 8). The paper represents it as an equivalent "flexible multiserver
//! queue" whose number of servers fluctuates between 1 and `m` while the
//! *sum* of service rates stays equal to the single PS server's rate
//! (Fig. 9). With Poisson(λ) arrivals and 2-phase hyperexponential job
//! sizes the state `(n, j)` — `n` jobs in system, `j` of the
//! `k = min(n, m)` in-service jobs in phase 1 — is a level-independent
//! quasi-birth-death (QBD) process for `n ≥ m`, which we solve exactly with
//! the matrix-geometric method (Neuts; Latouche & Ramaswami, both cited by
//! the paper).
//!
//! Transitions from `(n, j)`, with `k = min(n, m)` and server speed 1 split
//! equally (each in-service job is served at rate `1/k`, so a phase-`i` job
//! completes at rate `μᵢ/k`):
//!
//! * arrival, rate λ: if `n < m` the job enters service and draws its phase
//!   (`j+1` w.p. `p`, else `j`); if `n ≥ m` it waits (`j` unchanged);
//! * phase-1 completion, rate `j·μ₁/k`: if `n > m` the head-of-line waiter
//!   enters service and draws its phase (net `j` w.p. `p`, `j−1` w.p. `q`);
//!   otherwise `j−1`;
//! * phase-2 completion, rate `(k−j)·μ₂/k`: if `n > m`, net `j+1` w.p. `p`,
//!   `j` w.p. `q`; otherwise `j`.
//!
//! MPL = 1 makes this M/H2/1-FIFO (checked against Pollaczek–Khinchine);
//! MPL → ∞ makes it M/H2/∞-style PS (checked against `E[S]/(1−ρ)`); and
//! with C² = 1 it collapses to M/M/1 for *every* MPL (checked too).

use crate::h2::H2;
use crate::linalg::Mat;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Logarithmic reduction stops once every row of `G` sums to 1 within
/// this. The distance roughly squares with each step, so the step that
/// crosses it usually lands far below it.
const G_TOLERANCE: f64 = 1e-14;

/// Step cap of logarithmic reduction. Step `k` covers first passages
/// through up to `2^k` levels; no stable load in double precision needs
/// anywhere near 64.
const MAX_REDUCTION_STEPS: u32 = 64;

/// Why a flexible multiserver queue has no solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueingError {
    /// The offered load ρ = λ·`E[S]` is not below 1: no steady state.
    Unstable {
        /// The offered load.
        rho: f64,
    },
    /// An MPL of 0 admits no job at all.
    ZeroMpl,
    /// Logarithmic reduction reached its step cap before `G` became
    /// stochastic.
    NotConverged {
        /// Steps taken.
        steps: u32,
        /// `‖1 − G·1‖∞` after the last step, measured as `‖T‖∞`.
        residual: f64,
    },
}

impl fmt::Display for QueueingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueingError::Unstable { rho } => {
                write!(f, "unstable flexible multiserver queue (rho = {rho})")
            }
            QueueingError::ZeroMpl => write!(f, "MPL must be at least 1"),
            QueueingError::NotConverged { steps, residual } => write!(
                f,
                "logarithmic reduction did not converge in {steps} steps (residual {residual:e})"
            ),
        }
    }
}

impl std::error::Error for QueueingError {}

/// The flexible multiserver queue: Poisson arrivals, H2 job sizes, at most
/// `mpl` jobs sharing a unit-speed PS server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlexServer {
    /// Arrival rate λ (jobs/second).
    pub lambda: f64,
    /// Job-size distribution.
    pub job_size: H2,
    /// Multi-programming limit m ≥ 1.
    pub mpl: u32,
}

/// Steady-state solution of a [`FlexServer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlexSolution {
    /// Mean number of jobs in the system (in service + waiting).
    pub mean_jobs: f64,
    /// Mean number of jobs waiting in the external FIFO queue.
    pub mean_waiting: f64,
    /// Mean response time `E[T] = E[N]/λ` (Little's law), seconds.
    pub mean_response_time: f64,
    /// Probability that the system is empty.
    pub p_empty: f64,
    /// Probability that an arriving job must wait (n ≥ mpl).
    pub p_wait: f64,
    /// Offered load ρ = λ·`E[S]`.
    pub rho: f64,
    /// Logarithmic-reduction steps the solve of `R` took. After step `k`
    /// the first-passage matrix `G` accounts for paths through up to
    /// `2^k` levels.
    pub r_iterations: u32,
}

impl FlexServer {
    /// Create a model; fails if unstable (ρ ≥ 1) or `mpl == 0`.
    pub fn new(lambda: f64, job_size: H2, mpl: u32) -> Result<FlexServer, QueueingError> {
        let fs = FlexServer {
            lambda,
            job_size,
            mpl,
        };
        fs.check()?;
        Ok(fs)
    }

    /// The conditions `new` enforces; the fields are public, so the
    /// solvers check them again.
    fn check(&self) -> Result<(), QueueingError> {
        if self.mpl == 0 {
            return Err(QueueingError::ZeroMpl);
        }
        let rho = self.rho();
        if rho.is_nan() || rho >= 1.0 {
            return Err(QueueingError::Unstable { rho });
        }
        Ok(())
    }

    /// Offered load ρ = λ·`E[S]`.
    pub fn rho(&self) -> f64 {
        self.lambda * self.job_size.mean()
    }

    /// The repeating QBD blocks `(A0, A1, A2)` for levels `n ≥ m+1`,
    /// each `(m+1) × (m+1)` over phase index `j = 0..=m`.
    pub fn repeating_blocks(&self) -> (Mat, Mat, Mat) {
        let m = self.mpl as usize;
        let (p, mu1, mu2) = (self.job_size.p, self.job_size.mu1, self.job_size.mu2);
        let q = 1.0 - p;
        let lam = self.lambda;
        let sz = m + 1;

        let a0 = Mat::identity(sz).scale(lam);
        let mut a1 = Mat::zeros(sz, sz);
        let mut a2 = Mat::zeros(sz, sz);
        for j in 0..=m {
            let c1 = j as f64 * mu1 / m as f64;
            let c2 = (m - j) as f64 * mu2 / m as f64;
            a1[(j, j)] = -(lam + c1 + c2);
            // Phase-1 completion; HOL waiter backfills and draws a phase.
            if c1 > 0.0 {
                a2[(j, j)] += c1 * p;
                a2[(j, j - 1)] += c1 * q;
            }
            // Phase-2 completion; backfill likewise.
            if c2 > 0.0 {
                if j < m {
                    a2[(j, j + 1)] += c2 * p;
                }
                a2[(j, j)] += c2 * q;
            }
        }
        (a0, a1, a2)
    }

    /// Up-transition block from boundary level `n < m` (size
    /// `(n+1) × (n+2)`): arrival enters service and draws its phase.
    pub(crate) fn boundary_up(&self, n: usize) -> Mat {
        let p = self.job_size.p;
        let lam = self.lambda;
        let mut up = Mat::zeros(n + 1, n + 2);
        for j in 0..=n {
            up[(j, j + 1)] += lam * p;
            up[(j, j)] += lam * (1.0 - p);
        }
        up
    }

    /// Down-transition block from level `1 ≤ n ≤ m` (size `(n+1) × n`):
    /// completion with no queue to backfill from.
    pub(crate) fn boundary_down(&self, n: usize) -> Mat {
        let (mu1, mu2) = (self.job_size.mu1, self.job_size.mu2);
        let mut down = Mat::zeros(n + 1, n);
        for j in 0..=n {
            let c1 = j as f64 * mu1 / n as f64;
            let c2 = (n - j) as f64 * mu2 / n as f64;
            if c1 > 0.0 {
                down[(j, j - 1)] += c1;
            }
            if c2 > 0.0 && j < n {
                down[(j, j)] += c2;
            }
        }
        down
    }

    /// Diagonal of the local block at boundary level `n ≤ m`.
    pub(crate) fn boundary_diag(&self, n: usize) -> Vec<f64> {
        let (mu1, mu2) = (self.job_size.mu1, self.job_size.mu2);
        let lam = self.lambda;
        (0..=n)
            .map(|j| {
                if n == 0 {
                    -lam
                } else {
                    let c1 = j as f64 * mu1 / n as f64;
                    let c2 = (n - j) as f64 * mu2 / n as f64;
                    -(lam + c1 + c2)
                }
            })
            .collect()
    }

    /// Compute the minimal nonnegative solution `R` of
    /// `A0 + R·A1 + R²·A2 = 0` by Latouche–Ramaswami logarithmic
    /// reduction. Returns `(R, steps)`.
    pub fn solve_r(&self) -> Result<(Mat, u32), QueueingError> {
        self.log_reduction(MAX_REDUCTION_STEPS)
    }

    /// Logarithmic reduction (Latouche & Ramaswami, J. Appl. Prob. 30,
    /// 1993) for the first-passage matrix `G`, the minimal solution of
    /// `A2 + A1·G + A0·G² = 0`, then `R = A0·(−A1 − A0·G)⁻¹`.
    ///
    /// Starting from the one-level-down and one-level-up matrices of the
    /// embedded chain, `L = (−A1)⁻¹A2` and `H = (−A1)⁻¹A0`, each step
    /// censors every other level: with `U = HL + LH`,
    /// `H ← (I−U)⁻¹H²`, `L ← (I−U)⁻¹L²`, `G ← G + T·L`, `T ← T·H`.
    /// `A0 = λI` and `A1` is diagonal, so `H` starts diagonal, `L` is a
    /// row scaling of the tridiagonal `A2`, and `R` is `λ(−A1 − λG)⁻¹`.
    fn log_reduction(&self, max_steps: u32) -> Result<(Mat, u32), QueueingError> {
        self.check()?;
        let (_, a1, a2) = self.repeating_blocks();
        let sz = a1.rows();
        let lam = self.lambda;
        let out_rate: Vec<f64> = (0..sz).map(|j| -a1[(j, j)]).collect();
        let mut h = Mat::diag(&out_rate.iter().map(|d| lam / d).collect::<Vec<_>>());
        let mut l = Mat::from_fn(sz, sz, |i, j| a2[(i, j)] / out_rate[i]);
        let mut g = l.clone();
        let mut t = h.clone();
        let mut steps = 0;
        loop {
            // ‖T‖∞ = ‖1 − G·1‖∞: the chain's rows sum to one, so the mass G
            // lacks is the mass T carries up 2^k levels. Summing T keeps it
            // free of the cancellation that floors 1 − G·1 near 1e-12.
            let residual = t.max_row_sum();
            if residual < G_TOLERANCE {
                break;
            }
            // A NaN residual falls through to here too, and ends at the cap.
            if steps == max_steps {
                return Err(QueueingError::NotConverged { steps, residual });
            }
            steps += 1;
            let u = h.mul(&l).add(&l.mul(&h));
            let inv = Mat::identity(sz).sub(&u).inverse();
            h = inv.mul(&h.mul(&h));
            l = inv.mul(&l.mul(&l));
            g = g.add(&t.mul(&l));
            t = t.mul(&h);
        }
        let mut w = g.scale(-lam);
        for (j, d) in out_rate.iter().enumerate() {
            w[(j, j)] += d;
        }
        Ok((w.inverse().scale(lam), steps))
    }

    /// Solve for the steady state and return the summary metrics.
    pub fn solve(&self) -> Result<FlexSolution, QueueingError> {
        let (r, steps) = self.solve_r()?;
        Ok(self.solution_from_r(&r, steps))
    }

    /// The summary metrics for a given rate matrix `R`.
    fn solution_from_r(&self, r: &Mat, r_iterations: u32) -> FlexSolution {
        let m = self.mpl as usize;
        let (levels, inv_imr) = self.boundary_levels(r);
        // Tail sums: Σ_{k≥0} π_m R^k = π_m (I−R)⁻¹;
        // Σ_{k≥0} k·π_m R^k = π_m R (I−R)⁻².
        let tail_weight = inv_imr.mul_vec(&vec![1.0; m + 1]);
        let excess_weight = r.mul_vec(&inv_imr.mul_vec(&tail_weight));
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let tail_mass = dot(&levels[m], &tail_weight);
        let tail_excess = dot(&levels[m], &excess_weight);
        // Levels ≥ m: Σ (m+k) π_{m+k}·1 = m·tail_mass + tail_excess.
        let mean_jobs = levels[..m]
            .iter()
            .enumerate()
            .map(|(n, v)| n as f64 * v.iter().sum::<f64>())
            .sum::<f64>()
            + m as f64 * tail_mass
            + tail_excess;
        FlexSolution {
            mean_jobs,
            mean_waiting: tail_excess, // Σ (n−m)⁺ π_n·1
            mean_response_time: mean_jobs / self.lambda,
            p_empty: levels[0][0],
            p_wait: tail_mass, // P(n ≥ m): arrival waits (PASTA).
            rho: self.rho(),
            r_iterations,
        }
    }

    /// Mean response time (convenience).
    pub fn mean_response_time(&self) -> Result<f64, QueueingError> {
        Ok(self.solve()?.mean_response_time)
    }

    /// Steady-state distribution of the number of jobs in the system,
    /// `P(N = n)` for `n = 0..len`, computed to at least `1 - epsilon`
    /// total mass (the geometric tail is rolled out level by level).
    pub fn queue_length_distribution(&self, epsilon: f64) -> Result<Vec<f64>, QueueingError> {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let m = self.mpl as usize;
        let (r, _) = self.solve_r()?;
        let (levels, _) = self.boundary_levels(&r);
        let mut out: Vec<f64> = levels.iter().map(|v| v.iter().sum()).collect();
        // Roll the geometric tail: π_{m+k} = π_m R^k.
        let mut tail = levels[m].clone();
        let mut covered: f64 = out.iter().sum();
        while covered < 1.0 - epsilon && out.len() < 100_000 {
            tail = r.vec_mul(&tail);
            let mass: f64 = tail.iter().sum();
            out.push(mass);
            covered += mass;
            if mass < 1e-18 {
                break;
            }
        }
        Ok(out)
    }

    /// The boundary level vectors `π_0 … π_m`, normalized with the whole
    /// geometric tail `π_{m+k} = π_m R^k`, and `(I − R)⁻¹`.
    ///
    /// Backward level reduction over the block-tridiagonal levels 0..m.
    /// Level m's balance already carries the tail's return flow
    /// `π_{m+1}·A2 = π_m·R·A2`, so reducing from the top gives `S_n` with
    /// `π_{n+1} = π_n·S_n`:
    ///
    /// * `S_{m−1} = −Up(m−1)·(A1 + R·A2)⁻¹`,
    /// * `S_{n−1} = −Up(n−1)·(Local(n) + S_n·Down(n+1))⁻¹`,
    ///
    /// and `π_0 = 1` fixes the rest up to the normalization
    /// `Σ_{n<m} π_n·1 + π_m·(I−R)⁻¹·1 = 1`. Level n costs one inverse of
    /// its own width, O(m⁴) for the whole boundary against O(m⁶) for one
    /// dense solve over its (m+1)(m+2)/2 states.
    fn boundary_levels(&self, r: &Mat) -> (Vec<Vec<f64>>, Mat) {
        let m = self.mpl as usize;
        let (_, a1, a2) = self.repeating_blocks();
        // s[k] = S_{m−1−k} while reducing downward.
        let mut s: Vec<Mat> = Vec::with_capacity(m);
        let mut inner = a1.add(&r.mul(&a2));
        for n in (1..=m).rev() {
            let sn = self.boundary_up(n - 1).mul(&inner.inverse()).scale(-1.0);
            if n > 1 {
                inner = Mat::diag(&self.boundary_diag(n - 1)).add(&sn.mul(&self.boundary_down(n)));
            }
            s.push(sn);
        }
        let mut levels: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        levels.push(vec![1.0]);
        for sn in s.iter().rev() {
            let next = sn.vec_mul(&levels[levels.len() - 1]);
            levels.push(next);
        }
        let inv_imr = Mat::identity(m + 1).sub(r).inverse();
        let tail_mass: f64 = levels[m]
            .iter()
            .zip(inv_imr.mul_vec(&vec![1.0; m + 1]))
            .map(|(p, w)| p * w)
            .sum();
        let total = levels[..m].iter().flatten().sum::<f64>() + tail_mass;
        for x in levels.iter_mut().flatten() {
            *x /= total;
        }
        (levels, inv_imr)
    }
}

/// Functional iteration `R ← −(A0 + R²·A2)·A1⁻¹`, kept as a test oracle
/// for logarithmic reduction. It converges linearly: about 1,000 steps at
/// C² = 1.3 and 7,000 at C² = 15 when ρ = 0.95.
#[cfg(test)]
impl FlexServer {
    pub(crate) fn solve_r_functional(&self) -> (Mat, u32) {
        let (a0, a1, a2) = self.repeating_blocks();
        let sz = a0.rows();
        let inv_diag: Vec<f64> = (0..sz).map(|j| -1.0 / a1[(j, j)]).collect();
        let mut r = Mat::zeros(sz, sz);
        let mut iters = 0;
        loop {
            iters += 1;
            assert!(iters < 1_000_000, "functional iteration did not converge");
            let mut next = a0.add(&r.mul(&r).mul(&a2));
            // next ← next · (−A1)⁻¹ (diagonal).
            for i in 0..sz {
                for j in 0..sz {
                    next[(i, j)] *= inv_diag[j];
                }
            }
            let delta = next.sub(&r).max_abs();
            r = next;
            if delta < 1e-13 {
                return (r, iters);
            }
        }
    }

    /// The steady state with `R` from the functional-iteration oracle.
    pub(crate) fn solve_functional(&self) -> FlexSolution {
        let (r, iters) = self.solve_r_functional();
        self.solution_from_r(&r, iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg1;

    fn rt(lambda: f64, h2: H2, mpl: u32) -> f64 {
        FlexServer::new(lambda, h2, mpl)
            .and_then(|fs| fs.mean_response_time())
            .unwrap()
    }

    #[test]
    fn mm1_for_any_mpl_when_c2_is_one() {
        // With exponential job sizes the flexible multiserver queue is an
        // M/M/1 regardless of the MPL: total service rate is constant.
        let h2 = H2::exponential(0.1);
        let lambda = 7.0;
        let want = mg1::mm1_response_time(lambda, 0.1);
        for mpl in [1u32, 2, 5, 20] {
            let fs = FlexServer::new(lambda, h2, mpl).unwrap();
            let got = fs.mean_response_time().unwrap();
            assert!(
                (got - want).abs() / want < 1e-6,
                "mpl={mpl}: got {got} want {want}"
            );
        }
    }

    #[test]
    fn mpl_one_is_mg1_fifo() {
        for &c2 in &[2.0, 5.0, 10.0] {
            for &rho in &[0.5, 0.7, 0.9] {
                let h2 = H2::fit(0.1, c2);
                let lambda = rho / 0.1;
                let fs = FlexServer::new(lambda, h2, 1).unwrap();
                let got = fs.mean_response_time().unwrap();
                let want = mg1::mg1_fifo_response_time_h2(lambda, &h2);
                assert!(
                    (got - want).abs() / want < 1e-6,
                    "c2={c2} rho={rho}: got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn large_mpl_approaches_ps() {
        let h2 = H2::fit(0.1, 10.0);
        let lambda = 7.0;
        let ps = mg1::mg1_ps_response_time(lambda, 0.1);
        let fs = FlexServer::new(lambda, h2, 80).unwrap();
        let got = fs.mean_response_time().unwrap();
        assert!(
            (got - ps).abs() / ps < 0.03,
            "MPL=80 should be within 3% of PS: got {got}, ps {ps}"
        );
    }

    #[test]
    fn response_time_decreases_with_mpl_for_high_c2() {
        let h2 = H2::fit(0.1, 15.0);
        let lambda = 7.0;
        let t1 = rt(lambda, h2, 1);
        let t5 = rt(lambda, h2, 5);
        let t20 = rt(lambda, h2, 20);
        assert!(t1 > t5 && t5 > t20, "{t1} {t5} {t20}");
    }

    #[test]
    fn higher_load_needs_higher_mpl() {
        // Fig. 10: at load 0.9 the curve flattens much later than at 0.7.
        let h2 = H2::fit(0.1, 15.0);
        let gap = |rho: f64, mpl: u32| {
            let lambda = rho / 0.1;
            let ps = mg1::mg1_ps_response_time(lambda, 0.1);
            (rt(lambda, h2, mpl) - ps) / ps
        };
        // With MPL = 10 the 0.7-load system is much closer to PS than the
        // 0.9-load system.
        assert!(gap(0.7, 10) < 0.5 * gap(0.9, 10));
    }

    #[test]
    fn solution_probabilities_are_sane() {
        let h2 = H2::fit(0.2, 5.0);
        let sol = FlexServer::new(3.5, h2, 4).unwrap().solve().unwrap(); // rho = 0.7
        assert!(sol.p_empty > 0.0 && sol.p_empty < 1.0);
        assert!(sol.p_wait > 0.0 && sol.p_wait < 1.0);
        assert!(sol.mean_waiting >= 0.0);
        assert!(sol.mean_jobs >= sol.mean_waiting);
        assert!((sol.rho - 0.7).abs() < 1e-12);
    }

    #[test]
    fn r_is_nonnegative_with_spectral_radius_below_one() {
        let h2 = H2::fit(0.1, 10.0);
        let fs = FlexServer::new(9.0, h2, 6).unwrap(); // rho = 0.9
        let (r, _) = fs.solve_r().unwrap();
        for i in 0..r.rows() {
            for j in 0..r.cols() {
                assert!(r[(i, j)] >= -1e-12, "negative R entry at ({i},{j})");
            }
        }
        // Row sums of R^k must vanish: check spectral radius via power.
        let mut pow = r.clone();
        for _ in 0..200 {
            pow = pow.mul(&r);
        }
        assert!(pow.max_abs() < 1.0, "R^201 should be contracting");
    }

    #[test]
    fn queue_length_distribution_normalizes_and_matches_moments() {
        let h2 = H2::fit(0.1, 5.0);
        let fs = FlexServer::new(7.0, h2, 4).unwrap();
        let dist = fs.queue_length_distribution(1e-10).unwrap();
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "mass {total}");
        let mean: f64 = dist.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
        let sol = fs.solve().unwrap();
        assert!(
            (mean - sol.mean_jobs).abs() < 1e-6,
            "distribution mean {mean} vs solver {}",
            sol.mean_jobs
        );
        assert!((dist[0] - sol.p_empty).abs() < 1e-10);
    }

    #[test]
    fn queue_length_distribution_mm1_geometric() {
        // M/M/1: P(N = n) = (1-rho) rho^n.
        let fs = FlexServer::new(6.0, H2::exponential(0.1), 3).unwrap();
        let dist = fs.queue_length_distribution(1e-12).unwrap();
        for (n, p) in dist.iter().take(20).enumerate() {
            let want = 0.4 * 0.6f64.powi(n as i32);
            assert!((p - want).abs() < 1e-9, "n={n}: {p} vs {want}");
        }
    }

    #[test]
    fn overload_rejected() {
        let err = FlexServer::new(11.0, H2::exponential(0.1), 4).unwrap_err();
        assert!(
            matches!(err, QueueingError::Unstable { rho } if rho > 1.0),
            "{err:?}"
        );
        assert!(err.to_string().contains("unstable"));
        // A hand-built server bypasses `new`; its solve still refuses.
        let fs = FlexServer {
            lambda: 11.0,
            job_size: H2::exponential(0.1),
            mpl: 4,
        };
        assert!(matches!(fs.solve(), Err(QueueingError::Unstable { .. })));
    }

    #[test]
    fn zero_mpl_rejected() {
        let err = FlexServer::new(1.0, H2::exponential(0.1), 0).unwrap_err();
        assert_eq!(err, QueueingError::ZeroMpl);
        assert_eq!(err.to_string(), "MPL must be at least 1");
    }

    #[test]
    fn step_cap_is_an_error_not_an_answer() {
        // A solve cut off before G is stochastic must say so rather than
        // hand back its last iterate.
        let fs = FlexServer::new(9.5, H2::fit(0.1, 15.0), 30).unwrap();
        match fs.log_reduction(2) {
            Err(QueueingError::NotConverged { steps, residual }) => {
                assert_eq!(steps, 2);
                assert!(residual >= G_TOLERANCE, "residual {residual}");
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
        let (_, steps) = fs.log_reduction(MAX_REDUCTION_STEPS).unwrap();
        assert!(steps > 2 && steps <= 20, "{steps} steps");
    }

    #[test]
    fn log_reduction_r_solves_the_matrix_quadratic() {
        for &(c2, rho, mpl) in &[(1.3, 0.95, 21u32), (15.0, 0.95, 12), (5.0, 0.5, 7)] {
            let fs = FlexServer::new(rho / 0.1, H2::fit(0.1, c2), mpl).unwrap();
            let (r, _) = fs.solve_r().unwrap();
            let (a0, a1, a2) = fs.repeating_blocks();
            let residual = a0.add(&r.mul(&a1)).add(&r.mul(&r).mul(&a2)).max_abs();
            assert!(
                residual < 1e-10 * fs.lambda,
                "c2={c2} rho={rho}: {residual}"
            );
            let (oracle, _) = fs.solve_r_functional();
            let diff = r.sub(&oracle).max_abs();
            assert!(diff < 1e-9, "c2={c2} rho={rho}: R differs by {diff}");
        }
    }
}
