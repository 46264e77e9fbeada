//! Property-based tests for the analytic solvers.

use proptest::prelude::*;
use xsched_queueing::{ctmc, ClosedNetwork, FlexServer, Mat, H2};

proptest! {
    /// LU solve actually solves: A·x = b reproduces b.
    #[test]
    fn lu_solves(
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Diagonally dominant matrix => well conditioned and nonsingular.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b);
        let back = a.mul_vec(&x);
        for (g, w) in back.iter().zip(&b) {
            prop_assert!((g - w).abs() < 1e-8, "residual too large");
        }
        // And the inverse round-trips.
        let err = a.mul(&a.inverse()).sub(&Mat::identity(n)).max_abs();
        prop_assert!(err < 1e-8);
    }

    /// The inverse is two-sided, also where every column needs a pivot
    /// swap: the rows of a diagonally dominant matrix are rotated so no
    /// diagonal entry is the column's largest.
    #[test]
    fn inverse_is_two_sided(
        n in 2usize..12,
        shift in 1usize..11,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    d[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            d[(i, i)] = row_sum + 1.0;
        }
        let k = 1 + shift % (n - 1);
        let a = Mat::from_fn(n, n, |i, j| d[((i + k) % n, j)]);
        let inv = a.inverse();
        let id = Mat::identity(n);
        prop_assert!(a.mul(&inv).sub(&id).max_abs() < 1e-9, "A·A⁻¹ is not I");
        prop_assert!(inv.mul(&a).sub(&id).max_abs() < 1e-9, "A⁻¹·A is not I");
    }

    /// MVA response times satisfy Little's law at every population:
    /// X(n) · R(n) = n (zero think time).
    #[test]
    fn mva_littles_law(
        demands in proptest::collection::vec(0.01f64..2.0, 1..6),
        n in 1u32..40,
    ) {
        let net = ClosedNetwork::new(demands);
        for s in net.solve_series(n) {
            prop_assert!((s.throughput * s.response_time - s.population as f64).abs() < 1e-9);
            for u in &s.utilizations {
                prop_assert!(*u <= 1.0 + 1e-9, "utilization above 1");
            }
        }
    }

    /// The matrix-geometric and truncated-chain solvers agree for any
    /// stable parameterization.
    #[test]
    fn qbd_agrees_with_truncation(
        c2 in 1.0f64..10.0,
        rho in 0.2f64..0.8,
        mpl in 1u32..8,
    ) {
        let h2 = H2::fit(0.05, c2);
        let lambda = rho / 0.05;
        let fs = FlexServer::new(lambda, h2, mpl).unwrap();
        let a = fs.solve().unwrap().mean_response_time;
        let b = ctmc::solve_truncated(&fs, 500).mean_response_time;
        prop_assert!((a - b).abs() / b < 1e-4, "qbd {a} vs truncated {b}");
    }

    /// Response time decreases (weakly) in the MPL — holding back work
    /// never helps the mean when sizes are H2 (FIFO end is worst).
    #[test]
    fn flex_monotone_in_mpl(c2 in 1.0f64..10.0, rho in 0.2f64..0.8) {
        let h2 = H2::fit(0.05, c2);
        let lambda = rho / 0.05;
        let mut prev = f64::INFINITY;
        for mpl in [1u32, 2, 4, 8, 16] {
            let t = FlexServer::new(lambda, h2, mpl).unwrap().mean_response_time().unwrap();
            prop_assert!(t <= prev * (1.0 + 1e-9), "not monotone at MPL {mpl}");
            prev = t;
        }
    }
}
