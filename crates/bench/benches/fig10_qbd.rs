//! Fig. 10 benchmark: matrix-geometric solution of the flexible
//! multiserver queue, plus the QBD-vs-truncated-chain ablation (the
//! design choice DESIGN.md calls out: the matrix-geometric solver is the
//! production path; the exact truncated solve is the cross-check).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xsched_queueing::{ctmc, FlexServer, H2};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_qbd");
    for (c2, rho, mpl) in [(2.0, 0.7, 5u32), (15.0, 0.7, 15), (15.0, 0.9, 30)] {
        let label = format!("c2{c2}_rho{rho}_mpl{mpl}");
        let h2 = H2::fit(0.1, c2);
        let lambda = rho / 0.1;
        g.bench_with_input(
            BenchmarkId::new("matrix_geometric", &label),
            &mpl,
            |b, &mpl| {
                let fs = FlexServer::new(lambda, h2, mpl).unwrap();
                b.iter(|| fs.solve().unwrap().mean_response_time);
            },
        );
        g.bench_with_input(
            BenchmarkId::new("truncated_chain", &label),
            &mpl,
            |b, &mpl| {
                let fs = FlexServer::new(lambda, h2, mpl).unwrap();
                b.iter(|| ctmc::solve_truncated(&fs, 600).mean_response_time);
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
