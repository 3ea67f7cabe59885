//! Ablation bench: point vs wire-line preconditioned CG against dense LU
//! on nodal-style systems, then the mesh solve behind every nodal read.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vortex_bench::experiments::ablation;
use vortex_linalg::Matrix;
use vortex_xbar::circuit::NodalAnalysis;

fn bench(c: &mut Criterion) {
    let report = ablation::solver_ablation(400, 1);
    println!(
        "solver ablation (n=400): |jacobi - dense| = {:.2e} in {} iterations, \
         |line - dense| = {:.2e} in {} iterations",
        report.jacobi_vs_dense,
        report.jacobi_iterations,
        report.line_vs_dense,
        report.line_iterations
    );
    let mut group = c.benchmark_group("nodal_compute_solve");
    for &rows in &[32usize, 128, 392] {
        let na = NodalAnalysis::new(rows, 10, 2.5).expect("mesh");
        let g = Matrix::filled(rows, 10, 5e-5);
        let x = vec![0.5; rows];
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| black_box(na.compute(black_box(&g), black_box(&x)).expect("solve")))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
