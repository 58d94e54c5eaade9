//! Criterion micro-benchmarks of the orthogonalization kernels
//! (CholQR, CholQR2, Householder QR, BCGS-PIP) on a tall-skinny panel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distsim::{DistMultiVector, SerialComm};

fn panel(n: usize, s: usize) -> dense::Matrix {
    dense::Matrix::from_fn(n, s, |i, j| {
        ((i * 31 + j * 17) % 29) as f64 * 0.07 + if i % (j + 2) == 0 { 1.5 } else { 0.0 }
    })
}

fn bench_intra_kernels(c: &mut Criterion) {
    let n = 50_000;
    let s = 5;
    let v = panel(n, s);
    let mut group = c.benchmark_group("intra_block_qr");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("cholqr", s), |b| {
        b.iter(|| {
            let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            blockortho::kernels::cholqr(&mut basis, 0..s).unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("cholqr2", s), |b| {
        b.iter(|| {
            let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            blockortho::kernels::cholqr2(&mut basis, 0..s).unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("householder_qr", s), |b| {
        b.iter(|| dense::householder_qr(&v))
    });
    group.finish();
}

fn bench_inter_kernels(c: &mut Criterion) {
    let n = 50_000;
    let s = 5;
    let prev = 30;
    let v = panel(n, prev + s);
    let mut group = c.benchmark_group("inter_block");
    group.sample_size(10);
    group.bench_function("bcgs", |b| {
        b.iter(|| {
            let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            blockortho::kernels::bcgs(&mut basis, 0..prev, prev..prev + s)
        })
    });
    group.bench_function("bcgs_pip", |b| {
        b.iter(|| {
            let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            blockortho::kernels::bcgs_pip(&mut basis, 0..prev, prev..prev + s).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_intra_kernels, bench_inter_kernels);
criterion_main!(benches);
