//! Before/after micro-benches for the parallel, cache-blocked compute
//! kernels (PR: "Parallel, cache-blocked compute kernels across linalg +
//! qsim, with a CSR sparse path for the spectral pipeline").
//!
//! Each group pairs the optimized kernel with the seed-equivalent serial
//! reference, so one `cargo bench --bench kernels` run produces the full
//! before/after table. Setting `QSC_BENCH_JSON=BENCH_<tag>.json` appends
//! machine-readable rows (one JSON object per line) — that is how the
//! committed `BENCH_*.json` baselines are generated:
//!
//! ```text
//! QSC_BENCH_JSON=BENCH_seed.json cargo bench -p qsc-bench --bench kernels
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use qsc_core::{GraphInstance, Pipeline};
use qsc_graph::generators::{dsbm, random_mixed, DsbmParams, MetaGraph, RandomMixedParams};
use qsc_graph::{normalized_hermitian_laplacian_csr, Q_CLASSICAL};
use qsc_linalg::eig::{eigh, tql_implicit, tridiagonalize};
use qsc_linalg::lanczos::{lanczos_lowest_k, lanczos_lowest_k_csr};
use qsc_linalg::{CMatrix, Complex64};
use qsc_sim::qpe::{qpe_gate_level, qpe_gate_level_repeated_squaring};
use qsc_sim::QuantumState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// 512×512 dense complex matmul: serial ikj reference vs the blocked,
/// rayon-parallel kernel.
fn bench_matmul_512(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul512");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    let a = CMatrix::random(512, 512, &mut rng);
    let b = CMatrix::random(512, 512, &mut rng);
    group.bench_function("serial", |bch| {
        bch.iter(|| black_box(&a).matmul_serial(black_box(&b)))
    });
    group.bench_function("blocked_parallel", |bch| {
        bch.iter(|| black_box(&a).matmul(black_box(&b)))
    });
    group.finish();
}

/// 12-qubit gate-level QPE (4 system + 8 phase qubits): repeated matrix
/// squaring vs the eigendecompose-once phase cascade.
fn bench_qpe_12_qubits(c: &mut Criterion) {
    let mut group = c.benchmark_group("qpe12");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let h = CMatrix::random_hermitian(16, &mut rng);
    let u = qsc_linalg::expm::expi(&h, 0.8).expect("unitary");
    let amps: Vec<Complex64> = (0..16)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let input = QuantumState::from_amplitudes(amps).expect("state");
    let t = 8;
    group.bench_function("repeated_squaring", |bch| {
        bch.iter(|| {
            qpe_gate_level_repeated_squaring(black_box(&u), black_box(&input), t).expect("qpe")
        })
    });
    group.bench_function("eigendecompose_once", |bch| {
        bch.iter(|| qpe_gate_level(black_box(&u), black_box(&input), t).expect("qpe"))
    });
    group.finish();
}

/// Lowest-4 eigenpairs of a 2000-vertex sparse mixed-graph Laplacian:
/// dense Lanczos (the seed path, O(n²) per matvec) vs Lanczos on CSR
/// (O(nnz) per matvec).
fn bench_lanczos_2000(c: &mut Criterion) {
    let mut group = c.benchmark_group("lanczos2000");
    group.sample_size(10);
    let g = random_mixed(&RandomMixedParams {
        n: 2000,
        p_undirected: 0.002,
        p_directed: 0.002,
        weight_range: (0.5, 1.5),
        seed: 3,
    })
    .expect("graph");
    let sparse = normalized_hermitian_laplacian_csr(&g, Q_CLASSICAL);
    let dense = sparse.to_dense();
    group.bench_function("dense", |bch| {
        bch.iter(|| {
            lanczos_lowest_k(black_box(&dense), 4, 1e-8, &mut StdRng::seed_from_u64(7))
                .expect("lanczos")
        })
    });
    group.bench_function("csr", |bch| {
        bch.iter(|| {
            lanczos_lowest_k_csr(black_box(&sparse), 4, 1e-8, &mut StdRng::seed_from_u64(7))
                .expect("lanczos")
        })
    });
    group.finish();
}

/// Dense Hermitian eigensolver on one 400-vertex flow-DSBM Laplacian
/// shaped like the classical benchmark's instances, whole and split into
/// its two stages: the Householder reduction with Q accumulation, and the
/// QL iteration (from a cloned reduction, so every sample does the same
/// work).
fn bench_eigh_400(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigh400");
    group.sample_size(10);
    let inst = dsbm(&DsbmParams {
        n: 400,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 0.9,
        meta: MetaGraph::Cycle,
        seed: 4,
        ..DsbmParams::default()
    })
    .expect("dsbm");
    let lap = normalized_hermitian_laplacian_csr(&inst.graph, Q_CLASSICAL).to_dense();
    group.bench_function("eigh", |bch| {
        bch.iter(|| eigh(black_box(&lap)).expect("eigh"))
    });
    group.bench_function("tridiagonalize", |bch| {
        bch.iter(|| tridiagonalize(black_box(&lap)))
    });
    let tri = tridiagonalize(&lap);
    group.bench_function("tql_implicit", |bch| {
        bch.iter(|| {
            let mut t = tri.clone();
            tql_implicit(&mut t.d, &mut t.e, &mut t.q).expect("tql");
            t
        })
    });
    group.finish();
}

/// End-to-end batch runner: an 8-instance flow-DSBM batch through the full
/// classical pipeline, as one sequential loop vs one rayon-parallel
/// `run_many` call. Results are identical by construction (per-instance
/// seeds, thread-count-independent kernels); the gap is pure scheduling.
fn bench_run_many_8(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_many8");
    group.sample_size(10);
    let instances: Vec<_> = (0..8u64)
        .map(|seed| {
            dsbm(&DsbmParams {
                n: 160,
                k: 3,
                p_intra: 0.25,
                p_inter: 0.25,
                eta_flow: 0.9,
                meta: MetaGraph::Cycle,
                seed,
                ..DsbmParams::default()
            })
            .expect("dsbm")
        })
        .collect();
    let batch: Vec<GraphInstance> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| GraphInstance::with_seed(&inst.graph, i as u64))
        .collect();
    let pl = Pipeline::hermitian(3);
    group.bench_function("sequential_loop", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|inst| {
                    pl.clone()
                        .seed(inst.seed.expect("seeded batch"))
                        .run(black_box(inst.graph))
                        .expect("run")
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("run_many_parallel", |b| {
        b.iter(|| {
            pl.run_many(black_box(&batch))
                .into_iter()
                .map(|slot| slot.expect("run_many"))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_matmul_512,
    bench_qpe_12_qubits,
    bench_lanczos_2000,
    bench_eigh_400,
    bench_run_many_8
);
criterion_main!(kernels);
