//! Differential kernel-equivalence harness: every SIMD kernel tier vs the
//! scalar reference, bit for bit.
//!
//! The workspace's byte-identity claims (golden CSVs, cross-backend
//! amplitude pinning, content-addressed caching) all assume the complex
//! kernels in `qsc_linalg::kernels` produce the same bits on every tier.
//! This suite is what makes that assumption enforceable:
//!
//! * every kernel × every available tier × awkward lengths (1..=9, 2^n±1)
//!   on seeded random inputs — exact bit equality against the scalar tier;
//! * special values: denormals, signed zeros, infinities — exact bit
//!   equality; NaN inputs — NaN-position identity plus bit equality on the
//!   non-NaN lanes (NaN *payloads* are microarchitecture detail we do not
//!   bet CI on);
//! * state-level replays: `apply_single` / controlled gates / controlled
//!   phase at every qubit position (stride edges), and the matrix kernels
//!   (`matmul`, `matvec`, `gram`) against in-test naive scalar loops —
//!   pinning the *wiring*, not just the kernels;
//! * proptest generators for gate and reduction inputs;
//! * the dense Hermitian eigensolver (`eigh`, whose loops run on `dot`,
//!   `axpy`, `rank2` and `rot`) and CSR Lanczos (which runs the same QL
//!   solver), digested bit for bit against pinned values.
//!
//! CI runs this suite under `QSC_KERNELS` ∈ {scalar, portable, avx2} ×
//! `RAYON_NUM_THREADS` ∈ {1, 2, 4}; in-process, the `_with` kernel
//! variants additionally exercise every available tier regardless of the
//! environment (tiers the CPU lacks are skipped with a note).

use proptest::prelude::*;
use qsc_suite::graph::generators::{dsbm, DsbmParams, MetaGraph};
use qsc_suite::graph::{normalized_hermitian_laplacian_csr, MixedGraph, Q_CLASSICAL};
use qsc_suite::linalg::kernels::{
    self, axpy_with, cdot_with, dot_with, gate2_with, rank2_with, rot_with, scale_with, Gate2,
    KernelTier,
};
use qsc_suite::linalg::lanczos::lanczos_lowest_k_csr;
use qsc_suite::linalg::{eigh, CMatrix, Complex64, CsrMatrix, C_ONE, C_ZERO};
use qsc_suite::sim::QuantumState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lengths that hit every edge the tiers care about: sub-width slices,
/// odd remainders, and exact power-of-two boundaries ±1.
const AWKWARD_LENS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257,
];

/// The tiers this CPU can execute, with a skip note for the ones it
/// cannot (the note is the suite's record that coverage was reduced).
fn available_tiers() -> Vec<KernelTier> {
    let mut tiers = Vec::new();
    for tier in KernelTier::ALL {
        if tier.is_available() {
            tiers.push(tier);
        } else {
            eprintln!("note: skipping {tier} kernel tier (not supported by this CPU)");
        }
    }
    tiers
}

fn bits(z: Complex64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Exact bit equality, element by element. `context` names the kernel and
/// tier so a failure is self-locating.
fn assert_bits_eq(got: &[Complex64], want: &[Complex64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            bits(*g),
            bits(*w),
            "{context}: element {i}: got {g:?}, want {w:?}"
        );
    }
}

/// NaN-tolerant comparison: NaNs must appear in the same lanes; non-NaN
/// lanes must be bit-equal. (x86 NaN *payload* propagation is matched by
/// the operand-order discipline, but we do not pin CI on it.)
fn assert_nan_pattern_eq(got: &[Complex64], want: &[Complex64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        for (lane, (gv, wv)) in [("re", (g.re, w.re)), ("im", (g.im, w.im))] {
            assert_eq!(
                gv.is_nan(),
                wv.is_nan(),
                "{context}: element {i}.{lane}: NaN mismatch: got {gv}, want {wv}"
            );
            if !wv.is_nan() {
                assert_eq!(
                    gv.to_bits(),
                    wv.to_bits(),
                    "{context}: element {i}.{lane}: got {gv}, want {wv}"
                );
            }
        }
    }
}

fn random_vec(len: usize, rng: &mut StdRng) -> Vec<Complex64> {
    (0..len)
        .map(|_| Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
        .collect()
}

fn random_gate(rng: &mut StdRng) -> Gate2 {
    let g = |rng: &mut StdRng| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
    [[g(rng), g(rng)], [g(rng), g(rng)]]
}

/// A vector salted with every non-NaN special value class: ±0.0,
/// denormals (including the smallest positive f64), ±∞, and huge/tiny
/// magnitudes.
fn special_vec(len: usize, rng: &mut StdRng) -> Vec<Complex64> {
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,                      // smallest normal
        f64::MIN_POSITIVE / 2.0,                // denormal
        f64::from_bits(1),                      // smallest positive denormal
        -f64::from_bits(0x0008_0000_0000_0001), // negative denormal
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e308,
        -1e-308,
    ];
    (0..len)
        .map(|_| {
            let pick = |rng: &mut StdRng| {
                if rng.gen::<bool>() {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            };
            Complex64::new(pick(rng), pick(rng))
        })
        .collect()
}

/// Like [`special_vec`] but also salts NaNs in.
fn nan_vec(len: usize, rng: &mut StdRng) -> Vec<Complex64> {
    let mut v = special_vec(len, rng);
    for z in v.iter_mut() {
        if rng.gen_range(0..4) == 0 {
            if rng.gen::<bool>() {
                z.re = f64::NAN;
            } else {
                z.im = f64::NAN;
            }
        }
    }
    v
}

// ---------------------------------------------------------------------------
// Kernel-level differentials: each tier vs the scalar tier.
// ---------------------------------------------------------------------------

#[test]
fn gate2_is_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(101);
    for &len in AWKWARD_LENS {
        let lo0 = random_vec(len, &mut rng);
        let hi0 = random_vec(len, &mut rng);
        let g = random_gate(&mut rng);
        let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
        gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
        for tier in available_tiers() {
            let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
            gate2_with(tier, &g, &mut lo, &mut hi);
            assert_bits_eq(&lo, &rlo, &format!("gate2 lo len {len} tier {tier}"));
            assert_bits_eq(&hi, &rhi, &format!("gate2 hi len {len} tier {tier}"));
        }
    }
}

#[test]
fn scale_is_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(102);
    for &len in AWKWARD_LENS {
        let x0 = random_vec(len, &mut rng);
        let alpha = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let mut want = x0.clone();
        scale_with(KernelTier::Scalar, alpha, &mut want);
        for tier in available_tiers() {
            let mut x = x0.clone();
            scale_with(tier, alpha, &mut x);
            assert_bits_eq(&x, &want, &format!("scale len {len} tier {tier}"));
        }
    }
}

#[test]
fn axpy_is_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(103);
    for &len in AWKWARD_LENS {
        let x = random_vec(len, &mut rng);
        let y0 = random_vec(len, &mut rng);
        let alpha = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let mut want = y0.clone();
        axpy_with(KernelTier::Scalar, alpha, &x, &mut want);
        for tier in available_tiers() {
            let mut y = y0.clone();
            axpy_with(tier, alpha, &x, &mut y);
            assert_bits_eq(&y, &want, &format!("axpy len {len} tier {tier}"));
        }
    }
}

#[test]
fn ordered_reductions_are_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(104);
    for &len in AWKWARD_LENS {
        let x = random_vec(len, &mut rng);
        let y = random_vec(len, &mut rng);
        let want_dot = dot_with(KernelTier::Scalar, &x, &y);
        let want_cdot = cdot_with(KernelTier::Scalar, &x, &y);
        for tier in available_tiers() {
            assert_bits_eq(
                &[dot_with(tier, &x, &y)],
                &[want_dot],
                &format!("dot len {len} tier {tier}"),
            );
            assert_bits_eq(
                &[cdot_with(tier, &x, &y)],
                &[want_cdot],
                &format!("cdot len {len} tier {tier}"),
            );
        }
    }
}

#[test]
fn rot_and_rank2_are_bit_identical_across_tiers_at_awkward_lengths() {
    let mut rng = StdRng::seed_from_u64(107);
    for &len in AWKWARD_LENS {
        let x0 = random_vec(len, &mut rng);
        let y0 = random_vec(len, &mut rng);
        let u = random_vec(len, &mut rng);
        let theta: f64 = rng.gen_range(-3.0..3.0);
        let (c, s) = (theta.cos(), theta.sin());
        let a = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let b = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let (mut rx, mut ry) = (x0.clone(), y0.clone());
        rot_with(KernelTier::Scalar, c, s, &mut rx, &mut ry);
        let mut rr = y0.clone();
        rank2_with(KernelTier::Scalar, a, &x0, b, &u, &mut rr);
        for tier in available_tiers() {
            let (mut x, mut y) = (x0.clone(), y0.clone());
            rot_with(tier, c, s, &mut x, &mut y);
            assert_bits_eq(&x, &rx, &format!("rot x len {len} tier {tier}"));
            assert_bits_eq(&y, &ry, &format!("rot y len {len} tier {tier}"));
            let mut r = y0.clone();
            rank2_with(tier, a, &x0, b, &u, &mut r);
            assert_bits_eq(&r, &rr, &format!("rank2 len {len} tier {tier}"));
        }
    }
}

#[test]
fn special_values_are_bit_identical_across_tiers() {
    // Denormals, signed zeros, infinities: the SIMD lanes must round,
    // underflow, and sign-propagate exactly like the scalar ops.
    let mut rng = StdRng::seed_from_u64(105);
    for &len in &[1, 2, 3, 7, 8, 9, 33, 257] {
        for case in 0..8 {
            let lo0 = special_vec(len, &mut rng);
            let hi0 = special_vec(len, &mut rng);
            let g = random_gate(&mut rng);
            let alpha = hi0[0];
            let context =
                |k: &str, t: KernelTier| format!("{k} special len {len} case {case} tier {t}");

            let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
            gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
            let mut rscale = lo0.clone();
            scale_with(KernelTier::Scalar, alpha, &mut rscale);
            let mut raxpy = hi0.clone();
            axpy_with(KernelTier::Scalar, alpha, &lo0, &mut raxpy);
            let rdot = dot_with(KernelTier::Scalar, &lo0, &hi0);
            let rcdot = cdot_with(KernelTier::Scalar, &lo0, &hi0);
            let (c, sn) = (alpha.re, lo0[0].im);
            let (mut rrx, mut rry) = (lo0.clone(), hi0.clone());
            rot_with(KernelTier::Scalar, c, sn, &mut rrx, &mut rry);
            let mut rrank = hi0.clone();
            rank2_with(KernelTier::Scalar, alpha, &lo0, lo0[0], &hi0, &mut rrank);

            for tier in available_tiers() {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                gate2_with(tier, &g, &mut lo, &mut hi);
                assert_nan_pattern_eq(&lo, &rlo, &context("gate2 lo", tier));
                assert_nan_pattern_eq(&hi, &rhi, &context("gate2 hi", tier));
                let (mut x, mut y) = (lo0.clone(), hi0.clone());
                rot_with(tier, c, sn, &mut x, &mut y);
                assert_nan_pattern_eq(&x, &rrx, &context("rot x", tier));
                assert_nan_pattern_eq(&y, &rry, &context("rot y", tier));
                let mut r = hi0.clone();
                rank2_with(tier, alpha, &lo0, lo0[0], &hi0, &mut r);
                assert_nan_pattern_eq(&r, &rrank, &context("rank2", tier));
                let mut s = lo0.clone();
                scale_with(tier, alpha, &mut s);
                assert_nan_pattern_eq(&s, &rscale, &context("scale", tier));
                let mut a = hi0.clone();
                axpy_with(tier, alpha, &lo0, &mut a);
                assert_nan_pattern_eq(&a, &raxpy, &context("axpy", tier));
                assert_nan_pattern_eq(
                    &[dot_with(tier, &lo0, &hi0)],
                    &[rdot],
                    &context("dot", tier),
                );
                assert_nan_pattern_eq(
                    &[cdot_with(tier, &lo0, &hi0)],
                    &[rcdot],
                    &context("cdot", tier),
                );
            }
        }
    }
}

#[test]
fn nan_propagation_matches_scalar_positions() {
    // A NaN anywhere in an input must surface as NaN in exactly the lanes
    // the scalar reference produces it in, with every other lane bit-equal.
    let mut rng = StdRng::seed_from_u64(106);
    for &len in &[1, 3, 4, 5, 8, 17, 64, 129] {
        for case in 0..8 {
            let lo0 = nan_vec(len, &mut rng);
            let hi0 = nan_vec(len, &mut rng);
            let g = random_gate(&mut rng);
            let context =
                |k: &str, t: KernelTier| format!("{k} nan len {len} case {case} tier {t}");

            let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
            gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
            let rdot = dot_with(KernelTier::Scalar, &lo0, &hi0);
            let rcdot = cdot_with(KernelTier::Scalar, &lo0, &hi0);
            let (c, sn) = (g[0][0].re, g[0][1].re);
            let (mut rrx, mut rry) = (lo0.clone(), hi0.clone());
            rot_with(KernelTier::Scalar, c, sn, &mut rrx, &mut rry);
            let mut rrank = hi0.clone();
            rank2_with(KernelTier::Scalar, g[1][0], &lo0, g[1][1], &hi0, &mut rrank);

            for tier in available_tiers() {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                gate2_with(tier, &g, &mut lo, &mut hi);
                assert_nan_pattern_eq(&lo, &rlo, &context("gate2 lo", tier));
                assert_nan_pattern_eq(&hi, &rhi, &context("gate2 hi", tier));
                let (mut x, mut y) = (lo0.clone(), hi0.clone());
                rot_with(tier, c, sn, &mut x, &mut y);
                assert_nan_pattern_eq(&x, &rrx, &context("rot x", tier));
                assert_nan_pattern_eq(&y, &rry, &context("rot y", tier));
                let mut r = hi0.clone();
                rank2_with(tier, g[1][0], &lo0, g[1][1], &hi0, &mut r);
                assert_nan_pattern_eq(&r, &rrank, &context("rank2", tier));
                assert_nan_pattern_eq(
                    &[dot_with(tier, &lo0, &hi0)],
                    &[rdot],
                    &context("dot", tier),
                );
                assert_nan_pattern_eq(
                    &[cdot_with(tier, &lo0, &hi0)],
                    &[rcdot],
                    &context("cdot", tier),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch layer.
// ---------------------------------------------------------------------------

#[test]
fn active_tier_honors_a_forced_environment() {
    // Under the CI env-matrix, QSC_KERNELS is set before the process
    // starts; the latched active tier must match it exactly (the forced
    // tier is validated, so "set but unavailable" never reaches here).
    let active = kernels::active();
    assert!(active.is_available(), "active tier must be executable");
    match std::env::var(kernels::KERNELS_ENV) {
        Ok(forced) => match KernelTier::parse(&forced) {
            Some(tier) if tier.is_available() => {
                assert_eq!(
                    active,
                    tier,
                    "{}={forced} was not honored",
                    kernels::KERNELS_ENV
                );
            }
            Some(tier) => {
                eprintln!(
                    "note: {}={tier} forced but unavailable; library fell back",
                    kernels::KERNELS_ENV
                );
                assert_eq!(active, kernels::detect());
            }
            None => panic!("CI set an invalid {}={forced}", kernels::KERNELS_ENV),
        },
        Err(_) => assert_eq!(active, kernels::detect(), "no override: detection wins"),
    }
}

#[test]
fn validate_rejects_unknown_and_unavailable_tiers_by_name() {
    // The error type itself (the named-error contract binaries rely on).
    let unknown = kernels::KernelConfigError::UnknownTier("mmx".into());
    let message = unknown.to_string();
    assert!(message.contains(kernels::KERNELS_ENV), "{message}");
    assert!(message.contains("mmx"), "{message}");
    assert!(message.contains("scalar | portable | avx2"), "{message}");
    let unavailable = kernels::KernelConfigError::Unavailable(KernelTier::Avx2);
    assert!(unavailable.to_string().contains("avx2"));
}

// ---------------------------------------------------------------------------
// Wiring-level replays: the dispatched kernels as the simulator and the
// matrix layer actually call them.
// ---------------------------------------------------------------------------

/// Scalar reference for a single-qubit gate: the textbook per-index loop,
/// written without any shared kernel code.
fn naive_apply_single(amps: &mut [Complex64], g: &Gate2, qubit: usize) {
    let bit = 1usize << qubit;
    for i in 0..amps.len() {
        if i & bit == 0 {
            let a0 = amps[i];
            let a1 = amps[i | bit];
            amps[i] = g[0][0] * a0 + g[0][1] * a1;
            amps[i | bit] = g[1][0] * a0 + g[1][1] * a1;
        }
    }
}

fn naive_apply_controlled(amps: &mut [Complex64], g: &Gate2, control: usize, target: usize) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    for i in 0..amps.len() {
        if i & tbit == 0 && i & cbit != 0 {
            let a0 = amps[i];
            let a1 = amps[i | tbit];
            amps[i] = g[0][0] * a0 + g[0][1] * a1;
            amps[i | tbit] = g[1][0] * a0 + g[1][1] * a1;
        }
    }
}

fn naive_apply_cphase(amps: &mut [Complex64], control: usize, target: usize, theta: f64) {
    let phase = Complex64::cis(theta);
    let both = (1usize << control) | (1usize << target);
    for (i, a) in amps.iter_mut().enumerate() {
        if i & both == both {
            *a *= phase;
        }
    }
}

fn random_state(n: usize, rng: &mut StdRng) -> QuantumState {
    let amps = random_vec(1 << n, rng);
    QuantumState::from_amplitudes(amps).expect("dimension matches")
}

#[test]
fn apply_single_matches_naive_replay_at_every_stride() {
    // Every qubit position of every register size up to 9 qubits: this
    // sweeps the kernel across stride edges 1, 2, 4, …, 256 — sub-lane,
    // exact-lane, and multi-lane splits included — under the *dispatched*
    // tier, against a from-scratch scalar replay.
    let mut rng = StdRng::seed_from_u64(201);
    for n in 1..=9 {
        for qubit in 0..n {
            let state0 = random_state(n, &mut rng);
            let g = random_gate(&mut rng);
            let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
            naive_apply_single(&mut want, &g, qubit);
            let mut state = state0;
            state.apply_single(&g, qubit).expect("in range");
            assert_bits_eq(
                state.amplitudes(),
                &want,
                &format!("apply_single n {n} qubit {qubit}"),
            );
        }
    }
}

#[test]
fn controlled_gates_match_naive_replay_for_every_qubit_pair() {
    let mut rng = StdRng::seed_from_u64(202);
    for n in 2..=7 {
        for control in 0..n {
            for target in 0..n {
                if control == target {
                    continue;
                }
                let state0 = random_state(n, &mut rng);
                let g = random_gate(&mut rng);
                let theta: f64 = rng.gen_range(-3.0..3.0);

                let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
                naive_apply_controlled(&mut want, &g, control, target);
                let mut state = state0.clone();
                state
                    .apply_controlled_single(&g, control, target)
                    .expect("in range");
                assert_bits_eq(
                    state.amplitudes(),
                    &want,
                    &format!("controlled n {n} c {control} t {target}"),
                );

                let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
                naive_apply_cphase(&mut want, control, target, theta);
                let mut state = state0.clone();
                state
                    .apply_controlled_phase(control, target, theta)
                    .expect("in range");
                assert_bits_eq(
                    state.amplitudes(),
                    &want,
                    &format!("cphase n {n} c {control} t {target}"),
                );
            }
        }
    }
}

/// Naive ikj matmul with the same `a == 0` skip as the production kernel
/// (the skip is semantic for ±0.0/∞/NaN operands, so the reference must
/// mirror it).
fn naive_matmul(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        for k in 0..a.ncols() {
            let s = a[(i, k)];
            if s == C_ZERO {
                continue;
            }
            for j in 0..b.ncols() {
                let prod = s * b[(k, j)];
                out[(i, j)] += prod;
            }
        }
    }
    out
}

#[test]
fn matrix_kernels_match_naive_scalar_loops() {
    let mut rng = StdRng::seed_from_u64(203);
    // Sizes straddling the k-tile width (64) and the lane widths.
    for &(m, k, n) in &[
        (1, 1, 1),
        (3, 5, 2),
        (7, 9, 8),
        (16, 17, 15),
        (33, 64, 9),
        (20, 65, 33),
    ] {
        let a = CMatrix::from_fn(m, k, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let b = CMatrix::from_fn(k, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let want = naive_matmul(&a, &b);
        let got = a.matmul(&b);
        for i in 0..m {
            assert_bits_eq(
                got.row(i),
                want.row(i),
                &format!("matmul {m}x{k}x{n} row {i}"),
            );
        }
        let got_serial = a.matmul_serial(&b);
        for i in 0..m {
            assert_bits_eq(
                got_serial.row(i),
                want.row(i),
                &format!("matmul_serial {m}x{k}x{n} row {i}"),
            );
        }

        // matvec: ordered row dots.
        let x = random_vec(k, &mut rng);
        let want_y: Vec<Complex64> = (0..m)
            .map(|i| {
                let mut acc = C_ZERO;
                for (av, xv) in a.row(i).iter().zip(&x) {
                    acc += *av * *xv;
                }
                acc
            })
            .collect();
        assert_bits_eq(&a.matvec(&x), &want_y, &format!("matvec {m}x{k}"));

        // gram: conjugated axpy accumulation over the upper triangle.
        let want_g = {
            let mut out = CMatrix::zeros(k, k);
            for i in 0..k {
                for r in 0..m {
                    let c = a[(r, i)].conj();
                    if c == C_ZERO {
                        continue;
                    }
                    for j in i..k {
                        let prod = c * a[(r, j)];
                        out[(i, j)] += prod;
                    }
                }
            }
            for i in 0..k {
                for j in 0..i {
                    out[(i, j)] = out[(j, i)].conj();
                }
            }
            out
        };
        let got_g = a.gram();
        for i in 0..k {
            assert_bits_eq(
                got_g.row(i),
                want_g.row(i),
                &format!("gram {m}x{k} row {i}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Eigensolver bit pins: FNV-1a digests of every output bit, recorded from
// the element-at-a-time column loops the row-wise solver replaced. They hold
// under every kernel tier and worker count because the solver only uses
// the bit-identical ordered kernels.
// ---------------------------------------------------------------------------

/// FNV-1a over the bit patterns of a sequence of `f64`s.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn matrix_bits(m: &CMatrix) -> impl Iterator<Item = f64> + '_ {
    m.as_slice().iter().flat_map(|z| [z.re, z.im])
}

/// Digest of a full `eigh`: eigenvalues, then eigenvectors row-major.
fn eigh_digest(a: &CMatrix) -> u64 {
    let eig = eigh(a).expect("eigh");
    fnv1a(
        eig.eigenvalues
            .iter()
            .copied()
            .chain(matrix_bits(&eig.eigenvectors)),
    )
}

/// Digest of `lanczos_lowest_k_csr(a, 3, 1e-8, seed 5)`, which runs the
/// QL solver on every Krylov tridiagonal.
fn lanczos_digest(a: &CsrMatrix) -> u64 {
    let mut rng = StdRng::seed_from_u64(5);
    let part = lanczos_lowest_k_csr(a, 3, 1e-8, &mut rng).expect("lanczos");
    fnv1a(
        part.eigenvalues
            .iter()
            .copied()
            .chain(matrix_bits(&part.eigenvectors))
            .chain([part.iterations as f64]),
    )
}

/// A DSBM Laplacian shaped like the classical benchmark's instances.
fn dsbm_laplacian(n: usize, seed: u64) -> CsrMatrix {
    let g = dsbm(&DsbmParams {
        n,
        k: 3,
        p_intra: 0.25,
        p_inter: 0.25,
        eta_flow: 0.9,
        meta: MetaGraph::Cycle,
        seed,
        ..DsbmParams::default()
    })
    .expect("dsbm");
    normalized_hermitian_laplacian_csr(&g.graph, Q_CLASSICAL)
}

/// Two mixed components (vertices 0..6 and 7..13) around an isolated
/// vertex 6: the reduction meets `tau == 0` reflectors at the block
/// boundaries and the Q accumulation meets exactly-zero column dots.
fn split_laplacian() -> CsrMatrix {
    let mut g = MixedGraph::new(13);
    for base in [0usize, 7] {
        for i in 0..5 {
            g.add_edge(base + i, base + i + 1, 1.0 + 0.25 * i as f64)
                .expect("edge");
        }
        g.add_arc(base, base + 3, 0.75).expect("arc");
        g.add_arc(base + 4, base + 1, 1.5).expect("arc");
        g.add_arc(base + 5, base + 2, 0.5).expect("arc");
    }
    normalized_hermitian_laplacian_csr(&g, Q_CLASSICAL)
}

#[test]
fn eigensolver_outputs_match_their_pinned_bits() {
    let mut rng = StdRng::seed_from_u64(64);
    let random = CMatrix::random_hermitian(64, &mut rng);
    let dsbm200 = dsbm_laplacian(200, 15);
    let split = split_laplacian();
    let got = [
        ("eigh random_hermitian(64)", eigh_digest(&random)),
        ("eigh dsbm n=200", eigh_digest(&dsbm200.to_dense())),
        (
            "eigh two components + isolated",
            eigh_digest(&split.to_dense()),
        ),
        ("lanczos_csr dsbm n=200", lanczos_digest(&dsbm200)),
        (
            "lanczos_csr two components + isolated",
            lanczos_digest(&split),
        ),
    ];
    let want: [u64; 5] = [
        0x64235d54ede9ec0c,
        0xebf68c42b10156fd,
        0x27b4ebf95a38f155,
        0x3e63b8ba80c587b5,
        0xf3654a0f42e8bf13,
    ];
    let mismatched: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != w)
        .map(|((name, g), w)| format!("{name}: digest {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(mismatched.is_empty(), "{}", mismatched.join("\n"));
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_gate2_bit_identical_on_random_inputs(
        seed in 0u64..1_000_000,
        len in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo0 = random_vec(len, &mut rng);
        let hi0 = random_vec(len, &mut rng);
        let g = random_gate(&mut rng);
        let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
        gate2_with(KernelTier::Scalar, &g, &mut rlo, &mut rhi);
        for tier in available_tiers() {
            let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
            gate2_with(tier, &g, &mut lo, &mut hi);
            for i in 0..len {
                prop_assert_eq!(bits(lo[i]), bits(rlo[i]), "lo {} tier {}", i, tier);
                prop_assert_eq!(bits(hi[i]), bits(rhi[i]), "hi {} tier {}", i, tier);
            }
        }
    }

    #[test]
    fn prop_block_unitary_dot_bit_identical(
        seed in 0u64..1_000_000,
        block_qubits in 1usize..4,
    ) {
        // The block-unitary path is row-dots against state slices; pin the
        // whole wired operation on a random unitary-sized matrix.
        let mut rng = StdRng::seed_from_u64(seed);
        let block = 1usize << block_qubits;
        let u = CMatrix::from_fn(block, block, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let n = block_qubits + 2;
        let state0 = random_state(n, &mut rng);
        let mut want: Vec<Complex64> = state0.amplitudes().to_vec();
        for slice in want.chunks_mut(block) {
            let mut scratch = vec![C_ZERO; block];
            for (i, s) in scratch.iter_mut().enumerate() {
                let mut acc = C_ZERO;
                for (x, y) in u.row(i).iter().zip(slice.iter()) {
                    acc += *x * *y;
                }
                *s = acc;
            }
            slice.copy_from_slice(&scratch);
        }
        let mut state = state0;
        state.apply_controlled_block_unitary(&u, None).expect("fits");
        for (i, (g, w)) in state.amplitudes().iter().zip(&want).enumerate() {
            prop_assert_eq!(bits(*g), bits(*w), "amplitude {}", i);
        }
    }

    #[test]
    fn prop_scale_and_axpy_bit_identical(
        seed in 0u64..1_000_000,
        len in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_vec(len, &mut rng);
        let y0 = random_vec(len, &mut rng);
        let alpha = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let mut rscale = x.clone();
        scale_with(KernelTier::Scalar, alpha, &mut rscale);
        let mut raxpy = y0.clone();
        axpy_with(KernelTier::Scalar, alpha, &x, &mut raxpy);
        for tier in available_tiers() {
            let mut s = x.clone();
            scale_with(tier, alpha, &mut s);
            let mut a = y0.clone();
            axpy_with(tier, alpha, &x, &mut a);
            for i in 0..len {
                prop_assert_eq!(bits(s[i]), bits(rscale[i]), "scale {} tier {}", i, tier);
                prop_assert_eq!(bits(a[i]), bits(raxpy[i]), "axpy {} tier {}", i, tier);
            }
        }
    }

    #[test]
    fn prop_rot_and_rank2_bit_identical(
        seed in 0u64..1_000_000,
        len in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = random_vec(len, &mut rng);
        let y0 = random_vec(len, &mut rng);
        let u = random_vec(len, &mut rng);
        let (c, s) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let a = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let b = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        let (mut rx, mut ry) = (x0.clone(), y0.clone());
        rot_with(KernelTier::Scalar, c, s, &mut rx, &mut ry);
        let mut rr = y0.clone();
        rank2_with(KernelTier::Scalar, a, &x0, b, &u, &mut rr);
        for tier in available_tiers() {
            let (mut x, mut y) = (x0.clone(), y0.clone());
            rot_with(tier, c, s, &mut x, &mut y);
            let mut r = y0.clone();
            rank2_with(tier, a, &x0, b, &u, &mut r);
            for i in 0..len {
                prop_assert_eq!(bits(x[i]), bits(rx[i]), "rot x {} tier {}", i, tier);
                prop_assert_eq!(bits(y[i]), bits(ry[i]), "rot y {} tier {}", i, tier);
                prop_assert_eq!(bits(r[i]), bits(rr[i]), "rank2 {} tier {}", i, tier);
            }
        }
    }
}

#[test]
fn identity_gate_is_exact_on_every_tier() {
    // Identity coefficients must pass amplitudes through untouched — the
    // +0·x terms must not flip signed zeros (addsub of exact zeros).
    let id: Gate2 = [[C_ONE, C_ZERO], [C_ZERO, C_ONE]];
    let mut rng = StdRng::seed_from_u64(301);
    let lo0 = special_vec(64, &mut rng);
    let hi0 = special_vec(64, &mut rng);
    let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
    gate2_with(KernelTier::Scalar, &id, &mut rlo, &mut rhi);
    for tier in available_tiers() {
        let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
        gate2_with(tier, &id, &mut lo, &mut hi);
        assert_nan_pattern_eq(&lo, &rlo, &format!("identity lo tier {tier}"));
        assert_nan_pattern_eq(&hi, &rhi, &format!("identity hi tier {tier}"));
    }
}
