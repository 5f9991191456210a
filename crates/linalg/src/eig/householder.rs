//! Householder reduction of a Hermitian matrix to real symmetric tridiagonal
//! form (the unblocked LAPACK `zhetd2` algorithm), plus accumulation of the
//! unitary similarity `Q` so that `A = Q · T · Q†`.
//!
//! # Loop layout
//!
//! Every loop walks the row-major matrices along rows, so the inner loops
//! read and write contiguous memory:
//!
//! * **Reduction.** Each entry of `p = τ·A·v` is one ordered
//!   [`kernels::dot`] of a trailing row against `v`, and the rank-2 update
//!   `A ← A − v·w† − w·v†` is one [`kernels::rank2`] per trailing row,
//!   with `conj(w)` and `conj(v)` computed once per reflector.
//! * **Q accumulation.** `w = v†·Q` is built row by row with
//!   [`kernels::axpy`] (one `conj(v_r)·Q[r, ·]` term per row, in ascending
//!   row order — the order a column-wise dot would add them), and
//!   `Q ← Q − τ·v·w` then updates the same rows in place. Only columns
//!   `k+1..n` are visited: the columns before them are still identity
//!   columns, zero on the reflector's rows.
//!
//! On finite input, each output element goes through the same
//! floating-point operations in the same order as the textbook
//! element-at-a-time loops, so results are bit-identical to them on every
//! kernel tier and worker count (`tests/kernel_equivalence.rs` pins the
//! digests). NaN or infinite entries can spread differently: those loops
//! also ran over columns `0..=k` of `Q` and wrote the NaN of `0·NaN` there.

use crate::complex::{Complex64, C_ZERO};
use crate::kernels;
use crate::matrix::CMatrix;

/// Output of the tridiagonalization: `A = Q·T·Q†` with `T` real symmetric
/// tridiagonal (diagonal `d`, subdiagonal `e`).
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Diagonal of `T` (length `n`).
    pub d: Vec<f64>,
    /// Subdiagonal of `T` (length `n.saturating_sub(1)`), made real by the
    /// reflector phase choices.
    pub e: Vec<f64>,
    /// Unitary accumulation matrix with `A = Q·T·Q†`.
    pub q: CMatrix,
}

/// Generates an elementary reflector `H = I − τ·v·v†` (LAPACK `zlarfg`) such
/// that `H† · [alpha; x] = [beta; 0]` with `beta` real.
///
/// Returns `(beta, tau, v_rest)` where the full Householder vector is
/// `[1; v_rest]`.
fn larfg(alpha: Complex64, x: &[Complex64]) -> (f64, Complex64, Vec<Complex64>) {
    let xnorm = x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    if xnorm == 0.0 && alpha.im == 0.0 {
        // Already in the desired form; no reflection needed.
        return (alpha.re, C_ZERO, vec![C_ZERO; x.len()]);
    }
    let norm_all = (alpha.norm_sqr() + xnorm * xnorm).sqrt();
    let beta = if alpha.re >= 0.0 { -norm_all } else { norm_all };
    let tau = Complex64::new((beta - alpha.re) / beta, -alpha.im / beta);
    let denom = alpha - beta;
    let inv = denom.recip();
    let v_rest: Vec<Complex64> = x.iter().map(|&z| z * inv).collect();
    (beta, tau, v_rest)
}

/// Reduces a Hermitian matrix to real symmetric tridiagonal form.
///
/// # Panics
///
/// Panics if the matrix is not square. Hermitian-ness is the caller's
/// responsibility (the public [`crate::eig::eigh`] entry point validates).
pub fn tridiagonalize(a: &CMatrix) -> Tridiagonal {
    assert!(a.is_square(), "tridiagonalize: matrix must be square");
    let n = a.nrows();
    let mut m = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n.saturating_sub(1)];
    // Householder vectors (full length n, zero above their support) and taus,
    // kept to accumulate Q afterwards.
    let mut vs: Vec<Vec<Complex64>> = Vec::with_capacity(n.saturating_sub(1));
    let mut taus: Vec<Complex64> = Vec::with_capacity(n.saturating_sub(1));

    for k in 0..n.saturating_sub(1) {
        let alpha = m[(k + 1, k)];
        let x: Vec<Complex64> = (k + 2..n).map(|i| m[(i, k)]).collect();
        let (beta, tau, v_rest) = larfg(alpha, &x);
        e[k] = beta;

        // Full-length Householder vector: support on rows k+1..n.
        let mut v = vec![C_ZERO; n];
        v[k + 1] = Complex64::real(1.0);
        v[k + 2..].copy_from_slice(&v_rest);

        if tau != C_ZERO {
            // Two-sided update of the trailing block m[k+1.., k+1..]:
            //   p = τ·A·v,  w = p − (τ/2)·⟨p, v⟩·v,  A ← A − v·w† − w·v†.
            let sub = k + 1;
            let vsub = &v[sub..];
            let p: Vec<Complex64> = (sub..n)
                .map(|i| kernels::dot(&m.row(i)[sub..], vsub) * tau)
                .collect();
            let coeff = tau.scale(0.5) * kernels::cdot(&p, vsub);
            let w: Vec<Complex64> = p
                .iter()
                .zip(vsub)
                .map(|(pi, vi)| *pi - coeff * *vi)
                .collect();
            let w_conj: Vec<Complex64> = w.iter().map(|z| z.conj()).collect();
            let v_conj: Vec<Complex64> = vsub.iter().map(|z| z.conj()).collect();
            for (i, (&vi, &wi)) in vsub.iter().zip(&w).enumerate() {
                kernels::rank2(vi, &w_conj, wi, &v_conj, &mut m.row_mut(sub + i)[sub..]);
            }
        }

        vs.push(v);
        taus.push(tau);
    }

    for i in 0..n {
        d[i] = m[(i, i)].re;
    }

    // Accumulate Q = H_0·H_1⋯H_{n-2} by applying reflectors to the identity
    // from the left, in reverse order: Q ← H_k·Q = Q − τ·v·(v†·Q). H_k
    // touches only rows k+1..n, and before it is applied Q is the identity
    // outside rows/cols k+2..n, so columns 0..=k stay untouched and the
    // work is the (n−k−1)² block: 2·(n−k−1)² complex multiply-adds for
    // reflector k, ≈ (2/3)·n³ in total.
    let mut q = CMatrix::identity(n);
    let mut w = vec![C_ZERO; n];
    let mut f = vec![C_ZERO; n];
    for k in (0..n.saturating_sub(1)).rev() {
        let tau = taus[k];
        if tau == C_ZERO {
            continue;
        }
        let v = &vs[k];
        let lo = k + 1;
        let (w, f) = (&mut w[lo..], &mut f[lo..]);
        w.fill(C_ZERO);
        for (row, vr) in v.iter().enumerate().skip(lo) {
            kernels::axpy(vr.conj(), &q.row(row)[lo..], w);
        }
        for (fc, wc) in f.iter_mut().zip(w.iter()) {
            *fc = tau * *wc;
        }
        // A column whose dot is exactly zero needs no skip: `Q` starts as
        // the identity and never holds −0, so subtracting the zero product
        // leaves every finite entry's bits as they were.
        for (row, &vr) in v.iter().enumerate().skip(lo) {
            for (qc, fc) in q.row_mut(row)[lo..].iter_mut().zip(f.iter()) {
                *qc -= *fc * vr;
            }
        }
    }

    Tridiagonal { d, e, q }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cdot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tridiag_to_matrix(d: &[f64], e: &[f64]) -> CMatrix {
        let n = d.len();
        CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                Complex64::real(d[i])
            } else if i + 1 == j {
                Complex64::real(e[i])
            } else if j + 1 == i {
                Complex64::real(e[j])
            } else {
                C_ZERO
            }
        })
    }

    #[test]
    fn larfg_annihilates_tail() {
        let alpha = Complex64::new(1.0, 2.0);
        let x = vec![Complex64::new(0.5, -0.5), Complex64::new(-1.0, 0.25)];
        let (beta, tau, v_rest) = larfg(alpha, &x);
        // Build H = I − τ v v† and check H† [alpha; x] = [beta; 0].
        let mut v = vec![Complex64::real(1.0)];
        v.extend_from_slice(&v_rest);
        let full = {
            let mut f = vec![alpha];
            f.extend_from_slice(&x);
            f
        };
        // H† y = y − τ̄ v (v† y)
        let vy = cdot(&v, &full);
        let res: Vec<Complex64> = full
            .iter()
            .zip(&v)
            .map(|(y, vi)| *y - tau.conj() * *vi * vy)
            .collect();
        assert!((res[0] - Complex64::real(beta)).abs() < 1e-12);
        for z in &res[1..] {
            assert!(z.abs() < 1e-12, "tail not annihilated: {z}");
        }
    }

    #[test]
    fn larfg_no_op_for_real_scalar() {
        let (beta, tau, _) = larfg(Complex64::real(2.5), &[]);
        assert_eq!(beta, 2.5);
        assert_eq!(tau, C_ZERO);
    }

    #[test]
    fn q_is_unitary_and_reconstructs() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [2usize, 3, 6, 12] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let tri = tridiagonalize(&a);
            assert!(tri.q.is_unitary(1e-9), "Q not unitary for n={n}");
            let t = tridiag_to_matrix(&tri.d, &tri.e);
            let recon = tri.q.matmul(&t).matmul(&tri.q.adjoint());
            assert!(
                (&recon - &a).max_norm() < 1e-9,
                "Q·T·Q† ≠ A for n={n}: err={}",
                (&recon - &a).max_norm()
            );
        }
    }

    #[test]
    fn already_tridiagonal_real_input() {
        let a = tridiag_to_matrix(&[1.0, 2.0, 3.0], &[0.5, -0.25]);
        let tri = tridiagonalize(&a);
        let t = tridiag_to_matrix(&tri.d, &tri.e);
        let recon = tri.q.matmul(&t).matmul(&tri.q.adjoint());
        assert!((&recon - &a).max_norm() < 1e-10);
    }

    #[test]
    fn one_by_one() {
        let a = CMatrix::from_diag(&[Complex64::real(7.0)]);
        let tri = tridiagonalize(&a);
        assert_eq!(tri.d, vec![7.0]);
        assert!(tri.e.is_empty());
    }
}
