//! Hermitian eigendecomposition.
//!
//! Two independent algorithms are provided and cross-validated against each
//! other in the test suite:
//!
//! * [`eigh`] — Householder tridiagonalization followed by implicit-shift QL
//!   (the `O(n³)`-with-small-constant production path), and
//! * [`eigh_jacobi`] — cyclic complex Jacobi rotations (the slower, highly
//!   robust reference path).
//!
//! Both return a [`HermitianEigen`] with eigenvalues sorted ascending, which
//! is the ordering spectral clustering consumes (lowest eigenvectors first).
//!
//! # Loop layout of the fast path
//!
//! All matrices are row-major, and every `O(n³)` loop of [`eigh`] runs
//! along rows:
//!
//! * [`tridiagonalize`] computes each entry of `A·v` as one ordered
//!   [`crate::kernels::dot`] over a row, applies the rank-2 update as one
//!   [`crate::kernels::rank2`] per row, and accumulates `Q` row by row
//!   with [`crate::kernels::axpy`] over the columns a reflector can reach
//!   (`k+1..n`).
//! * [`tql_implicit`] keeps the eigenvector matrix transposed while it
//!   iterates, so each Givens rotation is one [`crate::kernels::rot`] on
//!   two contiguous rows.
//!
//! On finite input, every output element still goes through the same
//! floating-point operations in the same order as the element-at-a-time
//! loops, so results are bit-identical on every kernel tier and worker
//! count.

mod householder;
mod jacobi;
mod tql;
mod unitary;

pub use householder::{tridiagonalize, Tridiagonal};
pub use jacobi::{jacobi_hermitian, off_diagonal_norm};
pub use tql::tql_implicit;
pub use unitary::{eig_unitary, UnitaryEigen};

use crate::complex::Complex64;
use crate::error::LinalgError;
use crate::matrix::CMatrix;

/// Default tolerance for validating that an input matrix is Hermitian,
/// relative to its max-norm.
pub const HERMITICITY_TOL: f64 = 1e-9;

/// Result of a Hermitian eigendecomposition `A = V·diag(λ)·V†`.
#[derive(Debug, Clone)]
pub struct HermitianEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Unitary matrix whose `j`-th column is the eigenvector of
    /// `eigenvalues[j]`.
    pub eigenvectors: CMatrix,
}

impl HermitianEigen {
    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// The `n × k` matrix of eigenvectors belonging to the `k` smallest
    /// eigenvalues — the spectral embedding used by spectral clustering.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn lowest_k(&self, k: usize) -> CMatrix {
        assert!(k <= self.dim(), "lowest_k: k={} > n={}", k, self.dim());
        let cols: Vec<usize> = (0..k).collect();
        self.eigenvectors.select_columns(&cols)
    }

    /// Condition number `κ` of the projection onto the `k` lowest
    /// eigenvectors: ratio of the largest to the smallest *non-zero*
    /// eigenvalue among the selected ones. Returns `1.0` when all selected
    /// eigenvalues vanish.
    pub fn condition_number_lowest_k(&self, k: usize, zero_tol: f64) -> f64 {
        let sel = &self.eigenvalues[..k.min(self.dim())];
        let nonzero: Vec<f64> = sel.iter().copied().filter(|v| v.abs() > zero_tol).collect();
        match (nonzero.first(), nonzero.last()) {
            (Some(&lo), Some(&hi)) if lo != 0.0 => (hi / lo).abs(),
            _ => 1.0,
        }
    }

    /// Rebuilds `V·diag(λ)·V†`; used in tests to measure residuals.
    pub fn reconstruct(&self) -> CMatrix {
        let lam = CMatrix::from_diag(
            &self
                .eigenvalues
                .iter()
                .map(|&x| Complex64::real(x))
                .collect::<Vec<_>>(),
        );
        self.eigenvectors
            .matmul(&lam)
            .matmul(&self.eigenvectors.adjoint())
    }
}

fn validate_hermitian(a: &CMatrix) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput {
            context: format!("eigh: matrix is {}×{}", a.nrows(), a.ncols()),
        });
    }
    let scale = a.max_norm().max(1.0);
    if !a.is_hermitian(HERMITICITY_TOL * scale) {
        return Err(LinalgError::InvalidInput {
            context: "eigh: matrix is not Hermitian".into(),
        });
    }
    Ok(())
}

fn sorted(mut evals: Vec<f64>, evecs: CMatrix) -> HermitianEigen {
    let mut order: Vec<usize> = (0..evals.len()).collect();
    order.sort_by(|&i, &j| evals[i].partial_cmp(&evals[j]).expect("NaN eigenvalue"));
    let eigenvectors = evecs.select_columns(&order);
    evals.sort_by(|a, b| a.partial_cmp(b).expect("NaN eigenvalue"));
    HermitianEigen {
        eigenvalues: evals,
        eigenvectors,
    }
}

/// Full eigendecomposition of a Hermitian matrix via Householder
/// tridiagonalization + implicit-shift QL (the fast path).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] for non-square or non-Hermitian
/// inputs and [`LinalgError::NoConvergence`] if the QL iteration stalls
/// (pathological inputs only).
///
/// # Examples
///
/// ```
/// use qsc_linalg::{eig::eigh, CMatrix, Complex64, C_I};
///
/// # fn main() -> Result<(), qsc_linalg::LinalgError> {
/// // Pauli-Y has eigenvalues ±1.
/// let y = CMatrix::from_rows(&[
///     vec![Complex64::real(0.0), -C_I],
///     vec![C_I, Complex64::real(0.0)],
/// ]).unwrap();
/// let eig = eigh(&y)?;
/// assert!((eig.eigenvalues[0] + 1.0).abs() < 1e-10);
/// assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn eigh(a: &CMatrix) -> Result<HermitianEigen, LinalgError> {
    validate_hermitian(a)?;
    let tri = tridiagonalize(a);
    let mut d = tri.d;
    let mut e = tri.e;
    let mut z = tri.q;
    tql_implicit(&mut d, &mut e, &mut z)?;
    Ok(sorted(d, z))
}

/// Full eigendecomposition via cyclic complex Jacobi (reference path).
///
/// # Errors
///
/// Same contract as [`eigh`].
pub fn eigh_jacobi(a: &CMatrix) -> Result<HermitianEigen, LinalgError> {
    validate_hermitian(a)?;
    let (evals, evecs) = jacobi_hermitian(a, 1e-13)?;
    Ok(sorted(evals, evecs))
}

/// Eigenvalues only (ascending), via the fast path.
///
/// # Errors
///
/// Same contract as [`eigh`].
pub fn eigvalsh(a: &CMatrix) -> Result<Vec<f64>, LinalgError> {
    Ok(eigh(a)?.eigenvalues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C_I, C_ZERO};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fast_path_reconstructs_random_hermitian() {
        let mut rng = StdRng::seed_from_u64(55);
        for n in [1usize, 2, 3, 7, 16, 32] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let eig = eigh(&a).unwrap();
            assert!(
                (&eig.reconstruct() - &a).max_norm() < 1e-8,
                "fast path reconstruction failed at n={n}"
            );
            assert!(eig.eigenvectors.is_unitary(1e-8));
            // Ascending order.
            for w in eig.eigenvalues.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn jacobi_and_fast_path_agree_on_eigenvalues() {
        let mut rng = StdRng::seed_from_u64(56);
        for n in [4usize, 9, 20] {
            let a = CMatrix::random_hermitian(n, &mut rng);
            let fast = eigh(&a).unwrap();
            let refe = eigh_jacobi(&a).unwrap();
            for (x, y) in fast.eigenvalues.iter().zip(&refe.eigenvalues) {
                assert!((x - y).abs() < 1e-8, "eigenvalue mismatch at n={n}");
            }
        }
    }

    #[test]
    fn eigenpair_residuals_small() {
        let mut rng = StdRng::seed_from_u64(57);
        let a = CMatrix::random_hermitian(24, &mut rng);
        let eig = eigh(&a).unwrap();
        for j in 0..24 {
            let v = eig.eigenvectors.col(j);
            assert!(a.eigen_residual(eig.eigenvalues[j], &v) < 1e-8);
        }
    }

    #[test]
    fn rejects_non_hermitian() {
        let m = CMatrix::from_rows(&[vec![C_ZERO, C_I], vec![C_I, C_ZERO]]).unwrap();
        assert!(eigh(&m).is_err());
        assert!(eigh_jacobi(&m).is_err());
    }

    #[test]
    fn lowest_k_selects_prefix_columns() {
        let a = CMatrix::from_diag(&[
            Complex64::real(3.0),
            Complex64::real(1.0),
            Complex64::real(2.0),
        ]);
        let eig = eigh(&a).unwrap();
        assert_eq!(eig.eigenvalues, vec![1.0, 2.0, 3.0]);
        let low = eig.lowest_k(2);
        assert_eq!(low.ncols(), 2);
        // The lowest eigenvalue (1.0) lives on axis 1, the next (2.0) on 2.
        assert!((low[(1, 0)].abs() - 1.0).abs() < 1e-12);
        assert!((low[(2, 1)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_number_skips_zero_eigenvalues() {
        let a = CMatrix::from_diag(&[
            Complex64::real(0.0),
            Complex64::real(0.5),
            Complex64::real(2.0),
        ]);
        let eig = eigh(&a).unwrap();
        let kappa = eig.condition_number_lowest_k(3, 1e-12);
        assert!((kappa - 4.0).abs() < 1e-9);
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        let mut rng = StdRng::seed_from_u64(58);
        let a = CMatrix::random_hermitian(10, &mut rng);
        assert_eq!(eigvalsh(&a).unwrap(), eigh(&a).unwrap().eigenvalues);
    }

    #[test]
    fn degenerate_spectrum_handled() {
        // 4×4 identity: all eigenvalues 1.
        let a = CMatrix::identity(4);
        let eig = eigh(&a).unwrap();
        for v in &eig.eigenvalues {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!(eig.eigenvectors.is_unitary(1e-10));
    }
}
