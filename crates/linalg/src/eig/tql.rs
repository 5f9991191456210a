//! Implicit QL algorithm with Wilkinson shifts for real symmetric
//! tridiagonal matrices (EISPACK `tql2` lineage), accumulating the real
//! Givens rotations into a complex eigenvector matrix so it composes with
//! the Householder reduction of Hermitian matrices.
//!
//! The eigenvector matrix is kept transposed while the iteration runs, so
//! the Givens rotation on columns `i, i+1` of `z` is one [`kernels::rot`]
//! on two contiguous rows instead of a walk down two columns with stride
//! `n`. The rotations are applied in the same order with the same
//! arithmetic, so the result is bit-identical to the column-wise loop.

use crate::complex::Complex64;
use crate::error::LinalgError;
use crate::kernels;
use crate::matrix::CMatrix;

/// Iteration budget per eigenvalue.
const MAX_ITER: usize = 64;

/// Diagonalizes a real symmetric tridiagonal matrix in place.
///
/// On entry `d` holds the diagonal and `e` the subdiagonal (`e.len() ==
/// d.len() − 1`); `z` is the matrix whose columns the rotations should be
/// accumulated into (pass the `Q` of the Householder reduction, or the
/// identity for the eigenvectors of `T` itself). On successful exit `d`
/// holds the eigenvalues (unsorted) and column `j` of `z` is the eigenvector
/// for `d[j]`.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] if an eigenvalue fails to converge
/// within the iteration budget.
///
/// # Panics
///
/// Panics if the lengths of `d`, `e` and the shape of `z` are inconsistent.
pub fn tql_implicit(d: &mut [f64], e: &mut [f64], z: &mut CMatrix) -> Result<(), LinalgError> {
    let n = d.len();
    assert_eq!(e.len(), n.saturating_sub(1), "tql: subdiagonal length");
    assert_eq!(z.nrows(), z.ncols(), "tql: z must be square");
    assert_eq!(z.nrows(), n, "tql: z dimension");
    if n <= 1 {
        return Ok(());
    }

    // Work with a sentinel-extended subdiagonal: ee[i] couples i and i+1.
    let mut ee = vec![0.0; n];
    ee[..n - 1].copy_from_slice(e);
    // Row j of `zt` is column j of `z`; it is written back even when the
    // iteration fails, as the in-place column updates would have left it.
    let mut zt = z.transpose().into_vec();
    let result = ql_sweeps(d, &mut ee, &mut zt);
    *z = CMatrix::from_vec(n, n, zt)
        .expect("n × n buffer")
        .transpose();
    result
}

/// The QL iteration on the sentinel-extended subdiagonal `ee`, rotating
/// the rows of the transposed eigenvector matrix `zt`.
fn ql_sweeps(d: &mut [f64], ee: &mut [f64], zt: &mut [Complex64]) -> Result<(), LinalgError> {
    let n = d.len();
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find the first negligible subdiagonal element at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if ee[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tql_implicit",
                    iterations: MAX_ITER,
                    residual: Some(ee[l].abs()),
                });
            }

            // Wilkinson-style shift: g + sign(g)·hypot(g, 1).
            let g0 = (d[l + 1] - d[l]) / (2.0 * ee[l]);
            let mut r = g0.hypot(1.0);
            let mut g = d[m] - d[l] + ee[l] / (g0 + r.copysign(g0));

            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;

            for i in (l..m).rev() {
                let f = s * ee[i];
                let b = c * ee[i];
                r = f.hypot(g);
                ee[i + 1] = r;
                if r == 0.0 {
                    // Rotation underflow: recover and restart this eigenvalue.
                    d[i + 1] -= p;
                    ee[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;

                // Accumulate the Givens rotation into columns i, i+1 of z.
                let (z0, z1) = zt[i * n..(i + 2) * n].split_at_mut(n);
                kernels::rot(c, s, z0, z1);
            }

            if underflow {
                continue;
            }
            d[l] -= p;
            ee[l] = g;
            ee[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag_matrix(d: &[f64], e: &[f64]) -> CMatrix {
        let n = d.len();
        CMatrix::from_real_fn(n, n, |i, j| {
            if i == j {
                d[i]
            } else if i + 1 == j {
                e[i]
            } else if j + 1 == i {
                e[j]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2, 1], [1, 2]] → eigenvalues 1 and 3.
        let mut d = vec![2.0, 2.0];
        let mut e = vec![1.0];
        let mut z = CMatrix::identity(2);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_path_graph_eigenvalues() {
        // Path graph Laplacian on 4 nodes: eigenvalues 2 − 2cos(kπ/4).
        let d0 = [1.0, 2.0, 2.0, 1.0];
        let e0 = [-1.0, -1.0, -1.0];
        let mut d = d0.to_vec();
        let mut e = e0.to_vec();
        let mut z = CMatrix::identity(4);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        let mut got = d.clone();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..4)
            .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 4.0).cos())
            .collect();
        for (g, ex) in got.iter().zip(&expect) {
            assert!((g - ex).abs() < 1e-10, "got {g}, expected {ex}");
        }
        // Eigenvector columns must satisfy T·z_j = d_j·z_j.
        let t = tridiag_matrix(&d0, &e0);
        for (j, &dj) in d.iter().enumerate().take(4) {
            let col = z.col(j);
            assert!(t.eigen_residual(dj, &col) < 1e-9);
        }
    }

    #[test]
    fn diagonal_input_unchanged() {
        let mut d = vec![3.0, 1.0, 2.0];
        let mut e = vec![0.0, 0.0];
        let mut z = CMatrix::identity(3);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        assert_eq!(d, vec![3.0, 1.0, 2.0]);
        assert!((&z - &CMatrix::identity(3)).max_norm() < 1e-14);
    }

    #[test]
    fn eigenvectors_orthonormal_on_random_tridiagonal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let n = 12;
        let d0: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e0: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut d = d0.clone();
        let mut e = e0.clone();
        let mut z = CMatrix::identity(n);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        assert!(z.is_unitary(1e-9));
        let t = tridiag_matrix(&d0, &e0);
        for (j, &dj) in d.iter().enumerate() {
            let col: Vec<Complex64> = z.col(j);
            assert!(
                t.eigen_residual(dj, &col) < 1e-8,
                "residual too large for eigenpair {j}"
            );
        }
    }

    #[test]
    fn single_element() {
        let mut d = vec![5.0];
        let mut e: Vec<f64> = vec![];
        let mut z = CMatrix::identity(1);
        tql_implicit(&mut d, &mut e, &mut z).unwrap();
        assert_eq!(d, vec![5.0]);
    }
}
