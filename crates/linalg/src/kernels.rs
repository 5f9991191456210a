//! Runtime-dispatched SIMD tiers for the complex hot-loop kernels.
//!
//! Every dense numeric hot path in the workspace — single-qubit gate pair
//! loops, the blocked matmul/matvec inner products, the density backend's
//! flat-buffer gate application, vector axpy/dot, the Householder
//! reduction, `Q` accumulation and QL rotations of the dense Hermitian
//! eigensolver — bottoms out in one of seven primitive kernels defined here:
//!
//! | kernel | operation | contract |
//! |---|---|---|
//! | [`gate2`] | 2×2 gate on an amplitude-pair slice | **bit-identical** across tiers |
//! | [`scale`] | `x_i ← x_i · α` | **bit-identical** across tiers |
//! | [`axpy`] | `y_i ← y_i + α · x_i` | **bit-identical** across tiers |
//! | [`dot`] | `Σ x_i · y_i` (ascending `i`) | **bit-identical** across tiers |
//! | [`cdot`] | `Σ conj(x_i) · y_i` (ascending `i`) | **bit-identical** across tiers |
//! | [`rot`] | real plane rotation of two slices | **bit-identical** across tiers |
//! | [`rank2`] | `y_i ← y_i − (a · x_i + b · u_i)` | **bit-identical** across tiers |
//!
//! Three tiers implement each kernel:
//!
//! * [`KernelTier::Scalar`] — the original element-at-a-time loops, kept
//!   forever as the reference implementation the differential suite
//!   (`tests/kernel_equivalence.rs`) compares against.
//! * [`KernelTier::Portable`] — 2-wide straight-line blocks with no
//!   target-specific intrinsics; the autovectorizer reliably lowers them
//!   to 128-bit SIMD (SSE2 on x86-64, NEON on aarch64). Arithmetic is the
//!   scalar expressions verbatim, so bit-identity is structural.
//! * [`KernelTier::Avx2`] — explicit `f64x4` lanes (two complex numbers
//!   per 256-bit register) via `core::arch::x86_64` intrinsics, compiled
//!   with `#[target_feature(enable = "avx2")]` and selected only when
//!   `is_x86_feature_detected!("avx2")` holds at runtime.
//!
//! # The bit-identity discipline
//!
//! The repo pins CSV/amplitude bytes across backends, worker counts,
//! hosts, and — since this module exists — kernel tiers. The AVX2 paths
//! therefore use **no FMA** (fusing changes rounding) and perform exactly
//! the scalar operations on exactly the scalar operand order: a complex
//! multiply is `addsub(self_re·rhs, self_im·swap(rhs))`, which produces
//! `self.re·rhs.re − self.im·rhs.im` / `self.re·rhs.im + self.im·rhs.re`
//! — the operand-for-operand image of `Complex64::mul` — and reductions
//! accumulate one complex element at a time from a zero accumulator, the
//! image of `Sum`'s fold. x86 packed and scalar float ops share rounding
//! *and* NaN-selection semantics, so equality holds to the last bit.
//!
//! # Dispatch
//!
//! [`active`] picks the tier once per process: the `QSC_KERNELS`
//! environment variable (`scalar` | `portable` | `avx2`) if set to an
//! available tier, else the best detected tier. Binaries call
//! [`validate`] at startup so an unknown value or a tier the CPU lacks is
//! a *named configuration error* (exit 2 from `experiments`), never a
//! silent fallback; the library-level [`active`] does fall back to
//! detection so misconfiguration can never make numerics unsafe. The
//! `*_with` variants take an explicit tier so the differential tests can
//! exercise every tier inside one process.
//!
//! # Adding a lane width
//!
//! See `docs/KERNELS.md` for the step-by-step recipe (new `KernelTier`
//! variant, an `mod <tier>` with the seven kernels, availability detection,
//! and the equivalence-suite hook — the suite iterates `KernelTier::ALL`,
//! so a new tier is differentially tested for free).

use crate::complex::Complex64;
use std::fmt;
use std::sync::OnceLock;

/// A 2×2 complex gate matrix, `[[a, b], [c, d]]` row-major.
pub type Gate2 = [[Complex64; 2]; 2];

/// Environment variable that forces a kernel tier (`scalar` | `portable`
/// | `avx2`).
pub const KERNELS_ENV: &str = "QSC_KERNELS";

/// One implementation tier of the complex kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Element-at-a-time reference loops (always available).
    Scalar,
    /// 2-wide autovectorizable blocks, no target-specific intrinsics
    /// (always available).
    Portable,
    /// Explicit 256-bit AVX2 lanes (x86-64 with runtime-detected AVX2).
    Avx2,
}

impl KernelTier {
    /// Every tier, in escalation order. The equivalence suite iterates
    /// this to differentially test each tier against `Scalar`.
    pub const ALL: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Portable, KernelTier::Avx2];

    /// The tier's canonical lowercase name (what `QSC_KERNELS` accepts
    /// and what healthz/bench output reports).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Portable => "portable",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Parses a tier name as accepted by [`KERNELS_ENV`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "scalar" => Some(KernelTier::Scalar),
            "portable" => Some(KernelTier::Portable),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }

    /// `true` when this process can execute the tier on this CPU.
    pub fn is_available(self) -> bool {
        match self {
            KernelTier::Scalar | KernelTier::Portable => true,
            KernelTier::Avx2 => avx2_available(),
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// A rejected `QSC_KERNELS` configuration: an unknown tier name, or a
/// tier this CPU cannot execute. Binaries surface this as a usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelConfigError {
    /// The value is not a tier name.
    UnknownTier(String),
    /// The value names a real tier the current CPU lacks.
    Unavailable(KernelTier),
}

impl fmt::Display for KernelConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelConfigError::UnknownTier(value) => write!(
                f,
                "{KERNELS_ENV}: unknown kernel tier `{value}` (expected scalar | portable | avx2)"
            ),
            KernelConfigError::Unavailable(tier) => write!(
                f,
                "{KERNELS_ENV}: kernel tier `{tier}` is not supported by this CPU"
            ),
        }
    }
}

impl std::error::Error for KernelConfigError {}

/// The best tier the running CPU supports, ignoring the environment.
pub fn detect() -> KernelTier {
    if KernelTier::Avx2.is_available() {
        KernelTier::Avx2
    } else {
        KernelTier::Portable
    }
}

/// The tier `QSC_KERNELS` requests, if any.
///
/// # Errors
///
/// Returns [`KernelConfigError::UnknownTier`] when the variable is set to
/// something that is not a tier name. Availability is *not* checked here
/// — see [`validate`].
pub fn requested() -> Result<Option<KernelTier>, KernelConfigError> {
    match std::env::var(KERNELS_ENV) {
        Ok(value) => KernelTier::parse(&value)
            .map(Some)
            .ok_or(KernelConfigError::UnknownTier(value)),
        Err(_) => Ok(None),
    }
}

/// Resolves the tier this process will run, rejecting bad configuration.
///
/// Binaries call this at startup so a typo'd or unsupported
/// `QSC_KERNELS` is a named error with a dedicated exit code instead of
/// a silently different tier.
///
/// # Errors
///
/// Returns [`KernelConfigError`] for an unknown tier name or a tier the
/// CPU lacks.
pub fn validate() -> Result<KernelTier, KernelConfigError> {
    match requested()? {
        Some(tier) if tier.is_available() => Ok(tier),
        Some(tier) => Err(KernelConfigError::Unavailable(tier)),
        None => Ok(detect()),
    }
}

/// The tier every dispatched kernel in this process uses, latched on
/// first use.
///
/// An invalid or unavailable `QSC_KERNELS` falls back to [`detect`] here
/// (the library must stay numerically safe no matter the environment);
/// binaries reject it first via [`validate`].
pub fn active() -> KernelTier {
    static ACTIVE: OnceLock<KernelTier> = OnceLock::new();
    *ACTIVE.get_or_init(|| validate().unwrap_or_else(|_| detect()))
}

// ---------------------------------------------------------------------------
// Dispatched kernels. Each `foo` runs the process-wide active tier; each
// `foo_with` takes an explicit tier (the differential tests' entry point).
// An explicitly requested AVX2 tier quietly degrades to Portable when the
// CPU lacks it, so `_with` is safe to call unconditionally.
// ---------------------------------------------------------------------------

/// Applies the 2×2 gate `g` to the amplitude pairs `(lo[i], hi[i])`:
/// `lo[i] ← g00·lo[i] + g01·hi[i]`, `hi[i] ← g10·lo[i] + g11·hi[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn gate2(g: &Gate2, lo: &mut [Complex64], hi: &mut [Complex64]) {
    gate2_with(active(), g, lo, hi);
}

/// [`gate2`] on an explicit tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn gate2_with(tier: KernelTier, g: &Gate2, lo: &mut [Complex64], hi: &mut [Complex64]) {
    assert_eq!(lo.len(), hi.len(), "gate2: length mismatch");
    match effective(tier) {
        KernelTier::Scalar => scalar::gate2(g, lo, hi),
        KernelTier::Portable => portable::gate2(g, lo, hi),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU has it.
        KernelTier::Avx2 => unsafe { avx2::gate2(g, lo, hi) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("avx2 tier on a non-x86_64 target"),
    }
}

/// Multiplies every element of `xs` by `alpha` (`x_i ← x_i · α`, the
/// `*=` operand order).
#[inline]
pub fn scale(alpha: Complex64, xs: &mut [Complex64]) {
    scale_with(active(), alpha, xs);
}

/// [`scale`] on an explicit tier.
pub fn scale_with(tier: KernelTier, alpha: Complex64, xs: &mut [Complex64]) {
    match effective(tier) {
        KernelTier::Scalar => scalar::scale(alpha, xs),
        KernelTier::Portable => portable::scale(alpha, xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU has it.
        KernelTier::Avx2 => unsafe { avx2::scale(alpha, xs) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("avx2 tier on a non-x86_64 target"),
    }
}

/// `y_i ← y_i + α · x_i` (complex axpy, the accumulate operand order).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    axpy_with(active(), alpha, x, y);
}

/// [`axpy`] on an explicit tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy_with(tier: KernelTier, alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match effective(tier) {
        KernelTier::Scalar => scalar::axpy(alpha, x, y),
        KernelTier::Portable => portable::axpy(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU has it.
        KernelTier::Avx2 => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("avx2 tier on a non-x86_64 target"),
    }
}

/// Ordered product sum `Σ x_i · y_i`, accumulated in ascending `i` from a
/// zero accumulator — bit-identical to the scalar `acc += x[i] * y[i]`
/// loop on every tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    dot_with(active(), x, y)
}

/// [`dot`] on an explicit tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_with(tier: KernelTier, x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    match effective(tier) {
        KernelTier::Scalar => scalar::dot(x, y),
        KernelTier::Portable => portable::dot(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU has it.
        KernelTier::Avx2 => unsafe { avx2::dot(x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("avx2 tier on a non-x86_64 target"),
    }
}

/// Ordered Hermitian product sum `Σ conj(x_i) · y_i`, accumulated in
/// ascending `i` — bit-identical to `x.iter().zip(y).map(|(a, b)|
/// a.conj() * *b).sum()` on every tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn cdot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    cdot_with(active(), x, y)
}

/// [`cdot`] on an explicit tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cdot_with(tier: KernelTier, x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "cdot: length mismatch");
    match effective(tier) {
        KernelTier::Scalar => scalar::cdot(x, y),
        KernelTier::Portable => portable::cdot(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU has it.
        KernelTier::Avx2 => unsafe { avx2::cdot(x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("avx2 tier on a non-x86_64 target"),
    }
}

/// Real plane (Givens) rotation of two complex slices, elementwise with
/// the old values: `x_i ← x_i·c − y_i·s`, `y_i ← x_i·s + y_i·c`, each
/// component multiplied by the real `c`/`s` on the right
/// ([`Complex64::scale`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn rot(c: f64, s: f64, x: &mut [Complex64], y: &mut [Complex64]) {
    rot_with(active(), c, s, x, y);
}

/// [`rot`] on an explicit tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rot_with(tier: KernelTier, c: f64, s: f64, x: &mut [Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "rot: length mismatch");
    match effective(tier) {
        KernelTier::Scalar => scalar::rot(c, s, x, y),
        KernelTier::Portable => portable::rot(c, s, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU has it.
        KernelTier::Avx2 => unsafe { avx2::rot(c, s, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("avx2 tier on a non-x86_64 target"),
    }
}

/// One row of a rank-2 update: `y_i ← y_i − (a · x_i + b · u_i)`, both
/// products with the broadcast scalar on the left.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn rank2(a: Complex64, x: &[Complex64], b: Complex64, u: &[Complex64], y: &mut [Complex64]) {
    rank2_with(active(), a, x, b, u, y);
}

/// [`rank2`] on an explicit tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rank2_with(
    tier: KernelTier,
    a: Complex64,
    x: &[Complex64],
    b: Complex64,
    u: &[Complex64],
    y: &mut [Complex64],
) {
    assert!(
        x.len() == y.len() && u.len() == y.len(),
        "rank2: length mismatch"
    );
    match effective(tier) {
        KernelTier::Scalar => scalar::rank2(a, x, b, u, y),
        KernelTier::Portable => portable::rank2(a, x, b, u, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` only returns Avx2 when the CPU has it.
        KernelTier::Avx2 => unsafe { avx2::rank2(a, x, b, u, y) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("avx2 tier on a non-x86_64 target"),
    }
}

/// Degrades an explicitly requested tier to one the CPU can execute.
#[inline]
fn effective(tier: KernelTier) -> KernelTier {
    if tier.is_available() {
        tier
    } else {
        KernelTier::Portable
    }
}

// ---------------------------------------------------------------------------
// Scalar tier: the permanent reference implementations. These are the
// seed repo's loops, element at a time; every other tier is differentially
// tested against them.
// ---------------------------------------------------------------------------

mod scalar {
    use super::Gate2;
    use crate::complex::{Complex64, C_ZERO};

    #[inline(always)]
    pub(super) fn gate_pair(g: &Gate2, x: &mut Complex64, y: &mut Complex64) {
        let a0 = *x;
        let a1 = *y;
        *x = g[0][0] * a0 + g[0][1] * a1;
        *y = g[1][0] * a0 + g[1][1] * a1;
    }

    pub(super) fn gate2(g: &Gate2, lo: &mut [Complex64], hi: &mut [Complex64]) {
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            gate_pair(g, x, y);
        }
    }

    pub(super) fn scale(alpha: Complex64, xs: &mut [Complex64]) {
        for x in xs.iter_mut() {
            *x *= alpha;
        }
    }

    pub(super) fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * *xi;
        }
    }

    pub(super) fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        let mut acc = C_ZERO;
        for (a, b) in x.iter().zip(y) {
            acc += *a * *b;
        }
        acc
    }

    pub(super) fn cdot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        let mut acc = C_ZERO;
        for (a, b) in x.iter().zip(y) {
            acc += a.conj() * *b;
        }
        acc
    }

    pub(super) fn rot(c: f64, s: f64, x: &mut [Complex64], y: &mut [Complex64]) {
        for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
            let (a, b) = (*xi, *yi);
            *xi = a.scale(c) - b.scale(s);
            *yi = a.scale(s) + b.scale(c);
        }
    }

    pub(super) fn rank2(
        a: Complex64,
        x: &[Complex64],
        b: Complex64,
        u: &[Complex64],
        y: &mut [Complex64],
    ) {
        for ((yi, xi), ui) in y.iter_mut().zip(x).zip(u) {
            *yi -= a * *xi + b * *ui;
        }
    }
}

// ---------------------------------------------------------------------------
// Portable tier: 2-wide straight-line blocks. The arithmetic is the
// scalar expressions verbatim (bit-identity is structural, not argued);
// the block shape is what lets the autovectorizer keep both complex
// elements of a 128-bit register in flight on any target.
// ---------------------------------------------------------------------------

mod portable {
    use super::{scalar, Gate2};
    use crate::complex::{Complex64, C_ZERO};

    pub(super) fn gate2(g: &Gate2, lo: &mut [Complex64], hi: &mut [Complex64]) {
        let mut lc = lo.chunks_exact_mut(2);
        let mut hc = hi.chunks_exact_mut(2);
        for (l2, h2) in (&mut lc).zip(&mut hc) {
            let (x0, x1) = (l2[0], l2[1]);
            let (y0, y1) = (h2[0], h2[1]);
            l2[0] = g[0][0] * x0 + g[0][1] * y0;
            l2[1] = g[0][0] * x1 + g[0][1] * y1;
            h2[0] = g[1][0] * x0 + g[1][1] * y0;
            h2[1] = g[1][0] * x1 + g[1][1] * y1;
        }
        scalar::gate2(g, lc.into_remainder(), hc.into_remainder());
    }

    pub(super) fn scale(alpha: Complex64, xs: &mut [Complex64]) {
        let mut it = xs.chunks_exact_mut(2);
        for x2 in &mut it {
            let (x0, x1) = (x2[0], x2[1]);
            x2[0] = x0 * alpha;
            x2[1] = x1 * alpha;
        }
        scalar::scale(alpha, it.into_remainder());
    }

    pub(super) fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
        let mut yc = y.chunks_exact_mut(2);
        let mut xc = x.chunks_exact(2);
        for (y2, x2) in (&mut yc).zip(&mut xc) {
            y2[0] += alpha * x2[0];
            y2[1] += alpha * x2[1];
        }
        scalar::axpy(alpha, xc.remainder(), yc.into_remainder());
    }

    pub(super) fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        // The products vectorize 2-wide; the accumulation stays strictly
        // ordered (one element at a time), matching the scalar fold.
        let mut acc = C_ZERO;
        let mut xc = x.chunks_exact(2);
        let mut yc = y.chunks_exact(2);
        for (x2, y2) in (&mut xc).zip(&mut yc) {
            let p0 = x2[0] * y2[0];
            let p1 = x2[1] * y2[1];
            acc += p0;
            acc += p1;
        }
        for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
            acc += *a * *b;
        }
        acc
    }

    pub(super) fn cdot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        let mut acc = C_ZERO;
        let mut xc = x.chunks_exact(2);
        let mut yc = y.chunks_exact(2);
        for (x2, y2) in (&mut xc).zip(&mut yc) {
            let p0 = x2[0].conj() * y2[0];
            let p1 = x2[1].conj() * y2[1];
            acc += p0;
            acc += p1;
        }
        for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
            acc += a.conj() * *b;
        }
        acc
    }

    pub(super) fn rot(c: f64, s: f64, x: &mut [Complex64], y: &mut [Complex64]) {
        let mut xc = x.chunks_exact_mut(2);
        let mut yc = y.chunks_exact_mut(2);
        for (x2, y2) in (&mut xc).zip(&mut yc) {
            let (a0, a1) = (x2[0], x2[1]);
            let (b0, b1) = (y2[0], y2[1]);
            x2[0] = a0.scale(c) - b0.scale(s);
            x2[1] = a1.scale(c) - b1.scale(s);
            y2[0] = a0.scale(s) + b0.scale(c);
            y2[1] = a1.scale(s) + b1.scale(c);
        }
        scalar::rot(c, s, xc.into_remainder(), yc.into_remainder());
    }

    pub(super) fn rank2(
        a: Complex64,
        x: &[Complex64],
        b: Complex64,
        u: &[Complex64],
        y: &mut [Complex64],
    ) {
        let mut yc = y.chunks_exact_mut(2);
        let mut xc = x.chunks_exact(2);
        let mut uc = u.chunks_exact(2);
        for ((y2, x2), u2) in (&mut yc).zip(&mut xc).zip(&mut uc) {
            y2[0] -= a * x2[0] + b * u2[0];
            y2[1] -= a * x2[1] + b * u2[1];
        }
        scalar::rank2(a, xc.remainder(), b, uc.remainder(), yc.into_remainder());
    }
}

// ---------------------------------------------------------------------------
// AVX2 tier: two complex f64 per 256-bit register. Every function is
// `unsafe` and `#[target_feature(enable = "avx2")]`; callers guarantee
// the CPU supports AVX2 (the dispatchers check). No FMA anywhere — the
// bit-identity contract forbids fused rounding.
//
// The complex-multiply building block, for `self · rhs` with scalar
// semantics `re = s.re·r.re − s.im·r.im`, `im = s.re·r.im + s.im·r.re`:
//
//   addsub( [s.re,s.re] · [r.re,r.im],  [s.im,s.im] · [r.im,r.re] )
//
// `_mm256_addsub_pd` subtracts in even lanes and adds in odd lanes with
// the first argument as the left operand — exactly the scalar `−`/`+`
// operand order, which also preserves x86's NaN-operand selection.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, Gate2};
    use crate::complex::Complex64;
    use core::arch::x86_64::*;

    /// `[z.re, z.im, z.re, z.im]` — a complex broadcast to both lanes.
    #[inline(always)]
    unsafe fn broadcast(z: Complex64) -> __m256d {
        _mm256_setr_pd(z.re, z.im, z.re, z.im)
    }

    /// Swaps re/im within each complex element: `[a1, a0, a3, a2]`.
    #[inline(always)]
    unsafe fn swap_re_im(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b0101)
    }

    /// Duplicates the real parts: `[a0, a0, a2, a2]`.
    #[inline(always)]
    unsafe fn dup_re(v: __m256d) -> __m256d {
        _mm256_movedup_pd(v)
    }

    /// Duplicates the imaginary parts: `[a1, a1, a3, a3]`.
    #[inline(always)]
    unsafe fn dup_im(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b1111)
    }

    /// Complex multiply of a broadcast `self` (split into re/im splats)
    /// by two packed rhs elements, in scalar operand order.
    #[inline(always)]
    unsafe fn cmul_splat(self_re: __m256d, self_im: __m256d, rhs: __m256d) -> __m256d {
        _mm256_addsub_pd(
            _mm256_mul_pd(self_re, rhs),
            _mm256_mul_pd(self_im, swap_re_im(rhs)),
        )
    }

    /// Complex multiply of two packed `self` elements by two packed rhs
    /// elements, in scalar operand order.
    #[inline(always)]
    unsafe fn cmul_packed(selfv: __m256d, rhs: __m256d) -> __m256d {
        _mm256_addsub_pd(
            _mm256_mul_pd(dup_re(selfv), rhs),
            _mm256_mul_pd(dup_im(selfv), swap_re_im(rhs)),
        )
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gate2(g: &Gate2, lo: &mut [Complex64], hi: &mut [Complex64]) {
        let n = lo.len();
        let g00re = _mm256_set1_pd(g[0][0].re);
        let g00im = _mm256_set1_pd(g[0][0].im);
        let g01re = _mm256_set1_pd(g[0][1].re);
        let g01im = _mm256_set1_pd(g[0][1].im);
        let g10re = _mm256_set1_pd(g[1][0].re);
        let g10im = _mm256_set1_pd(g[1][0].im);
        let g11re = _mm256_set1_pd(g[1][1].re);
        let g11im = _mm256_set1_pd(g[1][1].im);
        let lp = lo.as_mut_ptr().cast::<f64>();
        let hp = hi.as_mut_ptr().cast::<f64>();
        for i in 0..n / 2 {
            let x = _mm256_loadu_pd(lp.add(4 * i));
            let y = _mm256_loadu_pd(hp.add(4 * i));
            // g00·x + g01·y and g10·x + g11·y, first product as the
            // left add operand — the scalar gate_pair order.
            let t00 = cmul_splat(g00re, g00im, x);
            let t01 = cmul_splat(g01re, g01im, y);
            let t10 = cmul_splat(g10re, g10im, x);
            let t11 = cmul_splat(g11re, g11im, y);
            _mm256_storeu_pd(lp.add(4 * i), _mm256_add_pd(t00, t01));
            _mm256_storeu_pd(hp.add(4 * i), _mm256_add_pd(t10, t11));
        }
        if n % 2 == 1 {
            scalar::gate_pair(g, &mut lo[n - 1], &mut hi[n - 1]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale(alpha: Complex64, xs: &mut [Complex64]) {
        let n = xs.len();
        let a = broadcast(alpha);
        let p = xs.as_mut_ptr().cast::<f64>();
        for i in 0..n / 2 {
            let x = _mm256_loadu_pd(p.add(4 * i));
            // self = x (the amplitude), rhs = alpha: the `*=` order.
            _mm256_storeu_pd(p.add(4 * i), cmul_packed(x, a));
        }
        if n % 2 == 1 {
            xs[n - 1] *= alpha;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
        let n = x.len();
        let are = _mm256_set1_pd(alpha.re);
        let aim = _mm256_set1_pd(alpha.im);
        let xp = x.as_ptr().cast::<f64>();
        let yp = y.as_mut_ptr().cast::<f64>();
        for i in 0..n / 2 {
            let xv = _mm256_loadu_pd(xp.add(4 * i));
            let yv = _mm256_loadu_pd(yp.add(4 * i));
            // y + (α·x): product self = α, then y as the left add
            // operand — the scalar `*yi += alpha * *xi` order.
            let p = cmul_splat(are, aim, xv);
            _mm256_storeu_pd(yp.add(4 * i), _mm256_add_pd(yv, p));
        }
        if n % 2 == 1 {
            y[n - 1] += alpha * x[n - 1];
        }
    }

    /// Adds both complex elements of `p` into the 128-bit accumulator,
    /// lower element first — the ascending-`i` scalar fold order.
    #[inline(always)]
    unsafe fn fold_ordered(acc: __m128d, p: __m256d) -> __m128d {
        let acc = _mm_add_pd(acc, _mm256_castpd256_pd128(p));
        _mm_add_pd(acc, _mm256_extractf128_pd(p, 1))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        let n = x.len();
        let xp = x.as_ptr().cast::<f64>();
        let yp = y.as_ptr().cast::<f64>();
        let mut acc = _mm_setzero_pd();
        for i in 0..n / 2 {
            let xv = _mm256_loadu_pd(xp.add(4 * i));
            let yv = _mm256_loadu_pd(yp.add(4 * i));
            // Products vectorize; the accumulation stays strictly
            // ordered, one complex element at a time.
            acc = fold_ordered(acc, cmul_packed(xv, yv));
        }
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), acc);
        let mut z = Complex64::new(out[0], out[1]);
        if n % 2 == 1 {
            z += x[n - 1] * y[n - 1];
        }
        z
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cdot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        let n = x.len();
        let xp = x.as_ptr().cast::<f64>();
        let yp = y.as_ptr().cast::<f64>();
        // conj(x) flips the sign bit of x.im — exact, even for NaN.
        let neg = _mm256_set1_pd(-0.0);
        let mut acc = _mm_setzero_pd();
        for i in 0..n / 2 {
            let xv = _mm256_loadu_pd(xp.add(4 * i));
            let yv = _mm256_loadu_pd(yp.add(4 * i));
            let self_re = dup_re(xv);
            let self_im = _mm256_xor_pd(dup_im(xv), neg);
            let p = _mm256_addsub_pd(
                _mm256_mul_pd(self_re, yv),
                _mm256_mul_pd(self_im, swap_re_im(yv)),
            );
            acc = fold_ordered(acc, p);
        }
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), acc);
        let mut z = Complex64::new(out[0], out[1]);
        if n % 2 == 1 {
            z += x[n - 1].conj() * y[n - 1];
        }
        z
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot(c: f64, s: f64, x: &mut [Complex64], y: &mut [Complex64]) {
        let n = x.len();
        // The rotation is real, so re and im lanes are rotated alike:
        // plain lane-wise products with c/s on the right, as `scale` does.
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        let xp = x.as_mut_ptr().cast::<f64>();
        let yp = y.as_mut_ptr().cast::<f64>();
        for i in 0..n / 2 {
            let a = _mm256_loadu_pd(xp.add(4 * i));
            let b = _mm256_loadu_pd(yp.add(4 * i));
            let xn = _mm256_sub_pd(_mm256_mul_pd(a, cv), _mm256_mul_pd(b, sv));
            let yn = _mm256_add_pd(_mm256_mul_pd(a, sv), _mm256_mul_pd(b, cv));
            _mm256_storeu_pd(xp.add(4 * i), xn);
            _mm256_storeu_pd(yp.add(4 * i), yn);
        }
        if n % 2 == 1 {
            scalar::rot(c, s, &mut x[n - 1..], &mut y[n - 1..]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank2(
        a: Complex64,
        x: &[Complex64],
        b: Complex64,
        u: &[Complex64],
        y: &mut [Complex64],
    ) {
        let n = y.len();
        let are = _mm256_set1_pd(a.re);
        let aim = _mm256_set1_pd(a.im);
        let bre = _mm256_set1_pd(b.re);
        let bim = _mm256_set1_pd(b.im);
        let xp = x.as_ptr().cast::<f64>();
        let up = u.as_ptr().cast::<f64>();
        let yp = y.as_mut_ptr().cast::<f64>();
        for i in 0..n / 2 {
            let xv = _mm256_loadu_pd(xp.add(4 * i));
            let uv = _mm256_loadu_pd(up.add(4 * i));
            let yv = _mm256_loadu_pd(yp.add(4 * i));
            // y − (a·x + b·u): both products with the scalar as self, the
            // a-product as the left add operand — the scalar order.
            let sum = _mm256_add_pd(cmul_splat(are, aim, xv), cmul_splat(bre, bim, uv));
            _mm256_storeu_pd(yp.add(4 * i), _mm256_sub_pd(yv, sum));
        }
        if n % 2 == 1 {
            scalar::rank2(a, &x[n - 1..], b, &u[n - 1..], &mut y[n - 1..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C_I, C_ONE, C_ZERO};

    #[test]
    fn tier_names_round_trip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
            assert_eq!(tier.to_string(), tier.name());
        }
        assert_eq!(KernelTier::parse("AVX2"), None);
        assert_eq!(KernelTier::parse(""), None);
    }

    #[test]
    fn scalar_and_portable_are_always_available() {
        assert!(KernelTier::Scalar.is_available());
        assert!(KernelTier::Portable.is_available());
    }

    #[test]
    fn detect_returns_an_available_tier() {
        assert!(detect().is_available());
        assert!(active().is_available());
    }

    #[test]
    fn config_errors_name_the_variable_and_value() {
        let unknown = KernelConfigError::UnknownTier("sse9".into()).to_string();
        assert!(unknown.contains("QSC_KERNELS"), "{unknown}");
        assert!(unknown.contains("sse9"), "{unknown}");
        let unavailable = KernelConfigError::Unavailable(KernelTier::Avx2).to_string();
        assert!(unavailable.contains("avx2"), "{unavailable}");
    }

    #[test]
    fn gate2_identity_leaves_amplitudes() {
        let id: Gate2 = [[C_ONE, C_ZERO], [C_ZERO, C_ONE]];
        for tier in KernelTier::ALL {
            let mut lo = vec![C_ONE, C_I, Complex64::new(0.5, -0.25)];
            let mut hi = vec![C_I, C_ONE, Complex64::new(-1.5, 2.0)];
            let (elo, ehi) = (lo.clone(), hi.clone());
            gate2_with(tier, &id, &mut lo, &mut hi);
            assert_eq!(lo, elo, "{tier}");
            assert_eq!(hi, ehi, "{tier}");
        }
    }

    #[test]
    fn dot_matches_hand_value_on_every_tier() {
        let x = [C_ONE, C_I, Complex64::new(2.0, -1.0)];
        let y = [C_I, C_I, Complex64::new(0.5, 0.5)];
        let want = scalar_reference_dot(&x, &y);
        for tier in KernelTier::ALL {
            assert_eq!(dot_with(tier, &x, &y), want, "{tier}");
        }
    }

    fn scalar_reference_dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        x.iter().zip(y).map(|(a, b)| *a * *b).sum()
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut lo = [C_ONE];
        let mut hi = [C_ONE, C_I];
        gate2(&[[C_ONE, C_ZERO], [C_ZERO, C_ONE]], &mut lo, &mut hi);
    }

    #[test]
    #[should_panic(expected = "rank2: length mismatch")]
    fn rank2_checks_both_input_lengths() {
        let mut y = [C_ONE, C_I];
        rank2(C_ONE, &[C_ONE, C_ONE], C_ONE, &[C_ONE], &mut y);
    }

    #[test]
    fn rot_quarter_turn_on_every_tier() {
        for tier in KernelTier::ALL {
            let x0 = [C_ONE, C_I, Complex64::new(2.0, -1.0)];
            let y0 = [C_I, Complex64::new(0.5, 0.5), C_ONE];
            let (mut x, mut y) = (x0, y0);
            // c = 0, s = 1: x ← −y, y ← x.
            rot_with(tier, 0.0, 1.0, &mut x, &mut y);
            for i in 0..3 {
                assert_eq!(x[i], -y0[i], "{tier}");
                assert_eq!(y[i], x0[i], "{tier}");
            }
        }
    }
}
