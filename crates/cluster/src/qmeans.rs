//! q-means — the quantum analogue of k-means, simulated classically.
//!
//! Following the q-means analysis (Kerenidis, Landman, Luongo, Prakash,
//! NeurIPS 2019) that the DAC paper's clustering stage builds on, the
//! quantum algorithm is *exactly* Lloyd's iteration but with two bounded
//! noise channels:
//!
//! * every squared-distance estimate carries an additive error of magnitude
//!   at most `δ` (quantum distance estimation + amplitude estimation), and
//! * every centroid read out at the end of an update step carries an ℓ2
//!   error of at most `δ` (vector-state tomography).
//!
//! The simulation injects uniformly distributed errors of those magnitudes,
//! which is the standard classical stand-in used by this line of work.
//!
//! On top of the δ channels, [`qmeans_with_backend`] routes every distance
//! estimate through an execution
//! [`Backend`]'s measurement statistics: with a
//! `ShotSampler` the squared distances become finite-shot frequencies
//! (shot-based distance estimation); with a `NoisyStatevector` they pick up
//! the readout bias. An exact backend leaves the estimates untouched.

use crate::error::ClusterError;
use crate::kmeans::{lloyd_run, KMeansConfig, KMeansResult, NoiseModel};
use qsc_sim::backend::Backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`qmeans`]: the classical configuration plus the
/// quantum noise magnitude `δ`.
#[derive(Debug, Clone, PartialEq)]
pub struct QMeansConfig {
    /// The underlying k-means configuration.
    pub base: KMeansConfig,
    /// Noise magnitude `δ ≥ 0`: bound on both the squared-distance
    /// estimation error and the per-centroid tomography error.
    pub delta: f64,
}

impl Default for QMeansConfig {
    fn default() -> Self {
        Self {
            base: KMeansConfig::default(),
            delta: 0.1,
        }
    }
}

/// The δ-bounded noise channel of q-means, optionally composed with an
/// execution backend's measurement statistics for the distance estimates.
pub struct QMeansNoise<'b> {
    delta: f64,
    rng: StdRng,
    /// Measurement-statistics model for the distance estimates; `None`
    /// keeps the pure δ channel (the historical behavior, bit-identical).
    backend: Option<&'b dyn Backend>,
    /// Upper bound on the squared distances, normalizing them into the
    /// `[0, 1]` probability the backend's estimator observes.
    distance_scale: f64,
    /// First backend failure, stashed because [`NoiseModel`] hooks are
    /// infallible: once set, later estimates pass through un-observed and
    /// [`qmeans_inner`] surfaces the error after the run.
    error: Option<qsc_sim::SimError>,
}

impl<'b> QMeansNoise<'b> {
    /// Creates the pure δ noise channel with its own RNG stream.
    pub fn new(delta: f64, seed: u64) -> Self {
        Self {
            delta,
            rng: StdRng::seed_from_u64(seed),
            backend: None,
            distance_scale: 1.0,
            error: None,
        }
    }

    /// Creates the channel with distance estimates additionally drawn
    /// through `backend` (shot statistics / readout bias), with squared
    /// distances normalized by `distance_scale` (an upper bound on them).
    pub fn with_backend(
        delta: f64,
        seed: u64,
        backend: &'b dyn Backend,
        distance_scale: f64,
    ) -> Self {
        Self {
            delta,
            rng: StdRng::seed_from_u64(seed),
            backend: Some(backend),
            distance_scale: distance_scale.max(f64::MIN_POSITIVE),
            error: None,
        }
    }
}

impl std::fmt::Debug for QMeansNoise<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QMeansNoise")
            .field("delta", &self.delta)
            .field("backend", &self.backend.map(|b| b.name()))
            .field("distance_scale", &self.distance_scale)
            .finish()
    }
}

impl NoiseModel for QMeansNoise<'_> {
    fn distance_sq(&mut self, exact: f64) -> f64 {
        let mut est = exact;
        if self.delta > 0.0 {
            est = (est + self.rng.gen_range(-self.delta..self.delta)).max(0.0);
        }
        if let Some(backend) = self.backend {
            if self.error.is_none() {
                // Shot-based distance estimation: the (δ-perturbed) squared
                // distance, normalized to a probability, observed through
                // the backend's measurement statistics.
                let p = (est / self.distance_scale).clamp(0.0, 1.0);
                match backend.estimate_probability(p, &mut self.rng) {
                    Ok(obs) => est = obs * self.distance_scale,
                    Err(e) => self.error = Some(e),
                }
            }
        }
        est.max(0.0)
    }

    fn centroid(&mut self, centroid: &mut [f64]) {
        if self.delta == 0.0 || centroid.is_empty() {
            return;
        }
        // An ℓ2 perturbation of magnitude at most δ: sample a uniform
        // direction (via per-coordinate uniforms, adequate here) and a
        // uniform radius in [0, δ).
        let dir: Vec<f64> = centroid
            .iter()
            .map(|_| self.rng.gen_range(-1.0..1.0))
            .collect();
        let norm: f64 = dir.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return;
        }
        let radius = self.rng.gen_range(0.0..self.delta);
        for (c, d) in centroid.iter_mut().zip(&dir) {
            *c += d / norm * radius;
        }
    }
}

/// Runs q-means: Lloyd's iteration through the δ-noise channels, best of
/// `config.base.restarts` runs by (exact) inertia.
///
/// With `delta = 0` this is numerically identical to [`crate::kmeans()`]
/// driven by the same seed.
///
/// # Errors
///
/// Returns [`ClusterError`] for invalid configurations (including a negative
/// `delta`), too few points or ragged data.
///
/// # Examples
///
/// ```
/// use qsc_cluster::{qmeans, QMeansConfig, KMeansConfig};
///
/// # fn main() -> Result<(), qsc_cluster::ClusterError> {
/// let data = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0],
///     vec![5.0, 5.0], vec![5.1, 5.0],
/// ];
/// let cfg = QMeansConfig {
///     base: KMeansConfig { k: 2, seed: 1, ..KMeansConfig::default() },
///     delta: 0.05,
/// };
/// let result = qmeans(&data, &cfg)?;
/// assert_eq!(result.labels[0], result.labels[1]);
/// # Ok(())
/// # }
/// ```
pub fn qmeans(data: &[Vec<f64>], config: &QMeansConfig) -> Result<KMeansResult, ClusterError> {
    qmeans_inner(data, config, None)
}

/// Runs q-means with the distance estimates drawn through an execution
/// backend's measurement statistics (finite shots / readout bias) on top of
/// the δ channels.
///
/// With a backend whose statistics are exact
/// ([`Backend::exact_statistics`]), this is numerically identical to
/// [`qmeans`].
///
/// # Errors
///
/// Same contract as [`qmeans`].
pub fn qmeans_with_backend(
    data: &[Vec<f64>],
    config: &QMeansConfig,
    backend: &dyn Backend,
) -> Result<KMeansResult, ClusterError> {
    if backend.exact_statistics() {
        return qmeans(data, config);
    }
    qmeans_inner(data, config, Some(backend))
}

/// Upper bound on the squared distance between a point and any centroid in
/// the data's convex hull: `(2·max‖x‖)²` (δ perturbations are clamped into
/// this range, which only saturates the probability).
fn distance_scale(data: &[Vec<f64>]) -> f64 {
    let max_norm = data
        .iter()
        .map(|row| row.iter().map(|x| x * x).sum::<f64>().sqrt())
        .fold(0.0, f64::max);
    (2.0 * max_norm).powi(2).max(f64::MIN_POSITIVE)
}

fn qmeans_inner(
    data: &[Vec<f64>],
    config: &QMeansConfig,
    backend: Option<&dyn Backend>,
) -> Result<KMeansResult, ClusterError> {
    if config.delta < 0.0 {
        return Err(ClusterError::InvalidConfig {
            context: format!("delta = {} must be non-negative", config.delta),
        });
    }
    // Validation is shared with kmeans via a zero-iteration dry call.
    if config.base.k == 0 || config.base.restarts == 0 {
        return Err(ClusterError::InvalidConfig {
            context: "k and restarts must be positive".into(),
        });
    }
    if data.len() < config.base.k {
        return Err(ClusterError::TooFewPoints {
            points: data.len(),
            k: config.base.k,
        });
    }
    let d0 = data[0].len();
    for p in data {
        if p.len() != d0 {
            return Err(ClusterError::DimensionMismatch {
                expected: d0,
                found: p.len(),
            });
        }
    }

    let mut rng = StdRng::seed_from_u64(config.base.seed);
    let noise_seed = config.base.seed.wrapping_add(0x9e37_79b9);
    let mut noise = match backend {
        Some(b) => QMeansNoise::with_backend(config.delta, noise_seed, b, distance_scale(data)),
        None => QMeansNoise::new(config.delta, noise_seed),
    };
    let mut best: Option<KMeansResult> = None;
    for _ in 0..config.base.restarts {
        let run = lloyd_run(
            data,
            config.base.k,
            config.base.max_iter,
            config.base.tol,
            &mut rng,
            &mut noise,
        );
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    if let Some(e) = noise.error {
        return Err(ClusterError::Backend {
            context: e.to_string(),
        });
    }
    Ok(best.expect("restarts >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;

    fn blobs() -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(123);
        let mut data = Vec::new();
        for center in [[0.0, 0.0], [8.0, 8.0]] {
            for _ in 0..25 {
                data.push(vec![
                    center[0] + rng.gen_range(-0.5..0.5),
                    center[1] + rng.gen_range(-0.5..0.5),
                ]);
            }
        }
        data
    }

    #[test]
    fn zero_delta_matches_kmeans() {
        let data = blobs();
        let base = KMeansConfig {
            k: 2,
            seed: 4,
            ..Default::default()
        };
        let classical = kmeans(&data, &base).unwrap();
        let quantum = qmeans(&data, &QMeansConfig { base, delta: 0.0 }).unwrap();
        assert_eq!(classical.labels, quantum.labels);
        assert!((classical.inertia - quantum.inertia).abs() < 1e-12);
    }

    #[test]
    fn small_delta_still_separates_blobs() {
        let data = blobs();
        let cfg = QMeansConfig {
            base: KMeansConfig {
                k: 2,
                seed: 4,
                ..Default::default()
            },
            delta: 0.2,
        };
        let result = qmeans(&data, &cfg).unwrap();
        // First 25 points belong together, last 25 belong together.
        assert!(result.labels[..25].windows(2).all(|w| w[0] == w[1]));
        assert!(result.labels[25..].windows(2).all(|w| w[0] == w[1]));
        assert_ne!(result.labels[0], result.labels[30]);
    }

    #[test]
    fn rejects_negative_delta() {
        let data = blobs();
        let cfg = QMeansConfig {
            base: KMeansConfig {
                k: 2,
                ..Default::default()
            },
            delta: -0.1,
        };
        assert!(qmeans(&data, &cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let cfg = QMeansConfig {
            base: KMeansConfig {
                k: 2,
                seed: 9,
                ..Default::default()
            },
            delta: 0.3,
        };
        assert_eq!(qmeans(&data, &cfg).unwrap(), qmeans(&data, &cfg).unwrap());
    }

    #[test]
    fn noise_channel_bounds_respected() {
        let mut noise = QMeansNoise::new(0.5, 1);
        for _ in 0..100 {
            let est = noise.distance_sq(3.0);
            assert!((est - 3.0).abs() <= 0.5);
            assert!(est >= 0.0);
        }
        for _ in 0..100 {
            let mut c = vec![1.0, 2.0, 3.0];
            let orig = c.clone();
            noise.centroid(&mut c);
            let moved: f64 = c
                .iter()
                .zip(&orig)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(moved <= 0.5 + 1e-12);
        }
    }

    #[test]
    fn distance_estimates_never_negative() {
        let mut noise = QMeansNoise::new(1.0, 2);
        for _ in 0..200 {
            assert!(noise.distance_sq(0.01) >= 0.0);
        }
    }

    #[test]
    fn exact_backend_matches_plain_qmeans() {
        use qsc_sim::backend::Statevector;
        let data = blobs();
        let cfg = QMeansConfig {
            base: KMeansConfig {
                k: 2,
                seed: 4,
                ..Default::default()
            },
            delta: 0.2,
        };
        let plain = qmeans(&data, &cfg).unwrap();
        let via_backend = qmeans_with_backend(&data, &cfg, &Statevector::new()).unwrap();
        assert_eq!(plain, via_backend);
    }

    #[test]
    fn shot_backend_is_deterministic_and_still_separates() {
        use qsc_sim::backend::ShotSampler;
        let data = blobs();
        let cfg = QMeansConfig {
            base: KMeansConfig {
                k: 2,
                seed: 4,
                ..Default::default()
            },
            delta: 0.05,
        };
        let backend = ShotSampler::new(512);
        let a = qmeans_with_backend(&data, &cfg, &backend).unwrap();
        let b = qmeans_with_backend(&data, &cfg, &backend).unwrap();
        assert_eq!(a, b, "seeded shot statistics must be reproducible");
        // The blobs are far apart; 512 shots resolve them.
        assert!(a.labels[..25].windows(2).all(|w| w[0] == w[1]));
        assert!(a.labels[25..].windows(2).all(|w| w[0] == w[1]));
        assert_ne!(a.labels[0], a.labels[30]);
    }

    #[test]
    fn shot_backend_distance_estimates_are_quantized() {
        use qsc_sim::backend::ShotSampler;
        let backend = ShotSampler::new(100);
        let mut noise = QMeansNoise::with_backend(0.0, 7, &backend, 4.0);
        for _ in 0..50 {
            let est = noise.distance_sq(1.0);
            // Estimates are multiples of scale/shots = 0.04.
            let quantum = 4.0 / 100.0;
            assert!(
                (est / quantum - (est / quantum).round()).abs() < 1e-9,
                "est {est}"
            );
            assert!((0.0..=4.0).contains(&est));
        }
    }
}
