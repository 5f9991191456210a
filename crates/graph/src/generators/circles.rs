//! Concentric-circles point cloud and its threshold similarity graph — the
//! canonical spectral-clustering showcase (two nested, non-linearly-separable
//! rings), extended with optional directed "flow" arcs so the mixed-graph
//! pipeline is exercised on it too.

use crate::error::GraphError;
use crate::mixed::MixedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// Parameters for the two-circles dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CirclesParams {
    /// Total number of points (split evenly between the two circles).
    pub n: usize,
    /// Radius of the inner circle; the outer circle has radius 1.
    pub inner_radius: f64,
    /// Gaussian-ish positional jitter amplitude.
    pub noise: f64,
    /// Connect two points with an undirected edge iff their Euclidean
    /// distance is at most this threshold.
    pub d_min: f64,
    /// Fraction of the created edges converted into directed arcs with
    /// uniformly random orientation — pure directional *noise*, testing that
    /// the Hermitian pipeline degrades gracefully when direction carries no
    /// cluster signal (0.0 keeps the classic undirected graph).
    pub directed_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CirclesParams {
    fn default() -> Self {
        Self {
            n: 200,
            inner_radius: 0.5,
            noise: 0.02,
            d_min: 0.15,
            directed_fraction: 0.0,
            seed: 0,
        }
    }
}

/// A generated circles instance: points, similarity graph and labels.
#[derive(Debug, Clone)]
pub struct CirclesInstance {
    /// 2-D point coordinates, one `[x, y]` per vertex.
    pub points: Vec<[f64; 2]>,
    /// Threshold similarity graph over the points.
    pub graph: MixedGraph,
    /// Ground-truth ring membership (0 = outer, 1 = inner).
    pub labels: Vec<usize>,
}

/// Samples the two-circles dataset and builds its threshold similarity
/// graph.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParams`] if radii, fractions or sizes are out
/// of range.
///
/// # Examples
///
/// ```
/// use qsc_graph::generators::{circles, CirclesParams};
///
/// # fn main() -> Result<(), qsc_graph::GraphError> {
/// let inst = circles(&CirclesParams { n: 80, seed: 1, ..CirclesParams::default() })?;
/// assert_eq!(inst.points.len(), 80);
/// assert_eq!(inst.labels.iter().filter(|&&l| l == 1).count(), 40);
/// # Ok(())
/// # }
/// ```
pub fn circles(params: &CirclesParams) -> Result<CirclesInstance, GraphError> {
    if params.n < 4 {
        return Err(GraphError::InvalidParams {
            context: format!("n = {} too small", params.n),
        });
    }
    if !(0.0 < params.inner_radius && params.inner_radius < 1.0) {
        return Err(GraphError::InvalidParams {
            context: format!("inner_radius = {} outside (0, 1)", params.inner_radius),
        });
    }
    if !(0.0..=1.0).contains(&params.directed_fraction) {
        return Err(GraphError::InvalidParams {
            context: format!("directed_fraction = {}", params.directed_fraction),
        });
    }
    // `!(x > 0.0)` (rather than `x <= 0.0`) deliberately rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(params.d_min > 0.0) {
        return Err(GraphError::InvalidParams {
            context: format!("d_min = {} must be positive", params.d_min),
        });
    }

    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = params.n;
    let half = n / 2;
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    // Outer ring first (label 0), then inner ring (label 1). Angles are laid
    // out uniformly with jitter, which makes the clockwise arc orientation
    // below meaningful.
    for i in 0..n {
        let (radius, label, idx, count) = if i < half {
            (1.0, 0usize, i, half)
        } else {
            (params.inner_radius, 1usize, i - half, n - half)
        };
        let theta = TAU * idx as f64 / count as f64 + rng.gen_range(-0.5..0.5) / count as f64;
        let r = radius + rng.gen_range(-params.noise..params.noise.max(f64::MIN_POSITIVE));
        points.push([r * theta.cos(), r * theta.sin()]);
        labels.push(label);
    }

    let mut graph = MixedGraph::new(n);
    let d2 = params.d_min * params.d_min;
    for u in 0..n {
        for v in u + 1..n {
            let dx = points[u][0] - points[v][0];
            let dy = points[u][1] - points[v][1];
            if dx * dx + dy * dy <= d2 {
                if rng.gen::<f64>() < params.directed_fraction {
                    // Uniformly random orientation: direction carries no
                    // information here, so this measures robustness to
                    // directional noise. (A *coherent* orientation along the
                    // rings would wind a phase around each ring and actively
                    // frustrate the low eigenvectors — a real effect of the
                    // Hermitian encoding, demonstrated in the generator
                    // tests, but not what this workload is for.)
                    if rng.gen::<bool>() {
                        graph.add_arc(u, v, 1.0).expect("fresh pair");
                    } else {
                        graph.add_arc(v, u, 1.0).expect("fresh pair");
                    }
                } else {
                    graph.add_edge(u, v, 1.0).expect("fresh pair");
                }
            }
        }
    }

    Ok(CirclesInstance {
        points,
        graph,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let p = CirclesParams {
            n: 50,
            seed: 3,
            ..CirclesParams::default()
        };
        let a = circles(&p).unwrap();
        let b = circles(&p).unwrap();
        assert_eq!(a.points, b.points);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn points_near_their_ring() {
        let p = CirclesParams {
            n: 100,
            noise: 0.01,
            seed: 4,
            ..CirclesParams::default()
        };
        let inst = circles(&p).unwrap();
        for (pt, &label) in inst.points.iter().zip(&inst.labels) {
            let r = (pt[0] * pt[0] + pt[1] * pt[1]).sqrt();
            let expected = if label == 0 { 1.0 } else { p.inner_radius };
            assert!((r - expected).abs() < 0.05, "point {pt:?} label {label}");
        }
    }

    #[test]
    fn rings_do_not_connect_for_small_threshold() {
        let p = CirclesParams {
            n: 120,
            d_min: 0.12,
            inner_radius: 0.5,
            noise: 0.01,
            seed: 5,
            ..CirclesParams::default()
        };
        let inst = circles(&p).unwrap();
        for e in inst.graph.edges() {
            assert_eq!(inst.labels[e.u], inst.labels[e.v], "edge crosses rings");
        }
    }

    #[test]
    fn directed_fraction_one_yields_only_arcs() {
        let p = CirclesParams {
            n: 60,
            directed_fraction: 1.0,
            seed: 6,
            ..CirclesParams::default()
        };
        let inst = circles(&p).unwrap();
        assert_eq!(inst.graph.num_edges(), 0);
        assert!(inst.graph.num_arcs() > 0);
    }

    #[test]
    fn rejects_invalid() {
        assert!(circles(&CirclesParams {
            n: 2,
            ..CirclesParams::default()
        })
        .is_err());
        assert!(circles(&CirclesParams {
            inner_radius: 1.5,
            ..CirclesParams::default()
        })
        .is_err());
        assert!(circles(&CirclesParams {
            d_min: 0.0,
            ..CirclesParams::default()
        })
        .is_err());
    }
}
