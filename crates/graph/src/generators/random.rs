//! Unstructured random mixed graphs (Erdős–Rényi flavour) for tests,
//! property-based invariant checks and eigensolver benchmarks.

use crate::error::GraphError;
use crate::mixed::MixedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random mixed-graph generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomMixedParams {
    /// Number of vertices.
    pub n: usize,
    /// Probability of an undirected edge on each vertex pair.
    pub p_undirected: f64,
    /// Probability of a directed arc (uniform orientation) on each pair not
    /// already taken by an undirected edge.
    pub p_directed: f64,
    /// Edge weights are sampled uniformly from this range (`lo..hi`); set
    /// `lo == hi` for unweighted graphs of weight `lo`.
    pub weight_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomMixedParams {
    fn default() -> Self {
        Self {
            n: 50,
            p_undirected: 0.1,
            p_directed: 0.1,
            weight_range: (1.0, 1.0),
            seed: 0,
        }
    }
}

/// Samples a random mixed graph.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParams`] if probabilities are out of range,
/// they sum above 1, or the weight range is invalid.
///
/// # Examples
///
/// ```
/// use qsc_graph::generators::{random_mixed, RandomMixedParams};
///
/// # fn main() -> Result<(), qsc_graph::GraphError> {
/// let g = random_mixed(&RandomMixedParams { n: 30, seed: 9, ..RandomMixedParams::default() })?;
/// assert_eq!(g.num_vertices(), 30);
/// # Ok(())
/// # }
/// ```
pub fn random_mixed(params: &RandomMixedParams) -> Result<MixedGraph, GraphError> {
    if !(0.0..=1.0).contains(&params.p_undirected)
        || !(0.0..=1.0).contains(&params.p_directed)
        || params.p_undirected + params.p_directed > 1.0
    {
        return Err(GraphError::InvalidParams {
            context: format!(
                "p_undirected = {}, p_directed = {} must be in [0,1] with sum ≤ 1",
                params.p_undirected, params.p_directed
            ),
        });
    }
    let (lo, hi) = params.weight_range;
    if !(lo > 0.0 && hi >= lo) {
        return Err(GraphError::InvalidParams {
            context: format!("weight_range ({lo}, {hi}) must satisfy 0 < lo ≤ hi"),
        });
    }

    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut g = MixedGraph::new(params.n);
    let weight = |rng: &mut StdRng| if lo == hi { lo } else { rng.gen_range(lo..hi) };
    for u in 0..params.n {
        for v in u + 1..params.n {
            let roll: f64 = rng.gen();
            if roll < params.p_undirected {
                let w = weight(&mut rng);
                g.add_edge(u, v, w).expect("fresh pair");
            } else if roll < params.p_undirected + params.p_directed {
                let w = weight(&mut rng);
                if rng.gen::<bool>() {
                    g.add_arc(u, v, w).expect("fresh pair");
                } else {
                    g.add_arc(v, u, w).expect("fresh pair");
                }
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let p = RandomMixedParams {
            seed: 11,
            ..RandomMixedParams::default()
        };
        assert_eq!(random_mixed(&p).unwrap(), random_mixed(&p).unwrap());
    }

    #[test]
    fn zero_probabilities_give_empty_graph() {
        let p = RandomMixedParams {
            p_undirected: 0.0,
            p_directed: 0.0,
            ..RandomMixedParams::default()
        };
        let g = random_mixed(&p).unwrap();
        assert_eq!(g.num_connections(), 0);
    }

    #[test]
    fn weights_in_range() {
        let p = RandomMixedParams {
            weight_range: (0.5, 2.0),
            p_undirected: 0.3,
            p_directed: 0.3,
            seed: 12,
            ..RandomMixedParams::default()
        };
        let g = random_mixed(&p).unwrap();
        for e in g.edges() {
            assert!((0.5..2.0).contains(&e.weight));
        }
        for a in g.arcs() {
            assert!((0.5..2.0).contains(&a.weight));
        }
    }

    #[test]
    fn rejects_probability_sum_above_one() {
        let p = RandomMixedParams {
            p_undirected: 0.7,
            p_directed: 0.7,
            ..RandomMixedParams::default()
        };
        assert!(random_mixed(&p).is_err());
    }
}
