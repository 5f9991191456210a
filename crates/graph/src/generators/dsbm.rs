//! Mixed directed stochastic block model (DSBM) with meta-graph flow
//! structure — the synthetic workload the evaluation's accuracy tables use.
//!
//! The key scenario is *flow-defined clusters*: with `p_intra == p_inter`
//! edge density carries no signal and only the orientation of inter-cluster
//! arcs (which follows a meta-graph such as a directed cycle over the
//! clusters) distinguishes the blocks. A direction-blind method is at chance
//! there; the Hermitian pipeline is not.

use crate::error::GraphError;
use crate::mixed::MixedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Orientation pattern imposed on inter-cluster arcs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaGraph {
    /// Cluster `j` sends arcs to cluster `(j+1) mod k` (cyclic flow).
    Cycle,
    /// Cluster `j` sends arcs to cluster `j+1` (pipeline / path flow).
    Path,
    /// Every ordered pair `(a, b)` with `a < b` flows `a → b` (DAG flow).
    CompleteOrder,
}

impl MetaGraph {
    /// Whether the meta-graph prescribes flow from cluster `a` to cluster
    /// `b`, for `a ≠ b`, among `k` clusters. Returns `None` when the pair is
    /// not meta-adjacent (no prescribed relationship).
    pub fn flow(&self, a: usize, b: usize, k: usize) -> Option<bool> {
        match self {
            MetaGraph::Cycle => {
                if (a + 1) % k == b {
                    Some(true)
                } else if (b + 1) % k == a {
                    Some(false)
                } else {
                    None
                }
            }
            MetaGraph::Path => {
                if a + 1 == b {
                    Some(true)
                } else if b + 1 == a {
                    Some(false)
                } else {
                    None
                }
            }
            MetaGraph::CompleteOrder => Some(a < b),
        }
    }
}

/// Parameters of the mixed DSBM generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DsbmParams {
    /// Number of vertices (split as evenly as possible across clusters).
    pub n: usize,
    /// Number of clusters.
    pub k: usize,
    /// Probability of an undirected edge within a cluster.
    pub p_intra: f64,
    /// Probability of a connection between meta-adjacent clusters.
    pub p_inter: f64,
    /// Probability that an inter-cluster connection is oriented along the
    /// meta-graph flow (`0.5` = no direction signal, `1.0` = perfect flow).
    pub eta_flow: f64,
    /// Meta-graph pattern for inter-cluster flow.
    pub meta: MetaGraph,
    /// Probability of a connection between clusters that are *not*
    /// meta-adjacent (oriented uniformly at random). Adds direction noise.
    pub p_noise: f64,
    /// Fraction of intra-cluster connections that are directed (uniform
    /// random orientation) instead of undirected. At `1.0` the graph is
    /// fully directed, so edge *type* carries no cluster information and
    /// only the flow pattern does — the pure-DSBM regime of the direction
    /// sensitivity experiment.
    pub intra_directed_fraction: f64,
    /// RNG seed; identical parameters + seed reproduce the instance.
    pub seed: u64,
}

impl Default for DsbmParams {
    fn default() -> Self {
        Self {
            n: 300,
            k: 3,
            p_intra: 0.08,
            p_inter: 0.08,
            p_noise: 0.0,
            intra_directed_fraction: 0.0,
            eta_flow: 0.9,
            meta: MetaGraph::Cycle,
            seed: 0,
        }
    }
}

impl DsbmParams {
    fn validate(&self) -> Result<(), GraphError> {
        if self.k == 0 || self.n < self.k {
            return Err(GraphError::InvalidParams {
                context: format!("n = {} must be ≥ k = {} ≥ 1", self.n, self.k),
            });
        }
        for (name, p) in [
            ("p_intra", self.p_intra),
            ("p_inter", self.p_inter),
            ("p_noise", self.p_noise),
            ("intra_directed_fraction", self.intra_directed_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(GraphError::InvalidParams {
                    context: format!("{name} = {p} outside [0, 1]"),
                });
            }
        }
        if !(0.5..=1.0).contains(&self.eta_flow) {
            return Err(GraphError::InvalidParams {
                context: format!("eta_flow = {} outside [0.5, 1]", self.eta_flow),
            });
        }
        Ok(())
    }
}

/// A generated instance: the graph plus its planted ground-truth labels.
#[derive(Debug, Clone)]
pub struct PlantedGraph {
    /// The generated mixed graph.
    pub graph: MixedGraph,
    /// Ground-truth cluster label of every vertex, in `0..k`.
    pub labels: Vec<usize>,
}

/// Samples a mixed DSBM instance.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParams`] for out-of-range parameters.
///
/// # Examples
///
/// ```
/// use qsc_graph::generators::{dsbm, DsbmParams};
///
/// # fn main() -> Result<(), qsc_graph::GraphError> {
/// let inst = dsbm(&DsbmParams { n: 60, k: 3, seed: 7, ..DsbmParams::default() })?;
/// assert_eq!(inst.labels.len(), 60);
/// assert!(inst.graph.num_connections() > 0);
/// # Ok(())
/// # }
/// ```
pub fn dsbm(params: &DsbmParams) -> Result<PlantedGraph, GraphError> {
    params.validate()?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = params.n;
    let k = params.k;

    // Balanced labels 0,0,…,1,1,…: contiguous blocks, sizes differing by ≤1.
    let mut labels = vec![0usize; n];
    for (i, label) in labels.iter_mut().enumerate() {
        *label = i * k / n;
    }

    let mut graph = MixedGraph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            let (a, b) = (labels[u], labels[v]);
            if a == b {
                if rng.gen::<f64>() < params.p_intra {
                    // Short-circuit so the fraction-0 default consumes no
                    // extra randomness (seeded instances stay stable).
                    let directed = params.intra_directed_fraction > 0.0
                        && rng.gen::<f64>() < params.intra_directed_fraction;
                    if directed {
                        if rng.gen::<bool>() {
                            graph.add_arc(u, v, 1.0).expect("fresh pair");
                        } else {
                            graph.add_arc(v, u, 1.0).expect("fresh pair");
                        }
                    } else {
                        graph.add_edge(u, v, 1.0).expect("fresh pair");
                    }
                }
                continue;
            }
            match params.meta.flow(a, b, k) {
                Some(forward) => {
                    if rng.gen::<f64>() < params.p_inter {
                        // Follow the meta-flow with probability eta_flow.
                        let along = rng.gen::<f64>() < params.eta_flow;
                        let u_to_v = forward == along;
                        if u_to_v {
                            graph.add_arc(u, v, 1.0).expect("fresh pair");
                        } else {
                            graph.add_arc(v, u, 1.0).expect("fresh pair");
                        }
                    }
                }
                None => {
                    if rng.gen::<f64>() < params.p_noise {
                        if rng.gen::<bool>() {
                            graph.add_arc(u, v, 1.0).expect("fresh pair");
                        } else {
                            graph.add_arc(v, u, 1.0).expect("fresh pair");
                        }
                    }
                }
            }
        }
    }

    Ok(PlantedGraph { graph, labels })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_given_seed() {
        let p = DsbmParams {
            n: 40,
            seed: 42,
            ..DsbmParams::default()
        };
        let a = dsbm(&p).unwrap();
        let b = dsbm(&p).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn labels_balanced() {
        let p = DsbmParams {
            n: 31,
            k: 4,
            ..DsbmParams::default()
        };
        let inst = dsbm(&p).unwrap();
        let mut counts = vec![0usize; 4];
        for &l in &inst.labels {
            counts[l] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn intra_edges_undirected_inter_directed() {
        let p = DsbmParams {
            n: 60,
            k: 3,
            seed: 5,
            ..DsbmParams::default()
        };
        let inst = dsbm(&p).unwrap();
        for e in inst.graph.edges() {
            assert_eq!(
                inst.labels[e.u], inst.labels[e.v],
                "undirected across clusters"
            );
        }
        for a in inst.graph.arcs() {
            assert_ne!(inst.labels[a.from], inst.labels[a.to], "arc within cluster");
        }
    }

    #[test]
    fn perfect_flow_follows_cycle_meta() {
        let p = DsbmParams {
            n: 90,
            k: 3,
            eta_flow: 1.0,
            seed: 9,
            ..DsbmParams::default()
        };
        let inst = dsbm(&p).unwrap();
        for a in inst.graph.arcs() {
            let (ca, cb) = (inst.labels[a.from], inst.labels[a.to]);
            assert_eq!((ca + 1) % 3, cb, "arc violates cycle meta-flow");
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(dsbm(&DsbmParams {
            k: 0,
            ..DsbmParams::default()
        })
        .is_err());
        assert!(dsbm(&DsbmParams {
            eta_flow: 0.2,
            ..DsbmParams::default()
        })
        .is_err());
        assert!(dsbm(&DsbmParams {
            p_intra: 1.5,
            ..DsbmParams::default()
        })
        .is_err());
    }

    #[test]
    fn meta_graph_flow_relations() {
        assert_eq!(MetaGraph::Cycle.flow(0, 1, 3), Some(true));
        assert_eq!(MetaGraph::Cycle.flow(1, 0, 3), Some(false));
        assert_eq!(MetaGraph::Cycle.flow(2, 0, 3), Some(true));
        assert_eq!(MetaGraph::Path.flow(2, 0, 3), None);
        assert_eq!(MetaGraph::CompleteOrder.flow(0, 2, 3), Some(true));
        assert_eq!(MetaGraph::CompleteOrder.flow(2, 0, 3), Some(false));
    }
}
