//! Well-clusterability measurement.
//!
//! The q-means runtime guarantee assumes the data is "well-clusterable":
//! cluster centroids separated by at least `ξ`, most points within `β` of
//! their centroid, and intra-cluster spread small against inter-cluster
//! distances. The papers *assume* this of the spectral space; this module
//! *measures* it, so the evaluation can report whether the assumption
//! actually held on each instance (and the theory's simplified runtime
//! bound applies).

/// Measured well-clusterability parameters of a labeled embedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clusterability {
    /// Minimum pairwise centroid distance (`ξ` in Definition 4).
    pub centroid_separation: f64,
    /// Radius containing 90% of points around their centroid (`β` with
    /// `λ = 0.9`).
    pub beta_90: f64,
    /// Fraction of points within `beta_90` of their centroid (≈ 0.9 by
    /// construction; reported exactly for transparency).
    pub lambda: f64,
    /// Mean distance of points to their centroid.
    pub mean_radius: f64,
    /// The headline ratio `ξ / β`: large ⇒ well-clusterable. The q-means
    /// simplified bound needs this comfortably above ~2.
    pub separation_ratio: f64,
}

impl Clusterability {
    /// A pragmatic boolean reading of Definition 4: centroids separated by
    /// more than twice the 90%-radius.
    pub fn is_well_clusterable(&self) -> bool {
        self.separation_ratio > 2.0
    }
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Measures the well-clusterability parameters of an embedding under a
/// labeling.
///
/// Returns `None` when fewer than two non-empty clusters exist (the
/// quantities are undefined there).
///
/// # Panics
///
/// Panics if `embedding` and `labels` differ in length or the embedding is
/// empty.
///
/// # Examples
///
/// ```
/// use qsc_cluster::clusterability::measure_clusterability;
///
/// let embedding = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let stats = measure_clusterability(&embedding, &[0, 0, 1, 1]).expect("two clusters");
/// assert!(stats.is_well_clusterable());
/// ```
pub fn measure_clusterability(embedding: &[Vec<f64>], labels: &[usize]) -> Option<Clusterability> {
    assert_eq!(
        embedding.len(),
        labels.len(),
        "clusterability: length mismatch"
    );
    assert!(!embedding.is_empty(), "clusterability: empty embedding");
    let k = labels.iter().max().map_or(0, |m| m + 1);
    let d = embedding[0].len();

    let mut counts = vec![0usize; k];
    let mut centroids = vec![vec![0.0; d]; k];
    for (p, &l) in embedding.iter().zip(labels) {
        counts[l] += 1;
        for (c, x) in centroids[l].iter_mut().zip(p) {
            *c += x;
        }
    }
    let live: Vec<usize> = (0..k).filter(|&c| counts[c] > 0).collect();
    if live.len() < 2 {
        return None;
    }
    for &c in &live {
        for x in centroids[c].iter_mut() {
            *x /= counts[c] as f64;
        }
    }

    let mut separation = f64::INFINITY;
    for (i, &a) in live.iter().enumerate() {
        for &b in &live[i + 1..] {
            separation = separation.min(dist(&centroids[a], &centroids[b]));
        }
    }

    let mut radii: Vec<f64> = embedding
        .iter()
        .zip(labels)
        .map(|(p, &l)| dist(p, &centroids[l]))
        .collect();
    let mean_radius = radii.iter().sum::<f64>() / radii.len() as f64;
    radii.sort_by(|a, b| a.partial_cmp(b).expect("finite radii"));
    let idx90 = ((radii.len() as f64 * 0.9).ceil() as usize).min(radii.len()) - 1;
    let beta_90 = radii[idx90];
    let lambda = radii.iter().filter(|&&r| r <= beta_90).count() as f64 / radii.len() as f64;

    let separation_ratio = if beta_90 > 0.0 {
        separation / beta_90
    } else {
        f64::INFINITY
    };

    Some(Clusterability {
        centroid_separation: separation,
        beta_90,
        lambda,
        mean_radius,
        separation_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_far_blobs_are_well_clusterable() {
        let mut emb = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in [0.0f64, 100.0].iter().enumerate() {
            for i in 0..20 {
                emb.push(vec![center + (i as f64) * 0.01]);
                labels.push(c);
            }
        }
        let stats = measure_clusterability(&emb, &labels).unwrap();
        assert!(stats.is_well_clusterable());
        assert!(stats.centroid_separation > 99.0);
        assert!(stats.beta_90 < 0.2);
        assert!(stats.lambda >= 0.9);
    }

    #[test]
    fn overlapping_blobs_are_not() {
        let mut emb = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in [0.0f64, 0.5].iter().enumerate() {
            for i in 0..20 {
                emb.push(vec![center + (i as f64) * 0.1]);
                labels.push(c);
            }
        }
        let stats = measure_clusterability(&emb, &labels).unwrap();
        assert!(!stats.is_well_clusterable());
    }

    #[test]
    fn single_cluster_is_undefined() {
        let emb = vec![vec![0.0], vec![1.0]];
        assert!(measure_clusterability(&emb, &[0, 0]).is_none());
    }

    #[test]
    fn identical_points_give_infinite_ratio() {
        let emb = vec![vec![0.0], vec![0.0], vec![5.0], vec![5.0]];
        let stats = measure_clusterability(&emb, &[0, 0, 1, 1]).unwrap();
        assert!(stats.separation_ratio.is_infinite());
        assert!(stats.is_well_clusterable());
    }
}
