//! Clustering back-ends for the combined graph (§IV-C).
//!
//! "In our recent implementation we compute the transitive closure of the
//! graph G_combined, but we also experimented with several other clustering
//! techniques, such as correlation clustering."

use weber_graph::components::connected_components;
use weber_graph::correlation::{correlation_cluster, CorrelationConfig};
use weber_graph::incremental::{incremental_cluster, Linkage};
use weber_graph::Partition;

use crate::combine::Combined;

/// Which clustering algorithm turns the combined graph into the final
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ClusteringMethod {
    /// Transitive closure: connected components of the decision graph
    /// (the paper's default).
    #[default]
    TransitiveClosure,
    /// Correlation clustering over the combined link scores.
    Correlation(CorrelationConfig),
    /// Greedy incremental clustering over the combined link scores (the
    /// related-work baseline of §VI): documents join the best existing
    /// cluster when the linkage score clears the combination threshold
    /// (0.5 when the combiner did not fit one).
    Incremental(Linkage),
}

impl ClusteringMethod {
    /// Cluster the combined evidence into the final entity resolution.
    pub fn cluster(&self, combined: &Combined) -> Partition {
        match self {
            ClusteringMethod::TransitiveClosure => connected_components(&combined.decisions),
            ClusteringMethod::Correlation(config) => {
                correlation_cluster(&combined.scores(), *config)
            }
            ClusteringMethod::Incremental(linkage) => incremental_cluster(
                &combined.scores(),
                combined.threshold.unwrap_or(0.5),
                *linkage,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::CombinedScores;
    use weber_graph::decision::DecisionGraph;
    use weber_graph::weighted::WeightedGraph;

    fn combined(n: usize, edges: &[(usize, usize)]) -> Combined {
        let mut d = DecisionGraph::new(n);
        for &(i, j) in edges {
            d.add_edge(i, j);
        }
        let scores = WeightedGraph::from_fn(n, |i, j| if d.has_edge(i, j) { 0.9 } else { 0.1 });
        Combined {
            decisions: d,
            scores: CombinedScores::Graph(scores),
            selected_layer: None,
            threshold: None,
        }
    }

    #[test]
    fn transitive_closure_merges_chains() {
        let c = combined(4, &[(0, 1), (1, 2)]);
        let p = ClusteringMethod::TransitiveClosure.cluster(&c);
        assert!(p.same_cluster(0, 2));
        assert!(!p.same_cluster(0, 3));
        assert_eq!(p.cluster_count(), 2);
    }

    #[test]
    fn correlation_clustering_recovers_clean_clusters() {
        let c = combined(5, &[(0, 1), (0, 2), (1, 2), (3, 4)]);
        let p = ClusteringMethod::Correlation(CorrelationConfig::default()).cluster(&c);
        assert_eq!(p, Partition::from_labels(vec![0, 0, 0, 1, 1]));
    }

    #[test]
    fn methods_agree_on_clean_input() {
        let c = combined(6, &[(0, 1), (2, 3), (2, 4), (3, 4)]);
        let a = ClusteringMethod::TransitiveClosure.cluster(&c);
        let b = ClusteringMethod::Correlation(CorrelationConfig::default()).cluster(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_clustering_respects_threshold() {
        let c = combined(4, &[(0, 1), (2, 3)]);
        let p = ClusteringMethod::Incremental(Linkage::Average).cluster(&c);
        assert_eq!(p, Partition::from_labels(vec![0, 0, 1, 1]));
        // Raise the effective threshold via `combined.threshold`.
        let mut strict = combined(4, &[(0, 1), (2, 3)]);
        strict.threshold = Some(0.95);
        let p = ClusteringMethod::Incremental(Linkage::Average).cluster(&strict);
        assert_eq!(p.cluster_count(), 4);
    }

    #[test]
    fn default_is_transitive_closure() {
        assert_eq!(
            ClusteringMethod::default(),
            ClusteringMethod::TransitiveClosure
        );
    }
}
