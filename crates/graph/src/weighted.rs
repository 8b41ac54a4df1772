//! Complete weighted graphs over a document block.
//!
//! `G_w^{f_i}` in the paper: nodes are the documents of one block (same
//! ambiguous name), the weight on edge `{i, j}` is the similarity value
//! `f_i(d_i, d_j) ∈ [0, 1]`. Stored as a flat upper-triangular matrix of
//! `n·(n−1)/2` weights. Name blocks hold ≈100–150 documents, but a
//! meta-block of a dirty pile reaches 1,200 (≈720k pairs, 5.75 MB per
//! graph), so callers share a graph behind an `Arc` rather than copy it,
//! and walk it in storage order ([`colex_edges`](WeightedGraph::colex_edges)).
//!
//! The triangle is laid out in *colexicographic* (column-major) order:
//! entry `{i, j}` with `i < j` lives at `j·(j−1)/2 + i`, so all edges of
//! the highest-numbered node form the tail of the buffer. Appending nodes
//! is therefore a pure `extend` of the buffer ([`weight_values`] followed
//! by the new nodes' rows, through [`from_colex`]), which is what lets
//! streaming blocks grow a cached similarity graph by one row per ingested
//! document instead of rebuilding the whole matrix.
//!
//! [`weight_values`]: WeightedGraph::weight_values
//! [`from_colex`]: WeightedGraph::from_colex

/// A complete undirected weighted graph over `n` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    n: usize,
    /// Upper-triangular weights in colex order: entry for (i, j), i < j,
    /// at `j·(j−1)/2 + i`.
    weights: Vec<f64>,
}

impl WeightedGraph {
    /// A graph over `n` nodes with all weights zero.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            weights: vec![0.0; n * n.saturating_sub(1) / 2],
        }
    }

    /// Build by evaluating `f(i, j)` for every pair `i < j`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut weights = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for j in 1..n {
            for i in 0..j {
                weights.push(f(i, j));
            }
        }
        Self { n, weights }
    }

    /// A graph over `n` nodes from its weights in storage (colex) order,
    /// as [`weight_values`](Self::weight_values) returns them. Panics unless
    /// there are exactly `n·(n−1)/2` weights.
    pub fn from_colex(n: usize, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            n * n.saturating_sub(1) / 2,
            "from_colex needs one weight per pair"
        );
        Self { n, weights }
    }

    /// Build by evaluating `f(i, j)` for every pair `i < j`, splitting the
    /// triangle into contiguous column runs of roughly equal edge count and
    /// filling each run on its own scoped worker thread.
    ///
    /// The thread count is explicit so callers can match it to their own
    /// scheduling (and tests can exercise the parallel path on any
    /// machine); `threads <= 1` falls back to the sequential build. The
    /// result is identical to [`from_fn`](Self::from_fn) for any pure `f`.
    pub fn from_fn_par(n: usize, threads: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let edge_count = n * n.saturating_sub(1) / 2;
        let threads = threads.min(edge_count);
        if threads <= 1 {
            return Self::from_fn(n, f);
        }
        let mut weights = vec![0.0; edge_count];
        let target = edge_count.div_ceil(threads);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest: &mut [f64] = &mut weights;
            let mut first_col = 1usize;
            while first_col < n {
                // Column j holds j edges; take columns until the run
                // reaches the per-thread target.
                let mut end_col = first_col;
                let mut run_len = 0usize;
                while end_col < n && run_len < target {
                    run_len += end_col;
                    end_col += 1;
                }
                let (run, tail) = rest.split_at_mut(run_len);
                rest = tail;
                scope.spawn(move || {
                    let mut k = 0;
                    for j in first_col..end_col {
                        for i in 0..j {
                            run[k] = f(i, j);
                            k += 1;
                        }
                    }
                });
                first_col = end_col;
            }
        });
        Self { n, weights }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a graph over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of (unordered) edges, `n·(n−1)/2`.
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n, "need i < j < n, got ({i}, {j})");
        j * (j - 1) / 2 + i
    }

    /// The weight of edge `{i, j}` (order-insensitive). Panics if `i == j`
    /// or out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "no self-edges in a pairwise similarity graph");
        let (i, j) = (i.min(j), i.max(j));
        self.weights[self.index(i, j)]
    }

    /// Set the weight of edge `{i, j}` (order-insensitive).
    pub fn set(&mut self, i: usize, j: usize, w: f64) {
        assert!(i != j, "no self-edges in a pairwise similarity graph");
        let (i, j) = (i.min(j), i.max(j));
        let idx = self.index(i, j);
        self.weights[idx] = w;
    }

    /// Iterate `(i, j, weight)` over all pairs `i < j` in lexicographic
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n)
            .flat_map(move |i| (i + 1..self.n).map(move |j| (i, j, self.weights[self.index(i, j)])))
    }

    /// Iterate `(i, j, weight)` over all pairs `i < j` in storage (colex)
    /// order: sorted by `j`, then `i`. The same edges as
    /// [`edges`](Self::edges), read front to back through the buffer.
    pub fn colex_edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (1..self.n)
            .flat_map(|j| (0..j).map(move |i| (i, j)))
            .zip(&self.weights)
            .map(|((i, j), &w)| (i, j, w))
    }

    /// All edge weights in colex order: pair `(i, j)` with `i < j`, sorted
    /// by `j` then `i` (the storage order; see the type docs).
    pub fn weight_values(&self) -> &[f64] {
        &self.weights
    }

    /// Mean edge weight, or 0 for graphs with fewer than 2 nodes.
    pub fn mean_weight(&self) -> f64 {
        if self.weights.is_empty() {
            0.0
        } else {
            self.weights.iter().sum::<f64>() / self.weights.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_indexing_is_bijective() {
        let n = 7;
        let g = WeightedGraph::new(n);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in i + 1..n {
                assert!(seen.insert(g.index(i, j)), "duplicate index for ({i},{j})");
            }
        }
        assert_eq!(seen.len(), g.edge_count());
        assert_eq!(*seen.iter().max().unwrap(), g.edge_count() - 1);
    }

    #[test]
    fn get_set_symmetry() {
        let mut g = WeightedGraph::new(4);
        g.set(2, 1, 0.75);
        assert_eq!(g.get(1, 2), 0.75);
        assert_eq!(g.get(2, 1), 0.75);
        assert_eq!(g.get(0, 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "no self-edges")]
    fn rejects_self_edges() {
        WeightedGraph::new(3).get(1, 1);
    }

    #[test]
    fn from_fn_fills_all_pairs() {
        let g = WeightedGraph::from_fn(4, |i, j| (i + j) as f64);
        assert_eq!(g.get(0, 1), 1.0);
        assert_eq!(g.get(2, 3), 5.0);
        assert_eq!(g.edges().count(), 6);
    }

    #[test]
    fn edges_iterates_lexicographically() {
        let g = WeightedGraph::from_fn(3, |i, j| (10 * i + j) as f64);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, 2.0), (1, 2, 12.0)]);
    }

    #[test]
    fn colex_edges_walk_storage_order_over_the_same_edges() {
        let g = WeightedGraph::from_fn(4, |i, j| (10 * i + j) as f64);
        let colex: Vec<_> = g.colex_edges().collect();
        assert_eq!(colex[..3], [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 12.0)]);
        let weights: Vec<f64> = colex.iter().map(|&(_, _, w)| w).collect();
        assert_eq!(weights, g.weight_values());
        let mut lex: Vec<_> = g.edges().collect();
        let mut sorted = colex.clone();
        lex.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(lex, sorted);
        assert_eq!(WeightedGraph::from_colex(4, weights), g);
    }

    #[test]
    fn from_fn_par_matches_sequential_for_any_thread_count() {
        let weight = |i: usize, j: usize| 1.0 / (1.0 + (i * 31 + j) as f64);
        for n in [0usize, 1, 2, 3, 17, 64] {
            let sequential = WeightedGraph::from_fn(n, weight);
            for threads in [1usize, 2, 3, 4, 100] {
                let parallel = WeightedGraph::from_fn_par(n, threads, weight);
                assert_eq!(parallel, sequential, "n={n}, threads={threads}");
            }
        }
    }

    #[test]
    fn mean_weight() {
        let g = WeightedGraph::from_fn(3, |_, _| 0.5);
        assert!((g.mean_weight() - 0.5).abs() < 1e-12);
        assert_eq!(WeightedGraph::new(1).mean_weight(), 0.0);
        assert_eq!(WeightedGraph::new(0).mean_weight(), 0.0);
    }

    #[test]
    fn tiny_graphs() {
        assert!(WeightedGraph::new(0).is_empty());
        let g = WeightedGraph::new(1);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}
