//! Sparse vectors over term ids, with the similarity measures the paper's
//! TF-IDF based functions use: cosine (F8), Pearson correlation (F9) and
//! extended Jaccard / Tanimoto (F10).
//!
//! Entries are kept sorted by term id so that dot products and merges are
//! linear-time merge joins with no allocation.
//!
//! Each measure is one formula over `(dot, stats_a, stats_b)`
//! ([`VectorMeasure::score`]): the dot product is the only part that
//! depends on both vectors, and [`VectorStats`] holds the rest. A caller
//! that already has the dot product and both vectors' statistics (a block
//! scoring every pair at once) computes the same value the pairwise method
//! does, bit for bit.

use std::collections::HashMap;

use crate::vocab::TermId;

/// The per-vector quantities the measures read besides the dot product.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VectorStats {
    /// Sum of the weights.
    pub sum: f64,
    /// Sum of the squared weights.
    pub sum_sq: f64,
    /// Euclidean norm, `sum_sq.sqrt()`.
    pub norm: f64,
}

/// A similarity measure over sparse vectors, defined from the dot product
/// and the two vectors' [`VectorStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorMeasure {
    /// Cosine similarity, in `[0, 1]` for non-negative vectors; 0 when
    /// either vector is empty (the paper treats pages with missing features
    /// as maximally uninformative, i.e. no similarity evidence).
    Cosine,
    /// Pearson correlation over a `dim`-dimensional space, rescaled from
    /// `[-1, 1]` to `[0, 1]`. Every coordinate outside the union of supports
    /// counts as zero, so the means are `sum / dim`. 0 when either vector is
    /// constant over the space (zero variance, which includes the empty
    /// vector) or `dim == 0`.
    Pearson,
    /// Extended Jaccard (Tanimoto), `dot / (|a|² + |b|² − dot)`, in `[0, 1]`
    /// for non-negative vectors; 0 when both vectors are empty.
    ExtendedJaccard,
}

impl VectorMeasure {
    /// The measure's value for two vectors with dot product `dot` and
    /// statistics `a`, `b`; `dim` is the space dimensionality (read by
    /// [`Pearson`](Self::Pearson) only).
    pub fn score(self, dot: f64, a: &VectorStats, b: &VectorStats, dim: usize) -> f64 {
        match self {
            VectorMeasure::Cosine => {
                let denom = a.norm * b.norm;
                if denom == 0.0 {
                    return 0.0;
                }
                (dot / denom).clamp(0.0, 1.0)
            }
            VectorMeasure::Pearson => {
                if dim == 0 {
                    return 0.0;
                }
                let n = dim as f64;
                // sum((a_i - ma)(b_i - mb)) = dot(a,b) - ma*sb - mb*sa + n*ma*mb
                //                           = dot(a,b) - sa*sb/n.
                let cov = dot - a.sum * b.sum / n;
                let var_a = a.sum_sq - a.sum * a.sum / n;
                let var_b = b.sum_sq - b.sum * b.sum / n;
                if var_a <= 0.0 || var_b <= 0.0 {
                    return 0.0;
                }
                let r = (cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0);
                (r + 1.0) / 2.0
            }
            VectorMeasure::ExtendedJaccard => {
                let denom = a.norm.powi(2) + b.norm.powi(2) - dot;
                if denom <= 0.0 {
                    return 0.0;
                }
                (dot / denom).clamp(0.0, 1.0)
            }
        }
    }
}

/// An immutable sparse vector: sorted `(TermId, weight)` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(TermId, f64)>,
}

impl SparseVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from possibly unsorted, possibly duplicated `(id, weight)` pairs.
    /// Duplicate ids are summed; zero weights are dropped.
    pub fn from_pairs(mut pairs: Vec<(TermId, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some((last_id, last_w)) if *last_id == id => *last_w += w,
                _ => entries.push((id, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        Self { entries }
    }

    /// Replace this vector's contents from already-sorted, deduplicated
    /// `(id, weight)` pairs, reusing the existing allocation. Zero weights
    /// are dropped, matching [`from_pairs`](Self::from_pairs), so an
    /// in-place refresh stays indistinguishable from a fresh build.
    pub fn refill(&mut self, pairs: impl IntoIterator<Item = (TermId, f64)>) {
        self.entries.clear();
        self.entries
            .extend(pairs.into_iter().filter(|&(_, w)| w != 0.0));
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "refill requires sorted, deduplicated term ids"
        );
    }

    /// Build from raw term counts.
    pub fn from_counts(counts: impl IntoIterator<Item = (TermId, u32)>) -> Self {
        Self::from_pairs(
            counts
                .into_iter()
                .map(|(id, c)| (id, f64::from(c)))
                .collect(),
        )
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(TermId, f64)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True if the vector has no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight at `id`, or 0.
    pub fn get(&self, id: TermId) -> f64 {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Sum of all weights.
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }

    /// Sum of squared weights.
    fn sum_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.sum_sq().sqrt()
    }

    /// The statistics [`VectorMeasure::score`] reads.
    pub fn stats(&self) -> VectorStats {
        let sum_sq = self.sum_sq();
        VectorStats {
            sum: self.sum(),
            sum_sq,
            norm: sum_sq.sqrt(),
        }
    }

    /// Dot product via a sorted merge join.
    pub fn dot(&self, other: &Self) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// [`VectorMeasure::Cosine`] of the two vectors.
    pub fn cosine(&self, other: &Self) -> f64 {
        self.measure(VectorMeasure::Cosine, other, 0)
    }

    /// [`VectorMeasure::Pearson`] of the two vectors over a
    /// `dim`-dimensional space.
    pub fn pearson(&self, other: &Self, dim: usize) -> f64 {
        self.measure(VectorMeasure::Pearson, other, dim)
    }

    /// [`VectorMeasure::ExtendedJaccard`] of the two vectors.
    pub fn extended_jaccard(&self, other: &Self) -> f64 {
        self.measure(VectorMeasure::ExtendedJaccard, other, 0)
    }

    fn measure(&self, m: VectorMeasure, other: &Self, dim: usize) -> f64 {
        m.score(self.dot(other), &self.stats(), &other.stats(), dim)
    }

    /// Element-wise sum of two vectors.
    pub fn add(&self, other: &Self) -> Self {
        let mut pairs = self.entries.clone();
        pairs.extend_from_slice(&other.entries);
        Self::from_pairs(pairs)
    }

    /// Scale every weight by `factor`.
    pub fn scale(&self, factor: f64) -> Self {
        Self::from_pairs(
            self.entries
                .iter()
                .map(|&(id, w)| (id, w * factor))
                .collect(),
        )
    }

    /// A unit-norm copy, or an empty vector if the norm is zero.
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            Self::new()
        } else {
            self.scale(1.0 / n)
        }
    }
}

/// The dot product of every pair of `vectors`, in colex order: the pair
/// `(i, j)`, `i < j`, at `j·(j−1)/2 + i`.
///
/// One pass over term postings instead of a merge join per pair: column
/// `j` walks vector `j`'s entries in ascending term id and adds
/// `w_i·w_j` to every earlier vector `i` holding the term. Each pair's
/// products therefore arrive in the same order, and start from the same
/// `0.0`, as in [`SparseVector::dot`], so every value is bit-identical to
/// it. The work is the number of shared-term pairs, not `n²` merge joins.
pub fn pairwise_dots(vectors: &[SparseVector]) -> Vec<f64> {
    let n = vectors.len();
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    // Postings of the vectors before the current column, in vector order.
    let mut postings: HashMap<TermId, Vec<(usize, f64)>> = HashMap::new();
    let mut acc = vec![0.0; n];
    for (j, v) in vectors.iter().enumerate() {
        for &(term, wj) in v.entries() {
            if let Some(list) = postings.get(&term) {
                for &(i, wi) in list {
                    acc[i] += wi * wj;
                }
            }
        }
        out.extend_from_slice(&acc[..j]);
        acc[..j].fill(0.0);
        for &(term, w) in v.entries() {
            postings.entry(term).or_default().push((j, w));
        }
    }
    out
}

impl FromIterator<(TermId, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (TermId, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    #[test]
    fn from_pairs_sorts_dedups_and_drops_zeros() {
        let a = v(&[(3, 1.0), (1, 2.0), (3, 2.0), (5, 0.0)]);
        assert_eq!(a.entries(), &[(TermId(1), 2.0), (TermId(3), 3.0)]);
    }

    #[test]
    fn refill_replaces_contents_and_drops_zeros() {
        let mut a = v(&[(0, 1.0), (4, 2.0)]);
        a.refill([(TermId(1), 3.0), (TermId(2), 0.0), (TermId(7), 5.0)]);
        assert_eq!(a, v(&[(1, 3.0), (7, 5.0)]));
        a.refill(std::iter::empty());
        assert!(a.is_empty());
    }

    #[test]
    fn dot_matches_dense_computation() {
        let a = v(&[(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(1, 5.0), (2, 4.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 4.0 + 3.0 * 1.0);
    }

    #[test]
    fn cosine_identity_and_orthogonality() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        let b = v(&[(2, 1.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn cosine_hand_computed() {
        let a = v(&[(0, 1.0), (1, 1.0)]);
        let b = v(&[(0, 1.0)]);
        assert!((a.cosine(&b) - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = v(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let b = a.scale(2.0);
        // Scaled copies are perfectly correlated -> similarity 1.
        assert!((a.pearson(&b, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_anticorrelation_maps_to_zero() {
        // Over dim=2: a=(1,-1), b=(-1,1) are perfectly anti-correlated.
        let a = v(&[(0, 1.0), (1, -1.0)]);
        let b = v(&[(0, -1.0), (1, 1.0)]);
        assert!((a.pearson(&b, 2) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        let a = v(&[(0, 1.0)]);
        let flat = SparseVector::new();
        assert_eq!(a.pearson(&flat, 5), 0.0);
        assert_eq!(a.pearson(&a, 0), 0.0);
    }

    #[test]
    fn pearson_matches_dense_reference() {
        // Dense reference over dim=4.
        let a = v(&[(0, 2.0), (1, 1.0)]);
        let b = v(&[(0, 1.0), (2, 3.0)]);
        let ad = [2.0, 1.0, 0.0, 0.0];
        let bd = [1.0, 0.0, 3.0, 0.0];
        let n = 4.0;
        let (ma, mb) = (ad.iter().sum::<f64>() / n, bd.iter().sum::<f64>() / n);
        let cov: f64 = ad.iter().zip(&bd).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = ad.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = bd.iter().map(|y| (y - mb) * (y - mb)).sum();
        let expect = (cov / (va.sqrt() * vb.sqrt()) + 1.0) / 2.0;
        assert!((a.pearson(&b, 4) - expect).abs() < 1e-12);
    }

    #[test]
    fn extended_jaccard_identity_and_disjoint() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(5, 3.0)]);
        assert!((a.extended_jaccard(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.extended_jaccard(&b), 0.0);
        assert_eq!(
            SparseVector::new().extended_jaccard(&SparseVector::new()),
            0.0
        );
    }

    #[test]
    fn extended_jaccard_hand_computed() {
        // a=(1,0), b=(1,1): dot=1, |a|²=1, |b|²=2 -> 1/(1+2-1)=0.5.
        let a = v(&[(0, 1.0)]);
        let b = v(&[(0, 1.0), (1, 1.0)]);
        assert!((a.extended_jaccard(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(1, 3.0), (2, 4.0)]);
        let s = a.add(&b);
        assert_eq!(s.get(TermId(0)), 1.0);
        assert_eq!(s.get(TermId(1)), 5.0);
        assert_eq!(s.get(TermId(2)), 4.0);
        assert_eq!(a.scale(2.0).get(TermId(1)), 4.0);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        assert!(SparseVector::new().normalized().is_empty());
    }

    #[test]
    fn stats_hold_the_pairwise_quantities() {
        let a = v(&[(0, 3.0), (4, 4.0)]);
        let s = a.stats();
        assert_eq!(s.sum, a.sum());
        assert_eq!(s.sum_sq, 25.0);
        assert_eq!(s.norm, a.norm());
        assert_eq!(SparseVector::new().stats().norm, 0.0);
    }

    #[test]
    fn pairwise_dots_are_bit_identical_to_the_merge_join() {
        let vectors = vec![
            v(&[(0, 0.1), (3, 0.7), (9, 1.3)]),
            SparseVector::new(),
            v(&[(3, 0.3), (9, 0.11), (12, 2.0)]),
            v(&[(0, 0.9), (3, 1.0 / 3.0), (9, 0.2), (12, 0.05)]),
            v(&[(5, 1.0)]),
            // Summed in another order, these products give 1.0, not 0.0.
            v(&[(0, 1.0), (3, 1e16), (9, -1e16)]),
            v(&[(0, 1.0), (3, 1.0), (9, 1.0)]),
        ];
        let dots = pairwise_dots(&vectors);
        assert_eq!(dots.len(), 21);
        assert_eq!(*dots.last().unwrap(), 0.0);
        let mut k = 0;
        for j in 1..vectors.len() {
            for i in 0..j {
                assert_eq!(
                    dots[k].to_bits(),
                    vectors[i].dot(&vectors[j]).to_bits(),
                    "({i},{j})"
                );
                k += 1;
            }
        }
        assert!(pairwise_dots(&[]).is_empty());
    }

    #[test]
    fn get_missing_is_zero() {
        let a = v(&[(2, 7.0)]);
        assert_eq!(a.get(TermId(0)), 0.0);
        assert_eq!(a.get(TermId(2)), 7.0);
    }
}
