//! Incremental word-vector materialisation with dirty-term tracking.
//!
//! A growing block invalidates TF-IDF weights in a very structured way: the
//! weight of term `t` in document `d` is `tf_part(t, d) · idf_factor(t)`,
//! where the tf part depends only on `d` itself (fixed once the document is
//! indexed) and the idf factor depends only on the corpus-wide `(df, N)`
//! statistics. [`VectorStore`] exploits that split: it caches each
//! document's tf-part *pattern* forever, keeps the idf factor table from
//! the last sync, and on [`sync`](VectorStore::sync) refreshes only the
//! vectors whose terms' idf factors actually changed — in place, via
//! [`SparseVector::refill`]. The refreshed weights are the *same f64
//! products* a from-scratch [`CorpusIndex::tfidf_vectors`] build computes,
//! so incremental and batch materialisation are bit-identical, not merely
//! close.
//!
//! Next to each vector the store keeps its [`VectorStats`] (sum, sum of
//! squares, norm), refreshed whenever the vector is, so pairwise measures
//! read them instead of re-walking both vectors on every pair.
//!
//! The store also exposes a monotone [`generation`](VectorStore::generation)
//! counter that advances exactly when some *existing* vector changed value.
//! Downstream caches (per-function similarity graphs) key on it to decide
//! whether previously computed pairwise values are still valid.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use crate::index::CorpusIndex;
use crate::sparse::{SparseVector, VectorStats};
use crate::tfidf::TfIdf;
use crate::vocab::TermId;

/// How word vectors for the TF-IDF based similarity functions are weighted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WordVectorScheme {
    /// A TF-IDF scheme (the paper's choice).
    TfIdf(TfIdf),
    /// BM25 weighting (length-normalised, saturating; extension).
    Bm25 {
        /// Term-frequency saturation parameter (standard: 1.2).
        k1: f64,
        /// Length-normalisation strength (standard: 0.75).
        b: f64,
    },
}

impl Default for WordVectorScheme {
    fn default() -> Self {
        WordVectorScheme::TfIdf(TfIdf::default())
    }
}

impl WordVectorScheme {
    /// Standard BM25 parameters.
    pub fn bm25() -> Self {
        WordVectorScheme::Bm25 { k1: 1.2, b: 0.75 }
    }
}

/// Incrementally maintained word vectors over a [`CorpusIndex`].
///
/// Call [`sync`](VectorStore::sync) after adding documents to the index;
/// vectors then match a batch materialisation of the same index exactly.
#[derive(Debug, Default)]
pub struct VectorStore {
    scheme: WordVectorScheme,
    /// Per document: sorted `(term, tf-part)` pairs, computed once when the
    /// document first appears (TF-IDF schemes; unused under BM25).
    patterns: Vec<Vec<(TermId, f64)>>,
    /// Materialised vectors, aligned with the index's documents.
    vectors: Vec<SparseVector>,
    /// `vectors[i].stats()`, kept in step with every refill.
    stats: Vec<VectorStats>,
    /// The idf factor per term as of the last sync.
    idf: HashMap<TermId, f64>,
    /// Advances exactly when a sync changes an already-materialised vector.
    generation: u64,
}

impl VectorStore {
    /// An empty store under `scheme`.
    pub fn new(scheme: WordVectorScheme) -> Self {
        Self {
            scheme,
            patterns: Vec::new(),
            vectors: Vec::new(),
            stats: Vec::new(),
            idf: HashMap::new(),
            generation: 0,
        }
    }

    /// The weighting scheme vectors are materialised under.
    pub fn scheme(&self) -> WordVectorScheme {
        self.scheme
    }

    /// Number of materialised vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if no vectors are materialised.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The vector of document `i` (as of the last sync).
    pub fn vector(&self, i: usize) -> &SparseVector {
        &self.vectors[i]
    }

    /// All vectors, in document order (as of the last sync).
    pub fn vectors(&self) -> &[SparseVector] {
        &self.vectors
    }

    /// The statistics of document `i`'s vector (as of the last sync).
    pub fn stats(&self, i: usize) -> &VectorStats {
        &self.stats[i]
    }

    /// A counter that advances exactly when a sync changed the value of an
    /// already-materialised vector. Appending documents whose terms leave
    /// every existing idf factor untouched (e.g. under
    /// [`IdfScheme::None`](crate::tfidf::IdfScheme::None)) does not advance
    /// it, so similarity values cached against earlier documents stay valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bring the store up to date with `index`: materialise vectors for
    /// newly added documents and refresh existing vectors whose terms' idf
    /// factors changed. Equivalent — bit for bit — to rebuilding every
    /// vector from scratch under the store's scheme.
    pub fn sync(&mut self, index: &CorpusIndex) {
        debug_assert!(
            index.len() >= self.vectors.len(),
            "index shrank under the store"
        );
        match self.scheme {
            WordVectorScheme::TfIdf(t) => self.sync_tfidf(index, t),
            WordVectorScheme::Bm25 { k1, b } => {
                // BM25 weights depend on avgdl and N in a non-separable way;
                // fall back to a full rebuild.
                let old_len = self.vectors.len();
                self.vectors = index.bm25_vectors(k1, b);
                self.stats = self.vectors.iter().map(SparseVector::stats).collect();
                if old_len > 0 && index.len() > old_len {
                    self.generation += 1;
                }
            }
        }
    }

    fn sync_tfidf(&mut self, index: &CorpusIndex, t: TfIdf) {
        let old_len = self.vectors.len();
        // Cache the tf-part pattern of each new document once.
        for doc in old_len..index.len() {
            let (counts, max_tf) = index.doc_counts(doc);
            self.patterns.push(
                counts
                    .iter()
                    .map(|&(term, tf)| (term, t.tf_weight(tf, max_tf)))
                    .collect(),
            );
        }
        // Refresh the idf factor table, recording which factors changed.
        // Terms seen for the first time cannot occur in older documents, so
        // they are inserted without being marked dirty.
        let n_docs = index.len() as u32;
        let cached_before = self.idf.len();
        let mut dirty: HashSet<TermId> = HashSet::new();
        for (&term, &df) in index.df_table() {
            let factor = t.idf_weight(df, n_docs);
            match self.idf.entry(term) {
                Entry::Occupied(mut e) => {
                    if *e.get() != factor {
                        e.insert(factor);
                        dirty.insert(term);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(factor);
                }
            }
        }
        let all_dirty = cached_before > 0 && dirty.len() == cached_before;
        // Refill existing vectors that carry a dirty term; the tf parts are
        // strictly positive, so a changed factor always changes the weight.
        let mut changed_existing = false;
        for doc in 0..old_len {
            let pattern = &self.patterns[doc];
            if pattern.is_empty() {
                continue;
            }
            if all_dirty || pattern.iter().any(|&(term, _)| dirty.contains(&term)) {
                let idf = &self.idf;
                self.vectors[doc].refill(pattern.iter().map(|&(term, w)| (term, w * idf[&term])));
                self.stats[doc] = self.vectors[doc].stats();
                changed_existing = true;
            }
        }
        if changed_existing {
            self.generation += 1;
        }
        // Materialise vectors for the new documents.
        for pattern in &self.patterns[old_len..] {
            let idf = &self.idf;
            let vector: SparseVector = pattern
                .iter()
                .map(|&(term, w)| (term, w * idf[&term]))
                .collect();
            self.stats.push(vector.stats());
            self.vectors.push(vector);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::{IdfScheme, TfScheme};
    use crate::Analyzer;

    const TEXTS: &[&str] = &[
        "entity resolution on the web",
        "web document collections and resolution",
        "gardening tips for spring",
        "entity linking for web entities",
        "the the the", // all stopwords -> empty document
        "spring gardening with databases",
    ];

    fn all_tfidf_schemes() -> Vec<TfIdf> {
        let mut out = Vec::new();
        for tf in [
            TfScheme::Raw,
            TfScheme::Log,
            TfScheme::MaxNormalized,
            TfScheme::Binary,
        ] {
            for idf in [
                IdfScheme::None,
                IdfScheme::Plain,
                IdfScheme::Smooth,
                IdfScheme::Probabilistic,
            ] {
                out.push(TfIdf::new(tf, idf));
            }
        }
        out
    }

    #[test]
    fn incremental_sync_is_bit_identical_to_batch_for_every_scheme() {
        for scheme in all_tfidf_schemes() {
            let analyzer = Analyzer::english();
            let mut index = CorpusIndex::new();
            let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
            for text in TEXTS {
                index.add_document(&analyzer.analyze(text));
                store.sync(&index);
                let batch = index.tfidf_vectors(scheme);
                assert_eq!(store.len(), batch.len());
                for (i, (got, want)) in store.vectors().iter().zip(&batch).enumerate() {
                    assert_eq!(got, want, "scheme {scheme:?} diverged from batch");
                    assert_eq!(store.stats(i), &want.stats(), "stale stats at {i}");
                }
            }
        }
    }

    #[test]
    fn sync_handles_multiple_documents_per_call() {
        let scheme = TfIdf::default();
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
        index.add_document(&analyzer.analyze(TEXTS[0]));
        store.sync(&index);
        for text in &TEXTS[1..] {
            index.add_document(&analyzer.analyze(text));
        }
        store.sync(&index);
        assert_eq!(store.vectors(), index.tfidf_vectors(scheme).as_slice());
    }

    #[test]
    fn generation_advances_only_when_existing_vectors_change() {
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::default());
        index.add_document(&analyzer.analyze(TEXTS[0]));
        store.sync(&index);
        // First sync materialises vectors but changes no existing one.
        assert_eq!(store.generation(), 0);
        index.add_document(&analyzer.analyze(TEXTS[1]));
        store.sync(&index);
        // Smooth idf depends on N, so every factor (and doc 0) changed.
        assert_eq!(store.generation(), 1);
        // A sync with nothing new is a no-op.
        store.sync(&index);
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn constant_idf_never_advances_the_generation() {
        let scheme = TfIdf::new(TfScheme::Log, IdfScheme::None);
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
        for text in TEXTS {
            index.add_document(&analyzer.analyze(text));
            store.sync(&index);
        }
        // idf factors are constant 1.0: old vectors never change value.
        assert_eq!(store.generation(), 0);
        assert_eq!(store.vectors(), index.tfidf_vectors(scheme).as_slice());
    }

    #[test]
    fn plain_idf_drops_ubiquitous_terms_like_a_batch_build() {
        // With Plain idf and df == N the factor is 0; the refreshed vector
        // must drop the entry exactly as `from_pairs` would.
        let scheme = TfIdf::new(TfScheme::Raw, IdfScheme::Plain);
        let analyzer = Analyzer::plain();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
        index.add_document(&analyzer.analyze("shared rare"));
        store.sync(&index);
        index.add_document(&analyzer.analyze("shared other"));
        store.sync(&index);
        assert_eq!(store.vectors(), index.tfidf_vectors(scheme).as_slice());
        let shared = analyzer.vocabulary().get("shared").unwrap();
        assert_eq!(store.vector(0).get(shared), 0.0);
    }

    #[test]
    fn bm25_falls_back_to_full_rebuild() {
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::bm25());
        index.add_document(&analyzer.analyze(TEXTS[0]));
        store.sync(&index);
        assert_eq!(store.generation(), 0);
        index.add_document(&analyzer.analyze(TEXTS[1]));
        store.sync(&index);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.vectors(), index.bm25_vectors(1.2, 0.75).as_slice());
        for (i, v) in store.vectors().iter().enumerate() {
            assert_eq!(store.stats(i), &v.stats());
        }
    }
}
