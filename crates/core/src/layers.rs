//! Evidence layers: one per (similarity function, decision criterion).
//!
//! Steps 1–4 of Algorithm 1: compute `G_w^{f_i}`, fit each decision
//! criterion on the training pairs, derive the decision graph `G^i_{D_j}`
//! and its accuracy estimate `acc(G^i_{D_j})`.

use std::collections::HashMap;
use std::sync::Arc;
use weber_eval::purity::fp_measure;
use weber_graph::components::connected_components;
use weber_graph::decision::DecisionGraph;
use weber_graph::multigraph::Layer;
use weber_graph::weighted::WeightedGraph;
use weber_graph::Partition;

use weber_simfun::block::PreparedBlock;
use weber_simfun::functions::SimilarityFunction;

use weber_ml::threshold::optimal_threshold;
use weber_ml::LabeledValue;

use crate::decision::{DecisionCriterion, FittedDecision};
use crate::supervision::Supervision;

/// An evidence layer, with provenance.
///
/// The similarity graph is shared with the block's cache and with the
/// function's other layers; link probabilities are derived from it on
/// demand ([`link_probabilities`](Self::link_probabilities)), only where a
/// combination or clustering reads them.
#[derive(Debug, Clone)]
pub struct EvidenceLayer {
    /// Name of the similarity function that produced it (`"F1"`–`"F10"`
    /// for the standard suite, or a custom function's name).
    pub function: &'static str,
    /// Which decision criterion was applied.
    pub criterion: DecisionCriterion,
    /// The fitted decision.
    pub fitted: FittedDecision,
    /// The similarity (weighted) graph.
    pub similarities: Arc<WeightedGraph>,
    /// Per document, whether it carries the function's feature — the input
    /// cells of an input-partitioned layer; `None` for the others.
    pub presence: Option<Arc<[bool]>>,
    /// The decision graph `G^i_{D_j}`.
    pub decisions: DecisionGraph,
    /// Overall accuracy estimate `acc(G^i_{D_j})` (layer weight).
    pub accuracy: f64,
    /// Estimated end-to-end quality of the layer as a resolution: the
    /// Fp-measure of its transitively closed decision graph, restricted to
    /// the training documents. Best-graph selection uses this — pairwise
    /// accuracy alone is a poor proxy for post-closure quality, because a
    /// few false-positive edges can cascade into large wrong merges.
    pub selection_score: f64,
}

impl EvidenceLayer {
    /// The per-pair link-probability graph, derived from the similarities.
    pub fn link_probabilities(&self) -> WeightedGraph {
        let values = self
            .similarities
            .colex_edges()
            .map(|(i, j, w)| match &self.presence {
                Some(p) => self.fitted.link_probability_in_cell(w, p[i] && p[j]),
                None => self.fitted.link_probability(w),
            })
            .collect();
        WeightedGraph::from_colex(self.similarities.len(), values)
    }

    /// Convert into the combination-multigraph layer form.
    pub fn to_multigraph_layer(&self) -> Layer {
        Layer {
            decisions: self.decisions.clone(),
            link_probability: self.link_probabilities(),
            weight: self.accuracy,
        }
    }
}

/// Estimate a decision graph's quality as a resolution: transitively close
/// it, restrict the resulting partition to the supervised documents, and
/// score Fp against the training labels. Returns 0.5 (uninformative) when
/// there is no supervision.
pub fn training_fp(decisions: &DecisionGraph, supervision: &Supervision) -> f64 {
    if supervision.len() < 2 {
        return 0.5;
    }
    let closed = connected_components(decisions);
    let docs = supervision.docs();
    let predicted = Partition::from_labels(docs.iter().map(|&d| closed.label_of(d)).collect());
    // Project the supervision labels onto the same doc order: each entity is
    // relabelled with the position of its first supervised document, in one
    // pass over the docs.
    let mut first_pos: HashMap<u32, u32> = HashMap::with_capacity(docs.len());
    let truth_labels: Vec<u32> = docs
        .iter()
        .zip(0u32..)
        .map(|(&d, pos)| {
            let entity = supervision.label_of(d).expect("supervised doc has a label");
            *first_pos.entry(entity).or_insert(pos)
        })
        .collect();
    let truth = Partition::from_labels(truth_labels);
    fp_measure(&predicted, &truth)
}

/// Compute the similarity graph `G_w^{f}` of one function over a block.
///
/// Values are sanitised into `[0, 1]`: the contract says similarity
/// functions stay in the unit interval, but a buggy custom function must
/// not poison thresholds, region fits or combined scores — NaN becomes 0
/// (no evidence), out-of-range values are clamped. Served from the block's
/// similarity cache, so repeated calls (and streaming growth) don't
/// recompute pairs.
pub fn similarity_graph(block: &PreparedBlock, f: &dyn SimilarityFunction) -> Arc<WeightedGraph> {
    block.similarity_graph_with(f, None)
}

/// Tuning knobs for layer construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerOptions {
    /// MinHash prefilter threshold for word-vector functions: pairs whose
    /// estimated shingle Jaccard falls below it score 0 without computing
    /// the vector similarity. `None` (the default) is the exact path; see
    /// [`ResolverConfig::word_vector_prefilter`](crate::resolver::ResolverConfig::word_vector_prefilter).
    pub word_vector_prefilter: Option<f64>,
}

/// Blocks at or above this size fan per-function layer construction across
/// scoped worker threads (the same pattern `Resolver::resolve_all` uses
/// across blocks). The gate is on block size, not core count, so the
/// parallel path is exercised deterministically everywhere; results are
/// identical to the sequential path because workers are joined in function
/// order and share nothing mutable.
const PARALLEL_BLOCK_LEN: usize = 64;

/// Build all evidence layers for the given functions and criteria.
///
/// The similarity graph per function is computed once (through the block's
/// cache) and shared, not copied, across criteria.
pub fn build_layers(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
) -> Vec<EvidenceLayer> {
    build_layers_with(
        block,
        functions,
        criteria,
        supervision,
        LayerOptions::default(),
    )
}

/// [`build_layers`] with explicit [`LayerOptions`].
pub fn build_layers_with(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
    options: LayerOptions,
) -> Vec<EvidenceLayer> {
    if functions.len() > 1 && block.len() >= PARALLEL_BLOCK_LEN {
        std::thread::scope(|scope| {
            let workers: Vec<_> = functions
                .iter()
                .map(|f| {
                    scope.spawn(move || {
                        function_layers(block, f.as_ref(), criteria, supervision, options)
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("layer worker panicked"))
                .collect()
        })
    } else {
        functions
            .iter()
            .flat_map(|f| function_layers(block, f.as_ref(), criteria, supervision, options))
            .collect()
    }
}

/// All layers of one similarity function (one per criterion).
fn function_layers(
    block: &PreparedBlock,
    f: &dyn SimilarityFunction,
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
    options: LayerOptions,
) -> Vec<EvidenceLayer> {
    let sims = block.similarity_graph_with(f, options.word_vector_prefilter);
    graph_layers(f.name(), &sims, criteria, supervision)
}

/// The layers of one function's similarity graph, one per criterion:
/// Steps 2–4 of Algorithm 1 on a graph already in hand. Each layer shares
/// `sims`.
///
/// Stage timings: region estimation (criterion fitting) is recorded on
/// its own; the rest — decision graphs, accuracy scoring — is the
/// layer-build stage. The similarity graph's own build time is recorded by
/// the block, per function (`simfun.graph_build_us.<function>`). All go to
/// global histograms, so the scoped-thread fan-out in
/// [`build_layers_with`] just records one observation per function.
pub fn graph_layers(
    function: &'static str,
    sims: &Arc<WeightedGraph>,
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
) -> Vec<EvidenceLayer> {
    let start = std::time::Instant::now();
    let mut fit_elapsed = std::time::Duration::ZERO;
    let samples = supervision.labeled_values(|i, j| sims.get(i, j));
    let layers: Vec<EvidenceLayer> = criteria
        .iter()
        .map(|&criterion| {
            let fit_start = std::time::Instant::now();
            let fitted = criterion.fit(&samples);
            fit_elapsed += fit_start.elapsed();
            let decisions = DecisionGraph::from_weighted(sims, |_, _, w| fitted.decide(w));
            let accuracy = fitted.training_accuracy();
            let selection_score = training_fp(&decisions, supervision);
            EvidenceLayer {
                function,
                criterion,
                fitted,
                similarities: Arc::clone(sims),
                presence: None,
                decisions,
                accuracy,
                selection_score,
            }
        })
        .collect();
    let registry = weber_obs::Registry::global();
    registry
        .histogram("core.stage.region_estimation_us")
        .record(fit_elapsed.as_micros() as u64);
    registry
        .histogram("core.stage.layer_build_us")
        .record(start.elapsed().saturating_sub(fit_elapsed).as_micros() as u64);
    layers
}

/// Build input-partitioned evidence layers, one per function (§IV-A's
/// "regions based on some properties of the input").
///
/// For each function, every document pair is assigned to one of two input
/// cells — *both pages carry the feature the function needs* vs *at least
/// one does not* (via
/// [`SimilarityFunction::feature_presence`]) — and a separate optimal
/// threshold is fitted per cell. This separates "low value because truly
/// different" from "low value because information is missing", which a
/// single threshold or value-region model conflates.
pub fn build_input_partitioned_layers(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    supervision: &Supervision,
) -> Vec<EvidenceLayer> {
    build_input_partitioned_layers_with(block, functions, supervision, LayerOptions::default())
}

/// [`build_input_partitioned_layers`] with explicit [`LayerOptions`].
pub fn build_input_partitioned_layers_with(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    supervision: &Supervision,
    options: LayerOptions,
) -> Vec<EvidenceLayer> {
    if functions.len() > 1 && block.len() >= PARALLEL_BLOCK_LEN {
        std::thread::scope(|scope| {
            let workers: Vec<_> = functions
                .iter()
                .map(|f| {
                    scope.spawn(move || {
                        input_partitioned_layer(block, f.as_ref(), supervision, options)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("layer worker panicked"))
                .collect()
        })
    } else {
        functions
            .iter()
            .map(|f| input_partitioned_layer(block, f.as_ref(), supervision, options))
            .collect()
    }
}

/// The input-partitioned layer of one similarity function.
fn input_partitioned_layer(
    block: &PreparedBlock,
    f: &dyn SimilarityFunction,
    supervision: &Supervision,
    options: LayerOptions,
) -> EvidenceLayer {
    let sims = block.similarity_graph_with(f, options.word_vector_prefilter);
    let presence: Arc<[bool]> = (0..block.len())
        .map(|d| f.feature_presence(block, d) > 0.5)
        .collect();
    let both = |i: usize, j: usize| presence[i] && presence[j];
    // Split the training pairs by input cell and fit each.
    let mut cell_present: Vec<LabeledValue> = Vec::new();
    let mut cell_missing: Vec<LabeledValue> = Vec::new();
    for (i, j, link) in supervision.pairs() {
        let sample = LabeledValue::new(sims.get(i, j), link);
        if both(i, j) {
            cell_present.push(sample);
        } else {
            cell_missing.push(sample);
        }
    }
    let fit_present = optimal_threshold(&cell_present);
    let fit_missing = optimal_threshold(&cell_missing);
    let total = cell_present.len() + cell_missing.len();
    let training_accuracy = if total == 0 {
        0.5
    } else {
        (fit_present.training_accuracy * cell_present.len() as f64
            + fit_missing.training_accuracy * cell_missing.len() as f64)
            / total as f64
    };
    let fitted = FittedDecision::InputCells {
        present: fit_present,
        missing: fit_missing,
        training_accuracy,
    };
    let decisions =
        DecisionGraph::from_weighted(&sims, |i, j, w| fitted.decide_in_cell(w, both(i, j)));
    let selection_score = training_fp(&decisions, supervision);
    EvidenceLayer {
        function: f.name(),
        criterion: DecisionCriterion::InputPartitioned,
        fitted,
        similarities: sims,
        presence: Some(presence),
        decisions,
        accuracy: training_accuracy,
        selection_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weber_corpus::{generate, presets};
    use weber_extract::pipeline::Extractor;
    use weber_graph::Partition;
    use weber_simfun::functions::{function, FunctionId};
    use weber_textindex::tfidf::TfIdf;

    fn prepared_block() -> (PreparedBlock, Partition) {
        let dataset = generate(&presets::tiny(11));
        let extractor = Extractor::new(&dataset.gazetteer);
        let block = &dataset.blocks[0];
        let features = block
            .documents
            .iter()
            .map(|d| extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        (
            PreparedBlock::new(block.query_name.clone(), features, TfIdf::default()),
            block.truth(),
        )
    }

    #[test]
    fn similarity_graph_is_complete_and_bounded() {
        let (block, _) = prepared_block();
        let g = similarity_graph(&block, function(FunctionId::F8).as_ref());
        assert_eq!(g.len(), block.len());
        for (_, _, w) in g.edges() {
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn layers_cover_function_criterion_product() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.2, 1);
        let functions = vec![function(FunctionId::F4), function(FunctionId::F8)];
        let criteria = DecisionCriterion::standard_set();
        let layers = build_layers(&block, &functions, &criteria, &sup);
        assert_eq!(layers.len(), functions.len() * criteria.len());
        for layer in &layers {
            assert_eq!(layer.decisions.len(), block.len());
            assert!((0.0..=1.0).contains(&layer.accuracy));
        }
    }

    #[test]
    fn informative_function_layers_have_high_training_accuracy() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.5, 2);
        let layers = build_layers(
            &block,
            &[function(FunctionId::F8)],
            &[DecisionCriterion::Threshold],
            &sup,
        );
        assert!(
            layers[0].accuracy > 0.6,
            "TF-IDF cosine should separate training pairs reasonably: {}",
            layers[0].accuracy
        );
    }

    #[test]
    fn decisions_follow_fitted_criterion() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 3);
        let layers = build_layers(
            &block,
            &[function(FunctionId::F8)],
            &[DecisionCriterion::Threshold],
            &sup,
        );
        let layer = &layers[0];
        for (i, j, w) in layer.similarities.edges() {
            assert_eq!(layer.decisions.has_edge(i, j), layer.fitted.decide(w));
        }
    }

    #[test]
    fn input_partitioned_layers_are_well_formed() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.4, 8);
        let functions = vec![function(FunctionId::F2), function(FunctionId::F8)];
        let layers = build_input_partitioned_layers(&block, &functions, &sup);
        assert_eq!(layers.len(), 2);
        for layer in &layers {
            assert_eq!(layer.decisions.len(), block.len());
            assert!((0.0..=1.0).contains(&layer.accuracy));
            assert!(matches!(layer.fitted, FittedDecision::InputCells { .. }));
        }
    }

    #[test]
    fn input_cells_split_by_feature_presence() {
        // A function whose feature is missing on odd documents should fit
        // separate cells; with empty supervision both cells are default.
        let (block, _) = prepared_block();
        let layers = build_input_partitioned_layers(
            &block,
            &[function(FunctionId::F2)],
            &Supervision::empty(),
        );
        assert_eq!(layers[0].accuracy, 0.5);
    }

    #[test]
    fn parallel_layer_build_matches_sequential() {
        // Grow a block past PARALLEL_BLOCK_LEN by cycling preset documents,
        // then check that the threaded fan-out produces exactly the layers
        // the sequential path would, in the same order.
        let dataset = generate(&presets::tiny(11));
        let extractor = Extractor::new(&dataset.gazetteer);
        let b = &dataset.blocks[0];
        let features: Vec<_> = b
            .documents
            .iter()
            .cycle()
            .take(PARALLEL_BLOCK_LEN)
            .map(|d| extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        let block = PreparedBlock::new(b.query_name.clone(), features, TfIdf::default());
        let truth: Vec<u32> = (0..PARALLEL_BLOCK_LEN as u32)
            .map(|i| i % b.documents.len() as u32)
            .collect();
        let sup = Supervision::sample_from_truth(&Partition::from_labels(truth), 0.3, 5);
        let functions = vec![
            function(FunctionId::F2),
            function(FunctionId::F4),
            function(FunctionId::F8),
        ];
        let criteria = DecisionCriterion::standard_set();
        assert!(block.len() >= PARALLEL_BLOCK_LEN, "parallel gate must open");
        let parallel =
            build_layers_with(&block, &functions, &criteria, &sup, LayerOptions::default());
        let sequential: Vec<EvidenceLayer> = functions
            .iter()
            .flat_map(|f| {
                function_layers(&block, f.as_ref(), &criteria, &sup, LayerOptions::default())
            })
            .collect();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.function, s.function);
            assert_eq!(p.criterion, s.criterion);
            assert_eq!(p.similarities, s.similarities);
            assert_eq!(p.link_probabilities(), s.link_probabilities());
            assert_eq!(p.accuracy, s.accuracy);
            assert_eq!(p.selection_score, s.selection_score);
            assert_eq!(p.decisions.edge_count(), s.decisions.edge_count());
        }
    }

    #[test]
    fn to_multigraph_layer_preserves_weight() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 4);
        let layers = build_layers(
            &block,
            &[function(FunctionId::F4)],
            &[DecisionCriterion::Threshold],
            &sup,
        );
        let ml = layers[0].to_multigraph_layer();
        assert_eq!(ml.weight, layers[0].accuracy);
        assert_eq!(ml.decisions.edge_count(), layers[0].decisions.edge_count());
    }
}
