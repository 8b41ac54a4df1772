//! The resolver on kernel-built similarity graphs gives exactly the
//! resolution of layers built from per-pair `pair_similarity` values, on
//! the 1,200-document block meta-blocking makes of the `dirty` preset.

use std::sync::Arc;

use weber_block::{Blocker, BlockingConfig, DocRecord};
use weber_core::layers::graph_layers;
use weber_core::resolver::{LayerReport, Resolver, ResolverConfig};
use weber_core::supervision::Supervision;
use weber_corpus::{dirty, generate_dirty};
use weber_extract::pipeline::Extractor;
use weber_graph::{Partition, WeightedGraph};
use weber_simfun::block::{PreparedBlock, WordVectorScheme};

/// The seed the repository's benchmark generates the `dirty` pile from.
const SEED: u64 = 20100301;

fn meta_block() -> (PreparedBlock, Supervision) {
    let corpus = generate_dirty(&dirty(SEED));
    let records: Vec<DocRecord> = corpus
        .documents
        .iter()
        .map(|d| DocRecord {
            text: &d.text,
            url: d.url.as_deref(),
        })
        .collect();
    let members = Blocker::new(BlockingConfig::default())
        .block(&records)
        .blocks
        .into_iter()
        .max_by_key(Vec::len)
        .expect("the dirty pile blocks into a candidate block");
    let extractor = Extractor::new(&corpus.gazetteer);
    let docs: Vec<_> = members
        .iter()
        .map(|&d| &corpus.documents[d as usize])
        .collect();
    let features = docs
        .iter()
        .map(|d| extractor.extract(&d.text, d.url.as_deref()))
        .collect();
    let truth = Partition::from_labels(docs.iter().map(|d| d.entity).collect());
    (
        PreparedBlock::with_scheme("meta", features, WordVectorScheme::default()),
        Supervision::sample_from_truth(&truth, 0.1, SEED),
    )
}

#[test]
fn resolve_on_kernel_graphs_equals_resolve_on_per_pair_graphs() {
    let (block, supervision) = meta_block();
    let n = block.len();
    assert!(n >= 1000, "the meta-block holds the whole pile, got {n}");
    let resolver = Resolver::new(ResolverConfig::default()).unwrap();
    let config = resolver.config();
    let got = resolver.resolve(&block, &supervision).unwrap();

    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let layers: Vec<_> = config
        .functions
        .iter()
        .flat_map(|f| {
            let sims = WeightedGraph::from_fn_par(n, threads, |i, j| {
                block.pair_similarity(f.as_ref(), None, i, j)
            });
            graph_layers(f.name(), &Arc::new(sims), &config.criteria, &supervision)
        })
        .collect();
    let combined = config.combination.combine(&layers, &supervision, n);
    let partition = config.clustering.cluster(&combined);
    let reports: Vec<LayerReport> = layers.iter().map(LayerReport::from).collect();

    assert_eq!(got.layers, reports);
    assert_eq!(got.selected_layer, combined.selected_layer);
    assert_eq!(got.partition, partition);
}
