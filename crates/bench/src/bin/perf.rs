//! Machine-readable performance harness for the perf trajectory across PRs.
//!
//! Two wall-clock scenarios, each emitted as a JSON report:
//!
//! - **stream**: seed a [`StreamResolver`] with one generated block's
//!   labelled documents, then ingest cycled copies one at a time until the
//!   block holds `--docs` documents (checkpoint retraining included). This
//!   is the end-to-end ingest path `weber serve` runs per request.
//! - **pipeline**: batch-resolve one prepared block of `--pipeline-docs`
//!   documents under the default configuration (all ten functions, three
//!   criteria, best-graph selection). The report's `meta_block` case does
//!   the same on the 1,200-document block meta-blocking makes of the
//!   `dirty` preset, with each function's full-graph build time.
//!
//! Reports carry documents-per-second / pairs-per-second so runs are
//! comparable across machines only in ratio form; pass `--stream-baseline`
//! / `--pipeline-baseline` pointing at an earlier report to get a
//! `speedup` field computed against it. `scripts/bench.sh` wires this up.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use weber_block::{Blocker, BlockingConfig, DocRecord};
use weber_core::resolver::{Resolver, ResolverConfig};
use weber_core::supervision::Supervision;
use weber_corpus::{dirty, generate, generate_dirty, presets};
use weber_extract::features::PageFeatures;
use weber_extract::pipeline::Extractor;
use weber_simfun::block::{PreparedBlock, WordVectorScheme};
use weber_stream::{SeedDocument, StreamConfig, StreamResolver};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamReport {
    scenario: String,
    total_docs: u64,
    seed_docs: u64,
    ingested_docs: u64,
    reps: u64,
    /// Best wall time over the reps, seconds (seed + every ingest).
    wall_seconds: f64,
    /// `total_docs / wall_seconds`.
    docs_per_second: f64,
    baseline_wall_seconds: Option<f64>,
    baseline_docs_per_second: Option<f64>,
    /// `baseline_wall_seconds / wall_seconds` (higher is better).
    speedup: Option<f64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PipelineReport {
    scenario: String,
    block_docs: u64,
    functions: u64,
    /// Pairwise similarity evaluations one resolve implies:
    /// `functions × n·(n−1)/2`.
    pairs_scored: u64,
    reps: u64,
    /// Best wall time over the reps, seconds (resolve only; block
    /// preparation excluded).
    wall_seconds: f64,
    /// `pairs_scored / wall_seconds`.
    pairs_per_second: f64,
    baseline_wall_seconds: Option<f64>,
    baseline_pairs_per_second: Option<f64>,
    speedup: Option<f64>,
    /// The same resolve on the `dirty` preset's meta-block.
    meta_block: Option<MetaBlockReport>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct MetaBlockReport {
    /// Corpus seed of the `dirty` preset.
    seed: u64,
    block_docs: u64,
    /// `functions × n·(n−1)/2`, as in the 120-document case.
    pairs_scored: u64,
    reps: u64,
    /// Best wall time over the reps, seconds (resolve only).
    wall_seconds: f64,
    pairs_per_second: f64,
    /// Mean full-graph build time per function over the reps, µs
    /// (`simfun.graph_build_us.<function>`). Measured one function at a
    /// time on a fresh block, so the figures do not overlap: inside
    /// `resolve` the builds run concurrently on per-function threads. Built
    /// alone, each of F8–F10 includes building the dot-product graph
    /// (`word_dots`, also listed on its own), which inside `resolve` the
    /// three share.
    graph_build_us: BTreeMap<String, u64>,
}

struct Options {
    docs: usize,
    pipeline_docs: usize,
    reps: usize,
    stream_out: String,
    pipeline_out: String,
    stream_baseline: Option<String>,
    pipeline_baseline: Option<String>,
    bench_out: Option<String>,
    /// Small sizes, one rep, no meta-block case.
    smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            docs: 200,
            pipeline_docs: 120,
            reps: 3,
            stream_out: "BENCH_stream.json".into(),
            pipeline_out: "BENCH_pipeline.json".into(),
            stream_baseline: None,
            pipeline_baseline: None,
            bench_out: None,
            smoke: false,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--docs" => opts.docs = value("--docs").parse().expect("--docs: integer"),
            "--pipeline-docs" => {
                opts.pipeline_docs = value("--pipeline-docs")
                    .parse()
                    .expect("--pipeline-docs: integer");
            }
            "--reps" => opts.reps = value("--reps").parse::<usize>().expect("--reps").max(1),
            "--stream-out" => opts.stream_out = value("--stream-out"),
            "--pipeline-out" => opts.pipeline_out = value("--pipeline-out"),
            "--stream-baseline" => opts.stream_baseline = Some(value("--stream-baseline")),
            "--pipeline-baseline" => opts.pipeline_baseline = Some(value("--pipeline-baseline")),
            "--bench-out" => opts.bench_out = Some(value("--bench-out")),
            "--smoke" => {
                opts.docs = 40;
                opts.pipeline_docs = 40;
                opts.reps = 1;
                opts.smoke = true;
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    if let Some(dir) = &opts.bench_out {
        opts.stream_out = weber_bench::redirect_into(dir, &opts.stream_out);
        opts.pipeline_out = weber_bench::redirect_into(dir, &opts.pipeline_out);
    }
    opts
}

/// One timed streaming run: seed with the source block's labelled
/// documents, ingest cycled copies until `total` documents are held.
fn run_stream(total: usize) -> (f64, usize) {
    let dataset = generate(&presets::tiny(3));
    let source = &dataset.blocks[0];
    let truth = source.truth();
    let seed_docs: Vec<SeedDocument> = source
        .documents
        .iter()
        .zip(0..)
        .map(|(d, i)| SeedDocument {
            text: d.text.clone(),
            url: d.url.clone(),
            label: truth.label_of(i),
        })
        .collect();
    assert!(
        total > seed_docs.len(),
        "--docs must exceed the seed batch ({})",
        seed_docs.len()
    );
    let arrivals: Vec<(String, Option<String>)> = (seed_docs.len()..total)
        .map(|i| {
            let d = &source.documents[i % source.documents.len()];
            (d.text.clone(), d.url.clone())
        })
        .collect();
    let stream = StreamResolver::new(StreamConfig::default(), &dataset.gazetteer).unwrap();
    let start = Instant::now();
    stream.seed(&source.query_name, &seed_docs).unwrap();
    for (text, url) in &arrivals {
        stream
            .ingest(&source.query_name, text, url.as_deref())
            .unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(stream.partition(&source.query_name).unwrap());
    (secs, seed_docs.len())
}

/// The largest candidate block meta-blocking makes of the `dirty` preset
/// (all 1,200 documents at the default seed), prepared, with supervision
/// on a 10% truth sample.
fn meta_block(seed: u64) -> (PreparedBlock, Supervision) {
    let corpus = generate_dirty(&dirty(seed));
    let records: Vec<DocRecord> = corpus
        .documents
        .iter()
        .map(|d| DocRecord {
            text: &d.text,
            url: d.url.as_deref(),
        })
        .collect();
    let blocks = Blocker::new(BlockingConfig::default()).block(&records);
    let members = blocks
        .blocks
        .into_iter()
        .max_by_key(Vec::len)
        .expect("the dirty preset blocks into at least one candidate block");
    let extractor = Extractor::new(&corpus.gazetteer);
    let docs: Vec<_> = members
        .iter()
        .map(|&d| &corpus.documents[d as usize])
        .collect();
    let features = docs
        .iter()
        .map(|d| extractor.extract(&d.text, d.url.as_deref()))
        .collect();
    let block = PreparedBlock::with_scheme("meta", features, WordVectorScheme::default());
    let truth = weber_graph::Partition::from_labels(docs.iter().map(|d| d.entity).collect());
    (block, Supervision::sample_from_truth(&truth, 0.1, seed))
}

/// Sum and count of every `simfun.graph_build_us.<function>` histogram.
fn graph_build_totals() -> BTreeMap<String, (u64, u64)> {
    weber_obs::Registry::global()
        .snapshot()
        .histograms
        .iter()
        .filter_map(|h| {
            let f = h.name.strip_prefix("simfun.graph_build_us.")?;
            Some((f.to_string(), (h.sum, h.count)))
        })
        .collect()
}

/// Resolve the meta-block `reps` times, each on a freshly prepared block
/// (cold similarity cache), and report the best wall time; then build each
/// function's graph alone on a fresh block, `reps` times, for the mean
/// per-function build times.
fn run_meta_block(seed: u64, reps: usize) -> MetaBlockReport {
    let resolver = Resolver::new(ResolverConfig::default()).unwrap();
    let functions = &resolver.config().functions;
    let mut best = f64::INFINITY;
    let mut n = 0;
    for _ in 0..reps {
        let (block, sup) = meta_block(seed);
        n = block.len() as u64;
        let start = Instant::now();
        let resolution = resolver.resolve(&block, &sup).unwrap();
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(resolution.partition.len());
    }
    let before = graph_build_totals();
    for _ in 0..reps {
        let (block, _) = meta_block(seed);
        for f in functions {
            std::hint::black_box(block.similarity_graph_with(f.as_ref(), None));
        }
    }
    let graph_build_us = graph_build_totals()
        .into_iter()
        .filter_map(|(f, (sum, count))| {
            let (sum0, count0) = before.get(&f).copied().unwrap_or_default();
            let builds = count - count0;
            (builds > 0).then(|| (f, (sum - sum0) / builds))
        })
        .collect();
    let pairs = functions.len() as u64 * n * (n - 1) / 2;
    MetaBlockReport {
        seed,
        block_docs: n,
        pairs_scored: pairs,
        reps: reps as u64,
        wall_seconds: best,
        pairs_per_second: pairs as f64 / best,
        graph_build_us,
    }
}

/// One timed batch resolve over a freshly prepared `n`-document block
/// (preparation excluded from the timing).
fn run_pipeline(n: usize) -> (f64, usize) {
    let dataset = generate(&presets::tiny(3));
    let extractor = Extractor::new(&dataset.gazetteer);
    let source = &dataset.blocks[0];
    let features: Vec<PageFeatures> = (0..n)
        .map(|i| {
            let d = &source.documents[i % source.documents.len()];
            extractor.extract(&d.text, d.url.as_deref())
        })
        .collect();
    let block = PreparedBlock::with_scheme(
        source.query_name.clone(),
        features,
        WordVectorScheme::default(),
    );
    let truth = source.truth();
    let labelled = source.documents.len().min(n);
    let sup = Supervision::new((0..labelled).map(|i| (i, truth.label_of(i))).collect());
    let config = ResolverConfig::default();
    let functions = config.functions.len();
    let resolver = Resolver::new(config).unwrap();
    let start = Instant::now();
    let resolution = resolver.resolve(&block, &sup).unwrap();
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(resolution.partition.len());
    (secs, functions)
}

fn best_of(reps: usize, run: impl Fn() -> f64) -> f64 {
    (0..reps).map(|_| run()).fold(f64::INFINITY, f64::min)
}

fn load<T: Deserialize>(path: &str) -> T {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e:?}"))
}

fn write(path: &str, json: String) {
    std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn main() {
    let opts = parse_args();

    let (_, seed_len) = run_stream(opts.docs.max(30)); // warm-up + seed size probe
    let wall = best_of(opts.reps, || run_stream(opts.docs).0);
    let mut stream = StreamReport {
        scenario: "stream_ingest".into(),
        total_docs: opts.docs as u64,
        seed_docs: seed_len as u64,
        ingested_docs: (opts.docs - seed_len) as u64,
        reps: opts.reps as u64,
        wall_seconds: wall,
        docs_per_second: opts.docs as f64 / wall,
        baseline_wall_seconds: None,
        baseline_docs_per_second: None,
        speedup: None,
    };
    if let Some(path) = &opts.stream_baseline {
        let base: StreamReport = load(path);
        stream.baseline_wall_seconds = Some(base.wall_seconds);
        stream.baseline_docs_per_second = Some(base.docs_per_second);
        stream.speedup = Some(base.wall_seconds / stream.wall_seconds);
    }
    eprintln!(
        "stream: {} docs in {:.3}s ({:.1} docs/s{})",
        stream.total_docs,
        stream.wall_seconds,
        stream.docs_per_second,
        stream
            .speedup
            .map(|s| format!(", {s:.2}x vs baseline"))
            .unwrap_or_default()
    );
    write(
        &opts.stream_out,
        serde_json::to_string_pretty(&stream).unwrap(),
    );

    let (_, functions) = run_pipeline(opts.pipeline_docs.min(40)); // warm-up
    let wall = best_of(opts.reps, || run_pipeline(opts.pipeline_docs).0);
    let n = opts.pipeline_docs as u64;
    let pairs = functions as u64 * n * (n - 1) / 2;
    let mut pipeline = PipelineReport {
        scenario: "pipeline_resolve".into(),
        block_docs: n,
        functions: functions as u64,
        pairs_scored: pairs,
        reps: opts.reps as u64,
        wall_seconds: wall,
        pairs_per_second: pairs as f64 / wall,
        baseline_wall_seconds: None,
        baseline_pairs_per_second: None,
        speedup: None,
        meta_block: None,
    };
    if let Some(path) = &opts.pipeline_baseline {
        let base: PipelineReport = load(path);
        pipeline.baseline_wall_seconds = Some(base.wall_seconds);
        pipeline.baseline_pairs_per_second = Some(base.pairs_per_second);
        pipeline.speedup = Some(base.wall_seconds / pipeline.wall_seconds);
    }
    eprintln!(
        "pipeline: {} docs ({} pairs) in {:.3}s ({:.0} pairs/s{})",
        pipeline.block_docs,
        pipeline.pairs_scored,
        pipeline.wall_seconds,
        pipeline.pairs_per_second,
        pipeline
            .speedup
            .map(|s| format!(", {s:.2}x vs baseline"))
            .unwrap_or_default()
    );
    if !opts.smoke {
        let meta = run_meta_block(weber_bench::DEFAULT_SEED, opts.reps);
        eprintln!(
            "pipeline meta-block: {} docs ({} pairs) in {:.3}s ({:.0} pairs/s); graph builds (µs): {:?}",
            meta.block_docs,
            meta.pairs_scored,
            meta.wall_seconds,
            meta.pairs_per_second,
            meta.graph_build_us
        );
        pipeline.meta_block = Some(meta);
    }
    write(
        &opts.pipeline_out,
        serde_json::to_string_pretty(&pipeline).unwrap(),
    );
}
