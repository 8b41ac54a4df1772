//! `dirty-to-entities`: the paper's batch technique plus blocking, in
//! process and without sockets. A seeded dirty pile goes through
//! meta-blocking, then per candidate block through feature extraction,
//! block preparation, the resolver with 10% truth-sampled supervision, and
//! entity materialization.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use weber_block::{Blocker, BlockingConfig, CandidateBlocks, DocRecord};
use weber_core::resolver::{Resolver, ResolverConfig};
use weber_core::supervision::Supervision;
use weber_corpus::{dirty, generate_dirty, DirtyCorpus};
use weber_entity::{EntityStore, MentionOrigin};
use weber_extract::pipeline::Extractor;
use weber_graph::Partition;
use weber_simfun::block::{PreparedBlock, WordVectorScheme};

use crate::inputs::CORPUS_SEED;
use crate::stats::{self, covers_once, median, tail};
use crate::trace::Tracer;
use crate::Report;

/// The paper's training fraction.
const TRAIN_FRACTION: f64 = 0.1;
/// Set-ups a run makes; `setup_s` is their median. One takes about 20 ms,
/// and the median of three still moved by a quarter between runs.
const SETUPS: usize = 15;
/// `entities` reads (one materialization pass each) after every pass:
/// enough for each pass to quote its own p99.
const READS_PER_PASS: usize = 1100;

/// One candidate block's resolved state, kept for the read phase.
struct Resolved {
    members: Vec<u32>,
    clusters: Vec<Vec<usize>>,
    origins: Vec<MentionOrigin>,
    store: EntityStore,
}

/// What one pass over the pile produced.
struct Pass {
    seconds: f64,
    /// Seconds from the pass start until each document's entity existed.
    done_s: Vec<f64>,
    /// Resolver clusters over the whole pile (global document ids).
    clusters: Vec<Vec<usize>>,
    /// Entity mention sets over the whole pile.
    entities: Vec<Vec<usize>>,
    blocks: CandidateBlocks,
    resolved: Vec<Resolved>,
    failed: usize,
    /// Document pairs the resolver scored.
    pairs: u64,
}

/// The figures kept of every pass. The passes themselves are dropped once
/// read, all but the first, so memory does not grow with the number of
/// passes a run fits in, and a faster program does not read as a larger
/// one.
struct Figures {
    seconds: f64,
    /// Median and tail of [`Pass::done_s`], ms.
    done_p50_ms: f64,
    done_p99_ms: f64,
    failed: usize,
    blocks: usize,
}

impl Figures {
    fn of(pass: &Pass) -> Self {
        let done_ms: Vec<f64> = pass.done_s.iter().map(|s| s * 1e3).collect();
        Figures {
            seconds: pass.seconds,
            done_p50_ms: median(&done_ms).unwrap_or(0.0),
            done_p99_ms: tail(&done_ms, 0.99).map_or(0.0, |q| q.value),
            failed: pass.failed,
            blocks: pass.blocks.blocks.len(),
        }
    }
}

struct Pipeline {
    corpus: DirtyCorpus,
    extractor: Extractor,
    resolver: Resolver,
    blocker: Blocker,
}

impl Pipeline {
    fn pass(&self, n: u64, tracer: &mut Tracer) -> Pass {
        let start = Instant::now();
        let root = tracer.begin("dirty.pass", None, n);
        let records: Vec<DocRecord> = self
            .corpus
            .documents
            .iter()
            .map(|d| DocRecord {
                text: &d.text,
                url: d.url.as_deref(),
            })
            .collect();
        let blocks = tracer.time("block.block", root, n, || self.blocker.block(&records));
        let blocked_at = start.elapsed().as_secs_f64();
        let total = self.corpus.len();
        let mut done_s = vec![blocked_at; total];
        let mut covered = vec![false; total];
        let mut clusters_out = Vec::new();
        let mut entities_out = Vec::new();
        let mut resolved = Vec::new();
        let (mut failed, mut pairs) = (0, 0u64);
        for (k, members) in blocks.blocks.iter().enumerate() {
            let docs: Vec<_> = members
                .iter()
                .map(|&d| &self.corpus.documents[d as usize])
                .collect();
            let features = tracer.time("extract.extract", root, k as u64, || {
                docs.iter()
                    .map(|d| self.extractor.extract(&d.text, d.url.as_deref()))
                    .collect::<Vec<_>>()
            });
            let prepared = tracer.time("simfun.prepare", root, k as u64, || {
                PreparedBlock::with_scheme(
                    format!("block{k}"),
                    features,
                    WordVectorScheme::default(),
                )
            });
            let truth = Partition::from_labels(docs.iter().map(|d| d.entity).collect());
            let supervision =
                Supervision::sample_from_truth(&truth, TRAIN_FRACTION, CORPUS_SEED ^ k as u64);
            let resolution = tracer.time("core.resolve", root, k as u64, || {
                self.resolver.resolve(&prepared, &supervision)
            });
            let Ok(resolution) = resolution else {
                failed += 1;
                continue;
            };
            pairs += (members.len() * (members.len() - 1) / 2) as u64;
            let clusters = resolution.partition.clusters();
            let origins: Vec<MentionOrigin> = (0..members.len())
                .map(|i| match supervision.label_of(i) {
                    Some(label) => MentionOrigin::Seed { label },
                    None => MentionOrigin::Ingest,
                })
                .collect();
            let mut store = EntityStore::new(format!("block{k}"));
            tracer.time("entity.materialize", root, k as u64, || {
                store.materialize(&clusters, &origins)
            });
            let at = start.elapsed().as_secs_f64();
            let global = |local: &Vec<usize>| -> Vec<usize> {
                local.iter().map(|&i| members[i] as usize).collect()
            };
            clusters_out.extend(clusters.iter().map(global));
            entities_out.extend(store.entities().iter().map(|e| global(&e.mentions)));
            for &d in members {
                done_s[d as usize] = at;
                covered[d as usize] = true;
            }
            resolved.push(Resolved {
                members: members.clone(),
                clusters,
                origins,
                store,
            });
        }
        // Documents no candidate block holds are their own entity as soon
        // as blocking has run.
        for (d, _) in covered.iter().enumerate().filter(|(_, c)| !**c) {
            clusters_out.push(vec![d]);
            entities_out.push(vec![d]);
        }
        tracer.end(root);
        Pass {
            seconds: start.elapsed().as_secs_f64(),
            done_s,
            clusters: clusters_out,
            entities: entities_out,
            blocks,
            resolved,
            failed,
            pairs,
        }
    }
}

/// Run the workload for `seconds`: passes over one generated pile, each
/// followed by [`READS_PER_PASS`] entity reads. Reports the end-to-end
/// metrics, or with `traced` the per-layer ones.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(traced, origin);
    let mut setups = Vec::new();
    let mut generate_s = Vec::new();
    let mut pipeline = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let corpus = generate_dirty(&dirty(CORPUS_SEED));
        generate_s.push(t.elapsed().as_secs_f64());
        let extractor = Extractor::new(&corpus.gazetteer);
        let resolver = Resolver::new(ResolverConfig::default()).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        pipeline = Some(Pipeline {
            corpus,
            extractor,
            resolver,
            blocker: Blocker::new(BlockingConfig::default()),
        });
    }
    let pipeline = pipeline.expect("set-ups ran");
    let truth: Vec<u32> = pipeline.corpus.documents.iter().map(|d| d.entity).collect();
    let n = truth.len();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xE171_7135);
    let mut first: Option<Pass> = None;
    let mut passes: Vec<Figures> = Vec::new();
    let mut reads_ms: Vec<Vec<f64>> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut pass = pipeline.pass(passes.len() as u64, &mut tracer);
        attempted += pass.blocks.blocks.len();
        failed += pass.failed;
        report.check.require(
            covers_once(&pass.clusters, n) && covers_once(&pass.entities, n),
            || "a document is outside exactly one cluster/entity".into(),
        );
        if let Some(first) = &first {
            report.check.require(
                stats::canonical(first.clusters.clone()) == stats::canonical(pass.clusters.clone()),
                || "passes over the same pile disagree".into(),
            );
        }
        // Reads: the `entities` read path, one materialization pass over
        // the block holding a random document.
        let readable: Vec<usize> = (0..pass.resolved.len())
            .flat_map(|b| std::iter::repeat_n(b, pass.resolved[b].members.len()))
            .collect();
        let mut pass_reads = Vec::new();
        for r in (0..READS_PER_PASS).filter(|_| !readable.is_empty()) {
            let b = readable[rng.random_range(0..readable.len())];
            let block = &mut pass.resolved[b];
            let t = Instant::now();
            tracer.time("entity.materialize", None, r as u64, || {
                block.store.materialize(&block.clusters, &block.origins)
            });
            pass_reads.push(t.elapsed().as_secs_f64() * 1e3);
            attempted += 1;
        }
        reads_ms.push(pass_reads);
        passes.push(Figures::of(&pass));
        first.get_or_insert(pass);
    }
    let first = first.expect("at least one pass");
    eprintln!(
        "dirty-to-entities: {} docs, {} passes, {} candidate blocks (largest {} docs)",
        n,
        passes.len(),
        first.blocks.blocks.len(),
        first.blocks.blocks.iter().map(Vec::len).max().unwrap_or(0)
    );

    let per_pass = |f: &dyn Fn(&Figures) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>()).expect("at least one pass")
    };
    let all_reads: Vec<f64> = reads_ms.concat();
    if traced {
        let sum_per_pass = |name: &str| -> f64 {
            tracer.durations_us(name).iter().sum::<f64>() / 1e6 / passes.len() as f64
        };
        let blocked_docs: usize = first.blocks.blocks.iter().map(Vec::len).sum();
        let resolve_s = sum_per_pass("core.resolve");
        let materialize = tracer.durations_us("entity.materialize");
        report.set(
            "block.wall_s",
            median(&tracer.durations_us("block.block")).unwrap_or(0.0) / 1e6,
        );
        report.set(
            "block.candidate_pairs",
            first.blocks.stats.candidate_pairs as f64,
        );
        report.set(
            "block.comparison_frac",
            first.blocks.stats.comparison_frac(),
        );
        report.set("block.blocks", first.blocks.blocks.len() as f64);
        report.set(
            "block.largest_block_docs",
            first.blocks.blocks.iter().map(Vec::len).max().unwrap_or(0) as f64,
        );
        report.set(
            "extract.us_per_doc",
            sum_per_pass("extract.extract") * 1e6 / blocked_docs.max(1) as f64,
        );
        report.set("simfun.prepare_s", sum_per_pass("simfun.prepare"));
        report.set("core.resolve_s", resolve_s);
        report.set(
            "core.pairs_per_s",
            first.pairs as f64 / resolve_s.max(f64::MIN_POSITIVE),
        );
        report.set(
            "entity.materialize_p50_us",
            median(&materialize).unwrap_or(0.0),
        );
        report.set(
            "entity.materialize_p99_us",
            tail(&materialize, 0.99).map_or(0.0, |q| q.value),
        );
        report.set(
            "corpus.generate_s",
            median(&generate_s).expect("set-ups ran"),
        );
        report.set_bypassed(&[
            "net.hop_p50_us",
            "net.hop_p99_us",
            "shard.hop_p50_us",
            "shard.hop_p99_us",
            "route.forward_us.p99",
            "net.shed_total",
            "net.keepalives",
            "stream.ingest_p50_us",
            "stream.checkpoints",
            "stream.checkpoint_s_max",
            "stream.checkpoint_s_sum",
            "stream.resolve_p50_us",
            "simfun.cache_hit_ratio",
            "simfun.cache_rebuilds",
            "stream.seed_ms_mean",
            "driver.lag_p99_ms",
        ]);
        report.set("trace.read_p50_ms", median(&all_reads).unwrap_or(0.0));
        report.set("trace.ingest_p50_ms", per_pass(&|p| p.done_p50_ms));
        report.spans = tracer.len();
        tracer
            .write(&out.with_extension("spans.ndjson"))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        // Each pass quotes its own p99; the median over passes is reported,
        // so one scheduler hiccup of the machine moves it by one rank.
        let read_tails: Vec<f64> = reads_ms
            .iter()
            .map(|r| tail(r, 0.99).map(|q| q.value))
            .collect::<Option<_>>()
            .ok_or("too few reads")?;
        report.set("ingest_p50_ms", per_pass(&|p| p.done_p50_ms));
        report.note("ingest_p99_ms", per_pass(&|p| p.done_p99_ms));
        report.note("read_p50_ms", median(&all_reads).unwrap_or(0.0));
        report.note(
            "read_p99_ms",
            median(&read_tails).expect("at least one pass"),
        );
        report.set(
            "max_rate_ops_s",
            all_reads.len() as f64 / (all_reads.iter().sum::<f64>() / 1e3),
        );
        // Per pass, so the figure does not depend on how many passes fit.
        let failed_fracs: Vec<f64> = passes
            .iter()
            .zip(&reads_ms)
            .map(|(p, r)| stats::failed_frac(p.failed, p.blocks + r.len()))
            .collect();
        report.set(
            "failed_frac",
            median(&failed_fracs).expect("at least one pass"),
        );
        report.set(
            "stream_fp",
            stats::pooled_fp(
                std::slice::from_ref(&first.clusters),
                std::slice::from_ref(&truth),
            ),
        );
        report.set("docs_per_s", per_pass(&|p| n as f64 / p.seconds));
        report.set(
            "entity_fp",
            stats::pooled_fp(
                std::slice::from_ref(&first.entities),
                std::slice::from_ref(&truth),
            ),
        );
        report.set(
            "block_pair_recall",
            first.blocks.pair_recall(&pipeline.corpus.truth_pairs()),
        );
        report.set("setup_s", median(&setups).expect("set-ups ran"));
        report.set("peak_rss_mb", crate::tier::own_peak_rss_mb());
    }
    report.attempted = attempted;
    report.failed = failed;
    std::fs::write(out, format!("{{\"client\":{}}}\n", report.summary()))
        .map_err(|e| format!("writing {}: {e}", out.display()))
}
