//! The repository's benchmark. See `e2ebench/README.md` for the
//! workloads, what each metric means, and how to run it.
//!
//! ```text
//! e2ebench --weber PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is the result: `{"correct", "attempted", "failed",
//! "metrics"}` with every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`), each by name with its unit.

mod client;
mod dirty;
mod inproc;
mod inputs;
mod stats;
mod streaming;
mod tier;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ingest_p50_ms", "ms"),
    ("max_rate_ops_s", "ops/s"),
    ("failed_frac", "ratio"),
    ("stream_fp", "ratio"),
    ("docs_per_s", "docs/s"),
    ("entity_fp", "ratio"),
    ("block_pair_recall", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.hop_p50_us", "us"),
    ("net.hop_p99_us", "us"),
    ("shard.hop_p50_us", "us"),
    ("shard.hop_p99_us", "us"),
    ("route.forward_us.p99", "us"),
    ("net.shed_total", "count"),
    ("net.keepalives", "count"),
    ("stream.ingest_p50_us", "us"),
    ("stream.checkpoints", "count"),
    ("stream.checkpoint_s_max", "s"),
    ("stream.checkpoint_s_sum", "s"),
    ("stream.resolve_p50_us", "us"),
    ("entity.materialize_p50_us", "us"),
    ("entity.materialize_p99_us", "us"),
    ("simfun.cache_hit_ratio", "ratio"),
    ("simfun.cache_rebuilds", "count"),
    ("simfun.prepare_s", "s"),
    ("extract.us_per_doc", "us"),
    ("core.resolve_s", "s"),
    ("core.pairs_per_s", "pairs/s"),
    ("block.wall_s", "s"),
    ("block.candidate_pairs", "count"),
    ("block.comparison_frac", "ratio"),
    ("block.blocks", "count"),
    ("block.largest_block_docs", "count"),
    ("corpus.generate_s", "s"),
    ("stream.seed_ms_mean", "ms"),
    ("driver.lag_p99_ms", "ms"),
    ("trace.read_p50_ms", "ms"),
    ("trace.ingest_p50_ms", "ms"),
];

/// Correctness checks of one run; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Check {
    failures: Vec<String>,
}

impl Check {
    /// Record a failure (described by `why`) unless `ok`.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            let why = why();
            eprintln!("check failed: {why}");
            self.failures.push(why);
        }
    }
}

/// The result of one run.
pub struct Report {
    /// Correctness checks.
    pub check: Check,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Spans recorded (traced runs).
    pub spans: usize,
    expected: &'static [(&'static str, &'static str)],
    values: HashMap<&'static str, f64>,
    /// Figures measured and recorded but not part of the result line.
    notes: HashMap<&'static str, f64>,
}

impl Report {
    fn new(expected: &'static [(&'static str, &'static str)]) -> Self {
        Report {
            check: Check::default(),
            attempted: 0,
            failed: 0,
            spans: 0,
            expected,
            values: HashMap::new(),
            notes: HashMap::new(),
        }
    }

    /// Set a metric; each is set once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.expected.iter().any(|(n, _)| *n == name),
            "{name} is not a metric of this run"
        );
        assert!(
            self.values.insert(name, value).is_none(),
            "{name} set twice"
        );
    }

    /// Record a figure that is not a metric of `BENCHMARK.json`: it goes to
    /// the run record and stderr only.
    pub fn note(&mut self, name: &'static str, value: f64) {
        eprintln!("{name} = {value}");
        self.notes.insert(name, value);
    }

    /// Set to 0 the metrics of layers this workload does not pass through.
    pub fn set_bypassed(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// The result line. Errors unless every metric of the run is set to a
    /// finite number.
    pub fn line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in self.expected {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.check.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }

    /// The metrics set so far, as a JSON object (for the run record).
    pub fn summary(&self) -> String {
        let mut names: Vec<_> = self.values.iter().chain(&self.notes).collect();
        names.sort_by(|a, b| a.0.cmp(b.0));
        let fields: Vec<String> = names
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"spans\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            self.spans,
            fields.join(",")
        )
    }
}

struct Args {
    weber: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        weber: PathBuf::from(get("weber")?),
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn run(args: &Args) -> Result<String, String> {
    let mut report = Report::new(if args.trace { PER_LAYER } else { END_TO_END });
    let dir = Path::new("e2ebench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let out = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    // (shape, served by the tier rather than in process)
    let streaming = match args.workload.as_str() {
        "route-read-mix" => Some((&streaming::ROUTE_READ_MIX, true)),
        "route-hot-ingest" => Some((&streaming::HOT_INGEST, true)),
        "stream-read-mix" => Some((&streaming::STREAM_READ_MIX, false)),
        "dirty-to-entities" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    let (weber, seed, seconds) = (&args.weber, args.seed, args.seconds);
    match (streaming, args.trace) {
        (Some((w, served)), false) => {
            streaming::run(w, served, weber, seed, seconds, &out, &mut report)?
        }
        (Some((w, served)), true) => {
            streaming::run_traced(w, served, weber, seed, seconds, &out, &mut report)?
        }
        (None, traced) => dirty::run(seed, seconds, traced, &out, &mut report)?,
    }
    report.line()
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run prints exactly the metrics `BENCHMARK.json` declares,
    /// with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let spec = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = spec
                .get(key)
                .and_then(serde_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(serde_json::Value::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut report = Report::new(&[("a_ms", "ms"), ("b", "count")]);
        report.set("a_ms", 1.5);
        assert!(report.line().is_err());
        report.set("b", 3.0);
        report.attempted = 10;
        assert_eq!(
            report.line().unwrap(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"a_ms":{"value":1.5,"unit":"ms"},"b":{"value":3,"unit":"count"}}}"#
        );
        report.check.require(false, || "broken".into());
        assert!(report.line().unwrap().starts_with(r#"{"correct":false"#));
    }
}
