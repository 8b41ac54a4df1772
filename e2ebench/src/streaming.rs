//! The streaming workloads: seeded names growing under open-loop load from
//! one process with one thread and one connection per `nproc`, applied to
//! an in-process `StreamResolver` (`stream-*`) or to a 3-backend, R=2
//! `weber route` tier (`route-*`).

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use serde_json::Value;
use weber_shard::snapshot_from_wire;
use weber_stream::StreamResolver;

use crate::client::{self, Load};
use crate::inproc::{self, NameState, ReadCapacity};
use crate::inputs::{self, Mix, NameData, Op, Request, Schedule};
use crate::stats::{self, canonical, covers_once, median, tail, Outcome, Rung};
use crate::tier::Front;
use crate::trace::Tracer;
use crate::{Check, Report};

/// p99 latency limit of a sustained rung, ms.
pub const LIMIT_MS: f64 = 50.0;
/// Generator lateness (p99, ms) beyond which a served run's latencies are
/// void. In process the "generator" is the caller itself, so its lateness
/// is queueing and is not checked.
pub const MAX_LAG_MS: f64 = 25.0;

/// One streaming workload's shape.
pub struct Workload {
    /// Names served.
    pub names: usize,
    /// Corpus documents per name (10% seed it, the rest can be ingested).
    pub docs_per_name: usize,
    /// Zipf exponent of name popularity (0 = uniform).
    pub zipf_s: f64,
    /// Op mix.
    pub mix: Mix,
    /// Schedule phases as (ops/s, seconds) for a run of the given length.
    pub phases: fn(f64) -> Vec<(f64, f64)>,
    /// Leading phases that warm up and are not measured.
    pub warmup: usize,
    /// A ladder of rates, each judged against the latency limit; the
    /// alternative is one fixed rate below capacity.
    pub ladder: bool,
    /// Unanswered requests on one connection that stop the ladder.
    pub inflight_cap: Option<usize>,
    /// Closed-loop capacity phases after the schedule (in process only).
    pub saturate: Option<Saturate>,
}

/// Two closed-loop phases that follow the open-loop schedule, on one
/// thread: reads back to back for a share of the run, then a fixed batch of
/// ingests back to back. They measure the read and ingest paths' capacity,
/// which an open-loop rate below capacity cannot show.
#[derive(Debug, Clone, Copy)]
pub struct Saturate {
    /// Length of the read phase, as a share of the run's seconds.
    pub read_share: f64,
    /// Documents the ingest phase brings every name to.
    pub ingest_to: usize,
}

/// Mild Zipf popularity over a few hundred small names, 80% reads: the
/// serving layers (reactor, router, replica reads, per-read entity
/// materialization) dominate, and a doubling ladder from 250 ops/s finds
/// the highest rate sustained within the latency limit.
pub const ROUTE_READ_MIX: Workload = Workload {
    names: 240,
    docs_per_name: 100,
    zipf_s: 0.3,
    mix: Mix {
        ingest: 20,
        resolve: 25,
    },
    phases: |s| {
        let measured = (s - 1.0).max(2.0);
        vec![
            (250.0, 1.0),
            (250.0, measured / 2.0),
            (500.0, measured / 8.0),
            (1000.0, measured / 8.0),
            (2000.0, measured / 8.0),
            (4000.0, measured / 8.0),
        ]
    },
    warmup: 1,
    ladder: true,
    inflight_cap: Some(32),
    saturate: None,
};

/// [`ROUTE_READ_MIX`]'s traffic applied in process at one rate,
/// 1000 ops/s, after a second of warm-up, for half the run. In process
/// that rate leaves the two threads mostly idle: it gives the latencies of
/// a loaded but unsaturated resolver. The closed-loop phases that follow
/// give its capacity: reads for a fifth of the run, then every name
/// brought to 56 documents (past its retrain at 40).
pub const STREAM_READ_MIX: Workload = Workload {
    phases: |s| vec![(1000.0, 1.0), (1000.0, ((s - 1.0) / 2.0).max(1.0))],
    ladder: false,
    saturate: Some(Saturate {
        read_share: 1.0 / 5.0,
        ingest_to: 56,
    }),
    ..ROUTE_READ_MIX
};

/// A few hot names growing from a 10% seed to ten times that at one fixed
/// rate below capacity, 10% `resolve`: per-request cost is set by the
/// stream, similarity and core layers (per-arrival scoring and refits,
/// checkpoint retrains at doubling block sizes).
pub const HOT_INGEST: Workload = Workload {
    names: 4,
    docs_per_name: 400,
    zipf_s: 0.0,
    mix: Mix {
        ingest: 90,
        resolve: 10,
    },
    phases: |s| vec![(100.0, s)],
    warmup: 0,
    ladder: false,
    inflight_cap: None,
    saturate: None,
};

/// Where a leg's requests go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    InProcess,
    Direct,
    Tier,
}

/// A seeded system under test.
enum Server {
    InProcess(Box<StreamResolver>),
    /// A front end and the keepalives its seeding needed.
    Net(Front, usize),
}

/// What one leg (one replay of the schedule against one target) produced.
struct Leg {
    /// Every request with its outcome, connections concatenated.
    outcomes: Vec<(Request, Outcome)>,
    refused: usize,
    protocol_errors: Vec<String>,
    /// Final per-name state as read back after `flush`.
    served: Vec<NameState>,
    /// The front's final `metrics` reply (router plus every backend).
    metrics: Option<Value>,
    peak_rss_mb: f64,
    /// Similarity-cache (hits, misses, rebuilds), in process only.
    cache: Option<(u64, u64, u64)>,
    /// `health` keepalives seeding and read-back needed (see
    /// [`client::exchange`]).
    keepalives: usize,
    /// The closed-loop read phase, if the leg ran one.
    reads: Option<ReadCapacity>,
    /// Documents per second of the closed-loop ingest phase, if run.
    ingest_rate: Option<f64>,
}

impl Leg {
    /// Requests sent with a fixed count per run: the schedule and the
    /// ingest batch, without the time-limited read phase.
    fn attempted_fixed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.sent_us.is_some())
            .count()
    }

    fn attempted(&self) -> usize {
        self.attempted_fixed() + self.reads.map_or(0, |r| r.ops)
    }

    fn failed(&self) -> usize {
        let failed = self.outcomes.iter().filter(|(_, o)| o.failed()).count();
        failed + self.reads.map_or(0, |r| r.failed)
    }
}

/// A leg's closed-loop phases, ready to run.
struct Closed {
    /// The reads to cycle through.
    cycle: Vec<(usize, Op)>,
    read_s: f64,
    /// The ingest batch.
    batch: Vec<Request>,
}

/// Start `target` and seed every name; returns it and the time taken.
fn start(
    target: Target,
    weber: &Path,
    names: &[NameData],
    tracer: &mut Tracer,
) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = match target {
        Target::InProcess => {
            let resolver = inproc::resolver();
            inproc::seed_all(&resolver, names, tracer);
            Server::InProcess(Box::new(resolver))
        }
        Target::Direct | Target::Tier => {
            let front = match target {
                Target::Tier => Front::tier(weber),
                _ => Front::direct(weber),
            }
            .map_err(|e| format!("starting {target:?}: {e}"))?;
            let seeds: Vec<(&str, String)> = names
                .iter()
                .map(|n| ("seed", inputs::seed_line(n)))
                .collect();
            let seeded = client::exchange(
                front.addr(),
                &seeds,
                client::WINDOW,
                Duration::from_secs(120),
            )
            .map_err(|e| format!("seeding {target:?}: {e}"))?;
            Server::Net(front, seeded.keepalives)
        }
    };
    Ok((server, t.elapsed().as_secs_f64()))
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Ingest(_) => "ingest",
        Op::Resolve => "resolve",
        Op::Entities => "entities",
    }
}

fn client_span(op: Op) -> &'static str {
    match op {
        Op::Ingest(_) => "client.ingest",
        Op::Resolve => "client.resolve",
        Op::Entities => "client.entities",
    }
}

/// Replay `schedule` against `server`, run the `closed` phases (in process
/// only), then read every name back.
fn run_leg(
    server: Server,
    names: &[NameData],
    schedule: &Schedule,
    inflight_cap: Option<usize>,
    closed: Option<&Closed>,
    tracer: &mut Tracer,
) -> Result<Leg, String> {
    // Both connections start together, a moment from now.
    let origin = Instant::now() + Duration::from_millis(50);
    let abort = AtomicBool::new(false);
    let traced = tracer.on();
    let drive = |k: usize| -> Result<(Load, Tracer), String> {
        let requests = &schedule.conns[k];
        let mut tracer = Tracer::new(traced, origin);
        let load = match &server {
            Server::InProcess(resolver) => Load {
                outcomes: inproc::drive(resolver, names, origin, requests, &mut tracer),
                ..Load::default()
            },
            Server::Net(front, _) => {
                let lines: Vec<(u64, &'static str, String)> = requests
                    .iter()
                    .map(|r| {
                        (
                            r.due_us,
                            op_name(r.op),
                            inputs::request_line(&names[r.name], r.op),
                        )
                    })
                    .collect();
                let load = client::drive(front.addr(), origin, &lines, inflight_cap, &abort)
                    .map_err(|e| format!("load connection {k}: {e}"))?;
                let at = |us: u64| origin + Duration::from_micros(us);
                for (i, o) in load.outcomes.iter().enumerate() {
                    if let (Some(sent), Some(done)) = (o.sent_us, o.done_us) {
                        tracer.record(
                            client_span(requests[i].op),
                            at(sent),
                            at(done),
                            None,
                            i as u64,
                        );
                    }
                }
                load
            }
        };
        Ok((load, tracer))
    };
    let results = std::thread::scope(|s| {
        let other = s.spawn(|| drive(1));
        let first = drive(0);
        [
            first,
            other
                .join()
                .unwrap_or_else(|_| Err("load thread panicked".into())),
        ]
    });
    let mut leg = Leg {
        outcomes: Vec::new(),
        refused: 0,
        protocol_errors: Vec::new(),
        served: Vec::new(),
        metrics: None,
        peak_rss_mb: 0.0,
        cache: None,
        keepalives: 0,
        reads: None,
        ingest_rate: None,
    };
    for (k, result) in results.into_iter().enumerate() {
        let (load, t) = result?;
        tracer.absorb(t);
        leg.refused += load.refused;
        leg.protocol_errors.extend(load.protocol_errors);
        leg.outcomes
            .extend(schedule.conns[k].iter().copied().zip(load.outcomes));
    }
    match server {
        Server::InProcess(resolver) => {
            if let Some(closed) = closed {
                leg.reads = Some(inproc::saturate_reads(
                    &resolver,
                    names,
                    &closed.cycle,
                    closed.read_s,
                ));
                let (outcomes, seconds) =
                    inproc::saturate_ingests(&resolver, names, origin, &closed.batch);
                eprintln!("closed-loop ingests: {} in {seconds:.3} s", outcomes.len());
                leg.ingest_rate = Some(outcomes.len() as f64 / seconds);
                leg.outcomes
                    .extend(closed.batch.iter().copied().zip(outcomes));
            }
            leg.served = names
                .iter()
                .map(|n| inproc::read_back(&resolver, n))
                .collect();
            let snap = resolver.metrics().merged_snapshot();
            let c = |name: &str| snap.counter(name).unwrap_or(0);
            leg.cache = Some((
                c("stream.cache.hits"),
                c("stream.cache.misses"),
                c("stream.cache.rebuilds"),
            ));
            leg.peak_rss_mb = crate::tier::own_peak_rss_mb();
        }
        Server::Net(front, seeding_keepalives) => {
            let (served, metrics, keepalives) = net_read_back(front.addr(), names)?;
            leg.served = served;
            leg.metrics = Some(metrics);
            leg.keepalives = seeding_keepalives + keepalives;
            leg.peak_rss_mb = front.peak_rss_mb();
        }
    }
    Ok(leg)
}

fn usize_list(v: &Value) -> Option<Vec<usize>> {
    v.as_array()?
        .iter()
        .map(|x| x.as_u64().map(|n| n as usize))
        .collect()
}

/// `flush`, then `resolve` and `entities` for every name, then `metrics`.
fn net_read_back(addr: &str, names: &[NameData]) -> Result<(Vec<NameState>, Value, usize), String> {
    let mut requests = vec![("flush", "{\"op\":\"flush\"}".to_string())];
    for n in names {
        requests.push(("resolve", inputs::request_line(n, Op::Resolve)));
        requests.push(("entities", inputs::request_line(n, Op::Entities)));
    }
    requests.push(("metrics", "{\"op\":\"metrics\"}".to_string()));
    let exchanged = client::exchange(addr, &requests, client::WINDOW, Duration::from_secs(120))
        .map_err(|e| format!("read-back: {e}"))?;
    let replies = exchanged.replies;
    let mut served = Vec::with_capacity(names.len());
    for (n, pair) in replies[1..replies.len() - 1].chunks(2).enumerate() {
        let bad = |what: &str| format!("read-back of {}: malformed {what}", names[n].key);
        let lists = |v: Option<&Value>, key: Option<&str>| -> Option<Vec<Vec<usize>>> {
            v?.as_array()?
                .iter()
                .map(|x| usize_list(key.map_or(Some(x), |k| x.get(k))?))
                .collect()
        };
        let clusters = lists(pair[0].get("members"), None).ok_or_else(|| bad("resolve"))?;
        let groups =
            lists(pair[1].get("entities"), Some("mentions")).ok_or_else(|| bad("entities"))?;
        served.push(NameState {
            docs: pair[0]
                .get("docs")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("docs"))? as usize,
            clusters: canonical(clusters),
            entities: canonical(groups),
        });
    }
    let metrics = replies.last().expect("metrics was requested").clone();
    Ok((served, metrics, exchanged.keepalives))
}

/// Per name, the ingests acknowledged, in the order sent; `None` for a
/// name with an ingest that failed (its final state is then not comparable
/// to a replay).
fn acked_ingests(leg: &Leg, names: usize) -> Vec<Option<Vec<usize>>> {
    let mut out: Vec<Option<Vec<usize>>> = vec![Some(Vec::new()); names];
    for (req, o) in &leg.outcomes {
        if let (Op::Ingest(d), Some(_)) = (req.op, o.sent_us) {
            match (&mut out[req.name], o.ok) {
                (Some(list), true) => list.push(d),
                (slot, false) => *slot = None,
                (None, true) => {}
            }
        }
    }
    out
}

/// Check a leg's read-back: no protocol errors, every document in exactly
/// one cluster and one entity, and (where comparable) state equal to
/// `reference`.
fn verify(leg: &Leg, names: &[NameData], reference: &[NameState], what: &str, check: &mut Check) {
    check.require(leg.protocol_errors.is_empty(), || {
        format!(
            "{what}: protocol errors: {:?}",
            &leg.protocol_errors[..leg.protocol_errors.len().min(3)]
        )
    });
    let acked = acked_ingests(leg, names.len());
    for (n, served) in leg.served.iter().enumerate() {
        check.require(
            covers_once(&served.clusters, served.docs)
                && covers_once(&served.entities, served.docs),
            || {
                format!(
                    "{what}: {} has a document outside exactly one cluster/entity",
                    names[n].key
                )
            },
        );
        if acked[n].is_some() {
            check.require(served == &reference[n], || {
                format!(
                    "{what}: {} differs from the in-process replay",
                    names[n].key
                )
            });
        }
    }
    let compared = acked.iter().filter(|a| a.is_some()).count();
    eprintln!(
        "{what}: {compared}/{} names equal to the in-process replay",
        names.len()
    );
}

/// Latencies (ms) of requests in `phases` whose op matches `pick`.
fn latencies_ms(leg: &Leg, phases: Range<usize>, pick: impl Fn(Op) -> bool) -> Vec<f64> {
    leg.outcomes
        .iter()
        .filter(|(r, _)| phases.contains(&r.phase) && pick(r.op))
        .filter_map(|(_, o)| o.latency_us())
        .map(|us| us as f64 / 1e3)
        .collect()
}

fn is_read(op: Op) -> bool {
    !is_ingest(op)
}

fn is_ingest(op: Op) -> bool {
    matches!(op, Op::Ingest(_))
}

fn any(_: Op) -> bool {
    true
}

/// Equal parts of a phase whose tails are taken separately.
const SEGMENTS: u64 = 4;

/// The p50 and the tail latency of the requests in `phase` whose op
/// matches `pick`: the median over [`SEGMENTS`] equal stretches of the
/// phase of each stretch's median, and of each stretch's p99 as quoted by
/// the percentile rule. A scheduler hiccup of the machine that lands in
/// one stretch then moves a figure by one rank of four instead of setting
/// it.
fn p50_p99(
    label: &str,
    leg: &Leg,
    phase: usize,
    span: (u64, u64),
    pick: impl Fn(Op) -> bool,
) -> Result<(f64, f64), String> {
    let (start, end) = span;
    let mut parts = vec![Vec::new(); SEGMENTS as usize];
    for (r, o) in &leg.outcomes {
        if let (true, Some(us)) = (r.phase == phase && pick(r.op), o.latency_us()) {
            let part = (r.due_us.saturating_sub(start) * SEGMENTS / (end - start).max(1))
                .min(SEGMENTS - 1);
            parts[part as usize].push(us as f64 / 1e3);
        }
    }
    let p50s = parts
        .iter()
        .map(|part| median(part).ok_or_else(|| format!("no {label} samples")))
        .collect::<Result<Vec<_>, _>>()?;
    let p50 = median(&p50s).expect("segments");
    let tails = parts
        .iter()
        .map(|part| {
            tail(part, 0.99).ok_or_else(|| format!("too few {label} samples: {}", part.len()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let p99 = median(&tails.iter().map(|q| q.value).collect::<Vec<_>>()).expect("segments");
    let quoted: Vec<String> = tails
        .iter()
        .map(|q| format!("p{:.2} {:.3} ms of {}", q.q * 100.0, q.value, q.n))
        .collect();
    eprintln!(
        "{label}: p50 {p50:.3} ms; tail {p99:.3} ms from [{}]",
        quoted.join(", ")
    );
    Ok((p50, p99))
}

fn lag_p99_ms(leg: &Leg, phases: Range<usize>) -> f64 {
    let lags: Vec<f64> = leg
        .outcomes
        .iter()
        .filter(|(r, _)| phases.contains(&r.phase))
        .filter_map(|(_, o)| o.lag_us())
        .map(|us| us as f64 / 1e3)
        .collect();
    tail(&lags, 0.99).map_or(0.0, |q| q.value)
}

/// The first measured phase.
fn first_phase(w: &Workload) -> Range<usize> {
    w.warmup..w.warmup + 1
}

/// Every measured phase.
fn measured(w: &Workload) -> Range<usize> {
    w.warmup..usize::MAX
}

/// Run `w` untraced against the tier (`served`) or in process: set-up
/// three times (median reported), the load, read-back, and a check against
/// an independent in-process replay. Reports the end-to-end metrics.
pub fn run(
    w: &Workload,
    served: bool,
    weber: &Path,
    seed: u64,
    seconds: f64,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let target = if served {
        Target::Tier
    } else {
        Target::InProcess
    };
    let mut setups = Vec::new();
    let mut kept = None;
    let mut untraced = Tracer::new(false, Instant::now());
    for _ in 0..3 {
        let t = Instant::now();
        let names = inputs::corpus(w.names, w.docs_per_name);
        let generated = t.elapsed().as_secs_f64();
        drop(kept.take());
        let (server, started) = start(target, weber, &names, &mut untraced)?;
        setups.push(generated + started);
        kept = Some((names, server));
    }
    let (names, server) = kept.expect("three set-ups ran");
    let schedule = inputs::schedule(seed, &names, &(w.phases)(seconds), w.zipf_s, w.mix);
    let closed = w.saturate.filter(|_| !served).map(|sat| Closed {
        cycle: inputs::read_cycle(names.len(), w.mix),
        read_s: seconds * sat.read_share,
        batch: inputs::ingest_batch(&names, &schedule, sat.ingest_to, schedule.phases.len()),
    });
    let leg = run_leg(
        server,
        &names,
        &schedule,
        w.inflight_cap,
        closed.as_ref(),
        &mut untraced,
    )?;

    let ingests: Vec<Vec<usize>> = acked_ingests(&leg, names.len())
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    let reference = inproc::replay(&names, &ingests);
    verify(
        &leg,
        &names,
        &reference,
        &format!("{target:?}"),
        &mut report.check,
    );

    let first = first_phase(w);
    let span = {
        let p = &schedule.phases[w.warmup];
        (p.start_us, p.end_us)
    };
    let (ingest_p50, ingest_p99) = p50_p99("ingest", &leg, w.warmup, span, is_ingest)?;
    let (read_p50, read_p99) = p50_p99("read", &leg, w.warmup, span, is_read)?;
    let rungs: Vec<Rung> = schedule.phases[w.warmup..]
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let due: Vec<Outcome> = leg
                .outcomes
                .iter()
                .filter(|(r, _)| r.phase == w.warmup + i)
                .map(|(_, o)| *o)
                .collect();
            Rung::judge(p.rate, &due, p.end_us, LIMIT_MS)
        })
        .collect();
    for r in &rungs {
        eprintln!(
            "{:>6.0} ops/s: sent {}/{}, failed {}, answered in window {}, p{:.1} {:.2} ms, {}",
            r.rate,
            r.sent,
            r.due,
            r.failed,
            r.answered_in_window,
            r.p99_ms.map_or(0.0, |p| p.q * 100.0),
            r.p99_ms.map_or(f64::NAN, |p| p.value),
            if r.sustained(LIMIT_MS) {
                "sustained"
            } else {
                "not sustained"
            }
        );
    }
    let max_rate = if w.ladder {
        stats::max_sustained_rate(&rungs, LIMIT_MS).unwrap_or(0.0)
    } else if let Some(reads) = leg.reads {
        eprintln!(
            "closed-loop reads: {} in {:.1} s, {} failed, {:.0} reads/s",
            reads.ops,
            closed.as_ref().map_or(0.0, |c| c.read_s),
            reads.failed,
            reads.rate
        );
        reads.rate
    } else {
        // One fixed rate without a capacity phase: the rate replies
        // actually came back at, which reads the offered rate until the
        // program falls behind.
        let ok = leg.outcomes.iter().filter(|(_, o)| o.ok).count();
        let last = leg
            .outcomes
            .iter()
            .filter_map(|(_, o)| o.done_us)
            .max()
            .unwrap_or(1);
        ok as f64 / (last as f64 / 1e6)
    };
    let lag = lag_p99_ms(&leg, first.clone());
    if served {
        report.check.require(lag <= MAX_LAG_MS, || {
            format!("generator ran {lag:.1} ms late at p99 (limit {MAX_LAG_MS} ms): latencies void")
        });
    }
    let phase = &schedule.phases[w.warmup];
    let docs_in_phase = leg
        .outcomes
        .iter()
        .filter(|(r, o)| first.contains(&r.phase) && is_ingest(r.op) && o.ok)
        .count();

    let truth: Vec<Vec<u32>> = names
        .iter()
        .zip(&leg.served)
        .map(|(n, s)| n.labels[..s.docs].to_vec())
        .collect();
    let clusters: Vec<Vec<Vec<usize>>> = leg.served.iter().map(|s| s.clusters.clone()).collect();
    let entities: Vec<Vec<Vec<usize>>> = leg.served.iter().map(|s| s.entities.clone()).collect();
    report.attempted = leg.attempted();
    report.failed = leg.failed();
    report.set("ingest_p50_ms", ingest_p50);
    report.note("ingest_p99_ms", ingest_p99);
    report.note("read_p50_ms", read_p50);
    report.note("read_p99_ms", read_p99);
    report.set("max_rate_ops_s", max_rate);
    // Over the requests whose number is fixed: the time-limited read phase
    // would otherwise make a slower read path look less failure-prone.
    report.set(
        "failed_frac",
        stats::failed_frac(report.failed, leg.attempted_fixed()),
    );
    report.set("stream_fp", stats::pooled_fp(&clusters, &truth));
    let docs_per_s = match leg.ingest_rate {
        Some(rate) => rate,
        None => docs_in_phase as f64 / ((phase.end_us - phase.start_us) as f64 / 1e6),
    };
    report.set("docs_per_s", docs_per_s);
    report.set("entity_fp", stats::pooled_fp(&entities, &truth));
    // Names are the blocks here: every true pair already shares a block.
    report.set("block_pair_recall", 1.0);
    report.set("setup_s", median(&setups).expect("three set-ups"));
    report.set("peak_rss_mb", leg.peak_rss_mb);
    eprintln!(
        "attempted {}, failed {} (refused {}), lag p99 {lag:.2} ms, {} keepalives",
        report.attempted, report.failed, leg.refused, leg.keepalives
    );
    write_record(out, &report.summary(), &[(target, &leg)])
}

/// Run `w` traced: the measured part of the schedule replayed in process,
/// against one `weber serve` and against the tier, with a span around every
/// call. Reports the per-layer metrics; `served` says which leg is the
/// workload's own.
pub fn run_traced(
    w: &Workload,
    served: bool,
    weber: &Path,
    seed: u64,
    seconds: f64,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut generate_s = Vec::new();
    let mut names = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        names = inputs::corpus(w.names, w.docs_per_name);
        generate_s.push(t.elapsed().as_secs_f64());
    }
    let full = inputs::schedule(seed, &names, &(w.phases)(seconds), w.zipf_s, w.mix);
    // Three legs share the run's length, and a ladder's upper rungs would
    // run each target to its own capacity and not replay identically: the
    // legs replay the first measured rate, up to a third of the run.
    let first = &full.phases[w.warmup];
    let schedule = full.until(
        first
            .end_us
            .min(first.start_us + (seconds * 1e6 / 3.0) as u64),
    );
    let origin = Instant::now();
    let mut legs = Vec::new();
    let mut tracers = Vec::new();
    for target in [Target::InProcess, Target::Direct, Target::Tier] {
        let mut tracer = Tracer::new(true, origin);
        let (server, _) = start(target, weber, &names, &mut tracer)?;
        legs.push((
            target,
            run_leg(server, &names, &schedule, None, None, &mut tracer)?,
        ));
        tracers.push(tracer);
    }
    for (target, leg) in &legs[1..] {
        verify(
            leg,
            &names,
            &legs[0].1.served,
            &format!("{target:?}"),
            &mut report.check,
        );
    }
    let percentiles = |leg: &Leg| -> Result<(f64, f64), String> {
        let all = latencies_ms(leg, measured(w), any);
        Ok((
            median(&all).ok_or("no samples")?,
            tail(&all, 0.99).ok_or("too few samples")?.value,
        ))
    };
    let (inproc, direct, tier) = (
        percentiles(&legs[0].1)?,
        percentiles(&legs[1].1)?,
        percentiles(&legs[2].1)?,
    );
    report.set("net.hop_p50_us", (direct.0 - inproc.0) * 1e3);
    report.set("net.hop_p99_us", (direct.1 - inproc.1) * 1e3);
    report.set("shard.hop_p50_us", (tier.0 - direct.0) * 1e3);
    report.set("shard.hop_p99_us", (tier.1 - direct.1) * 1e3);

    let tier_leg = &legs[2].1;
    let snapshot = snapshot_from_wire(
        tier_leg
            .metrics
            .as_ref()
            .expect("network legs read metrics"),
    );
    report.set(
        "route.forward_us.p99",
        snapshot
            .histogram("route.forward_us")
            .map_or(0.0, |h| h.quantile(0.99)),
    );
    report.set(
        "net.shed_total",
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with("net.shed_total"))
            .map(|(_, v)| *v as f64)
            .sum(),
    );
    report.set("net.keepalives", tier_leg.keepalives as f64);
    let spans = &tracers[0];
    let ingest_us = spans.durations_us("stream.ingest");
    let checkpoints = spans.durations_us("stream.checkpoint");
    let materialize = spans.durations_us("entity.materialize");
    let seeds = spans.durations_us("stream.seed");
    report.set("stream.ingest_p50_us", median(&ingest_us).unwrap_or(0.0));
    report.set("stream.checkpoints", checkpoints.len() as f64);
    report.set(
        "stream.checkpoint_s_max",
        checkpoints.iter().copied().fold(0.0, f64::max) / 1e6,
    );
    report.set(
        "stream.checkpoint_s_sum",
        checkpoints.iter().sum::<f64>() / 1e6,
    );
    report.set(
        "stream.resolve_p50_us",
        median(&spans.durations_us("stream.resolve")).unwrap_or(0.0),
    );
    report.set(
        "entity.materialize_p50_us",
        median(&materialize).unwrap_or(0.0),
    );
    report.set(
        "entity.materialize_p99_us",
        tail(&materialize, 0.99).map_or(0.0, |q| q.value),
    );
    let (hits, misses, rebuilds) = legs[0].1.cache.expect("the in-process leg reads its cache");
    report.set(
        "simfun.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("simfun.cache_rebuilds", rebuilds as f64);
    report.set_bypassed(&[
        "simfun.prepare_s",
        "extract.us_per_doc",
        "core.resolve_s",
        "core.pairs_per_s",
        "block.wall_s",
        "block.candidate_pairs",
        "block.comparison_frac",
        "block.blocks",
        "block.largest_block_docs",
    ]);
    report.set(
        "corpus.generate_s",
        median(&generate_s).expect("three generations"),
    );
    report.set(
        "stream.seed_ms_mean",
        seeds.iter().sum::<f64>() / seeds.len().max(1) as f64 / 1e3,
    );
    report.set("driver.lag_p99_ms", lag_p99_ms(tier_leg, measured(w)));
    let first = first_phase(w);
    // The leg that runs what the untraced workload runs: the difference
    // to the untraced p50s is the tracing overhead.
    let own = &legs[if served { 2 } else { 0 }].1;
    report.set(
        "trace.read_p50_ms",
        median(&latencies_ms(own, first.clone(), is_read)).unwrap_or(0.0),
    );
    report.set(
        "trace.ingest_p50_ms",
        median(&latencies_ms(own, first, is_ingest)).unwrap_or(0.0),
    );
    report.attempted = legs.iter().map(|(_, l)| l.attempted()).sum();
    report.failed = legs.iter().map(|(_, l)| l.failed()).sum();

    let mut all = Tracer::new(true, origin);
    for t in tracers {
        all.absorb(t);
    }
    report.spans = all.len();
    all.write(&out.with_extension("spans.ndjson"))
        .map_err(|e| format!("writing spans: {e}"))?;
    let named: Vec<(Target, &Leg)> = legs.iter().map(|(t, l)| (*t, l)).collect();
    write_record(out, &report.summary(), &named)
}

/// Save the client numbers next to every front end's final `metrics` reply
/// (the router's carries each backend's registry under `shard<i>.`).
fn write_record(out: &Path, summary: &str, legs: &[(Target, &Leg)]) -> Result<(), String> {
    let mut servers = Vec::new();
    for (target, leg) in legs {
        if let Some(m) = &leg.metrics {
            let text = serde_json::to_string(m).map_err(|e| e.to_string())?;
            servers.push(format!("\"{target:?}\":{text}"));
        }
    }
    let text = format!(
        "{{\"client\":{summary},\"server_metrics\":{{{}}}}}\n",
        servers.join(",")
    );
    std::fs::write(out, text).map_err(|e| format!("writing {}: {e}", out.display()))
}
