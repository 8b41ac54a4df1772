//! The same per-name sequences applied to an in-process `StreamResolver`:
//! the reference the served partitions must equal, and the in-process leg
//! of the traced run.

use std::time::{Duration, Instant};

use weber_extract::gazetteer::Gazetteer;
use weber_stream::{SeedDocument, StreamConfig, StreamResolver};

use crate::inputs::{conn_of, NameData, Op, Request, CONNECTIONS};
use crate::stats::{canonical, Outcome};
use crate::trace::Tracer;

/// The last stretch before a due time that [`drive`] spins instead of
/// sleeping.
const SPIN: Duration = Duration::from_micros(100);

/// One name's final state as read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameState {
    /// Documents in the name's block.
    pub docs: usize,
    /// Partition clusters, canonical order.
    pub clusters: Vec<Vec<usize>>,
    /// Entity mention sets, canonical order.
    pub entities: Vec<Vec<usize>>,
}

/// A resolver configured like `weber serve` with its default flags.
pub fn resolver() -> StreamResolver {
    StreamResolver::new(StreamConfig::default(), &Gazetteer::new())
        .expect("the default stream configuration is valid")
}

fn seed_docs(name: &NameData) -> Vec<SeedDocument> {
    (0..name.seed_len)
        .map(|i| SeedDocument {
            text: name.docs[i].text.clone(),
            url: name.docs[i].url.clone(),
            label: name.labels[i],
        })
        .collect()
}

/// Seed every name, timing each call as a `stream.seed` span.
pub fn seed_all(resolver: &StreamResolver, names: &[NameData], tracer: &mut Tracer) {
    for (n, name) in names.iter().enumerate() {
        tracer.time("stream.seed", None, n as u64, || {
            resolver
                .seed(&name.key, &seed_docs(name))
                .expect("seeding a corpus name succeeds")
        });
    }
}

/// Read one name's partition and entity table back.
pub fn read_back(resolver: &StreamResolver, name: &NameData) -> NameState {
    let clusters = resolver
        .partition(&name.key)
        .expect("seeded names have a partition")
        .clusters();
    let table = resolver
        .entities(&name.key)
        .expect("seeded names have entities");
    NameState {
        docs: clusters.iter().map(Vec::len).sum(),
        clusters: canonical(clusters),
        entities: canonical(table.entities.into_iter().map(|e| e.mentions).collect()),
    }
}

/// Seed each name and apply `ingests[n]` (document indices) in order, as
/// fast as the resolver goes, names pinned to threads like connections.
/// Returns each name's final state.
pub fn replay(names: &[NameData], ingests: &[Vec<usize>]) -> Vec<NameState> {
    let resolver = resolver();
    let mut tracer = Tracer::new(false, Instant::now());
    seed_all(&resolver, names, &mut tracer);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                let resolver = &resolver;
                s.spawn(move || {
                    for (n, name) in names.iter().enumerate().filter(|(n, _)| conn_of(*n) == k) {
                        for &d in &ingests[n] {
                            let doc = &name.docs[d];
                            resolver
                                .ingest(&name.key, &doc.text, doc.url.as_deref())
                                .expect("ingesting into a seeded name succeeds");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("replay worker panicked");
        }
    });
    names.iter().map(|n| read_back(&resolver, n)).collect()
}

/// Apply one op; returns the layer it exercised (`stream.checkpoint` for an
/// ingest that retrained the name) and whether it succeeded.
fn call(resolver: &StreamResolver, name: &NameData, op: Op) -> (&'static str, bool) {
    match op {
        Op::Ingest(d) => {
            let doc = &name.docs[d];
            match resolver.ingest(&name.key, &doc.text, doc.url.as_deref()) {
                Ok(a) if a.retrained => ("stream.checkpoint", true),
                Ok(_) => ("stream.ingest", true),
                Err(_) => ("stream.ingest", false),
            }
        }
        Op::Resolve => ("stream.resolve", resolver.resolve_name(&name.key).is_ok()),
        Op::Entities => ("entity.materialize", resolver.entities(&name.key).is_ok()),
    }
}

/// Execute one connection's requests against `resolver` at their due
/// times, recording an `inproc.request` span per request with the layer
/// call as its child: `stream.ingest` (or `stream.checkpoint` when the
/// arrival retrained the name), `stream.resolve`, `entity.materialize`.
pub fn drive(
    resolver: &StreamResolver,
    names: &[NameData],
    origin: Instant,
    requests: &[Request],
    tracer: &mut Tracer,
) -> Vec<Outcome> {
    let mut outcomes = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        // Sleep to just short of the due time and spin the rest: a sleep
        // alone overshoots by up to milliseconds here.
        let due = origin + Duration::from_micros(req.due_us);
        let early = due.saturating_duration_since(Instant::now());
        if early > SPIN {
            std::thread::sleep(early - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let start = Instant::now();
        let (layer, ok) = call(resolver, &names[req.name], req.op);
        let end = Instant::now();
        let root = tracer.record("inproc.request", start, end, None, i as u64);
        tracer.record(layer, start, end, root, i as u64);
        let at = |t: Instant| t.saturating_duration_since(origin).as_micros() as u64;
        outcomes.push(Outcome {
            due_us: req.due_us,
            sent_us: Some(at(start)),
            done_us: Some(at(end)),
            ok,
        });
    }
    outcomes
}

/// Stretches of a closed-loop read phase whose rates are taken separately.
const READ_STRETCHES: usize = 12;

/// What a closed-loop read phase measured.
#[derive(Debug, Clone, Copy)]
pub struct ReadCapacity {
    /// Reads completed within the phase.
    pub ops: usize,
    /// Of those, reads that returned an error.
    pub failed: usize,
    /// Reads per second: the median over [`READ_STRETCHES`] equal stretches
    /// of the phase, so a scheduler hiccup of the machine in one stretch
    /// moves it by one rank.
    pub rate: f64,
}

/// Read back to back on one thread, cycling through `cycle`, for
/// `seconds`: the read path's capacity. One thread leaves the machine's
/// other vCPU to its own work, which steadies the figure, and reads do
/// not contend with each other. Reads leave the partitions as they are.
pub fn saturate_reads(
    resolver: &StreamResolver,
    names: &[NameData],
    cycle: &[(usize, Op)],
    seconds: f64,
) -> ReadCapacity {
    let mut done = [0usize; READ_STRETCHES];
    let mut failed = 0;
    let start = Instant::now();
    for &(n, op) in cycle.iter().cycle() {
        let (_, ok) = call(resolver, &names[n], op);
        let at = start.elapsed().as_secs_f64() / seconds;
        if at >= 1.0 {
            break;
        }
        failed += usize::from(!ok);
        done[(at * READ_STRETCHES as f64) as usize] += 1;
    }
    let rates: Vec<f64> = done
        .iter()
        .map(|&d| d as f64 * READ_STRETCHES as f64 / seconds)
        .collect();
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("closed-loop read rates by stretch: [{}]", shown.join(", "));
    ReadCapacity {
        ops: done.iter().sum(),
        failed,
        rate: crate::stats::median(&rates).expect("stretches"),
    }
}

/// Apply `batch` back to back on one thread: a fixed amount of ingest work
/// at the ingest path's capacity (retrains still use every vCPU). Returns
/// the outcomes, each due when it started, and the seconds taken.
pub fn saturate_ingests(
    resolver: &StreamResolver,
    names: &[NameData],
    origin: Instant,
    batch: &[Request],
) -> (Vec<Outcome>, f64) {
    let at = |t: Instant| t.saturating_duration_since(origin).as_micros() as u64;
    let start = Instant::now();
    let outcomes = batch
        .iter()
        .map(|req| {
            let begun = at(Instant::now());
            let (_, ok) = call(resolver, &names[req.name], req.op);
            Outcome {
                due_us: begun,
                sent_us: Some(begun),
                done_us: Some(at(Instant::now())),
                ok,
            }
        })
        .collect();
    (outcomes, start.elapsed().as_secs_f64())
}
