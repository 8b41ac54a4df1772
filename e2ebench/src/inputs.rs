//! Inputs of the streaming workloads: per-name corpus documents with truth
//! labels, and the open-loop arrival schedule. The programs under test only
//! ever see the documents, as calls or wire requests.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use serde_json::Value;
use weber_corpus::{generate, presets, GeneratedDocument};

/// Client connections (and load-generator threads): `nproc` of the
/// reference machine. Every name is pinned to one of them.
pub const CONNECTIONS: usize = 2;

/// One served name: its wire key, documents in arrival order, and truth.
#[derive(Debug, Clone)]
pub struct NameData {
    /// The name as sent on the wire (the corpus surname plus an index, so
    /// names stay distinct past the surname list).
    pub key: String,
    /// Every corpus document of the name; the first `seed_len` seed it.
    pub docs: Vec<GeneratedDocument>,
    /// Truth entity label of each document.
    pub labels: Vec<u32>,
    /// Documents in the labelled seed batch: the first 10%, the paper's
    /// training fraction.
    pub seed_len: usize,
}

/// Seed of every corpus the benchmark generates, and of what each arrival
/// carries. The work is the same in every run, so blocks, selected models
/// and retrain costs are too; the run seed only draws when it arrives.
pub const CORPUS_SEED: u64 = 20100301;

/// `names` names of `docs_per_name` documents from the `www05_like`
/// generator.
pub fn corpus(names: usize, docs_per_name: usize) -> Vec<NameData> {
    let mut config = presets::www05_like(CORPUS_SEED);
    config.names = names;
    config.docs_per_name = docs_per_name;
    generate(&config)
        .blocks
        .into_iter()
        .enumerate()
        .map(|(i, block)| NameData {
            key: format!("{}-{i}", block.query_name),
            seed_len: block.documents.len().div_ceil(10).max(2),
            docs: block.documents,
            labels: block.truth_labels,
        })
        .collect()
}

/// What one scheduled request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ingest the name's document with this index.
    Ingest(usize),
    /// `resolve` the name.
    Resolve,
    /// Read the name's `entities`.
    Entities,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Due time, µs from the start of the load.
    pub due_us: u64,
    /// Index into the name list.
    pub name: usize,
    /// The op.
    pub op: Op,
    /// Index of the fixed-rate phase it belongs to.
    pub phase: usize,
}

/// One fixed-rate phase of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Offered rate, ops/s.
    pub rate: f64,
    /// Start, µs.
    pub start_us: u64,
    /// End, µs.
    pub end_us: u64,
}

/// An arrival schedule split per connection, in due order.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Phases back to back.
    pub phases: Vec<Phase>,
    /// Requests per connection.
    pub conns: Vec<Vec<Request>>,
}

/// The op mix of a schedule, in percent of arrivals.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Ingests of the name's next unsent document.
    pub ingest: u32,
    /// `resolve` reads; the rest are `entities` reads.
    pub resolve: u32,
}

/// Connection a name is pinned to.
pub fn conn_of(name: usize) -> usize {
    name % CONNECTIONS
}

/// Open-loop arrivals over `phases` (rate, seconds). A phase holds
/// `rate × seconds` arrivals at independent uniform times drawn from the
/// run `seed`: a Poisson process (independent users) given its count. What
/// each arrival carries comes from [`CORPUS_SEED`] and so is the same in
/// every run: the name from Zipf(`zipf_s`) popularity (0 = uniform) over a
/// fixed popularity order, the op from `mix`, which every 100 arrivals
/// meet exactly. An ingest of a name whose documents are all sent becomes
/// a `resolve`.
pub fn schedule(
    seed: u64,
    names: &[NameData],
    phases: &[(f64, f64)],
    zipf_s: f64,
    mix: Mix,
) -> Schedule {
    let mut times = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
    let mut content = StdRng::seed_from_u64(CORPUS_SEED);
    let mut order: Vec<usize> = (0..names.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, content.random_range(0..=i));
    }
    let mut cumulative: Vec<f64> = (1..=names.len())
        .scan(0.0, |acc, rank| {
            *acc += (rank as f64).powf(-zipf_s);
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().expect("at least one name");
    cumulative.iter_mut().for_each(|c| *c /= total);

    let mut next_doc: Vec<usize> = names.iter().map(|n| n.seed_len).collect();
    let mut conns = vec![Vec::new(); CONNECTIONS];
    let mut out_phases = Vec::new();
    let (mut start, mut arrival) = (0.0f64, 0usize);
    for (p, &(rate, seconds)) in phases.iter().enumerate() {
        let mut due: Vec<f64> = (0..(rate * seconds).round() as usize)
            .map(|_| start + times.next_f64() * seconds)
            .collect();
        due.sort_by(f64::total_cmp);
        for t in due {
            let u = content.next_f64();
            let name = order[cumulative.partition_point(|&c| c < u).min(names.len() - 1)];
            // 61 is prime to 100: every 100 arrivals take each roll once.
            let roll = (arrival * 61 % 100) as u32;
            arrival += 1;
            let op = if roll < mix.ingest && next_doc[name] < names[name].docs.len() {
                next_doc[name] += 1;
                Op::Ingest(next_doc[name] - 1)
            } else if roll < mix.ingest + mix.resolve {
                Op::Resolve
            } else {
                Op::Entities
            };
            conns[conn_of(name)].push(Request {
                due_us: (t * 1e6) as u64,
                name,
                op,
                phase: p,
            });
        }
        out_phases.push(Phase {
            rate,
            start_us: (start * 1e6) as u64,
            end_us: ((start + seconds) * 1e6) as u64,
        });
        start += seconds;
    }
    Schedule {
        phases: out_phases,
        conns,
    }
}

/// The reads of a closed-loop read phase, which its driver cycles through
/// until its deadline: rounds over every name in turn, each read a
/// `resolve` or an `entities` in `mix`'s proportion of reads.
pub fn read_cycle(names: usize, mix: Mix) -> Vec<(usize, Op)> {
    let reads = (100 - mix.ingest) as usize;
    // `reads` rounds, in which every name takes each roll once; 61 is prime
    // to `reads` (80), so consecutive reads take different rolls.
    (0..names * reads)
        .map(|i| {
            let (round, name) = (i / names, i % names);
            let op = if (((name + round) * 61 % reads) as u32) < mix.resolve {
                Op::Resolve
            } else {
                Op::Entities
            };
            (name, op)
        })
        .collect()
}

/// The ingests that bring every name to `to` documents after `schedule`
/// has run: the names in turn, each its next unsent document, until all of
/// them are there. They are tagged `phase`; their due times are left 0 for
/// a closed-loop driver to fill in.
pub fn ingest_batch(
    names: &[NameData],
    schedule: &Schedule,
    to: usize,
    phase: usize,
) -> Vec<Request> {
    let mut next: Vec<usize> = names.iter().map(|n| n.seed_len).collect();
    for r in schedule.conns.iter().flatten() {
        if let Op::Ingest(d) = r.op {
            next[r.name] = next[r.name].max(d + 1);
        }
    }
    let mut batch = Vec::new();
    loop {
        let before = batch.len();
        for (n, name) in names.iter().enumerate() {
            if next[n] < to.min(name.docs.len()) {
                batch.push(Request {
                    due_us: 0,
                    name: n,
                    op: Op::Ingest(next[n]),
                    phase,
                });
                next[n] += 1;
            }
        }
        if batch.len() == before {
            return batch;
        }
    }
}

impl Schedule {
    /// The schedule cut at `end_us`: later phases dropped, the one it
    /// falls in shortened.
    pub fn until(&self, end_us: u64) -> Schedule {
        Schedule {
            phases: self
                .phases
                .iter()
                .filter(|p| p.start_us < end_us)
                .map(|p| Phase {
                    end_us: p.end_us.min(end_us),
                    ..*p
                })
                .collect(),
            conns: self
                .conns
                .iter()
                .map(|c| c.iter().copied().filter(|r| r.due_us < end_us).collect())
                .collect(),
        }
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&Value::String(s.to_string())).expect("strings serialize")
}

fn doc_fields(doc: &GeneratedDocument) -> String {
    match &doc.url {
        Some(url) => format!("\"text\":{},\"url\":{}", json_str(&doc.text), json_str(url)),
        None => format!("\"text\":{}", json_str(&doc.text)),
    }
}

/// The `seed` request of a name.
pub fn seed_line(name: &NameData) -> String {
    let docs: Vec<String> = (0..name.seed_len)
        .map(|i| {
            format!(
                "{{{},\"label\":{}}}",
                doc_fields(&name.docs[i]),
                name.labels[i]
            )
        })
        .collect();
    format!(
        "{{\"op\":\"seed\",\"name\":{},\"docs\":[{}]}}",
        json_str(&name.key),
        docs.join(",")
    )
}

/// The wire request of a scheduled op.
pub fn request_line(name: &NameData, op: Op) -> String {
    let key = json_str(&name.key);
    match op {
        Op::Ingest(d) => format!(
            "{{\"op\":\"ingest\",\"name\":{key},{}}}",
            doc_fields(&name.docs[d])
        ),
        Op::Resolve => format!("{{\"op\":\"resolve\",\"name\":{key}}}"),
        Op::Entities => format!("{{\"op\":\"entities\",\"name\":{key}}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_move_only_the_times_between_seeds() {
        let names = corpus(12, 30);
        let mix = Mix {
            ingest: 20,
            resolve: 40,
        };
        let phases = [(250.0, 1.0), (500.0, 1.0)];
        let a = schedule(3, &names, &phases, 0.6, mix);
        let b = schedule(3, &names, &phases, 0.6, mix);
        let c = schedule(4, &names, &phases, 0.6, mix);
        assert_eq!(a.conns, b.conns);
        assert_ne!(a.conns, c.conns);
        let carried = |s: &Schedule| -> Vec<Vec<(usize, Op, usize)>> {
            s.conns
                .iter()
                .map(|c| c.iter().map(|r| (r.name, r.op, r.phase)).collect())
                .collect()
        };
        assert_eq!(carried(&a), carried(&c));
        assert_eq!(a.conns.iter().map(Vec::len).sum::<usize>(), 750);
        for (k, conn) in a.conns.iter().enumerate() {
            assert!(conn.iter().all(|r| conn_of(r.name) == k));
            assert!(conn.windows(2).all(|w| w[0].due_us <= w[1].due_us));
            assert!(conn
                .iter()
                .all(|r| a.phases[r.phase].start_us <= r.due_us
                    && r.due_us < a.phases[r.phase].end_us));
        }
        // Ingests take each name's documents in order, after its seed.
        for (n, name) in names.iter().enumerate() {
            let docs: Vec<usize> = a.conns[conn_of(n)]
                .iter()
                .filter(|r| r.name == n)
                .filter_map(|r| match r.op {
                    Op::Ingest(d) => Some(d),
                    _ => None,
                })
                .collect();
            let expected: Vec<usize> = (name.seed_len..name.seed_len + docs.len()).collect();
            assert_eq!(docs, expected);
        }
        assert_eq!(a.until(1_000_000).phases.len(), 1);
        let cut = a.until(1_500_000);
        assert_eq!(cut.phases[1].end_us, 1_500_000);
        assert!(cut.conns.iter().flatten().all(|r| r.due_us < 1_500_000));
    }

    #[test]
    fn closed_loop_inputs_continue_the_schedule() {
        let names = corpus(6, 20);
        let mix = Mix {
            ingest: 20,
            resolve: 25,
        };
        let a = schedule(3, &names, &[(100.0, 1.0)], 0.3, mix);
        let batch = ingest_batch(&names, &a, 12, 1);
        assert!(batch.iter().all(|r| r.phase == 1));
        for (n, name) in names.iter().enumerate() {
            let docs = |requests: &[Request]| -> Vec<usize> {
                requests
                    .iter()
                    .filter(|r| r.name == n)
                    .filter_map(|r| match r.op {
                        Op::Ingest(d) => Some(d),
                        _ => None,
                    })
                    .collect()
            };
            // The batch takes up where the schedule stopped, up to 12.
            let scheduled = docs(&a.conns[conn_of(n)]);
            let all = [scheduled.clone(), docs(&batch)].concat();
            let expected: Vec<usize> = (name.seed_len..name.seed_len + all.len()).collect();
            assert_eq!(all, expected);
            assert_eq!(
                all.len() + name.seed_len,
                12.max(name.seed_len + scheduled.len())
            );
        }
        // Reads cover every name; 25 of every 80 are `resolve`.
        let cycle = read_cycle(names.len(), mix);
        assert_eq!(cycle.len(), 6 * 80);
        assert!((0..6).all(|n| cycle.iter().any(|&(m, _)| m == n)));
        assert!(cycle
            .iter()
            .all(|(_, op)| matches!(op, Op::Resolve | Op::Entities)));
        for n in 0..6 {
            let own: Vec<Op> = cycle.iter().filter(|r| r.0 == n).map(|r| r.1).collect();
            let resolves = own.iter().filter(|op| **op == Op::Resolve).count();
            assert_eq!((own.len(), resolves), (80, 25));
        }
    }

    #[test]
    fn request_lines_are_valid_json() {
        let names = corpus(2, 20);
        for line in [
            seed_line(&names[0]),
            request_line(&names[0], Op::Ingest(5)),
            request_line(&names[1], Op::Entities),
        ] {
            let v = serde_json::parse_value(&line).expect("valid JSON");
            assert!(v.get("op").and_then(Value::as_str).is_some());
        }
        let seed = serde_json::parse_value(&seed_line(&names[0])).unwrap();
        assert_eq!(seed.get("docs").and_then(Value::as_array).unwrap().len(), 2);
    }
}
