//! The router: one `weber serve`-shaped NDJSON surface over many backends.
//!
//! Per-name writes (`seed`, `ingest`, and the entity-table mutations
//! `same_as` / `constraint`) are forwarded to the `R` distinct
//! backends the [`HashRing`] says hold the name (`--replication R`,
//! default 1), with bounded retries and the answering shard's index
//! appended to the reply; a write acked by fewer than R replicas is
//! marked degraded and the missed lines are buffered per backend for
//! replay when it recovers (write repair). Per-name reads (`resolve`,
//! named `entities`) try the replica set in ring order — healthy
//! members first — and fail over until one answers. Fan-out ops
//! (`snapshot`, name-less `entities`, `metrics`, `persist`, `restore`,
//! `flush`, `shutdown`) are broadcast to every
//! backend concurrently and merged ([`crate::merge`]) — dead backends
//! degrade the answer rather than fail it (and under replication a
//! snapshot with fewer than R backends down is not degraded at all).
//! `health` never touches a backend: it reports the router's own view of
//! the tier. `topology` swaps the backend set at runtime, persisting the
//! old ring first so names — and their replicas — migrate through the
//! shared state directory.
//!
//! Every line completes on the shared [`OutboundPool`] reactor, so
//! routing is a set of *state machines*, not parked threads: retries,
//! write fan-out, read failover and broadcast joins all advance from pool
//! completion callbacks, and [`Router::process_line_deferred`] returns as
//! soon as the first exchange is submitted. One stalled backend therefore
//! stalls only the exchanges addressed to it — never a front-end worker,
//! never another client's fan-out, and never requests owned by healthy
//! shards. Health probes and write-repair replay run from the same
//! reactor's periodic sweep.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::Value;
use weber_net::Reply;
use weber_obs::{Counter, Gauge, Histogram, Registry};
use weber_stream::protocol;
use weber_stream::StreamError;

use crate::health::HealthState;
use crate::merge::{self, ShardOutcome};
use crate::pool::{OutboundPool, Phase, PoolOptions};
use crate::ring::{fnv1a, HashRing};

/// Lines buffered per backend for write repair before the oldest is
/// dropped (and counted on `route.repair_dropped`). Bounds memory during
/// a long outage; a drop means that backend needs a re-seed or a restore
/// from the shared state directory to fully converge.
const REPAIR_QUEUE_CAP: usize = 4096;

/// Tuning knobs of the routing tier.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Virtual points per backend on the ring (placement smoothing — not
    /// the replication factor; see [`replication`](Self::replication)).
    pub vnodes: usize,
    /// Copies of every name: each write goes to the first `replication`
    /// distinct backends clockwise from the name's ring position, and
    /// reads fail over across the same set. 1 (the default) is plain
    /// sharding; values above the backend count are clamped to it.
    pub replication: usize,
    /// Extra forwarding attempts after the first failure (idempotent ops;
    /// `ingest` only re-attempts failures that provably sent nothing).
    pub retries: usize,
    /// Outbound connection slots kept per backend.
    pub pool_capacity: usize,
    /// TCP connect timeout towards a backend.
    pub connect_timeout: Duration,
    /// Per-exchange read/write timeout towards a backend.
    pub io_timeout: Duration,
    /// Base health-probe cadence (failures back off exponentially from
    /// this).
    pub probe_interval: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            vnodes: 64,
            replication: 1,
            retries: 2,
            pool_capacity: 2,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(30),
            probe_interval: Duration::from_secs(1),
        }
    }
}

/// A bad router configuration or topology request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterError(pub String);

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RouterError {}

/// One backend as the router sees it: its health record, repair backlog
/// and per-backend counters (named by address, so they survive topology
/// changes that renumber ring indices). Connections live in the shared
/// [`OutboundPool`], keyed by this shard's address.
struct Shard {
    addr: String,
    health: HealthState,
    /// Write lines this backend missed while its replica peers acked —
    /// replayed in arrival order once it is healthy again. Keyed to the
    /// address (like the counters), so the backlog survives topology
    /// changes that renumber ring indices.
    repair: Mutex<VecDeque<String>>,
    /// Set while a health probe or a repair replay towards this backend
    /// is in flight: the reactor's tick starts at most one at a time, so
    /// two replays never drain the same backlog.
    maintaining: AtomicBool,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    retries: Arc<Counter>,
}

impl Shard {
    fn new(addr: &str, registry: &Registry) -> Self {
        Shard {
            addr: addr.to_string(),
            health: HealthState::new(),
            repair: Mutex::new(VecDeque::new()),
            maintaining: AtomicBool::new(false),
            requests: registry.counter(&format!("route.backend.{addr}.requests")),
            errors: registry.counter(&format!("route.backend.{addr}.errors")),
            retries: registry.counter(&format!("route.backend.{addr}.retries")),
        }
    }
}

/// An immutable ring + shard set; swapped atomically on topology change.
struct Topology {
    ring: HashRing,
    shards: Vec<Arc<Shard>>,
}

/// Completion for one routed line: its reply, merged and tagged.
pub type LineCallback = Box<dyn FnOnce(Reply) + Send>;

/// Completion for one backend exchange after retries.
type ExchangeDone = Box<dyn FnOnce(Result<String, io::Error>) + Send>;

/// Completion for a fan-out: every exchange's result, in target order.
type JoinDone = Box<dyn FnOnce(Vec<Result<String, io::Error>>) + Send>;

/// A reply that does not end the tier.
fn reply(line: String) -> Reply {
    Reply {
        line,
        shutdown: false,
    }
}

/// The routing tier's state and request loop body. Cheap to share: the
/// public handle wraps one [`Arc`]'d core, which asynchronous forwarding
/// callbacks keep alive while their exchanges are in flight.
pub struct Router {
    inner: Arc<Inner>,
}

struct Inner {
    topology: RwLock<Arc<Topology>>,
    options: RouterOptions,
    registry: Arc<Registry>,
    /// The shared outbound reactor every backend exchange rides.
    pool: OutboundPool,
    started: Instant,
    requests: Arc<Counter>,
    retries: Arc<Counter>,
    errors: Arc<Counter>,
    /// Successful write acks on non-primary replicas.
    replica_writes: Arc<Counter>,
    /// Reads answered by a replica other than the name's primary.
    failover_reads: Arc<Counter>,
    /// Buffered write lines successfully replayed to recovered backends.
    replica_lag_repairs: Arc<Counter>,
    /// Buffered write lines dropped because a backend's repair queue
    /// overflowed during its outage.
    repair_dropped: Arc<Counter>,
    forward_us: Arc<Histogram>,
    fanout_us: Arc<Histogram>,
    ring_size: Arc<Gauge>,
    healthy_backends: Arc<Gauge>,
}

fn validated(backends: &[String]) -> Result<(), RouterError> {
    if backends.is_empty() {
        return Err(RouterError("at least one backend is required".into()));
    }
    for (i, addr) in backends.iter().enumerate() {
        if addr.is_empty() {
            return Err(RouterError("backend addresses must be non-empty".into()));
        }
        if backends[..i].contains(addr) {
            return Err(RouterError(format!("backend '{addr}' is listed twice")));
        }
    }
    Ok(())
}

impl Router {
    /// A router over `backends` (non-empty, no duplicates). Backends are
    /// not contacted here — the first probe or routed request finds out
    /// who is alive.
    pub fn new(backends: Vec<String>, options: RouterOptions) -> Result<Self, RouterError> {
        validated(&backends)?;
        let registry = Arc::new(Registry::new());
        let pool = OutboundPool::new(PoolOptions {
            slots_per_backend: options.pool_capacity,
            connect_timeout: options.connect_timeout,
            io_timeout: options.io_timeout,
            ..PoolOptions::default()
        })
        .map_err(|e| RouterError(format!("cannot start the outbound reactor: {e}")))?;
        let shards = backends
            .iter()
            .map(|addr| Arc::new(Shard::new(addr, &registry)))
            .collect();
        let ring = HashRing::new(&backends, options.vnodes);
        let inner = Inner {
            topology: RwLock::new(Arc::new(Topology { ring, shards })),
            started: Instant::now(),
            requests: registry.counter("route.requests"),
            retries: registry.counter("route.retries"),
            errors: registry.counter("route.errors"),
            replica_writes: registry.counter("route.replica_writes"),
            failover_reads: registry.counter("route.failover_reads"),
            replica_lag_repairs: registry.counter("route.replica_lag_repairs"),
            repair_dropped: registry.counter("route.repair_dropped"),
            forward_us: registry.histogram("route.forward_us"),
            fanout_us: registry.histogram("route.fanout_us"),
            ring_size: registry.gauge("route.ring_size"),
            healthy_backends: registry.gauge("route.healthy_backends"),
            registry,
            options,
            pool,
        };
        inner.update_gauges();
        let inner = Arc::new(inner);
        // Probes and repair replay ride the reactor's sweep. The hook holds
        // a weak handle, so it never keeps a dropped router alive.
        let weak = Arc::downgrade(&inner);
        inner.pool.on_tick(Box::new(move || {
            if let Some(inner) = weak.upgrade() {
                inner.tick();
            }
        }));
        Ok(Router { inner })
    }

    /// Current backend addresses, in ring-index order.
    pub fn backends(&self) -> Vec<String> {
        self.inner.topology().ring.backends().to_vec()
    }

    /// Which backend (index, address) owns `name` (the primary of its
    /// replica set).
    pub fn owner(&self, name: &str) -> (usize, String) {
        let topo = self.inner.topology();
        let idx = topo.ring.owner(name);
        (idx, topo.ring.backends()[idx].clone())
    }

    /// `name`'s replica set — the backends a write goes to and a read may
    /// be served from, primary first.
    pub fn replica_set(&self, name: &str) -> Vec<usize> {
        let topo = self.inner.topology();
        let r = self.inner.replication_for(&topo);
        topo.ring.successors(name, r)
    }

    /// The router's own metrics registry (the `metrics` op merges this
    /// with every backend's snapshot).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Shared handle to the same registry, for front ends that outlive
    /// a borrow (the event loop surfaces its `net.*` metrics there).
    pub fn registry_handle(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// Handle one request line without blocking the caller. `done` fires
    /// exactly once with the reply: before this returns for lines that
    /// never touch a backend (parse errors, `health`, malformed ops), and
    /// otherwise from the outbound reactor once every exchange the line
    /// needs (retries, replica fan-out, failover, broadcast) has resolved.
    pub fn process_line_deferred(&self, line: &str, done: LineCallback) {
        match dispatch(&self.inner, line) {
            Routed::Done(reply) => done(reply),
            Routed::Write { op, name } => forward_write(&self.inner, &op, &name, line, done),
            Routed::Read { op, name } => forward_read(&self.inner, &op, &name, line, done),
            Routed::Broadcast(op) => fan_out_op(&self.inner, op, line, done),
            Routed::Topology(backends) => change_topology(&self.inner, backends, done),
        }
    }

    /// The reply to a line the router answers without any backend
    /// (`health`, or a line that does not parse), or `None` if the line
    /// needs the backends.
    pub(crate) fn answer_locally(&self, line: &str) -> Option<Reply> {
        match dispatch(&self.inner, line) {
            Routed::Done(reply) => Some(reply),
            _ => None,
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Join the outbound reactor on the dropping thread. Left to the
        // last `Arc<Inner>`, which an in-flight completion or the tick may
        // hold, the join could run on the reactor thread itself.
        self.inner.pool.stop();
    }
}

/// Where one parsed line goes next.
enum Routed {
    /// Answered without any backend.
    Done(Reply),
    /// A per-name write for the replicated fan-out.
    Write { op: String, name: String },
    /// A per-name read for the failover chase.
    Read { op: String, name: String },
    /// A fan-out op, sent to every backend and merged.
    Broadcast(String),
    /// A validated `topology` request: the new backend set.
    Topology(Vec<String>),
}

fn invalid(detail: &str) -> Routed {
    Routed::Done(reply(protocol::err_response(&StreamError::InvalidRequest(
        detail.into(),
    ))))
}

/// Parse one line and decide where it goes; only local answers are
/// produced here.
fn dispatch(inner: &Arc<Inner>, line: &str) -> Routed {
    inner.requests.inc();
    let value = match serde_json::parse_value(line) {
        Ok(v) => v,
        Err(e) => {
            return Routed::Done(reply(protocol::err_response(&StreamError::Parse(
                e.to_string(),
            ))))
        }
    };
    let Some(op) = value.get("op").and_then(Value::as_str) else {
        return invalid("missing field 'op'");
    };
    let op = op.to_string();
    match op.as_str() {
        "seed" | "ingest" | "resolve" | "same_as" | "constraint" => {
            let Some(name) = value.get("name").and_then(Value::as_str) else {
                return invalid("field 'name' must be a string");
            };
            let name = name.to_string();
            if op == "resolve" {
                Routed::Read { op, name }
            } else {
                // `same_as` and `constraint` mutate the name's entity
                // table, so they take the write path: fan out to every
                // replica, buffer misses for repair. Both are idempotent
                // (re-asserting a link or re-adding a constraint is a
                // no-op), so transport failures retry freely.
                Routed::Write { op, name }
            }
        }
        // A named `entities` is a read of that name's replica set, with
        // failover like `resolve`. The name-less form is a fan-out: every
        // backend reports the tables it holds and the merge keeps one
        // copy per name (replica-rank preference), so a replicated tier
        // never lists an entity twice.
        "entities" => match value.get("name") {
            Some(v) if v.as_str().is_some() => Routed::Read {
                op,
                name: v.as_str().unwrap().to_string(),
            },
            Some(v) if !v.is_null() => invalid("field 'name' must be a string"),
            _ => Routed::Broadcast(op),
        },
        "health" => Routed::Done(reply(inner.health_line())),
        "topology" => match topology_request(&value) {
            Ok(backends) => Routed::Topology(backends),
            Err(detail) => invalid(&detail),
        },
        "snapshot" | "metrics" | "persist" | "restore" | "flush" | "shutdown" => {
            Routed::Broadcast(op)
        }
        other => invalid(&format!("unknown op '{other}'")),
    }
}

/// The backend list of a `topology` request, checked like
/// [`Router::new`]'s.
fn topology_request(value: &Value) -> Result<Vec<String>, String> {
    let entries = value
        .get("backends")
        .and_then(Value::as_array)
        .ok_or("field 'backends' must be an array of addresses")?;
    let backends = entries
        .iter()
        .map(|entry| entry.as_str().map(str::to_string))
        .collect::<Option<Vec<String>>>()
        .ok_or("backend addresses must be strings")?;
    validated(&backends).map_err(|e| e.0)?;
    Ok(backends)
}

/// One exchange against `shard` with bounded retries, advanced entirely
/// from pool completion callbacks. Idempotent ops retry any transport
/// failure on a fresh connection; non-idempotent ops (`ingest`) retry
/// only [`Phase::Connect`] failures — an exchange-phase failure may
/// already have been applied, and re-sending it could assign the
/// document twice.
fn exchange_with_retry(
    inner: &Arc<Inner>,
    shard: Arc<Shard>,
    key: Option<u64>,
    line: String,
    idempotent: bool,
    attempt: usize,
    done: ExchangeDone,
) {
    let inner_cb = Arc::clone(inner);
    let submit_line = line.clone();
    let addr = shard.addr.clone();
    inner.pool.submit(
        &addr,
        key,
        submit_line,
        Box::new(move |result| match result {
            Ok(reply) => {
                shard.health.mark_success(inner_cb.options.probe_interval);
                done(Ok(reply));
            }
            Err((phase, e)) => {
                shard
                    .health
                    .mark_failure(&e.to_string(), inner_cb.options.probe_interval);
                if phase == Phase::Exchange {
                    // A mid-stream death usually strands every warm
                    // connection from before the restart; drop the idle
                    // ones so the retry dials fresh.
                    inner_cb.pool.invalidate(&shard.addr);
                }
                let retryable = idempotent || phase == Phase::Connect;
                if retryable && attempt < inner_cb.options.retries {
                    shard.retries.inc();
                    inner_cb.retries.inc();
                    let again = Arc::clone(&inner_cb);
                    exchange_with_retry(&again, shard, key, line, idempotent, attempt + 1, done);
                } else {
                    shard.errors.inc();
                    inner_cb.errors.inc();
                    inner_cb.update_gauges();
                    done(Err(e));
                }
            }
        }),
    );
}

/// A fan-out in progress: results land from completion callbacks in any
/// order, and the last one in calls `finish`.
struct Join {
    results: Vec<Option<Result<String, io::Error>>>,
    remaining: usize,
    finish: Option<JoinDone>,
}

/// Send `line` to each of `shards` concurrently, each exchange with
/// bounded retries, and call `finish` once with every result, in `shards`
/// order, when the last one resolves. The one join behind replicated
/// writes and broadcasts.
fn fan_out(
    inner: &Arc<Inner>,
    shards: Vec<Arc<Shard>>,
    key: Option<u64>,
    line: &str,
    idempotent: bool,
    finish: JoinDone,
) {
    let join = Arc::new(Mutex::new(Join {
        results: (0..shards.len()).map(|_| None).collect(),
        remaining: shards.len(),
        finish: Some(finish),
    }));
    for (pos, shard) in shards.into_iter().enumerate() {
        shard.requests.inc();
        let join = Arc::clone(&join);
        exchange_with_retry(
            inner,
            shard,
            key,
            line.to_string(),
            idempotent,
            0,
            Box::new(move |result| {
                let finished = {
                    let mut join = join.lock();
                    join.results[pos] = Some(result);
                    join.remaining -= 1;
                    if join.remaining == 0 {
                        let results = join
                            .results
                            .drain(..)
                            .map(|r| r.expect("every exchange of the join resolved"))
                            .collect();
                        join.finish.take().map(|finish| (finish, results))
                    } else {
                        None
                    }
                };
                if let Some((finish, results)) = finished {
                    finish(results);
                }
            }),
        );
    }
}

struct WriteCtx {
    op: String,
    name: String,
    line: String,
    topo: Arc<Topology>,
    set: Vec<usize>,
    start: Instant,
}

/// Forward a per-name write (`seed`, `ingest`) to every backend in the
/// name's replica set, concurrently on the outbound reactor. The reply
/// the client sees is the first transport-acked one in ring order,
/// tagged with its shard index; with R > 1 it also reports
/// `replication`/`acked`, plus `degraded` + `repair_pending` when some
/// replica missed the write (its line is buffered for replay — see
/// [`Inner::replay_next`]). Only when *no* replica acks does the
/// client get an `unreachable` error; nothing is buffered then, because
/// the client's own retry must stay the single writer (buffering too
/// would double-apply).
fn forward_write(inner: &Arc<Inner>, op: &str, name: &str, line: &str, done: LineCallback) {
    let topo = inner.topology();
    let r = inner.replication_for(&topo);
    let set = topo.ring.successors(name, r);
    let shards = set
        .iter()
        .map(|&idx| Arc::clone(&topo.shards[idx]))
        .collect();
    let ctx = WriteCtx {
        op: op.to_string(),
        name: name.to_string(),
        line: line.to_string(),
        topo,
        set,
        start: Instant::now(),
    };
    let inner_cb = Arc::clone(inner);
    fan_out(
        inner,
        shards,
        Some(fnv1a(name.as_bytes())),
        line,
        op != "ingest",
        Box::new(move |results| done(reply(finish_write(&inner_cb, ctx, results)))),
    );
}

/// Assemble the client reply once every replica of a write resolved.
fn finish_write(
    inner: &Arc<Inner>,
    ctx: WriteCtx,
    results: Vec<Result<String, io::Error>>,
) -> String {
    inner.forward_us.record_since(ctx.start);
    let primary = ctx.set[0];
    let acked = results.iter().filter(|r| r.is_ok()).count();
    if acked > 0 {
        for (&idx, result) in ctx.set.iter().zip(&results) {
            match result {
                Ok(_) if idx != primary => inner.replica_writes.inc(),
                Ok(_) => {}
                Err(_) => inner.queue_repair(&ctx.topo.shards[idx], &ctx.line),
            }
        }
    }
    let winner = ctx
        .set
        .iter()
        .zip(&results)
        .find_map(|(&idx, result)| result.as_ref().ok().map(|reply| (idx, reply)));
    match winner {
        Some((idx, reply)) => match serde_json::parse_value(reply) {
            Ok(mut v) => {
                merge::push_field(&mut v, "shard", Value::Number(idx as f64));
                if ctx.set.len() > 1 {
                    merge::push_field(&mut v, "replication", Value::Number(ctx.set.len() as f64));
                    merge::push_field(&mut v, "acked", Value::Number(acked as f64));
                    if idx != primary {
                        merge::push_field(&mut v, "primary", Value::Number(primary as f64));
                    }
                    if acked < ctx.set.len() {
                        merge::push_field(&mut v, "degraded", Value::Bool(true));
                        merge::push_field(&mut v, "repair_pending", Value::Bool(true));
                    }
                }
                serde_json::to_string(&v).unwrap_or_else(|_| reply.clone())
            }
            // Relay unparseable replies verbatim: the client decides.
            Err(_) => reply.clone(),
        },
        None => {
            let error = results[0]
                .as_ref()
                .err()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "no replica answered".into());
            inner.unreachable_reply(&ctx.op, &ctx.name, &ctx.topo, &ctx.set, &error)
        }
    }
}

/// The in-progress state of one failover read: which replica to try
/// next, and the last transport error seen.
struct ReadChase {
    op: String,
    name: String,
    line: String,
    topo: Arc<Topology>,
    set: Vec<usize>,
    ordered: Vec<usize>,
    primary: usize,
    start: Instant,
    pos: usize,
    last_error: Option<io::Error>,
    done: LineCallback,
}

/// Forward the per-name read (`resolve`) to the first replica that
/// answers, trying the set in ring order with the members believed
/// healthy first — a stale health mark only demotes a backend to the
/// end of the order, it never makes a name unreadable. Each attempt is
/// one asynchronous exchange; its completion either tags and returns the
/// reply or advances the chase to the next replica. A reply from any
/// backend but the primary counts as a failover read and is tagged
/// `failover`/`primary` so clients can see (and operators can count)
/// reads served by replicas.
fn forward_read(inner: &Arc<Inner>, op: &str, name: &str, line: &str, done: LineCallback) {
    let topo = inner.topology();
    let r = inner.replication_for(&topo);
    let set = topo.ring.successors(name, r);
    let primary = set[0];
    let mut ordered: Vec<usize> = set
        .iter()
        .copied()
        .filter(|&idx| topo.shards[idx].health.is_healthy())
        .collect();
    ordered.extend(
        set.iter()
            .copied()
            .filter(|&idx| !topo.shards[idx].health.is_healthy()),
    );
    read_next(
        inner,
        ReadChase {
            op: op.to_string(),
            name: name.to_string(),
            line: line.to_string(),
            topo,
            set,
            ordered,
            primary,
            start: Instant::now(),
            pos: 0,
            last_error: None,
            done,
        },
    );
}

fn read_next(inner: &Arc<Inner>, mut chase: ReadChase) {
    if chase.pos >= chase.ordered.len() {
        inner.forward_us.record_since(chase.start);
        let error = chase
            .last_error
            .map(|e| e.to_string())
            .unwrap_or_else(|| "no replica answered".into());
        let line = inner.unreachable_reply(&chase.op, &chase.name, &chase.topo, &chase.set, &error);
        (chase.done)(reply(line));
        return;
    }
    let idx = chase.ordered[chase.pos];
    let shard = Arc::clone(&chase.topo.shards[idx]);
    shard.requests.inc();
    let key = Some(fnv1a(chase.name.as_bytes()));
    let line = chase.line.clone();
    let inner_cb = Arc::clone(inner);
    exchange_with_retry(
        inner,
        shard,
        key,
        line,
        true,
        0,
        Box::new(move |result| match result {
            Ok(line) => {
                inner_cb.forward_us.record_since(chase.start);
                if idx != chase.primary {
                    inner_cb.failover_reads.inc();
                }
                let tagged = match serde_json::parse_value(&line) {
                    Ok(mut v) => {
                        merge::push_field(&mut v, "shard", Value::Number(idx as f64));
                        if idx != chase.primary {
                            merge::push_field(&mut v, "failover", Value::Bool(true));
                            merge::push_field(
                                &mut v,
                                "primary",
                                Value::Number(chase.primary as f64),
                            );
                        }
                        serde_json::to_string(&v).unwrap_or(line)
                    }
                    Err(_) => line,
                };
                (chase.done)(reply(tagged));
            }
            Err(e) => {
                chase.last_error = Some(e);
                chase.pos += 1;
                read_next(&inner_cb, chase);
            }
        }),
    );
}

/// Broadcast `line` to every shard of `topo` and hand `finish` the
/// per-shard outcomes (parsed replies or failure messages), in ring-index
/// order.
fn fan_out_to_all(
    inner: &Arc<Inner>,
    topo: &Topology,
    line: &str,
    finish: impl FnOnce(Vec<ShardOutcome>) + Send + 'static,
) {
    let start = Instant::now();
    let addrs: Vec<String> = topo.shards.iter().map(|s| s.addr.clone()).collect();
    let inner_cb = Arc::clone(inner);
    fan_out(
        inner,
        topo.shards.clone(),
        None,
        line,
        true,
        Box::new(move |results| {
            let outcomes = results
                .into_iter()
                .zip(addrs)
                .enumerate()
                .map(|(index, (result, addr))| ShardOutcome {
                    index,
                    addr,
                    result: match result {
                        Ok(reply) => serde_json::parse_value(&reply)
                            .map_err(|e| format!("malformed reply: {e}")),
                        Err(e) => Err(e.to_string()),
                    },
                })
                .collect();
            inner_cb.fanout_us.record_since(start);
            inner_cb.update_gauges();
            finish(outcomes);
        }),
    );
}

/// Broadcast a fan-out op (`snapshot`, name-less `entities`, `metrics`,
/// `persist`, `restore`, `flush`, `shutdown`) and merge the replies. The
/// merge uses the ring the broadcast went to, so a concurrent `topology`
/// swap cannot pair one ring's replies with another ring.
fn fan_out_op(inner: &Arc<Inner>, op: String, line: &str, done: LineCallback) {
    let topo = inner.topology();
    let inner_cb = Arc::clone(inner);
    let merge_topo = Arc::clone(&topo);
    fan_out_to_all(inner, &topo, line, move |outcomes| {
        let r = inner_cb.replication_for(&merge_topo);
        let line = match op.as_str() {
            "snapshot" => merge::merge_snapshot(&outcomes, &merge_topo.ring, r),
            "entities" => merge::merge_entities(&outcomes, &merge_topo.ring, r),
            "metrics" => merge::merge_metrics(inner_cb.registry.snapshot(), &outcomes),
            "persist" | "restore" => merge::merge_count(&op, &outcomes),
            _ => merge::merge_plain(&op, &outcomes),
        };
        done(Reply {
            line,
            shutdown: op == "shutdown",
        });
    });
}

/// Swap the backend set. The old ring is asked to `persist` first, and
/// the swap happens when that broadcast completes, so every name reaches
/// the shared state directory before its owner changes; the new owners
/// then restore names lazily on their next touch (`weber serve
/// --state-dir` restores transparently).
fn change_topology(inner: &Arc<Inner>, backends: Vec<String>, done: LineCallback) {
    let topo = inner.topology();
    let inner_cb = Arc::clone(inner);
    fan_out_to_all(inner, &topo, r#"{"op":"persist"}"#, move |outcomes| {
        let persisted: u64 = outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .filter(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
            .filter_map(|v| v.get("names").and_then(Value::as_u64))
            .sum();
        inner_cb.swap_ring(&backends);
        let mut fields = vec![
            ("ok", Value::Bool(true)),
            ("op", Value::String("topology".into())),
            (
                "backends",
                Value::Array(backends.into_iter().map(Value::String).collect()),
            ),
            ("persisted", Value::Number(persisted as f64)),
        ];
        fields.extend(merge::degraded_fields(&outcomes));
        done(reply(merge::render(&merge::object(fields))));
    });
}

impl Inner {
    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read())
    }

    /// The effective replication factor for `topo`: at least 1, never
    /// more than the tier has backends.
    fn replication_for(&self, topo: &Topology) -> usize {
        self.options.replication.clamp(1, topo.ring.len())
    }

    fn update_gauges(&self) {
        let topo = self.topology();
        self.ring_size.set(topo.shards.len() as i64);
        let healthy = topo.shards.iter().filter(|s| s.health.is_healthy()).count();
        self.healthy_backends.set(healthy as i64);
    }

    /// The `unreachable` error for a per-name op whose whole replica set
    /// failed: the same shape the unreplicated router produced, keyed on
    /// the primary.
    fn unreachable_reply(
        &self,
        op: &str,
        name: &str,
        topo: &Topology,
        set: &[usize],
        error: &str,
    ) -> String {
        let primary = set[0];
        let scope = if set.len() == 1 {
            format!("shard {primary}")
        } else {
            format!("all {} replicas of shard {primary}", set.len())
        };
        let mut fields = vec![
            ("op", Value::String(op.to_string())),
            ("name", Value::String(name.to_string())),
            ("shard", Value::Number(primary as f64)),
            ("addr", Value::String(topo.shards[primary].addr.clone())),
        ];
        if set.len() > 1 {
            fields.push(("replication", Value::Number(set.len() as f64)));
        }
        fields.push(("degraded", Value::Bool(true)));
        merge::err_with_kind(
            &format!(
                "{scope} ({}) is unreachable: {error}",
                topo.shards[primary].addr
            ),
            "unreachable",
            fields,
        )
    }

    /// Buffer a write line a dead replica missed, bounded by
    /// [`REPAIR_QUEUE_CAP`] (oldest dropped first, counted on
    /// `route.repair_dropped`).
    fn queue_repair(&self, shard: &Shard, line: &str) {
        let mut queue = shard.repair.lock();
        if queue.len() >= REPAIR_QUEUE_CAP {
            queue.pop_front();
            self.repair_dropped.inc();
        }
        queue.push_back(line.to_string());
    }

    /// One maintenance pass, run from the outbound reactor's sweep: probe
    /// every backend whose probe is due, and start replaying the repair
    /// backlog of healthy ones. At most one probe or replay per backend
    /// is in flight at a time.
    fn tick(self: &Arc<Self>) {
        let now = Instant::now();
        for shard in &self.topology().shards {
            if shard.maintaining.swap(true, Ordering::SeqCst) {
                continue;
            }
            if shard.health.probe_due(now) {
                self.probe(Arc::clone(shard));
            } else {
                self.replay_next(Arc::clone(shard));
            }
        }
        self.update_gauges();
    }

    /// Send one `health` probe; its completion records the result and
    /// goes on to repair replay.
    fn probe(self: &Arc<Self>, shard: Arc<Shard>) {
        let inner = Arc::clone(self);
        let addr = shard.addr.clone();
        self.pool.submit(
            &addr,
            None,
            r#"{"op":"health"}"#.into(),
            Box::new(move |result| {
                let interval = inner.options.probe_interval;
                match result {
                    Ok(reply) => {
                        let ok = serde_json::parse_value(&reply)
                            .ok()
                            .and_then(|v| v.get("ok").and_then(Value::as_bool));
                        if ok == Some(true) {
                            shard.health.mark_success(interval);
                        } else {
                            shard
                                .health
                                .mark_failure("health probe got a not-ok reply", interval);
                        }
                    }
                    Err((_, e)) => shard.health.mark_failure(&e.to_string(), interval),
                }
                inner.replay_next(shard);
            }),
        );
    }

    /// Replay the oldest buffered write to a healthy backend, and chain
    /// the next one on its ack, so the backlog drains in arrival order;
    /// once it is empty, or the backend is down, the shard's maintenance
    /// ends. A transport failure puts the line back at the front for a
    /// later tick. A transport-acked replay whose reply is `ok:false` is
    /// dropped, not retried — replaying it again cannot change the
    /// answer; full convergence then needs a restore from the shared
    /// state directory or a re-seed.
    fn replay_next(self: &Arc<Self>, shard: Arc<Shard>) {
        let next = if shard.health.is_healthy() {
            shard.repair.lock().pop_front()
        } else {
            None
        };
        let Some(line) = next else {
            shard.maintaining.store(false, Ordering::SeqCst);
            return;
        };
        let inner = Arc::clone(self);
        let addr = shard.addr.clone();
        self.pool.submit(
            &addr,
            None,
            line.clone(),
            Box::new(move |result| {
                let interval = inner.options.probe_interval;
                match result {
                    Ok(_) => {
                        shard.health.mark_success(interval);
                        inner.replica_lag_repairs.inc();
                        inner.replay_next(shard);
                    }
                    Err((_, e)) => {
                        shard.repair.lock().push_front(line);
                        shard.health.mark_failure(&e.to_string(), interval);
                        shard.maintaining.store(false, Ordering::SeqCst);
                    }
                }
            }),
        );
    }

    /// The router's `health` reply: its own uptime and per-shard health,
    /// answered without contacting any backend (probes and routed
    /// traffic keep the records fresh). A saturated or half-dead tier
    /// still answers its probes — cheap enough that the event front end
    /// answers it straight from its reactor.
    fn health_line(&self) -> String {
        self.update_gauges();
        let topo = self.topology();
        let shards: Vec<Value> = topo
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut fields = vec![
                    ("shard", Value::Number(i as f64)),
                    ("addr", Value::String(s.addr.clone())),
                    ("healthy", Value::Bool(s.health.is_healthy())),
                    ("failures", Value::Number(f64::from(s.health.failures()))),
                ];
                let backlog = s.repair.lock().len();
                if backlog > 0 {
                    fields.push(("repair_backlog", Value::Number(backlog as f64)));
                }
                if let Some(e) = s.health.last_error() {
                    fields.push(("error", Value::String(e)));
                }
                merge::object(fields)
            })
            .collect();
        let healthy = topo.shards.iter().filter(|s| s.health.is_healthy()).count();
        merge::render(&merge::object(vec![
            ("ok", Value::Bool(true)),
            ("op", Value::String("health".into())),
            (
                "uptime_s",
                Value::Number(self.started.elapsed().as_secs_f64()),
            ),
            ("backends", Value::Number(topo.shards.len() as f64)),
            ("healthy", Value::Number(healthy as f64)),
            ("vnodes", Value::Number(topo.ring.vnodes() as f64)),
            (
                "replication",
                Value::Number(self.replication_for(&topo) as f64),
            ),
            ("shards", Value::Array(shards)),
        ]))
    }

    /// Install a new ring over `backends`. Shards for retained addresses
    /// are reused, keeping their health records, repair backlogs and
    /// counters; outbound connections to dropped backends are torn down
    /// (exchanges still pending towards them fail over normally).
    fn swap_ring(&self, backends: &[String]) {
        {
            let mut current = self.topology.write();
            let shards = backends
                .iter()
                .map(|addr| {
                    current
                        .shards
                        .iter()
                        .find(|s| s.addr == *addr)
                        .cloned()
                        .unwrap_or_else(|| Arc::new(Shard::new(addr, &self.registry)))
                })
                .collect();
            let ring = HashRing::new(backends, self.options.vnodes);
            *current = Arc::new(Topology { ring, shards });
        }
        self.pool.retain(backends);
        self.update_gauges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7100 + i)).collect()
    }

    /// Route one line and wait for its reply.
    fn route(router: &Router, line: &str) -> Reply {
        let (tx, rx) = mpsc::channel();
        router.process_line_deferred(
            line,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        rx.recv_timeout(Duration::from_secs(30))
            .expect("every line is answered")
    }

    fn kind(reply: &Reply) -> Option<String> {
        let v = serde_json::parse_value(&reply.line).unwrap();
        v.get("kind").and_then(Value::as_str).map(str::to_string)
    }

    #[test]
    fn rejects_empty_and_duplicate_backends() {
        assert!(Router::new(Vec::new(), RouterOptions::default()).is_err());
        let dup = vec!["a:1".to_string(), "a:1".to_string()];
        assert!(Router::new(dup, RouterOptions::default()).is_err());
    }

    #[test]
    fn owner_is_stable_and_reported() {
        let router = Router::new(addrs(3), RouterOptions::default()).unwrap();
        let (idx, addr) = router.owner("cohen");
        assert!(idx < 3);
        assert_eq!(addr, addrs(3)[idx]);
        assert_eq!(router.owner("cohen").0, idx);
    }

    #[test]
    fn malformed_lines_and_unknown_ops_are_answered_locally() {
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        assert_eq!(kind(&route(&router, "not json")).as_deref(), Some("parse"));
        for line in [
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"ingest","text":"no name"}"#,
        ] {
            assert_eq!(
                kind(&route(&router, line)).as_deref(),
                Some("invalid-request"),
                "{line}"
            );
        }
    }

    #[test]
    fn health_answers_without_backends() {
        // Nothing listens on these ports; health must still answer.
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        let out = route(&router, r#"{"op":"health"}"#);
        assert!(!out.shutdown);
        let v = serde_json::parse_value(&out.line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("backends").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn topology_op_validates_its_payload() {
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        for bad in [
            r#"{"op":"topology"}"#,
            r#"{"op":"topology","backends":[]}"#,
            r#"{"op":"topology","backends":[7]}"#,
            r#"{"op":"topology","backends":["a:1","a:1"]}"#,
        ] {
            let v = serde_json::parse_value(&route(&router, bad).line).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            assert_eq!(v.get("kind").unwrap().as_str(), Some("invalid-request"));
        }
    }

    #[test]
    fn deferred_lines_answer_local_ops_before_returning() {
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        let (tx, rx) = mpsc::channel();
        router.process_line_deferred(
            r#"{"op":"health"}"#,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        // Local ops complete synchronously inside the call.
        let reply = rx.try_recv().expect("health answers inline");
        let v = serde_json::parse_value(&reply.line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn deferred_per_name_ops_complete_without_blocking_the_caller() {
        // Dead backends + retries:0 → the unreachable reply arrives from
        // the outbound reactor, not from the submitting thread.
        let options = RouterOptions {
            retries: 0,
            connect_timeout: Duration::from_millis(300),
            ..RouterOptions::default()
        };
        let router = Router::new(addrs(2), options).unwrap();
        let reply = route(&router, r#"{"op":"resolve","name":"cohen","text":"x"}"#);
        assert_eq!(kind(&reply).as_deref(), Some("unreachable"));
    }

    #[test]
    fn dropping_the_router_answers_in_flight_lines_and_joins_the_reactor_here() {
        // The resolve can only end by timing out (30 s) or by the router
        // stopping its pool.
        let addr = crate::pool::tests::stalled_backend();
        let options = RouterOptions {
            retries: 0,
            ..RouterOptions::default()
        };
        let router = Router::new(vec![addr], options).unwrap();
        let (tx, rx) = mpsc::channel();
        router.process_line_deferred(
            r#"{"op":"resolve","name":"cohen"}"#,
            Box::new(move |reply| {
                let on = thread::current().name().map(str::to_string);
                let _ = tx.send((reply, on));
            }),
        );
        // The in-flight completion holds the router core, so the old drop
        // left the join to whichever thread released it last — the
        // reactor, which then tried to join itself. Now `drop` returns only
        // after this thread joined the reactor, which failed the resolve
        // on its way out.
        let started = Instant::now();
        drop(router);
        let (reply, on) = rx
            .try_recv()
            .expect("the resolve is answered before drop returns");
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(kind(&reply).as_deref(), Some("unreachable"));
        assert_eq!(on.as_deref(), Some("weber-outbound"));
    }
}
