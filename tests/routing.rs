//! Routing-tier end-to-end tests: a `weber route` ring over real `weber
//! serve` backends must be indistinguishable from one big daemon when all
//! backends are up, and degrade by exactly the dead shards when they are
//! not. Every request goes through the TCP front end, the production
//! path.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use serde_json::Value;
use weber::extract::gazetteer::{EntityKind, Gazetteer};
use weber::shard::{route_listener, Router, RouterOptions};
use weber::stream::{serve_listener, StreamConfig, StreamResolver, TcpOptions};

fn gazetteer() -> Gazetteer {
    let mut g = Gazetteer::new();
    g.add_phrases(EntityKind::Concept, ["databases", "gardening"]);
    g
}

struct Backend {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<u64>,
}

fn start_backend(config: StreamConfig) -> Backend {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    start_backend_on(config, listener)
}

fn start_backend_on(config: StreamConfig, listener: TcpListener) -> Backend {
    let resolver = Arc::new(StreamResolver::new(config, &gazetteer()).unwrap());
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        serve_listener(resolver, listener, &TcpOptions::default()).unwrap()
    });
    Backend { addr, handle }
}

/// Stop a backend directly (not through the router) and wait for it to
/// release its port.
fn kill_backend(backend: Backend) {
    let stream = TcpStream::connect(backend.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    backend.handle.join().unwrap();
}

/// A port with nothing listening on it (bound once, then dropped).
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// Fast-failing router options so dead-backend tests don't crawl.
fn fast_options() -> RouterOptions {
    RouterOptions {
        retries: 2,
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(10),
        probe_interval: Duration::from_millis(100),
        ..RouterOptions::default()
    }
}

fn router_with(addrs: &[SocketAddr], options: RouterOptions) -> Router {
    Router::new(addrs.iter().map(|a| a.to_string()).collect(), options).unwrap()
}

fn router_over(addrs: &[SocketAddr]) -> Router {
    router_with(addrs, fast_options())
}

fn replicated_router_over(addrs: &[SocketAddr], replication: usize) -> Router {
    router_with(
        addrs,
        RouterOptions {
            replication,
            ..fast_options()
        },
    )
}

fn seed_line(name: &str) -> String {
    format!(
        concat!(
            r#"{{"op":"seed","name":"{}","docs":["#,
            r#"{{"text":"databases are fun and databases are important","label":0}},"#,
            r#"{{"text":"databases are hard but databases pay well","label":0}},"#,
            r#"{{"text":"gardening tips for growing roses","label":1}},"#,
            r#"{{"text":"gardening advice on pruning roses","label":1}}]}}"#
        ),
        name
    )
}

fn ingest_line(name: &str, text: &str) -> String {
    format!(r#"{{"op":"ingest","name":"{name}","text":"{text}"}}"#)
}

fn resolve_line(name: &str) -> String {
    format!(r#"{{"op":"resolve","name":"{name}"}}"#)
}

fn parse(line: &str) -> Value {
    serde_json::parse_value(line).unwrap_or_else(|e| panic!("bad JSON {line}: {e}"))
}

fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn field(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// Drop the router's shard tags so responses can be compared with a
/// single daemon's.
fn sans_shard(line: &str) -> String {
    let mut v = parse(line);
    if let Value::Object(entries) = &mut v {
        entries.retain(|(k, _)| k != "shard");
    }
    serde_json::to_string(&v).unwrap()
}

/// One name per shard, found by asking the ring.
fn names_covering_owners(router: &Router, shards: usize) -> Vec<String> {
    let mut by_owner: Vec<Option<String>> = vec![None; shards];
    for i in 0..10_000 {
        let name = format!("name{i}");
        let (idx, _) = router.owner(&name);
        if by_owner[idx].is_none() {
            by_owner[idx] = Some(name);
        }
        if by_owner.iter().all(Option::is_some) {
            break;
        }
    }
    by_owner
        .into_iter()
        .map(|n| n.expect("every shard owns some name"))
        .collect()
}

/// Send one line, read one response line.
fn round_trip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim().to_string()
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn counter(router: &Router, name: &str) -> u64 {
    router.registry().snapshot().counter(name).unwrap_or(0)
}

/// A router behind its TCP front end (`route_listener`: classification,
/// the control barrier and the outbound reactor), with one client
/// connection.
struct Tier {
    router: Arc<Router>,
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    front: std::thread::JoinHandle<u64>,
}

impl Tier {
    fn start(router: Router) -> Tier {
        let router = Arc::new(router);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let front = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || route_listener(router, listener, 16).unwrap())
        };
        let (writer, reader) = connect(addr);
        Tier {
            router,
            addr,
            writer,
            reader,
            front,
        }
    }

    /// Send one line and return the raw reply line.
    fn send_raw(&mut self, line: &str) -> String {
        round_trip(&mut self.writer, &mut self.reader, line)
    }

    /// Send one line and return the parsed reply.
    fn send(&mut self, line: &str) -> Value {
        parse(&self.send_raw(line))
    }

    /// Poll `health` until `until` holds for the reply; fail after 10 s.
    fn await_health(&mut self, until: impl Fn(&Value) -> bool) -> Value {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let health = self.send(r#"{"op":"health"}"#);
            if until(&health) {
                return health;
            }
            assert!(
                Instant::now() < deadline,
                "health never settled: {health:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Shut the tier down through the router, which stops every backend
    /// still in its ring, and wait for the front end and `backends`.
    fn shutdown(mut self, backends: impl IntoIterator<Item = Backend>) -> Value {
        let bye = self.send(r#"{"op":"shutdown"}"#);
        self.front.join().unwrap();
        for backend in backends {
            backend.handle.join().unwrap();
        }
        bye
    }
}

/// Sort a snapshot's names array by name (the router sorts; a single
/// daemon reports insertion order) and strip shard tags for comparison.
fn normalized_snapshot(line: &str) -> Vec<String> {
    let v = parse(line);
    assert!(is_ok(&v), "{line}");
    let mut entries: Vec<String> = v
        .get("names")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| sans_shard(&serde_json::to_string(e).unwrap()))
        .collect();
    entries.sort();
    entries
}

#[test]
fn a_three_backend_ring_answers_like_a_single_daemon() {
    // The same request stream goes to one standalone daemon and to a
    // 3-backend routed tier, both over real sockets; every response must
    // match modulo the router's shard tags.
    let single = start_backend(StreamConfig::default());
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let mut tier = Tier::start(router_over(
        &backends.iter().map(|b| b.addr).collect::<Vec<_>>(),
    ));
    let names = names_covering_owners(&tier.router, 3);
    let (mut s_writer, mut s_reader) = connect(single.addr);

    let mut script = Vec::new();
    for name in &names {
        script.push(seed_line(name));
        script.push(ingest_line(name, "databases keep growing"));
        script.push(ingest_line(name, "gardening in the rain"));
    }
    script.push(r#"{"op":"flush"}"#.to_string());

    for line in &script {
        let from_single = round_trip(&mut s_writer, &mut s_reader, line);
        let from_router = tier.send_raw(line);
        assert_eq!(
            sans_shard(&from_single),
            sans_shard(&from_router),
            "responses diverge on {line}"
        );
    }

    // Snapshots agree once shard tags are dropped and order is fixed.
    let s_snap = round_trip(&mut s_writer, &mut s_reader, r#"{"op":"snapshot"}"#);
    let r_snap = tier.send_raw(r#"{"op":"snapshot"}"#);
    assert!(parse(&r_snap).get("degraded").is_none(), "{r_snap}");
    assert_eq!(normalized_snapshot(&s_snap), normalized_snapshot(&r_snap));

    // Metrics merge: the router reports its own counters plus every
    // backend's, namespaced by shard.
    let v = tier.send(r#"{"op":"metrics"}"#);
    assert!(is_ok(&v));
    let counters = v.get("counters").unwrap();
    assert!(field(counters, "route.requests").unwrap() > 0);
    for shard in 0..3 {
        let key = format!("shard{shard}.stream.ingests");
        assert!(
            field(counters, &key).unwrap_or(0) > 0,
            "no ingests recorded under {key}: {v:?}"
        );
    }

    // Shutdown through the router reaches every backend and matches the
    // single daemon's acknowledgement.
    let s_bye = round_trip(&mut s_writer, &mut s_reader, r#"{"op":"shutdown"}"#);
    let r_bye = tier.shutdown(backends);
    assert_eq!(sans_shard(&s_bye), serde_json::to_string(&r_bye).unwrap());
    single.handle.join().unwrap();
}

#[test]
fn killing_one_backend_degrades_only_its_shard() {
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let mut tier = Tier::start(router_over(&addrs));
    let names = names_covering_owners(&tier.router, 3);
    for name in &names {
        let v = tier.send(&seed_line(name));
        assert!(is_ok(&v), "{v:?}");
    }

    // Kill the backend owning names[1].
    let (dead_shard, _) = tier.router.owner(&names[1]);
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[dead_shard].take().unwrap());

    // Its name is now unreachable — reported, not rerouted (the state
    // lives on the dead shard and nowhere else).
    let v = tier.send(&ingest_line(&names[1], "databases after the crash"));
    assert!(!is_ok(&v));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
    assert_eq!(field(&v, "shard"), Some(dead_shard as u64));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));

    // Names owned by the surviving shards are served as before.
    for name in [&names[0], &names[2]] {
        let v = tier.send(&ingest_line(name, "gardening goes on"));
        assert!(is_ok(&v), "{v:?}");
    }

    // The snapshot carries the survivors' names and flags exactly the
    // dead shard.
    let v = tier.send(r#"{"op":"snapshot"}"#);
    assert!(is_ok(&v));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    let unreachable = v.get("unreachable").unwrap().as_array().unwrap();
    assert_eq!(unreachable.len(), 1);
    assert_eq!(field(&unreachable[0], "shard"), Some(dead_shard as u64));
    assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 2);

    // The router's health view settles on one shard down.
    let v = tier.await_health(|v| field(v, "healthy") == Some(2));
    assert_eq!(field(&v, "backends"), Some(3));

    tier.shutdown(backends.into_iter().flatten());
}

#[test]
fn a_backend_down_at_startup_is_degraded_from_the_first_request() {
    let live = start_backend(StreamConfig::default());
    let mut tier = Tier::start(router_over(&[live.addr, dead_addr()]));
    let names = names_covering_owners(&tier.router, 2);

    // The live shard's name works immediately.
    let v = tier.send(&seed_line(&names[0]));
    assert!(is_ok(&v), "{v:?}");
    // The dead shard's name fails with routing context.
    let v = tier.send(&seed_line(&names[1]));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
    assert_eq!(field(&v, "shard"), Some(1));
    // Fan-out degrades to the live half.
    let v = tier.send(r#"{"op":"snapshot"}"#);
    assert!(is_ok(&v));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 1);

    tier.shutdown([live]);
}

#[test]
fn all_backends_down_still_answers_with_a_degraded_snapshot() {
    let mut tier = Tier::start(router_with(
        &[dead_addr(), dead_addr()],
        RouterOptions {
            retries: 0,
            ..fast_options()
        },
    ));
    let v = tier.send(r#"{"op":"snapshot"}"#);
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 0);
    assert_eq!(v.get("unreachable").unwrap().as_array().unwrap().len(), 2);
    // The router's own health still answers too.
    let v = tier.await_health(|v| field(v, "healthy") == Some(0));
    assert!(is_ok(&v));
    tier.shutdown([]);
}

#[test]
fn a_backend_restart_is_invisible_to_the_next_write() {
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let mut tier = Tier::start(router_over(&addrs));
    let names = names_covering_owners(&tier.router, 3);
    let (owner, _) = tier.router.owner(&names[0]);

    // Warm the pool towards the owner, then restart that backend on the
    // same address: every pooled connection is now stale.
    let v = tier.send(&seed_line(&names[0]));
    assert!(is_ok(&v), "{v:?}");
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[owner].take().unwrap());
    let listener = TcpListener::bind(addrs[owner]).unwrap();
    backends[owner] = Some(start_backend_on(StreamConfig::default(), listener));

    // Either way the restart is invisible: the outbound reactor usually
    // sees the dead backend's FIN the moment it happens and reaps the
    // stale connection (so the re-seed dials fresh, first try), and if
    // the re-seed wins the race onto the stale socket it fails
    // mid-exchange and the bounded retry reconnects. The client sees a
    // plain ack from the same (restarted) shard and no error in either
    // interleaving.
    let v = tier.send(&seed_line(&names[0]));
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(field(&v, "shard"), Some(owner as u64));
    assert_eq!(
        counter(&tier.router, "route.errors"),
        0,
        "a restart must not surface as a routed error"
    );

    tier.shutdown(backends.into_iter().flatten());
}

/// A fake backend that reads each request line on any number of
/// connections and answers it with `reply` after `delay` (never, for
/// `None`: the connection stays open so the exchange can only time out).
/// Returns its address.
fn start_fake_backend(delay: Option<Duration>, reply: &'static str) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    let Some(delay) = delay else {
                        std::thread::sleep(Duration::from_secs(3600));
                        return;
                    };
                    std::thread::sleep(delay);
                    if writeln!(writer, "{reply}").is_err() {
                        return;
                    }
                    let _ = writer.flush();
                }
            });
        }
    });
    addr
}

/// A fake backend that acks every line as an ingest after `delay`, or
/// never answers (`None`).
fn start_stalling_backend(delay: Option<Duration>) -> SocketAddr {
    start_fake_backend(delay, r#"{"ok":true,"op":"ingest","doc":1}"#)
}

#[test]
fn overloaded_replies_are_relayed_verbatim_not_retried() {
    // A fake backend that answers every line with the daemon's overloaded
    // error: the router must relay it (it is a valid reply) and must not
    // burn retry attempts on it.
    let addr = start_fake_backend(
        Some(Duration::ZERO),
        r#"{"ok":false,"error":"overloaded","kind":"overloaded"}"#,
    );
    let mut tier = Tier::start(router_over(&[addr]));
    let v = tier.send(&ingest_line("cohen", "databases at capacity"));
    assert!(!is_ok(&v));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("overloaded"));
    // The reply still gets the router's shard tag, and no retries fired.
    assert_eq!(field(&v, "shard"), Some(0));
    assert_eq!(
        counter(&tier.router, "route.retries"),
        0,
        "overloaded is a reply, not a transport failure"
    );
    tier.shutdown([]);
}

#[test]
fn replication_is_clamped_and_reported_in_health() {
    // Nothing listens on these ports; health answers locally.
    let mut tier = Tier::start(router_with(
        &[dead_addr(), dead_addr()],
        RouterOptions {
            replication: 5,
            retries: 0,
            ..fast_options()
        },
    ));
    let v = tier.send(r#"{"op":"health"}"#);
    assert!(is_ok(&v));
    assert_eq!(
        field(&v, "replication"),
        Some(2),
        "replication clamps to the backend count"
    );
    assert_eq!(field(&v, "vnodes"), Some(64));
    tier.shutdown([]);
}

#[test]
fn with_replication_two_a_dead_backend_leaves_every_name_readable() {
    // The acceptance scenario: R=2 over three backends, one backend
    // killed. Every name must still answer `resolve` with ok:true, the
    // snapshot must stay complete and non-degraded, and the router must
    // count failover reads.
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let mut tier = Tier::start(replicated_router_over(&addrs, 2));
    let names = names_covering_owners(&tier.router, 3);
    for name in &names {
        let v = tier.send(&seed_line(name));
        assert!(is_ok(&v));
        assert_eq!(field(&v, "replication"), Some(2));
        assert_eq!(
            field(&v, "acked"),
            Some(2),
            "both replicas ack while everyone is up"
        );
        assert!(v.get("degraded").is_none(), "{v:?}");
    }

    // Kill the backend that is primary for names[1].
    let (dead_shard, _) = tier.router.owner(&names[1]);
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[dead_shard].take().unwrap());

    // Every name resolves ok — the dead primary's names from a replica.
    for name in &names {
        let v = tier.send(&resolve_line(name));
        assert!(is_ok(&v), "name {name} must stay readable");
        assert_eq!(v.get("op").unwrap().as_str(), Some("resolve"));
        assert_eq!(field(&v, "docs"), Some(4));
        assert!(v.get("unreachable").is_none());
        let shard = field(&v, "shard").unwrap();
        assert_ne!(shard, dead_shard as u64, "a dead shard cannot answer");
    }
    let v = tier.send(&resolve_line(&names[1]));
    assert_eq!(v.get("failover").unwrap().as_bool(), Some(true));
    assert_eq!(field(&v, "primary"), Some(dead_shard as u64));
    assert!(
        counter(&tier.router, "route.failover_reads") > 0,
        "failover reads must be counted"
    );

    // The snapshot still covers every name exactly once, and one dead
    // backend out of R=2 does not degrade it.
    let v = tier.send(r#"{"op":"snapshot"}"#);
    assert!(is_ok(&v));
    assert!(v.get("degraded").is_none(), "one death < R: {v:?}");
    assert!(v.get("unreachable").is_none());
    let mut snap_names: Vec<String> = v
        .get("names")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    snap_names.sort();
    let mut expected = names.clone();
    expected.sort();
    assert_eq!(snap_names, expected, "every name exactly once");

    // A write to the dead primary's name still lands (on the replica),
    // marked degraded with a pending repair.
    let v = tier.send(&ingest_line(&names[1], "databases after the crash"));
    assert!(is_ok(&v));
    assert_eq!(field(&v, "acked"), Some(1));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("repair_pending").unwrap().as_bool(), Some(true));
    assert!(counter(&tier.router, "route.replica_writes") > 0);

    tier.shutdown(backends.into_iter().flatten());
}

#[test]
fn a_restarted_primary_is_repaired_with_the_writes_it_missed() {
    // R=2 over a shared state directory. The primary of names[0] dies,
    // two ingests land on the replica (and are buffered for the primary),
    // the primary restarts, and the router's probe replays the missed
    // writes in order — after which the primary alone serves the full
    // 6-doc state.
    let dir = std::env::temp_dir().join(format!("weber_routing_repair_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StreamConfig::default().with_state_dir(&dir);
    let backends: Vec<Backend> = (0..3).map(|_| start_backend(config.clone())).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let mut tier = Tier::start(replicated_router_over(&addrs, 2));
    let names = names_covering_owners(&tier.router, 3);
    for name in &names {
        let v = tier.send(&seed_line(name));
        assert!(is_ok(&v), "{v:?}");
    }
    // Put every name's seed-era record on disk, so a restarted backend
    // can restore it before replaying buffered writes.
    let v = tier.send(r#"{"op":"persist"}"#);
    assert!(is_ok(&v), "{v:?}");

    let replica_set = tier.router.replica_set(&names[0]);
    let (primary, replica) = (replica_set[0], replica_set[1]);
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[primary].take().unwrap());

    // Both writes are acked by the replica and buffered for the primary.
    for text in ["databases after the crash", "gardening after the crash"] {
        let v = tier.send(&ingest_line(&names[0], text));
        assert!(is_ok(&v), "{v:?}");
        assert_eq!(field(&v, "acked"), Some(1));
        assert_eq!(v.get("repair_pending").unwrap().as_bool(), Some(true));
    }
    let health = tier.send(r#"{"op":"health"}"#);
    let shard_entry = &health.get("shards").unwrap().as_array().unwrap()[primary];
    assert_eq!(
        field(shard_entry, "repair_backlog"),
        Some(2),
        "the missed writes are queued: {health:?}"
    );

    // Restart the primary on its old address; the router's probes find
    // it and replay the backlog.
    let listener = TcpListener::bind(addrs[primary]).unwrap();
    backends[primary] = Some(start_backend_on(config.clone(), listener));
    let router = Arc::clone(&tier.router);
    let health = tier.await_health(|_| counter(&router, "route.replica_lag_repairs") >= 2);
    let shards = health.get("shards").unwrap().as_array().unwrap();
    assert!(
        shards[primary].get("repair_backlog").is_none(),
        "{health:?}"
    );
    assert_eq!(
        counter(&router, "route.replica_lag_repairs"),
        2,
        "each missed write replayed exactly once"
    );

    // Kill the replica: only the repaired primary can answer now, and it
    // must have the seed batch (4 docs, via the shared state dir) plus
    // both replayed ingests.
    kill_backend(backends[replica].take().unwrap());
    let v = tier.send(&resolve_line(&names[0]));
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(field(&v, "shard"), Some(primary as u64));
    assert!(v.get("failover").is_none(), "the primary itself answers");
    assert_eq!(
        field(&v, "docs"),
        Some(6),
        "restored seed + repaired ingests: {v:?}"
    );

    tier.shutdown(backends.into_iter().flatten());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_change_migrates_names_through_shared_state() {
    // Three backends over one shared state directory. Shrinking the ring
    // to two persists every name first; the new owner of a reassigned
    // name restores it from disk on the next touch.
    let dir = std::env::temp_dir().join(format!("weber_routing_topology_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StreamConfig::default().with_state_dir(&dir);
    let mut backends: Vec<Backend> = (0..3).map(|_| start_backend(config.clone())).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let mut tier = Tier::start(router_over(&addrs));
    let names = names_covering_owners(&tier.router, 3);
    for name in &names {
        let v = tier.send(&seed_line(name));
        assert!(is_ok(&v), "{v:?}");
    }

    // Shrink to the first two backends. The third shard's name must end
    // up owned by a survivor.
    let migrating = &names[2];
    let keep = vec![addrs[0].to_string(), addrs[1].to_string()];
    let v = tier.send(&format!(
        r#"{{"op":"topology","backends":["{}","{}"]}}"#,
        keep[0], keep[1]
    ));
    assert!(is_ok(&v), "{v:?}");
    assert!(field(&v, "persisted").unwrap() >= 3);
    assert_eq!(tier.router.backends(), keep);
    let (new_owner, _) = tier.router.owner(migrating);
    assert!(new_owner < 2);

    // The next touch restores the migrated name on its new owner: the
    // seed batch had 4 documents, so the restored state ingests doc 4.
    let v = tier.send(&ingest_line(migrating, "databases after migration"));
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(field(&v, "doc"), Some(4));
    assert_eq!(field(&v, "shard"), Some(new_owner as u64));

    // The dropped backend is no longer the router's to stop.
    kill_backend(backends.pop().unwrap());
    tier.shutdown(backends);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_slow_backend_does_not_stall_healthy_shards_in_event_mode() {
    // One deliberately slow backend among two real ones: if any thread
    // parked on the slow round trip, the healthy-shard request on the
    // other connection would be stuck behind it. The async outbound pool
    // must keep it flowing.
    let slow_delay = Duration::from_millis(2500);
    let slow_addr = start_stalling_backend(Some(slow_delay));
    let real: Vec<Backend> = (0..2)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let mut addrs = vec![slow_addr];
    addrs.extend(real.iter().map(|b| b.addr));
    let mut tier = Tier::start(router_over(&addrs));
    let names = names_covering_owners(&tier.router, 3);

    // A second connection fires a request for the slow shard's name and
    // does NOT wait for the reply.
    let (mut slow_writer, mut slow_reader) = connect(tier.addr);
    writeln!(
        slow_writer,
        "{}",
        ingest_line(&names[0], "stuck behind molasses")
    )
    .unwrap();
    slow_writer.flush().unwrap();

    // The tier's own connection asks for a healthy shard's name, which
    // must answer well before the slow backend's delay elapses.
    let started = Instant::now();
    let v = tier.send(&seed_line(&names[1]));
    let elapsed = started.elapsed();
    assert!(is_ok(&v), "{v:?}");
    assert!(
        elapsed < Duration::from_millis(2000),
        "healthy-shard request took {elapsed:?} — stalled behind the slow backend"
    );

    // The slow request still completes (delayed, not lost).
    let mut slow_reply = String::new();
    slow_reader.read_line(&mut slow_reply).unwrap();
    let v = parse(slow_reply.trim());
    assert!(is_ok(&v), "{slow_reply}");
    assert_eq!(field(&v, "shard"), Some(0));

    // The slow backend acks the shutdown broadcast late; the merge
    // tolerates it.
    let bye = tier.shutdown(real);
    assert!(is_ok(&bye), "{bye:?}");
}

#[test]
fn concurrent_fan_outs_do_not_queue_behind_a_stalled_backend() {
    // Every fan-out waits out `io_timeout` on the stalled backend. Four
    // clients' snapshots must wait side by side, not one after another
    // on the router's worker, and health and per-name traffic on a fifth
    // connection must not wait for them at all.
    let io_timeout = Duration::from_secs(1);
    let mut addrs = vec![start_stalling_backend(None)];
    let real: Vec<Backend> = (0..2)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    addrs.extend(real.iter().map(|b| b.addr));
    let mut tier = Tier::start(router_with(
        &addrs,
        RouterOptions {
            retries: 0,
            io_timeout,
            ..fast_options()
        },
    ));
    let healthy_name = names_covering_owners(&tier.router, 3)[1].clone();

    let sent = Arc::new(Barrier::new(5));
    let started = Instant::now();
    let snapshots: Vec<_> = (0..4)
        .map(|_| {
            let (addr, sent) = (tier.addr, Arc::clone(&sent));
            std::thread::spawn(move || {
                let (mut writer, mut reader) = connect(addr);
                writeln!(writer, r#"{{"op":"snapshot"}}"#).unwrap();
                writer.flush().unwrap();
                sent.wait();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                (parse(reply.trim()), started.elapsed())
            })
        })
        .collect();
    sent.wait();
    for line in [r#"{"op":"health"}"#.to_string(), seed_line(&healthy_name)] {
        let asked = Instant::now();
        let v = tier.send(&line);
        assert!(is_ok(&v), "{v:?}");
        assert!(
            asked.elapsed() < Duration::from_millis(500),
            "{line} took {:?} behind the fan-outs",
            asked.elapsed()
        );
    }
    for snapshot in snapshots {
        let (v, elapsed) = snapshot.join().unwrap();
        assert!(is_ok(&v), "{v:?}");
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
        assert!(
            elapsed < 2 * io_timeout,
            "a snapshot took {elapsed:?}: fan-outs queued behind one another"
        );
    }
    tier.shutdown(real);
}

#[test]
fn a_stalled_exchange_times_out_as_unreachable_not_a_hang() {
    // A backend that accepts and never answers: the outbound pool's
    // timeout sweep must expire the exchange and surface the standard
    // unreachable error, bounded by the configured io timeout.
    let addr = start_stalling_backend(None);
    let mut tier = Tier::start(router_with(
        &[addr],
        RouterOptions {
            retries: 0,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(600),
            ..RouterOptions::default()
        },
    ));

    let started = Instant::now();
    let v = tier.send(&ingest_line("anyname", "going nowhere"));
    let elapsed = started.elapsed();
    assert!(!is_ok(&v), "{v:?}");
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
    assert!(
        elapsed < Duration::from_secs(5),
        "stalled exchange took {elapsed:?} — the timeout sweep did not fire"
    );
    tier.shutdown([]);
}

#[test]
fn entity_ops_relay_through_a_replicated_ring() {
    // Two backends, R=2: every name lives on both, so entity-table
    // mutations must fan out like writes, named reads must carry shard
    // tags, and the name-less fan-out must list each name exactly once.
    let backends: Vec<Backend> = (0..2)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let mut tier = Tier::start(replicated_router_over(&addrs, 2));

    let v = tier.send(&seed_line("cohen"));
    assert_eq!(field(&v, "acked"), Some(2), "{v:?}");

    // A named `entities` is a per-name read: answered by one replica,
    // tagged with the shard that served it.
    let v = tier.send(r#"{"op":"entities","name":"cohen"}"#);
    assert!(is_ok(&v), "{v:?}");
    assert!(v.get("shard").is_some(), "{v:?}");
    assert_eq!(v.get("entities").unwrap().as_array().unwrap().len(), 2);

    // `constraint` takes the replicated write path: both replicas apply
    // it, so whichever replica answers later reads, the split holds.
    let v =
        tier.send(r#"{"op":"constraint","name":"cohen","add":{"kind":"cannot-link","a":0,"b":1}}"#);
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(field(&v, "acked"), Some(2), "{v:?}");
    for _ in 0..4 {
        let v = tier.send(r#"{"op":"entities","name":"cohen"}"#);
        let entities = v.get("entities").unwrap().as_array().unwrap();
        assert_eq!(entities.len(), 3, "both replicas hold the constraint");
    }

    // `same_as` errors relay verbatim from the backend, stable kind
    // included.
    let v = tier.send(r#"{"op":"same_as","name":"cohen","a":0,"b":99}"#);
    assert!(!is_ok(&v));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unknown-entity"));

    // The name-less fan-out merges both replicas' tables into one entry
    // per name — R copies of `cohen` must not appear twice.
    let v = tier.send(r#"{"op":"entities"}"#);
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(v.get("op").unwrap().as_str(), Some("entities"));
    assert!(v.get("degraded").is_none(), "{v:?}");
    let names = v.get("names").unwrap().as_array().unwrap();
    assert_eq!(names.len(), 1, "{v:?}");
    assert_eq!(names[0].get("name").unwrap().as_str(), Some("cohen"));
    assert!(names[0].get("shard").is_some());

    tier.shutdown(backends);
}
