//! The `weber serve` daemon: NDJSON over stdin/stdout or a TCP socket,
//! both on the `weber-net` reactor.
//!
//! [`ResolverService`] puts a [`StreamResolver`] behind the reactor.
//! Named ops stick to worker `hash(name) % workers`, so same-name
//! requests execute in admission order while different names proceed in
//! parallel; data-plane lines shed with an `overloaded` reply when their
//! worker queue is full. Name-less ops (`snapshot`, `metrics`, `persist`,
//! `restore`, `flush`, `shutdown`, name-less `entities`) are never shed
//! and run alone on their connection, so a `flush` reply proves every
//! earlier request on that connection has executed. `health` and
//! malformed lines are answered on the reactor thread itself, so a probe
//! never waits behind the backlog it is measuring. The reactor's worker
//! pool keeps `stream.queue_depth`, which `health` reports, at that
//! backlog.
//!
//! Over TCP ([`serve_listener`]) one reactor thread multiplexes every
//! client, with the wire contract of PROTOCOL.md: one reply line per
//! request line, in request order; over-cap clients get one `overloaded`
//! line and a close; any client sending `shutdown` drains the daemon.
//! Over stdio ([`serve_stdio`]) stdin/stdout is one more reactor
//! connection with the same framing and ordering.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use weber_net::{RouteClass, ServerOptions};
use weber_obs::Gauge;

use crate::error::StreamError;
use crate::protocol::{self, Request};
use crate::resolver::StreamResolver;

/// Tuning knobs of the TCP front end.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Worker threads executing request lines, shared by every
    /// connection.
    pub workers: usize,
    /// Admission-queue capacity per worker.
    pub queue_capacity: usize,
    /// Maximum simultaneous client connections; clients beyond the cap
    /// are answered with an `overloaded` error line and closed.
    pub max_connections: usize,
    /// Evict connections silent for this long. `None` never evicts.
    pub idle_timeout: Option<Duration>,
    /// Lines admitted but unanswered per connection before its reads
    /// pause.
    pub max_pipeline: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            idle_timeout: None,
            max_pipeline: 256,
        }
    }
}

/// Serve NDJSON over stdin/stdout until EOF or `shutdown`, answering
/// every admitted request first. Returns the number of requests
/// admitted.
pub fn serve_stdio(
    resolver: Arc<StreamResolver>,
    workers: usize,
    queue_capacity: usize,
) -> std::io::Result<u64> {
    let registry = Arc::clone(resolver.metrics().registry());
    weber_net::serve_stdio(
        Arc::new(ResolverService { resolver }),
        std::io::stdin(),
        std::io::stdout(),
        ServerOptions {
            workers,
            queue_capacity,
            registry: Some(registry),
            ..ServerOptions::default()
        },
    )
}

/// Bind `addr` and serve clients concurrently (see the module docs for
/// the concurrency and shutdown model). Returns the total number of
/// requests admitted across all connections.
pub fn serve_tcp(
    resolver: Arc<StreamResolver>,
    addr: &str,
    options: &TcpOptions,
) -> std::io::Result<u64> {
    let listener = TcpListener::bind(addr)?;
    serve_listener(resolver, listener, options)
}

/// [`serve_tcp`] over an already-bound listener (callers that need the
/// ephemeral port bind with `:0` themselves and pass the listener in).
pub fn serve_listener(
    resolver: Arc<StreamResolver>,
    listener: TcpListener,
    options: &TcpOptions,
) -> std::io::Result<u64> {
    let registry = Arc::clone(resolver.metrics().registry());
    weber_net::serve(
        Arc::new(ResolverService { resolver }),
        listener,
        ServerOptions {
            workers: options.workers,
            queue_capacity: options.queue_capacity,
            max_connections: options.max_connections.max(1),
            idle_timeout: options.idle_timeout,
            max_pipeline: options.max_pipeline,
            registry: Some(registry),
            ..ServerOptions::default()
        },
    )
}

/// The adapter putting a [`StreamResolver`] behind the `weber-net`
/// reactor; processing goes through
/// [`process_line`](crate::service::process_line).
struct ResolverService {
    resolver: Arc<StreamResolver>,
}

/// The sticky worker key of a name.
fn name_key(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    hasher.finish()
}

impl weber_net::NdjsonService for ResolverService {
    fn classify(&self, line: &str) -> RouteClass {
        match protocol::parse_request(line) {
            // Health never waits behind the backlog it is probing, and a
            // malformed line's error reply costs nothing to compute:
            // both are answered on the reactor thread.
            Ok(Request::Health) | Err(_) => RouteClass::Immediate,
            Ok(Request::Seed { name, .. })
            | Ok(Request::Ingest { name, .. })
            | Ok(Request::Resolve { name })
            | Ok(Request::Entities { name: Some(name) })
            | Ok(Request::SameAs { name, .. })
            | Ok(Request::Constraint { name, .. }) => RouteClass::Data(name_key(&name)),
            Ok(_) => RouteClass::Control,
        }
    }

    fn process(&self, line: &str) -> weber_net::Reply {
        weber_net::Reply {
            line: crate::service::process_line(&self.resolver, line),
            shutdown: self.is_shutdown_line(line),
        }
    }

    fn overloaded_reply(&self) -> String {
        protocol::err_response(&StreamError::Overloaded)
    }

    fn parse_error_reply(&self, detail: &str) -> String {
        protocol::err_response(&StreamError::Parse(detail.to_string()))
    }

    fn internal_error_reply(&self, detail: &str) -> String {
        protocol::err_response(&StreamError::InvalidRequest(detail.to_string()))
    }

    fn is_shutdown_line(&self, line: &str) -> bool {
        // The substring test keeps the reactor from re-parsing every
        // line; only candidates pay for the full parse.
        line.contains("shutdown") && protocol::is_shutdown(line)
    }

    fn queue_depth(&self) -> Arc<Gauge> {
        Arc::clone(&self.resolver.metrics().queue_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use serde::Value;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use weber_extract::gazetteer::Gazetteer;

    fn gazetteer() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.add_phrases(
            weber_extract::gazetteer::EntityKind::Concept,
            ["databases", "gardening"],
        );
        g
    }

    fn resolver() -> Arc<StreamResolver> {
        Arc::new(StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap())
    }

    fn seed_line(name: &str) -> String {
        concat!(
            r#"{"op":"seed","name":"NAME","docs":["#,
            r#"{"text":"databases are fun and databases are important","label":0},"#,
            r#"{"text":"databases are hard but databases pay well","label":0},"#,
            r#"{"text":"gardening tips for growing roses","label":1},"#,
            r#"{"text":"gardening advice on pruning roses","label":1}]}"#
        )
        .replace("NAME", name)
    }

    /// Documents in a seed that keeps a worker busy for well over the
    /// 100 ms the backlog test waits for it to be picked up (about 0.3 s
    /// in a release build on a 2-vCPU x86 VM).
    const SLOW_SEED_DOCS: usize = 400;

    fn ingest_line(name: &str, i: usize) -> String {
        format!(r#"{{"op":"ingest","name":"{name}","text":"databases text number {i}"}}"#)
    }

    fn start(
        resolver: Arc<StreamResolver>,
        options: TcpOptions,
    ) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_listener(resolver, listener, &options).unwrap());
        (addr, handle)
    }

    /// One connection to a running daemon.
    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            Self {
                writer: stream.try_clone().unwrap(),
                reader: BufReader::new(stream),
            }
        }

        /// Pipeline `lines` in one write, then read one reply per line.
        fn pipeline(&mut self, lines: &[String]) -> Vec<Value> {
            let mut batch = String::new();
            for line in lines {
                batch.push_str(line);
                batch.push('\n');
            }
            self.send_raw(batch.as_bytes());
            self.read(lines.len())
        }

        fn send_raw(&mut self, bytes: &[u8]) {
            self.writer.write_all(bytes).unwrap();
            self.writer.flush().unwrap();
        }

        fn read(&mut self, n: usize) -> Vec<Value> {
            (0..n)
                .map(|_| {
                    let mut line = String::new();
                    self.reader.read_line(&mut line).unwrap();
                    serde_json::parse_value(line.trim()).unwrap()
                })
                .collect()
        }

        fn shutdown(mut self) {
            let reply = self.pipeline(&[r#"{"op":"shutdown"}"#.to_string()]);
            assert_eq!(ok(&reply[0]), Some(true));
        }
    }

    fn ok(v: &Value) -> Option<bool> {
        v.get("ok").and_then(Value::as_bool)
    }

    fn op(v: &Value) -> Option<&str> {
        v.get("op").and_then(Value::as_str)
    }

    fn is_overloaded(v: &Value) -> bool {
        v.get("error").and_then(Value::as_str) == Some("overloaded")
    }

    #[test]
    fn tcp_round_trip() {
        let (addr, server) = start(resolver(), TcpOptions::default());
        let mut client = Client::connect(addr);
        let replies = client.pipeline(&[
            seed_line("cohen"),
            r#"{"op":"ingest","name":"cohen","text":"databases rock"}"#.to_string(),
            r#"{"op":"shutdown"}"#.to_string(),
        ]);
        assert_eq!(server.join().unwrap(), 3);
        assert_eq!(ok(&replies[1]), Some(true));
        assert_eq!(replies[1].get("doc").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn same_name_requests_execute_in_admission_order() {
        let (addr, server) = start(
            resolver(),
            TcpOptions {
                workers: 3,
                queue_capacity: 16,
                ..TcpOptions::default()
            },
        );
        let mut client = Client::connect(addr);
        let mut lines = vec![seed_line("cohen")];
        lines.extend((0..5).map(|i| ingest_line("cohen", i)));
        lines.push(r#"{"op":"resolve","name":"cohen"}"#.to_string());
        lines.push(r#"{"op":"resolve","name":"nobody"}"#.to_string());
        lines.push(r#"{"op":"flush"}"#.to_string());
        let replies = client.pipeline(&lines);
        assert_eq!(op(&replies[0]), Some("seed"));
        // The seed applies before any ingest, and ingests take block
        // slots in admission order.
        for (i, reply) in replies[1..6].iter().enumerate() {
            assert_eq!(ok(reply), Some(true), "{reply:?}");
            assert_eq!(reply.get("doc").unwrap().as_u64(), Some(4 + i as u64));
        }
        // A resolve admitted after the ingests sees all of them.
        assert_eq!(op(&replies[6]), Some("resolve"));
        assert_eq!(replies[6].get("docs").unwrap().as_u64(), Some(9));
        assert_eq!(
            replies[7].get("kind").unwrap().as_str(),
            Some("unknown-name")
        );
        assert_eq!(op(&replies[8]), Some("flush"));
        client.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn names_on_different_workers_are_all_served() {
        let (addr, server) = start(
            resolver(),
            TcpOptions {
                workers: 4,
                queue_capacity: 32,
                ..TcpOptions::default()
            },
        );
        let mut client = Client::connect(addr);
        let mut lines = vec![seed_line("cohen"), seed_line("smith")];
        lines.extend((0..4).map(|i| ingest_line(["cohen", "smith"][i % 2], i)));
        for reply in client.pipeline(&lines) {
            assert_eq!(ok(&reply), Some(true), "{reply:?}");
        }
        client.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn malformed_and_undecodable_lines_are_answered_in_place() {
        let (addr, server) = start(resolver(), TcpOptions::default());
        let mut client = Client::connect(addr);
        client.send_raw(b"garbage\n\xff\xfe{garbage\n");
        client.send_raw(b"{\"op\":\"ingest\",\"name\":\"never-seeded\",\"text\":\"x\"}\n");
        client.send_raw(b"{\"op\":\"flush\"}\n");
        let replies = client.read(4);
        for reply in &replies[..3] {
            assert_eq!(ok(reply), Some(false), "{reply:?}");
        }
        assert_eq!(replies[1].get("kind").unwrap().as_str(), Some("parse"));
        assert_eq!(op(&replies[3]), Some("flush"));
        client.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn a_saturated_queue_sheds_data_but_never_control_or_health() {
        // One worker with a one-slot queue under a pipelined burst: some
        // ingests must be shed, while every health probe and the
        // trailing control requests are answered ok.
        let (addr, server) = start(
            resolver(),
            TcpOptions {
                workers: 1,
                queue_capacity: 1,
                ..TcpOptions::default()
            },
        );
        let mut client = Client::connect(addr);
        let mut lines = vec![seed_line("cohen")];
        for i in 0..64 {
            lines.push(ingest_line("cohen", i));
            if i % 4 == 0 {
                lines.push(r#"{"op":"health"}"#.to_string());
            }
        }
        lines.push(r#"{"op":"snapshot"}"#.to_string());
        lines.push(r#"{"op":"flush"}"#.to_string());
        let replies = client.pipeline(&lines);
        let ingests: Vec<&Value> = replies.iter().filter(|r| op(r) != Some("health")).collect();
        assert!(
            ingests.iter().any(|r| is_overloaded(r)),
            "a one-slot queue must shed under a burst"
        );
        assert!(ingests.iter().filter(|r| ok(r) == Some(true)).count() > 1);
        let probes: Vec<&Value> = replies.iter().filter(|r| op(r) == Some("health")).collect();
        assert_eq!(probes.len(), 16, "no probe may be shed or dropped");
        for probe in probes {
            assert_eq!(ok(probe), Some(true));
            assert!(probe.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
        }
        for reply in &replies[replies.len() - 2..] {
            assert_eq!(ok(reply), Some(true), "{reply:?}");
        }
        client.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn queue_depth_reports_the_backlog_and_drains_to_zero() {
        // A slow seed occupies the single worker, so the ingest sent
        // behind it waits in the one-slot queue and a health probe framed
        // right after sees the backlog. After `flush` nothing is queued.
        let (addr, server) = start(
            resolver(),
            TcpOptions {
                workers: 1,
                queue_capacity: 1,
                ..TcpOptions::default()
            },
        );
        let docs: Vec<String> = (0..SLOW_SEED_DOCS)
            .map(|i| {
                let topic = ["databases", "gardening"][i % 2];
                format!(
                    r#"{{"text":"{topic} page {i} about {topic} and more {topic}","label":{}}}"#,
                    i % 2
                )
            })
            .collect();
        let mut client = Client::connect(addr);
        client.send_raw(
            format!(
                "{{\"op\":\"seed\",\"name\":\"cohen\",\"docs\":[{}]}}\n",
                docs.join(",")
            )
            .as_bytes(),
        );
        // Let the worker pick the seed up before the rest arrives.
        std::thread::sleep(Duration::from_millis(100));
        let rest = [
            ingest_line("cohen", 0),
            r#"{"op":"health"}"#.to_string(),
            r#"{"op":"flush"}"#.to_string(),
            r#"{"op":"health"}"#.to_string(),
            r#"{"op":"metrics"}"#.to_string(),
        ];
        client.send_raw(format!("{}\n", rest.join("\n")).as_bytes());
        let replies = client.read(6);
        assert_eq!(ok(&replies[0]), Some(true), "{:?}", replies[0]);
        assert_eq!(ok(&replies[1]), Some(true), "{:?}", replies[1]);
        let depth = |v: &Value| v.get("queue_depth").unwrap().as_u64().unwrap();
        assert_eq!(depth(&replies[2]), 1, "{:?}", replies[2]);
        assert_eq!(depth(&replies[4]), 0);
        let gauges = replies[5].get("gauges").unwrap();
        assert_eq!(gauges.get("stream.queue_depth").unwrap().as_u64(), Some(0));
        client.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn metrics_count_the_ingests_before_them_on_any_worker_count() {
        // `metrics` is a control line, so it runs only after every
        // earlier line on its connection, whichever worker ran them.
        let (addr, server) = start(
            resolver(),
            TcpOptions {
                workers: 4,
                queue_capacity: 16,
                ..TcpOptions::default()
            },
        );
        let mut client = Client::connect(addr);
        let mut lines = vec![seed_line("cohen")];
        lines.extend((0..3).map(|i| ingest_line("cohen", i)));
        lines.push(r#"{"op":"metrics"}"#.to_string());
        let replies = client.pipeline(&lines);
        let metrics = &replies[4];
        assert_eq!(op(metrics), Some("metrics"));
        let counters = metrics.get("counters").unwrap();
        assert_eq!(counters.get("stream.ingests").unwrap().as_u64(), Some(3));
        assert_eq!(counters.get("stream.seeds").unwrap().as_u64(), Some(1));
        let ingest_us = metrics
            .get("histograms")
            .unwrap()
            .get("stream.ingest_us")
            .unwrap();
        assert_eq!(ingest_us.get("count").unwrap().as_u64(), Some(3));
        client.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn persist_and_restore_round_trip_over_the_wire() {
        let dir = std::env::temp_dir().join(format!(
            "weber_server_persist_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StreamConfig::default().with_state_dir(&dir);
        let first = Arc::new(StreamResolver::new(config.clone(), &gazetteer()).unwrap());
        let (addr, server) = start(Arc::clone(&first), TcpOptions::default());
        let mut client = Client::connect(addr);
        let replies = client.pipeline(&[seed_line("cohen"), r#"{"op":"persist"}"#.to_string()]);
        assert_eq!(replies[1].get("names").unwrap().as_u64(), Some(1));
        client.shutdown();
        server.join().unwrap();
        // A fresh resolver restores it over the wire.
        let second = Arc::new(StreamResolver::new(config, &gazetteer()).unwrap());
        let (addr, server) = start(Arc::clone(&second), TcpOptions::default());
        let mut client = Client::connect(addr);
        let replies = client.pipeline(&[r#"{"op":"restore"}"#.to_string()]);
        assert_eq!(replies[0].get("names").unwrap().as_u64(), Some(1));
        client.shutdown();
        server.join().unwrap();
        assert_eq!(
            second.partition("cohen").unwrap(),
            first.partition("cohen").unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn over_cap_clients_are_refused_with_an_overloaded_line() {
        let (addr, server) = start(
            resolver(),
            TcpOptions {
                max_connections: 1,
                ..TcpOptions::default()
            },
        );
        // First client occupies the single slot.
        let mut first = Client::connect(addr);
        first.pipeline(&[seed_line("cohen")]);
        // Second client is over the cap: one overloaded line, then EOF.
        let mut second = Client::connect(addr);
        assert!(is_overloaded(&second.read(1)[0]));
        let mut rest = String::new();
        assert_eq!(second.reader.read_line(&mut rest).unwrap(), 0, "{rest}");
        // The first client still works, and can stop the daemon.
        first.shutdown();
        server.join().unwrap();
    }
}
