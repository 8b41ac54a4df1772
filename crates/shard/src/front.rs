//! The `weber route` front end: NDJSON over stdin/stdout or TCP, both
//! on the `weber-net` reactor.
//!
//! Every line completes on the outbound reactor; no thread waits on a
//! backend. Per-name ops (`seed`, `ingest`, `resolve`, `same_as`,
//! `constraint`, named `entities`) classify [`RouteClass::Deferred`]: the
//! server reactor hands each line (with a [`weber_net::Responder`]) to
//! [`Router::process_line_deferred`][crate::Router::process_line_deferred],
//! which submits the backend exchange and returns at once. A stalled
//! backend stalls only the requests addressed to it. Replies still come
//! back in per-connection admission order, and backpressure comes from
//! the pipelining valve, which stops reading a connection with too many
//! unanswered lines.
//!
//! Fan-out ops (`snapshot`, `metrics`, `persist`, `restore`, `flush`,
//! `shutdown`, `topology`, name-less `entities`) classify
//! [`RouteClass::Control`]: the reactor runs a control line alone on its
//! connection, so a fan-out never overtakes an earlier per-name write
//! still in flight. The one worker only starts the broadcast and is free
//! again at once, so one client's fan-out never queues behind another's.
//! `health` and parse errors are answered straight from the reactor
//! ([`RouteClass::Immediate`]) — both are local and cheap.
//!
//! The wire contract is the same over TCP and stdio: one reply per line
//! in request order, over-cap TCP clients refused with one `overloaded`
//! line, `shutdown` draining the tier (backends included).

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use weber_net::{RouteClass, ServerOptions};
use weber_stream::protocol;
use weber_stream::StreamError;

use crate::router::Router;

/// Worker threads of the router's engine. A worker only starts a
/// fan-out and hands it to the outbound reactor, so one is enough.
const WORKERS: usize = 1;

/// Tuning knobs of the routing front end.
#[derive(Debug, Clone)]
pub struct FrontOptions {
    /// Maximum simultaneous client connections.
    pub max_connections: usize,
    /// Evict connections silent for this long. `None` (the default)
    /// never evicts — callers keep pooled router connections idle for
    /// long stretches by design.
    pub idle_timeout: Option<Duration>,
    /// Lines admitted but unanswered per connection before its reads
    /// pause.
    pub max_pipeline: usize,
}

impl Default for FrontOptions {
    fn default() -> Self {
        Self {
            max_connections: 64,
            idle_timeout: None,
            max_pipeline: 256,
        }
    }
}

/// Route NDJSON from stdin to the backends until EOF or `shutdown`,
/// answering every admitted request first. Returns the number of
/// requests admitted.
pub fn route_stdio(router: Arc<Router>) -> std::io::Result<u64> {
    let registry = router.registry_handle();
    weber_net::serve_stdio(
        Arc::new(RouterService { router }),
        std::io::stdin(),
        std::io::stdout(),
        ServerOptions {
            workers: WORKERS,
            registry: Some(registry),
            ..ServerOptions::default()
        },
    )
}

/// Bind `addr` and route clients concurrently. Returns the total number
/// of requests admitted across all connections.
pub fn route_tcp_with(
    router: Arc<Router>,
    addr: &str,
    options: &FrontOptions,
) -> std::io::Result<u64> {
    let listener = TcpListener::bind(addr)?;
    route_listener_with(router, listener, options)
}

/// [`route_tcp_with`] over an already-bound listener (callers needing an
/// ephemeral port bind `:0` themselves) with default options apart from
/// the connection cap.
pub fn route_listener(
    router: Arc<Router>,
    listener: TcpListener,
    max_connections: usize,
) -> std::io::Result<u64> {
    route_listener_with(
        router,
        listener,
        &FrontOptions {
            max_connections,
            ..FrontOptions::default()
        },
    )
}

/// [`route_listener`] with full front-end options.
pub fn route_listener_with(
    router: Arc<Router>,
    listener: TcpListener,
    options: &FrontOptions,
) -> std::io::Result<u64> {
    let registry = router.registry_handle();
    weber_net::serve(
        Arc::new(RouterService { router }),
        listener,
        ServerOptions {
            workers: WORKERS,
            max_connections: options.max_connections.max(1),
            idle_timeout: options.idle_timeout,
            max_pipeline: options.max_pipeline,
            registry: Some(registry),
            ..ServerOptions::default()
        },
    )
}

/// The adapter putting a [`Router`] behind the `weber-net` reactor (see
/// the module docs for the classification).
struct RouterService {
    router: Arc<Router>,
}

impl weber_net::NdjsonService for RouterService {
    fn classify(&self, line: &str) -> RouteClass {
        match serde_json::parse_value(line) {
            Ok(v) => match v.get("op").and_then(serde::Value::as_str) {
                // A name-less `entities` is a fan-out, which must run
                // behind the barrier, so only the named form is deferred.
                Some("seed" | "ingest" | "resolve" | "same_as" | "constraint") => {
                    RouteClass::Deferred
                }
                Some("entities") if v.get("name").and_then(serde::Value::as_str).is_some() => {
                    RouteClass::Deferred
                }
                Some("health") => RouteClass::Immediate,
                _ => RouteClass::Control,
            },
            // Parse errors are answered locally without any backend
            // round trip; cheap enough for the reactor itself.
            Err(_) => RouteClass::Immediate,
        }
    }

    /// Only `Immediate` lines come here, and the router answers those
    /// without a backend.
    fn process(&self, line: &str) -> weber_net::Reply {
        self.router
            .answer_locally(line)
            .unwrap_or_else(|| weber_net::Reply {
                line: self.internal_error_reply("this line needs the backends"),
                shutdown: false,
            })
    }

    fn process_deferred(&self, line: &str, responder: weber_net::Responder) {
        self.router
            .process_line_deferred(line, Box::new(move |reply| responder.respond(reply)));
    }

    fn overloaded_reply(&self) -> String {
        protocol::err_response(&StreamError::Overloaded)
    }

    fn parse_error_reply(&self, detail: &str) -> String {
        protocol::err_response(&StreamError::Parse(detail.to_string()))
    }

    fn is_shutdown_line(&self, line: &str) -> bool {
        line.contains("shutdown") && protocol::is_shutdown(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterOptions;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// A router over ports nobody listens on, behind a TCP front end.
    fn start_dead_tier() -> (std::net::SocketAddr, std::thread::JoinHandle<u64>) {
        let backends = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        let options = RouterOptions {
            retries: 0,
            connect_timeout: Duration::from_millis(200),
            ..RouterOptions::default()
        };
        let router = Arc::new(Router::new(backends, options).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || route_listener(router, listener, 4).unwrap());
        (addr, handle)
    }

    fn replies_to(addr: std::net::SocketAddr, input: &[u8]) -> Vec<serde::Value> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(input).unwrap();
        BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
            .map(|line| serde_json::parse_value(&line).unwrap())
            .collect()
    }

    #[test]
    fn garbage_is_answered_in_place_and_shutdown_ends_the_tier() {
        // Malformed JSON and invalid UTF-8 get positional parse errors,
        // health still answers, and nothing after `shutdown` is admitted.
        let (addr, server) = start_dead_tier();
        let replies = replies_to(
            addr,
            b"not json\n\xff\xfe{broken\n{\"op\":\"health\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"health\"}\n",
        );
        assert_eq!(replies.len(), 4, "{replies:?}");
        for reply in &replies[..2] {
            assert_eq!(reply.get("kind").unwrap().as_str(), Some("parse"));
        }
        assert_eq!(replies[2].get("op").unwrap().as_str(), Some("health"));
        // Backends are all dead, so even the shutdown broadcast degrades —
        // but the tier still acknowledges and stops.
        let shutdown = &replies[3];
        assert_eq!(shutdown.get("op").unwrap().as_str(), Some("shutdown"));
        assert_eq!(shutdown.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(shutdown.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(server.join().unwrap(), 4);
    }
}
