//! The NDJSON client: open-loop load on one connection, and a
//! pipelined exchange for set-up and read-back.
//!
//! Replies on a connection come back in request order (`PROTOCOL.md`), so
//! a FIFO of in-flight requests attributes each reply line.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use std::os::fd::AsRawFd;

use serde_json::Value;
use weber_net::{Interest, Poller};

use crate::stats::Outcome;

/// Longest the client waits, after its last request, for replies still
/// owed. Whatever is unanswered then counts as failed.
pub const DRAIN: Duration = Duration::from_secs(5);

/// How a reply line reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// `"ok":true` echoing the request's op.
    Ok,
    /// A well-formed error the load can cause (`overloaded`,
    /// `unreachable`): counts as failed, not as a protocol error.
    Refused(String),
    /// Anything else: unparseable, wrong op echo, or an error kind the
    /// benchmark's requests never legitimately cause.
    Protocol(String),
}

/// Judge one reply line against the op it answers.
pub fn verdict(line: &str, op: &str) -> (Verdict, Option<Value>) {
    let Ok(v) = serde_json::parse_value(line) else {
        return (
            Verdict::Protocol(format!("unparseable reply: {line:.120}")),
            None,
        );
    };
    let verdict = match v.get("ok").and_then(Value::as_bool) {
        Some(true) if v.get("op").and_then(Value::as_str) == Some(op) => Verdict::Ok,
        Some(true) => Verdict::Protocol(format!("reply to {op} echoes another op: {line:.120}")),
        Some(false) => match v.get("kind").and_then(Value::as_str) {
            Some(kind @ ("overloaded" | "unreachable")) => Verdict::Refused(kind.to_string()),
            _ => Verdict::Protocol(format!("error reply to {op}: {line:.200}")),
        },
        None => Verdict::Protocol(format!("reply without ok: {line:.120}")),
    };
    (verdict, Some(v))
}

/// What one connection's share of an open-loop run produced.
#[derive(Debug, Default)]
pub struct Load {
    /// One outcome per scheduled request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Refusals (`overloaded`, `unreachable`).
    pub refused: usize,
    /// Protocol errors, with the first few messages.
    pub protocol_errors: Vec<String>,
}

/// Splits a byte stream into lines.
#[derive(Default)]
struct Lines {
    pending: Vec<u8>,
}

impl Lines {
    fn feed(&mut self, bytes: &[u8], mut each: impl FnMut(&str)) {
        self.pending.extend_from_slice(bytes);
        let mut from = 0;
        while let Some(pos) = self.pending[from..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.pending[from..from + pos]);
            if !line.trim().is_empty() {
                each(line.trim());
            }
            from += pos + 1;
        }
        self.pending.drain(..from);
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn micros_since(origin: Instant) -> u64 {
    origin.elapsed().as_micros() as u64
}

/// Send `requests` (due µs since `origin`, op name, line) on one fresh
/// connection, each at its due time whatever the replies are doing, and
/// time every reply from its due time. Once a connection holds more than
/// `inflight_cap` unanswered requests it raises `abort`; either connection
/// seeing `abort` stops sending. Replies are awaited for [`DRAIN`] after
/// the last request sent.
pub fn drive(
    addr: &str,
    origin: Instant,
    requests: &[(u64, &'static str, String)],
    inflight_cap: Option<usize>,
    abort: &AtomicBool,
) -> io::Result<Load> {
    // Waits go through epoll, whose timeouts run on high-resolution timers;
    // socket receive timeouts are rounded to scheduler ticks and would make
    // the generator late by milliseconds.
    let mut stream = connect(addr)?;
    stream.set_nonblocking(true)?;
    let mut poller = Poller::new(4)?;
    poller.add(stream.as_raw_fd(), 0, Interest::READ)?;
    let mut events = Vec::new();
    let mut load = Load {
        outcomes: requests
            .iter()
            .map(|r| Outcome {
                due_us: r.0,
                ..Outcome::default()
            })
            .collect(),
        ..Load::default()
    };
    let mut next = 0usize;
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut lines = Lines::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut drain_until: Option<Instant> = None;
    let mut batch = Vec::with_capacity(16 * 1024);
    loop {
        if drain_until.is_none() {
            let now = micros_since(origin);
            let first = next;
            while next < requests.len() && requests[next].0 <= now && !abort.load(Ordering::Relaxed)
            {
                batch.extend_from_slice(requests[next].2.as_bytes());
                batch.push(b'\n');
                inflight.push_back(next);
                next += 1;
                if inflight_cap.is_some_and(|cap| inflight.len() > cap) {
                    abort.store(true, Ordering::Relaxed);
                }
            }
            if !batch.is_empty() {
                write_all_nonblocking(&mut stream, &batch)?;
                batch.clear();
                let sent = micros_since(origin);
                for o in &mut load.outcomes[first..next] {
                    o.sent_us = Some(sent);
                }
            }
            if next == requests.len() || abort.load(Ordering::Relaxed) {
                drain_until = Some(Instant::now() + DRAIN);
            }
        }
        let wait = match drain_until {
            Some(_) if inflight.is_empty() => break,
            Some(until) => {
                let left = until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                left
            }
            None => Duration::from_micros(requests[next].0.saturating_sub(micros_since(origin))),
        };
        events.clear();
        // Round up to whole milliseconds (epoll's unit) so a wait never
        // ends early and spins.
        poller.wait(
            &mut events,
            Some(Duration::from_millis(wait.as_micros().div_ceil(1000) as u64)),
        )?;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(load),
                Ok(n) => {
                    let done = micros_since(origin);
                    lines.feed(&chunk[..n], |line| {
                        let Some(i) = inflight.pop_front() else {
                            load.protocol_errors
                                .push(format!("reply with nothing in flight: {line:.120}"));
                            return;
                        };
                        let outcome = &mut load.outcomes[i];
                        outcome.done_us = Some(done);
                        match verdict(line, requests[i].1).0 {
                            Verdict::Ok => outcome.ok = true,
                            Verdict::Refused(_) => load.refused += 1,
                            Verdict::Protocol(msg) => load.protocol_errors.push(msg),
                        }
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(load)
}

/// Requests an [`exchange`] keeps in flight: well under the front ends'
/// per-connection pipelining cap (256), past which they stop reading the
/// socket and a keepalive could not get through.
pub const WINDOW: usize = 64;

/// `write_all` on a non-blocking socket: waits out a full send buffer.
fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "connection closed")),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A reply overdue by this long during set-up or read-back gets a
/// `health` probe sent after it (see [`exchange`]).
pub const KEEPALIVE_AFTER: Duration = Duration::from_millis(250);

/// The replies of an [`exchange`].
#[derive(Debug)]
pub struct Exchanged {
    /// Each request's reply, in request order.
    pub replies: Vec<Value>,
    /// `health` probes sent because a reply was overdue.
    pub keepalives: usize,
}

/// Send `requests` (op name, line) on one fresh connection, at most
/// `window` in flight, and return every reply in order. Fails on a
/// protocol error, a refusal, or when `timeout` passes first.
///
/// Set-up and read-back are not measured, but must finish: `weber-net`'s
/// `Waker::drain` can lose a wake-up, after which a reactor only delivers
/// finished replies when a socket event wakes it. Whenever no reply has
/// arrived for [`KEEPALIVE_AFTER`] while some are owed, a `health` probe
/// (answered at admission, in order) is sent; the count is reported. The
/// measured load ([`drive`]) never sends one.
pub fn exchange(
    addr: &str,
    requests: &[(&str, String)],
    window: usize,
    timeout: Duration,
) -> io::Result<Exchanged> {
    let mut writer = connect(addr)?;
    let mut reader = writer.try_clone()?;
    let deadline = Instant::now() + timeout;
    let mut out = Exchanged {
        replies: Vec::with_capacity(requests.len()),
        keepalives: 0,
    };
    // What each reply still owed answers: a request index, or a probe.
    let mut owed: VecDeque<Option<usize>> = VecDeque::new();
    let mut next = 0;
    let mut lines = Lines::default();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut failure: Option<String> = None;
    let mut last_reply = Instant::now();
    while out.replies.len() < requests.len() {
        if next < requests.len() && next - out.replies.len() < window {
            let end = (out.replies.len() + window).min(requests.len());
            let mut batch = Vec::new();
            for (_, line) in &requests[next..end] {
                batch.extend_from_slice(line.as_bytes());
                batch.push(b'\n');
            }
            writer.write_all(&batch)?;
            owed.extend((next..end).map(Some));
            next = end;
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!(
                    "{} of {} replies after {timeout:?}",
                    out.replies.len(),
                    requests.len()
                ),
            ));
        }
        if now - last_reply >= KEEPALIVE_AFTER {
            writer.write_all(b"{\"op\":\"health\"}\n")?;
            owed.push_back(None);
            out.keepalives += 1;
            last_reply = now;
        }
        let wait = (last_reply + KEEPALIVE_AFTER).min(deadline) - now;
        reader.set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        let n = match reader.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed",
                ))
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        last_reply = Instant::now();
        lines.feed(&chunk[..n], |line| {
            let op = match owed.pop_front() {
                Some(Some(i)) => requests[i].0,
                Some(None) => "health",
                None => {
                    failure.get_or_insert(format!("unrequested reply: {line:.120}"));
                    return;
                }
            };
            match verdict(line, op) {
                (Verdict::Ok, Some(_)) if op == "health" => {}
                (Verdict::Ok, Some(v)) => out.replies.push(v),
                (other, _) => {
                    failure.get_or_insert(format!("{other:?}"));
                }
            }
        });
        if let Some(msg) = failure {
            return Err(io::Error::other(msg));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(
            verdict(r#"{"ok":true,"op":"ingest"}"#, "ingest").0,
            Verdict::Ok
        );
        assert!(matches!(
            verdict(r#"{"ok":true,"op":"resolve"}"#, "ingest").0,
            Verdict::Protocol(_)
        ));
        assert_eq!(
            verdict(
                r#"{"ok":false,"error":"overloaded","kind":"overloaded"}"#,
                "ingest"
            )
            .0,
            Verdict::Refused("overloaded".into())
        );
        assert!(matches!(
            verdict(
                r#"{"ok":false,"error":"x","kind":"unknown-name"}"#,
                "resolve"
            )
            .0,
            Verdict::Protocol(_)
        ));
        assert!(matches!(
            verdict("{\"ok\":tr", "resolve").0,
            Verdict::Protocol(_)
        ));
    }

    #[test]
    fn lines_reassemble_across_reads() {
        let mut lines = Lines::default();
        let mut seen = Vec::new();
        lines.feed(b"{\"a\":1}\n{\"b\"", |l| seen.push(l.to_string()));
        lines.feed(b":2}\n\n", |l| seen.push(l.to_string()));
        assert_eq!(seen, vec!["{\"a\":1}", "{\"b\":2}"]);
    }
}
