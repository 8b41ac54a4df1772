//! The event-loop NDJSON server, the one request engine behind both
//! `weber serve` and `weber route`: one reactor thread multiplexing every
//! connection over epoll, a fixed worker pool executing request lines,
//! and a reorder buffer per connection so replies always come back in
//! the order the requests arrived.
//!
//! # Connections
//!
//! [`serve`] accepts TCP clients from a listener. [`serve_stdio`] makes
//! an input/output pair one more connection: a pump thread copies the
//! input into one end of a Unix socketpair the reactor owns, and another
//! copies the replies back out. Epoll cannot watch a regular file or
//! `/dev/null`, but it can watch the socketpair, so stdio gets exactly
//! the framing, ordering, limits and barrier rules of TCP.
//!
//! # Ordering and backpressure
//!
//! Each framed line gets a per-connection sequence number at admission.
//! Workers complete out of global order, but a completion is held in the
//! connection's reorder buffer until every earlier sequence number has
//! been emitted, so clients may pipeline freely and still read replies
//! positionally. Two valves bound memory per connection: reads pause
//! while more than `max_pipeline` lines are in flight, and while the
//! write buffer holds more than `write_high_watermark` unsent bytes
//! (a client that never reads its replies stops being read itself).
//!
//! # The control barrier
//!
//! A [`RouteClass::Control`] line runs alone on its connection. It is
//! dispatched only once every earlier line on that connection has been
//! answered, and no later line is framed until it has been answered. So
//! a `flush` really is an execution barrier, and a key-less fan-out
//! cannot overtake an earlier keyed write still in flight.
//!
//! # Shutdown
//!
//! A shutdown line is detected at framing time: the listener closes and
//! reads stop. Once its reply is produced (by the barrier, every earlier
//! line on its connection has been answered by then), the other
//! connections get `drain_grace` to finish their in-flight lines, queued
//! replies flush, and the loop exits. A server without a listener also
//! exits once its connections have all been fully served.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weber_obs::{Gauge, Registry};

use crate::buffer::{LineFramer, WriteBuffer};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::pool::{Completion, CompletionSender, Dispatch, Responder, RouteClass, WorkerPool};

/// One reply line, plus whether it ends the server.
pub struct Reply {
    /// The NDJSON reply (no trailing newline).
    pub line: String,
    /// True if the server should begin draining after emitting this.
    pub shutdown: bool,
}

/// The request-side contract a serving tier implements to run on the
/// event loop. One instance is shared by every worker thread.
pub trait NdjsonService: Send + Sync + 'static {
    /// Decide where a line executes. Called on the reactor thread, so it
    /// must be cheap — peek at the line, do not process it.
    fn classify(&self, line: &str) -> RouteClass;

    /// Execute one request line and produce its reply, for the default
    /// [`process_deferred`](Self::process_deferred) and for
    /// `RouteClass::Immediate` lines on the reactor thread.
    fn process(&self, line: &str) -> Reply;

    /// The reply for a line shed by a full queue or a refused connection.
    fn overloaded_reply(&self) -> String;

    /// The reply for a line that could not be decoded (bad UTF-8,
    /// oversized frame).
    fn parse_error_reply(&self, detail: &str) -> String;

    /// The reply for a handler failure. Defaults to the parse-error
    /// shape; tiers with a richer error vocabulary can override.
    fn internal_error_reply(&self, detail: &str) -> String {
        self.parse_error_reply(detail)
    }

    /// Run one request line and answer through `responder`, now or later,
    /// from any thread. Workers run every `Data` and `Control` line
    /// through here, and the reactor thread every [`RouteClass::Deferred`]
    /// line, where it must not block. The default answers with
    /// [`process`](Self::process) at once.
    fn process_deferred(&self, line: &str, responder: Responder) {
        responder.respond(self.process(line));
    }

    /// True if this line asks the server to shut down. Detected at
    /// framing time so the listener closes before the line even runs.
    fn is_shutdown_line(&self, _line: &str) -> bool {
        false
    }

    /// The gauge the worker pool keeps at its backlog: lines queued but
    /// not yet picked up by a worker. A service that reports its backlog
    /// (in `health`, say) returns its own registered gauge here.
    fn queue_depth(&self) -> Arc<Gauge> {
        Arc::new(Gauge::new())
    }
}

/// Tuning for [`serve`] and [`serve_stdio`]. `Default` suits tests; the
/// CLI front ends build one from their flags.
pub struct ServerOptions {
    /// Worker threads executing request lines.
    pub workers: usize,
    /// Bounded queue slots per worker; data lines beyond this shed.
    pub queue_capacity: usize,
    /// Accepted connections beyond this get one `overloaded` line and an
    /// immediate close.
    pub max_connections: usize,
    /// Evict connections silent for this long. `None` (the default)
    /// never evicts — routers keep pooled backend connections idle for
    /// minutes by design.
    pub idle_timeout: Option<Duration>,
    /// Lines admitted but unanswered per connection before its reads
    /// pause.
    pub max_pipeline: usize,
    /// Unsent reply bytes per connection before its reads pause.
    pub write_high_watermark: usize,
    /// Longest accepted request line.
    pub max_line_bytes: usize,
    /// How long, after the shutdown line is answered, the other
    /// connections' in-flight lines get to drain.
    pub drain_grace: Duration,
    /// Where to surface `net.*` metrics, if anywhere.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 1024,
            max_connections: 1024,
            idle_timeout: None,
            max_pipeline: 256,
            write_high_watermark: 256 * 1024,
            max_line_bytes: 1024 * 1024,
            drain_grace: Duration::from_secs(5),
            registry: None,
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 16 * 1024;

/// A connection's socket: an accepted TCP client, or the reactor's end
/// of the stdio socketpair.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Switch to blocking writes bounded by `timeout`, for the final
    /// flush after the loop has stopped.
    fn block_with_write_timeout(&self, timeout: Duration) {
        let _ = match self {
            Stream::Tcp(s) => s
                .set_nonblocking(false)
                .and_then(|()| s.set_write_timeout(Some(timeout))),
            Stream::Unix(s) => s
                .set_nonblocking(false)
                .and_then(|()| s.set_write_timeout(Some(timeout))),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Conn {
    stream: Stream,
    framer: LineFramer,
    out: WriteBuffer,
    /// Completed replies waiting for earlier sequence numbers.
    reorder: BTreeMap<u64, String>,
    /// Next sequence number to assign at admission.
    next_seq: u64,
    /// Next sequence number to emit to the write buffer.
    next_emit: u64,
    /// The `Control` line this connection is stopped at: its sequence
    /// number and, until every earlier reply has been emitted, the line
    /// itself. Nothing later is framed while this is set.
    barrier: Option<(u64, Option<String>)>,
    /// Registered epoll interest, to skip redundant `EPOLL_CTL_MOD`s.
    interest: Interest,
    /// Peer sent EOF (or the frame stream is beyond repair).
    read_closed: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: Stream, options: &ServerOptions, now: Instant) -> Self {
        Self {
            stream,
            framer: LineFramer::new(options.max_line_bytes),
            out: WriteBuffer::new(),
            reorder: BTreeMap::new(),
            next_seq: 0,
            next_emit: 0,
            barrier: None,
            interest: Interest::READ,
            read_closed: false,
            last_activity: now,
        }
    }

    fn in_flight(&self) -> u64 {
        self.next_seq - self.next_emit
    }

    /// Whether another line may be framed: the frame stream is intact,
    /// no barrier is up, and neither backpressure valve is closed.
    fn admitting(&self, options: &ServerOptions) -> bool {
        !self.framer.overflowed()
            && self.barrier.is_none()
            && self.in_flight() < options.max_pipeline as u64
            && self.out.pending() <= options.write_high_watermark
    }

    /// Take the next sequence number, answering it right away with
    /// `line`: the error reply for a line that could not be decoded.
    fn answer_next(&mut self, line: String) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.reorder.insert(seq, line);
    }

    /// Move contiguous completed replies from the reorder buffer into
    /// the write buffer.
    fn emit_ready(&mut self) {
        while let Some(line) = self.reorder.remove(&self.next_emit) {
            self.out.push_line(&line);
            self.next_emit += 1;
        }
    }

    /// Fully served: peer stopped sending, every line it sent has been
    /// framed, nothing in flight, nothing left to write.
    fn finished(&self) -> bool {
        self.read_closed
            && self.drained()
            && (self.framer.pending_bytes() == 0 || self.framer.overflowed())
    }

    fn drained(&self) -> bool {
        self.in_flight() == 0 && self.out.is_empty()
    }
}

struct NetMetrics {
    connections: Arc<Gauge>,
    accepted: Arc<weber_obs::Counter>,
    refused: Arc<weber_obs::Counter>,
    lines: Arc<weber_obs::Counter>,
    shed: Arc<weber_obs::Counter>,
    idle_closed: Arc<weber_obs::Counter>,
}

impl NetMetrics {
    fn new(registry: Option<&Arc<Registry>>) -> Option<Self> {
        registry.map(|r| Self {
            connections: r.gauge("net.connections"),
            accepted: r.counter("net.accepted_total"),
            refused: r.counter("net.refused_total"),
            lines: r.counter("net.lines_total"),
            shed: r.counter("net.shed_total"),
            idle_closed: r.counter("net.idle_closed_total"),
        })
    }
}

/// Run the event loop over TCP clients accepted from `listener` until a
/// shutdown line arrives (or the listener dies). Returns the number of
/// request lines admitted across all connections.
pub fn serve<S: NdjsonService>(
    service: Arc<S>,
    listener: TcpListener,
    options: ServerOptions,
) -> io::Result<u64> {
    listener.set_nonblocking(true)?;
    run(service, Some(listener), None, options)
}

/// Run the event loop over one connection made of `input` and `output`
/// (in the CLI, stdin and stdout) until the input ends or a shutdown line
/// arrives; either way every admitted line is answered first. Returns
/// the number of request lines admitted, or the error that stopped the
/// replies reaching `output`.
pub fn serve_stdio<S, R, W>(
    service: Arc<S>,
    input: R,
    output: W,
    options: ServerOptions,
) -> io::Result<u64>
where
    S: NdjsonService,
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let (ours, theirs) = UnixStream::pair()?;
    ours.set_nonblocking(true)?;
    let pump_in = theirs.try_clone()?;
    // Not joined: after a shutdown line the input may stay open (an
    // interactive terminal), and the process exits around this thread.
    std::thread::spawn(move || pump_input(input, pump_in));
    let pump_out = std::thread::spawn(move || pump_output(theirs, output));
    let admitted = run(service, None, Some(Stream::Unix(ours)), options);
    // The reactor's end is closed now, so the output pump reads to EOF.
    let written = pump_out
        .join()
        .unwrap_or_else(|_| Err(io::Error::other("output pump panicked")));
    let admitted = admitted?;
    written?;
    Ok(admitted)
}

/// Copy the input into the socketpair, then half-close it: the reactor
/// reads that as the client's EOF.
fn pump_input<R: Read>(mut input: R, mut socket: UnixStream) {
    let _ = io::copy(&mut input, &mut socket);
    let _ = socket.shutdown(Shutdown::Write);
}

/// Copy replies from the socketpair to the output, flushing per read so
/// an interactive client sees each reply as it is produced.
fn pump_output<W: Write>(mut socket: UnixStream, mut output: W) -> io::Result<()> {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        let n = match socket.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if let Err(e) = output.write_all(&chunk[..n]).and_then(|()| output.flush()) {
            // Nobody reads the replies any more: hang up both ways so the
            // reactor drops the connection instead of serving it.
            let _ = socket.shutdown(Shutdown::Both);
            return Err(e);
        }
    }
}

/// The reactor-side state every connection shares.
struct Engine<S: NdjsonService> {
    service: Arc<S>,
    pool: WorkerPool,
    completions: CompletionSender,
    options: ServerOptions,
    metrics: Option<NetMetrics>,
    /// Request lines admitted across all connections.
    admitted: u64,
    /// Reads have stopped for good (a shutdown line was framed).
    shutting_down: bool,
    /// When the drain gives up on in-flight lines; set once the shutdown
    /// line has been answered.
    drain_deadline: Option<Instant>,
}

fn run<S: NdjsonService>(
    service: Arc<S>,
    listener: Option<TcpListener>,
    stdio: Option<Stream>,
    options: ServerOptions,
) -> io::Result<u64> {
    let mut poller = Poller::new(1024)?;
    let waker = Arc::new(Waker::new()?);
    let (tx, completions): (_, Receiver<Completion>) = mpsc::channel();
    let completion_sender = CompletionSender::new(
        tx,
        Arc::clone(&waker),
        service.internal_error_reply("the request handler failed without replying"),
    );
    let pool = WorkerPool::start(
        Arc::clone(&service),
        options.workers,
        options.queue_capacity,
        completion_sender.clone(),
    );
    let mut engine = Engine {
        metrics: NetMetrics::new(options.registry.as_ref()),
        service,
        pool,
        completions: completion_sender,
        options,
        admitted: 0,
        shutting_down: false,
        drain_deadline: None,
    };

    if let Some(listener) = &listener {
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    }
    poller.add(waker.raw_fd(), TOKEN_WAKER, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    if let Some(stream) = stdio {
        engine.register(
            &mut poller,
            &mut conns,
            &mut next_token,
            stream,
            Instant::now(),
        )?;
    }
    let mut events: Vec<Event> = Vec::with_capacity(1024);
    let mut last_idle_sweep = Instant::now();
    let mut closed: Vec<u64> = Vec::new();

    loop {
        events.clear();
        let timeout = if engine.shutting_down {
            Some(Duration::from_millis(20))
        } else if engine.options.idle_timeout.is_some() {
            Some(Duration::from_millis(200))
        } else {
            None
        };
        poller.wait(&mut events, timeout)?;
        let now = Instant::now();

        for event in events.iter().copied() {
            match event.token {
                TOKEN_LISTENER => {
                    if let (Some(listener), false) = (&listener, engine.shutting_down) {
                        engine.accept_ready(
                            listener,
                            &mut poller,
                            &mut conns,
                            &mut next_token,
                            now,
                        );
                    }
                }
                TOKEN_WAKER => waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // already closed this iteration
                    };
                    let mut dead = false;
                    if event.writable && !conn.out.is_empty() {
                        match conn.out.try_flush(&mut conn.stream) {
                            Ok(_) => conn.last_activity = now,
                            Err(_) => dead = true,
                        }
                    }
                    if !dead && (event.readable || event.hangup) && conn.interest.readable {
                        dead = engine.read_and_frame(conn, token, now).is_err();
                    } else if !dead && event.hangup {
                        // Without read interest a hangup is EPOLLHUP or
                        // EPOLLERR, never a half-close: nothing more can
                        // be delivered.
                        dead = true;
                    }
                    if dead || conn.finished() {
                        closed.push(token);
                    }
                }
            }
        }

        engine.drain_completions(&completions, &mut conns);

        // Idle eviction, amortised to a periodic sweep.
        if let Some(idle) = engine.options.idle_timeout {
            if now.duration_since(last_idle_sweep) >= Duration::from_millis(200).min(idle) {
                last_idle_sweep = now;
                for (&token, conn) in conns.iter() {
                    if now.duration_since(conn.last_activity) >= idle && conn.in_flight() == 0 {
                        if let Some(m) = engine.metrics.as_ref() {
                            m.idle_closed.inc();
                        }
                        closed.push(token);
                    }
                }
            }
        }

        // Release barriers, recompute interest and reap finished
        // connections. This pass also re-pumps framing: completions may
        // have reopened a valve or lifted a barrier while complete lines
        // sat in the framer, and a quiet socket would never re-report
        // readable.
        for (&token, conn) in conns.iter_mut() {
            engine.release_barrier(conn, token);
            if conn.framer.pending_bytes() > 0 && engine.admits(conn) {
                engine.frame_pending(conn, token);
                engine.release_barrier(conn, token);
            }
            if !conn.out.is_empty() && conn.out.try_flush(&mut conn.stream).is_err() {
                closed.push(token);
                continue;
            }
            if conn.finished() {
                closed.push(token);
                continue;
            }
            let want = Interest {
                readable: engine.wants_read(conn),
                writable: !conn.out.is_empty(),
            };
            if want != conn.interest {
                if poller.modify(conn.stream.raw_fd(), token, want).is_err() {
                    closed.push(token);
                } else {
                    conn.interest = want;
                }
            }
        }
        if !closed.is_empty() {
            closed.sort_unstable();
            closed.dedup();
            for token in closed.drain(..) {
                if conns.remove(&token).is_some() {
                    if let Some(m) = engine.metrics.as_ref() {
                        m.connections.sub(1);
                    }
                }
            }
        }

        if listener.is_none() && conns.is_empty() {
            break;
        }
        if engine.shutting_down {
            let all_drained = engine.pool.depth() == 0 && conns.values().all(Conn::drained);
            let expired = engine.drain_deadline.is_some_and(|d| Instant::now() >= d);
            if all_drained || expired {
                break;
            }
        }
    }

    drop(listener);
    let Engine {
        pool,
        metrics,
        admitted,
        ..
    } = engine;
    pool.finish();
    // Flush any replies that completed during the final drain window.
    while let Ok(completion) = completions.try_recv() {
        if let Some(conn) = conns.get_mut(&completion.conn) {
            conn.reorder.insert(completion.seq, completion.reply.line);
        }
    }
    for conn in conns.values_mut() {
        conn.emit_ready();
        conn.stream
            .block_with_write_timeout(Duration::from_millis(500));
        let _ = conn.out.try_flush(&mut conn.stream);
    }
    if let Some(m) = metrics.as_ref() {
        m.connections.set(0);
    }
    Ok(admitted)
}

impl<S: NdjsonService> Engine<S> {
    /// Whether `conn` may frame another line now.
    fn admits(&self, conn: &Conn) -> bool {
        !self.shutting_down && conn.admitting(&self.options)
    }

    /// Whether `conn` should be read: it admits lines and has not hit EOF.
    fn wants_read(&self, conn: &Conn) -> bool {
        !conn.read_closed && self.admits(conn)
    }

    fn register(
        &self,
        poller: &mut Poller,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        stream: Stream,
        now: Instant,
    ) -> io::Result<()> {
        let token = *next_token;
        *next_token += 1;
        poller.add(stream.raw_fd(), token, Interest::READ)?;
        conns.insert(token, Conn::new(stream, &self.options, now));
        if let Some(m) = self.metrics.as_ref() {
            m.connections.add(1);
        }
        Ok(())
    }

    fn accept_ready(
        &self,
        listener: &TcpListener,
        poller: &mut Poller,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        now: Instant,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if conns.len() >= self.options.max_connections {
                        self.refuse(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self
                        .register(poller, conns, next_token, Stream::Tcp(stream), now)
                        .is_ok()
                    {
                        if let Some(m) = self.metrics.as_ref() {
                            m.accepted.inc();
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Out of fds or a transient accept failure: leave the rest
                // in the backlog; level-triggered epoll re-reports them.
                Err(_) => break,
            }
        }
    }

    /// One `overloaded` line, then close — the contract over-cap clients
    /// see.
    fn refuse(&self, mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
        let _ = stream.write_all(format!("{}\n", self.service.overloaded_reply()).as_bytes());
        let _ = stream.flush();
        if let Some(m) = self.metrics.as_ref() {
            m.refused.inc();
        }
    }

    /// Pull bytes off a readable socket, frame complete lines, and
    /// dispatch them. Returns `Err` only when the connection must close
    /// immediately.
    fn read_and_frame(&mut self, conn: &mut Conn, token: u64, now: Instant) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        // Respect the valves and the barrier even within one readable
        // burst.
        while self.wants_read(conn) {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // A last line without its newline still counts.
                    if conn.framer.pending_bytes() > 0 {
                        conn.framer.push(b"\n");
                    }
                    conn.read_closed = true;
                }
                Ok(n) => {
                    conn.last_activity = now;
                    conn.framer.push(&chunk[..n]);
                    self.frame_pending(conn, token);
                    if conn.framer.overflowed() && !conn.read_closed {
                        // A partial line outgrew the cap with no newline
                        // in sight: the frame boundary is lost. Answer
                        // once and hang up.
                        conn.answer_next(self.service.parse_error_reply("request line too long"));
                        conn.read_closed = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.frame_pending(conn, token);
        self.release_barrier(conn, token);
        if !conn.out.is_empty() && conn.out.try_flush(&mut conn.stream).is_err() {
            return Err(io::Error::from(io::ErrorKind::BrokenPipe));
        }
        Ok(())
    }

    /// Frame and dispatch as many buffered lines as the valves and the
    /// barrier allow.
    fn frame_pending(&mut self, conn: &mut Conn, token: u64) {
        while self.admits(conn) {
            let Some(raw) = conn.framer.next_line() else {
                break;
            };
            if conn.framer.overflowed() {
                // A complete line arrived but blew the size cap: answer at
                // its position and stop reading this connection.
                self.admitted += 1;
                conn.answer_next(self.service.parse_error_reply("request line too long"));
                conn.read_closed = true;
                break;
            }
            let Ok(line) = String::from_utf8(raw) else {
                // Undecodable line: it still occupies a reply position.
                self.admitted += 1;
                conn.answer_next(self.service.parse_error_reply("request is not valid UTF-8"));
                continue;
            };
            if line.trim().is_empty() {
                continue; // blank keep-alives are skipped, not counted
            }
            self.admitted += 1;
            if let Some(m) = self.metrics.as_ref() {
                m.lines.inc();
            }
            if self.service.is_shutdown_line(&line) {
                self.shutting_down = true;
            }
            let seq = conn.next_seq;
            conn.next_seq += 1;
            match self.service.classify(&line) {
                RouteClass::Immediate => {
                    let reply = self.service.process(&line);
                    self.note_reply(&reply);
                    conn.reorder.insert(seq, reply.line);
                }
                RouteClass::Deferred => {
                    // The line's reply slot travels with the responder;
                    // the service answers through the completion channel
                    // when its outbound work finishes.
                    self.service
                        .process_deferred(&line, self.completions.responder(token, seq));
                }
                RouteClass::Control => {
                    // Dispatched by `release_barrier` once every earlier
                    // reply has been emitted.
                    conn.barrier = Some((seq, Some(line)));
                }
                class @ RouteClass::Data(_) => {
                    if self.pool.submit(class, token, seq, line) == Dispatch::Shed {
                        if let Some(m) = self.metrics.as_ref() {
                            m.shed.inc();
                        }
                        conn.reorder.insert(seq, self.service.overloaded_reply());
                    }
                }
            }
        }
    }

    /// Emit what is ready, then advance `conn`'s barrier: dispatch the
    /// held `Control` line once it is next in line, and lift the barrier
    /// once its reply has been emitted.
    fn release_barrier(&self, conn: &mut Conn, token: u64) {
        conn.emit_ready();
        let Some((seq, held)) = conn.barrier.as_mut() else {
            return;
        };
        if conn.next_emit > *seq {
            conn.barrier = None;
        } else if conn.next_emit == *seq {
            if let Some(line) = held.take() {
                self.pool.submit(RouteClass::Control, token, *seq, line);
            }
        }
    }

    /// Note a reply on its way out: a shutdown reply starts the drain
    /// clock.
    fn note_reply(&mut self, reply: &Reply) {
        if reply.shutdown {
            self.shutting_down = true;
            self.drain_deadline
                .get_or_insert_with(|| Instant::now() + self.options.drain_grace);
        }
    }

    /// Move completed replies into their connections' reorder buffers and
    /// flush whatever became contiguous.
    fn drain_completions(
        &mut self,
        completions: &Receiver<Completion>,
        conns: &mut HashMap<u64, Conn>,
    ) {
        while let Ok(completion) = completions.try_recv() {
            self.note_reply(&completion.reply);
            if let Some(conn) = conns.get_mut(&completion.conn) {
                conn.reorder.insert(completion.seq, completion.reply.line);
                conn.emit_ready();
                if !conn.out.is_empty() {
                    // Opportunistic flush; WouldBlock leaves bytes queued
                    // and the interest pass arms EPOLLOUT.
                    let _ = conn.out.try_flush(&mut conn.stream);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Cursor};
    use std::net::TcpStream as ClientStream;
    use std::sync::Mutex;

    /// Uppercases lines and logs when each starts and ends. A line's
    /// first word picks its class: `ctl` and `shutdown` are `Control`,
    /// `health` is `Immediate`, `drop` is `Deferred`, `dK` is `Data(K)`,
    /// anything else is `Data(length)`. Lines containing `slow` take
    /// 200 ms, `panic` panics, and `drop` drops its responder unanswered.
    #[derive(Default)]
    struct Upper {
        log: Mutex<Vec<String>>,
    }
    impl Upper {
        fn log(&self) -> Vec<String> {
            self.log.lock().unwrap().clone()
        }
    }
    impl NdjsonService for Upper {
        fn classify(&self, line: &str) -> RouteClass {
            let first = line.split(' ').next().unwrap_or("");
            match first {
                "health" => RouteClass::Immediate,
                "ctl" | "shutdown" => RouteClass::Control,
                "drop" => RouteClass::Deferred,
                _ => match first.strip_prefix('d').and_then(|k| k.parse().ok()) {
                    Some(key) => RouteClass::Data(key),
                    None => RouteClass::Data(line.len() as u64),
                },
            }
        }
        fn process(&self, line: &str) -> Reply {
            assert!(line != "panic", "the handler panics");
            self.log.lock().unwrap().push(format!("start {line}"));
            if line.contains("slow") {
                std::thread::sleep(Duration::from_millis(200));
            }
            self.log.lock().unwrap().push(format!("end {line}"));
            Reply {
                line: line.to_uppercase(),
                shutdown: line == "shutdown",
            }
        }
        fn overloaded_reply(&self) -> String {
            "overloaded".into()
        }
        fn parse_error_reply(&self, detail: &str) -> String {
            format!("error:{detail}")
        }
        fn is_shutdown_line(&self, line: &str) -> bool {
            line == "shutdown"
        }
        fn process_deferred(&self, line: &str, responder: Responder) {
            if line != "drop" {
                responder.respond(self.process(line));
            }
        }
    }

    fn start(
        options: ServerOptions,
    ) -> (
        std::net::SocketAddr,
        Arc<Upper>,
        std::thread::JoinHandle<u64>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Upper::default());
        let handle = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(service, listener, options).unwrap())
        };
        (addr, service, handle)
    }

    fn read_lines(reader: &mut impl BufRead, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line.trim().to_string()
            })
            .collect()
    }

    /// A cloneable in-memory output for the stdio tests.
    #[derive(Clone, Default)]
    struct SharedOutput(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedOutput {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl SharedOutput {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    fn run_stdio(input: &[u8], options: ServerOptions) -> (io::Result<u64>, Vec<String>) {
        let output = SharedOutput::default();
        let admitted = serve_stdio(
            Arc::new(Upper::default()),
            Cursor::new(input.to_vec()),
            output.clone(),
            options,
        );
        (admitted, output.lines())
    }

    #[test]
    fn pipelined_replies_come_back_in_request_order() {
        let (addr, _, handle) = start(ServerOptions::default());
        let mut client = ClientStream::connect(addr).unwrap();
        // One slow line first: its reply must still come back first.
        client
            .write_all(b"slow alpha\nbeta\ngamma\ndelta omega\n")
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        assert_eq!(
            read_lines(&mut reader, 4),
            ["SLOW ALPHA", "BETA", "GAMMA", "DELTA OMEGA"]
        );
        client.write_all(b"shutdown\n").unwrap();
        assert_eq!(read_lines(&mut reader, 1), ["SHUTDOWN"]);
        assert_eq!(handle.join().unwrap(), 5);
    }

    #[test]
    fn a_control_line_waits_for_a_slow_earlier_data_line() {
        // The slow data line runs on worker 1; the control line goes to
        // worker 0, which is idle, yet must not start before it ends.
        let (addr, service, handle) = start(ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        });
        let mut client = ClientStream::connect(addr).unwrap();
        client.write_all(b"d1 slow\nctl\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        assert_eq!(read_lines(&mut reader, 2), ["D1 SLOW", "CTL"]);
        assert_eq!(
            service.log(),
            ["start d1 slow", "end d1 slow", "start ctl", "end ctl"]
        );
        client.write_all(b"shutdown\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_later_line_does_not_start_before_the_control_line_is_answered() {
        // The slow control line runs on worker 0; the data line after it
        // belongs to idle worker 1 and must still wait for it.
        let (addr, service, handle) = start(ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        });
        let mut client = ClientStream::connect(addr).unwrap();
        client.write_all(b"ctl slow\nd1 after\nhealth\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        assert_eq!(
            read_lines(&mut reader, 3),
            ["CTL SLOW", "D1 AFTER", "HEALTH"]
        );
        let log = service.log();
        let position = |entry: &str| log.iter().position(|l| l == entry).unwrap();
        assert!(
            position("end ctl slow") < position("start d1 after"),
            "{log:?}"
        );
        assert!(
            position("end ctl slow") < position("start health"),
            "{log:?}"
        );
        client.write_all(b"shutdown\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_dropped_or_panicking_responder_still_answers_its_position() {
        let (addr, _, handle) = start(ServerOptions::default());
        let mut client = ClientStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(b"drop\npanic\nafter\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let lines = read_lines(&mut reader, 3);
        assert!(lines[0].starts_with("error:"), "{lines:?}");
        assert!(lines[1].starts_with("error:"), "{lines:?}");
        assert_eq!(lines[2], "AFTER");
        client.write_all(b"shutdown\n").unwrap();
        assert_eq!(read_lines(&mut reader, 1), ["SHUTDOWN"]);
        handle.join().unwrap();
    }

    #[test]
    fn byte_at_a_time_clients_still_get_framed() {
        let (addr, _, handle) = start(ServerOptions::default());
        let mut client = ClientStream::connect(addr).unwrap();
        for b in b"trickle\n" {
            client.write_all(&[*b]).unwrap();
            client.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut reader = BufReader::new(client.try_clone().unwrap());
        assert_eq!(read_lines(&mut reader, 1), ["TRICKLE"]);
        client.write_all(b"shutdown\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn over_cap_connections_get_one_overloaded_line() {
        let (addr, _, handle) = start(ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        });
        let first = ClientStream::connect(addr).unwrap();
        // Make sure the reactor registered the first connection before
        // the second arrives.
        std::thread::sleep(Duration::from_millis(50));
        let second = ClientStream::connect(addr).unwrap();
        let mut reader = BufReader::new(second);
        assert_eq!(read_lines(&mut reader, 1), ["overloaded"]);
        // ...and the socket closes right after.
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        let mut first = first;
        first.write_all(b"shutdown\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn idle_connections_are_evicted() {
        let (addr, _, handle) = start(ServerOptions {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerOptions::default()
        });
        let idle = ClientStream::connect(addr).unwrap();
        let mut reader = BufReader::new(idle);
        let mut line = String::new();
        // The server closes us without a word once the timeout passes.
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "expected eviction EOF, got {line:?}");
        let mut closer = ClientStream::connect(addr).unwrap();
        closer.write_all(b"shutdown\n").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn invalid_utf8_lines_get_positional_errors() {
        let (addr, _, handle) = start(ServerOptions::default());
        let mut client = ClientStream::connect(addr).unwrap();
        client.write_all(b"ok1\n\xff\xfe\xfd\nok2\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let lines = read_lines(&mut reader, 3);
        assert_eq!(lines[0], "OK1");
        assert!(lines[1].starts_with("error:"), "got {:?}", lines[1]);
        assert_eq!(lines[2], "OK2");
        client.write_all(b"shutdown\n").unwrap();
        assert_eq!(handle.join().unwrap(), 4);
    }

    #[test]
    fn stdio_answers_every_line_in_order_then_returns_at_eof() {
        // Blank lines are skipped, a bad line is answered in place, and a
        // last line without its newline still counts.
        let (admitted, lines) = run_stdio(
            b"slow first\n\nd1 second\n\xff\xfe\nctl\nlast",
            ServerOptions::default(),
        );
        assert_eq!(admitted.unwrap(), 5);
        assert_eq!(lines.len(), 5, "{lines:?}");
        assert_eq!(lines[..2], ["SLOW FIRST", "D1 SECOND"]);
        assert!(lines[2].starts_with("error:"), "{lines:?}");
        assert_eq!(lines[3..], ["CTL", "LAST"]);
    }

    #[test]
    fn stdio_shutdown_answers_earlier_lines_and_admits_nothing_after() {
        let (admitted, lines) = run_stdio(
            b"d1 slow\nshutdown\nnever admitted\n",
            ServerOptions::default(),
        );
        assert_eq!(admitted.unwrap(), 2);
        assert_eq!(lines, ["D1 SLOW", "SHUTDOWN"]);
    }

    #[test]
    fn stdio_over_long_line_is_answered_and_ends_the_input() {
        let (admitted, lines) = run_stdio(
            b"short\nthis line is far too long\nnot read\n",
            ServerOptions {
                max_line_bytes: 8,
                ..ServerOptions::default()
            },
        );
        assert_eq!(admitted.unwrap(), 2);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], "SHORT");
        assert_eq!(lines[1], "error:request line too long");
    }

    #[test]
    fn stdio_dead_output_is_reported_not_hung_on() {
        /// Output that fails every write, like a closed pipe.
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "reader gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let input: Vec<u8> = (0..200)
            .flat_map(|i| format!("line {i}\n").into_bytes())
            .collect();
        let result = serve_stdio(
            Arc::new(Upper::default()),
            Cursor::new(input),
            Dead,
            ServerOptions::default(),
        );
        let err = result.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
