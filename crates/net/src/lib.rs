//! # weber-net — minimal epoll event-loop networking
//!
//! The one request engine of the serving tiers: a single-reactor design
//! built directly on raw `epoll`/`eventfd` syscalls (the build is offline
//! and Linux-only, so there is no `mio`, no `tokio`, no `libc` — just the
//! half-dozen foreign declarations in [`sys`]):
//!
//! * [`Poller`] / [`Waker`] — level-triggered readiness over epoll with
//!   an eventfd cross-thread wake-up.
//! * [`LineFramer`] / [`WriteBuffer`] — incremental NDJSON framing and
//!   backpressure-aware writes for non-blocking sockets.
//! * [`WorkerPool`] — bounded per-worker FIFO queues with sticky
//!   data-plane routing and never-shed control lines.
//! * [`serve`] / [`serve_stdio`] + [`NdjsonService`] — the reactor loop
//!   itself: accept, frame, classify, dispatch, reorder, flush, evict,
//!   drain. Stdin/stdout is one more connection, bridged through a
//!   socketpair.
//!
//! A serving tier implements [`NdjsonService`] (classify + process) and
//! gets 10k+ connection capacity, per-connection reply ordering and the
//! `Control` barrier for free. Both `weber serve` and `weber route` run
//! on it, over TCP and over stdio alike.

mod buffer;
mod poller;
mod pool;
mod server;
mod sys;

pub use buffer::{LineFramer, WriteBuffer};
pub use poller::{
    connect_nonblocking, connect_outcome, raise_nofile_limit, ConnectProgress, Event, Interest,
    Poller, Waker,
};
pub use pool::{Completion, CompletionSender, Dispatch, Responder, RouteClass, WorkerPool};
pub use server::{serve, serve_stdio, NdjsonService, Reply, ServerOptions};
