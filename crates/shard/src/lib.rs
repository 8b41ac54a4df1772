#![warn(missing_docs)]

//! # weber-shard
//!
//! A sharded routing tier over many `weber serve` backends.
//!
//! One streaming daemon holds every name's block index, trained model and
//! live partition in a single process; the first scaling lever is to
//! split the *names* across processes. All of `weber-stream`'s state is
//! keyed by the ambiguous name, so routing is exact — a consistent-hash
//! ring ([`ring`]) maps each name to the backends that hold it (one, or
//! `R` under `--replication R`), and the router speaks the same NDJSON
//! protocol as a single daemon:
//!
//! - **per-name writes** (`seed`, `ingest`, `same_as`, `constraint`) go
//!   to every backend in the name's replica set, with bounded retries
//!   (`ingest` only retries failures that provably sent nothing) and the
//!   answering shard's index appended; a replica that misses a write gets
//!   the line buffered and replayed when it recovers (write repair);
//! - **per-name reads** (`resolve`, named `entities`) fail over across
//!   the replica set in ring order, healthy members first;
//! - **fan-out ops** (`snapshot`, name-less `entities`, `metrics`,
//!   `persist`, `restore`, `flush`, `shutdown`) are broadcast and merged
//!   into one reply ([`merge`]) — unreachable backends degrade the answer
//!   instead of failing it;
//! - **`health`** answers from the router's own records ([`health`]);
//! - **`topology`** swaps the backend set at runtime, after the old ring
//!   persists its names to the shared state directory.
//!
//! Every backend exchange, probe and repair replay runs on one epoll
//! reactor ([`pool`]), so no thread ever waits on a backend. The front
//! end ([`front`]) serves stdin/stdout or TCP on the same `weber-net`
//! reactor as `weber serve`. The `metrics` op merges every backend's
//! snapshot (namespaced `shard<i>.`) with the router's own.

pub mod front;
pub mod health;
pub mod merge;
pub mod pool;
pub mod ring;
pub mod router;

pub use front::{route_listener, route_listener_with, route_stdio, route_tcp_with, FrontOptions};
pub use health::HealthState;
pub use merge::{snapshot_from_wire, ShardOutcome};
pub use pool::{ExchangeCallback, ExchangeResult, OutboundPool, Phase, PoolOptions};
pub use ring::{fnv1a, HashRing};
pub use router::{Router, RouterError, RouterOptions};
