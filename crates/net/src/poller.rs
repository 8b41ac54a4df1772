//! A thin, token-based readiness poller over [`sys::Epoll`], plus the
//! [`Waker`] that lets worker threads interrupt a sleeping poll.

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::sys::{
    self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};

/// One readiness report, decoded from the kernel event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data (or EOF) can be read.
    pub readable: bool,
    /// The socket can accept more bytes.
    pub writable: bool,
    /// The peer hung up or the fd errored; treat as readable so the read
    /// path observes the EOF/error and closes cleanly.
    pub hangup: bool,
}

/// What a registration is interested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readable.
    pub readable: bool,
    /// Wake on writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Half-close (`EPOLLRDHUP`) is watched only with read interest: it
    /// stays reported for as long as the peer's write side is shut, so
    /// a connection that has seen EOF and waits on its workers would
    /// otherwise wake the poller in a loop.
    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// Level-triggered readiness poller. Registrations carry a caller-chosen
/// `u64` token that comes back verbatim in [`Event::token`].
pub struct Poller {
    epoll: Epoll,
    events: Vec<EpollEvent>,
}

impl Poller {
    /// A poller able to report up to `capacity` events per wait.
    pub fn new(capacity: usize) -> io::Result<Self> {
        Ok(Self {
            epoll: Epoll::new()?,
            events: vec![EpollEvent { events: 0, data: 0 }; capacity.max(16)],
        })
    }

    /// Register an fd under `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.ctl(EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Change an existing registration's interest.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.ctl(EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Drop an fd's registration. (Closing the fd drops it implicitly;
    /// this exists for fds that outlive their registration.)
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.epoll.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout` for readiness and append decoded events to
    /// `out`. `None` blocks indefinitely.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            None => -1,
            Some(t) => i32::try_from(t.as_millis()).unwrap_or(i32::MAX),
        };
        let n = self.epoll.wait(&mut self.events, timeout_ms)?;
        for raw in &self.events[..n] {
            let bits = raw.events;
            out.push(Event {
                token: raw.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

/// A cross-thread wake-up for a poller: register [`Waker::raw_fd`] with
/// read interest, call [`Waker::wake`] from any thread, and
/// [`Waker::drain`] when the token fires. Consecutive wakes coalesce into
/// one syscall while the poller has not drained yet.
pub struct Waker {
    event_fd: EventFd,
    armed: AtomicBool,
}

impl Waker {
    /// A fresh waker.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            event_fd: EventFd::new()?,
            armed: AtomicBool::new(false),
        })
    }

    /// The fd to register with the poller.
    pub fn raw_fd(&self) -> RawFd {
        self.event_fd.raw_fd()
    }

    /// Wake the poller (no-op if a wake is already pending).
    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            self.event_fd.signal();
        }
    }

    /// Clear the pending wake so the next [`wake`](Self::wake) signals
    /// again. The eventfd is read *before* `armed` is cleared: in the
    /// other order a `wake` landing between the two would signal an fd
    /// this read then swallows, leaving `armed` set with nothing pending,
    /// and every later wake would be a no-op. In this order a wake that
    /// lands in between is coalesced instead, which is safe because the
    /// reactor drains its completion queue after calling `drain`. The
    /// clear is a read-modify-write so it acquires whatever the coalesced
    /// waker published before its own `swap`.
    pub fn drain(&self) {
        self.event_fd.drain();
        self.armed.swap(false, Ordering::AcqRel);
    }
}

/// Re-export for front ends and the load generator.
pub use sys::raise_nofile_limit;
/// Re-exports for outbound (client-side) reactors: begin a connect
/// without blocking, finish it when `EPOLLOUT` fires.
pub use sys::{connect_nonblocking, connect_outcome, ConnectProgress};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Instant;

    /// Worker threads keep posting work and waking a reactor that waits
    /// with no timeout and drains the waker before reading the posted
    /// count, as both reactors do with their completion queues. A wake
    /// lost between `drain`'s two steps leaves `armed` stuck, so no later
    /// wake reaches the reactor and the final post is never seen.
    #[test]
    fn concurrent_wakes_are_never_lost() {
        const WORKERS: usize = 2;
        const RUN: Duration = Duration::from_millis(1500);
        let waker = Arc::new(Waker::new().unwrap());
        let posted = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = {
            let (waker, posted, seen, stop) = (
                Arc::clone(&waker),
                Arc::clone(&posted),
                Arc::clone(&seen),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || {
                let mut poller = Poller::new(16).unwrap();
                poller.add(waker.raw_fd(), 1, Interest::READ).unwrap();
                let mut events = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    events.clear();
                    poller.wait(&mut events, None).unwrap();
                    waker.drain();
                    seen.store(posted.load(Ordering::Acquire), Ordering::Release);
                }
            })
        };
        let started = Instant::now();
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (waker, posted) = (Arc::clone(&waker), Arc::clone(&posted));
                std::thread::spawn(move || {
                    while started.elapsed() < RUN {
                        posted.fetch_add(1, Ordering::AcqRel);
                        waker.wake();
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let total = posted.load(Ordering::Acquire);
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.load(Ordering::Acquire) < total && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let caught_up = seen.load(Ordering::Acquire) == total;
        // Stop the reactor, bypassing a possibly stuck `armed` flag.
        stop.store(true, Ordering::Release);
        waker.event_fd.signal();
        reactor.join().unwrap();
        assert!(
            caught_up,
            "the reactor slept through posted work: a wake-up was lost"
        );
    }
}
