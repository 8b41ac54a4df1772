//! The programs under test as child processes: one `weber serve`, or three
//! `weber serve` backends behind a `weber route --replication 2`. Every
//! daemon runs with its default flags apart from the listen address (and
//! the router's backend list and replication factor).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Backends of the routed tier.
pub const BACKENDS: usize = 3;
/// Copies of each name in the routed tier.
pub const REPLICATION: usize = 2;

/// One daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    addr: String,
}

impl Daemon {
    fn spawn(weber: &Path, args: &[String]) -> io::Result<Self> {
        // A port the kernel just handed out and released; the daemon binds
        // it a moment later.
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(weber)
            .args(args)
            .arg("--listen")
            .arg(&addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let daemon = Daemon { child, addr };
        daemon.wait_ready(Duration::from_secs(20))?;
        Ok(daemon)
    }

    /// Poll with `health` (answered without entering a worker queue) until
    /// the daemon replies.
    fn wait_ready(&self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let attempt = (|| -> io::Result<()> {
                let mut stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(Some(Duration::from_secs(2)))?;
                stream.write_all(b"{\"op\":\"health\"}\n")?;
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line)?;
                if line.contains("\"ok\":true") {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("health reply: {line}")))
                }
            })();
            match attempt {
                Ok(()) => return Ok(()),
                Err(e) if Instant::now() >= deadline => {
                    return Err(io::Error::other(format!("{} not ready: {e}", self.addr)))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Peak resident set (`VmHWM`) so far, in kB.
    fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(&format!("/proc/{}/status", self.child.id()))
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, kB; 0 when unreadable.
fn vm_hwm_kb(status: &str) -> u64 {
    std::fs::read_to_string(status)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A running front end and the daemons behind it.
pub struct Front {
    /// Every daemon; the front is the last one.
    daemons: Vec<Daemon>,
}

impl Front {
    /// One `weber serve`.
    pub fn direct(weber: &Path) -> io::Result<Self> {
        Ok(Front {
            daemons: vec![Daemon::spawn(weber, &["serve".into()])?],
        })
    }

    /// Three backends behind a replicating router.
    pub fn tier(weber: &Path) -> io::Result<Self> {
        let mut daemons = Vec::new();
        for _ in 0..BACKENDS {
            daemons.push(Daemon::spawn(weber, &["serve".into()])?);
        }
        let backends: Vec<&str> = daemons.iter().map(|d| d.addr.as_str()).collect();
        let args = [
            "route".to_string(),
            "--backends".into(),
            backends.join(","),
            "--replication".into(),
            REPLICATION.to_string(),
        ];
        daemons.push(Daemon::spawn(weber, &args)?);
        Ok(Front { daemons })
    }

    /// Where clients connect.
    pub fn addr(&self) -> &str {
        &self.daemons.last().expect("a front has daemons").addr
    }

    /// `VmHWM` summed over every daemon, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.daemons.iter().map(Daemon::peak_rss_kb).sum::<u64>() as f64 / 1024.0
    }
}

/// This process's own `VmHWM`, MB (the program under test when it runs
/// in process).
pub fn own_peak_rss_mb() -> f64 {
    vm_hwm_kb("/proc/self/status") as f64 / 1024.0
}
