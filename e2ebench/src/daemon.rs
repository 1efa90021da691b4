//! The daemon under test: `indaas serve` built from this checkout's
//! sources and run as a child process with its default configuration.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use indaas_service::Client;

/// Builds the `indaas` binary from the repository root (the working
/// directory) with the same target directory Cargo used for this
/// benchmark, and returns its path.
pub fn build() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "indaas"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of the daemon failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("indaas");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("no daemon binary at {}", bin.display()))
    }
}

/// A running `indaas serve` child.
pub struct Daemon {
    child: Child,
    pub addr: String,
    logs: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `indaas serve --listen 127.0.0.1:0` and waits for its
    /// listen banner (on stderr) to learn the bound address.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the daemon's whole life so it never blocks
        // on a full pipe; the first listen banner is forwarded.
        let logs = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line
                    .split("listening on ")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim_matches('"').to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            logs: Some(logs),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => daemon.addr = addr,
            Err(_) => return Err("the daemon printed no listen banner within 30 s".into()),
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size so far, in MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        Ok(proc_status_field(self.pid(), "VmHWM:")? as f64 / 1024.0)
    }

    /// OS threads the daemon holds right now.
    pub fn threads(&self) -> Result<u64, String> {
        proc_status_field(self.pid(), "Threads:")
    }

    /// Asks the daemon to shut down over the wire, then waits for the
    /// process to exit (killing it if it lingers).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        self.reap(asked.is_ok());
        asked.map_err(|e| format!("shutting the daemon down: {e}"))
    }

    fn reap(&mut self, graceful: bool) {
        if graceful {
            for _ in 0..200 {
                if let Ok(Some(_)) = self.child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(logs) = self.logs.take() {
            let _ = logs.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.logs.is_some() {
            self.reap(false);
        }
    }
}

fn proc_status_field(pid: u32, field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/{pid}/status"))
}
