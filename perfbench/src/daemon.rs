//! The daemon as a child process, and the durable homes it runs on.
//!
//! Every home lives under one base directory (memory-backed, so device
//! flush jitter stays out of the timings while every `fdatasync` the
//! daemon issues is still issued). A [`Home`] removes its directory
//! when dropped and a [`Daemon`] kills and reaps its process when
//! dropped, so a failed check or a panic unwinding through a round
//! leaves neither files nor processes behind.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A durable home directory, removed on drop.
pub struct Home {
    path: PathBuf,
}

impl Home {
    /// A fresh, empty directory `name` under `base`.
    pub fn new(base: &Path, name: &str) -> std::io::Result<Home> {
        let path = base.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Home { path })
    }

    /// A copy of `self` named `name` (snapshot and WAL only; the
    /// daemon keeps nothing else in a home it was not asked to dump
    /// into).
    pub fn copy_as(&self, name: &str) -> std::io::Result<Home> {
        let base = self
            .path
            .parent()
            .expect("homes live under a base directory");
        let copy = Home::new(base, name)?;
        for entry in std::fs::read_dir(&self.path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                std::fs::copy(entry.path(), copy.path.join(entry.file_name()))?;
            }
        }
        Ok(copy)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes in the home's regular files (snapshot + WAL).
    pub fn bytes(&self) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(&self.path)? {
            let meta = entry?.metadata()?;
            if meta.is_file() {
                total += meta.len();
            }
        }
        Ok(total)
    }
}

impl Drop for Home {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `ruleserv` child.
pub struct Daemon {
    child: Child,
    /// Held open: the daemon shuts down gracefully on stdin EOF, so if
    /// this process dies the daemon follows.
    _stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// The telemetry endpoint, when started with `--metrics`.
    pub metrics_addr: Option<SocketAddr>,
}

fn read_tagged(out: &mut BufReader<ChildStdout>, tag: &str) -> Result<SocketAddr, String> {
    let mut line = String::new();
    if out.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
        return Err(format!("daemon exited before printing {tag}"));
    }
    line.trim()
        .strip_prefix(tag)
        .and_then(|a| a.trim().parse().ok())
        .ok_or_else(|| format!("unexpected daemon output {line:?}"))
}

impl Daemon {
    /// Starts the daemon on `home` with its defaults (per-op fsync,
    /// snapshot every 1024 logged ops, metrics registry on, no HTTP
    /// endpoint) and an ephemeral port; with `metrics_endpoint` it also
    /// serves `/metrics` on an ephemeral port. Returns once the daemon
    /// prints `LISTENING`, with the time that took.
    pub fn spawn(
        bin: &Path,
        home: &Home,
        metrics_endpoint: bool,
    ) -> Result<(Daemon, Duration), String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--dir")
            .arg(home.path())
            .arg("--bind")
            .arg("127.0.0.1:0");
        if metrics_endpoint {
            cmd.arg("--metrics").arg("127.0.0.1:0");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let reap = |mut child: Child, e: String| {
            let _ = child.kill();
            let _ = child.wait();
            e
        };
        let addr = match read_tagged(&mut stdout, "LISTENING") {
            Ok(a) => a,
            Err(e) => return Err(reap(child, e)),
        };
        let elapsed = started.elapsed();
        let metrics_addr = if metrics_endpoint {
            match read_tagged(&mut stdout, "METRICS") {
                Ok(a) => Some(a),
                Err(e) => return Err(reap(child, e)),
            }
        } else {
            None
        };
        Ok((
            Daemon {
                child,
                _stdin: stdin,
                _stdout: stdout,
                addr,
                metrics_addr,
            },
            elapsed,
        ))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time (user plus system) the daemon's live threads have
    /// used, in seconds, summed from `/proc/<pid>/task/*/schedstat`:
    /// nanosecond resolution, where `/proc/<pid>/stat` counts 10 ms
    /// ticks. Callers take differences across a window in which no
    /// daemon thread exits.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let mut ns: u64 = 0;
        for task in std::fs::read_dir(&dir).map_err(|e| format!("reading {dir}: {e}"))? {
            let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
            // A thread that exits between listing and reading is gone.
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            ns += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("malformed {}", path.display()))?;
        }
        Ok(ns as f64 / 1e9)
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// The daemon's `/metrics` exposition (traced runs only).
    pub fn scrape(&self) -> Result<String, String> {
        let addr = self.metrics_addr.ok_or("daemon has no metrics endpoint")?;
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        s.read_to_string(&mut body).map_err(|e| e.to_string())?;
        body.split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .ok_or_else(|| "malformed /metrics response".to_string())
    }

    /// `kill -9` and reap: the crash the restart measurements start from.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns the daemon on a copy of `home` and times it to `LISTENING`,
/// `copies` times; returns the times in seconds. Copies are removed
/// and daemons reaped before this returns.
pub fn time_restarts(bin: &Path, home: &Home, copies: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(copies);
    for i in 0..copies {
        let copy = home
            .copy_as(&format!("{}-restart{i}", name_of(home)))
            .map_err(|e| format!("copying home: {e}"))?;
        let (daemon, elapsed) = Daemon::spawn(bin, &copy, false)?;
        daemon.kill();
        out.push(elapsed.as_secs_f64());
    }
    Ok(out)
}

fn name_of(home: &Home) -> String {
    home.path()
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}
