//! Building and spawning the shipped `tasd-serve` binary, and reading what the kernel
//! knows about it and about the host (`/proc`).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tasd_serve::{Client, ControlOp, Frame, StatsReport};

/// Builds `tasd-serve` from the checkout with the repository's own workspace and
/// release profile, returning the binary's path.
pub fn build_server() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "tasd-serve",
            "--bin",
            "tasd-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tasd-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let binary = target.join("release").join("tasd-serve");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// A running `tasd-serve` child. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Held open so the server's own stdout lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the binary with `--addr` only, so it runs on the defaults users get,
    /// and waits for its listening line.
    pub fn spawn(binary: &PathBuf) -> Result<ServerProc, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|text| text.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("tasd-serve did not report its address: {line:?}"))
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's `Stats` control frame.
    pub fn stats(&self) -> Result<StatsReport, String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        client
            .control(ControlOp::Stats)
            .map_err(|e| e.to_string())?;
        match client.recv() {
            Ok(Some(Frame::Stats(report))) => Ok(report),
            other => Err(format!("no Stats frame: {other:?}")),
        }
    }

    /// Sends `Shutdown` and waits for a clean exit, killing the process after 10 s.
    pub fn stop(mut self) -> Result<(), String> {
        if let Ok(mut client) = Client::connect(self.addr) {
            let _ = client.control(ControlOp::Shutdown);
            while let Ok(Some(frame)) = client.recv() {
                if matches!(frame, Frame::ControlAck(ControlOp::Shutdown)) {
                    break;
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("tasd-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("tasd-serve did not stop within 10 s".to_string()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What `/proc` says about the server process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all its threads, dead ones included, in clock ticks.
    pub cpu_ticks: u64,
    /// Voluntary + involuntary context switches of its live threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
    /// Peak resident set (`VmHWM`), kB.
    pub hwm_kb: u64,
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_S: f64 = 100.0;

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Samples `/proc/<pid>`; missing files read as zeros.
pub fn sample_proc(pid: u32) -> ProcSample {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are fields 14, 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<u64> = after
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let cpu_ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let mut ctx_switches = 0;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let text = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx_switches += status_field(&text, "voluntary_ctxt_switches:")
                + status_field(&text, "nonvoluntary_ctxt_switches:");
        }
    }
    ProcSample {
        cpu_ticks,
        ctx_switches,
        threads: status_field(&status, "Threads:"),
        hwm_kb: status_field(&status, "VmHWM:"),
    }
}

/// Host-wide CPU time counters from `/proc/stat`: `(steal, total)` in ticks.
pub fn host_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is inside user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Steal time between two [`host_ticks`] readings, percent of all CPU time.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}
