//! Launching the real `wsflowd` and reading its kernel accounting.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a launch may take before the run fails.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const CLK_TCK: f64 = 100.0;

/// A running daemon; dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Start `binary` on an ephemeral port with one solver worker and a
    /// single-threaded solver, and return it with the time from exec to
    /// its port file holding a port (the set-up time).
    pub fn launch(binary: &Path, dir: &Path) -> Result<(Self, Duration), String> {
        let port_file = dir.join("wsflowd.port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(dir.join("wsflowd.log"))
            .map_err(|e| format!("creating the daemon log in {}: {e}", dir.display()))?;
        let start = Instant::now();
        let child = Command::new(binary)
            .args(["--port", "0", "--workers", "1", "--port-file"])
            .arg(&port_file)
            .env("WSFLOW_THREADS", "1")
            .env("WSFLOW_OBS", "0")
            .env_remove("WSFLOW_SVC_WORKERS")
            .env_remove("WSFLOW_SVC_QUEUE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", binary.display()))?;
        // From here on the guard owns the process.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            if let Some(port) = read_port(&port_file) {
                daemon.addr.set_port(port);
                return Ok((daemon, start.elapsed()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("wsflowd exited during start-up: {status}"));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err("wsflowd wrote no port file within 20 s".to_string());
            }
            // Spin rather than sleep: a sleeping poller adds its own
            // wake-up latency (tens to hundreds of microseconds on a VM)
            // to a start-up that takes one to two milliseconds.
            std::thread::yield_now();
        }
    }

    /// Where the daemon listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// User + system CPU the daemon has used so far, exited threads
    /// included (the kernel folds them into the process totals).
    pub fn cpu(&self) -> Result<Duration, String> {
        let path = proc_path(self.child.id(), "stat");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        // Fields after the parenthesised command name start at field 3.
        let rest = &text[text.rfind(')').ok_or("malformed /proc stat")? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        // utime is field 14 and stime field 15, i.e. 11 and 12 here.
        Ok(Duration::from_secs_f64((ticks(11)? + ticks(12)?) / CLK_TCK))
    }

    /// Peak resident set size in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = proc_path(self.child.id(), "status");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn proc_path(pid: u32, file: &str) -> PathBuf {
    PathBuf::from(format!("/proc/{pid}/{file}"))
}

fn read_port(path: &Path) -> Option<u16> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.strip_suffix('\n')?;
    line.parse().ok().filter(|&p| p != 0)
}
