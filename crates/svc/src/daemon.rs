//! `wsflowd`: the TCP daemon serving the `wsflow-proto/1` protocol.
//!
//! One connection = one request. The accept loop hands each connection
//! to a thread that decodes the [`Request`], materialises the problem,
//! and submits it to the shared [`Scheduler`]; incumbents stream back
//! as they are found, then the final frame, then the server closes.
//!
//! A second *monitor* thread per connection blocks reading the socket:
//! the client never sends a second frame, so any read completion means
//! the client went away — the monitor fires the job's
//! [`CancelToken`](wsflow_core::CancelToken) and the solver returns its
//! best incumbent early. Malformed frames get a best-effort
//! [`Reply::ProtocolError`] before the connection closes; nothing a
//! client sends can panic the daemon.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wsflow_core::CancelToken;

use crate::config::SvcConfig;
use crate::proto::{self, ProblemSpec, Reply, Request};
use crate::sched::{Job, JobEvent, SchedStats, Scheduler};
use crate::{build_problem, resolve_algorithm};

/// How the daemon binds and schedules.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Scheduler sizing and fairness.
    pub svc: SvcConfig,
    /// TCP port to bind on 127.0.0.1 (0 = OS-assigned ephemeral port).
    pub port: u16,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            svc: SvcConfig::from_env(),
            port: crate::config::port_from_env(),
        }
    }
}

/// A running daemon; dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and joins the
/// worker pool.
pub struct DaemonHandle {
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Always-on scheduling counters, for tests and smoke checks.
    pub fn stats(&self) -> &SchedStats {
        self.scheduler.stats()
    }

    /// `(admitted, rejected, completed, cancelled, failed)`.
    pub fn stats_snapshot(&self) -> (u64, u64, u64, u64, u64) {
        self.scheduler.stats_snapshot()
    }

    /// Jobs admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.queue_depth()
    }

    /// Stop accepting connections and join the accept loop and worker
    /// pool. In-flight connection threads finish on their own.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.scheduler.shutdown();
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind, start the scheduler, and spawn the accept loop.
pub fn spawn(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    // Nonblocking accept so the loop can poll the stop flag.
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let scheduler = Arc::new(Scheduler::start(&cfg.svc));
    let stop = Arc::new(AtomicBool::new(false));

    let accept_thread = {
        let scheduler = Arc::clone(&scheduler);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("wsflowd-accept".to_string())
            .spawn(move || accept_loop(listener, &scheduler, &stop))?
    };

    Ok(DaemonHandle {
        addr,
        scheduler,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: TcpListener, scheduler: &Arc<Scheduler>, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The connection itself is serviced blocking.
                let _ = stream.set_nonblocking(false);
                let scheduler = Arc::clone(scheduler);
                let _ = std::thread::Builder::new()
                    .name("wsflowd-conn".to_string())
                    .spawn(move || handle_connection(stream, &scheduler));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Best-effort reply; the peer may already be gone.
fn try_reply(stream: &mut TcpStream, reply: &Reply) {
    let _ = proto::write_frame(stream, reply);
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, scheduler: &Scheduler) {
    // 1. Exactly one request frame.
    let request: Request = match proto::read_message(&mut stream) {
        Ok(Some(req)) => req,
        Ok(None) => return, // client connected and left
        Err(e) => {
            try_reply(
                &mut stream,
                &Reply::ProtocolError {
                    message: e.to_string(),
                },
            );
            return;
        }
    };

    // 2. Validate. The algorithm seed comes from the spec so both ends
    //    of a Generated spec agree on the randomised members.
    let seed = match &request.spec {
        ProblemSpec::Generated { seed, .. } => *seed,
        ProblemSpec::Inline { .. } => 0,
    };
    let Some(algo) = resolve_algorithm(&request.algo, seed) else {
        try_reply(
            &mut stream,
            &Reply::Invalid {
                message: format!(
                    "unknown algorithm {:?} (expected one of {})",
                    request.algo,
                    crate::ALGORITHM_NAMES.join(", ")
                ),
            },
        );
        return;
    };
    let problem = match build_problem(&request.spec) {
        Ok(p) => p,
        Err(message) => {
            try_reply(&mut stream, &Reply::Invalid { message });
            return;
        }
    };

    // 3. Monitor: the client sends nothing after the request, so any
    //    read completion (EOF or error) means it disconnected — cancel
    //    the solve. The monitor exits on its own once either side
    //    closes the socket.
    let cancel = CancelToken::new();
    if let Ok(mut monitor_stream) = stream.try_clone() {
        let token = cancel.clone();
        let _ = std::thread::Builder::new()
            .name("wsflowd-monitor".to_string())
            .spawn(move || {
                let mut buf = [0u8; 1];
                use std::io::Read as _;
                let _ = monitor_stream.read(&mut buf); // blocks until EOF/err
                token.cancel();
            });
    }

    // 4. Submit and stream replies.
    let (tx, rx) = std::sync::mpsc::channel();
    let job = Job::new(
        request.tenant,
        algo,
        problem,
        request.budget,
        request.deadline_ms.map(Duration::from_millis),
        cancel.clone(),
        tx,
    );
    if let Err(reason) = scheduler.submit(job) {
        try_reply(&mut stream, &Reply::Rejected(reason));
        return;
    }
    loop {
        match rx.recv() {
            Ok(JobEvent::Incumbent { seq, cost }) => {
                if proto::write_frame(&mut stream, &Reply::Incumbent { seq, cost }).is_err() {
                    // Client gone mid-stream: stop the solve, then keep
                    // draining so the worker's sends never pile up.
                    cancel.cancel();
                }
            }
            Ok(JobEvent::Done(report)) => {
                try_reply(
                    &mut stream,
                    &Reply::Done {
                        cost: report.cost,
                        steps: report.steps,
                        termination: report.termination.name().to_string(),
                        mapping: report.mapping,
                        queue_wait_us: report.queue_wait.as_micros() as u64,
                    },
                );
                return;
            }
            Ok(JobEvent::Failed(message)) => {
                try_reply(&mut stream, &Reply::Invalid { message });
                return;
            }
            // Scheduler shut down with the job still queued.
            Err(_) => return,
        }
    }
}

/// Entry point for the `wsflowd` binary.
///
/// Flags: `--port N` (default `WSFLOW_SVC_PORT` or 7407), `--port-file
/// PATH` (write the bound port for scripts; essential with `--port 0`),
/// `--workers N`, `--queue N`. Blocks until killed.
pub fn run_from_args(args: &[String]) -> Result<(), String> {
    let mut cfg = DaemonConfig::default();
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--port" => {
                cfg.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--port-file" => port_file = Some(value("--port-file")?),
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                cfg.svc = cfg.svc.with_workers(n);
            }
            "--queue" => {
                let n: usize = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
                let cap = n.max(1);
                cfg.svc = cfg.svc.with_queue_caps(cap, cap * 8);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let handle = spawn(cfg).map_err(|e| format!("bind failed: {e}"))?;
    eprintln!("wsflowd listening on {}", handle.addr());
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", handle.addr().port()))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    loop {
        std::thread::park();
    }
}
