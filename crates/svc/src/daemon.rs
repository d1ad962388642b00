//! `wsflowd`: the TCP daemon serving the `wsflow-proto/1` protocol.
//!
//! One connection = one request. A connection thread takes the turn to
//! accept, blocks in `accept`, hands the turn on, and serves the
//! connection it got, with Nagle's algorithm off (the daemon writes
//! several small frames per request): it decodes the [`Request`],
//! materialises the problem, and submits it to the shared
//! [`Scheduler`]; incumbents stream back as they are found, then the
//! final frame, then the server closes.
//!
//! The connection threads are reused (leader/follower). The turn is a
//! mutex that owns the listener, so one thread at a time accepts. The
//! thread that accepts a connection releases the turn and spawns a
//! successor only if no other thread is waiting for the turn. After
//! serving, it waits for the turn again while fewer than
//! `MAX_WAITING` (two) threads do, and exits otherwise. Under sequential
//! load two or three threads take turns and no thread is spawned per
//! request; a client that connects and never sends holds one thread,
//! not the turn.
//!
//! The network is fixed infrastructure while workflows change, so
//! clients tend to send the same inline pool again and again. The daemon
//! keeps one [`PoolMemo`]: the routed network of the last inline pool
//! it built, keyed by the exact bits of the spec's `server_ghz` and
//! `bus_mbps`. A request for that pool skips the bus build, the
//! all-pairs routing and the communication-coefficient matrix, which
//! on a 150-server pool are most of a request's work. The key is the
//! network builder's whole input, so an entry never goes stale and needs
//! no invalidation; one slot bounds the memo to one pool's network.
//! Generated specs never consult it.
//!
//! [`DaemonHandle::shutdown`] sets a stop flag and then wakes the
//! blocked `accept` by connecting to the daemon's own address; the
//! thread drops that connection unserviced and exits, as does every
//! thread that gets the turn after it. Shutdown then takes the turn
//! itself and closes the listener, so the port is closed when it
//! returns, even while a thread still waits for a silent client's
//! request. If the wake-up connect fails, shutdown does not wait for
//! the turn, so it never hangs.
//!
//! There is no monitor thread. While its job is queued or solving, the
//! connection thread waits on the job's event channel, and once every
//! `PEER_CHECK_INTERVAL` (10 ms), whether or not events are arriving,
//! it peeks the socket without blocking. The client never sends a
//! second frame, so EOF, an error or any extra byte means it went away:
//! the thread fires the job's [`CancelToken`] and the solver returns its
//! best incumbent early. A disconnect thus cancels the solve within one
//! interval, plus the solver's own cancel-poll latency. A failed reply
//! write cancels too. At the same check the thread sees a daemon
//! shutdown, cancels the solve and closes the connection. Malformed frames
//! get a best-effort [`Reply::ProtocolError`] before the connection
//! closes; nothing a client sends can panic the daemon.

use std::io::{ErrorKind, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wsflow_core::CancelToken;

use crate::config::SvcConfig;
use crate::proto::{self, ProblemSpec, Reply, Request};
use crate::sched::{Job, JobEvent, Scheduler};
use crate::{resolve_algorithm, PoolMemo};

/// Longest a connection thread waits on its job before it checks the
/// client and the stop flag again.
const PEER_CHECK_INTERVAL: Duration = Duration::from_millis(10);

/// How long [`DaemonHandle::shutdown`] tries to connect to its own
/// listener to wake the blocked `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// A connection thread that has served its connection waits for the
/// turn again while fewer than this many threads wait; otherwise it
/// exits. One waiting thread takes the next connection; the other is a
/// spare for a client that reconnects before the thread that served its
/// previous request is back. More idle threads would only hold memory.
const MAX_WAITING: usize = 2;

/// Most solver workers a daemon starts: each is an OS thread started
/// with the daemon, and CPU-bound solves gain nothing past the cores.
/// The bound keeps a mistyped `--workers` from starting thousands.
pub const MAX_WORKERS: usize = 256;

/// Largest per-tenant queue bound. A queued request holds its
/// connection thread, so the service-wide bound (8× this) caps those
/// threads at 8 192, and the product cannot overflow.
pub const MAX_QUEUE: usize = 1024;

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
            svc: SvcConfig::default(),
            port: crate::config::port_from_env(),
        }
    }
}

/// What the connection threads share.
struct Shared {
    scheduler: Scheduler,
    stop: AtomicBool,
    pools: PoolMemo,
    /// The turn to accept: its holder alone blocks in `accept`. `None`
    /// once shutdown has closed the listener. Nothing panics while
    /// holding it and `take` is its only update, so a poisoned turn is
    /// still valid.
    turn: Mutex<Option<TcpListener>>,
    /// Threads waiting for the turn, counting a spawned thread from its
    /// spawn until it holds the turn.
    waiting: AtomicUsize,
}

/// A running daemon; dropping it (or calling
/// [`shutdown`](Self::shutdown)) closes the listener and joins the
/// worker pool.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl DaemonHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.scheduler.queue_depth()
    }

    /// Stop accepting connections, close the listener, cancel in-flight
    /// solves and close their connections, and join the worker pool.
    pub fn shutdown(&mut self) {
        let shared = &self.shared;
        if !shared.stop.swap(true, Ordering::SeqCst) {
            // Wake the thread blocked in `accept` so it sees the flag,
            // then take the turn and close the listener. If the connect
            // fails, the turn may never come back: leave the threads.
            if TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT).is_ok() {
                shared
                    .turn
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
            }
        }
        shared.scheduler.shutdown();
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind, start the scheduler, and spawn the first connection thread.
/// The daemon's threads record into the calling thread's recorder, if
/// it has one.
pub fn spawn(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        scheduler: Scheduler::start(&cfg.svc),
        stop: AtomicBool::new(false),
        pools: PoolMemo::default(),
        turn: Mutex::new(Some(listener)),
        waiting: AtomicUsize::new(1),
    });
    spawn_conn_thread(&shared)?;
    Ok(DaemonHandle { addr, shared })
}

/// Spawn a connection thread, already counted in `waiting`, and count
/// it in `svc.conn_threads`.
fn spawn_conn_thread(shared: &Arc<Shared>) -> std::io::Result<()> {
    let shared = Arc::clone(shared);
    let obs = wsflow_obs::capture();
    std::thread::Builder::new()
        .name("wsflowd-conn".to_string())
        .spawn(move || {
            let _obs = obs.adopt();
            conn_thread(&shared)
        })?;
    wsflow_obs::counter_add("svc.conn_threads", 1);
    Ok(())
}

/// Take turns accepting and serve each connection accepted, until the
/// daemon stops or enough other threads wait for the turn.
fn conn_thread(shared: &Arc<Shared>) {
    while let Some(stream) = accept_turn(shared) {
        // Hand on the turn: with no thread waiting, nobody would accept
        // the next connection while this one is served.
        if shared
            .waiting
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
            && spawn_conn_thread(shared).is_err()
        {
            shared.waiting.fetch_sub(1, Ordering::SeqCst);
        }
        handle_connection(stream, &shared.scheduler, &shared.stop, &shared.pools);
        let rejoin = shared
            .waiting
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                (w < MAX_WAITING).then_some(w + 1)
            });
        if rejoin.is_err() {
            return;
        }
    }
}

/// Wait for the turn (the caller is counted in `waiting`) and accept
/// one connection with it. `None` once the daemon is stopping.
fn accept_turn(shared: &Shared) -> Option<TcpStream> {
    let turn = shared.turn.lock().unwrap_or_else(PoisonError::into_inner);
    shared.waiting.fetch_sub(1, Ordering::SeqCst);
    let listener = turn.as_ref()?;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return None;
        }
        match accept(listener) {
            // `shutdown` sets the flag before its wake-up connect, so
            // that connection (or any that raced it) is dropped
            // unserviced.
            Ok(stream) => return (!shared.stop.load(Ordering::SeqCst)).then_some(stream),
            // E.g. out of file descriptors: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Accept one connection, ready to be serviced: blocking, and with
/// Nagle's algorithm off so every reply frame leaves at once.
fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _peer) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Whether the client is still connected, by a nonblocking 1-byte peek.
/// The client sends nothing after its request, so EOF, an error or any
/// extra byte all mean it is gone; only `WouldBlock` means it is there.
fn peer_alive(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let alive = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && alive
}

/// Best-effort reply; the peer may already be gone.
fn try_reply(stream: &mut TcpStream, reply: &Reply) {
    let _ = proto::write_frame(stream, reply);
    let _ = stream.flush();
}

fn handle_connection(
    mut stream: TcpStream,
    scheduler: &Scheduler,
    stop: &AtomicBool,
    pools: &PoolMemo,
) {
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
    let problem = match pools.problem(&request.spec) {
        Ok(p) => p,
        Err(message) => {
            try_reply(&mut stream, &Reply::Invalid { message });
            return;
        }
    };

    // 3. Submit and stream replies, checking between events that the
    //    client is still there and the daemon still running.
    let cancel = CancelToken::new();
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
    let mut next_check = Instant::now() + PEER_CHECK_INTERVAL;
    loop {
        match rx.recv_timeout(next_check.saturating_duration_since(Instant::now())) {
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
            Err(RecvTimeoutError::Timeout) => {}
            // Scheduler shut down with the job still queued.
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let now = Instant::now();
        if now >= next_check {
            next_check = now + PEER_CHECK_INTERVAL;
            if stop.load(Ordering::SeqCst) {
                // Daemon shutting down: free the worker and hang up.
                cancel.cancel();
                return;
            }
            if !peer_alive(&stream) {
                cancel.cancel();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected `(client, server)` pair, the server end taken through
    /// the daemon's accept path.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let server = accept(&listener).unwrap();
        (client, server)
    }

    /// Poll `peer_alive` until it reports `false` (or panic after 5 s).
    fn wait_gone(server: &TcpStream) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while peer_alive(server) {
            assert!(Instant::now() < deadline, "peer still reported alive");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn accepted_streams_have_nagle_off() {
        let (_client, server) = pair();
        assert!(server.nodelay().unwrap());
    }

    #[test]
    fn peer_check_reports_an_open_idle_socket_alive() {
        let (_client, server) = pair();
        assert!(peer_alive(&server));
        // The check leaves the stream blocking: a read with a timeout
        // waits out the timeout instead of failing at once.
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let t0 = Instant::now();
        assert!(std::io::Read::read(&mut &server, &mut [0u8; 1]).is_err());
        assert!(t0.elapsed() >= Duration::from_millis(40));
        assert!(peer_alive(&server), "a second check still sees the peer");
    }

    #[test]
    fn peer_check_reports_gone_after_the_peer_hangs_up() {
        let (client, server) = pair();
        drop(client);
        wait_gone(&server);
    }

    #[test]
    fn peer_check_reports_gone_after_an_extra_byte() {
        let (mut client, server) = pair();
        client.write_all(&[0]).unwrap();
        wait_gone(&server);
        assert!(!peer_alive(&server), "the peeked byte stays unread");
    }
}
