//! End-to-end loopback tests: a real `wsflowd` daemon on an ephemeral
//! port, exercised by real TCP clients.
//!
//! Covers the service acceptance criteria: concurrent clients receive
//! monotonically improving incumbent streams and a final outcome; a
//! client that disconnects while queued cancels its server-side solve
//! (observed in the `svc.cancelled` counter of the daemon's recorder); a
//! saturated queue answers with typed backpressure; malformed frames
//! get a `protocol_error` reply, never a crash; shutdown is prompt and
//! hangs up on in-flight clients; a repeated inline pool, reused from
//! the daemon's pool memo, gives the replies a fresh build would; a
//! client that connects and never sends stalls neither later requests
//! nor shutdown; sequential requests reuse the connection threads.

use std::io::Write as _;
use std::net::TcpStream;
use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

use wsflow_svc::daemon::{spawn, DaemonConfig, DaemonHandle};
use wsflow_svc::proto::{self, ProblemSpec, RejectReason, Reply, Request};
use wsflow_svc::{build_problem, resolve_algorithm, submit, ClientError, SvcConfig};

/// A daemon started under a recorder of its own.
struct Daemon {
    handle: DaemonHandle,
    rec: wsflow_obs::Recorder,
}

impl Daemon {
    /// `(admitted, rejected, completed, cancelled, failed)`, from the
    /// `svc.*` counters of the daemon's recorder.
    fn stats(&self) -> (u64, u64, u64, u64, u64) {
        let snap = self.rec.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        (
            c("svc.admitted"),
            c("svc.rejected"),
            c("svc.completed"),
            c("svc.cancelled"),
            c("svc.failed"),
        )
    }

    /// Connection threads the daemon has spawned (`svc.conn_threads`).
    fn conn_threads(&self) -> u64 {
        self.rec.snapshot().counter("svc.conn_threads").unwrap_or(0)
    }
}

impl Deref for Daemon {
    type Target = DaemonHandle;
    fn deref(&self) -> &DaemonHandle {
        &self.handle
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut DaemonHandle {
        &mut self.handle
    }
}

fn daemon_with(workers: usize, per_tenant: usize, total: usize) -> Daemon {
    let rec = wsflow_obs::Recorder::new();
    let _obs = rec.install();
    let handle = spawn(DaemonConfig {
        svc: SvcConfig::default()
            .with_workers(workers)
            .with_queue_caps(per_tenant, total),
        port: 0,
    })
    .expect("bind ephemeral port");
    Daemon { handle, rec }
}

fn request(tenant: &str, algo: &str, ops: u32, seed: u64, budget: Option<u64>) -> Request {
    Request {
        tenant: tenant.to_string(),
        algo: algo.to_string(),
        budget,
        deadline_ms: None,
        spec: ProblemSpec::Generated {
            shape: "line".into(),
            ops,
            servers: 3,
            bus_mbps: 100.0,
            seed,
        },
    }
}

/// Block until `pred` on the daemon holds (or panic after 60 s).
fn wait_until(daemon: &Daemon, what: &str, pred: impl Fn(&Daemon) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if pred(daemon) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "timed out waiting for {what}; stats {:?}, queue depth {}",
        daemon.stats(),
        daemon.queue_depth()
    );
}

/// Block until `pred` on the stats snapshot holds (or panic after 60 s).
fn wait_stats(daemon: &Daemon, what: &str, pred: impl Fn((u64, u64, u64, u64, u64)) -> bool) {
    wait_until(daemon, what, |d| pred(d.stats()));
}

#[test]
fn concurrent_clients_stream_improving_incumbents_then_final() {
    let daemon = daemon_with(2, 16, 64);
    let addr = daemon.addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let req = request(["gold", "silver"][i % 2], "portfolio", 10, i as u64, None);
                submit(addr, &req, |_, _| {}).expect("submit succeeds")
            })
        })
        .collect();
    for handle in handles {
        let out = handle.join().expect("client thread");
        assert!(!out.incumbents.is_empty(), "incumbents must stream");
        // Ordinals count up; costs strictly improve.
        for (i, (seq, _)) in out.incumbents.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        let costs: Vec<f64> = out.incumbents.iter().map(|(_, c)| *c).collect();
        assert!(costs.windows(2).all(|w| w[1] < w[0]), "costs {costs:?}");
        assert_eq!(out.cost, *costs.last().unwrap());
        assert_eq!(out.mapping.len(), 10);
        assert_eq!(out.termination, "converged");
    }
    let (admitted, rejected, completed, cancelled, failed) = daemon.stats();
    assert_eq!((admitted, completed), (4, 4));
    assert_eq!((rejected, cancelled, failed), (0, 0, 0));
}

/// An exhaustive scan of 10⁷ mappings (7 ops × 10 servers, the
/// enumeration limit): hundreds of milliseconds of solving even in
/// release builds.
fn scan_request(tenant: &str) -> Request {
    let mut req = request(tenant, "exhaustive", 7, 0, None);
    if let ProblemSpec::Generated { servers, .. } = &mut req.spec {
        *servers = 10;
    }
    req
}

/// A client whose solve holds the daemon's only worker until the test
/// releases it.
struct Blocker(TcpStream);

impl Blocker {
    /// Submit a [`scan_request`] and wait until a worker has taken it
    /// off the queue, so everything submitted afterwards queues behind
    /// it. The test ends the scan early with [`release`](Self::release).
    fn hold(daemon: &Daemon) -> Self {
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        proto::write_frame(&mut stream, &scan_request("blocker")).unwrap();
        wait_until(daemon, "the blocker to reach a worker", |d| {
            d.stats().0 == 1 && d.queue_depth() == 0
        });
        Self(stream)
    }

    /// Disconnect: the daemon cancels the scan and frees the worker.
    fn release(self) {
        drop(self.0);
    }
}

#[test]
fn disconnect_while_queued_cancels_the_server_side_solve() {
    let daemon = daemon_with(1, 16, 64);
    let addr = daemon.addr();
    let blocker = Blocker::hold(&daemon);

    // Three victims: submit, then hang up without reading a byte. Their
    // connection threads' peer checks observe EOF and fire the cancel
    // tokens, usually while the jobs are still queued behind the
    // blocker. A check runs once per 10 ms, so a victim may start before
    // its check; its scan outlasts that by far and is cancelled anyway.
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        proto::write_frame(&mut stream, &scan_request("impatient")).unwrap();
        drop(stream);
    }
    wait_stats(&daemon, "victims admitted", |(admitted, ..)| admitted == 4);
    // The blocker hangs up too, so its scan is the fourth cancellation.
    blocker.release();
    wait_stats(&daemon, "all four serviced", |(_, _, completed, ..)| {
        completed == 4
    });
    let (_, _, _, cancelled, failed) = daemon.stats();
    assert_eq!(
        cancelled, 4,
        "every disconnected client's solve must observe Cancelled"
    );
    assert_eq!(failed, 0);
}

#[test]
fn saturated_queue_answers_with_typed_backpressure() {
    let daemon = daemon_with(1, 1, 3);
    let addr = daemon.addr();
    let blocker = Blocker::hold(&daemon);

    // Submissions are sequenced against the admitted/rejected counters
    // so each admission is visible before the next request lands.
    let mut keep_alive = Vec::new();
    let mut queue_one = |tenant: &str, seed: u64, admitted_target: u64| {
        let mut stream = TcpStream::connect(addr).unwrap();
        proto::write_frame(&mut stream, &request(tenant, "fairload", 8, seed, None)).unwrap();
        wait_stats(&daemon, "admission", |(admitted, ..)| {
            admitted == admitted_target
        });
        keep_alive.push(stream);
    };
    queue_one("b", 10, 2); // queue depth 1

    let reject_of = |tenant: &str, seed: u64| -> RejectReason {
        let mut stream = TcpStream::connect(addr).unwrap();
        proto::write_frame(&mut stream, &request(tenant, "fairload", 8, seed, None)).unwrap();
        match proto::read_message::<Reply>(&mut stream).unwrap() {
            Some(Reply::Rejected(reason)) => reason,
            other => panic!("expected Rejected, got {other:?}"),
        }
    };
    // Tenant "b" is at its per-tenant bound while the service still has
    // room: the per-tenant reason surfaces.
    assert_eq!(reject_of("b", 12), RejectReason::TenantQueueFull { cap: 1 });
    // Fill the service-wide bound with other tenants; a stranger then
    // hits the global reason.
    queue_one("c", 11, 3); // queue depth 2
    queue_one("d", 14, 4); // queue depth 3 = total cap
    assert_eq!(
        reject_of("e", 13),
        RejectReason::ServiceQueueFull { cap: 3 }
    );

    // The queued clients drain normally once the blocker lets go.
    blocker.release();
    for mut stream in keep_alive {
        loop {
            match proto::read_message::<Reply>(&mut stream).unwrap() {
                Some(Reply::Done { mapping, .. }) => {
                    assert_eq!(mapping.len(), 8);
                    break;
                }
                Some(Reply::Incumbent { .. }) => {}
                other => panic!("expected Incumbent/Done, got {other:?}"),
            }
        }
    }
    let (admitted, rejected, completed, _, failed) = daemon.stats();
    assert_eq!((admitted, rejected), (4, 2));
    assert_eq!(completed, 4);
    assert_eq!(failed, 0);
}

#[test]
fn malformed_frames_get_a_protocol_error_reply_and_close() {
    let daemon = daemon_with(1, 4, 8);
    let addr = daemon.addr();

    // Garbage bytes: bad magic. (Exactly one header's worth — if the
    // server closed with unread bytes pending, TCP would RST instead of
    // FIN and the close couldn't be observed as a clean EOF below.)
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET / HT").unwrap();
    match proto::read_message::<Reply>(&mut stream).unwrap() {
        Some(Reply::ProtocolError { message }) => assert!(message.contains("magic")),
        other => panic!("expected ProtocolError, got {other:?}"),
    }
    // ...and the server closes after the error frame.
    assert_eq!(proto::read_message::<Reply>(&mut stream).unwrap(), None);

    // Unknown protocol version: a full header claiming version 9. The
    // decoder rejects on the version byte, before the length field
    // means anything.
    let mut header = proto::encode_frame(&request("t", "fairload", 8, 1, None)).unwrap();
    header.truncate(proto::HEADER_LEN);
    header[2] = 9;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&header).unwrap();
    match proto::read_message::<Reply>(&mut stream).unwrap() {
        Some(Reply::ProtocolError { message }) => assert!(message.contains("version")),
        other => panic!("expected ProtocolError, got {other:?}"),
    }
    assert_eq!(proto::read_message::<Reply>(&mut stream).unwrap(), None);

    // A connect-and-leave is not an error; the daemon stays healthy.
    drop(TcpStream::connect(addr).unwrap());

    // Well-framed but unusable: unknown algorithm.
    let err = submit(addr, &request("t", "magic", 8, 1, None), |_, _| {}).unwrap_err();
    assert!(matches!(err, ClientError::Invalid(m) if m.contains("magic")));

    // The daemon still serves real work afterwards.
    let out = submit(addr, &request("t", "portfolio", 8, 1, None), |_, _| {}).unwrap();
    assert_eq!(out.mapping.len(), 8);
}

/// Run `f` on a thread of its own and return its result, or panic if
/// it takes longer than `limit`: a hang fails the test instead of
/// stalling the suite.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("did not return within {limit:?}"))
}

#[test]
fn shutdown_with_no_client_is_prompt_and_admits_nothing_after() {
    let mut daemon = daemon_with(1, 4, 8);
    let addr = daemon.addr();
    let daemon = within(Duration::from_secs(1), move || {
        daemon.shutdown();
        daemon
    });
    // The listener is gone: a request either cannot connect or is
    // closed unanswered.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = proto::write_frame(&mut stream, &request("late", "fairload", 8, 1, None));
        assert!(!matches!(
            proto::read_message::<Reply>(&mut stream),
            Ok(Some(_))
        ));
    }
    assert_eq!(daemon.stats(), (0, 0, 0, 0, 0));

    // Dropping an idle daemon is just as prompt.
    let daemon = daemon_with(1, 4, 8);
    within(Duration::from_secs(1), move || drop(daemon));
}

#[test]
fn dropping_the_daemon_mid_solve_hangs_up_on_the_client() {
    let daemon = daemon_with(1, 4, 8);
    let Blocker(mut stream) = Blocker::hold(&daemon);
    // Dropping the daemon cancels the scan rather than waiting it out.
    within(Duration::from_secs(5), move || drop(daemon));
    // The client sees the connection close, never a final frame and
    // never a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loop {
        match proto::read_message::<Reply>(&mut stream) {
            Ok(Some(Reply::Incumbent { .. })) => {}
            Ok(None) => break,
            other => panic!("expected incumbents then a close, got {other:?}"),
        }
    }
}

/// A 40-op hybrid workflow on a 30-server pool whose ratings step by
/// `step_ghz`.
fn inline_request(step_ghz: f64, seed: u64) -> Request {
    let class = wsflow_workload::ExperimentClass::class_c();
    let wf = wsflow_workload::random_graph_workflow(
        "w",
        40,
        wsflow_workload::GraphClass::Hybrid,
        &class,
        seed,
    );
    Request {
        tenant: "pool".into(),
        algo: "fairload".into(),
        budget: None,
        deadline_ms: None,
        spec: ProblemSpec::Inline {
            workflow: wsflow_model::dsl::serialize(&wf),
            server_ghz: (0..30).map(|i| 1.0 + step_ghz * (i % 7) as f64).collect(),
            bus_mbps: 100.0,
        },
    }
}

#[test]
fn a_repeated_inline_pool_replies_as_a_fresh_build_does() {
    let daemon = daemon_with(1, 16, 64);
    let a = inline_request(0.25, 11);
    let b = inline_request(0.5, 12);
    // `a`'s pool three times, another pool between the second and third.
    for req in [&a, &a, &b, &a] {
        let problem = build_problem(&req.spec).unwrap();
        let expected = resolve_algorithm(&req.algo, 0)
            .unwrap()
            .solve(
                &problem,
                &mut wsflow_core::SolveCtx::with_budget_opt(req.budget),
            )
            .unwrap();
        let out = submit(daemon.addr(), req, |_, _| {}).expect("submit succeeds");
        assert_eq!(out.cost.to_bits(), expected.cost.to_bits());
        assert_eq!(out.steps, expected.steps);
        assert_eq!(out.termination, expected.termination.name());
        let mapping: Vec<u32> = expected.mapping.as_slice().iter().map(|s| s.0).collect();
        assert_eq!(out.mapping, mapping);
    }
    assert_eq!(daemon.stats(), (4, 0, 4, 0, 0));
}

/// A fairload request on a generated 8-op line, checked to converge.
fn fairload_converges(addr: std::net::SocketAddr, seed: u64) {
    let out =
        submit(addr, &request("t", "fairload", 8, seed, None), |_, _| {}).expect("submit succeeds");
    assert_eq!(out.mapping.len(), 8);
    assert_eq!(out.termination, "converged");
}

#[test]
fn a_silent_client_does_not_stall_later_requests() {
    let daemon = daemon_with(1, 16, 64);
    let addr = daemon.addr();
    // Connects and never sends: the thread that accepts it waits for a
    // request frame that never comes.
    let silent = TcpStream::connect(addr).unwrap();
    within(Duration::from_secs(30), move || {
        for seed in 0..5 {
            fairload_converges(addr, seed);
        }
    });
    assert_eq!(daemon.stats(), (5, 0, 5, 0, 0));
    drop(silent);
}

#[test]
fn shutdown_with_a_silent_client_connected_is_prompt_and_closes_the_port() {
    let mut daemon = daemon_with(1, 4, 8);
    let addr = daemon.addr();
    let silent = TcpStream::connect(addr).unwrap();
    // Connections are accepted in order, so once this request is served
    // the silent one has been accepted too.
    fairload_converges(addr, 1);
    let daemon = within(Duration::from_secs(1), move || {
        daemon.shutdown();
        daemon
    });
    // The listener is closed although a thread still waits on the
    // silent client: a late request cannot connect or is closed
    // unanswered, without a hang.
    within(Duration::from_secs(5), move || {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return;
        };
        let _ = proto::write_frame(&mut stream, &request("late", "fairload", 8, 2, None));
        // A read that times out would mean the connection was left open.
        stream
            .set_read_timeout(Some(Duration::from_secs(4)))
            .unwrap();
        let t0 = Instant::now();
        let reply = proto::read_message::<Reply>(&mut stream);
        assert!(!matches!(reply, Ok(Some(_))), "late request answered");
        assert!(t0.elapsed() < Duration::from_secs(2), "left open");
    });
    assert_eq!(daemon.stats(), (1, 0, 1, 0, 0));
    drop(silent);
}

#[test]
fn sequential_requests_reuse_the_connection_threads() {
    let daemon = daemon_with(1, 16, 64);
    // A 2 ms think time between requests: with the CPUs shared with the
    // other tests, a serving thread can otherwise stay descheduled
    // before it rejoins the turn for longer than a whole request, and
    // the daemon rightly spawns a thread to cover it.
    for seed in 0..30 {
        fairload_converges(daemon.addr(), seed);
        std::thread::sleep(Duration::from_millis(2));
    }
    // One thread takes the next connection while another serves the
    // last; a third may cover a reconnect that beats the serving
    // thread back. Spawning per request would count 30.
    let threads = daemon.conn_threads();
    assert!((1..=4).contains(&threads), "{threads} connection threads");
    assert_eq!(daemon.stats(), (30, 0, 30, 0, 0));
}
