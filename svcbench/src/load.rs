//! The closed-loop load: one caller per tenant, each waiting for its
//! `Done` (and then its think time) before sending the next request.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use wsflow_svc::proto::{self, Reply};

use crate::workload::{Stream, TENANTS};

/// How long a client waits for the next reply frame before failing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The terminal `Done` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Final combined cost.
    pub cost: f64,
    /// Logical steps the solve charged.
    pub steps: u64,
    /// Server index per op.
    pub mapping: Vec<u32>,
    /// Time the request waited in the daemon's fair queue.
    pub queue_wait_us: u64,
}

/// One request as the client saw it; times are offsets from the start
/// of the load.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into [`TENANTS`].
    pub tenant: usize,
    /// Position in the tenant's request stream.
    pub index: u64,
    /// When the client began to connect.
    pub start: Duration,
    /// When the first `Incumbent` frame arrived, if one did.
    pub first: Option<Duration>,
    /// When the terminal frame arrived or the request failed.
    pub end: Duration,
    /// `Done`, or why the request failed (any other reply counts).
    pub outcome: Result<Done, String>,
}

impl Sample {
    /// Submit-to-`Done` time in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// Submit-to-first-incumbent time in milliseconds (the `Done` time
    /// when no incumbent was streamed).
    pub fn ttfi_ms(&self) -> f64 {
        (self.first.unwrap_or(self.end) - self.start).as_secs_f64() * 1e3
    }
}

/// Drive every tenant's closed loop against `addr` until `stop_at`
/// after `t0`; returns every request sent, ordered by start time.
pub fn run(addr: SocketAddr, stream: &Stream, t0: Instant, stop_at: Duration) -> Vec<Sample> {
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|tenant| scope.spawn(move || client_loop(addr, stream, tenant, t0, stop_at)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.start);
    samples
}

fn client_loop(
    addr: SocketAddr,
    stream: &Stream,
    tenant: usize,
    t0: Instant,
    stop_at: Duration,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for index in 0.. {
        let frame = stream.frame(tenant, index);
        std::thread::sleep(stream.think_time(tenant, index));
        let start = t0.elapsed();
        if start >= stop_at {
            break;
        }
        let mut first = None;
        let outcome = submit(addr, &frame, || {
            if first.is_none() {
                first = Some(t0.elapsed());
            }
        });
        out.push(Sample {
            tenant,
            index,
            start,
            first,
            end: t0.elapsed(),
            outcome,
        });
    }
    out
}

fn submit(addr: SocketAddr, frame: &[u8], mut on_incumbent: impl FnMut()) -> Result<Done, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .and_then(|()| conn.set_read_timeout(Some(REPLY_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    conn.write_all(frame).map_err(|e| format!("send: {e}"))?;
    // The socket stays open until `Done`: closing it early would cancel
    // the solve.
    loop {
        match proto::read_message::<Reply>(&mut conn) {
            Ok(Some(Reply::Incumbent { .. })) => on_incumbent(),
            Ok(Some(Reply::Done {
                cost,
                steps,
                mapping,
                queue_wait_us,
                ..
            })) => {
                return Ok(Done {
                    cost,
                    steps,
                    mapping,
                    queue_wait_us,
                })
            }
            Ok(Some(other)) => return Err(format!("reply {other:?}")),
            Ok(None) => return Err("closed without a terminal frame".to_string()),
            Err(e) => return Err(e.to_string()),
        }
    }
}
