//! The `wsflow-proto/1` wire protocol: versioned, length-prefixed
//! frames carrying JSON payloads.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x57 0x46  ("WF")
//! 2       1     protocol version (currently 1)
//! 3       1     reserved (must be 0)
//! 4       4     payload length, big-endian u32 (<= MAX_FRAME_LEN)
//! 8       len   payload: UTF-8 JSON via the vendored serde_json shim
//! ```
//!
//! A connection carries exactly one [`Request`] frame client→server,
//! answered by a stream of [`Reply`] frames server→client: zero or more
//! `incumbent` frames (strictly improving cost), terminated by exactly
//! one of `done` / `rejected` / `invalid` / `protocol_error`, after
//! which the server closes the connection. Closing the client end of
//! the socket early cancels the server-side solve.
//!
//! The decoder is total: every malformed input — truncated header or
//! payload, wrong magic, unknown version, oversize length prefix,
//! garbage JSON — returns a typed [`FrameError`]; nothing panics.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"WF";
/// The protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Frames above this payload size are rejected without allocation.
pub const MAX_FRAME_LEN: u32 = 16 << 20;
/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 8;

/// Why a frame could not be read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-header or mid-payload.
    Truncated {
        /// Bytes expected (header or payload length).
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte named a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The reserved byte was non-zero.
    BadReserved(u8),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversize {
        /// The declared payload length.
        len: u32,
    },
    /// The payload was not valid UTF-8 JSON of the expected message.
    BadPayload(String),
    /// The underlying transport failed (kind name + message).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"WF\")"),
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION})"
                )
            }
            FrameError::BadReserved(b) => write!(f, "non-zero reserved byte {b:#04x}"),
            FrameError::Oversize { len } => {
                write!(
                    f,
                    "oversize frame: {len} bytes exceeds the {MAX_FRAME_LEN} cap"
                )
            }
            FrameError::BadPayload(msg) => write!(f, "bad payload: {msg}"),
            FrameError::Io(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(format!("{}: {e}", e.kind()))
    }
}

/// The deployment problem a request asks the service to solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProblemSpec {
    /// A seeded instance from the workload generators: the server
    /// reconstructs it deterministically, so the wire carries five
    /// numbers instead of a workflow graph.
    Generated {
        /// Workflow shape: `line`, `bushy`, `lengthy`, or `hybrid`.
        shape: String,
        /// Operations in the workflow.
        ops: u32,
        /// Servers on the bus network.
        servers: u32,
        /// Bus speed in Mbps.
        bus_mbps: f64,
        /// Generator seed.
        seed: u64,
    },
    /// An explicit workflow in the line-oriented text format plus a
    /// bus-network server pool (GHz ratings).
    Inline {
        /// Workflow in `wsflow_model::dsl` text format.
        workflow: String,
        /// Per-server GHz ratings: 1 to 1 000 of them, the bound
        /// `Generated` specs have too (the bus build grows as N²).
        server_ghz: Vec<f64>,
        /// Bus speed in Mbps.
        bus_mbps: f64,
    },
}

/// One deployment request (the single client→server message).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Tenant the request is billed to (fair-queueing key).
    pub tenant: String,
    /// Algorithm name (`portfolio`, `holm`, `hillclimb`, `sa`, …).
    pub algo: String,
    /// Logical-step budget; `None` = run to convergence.
    pub budget: Option<u64>,
    /// Advisory wall-clock deadline in milliseconds; `None` = none.
    pub deadline_ms: Option<u64>,
    /// The problem to solve.
    pub spec: ProblemSpec,
}

/// Why the service refused to queue a request (backpressure).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The tenant's queue is at its configured bound.
    TenantQueueFull {
        /// The per-tenant queue bound that was hit.
        cap: u32,
    },
    /// The service-wide queue is at its configured bound.
    ServiceQueueFull {
        /// The global queue bound that was hit.
        cap: u32,
    },
}

impl RejectReason {
    /// Stable lowercase name used in CSVs and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::TenantQueueFull { .. } => "tenant_queue_full",
            RejectReason::ServiceQueueFull { .. } => "service_queue_full",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::TenantQueueFull { cap } => {
                write!(f, "tenant queue full (cap {cap})")
            }
            RejectReason::ServiceQueueFull { cap } => {
                write!(f, "service queue full (cap {cap})")
            }
        }
    }
}

/// Server→client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// A new best incumbent: `seq` is the improvement ordinal (0, 1, …)
    /// and `cost` its combined cost in seconds. Costs are strictly
    /// decreasing along a connection.
    Incumbent {
        /// Improvement ordinal within this request.
        seq: u64,
        /// Combined cost of the new incumbent.
        cost: f64,
    },
    /// The final outcome; the server closes the connection after this.
    Done {
        /// Combined cost of the final mapping.
        cost: f64,
        /// Logical steps the solve consumed.
        steps: u64,
        /// `converged` / `budget_exhausted` / `cancelled`.
        termination: String,
        /// Final mapping: server index per operation.
        mapping: Vec<u32>,
        /// Microseconds the request waited in queue before service.
        queue_wait_us: u64,
    },
    /// Admission control refused the request (typed backpressure).
    Rejected(RejectReason),
    /// The request was well-framed but unusable (unknown algorithm,
    /// unparsable workflow, invalid sizes).
    Invalid {
        /// One-line reason.
        message: String,
    },
    /// The frame itself was malformed; sent when possible, then the
    /// connection is closed.
    ProtocolError {
        /// Decoder diagnostic.
        message: String,
    },
}

/// Encode one frame (header + JSON payload) into a byte vector.
pub fn encode_frame<T: Serialize>(msg: &T) -> Result<Vec<u8>, FrameError> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| FrameError::BadPayload(e.to_string()))?
        .into_bytes();
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(FrameError::Oversize {
            len: payload.len() as u32,
        });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Write one frame to `w`.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    let frame = encode_frame(msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read exactly `buf.len()` bytes; distinguishes clean EOF at offset 0
/// (`Ok(false)`) from mid-buffer truncation (`Err(Truncated)`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Truncated {
                    expected: buf.len(),
                    got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Read one raw frame payload. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    if header[0..2] != MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(FrameError::UnsupportedVersion(header[2]));
    }
    if header[3] != 0 {
        return Err(FrameError::BadReserved(header[3]));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: payload.len(),
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

/// Decode a frame payload into a message.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::BadPayload(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::BadPayload(e.to_string()))
}

/// Read and decode one message. `Ok(None)` = clean EOF.
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, FrameError> {
    match read_frame_bytes(r)? {
        None => Ok(None),
        Some(payload) => decode_payload(&payload).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_request() -> Request {
        Request {
            tenant: "gold".to_string(),
            algo: "portfolio".to_string(),
            budget: Some(10_000),
            deadline_ms: None,
            spec: ProblemSpec::Generated {
                shape: "hybrid".to_string(),
                ops: 12,
                servers: 4,
                bus_mbps: 100.0,
                seed: 7,
            },
        }
    }

    #[test]
    fn request_and_replies_round_trip() {
        let req = demo_request();
        let frame = encode_frame(&req).unwrap();
        let mut cursor = std::io::Cursor::new(frame);
        let back: Request = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(back, req);

        for reply in [
            Reply::Incumbent { seq: 0, cost: 1.25 },
            Reply::Done {
                cost: 0.5,
                steps: 123,
                termination: "converged".to_string(),
                mapping: vec![0, 1, 2, 1],
                queue_wait_us: 42,
            },
            Reply::Rejected(RejectReason::TenantQueueFull { cap: 8 }),
            Reply::Rejected(RejectReason::ServiceQueueFull { cap: 64 }),
            Reply::Invalid {
                message: "unknown algorithm \"magic\"".to_string(),
            },
            Reply::ProtocolError {
                message: "bad magic".to_string(),
            },
        ] {
            let frame = encode_frame(&reply).unwrap();
            let mut cursor = std::io::Cursor::new(frame);
            let back: Reply = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn inline_spec_round_trips() {
        let req = Request {
            tenant: "t".into(),
            algo: "holm".into(),
            budget: None,
            deadline_ms: Some(500),
            spec: ProblemSpec::Inline {
                workflow: "workflow demo\nnode A op 50\nnode B op 10\nmsg A B 0.05\n".into(),
                server_ghz: vec![1.0, 2.5],
                bus_mbps: 10.0,
            },
        };
        let frame = encode_frame(&req).unwrap();
        let back: Request = decode_payload(&frame[HEADER_LEN..]).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn clean_eof_is_none_and_multiple_frames_stream() {
        let mut bytes = encode_frame(&Reply::Incumbent { seq: 0, cost: 2.0 }).unwrap();
        bytes.extend(encode_frame(&Reply::Incumbent { seq: 1, cost: 1.0 }).unwrap());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_message::<Reply>(&mut cursor).unwrap(),
            Some(Reply::Incumbent { seq: 0, .. })
        ));
        assert!(matches!(
            read_message::<Reply>(&mut cursor).unwrap(),
            Some(Reply::Incumbent { seq: 1, .. })
        ));
        assert_eq!(read_message::<Reply>(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_header_and_payload_are_typed_errors() {
        let full = encode_frame(&demo_request()).unwrap();
        // Cut inside the header.
        for cut in 1..HEADER_LEN {
            let mut cursor = std::io::Cursor::new(full[..cut].to_vec());
            match read_frame_bytes(&mut cursor) {
                Err(FrameError::Truncated { expected, got }) => {
                    assert_eq!(expected, HEADER_LEN);
                    assert_eq!(got, cut);
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
        // Cut inside the payload.
        let mut cursor = std::io::Cursor::new(full[..HEADER_LEN + 3].to_vec());
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Truncated { got: 3, .. })
        ));
    }

    #[test]
    fn bad_magic_version_reserved_and_oversize_are_rejected() {
        let good = encode_frame(&demo_request()).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame_bytes(&mut std::io::Cursor::new(bad)),
            Err(FrameError::BadMagic([b'X', b'F']))
        ));

        let mut bad = good.clone();
        bad[2] = 99;
        assert_eq!(
            read_frame_bytes(&mut std::io::Cursor::new(bad)).unwrap_err(),
            FrameError::UnsupportedVersion(99)
        );

        let mut bad = good.clone();
        bad[3] = 1;
        assert_eq!(
            read_frame_bytes(&mut std::io::Cursor::new(bad)).unwrap_err(),
            FrameError::BadReserved(1)
        );

        // An oversize length prefix must be rejected *before* any
        // allocation or read of the payload.
        let mut bad = good[..HEADER_LEN].to_vec();
        bad[4..8].copy_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        assert_eq!(
            read_frame_bytes(&mut std::io::Cursor::new(bad)).unwrap_err(),
            FrameError::Oversize {
                len: MAX_FRAME_LEN + 1
            }
        );
    }

    #[test]
    fn garbage_payload_is_a_typed_error_not_a_panic() {
        // Well-framed, nonsense JSON.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(0);
        let garbage = b"{\"what\": ]]]";
        frame.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
        frame.extend_from_slice(garbage);
        assert!(matches!(
            read_message::<Request>(&mut std::io::Cursor::new(frame)),
            Err(FrameError::BadPayload(_))
        ));

        // Valid JSON of the wrong shape.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(0);
        let wrong = b"[1, 2, 3]";
        frame.extend_from_slice(&(wrong.len() as u32).to_be_bytes());
        frame.extend_from_slice(wrong);
        assert!(matches!(
            read_message::<Request>(&mut std::io::Cursor::new(frame)),
            Err(FrameError::BadPayload(_))
        ));

        // Non-UTF-8 payload.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(0);
        frame.extend_from_slice(&3u32.to_be_bytes());
        frame.extend_from_slice(&[0xff, 0xfe, 0xfd]);
        assert!(matches!(
            read_message::<Request>(&mut std::io::Cursor::new(frame)),
            Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(FrameError::UnsupportedVersion(9).to_string().contains("9"));
        assert!(FrameError::Oversize { len: 1 << 30 }
            .to_string()
            .contains("cap"));
        assert!(RejectReason::TenantQueueFull { cap: 4 }
            .to_string()
            .contains("cap 4"));
        assert_eq!(
            RejectReason::ServiceQueueFull { cap: 1 }.name(),
            "service_queue_full"
        );
    }
}
