//! The serving protocol's length-prefixed, checksum-guarded frame codec.
//!
//! Every message travels inside one **frame**, mirroring the persistence
//! discipline of `calloc_eval::store`: magic bytes, a format version, an
//! explicit payload length, and an FNV-1a checksum over the payload. Both
//! are written with the workspace's one binary codec,
//! [`calloc_tensor::codec`], whose bounds-checked reader decodes every
//! header and payload field here. The
//! decoding law is the store truncation law transplanted to the wire:
//! **any** truncated, corrupt, oversized or bit-flipped frame decodes as
//! a typed [`ServeError`] — never a panic, never a hang, never silently
//! wrong bytes. Floating-point fingerprint values are carried as raw
//! IEEE-754 bits, so `-0.0`, subnormals and NaN payloads round-trip
//! bit-exactly and replayed logs can be compared byte-for-byte.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes   b"CALLOCSF"
//! version  u32       protocol version (2)
//! length   u32       payload length in bytes (<= MAX_PAYLOAD)
//! checksum u64       FNV-1a over the payload bytes
//! payload  length bytes
//! ```
//!
//! Payload grammar (tag byte first; `str` = u32 length + UTF-8 bytes):
//!
//! ```text
//! request  = locate | health | drain
//! locate   = 0x01 model:str deadline_ms:u32 n:u32 n*f64bits:u64
//! health   = 0x02
//! drain    = 0x03
//! response = located | error | healthrep | drained
//! located  = 0x10 rp_class:u64 x:u64 y:u64 degraded:u8
//! error    = 0x11 code:u8 fields...          (see ServeError::code)
//! healthrep= 0x12 admitted served shed quarantined expired degraded
//!                 queue_depth queue_peak batches:u64*9 draining:u8
//! drained  = 0x13 served:u64
//! ```

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};

use calloc_tensor::codec::{fnv1a, Reader, Writer};

/// Magic bytes opening every frame.
pub const MAGIC: &[u8; 8] = b"CALLOCSF";

/// Protocol version carried in every frame header. Version 2 widened
/// the health report with the admission-queue high-water mark and the
/// cumulative dispatched-batch count; a version-1 peer's frames are
/// refused with a typed [`ServeError::BadFrame`] rather than misread.
pub const VERSION: u32 = 2;

/// Hard cap on a frame payload, enforced **before** any allocation so a
/// corrupt or hostile length field cannot balloon server memory.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Frame header size in bytes: magic + version + length + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Every way the service refuses or fails a request, as carried on the
/// wire inside an error response. The variants are the protocol's whole
/// failure vocabulary: decode trouble, admission control, deadlines,
/// drain, and quarantined panics all reply with one of these instead of
/// closing the connection or killing the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The byte stream is not a valid frame: bad magic, unknown version,
    /// oversized or mismatched length, checksum failure, or truncation
    /// (including a frame that stalls mid-way past the session's read
    /// timeout — slow-loris protection).
    BadFrame {
        /// What exactly was wrong with the frame.
        detail: String,
    },
    /// The frame was intact but its payload is not a valid protocol
    /// message (unknown tag, truncated fields, trailing bytes, bad
    /// UTF-8).
    BadMessage {
        /// What exactly was wrong with the payload.
        detail: String,
    },
    /// The request named a model the registry does not hold.
    UnknownModel {
        /// The model name as requested.
        model: String,
    },
    /// The fingerprint arity does not match the model's AP count.
    BadArity {
        /// The model the request addressed.
        model: String,
        /// The AP count the model expects.
        expected: u32,
        /// The fingerprint length the request carried.
        got: u32,
    },
    /// The request's deadline elapsed before its micro-batch was
    /// dispatched; the query was dropped without running inference.
    DeadlineExceeded {
        /// The deadline the request asked for, in milliseconds.
        deadline_ms: u32,
    },
    /// The bounded admission queue was full; the query was shed at the
    /// door instead of growing memory without bound.
    Overloaded {
        /// Hint: retry after this many milliseconds.
        retry_after_ms: u32,
    },
    /// The server is draining and admits no new queries.
    Draining,
    /// Inference panicked; the query was quarantined (the panic was
    /// caught at the request boundary) and the server keeps serving.
    Internal {
        /// The quarantined panic's payload.
        detail: String,
    },
}

impl ServeError {
    /// Stable wire code of the variant (1–8).
    pub fn code(&self) -> u8 {
        match self {
            ServeError::BadFrame { .. } => 1,
            ServeError::BadMessage { .. } => 2,
            ServeError::UnknownModel { .. } => 3,
            ServeError::BadArity { .. } => 4,
            ServeError::DeadlineExceeded { .. } => 5,
            ServeError::Overloaded { .. } => 6,
            ServeError::Draining => 7,
            ServeError::Internal { .. } => 8,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadFrame { detail } => write!(f, "bad frame: {detail}"),
            ServeError::BadMessage { detail } => write!(f, "bad message: {detail}"),
            ServeError::UnknownModel { model } => write!(f, "unknown model {model:?}"),
            ServeError::BadArity {
                model,
                expected,
                got,
            } => write!(
                f,
                "bad arity for {model:?}: expected {expected} APs, got {got}"
            ),
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms exceeded before dispatch")
            }
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms} ms")
            }
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::Internal { detail } => write!(f, "internal: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Shorthand for a [`ServeError::BadFrame`].
fn bad_frame(detail: impl Into<String>) -> ServeError {
    ServeError::BadFrame {
        detail: detail.into(),
    }
}

/// Shorthand for a [`ServeError::BadMessage`].
fn bad_message(detail: impl Into<String>) -> ServeError {
    ServeError::BadMessage {
        detail: detail.into(),
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Locate one fingerprint with the named model. `deadline_ms == 0`
    /// means no deadline.
    Locate {
        /// Registry name of the model to query.
        model: String,
        /// Per-request deadline in milliseconds (0 = none): if the
        /// query is still queued when the deadline elapses, it is
        /// answered with [`ServeError::DeadlineExceeded`] instead of
        /// running late inference nobody is waiting for.
        deadline_ms: u32,
        /// The RSS fingerprint, one value per AP.
        fingerprint: Vec<f64>,
    },
    /// Ask for a server statistics snapshot.
    Health,
    /// Stop intake, finish all in-flight work, then shut the server
    /// down; acknowledged with [`Response::Drained`].
    Drain,
}

/// The final position answer for one fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    /// Predicted reference-point class.
    pub rp_class: u64,
    /// Predicted x coordinate in meters.
    pub x: f64,
    /// Predicted y coordinate in meters.
    pub y: f64,
    /// True when the query was answered by the cheaper fallback member
    /// because the server was degrading under sustained load.
    pub degraded: bool,
}

/// A server statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Queries accepted into the admission queue.
    pub admitted: u64,
    /// Queries answered with a location.
    pub served: u64,
    /// Queries shed with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Queries whose inference panicked and was quarantined.
    pub quarantined: u64,
    /// Queries dropped because their deadline expired in the queue.
    pub deadline_expired: u64,
    /// Queries answered by the degraded (fallback) member.
    pub degraded: u64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Highest admission-queue depth ever observed (high-water mark),
    /// recorded at admission time so capacity tuning can see how close
    /// the queue came to shedding even between snapshots.
    pub queue_peak: u64,
    /// Micro-batches dispatched so far; `served / batches` is the
    /// realized batching factor the engine's latency window bought.
    pub batches: u64,
    /// True once a drain has begun.
    pub draining: bool,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The located position.
    Located(Location),
    /// A typed refusal or failure.
    Error(ServeError),
    /// A statistics snapshot.
    Health(HealthReport),
    /// Drain acknowledged; `served` is the lifetime served count at
    /// drain completion.
    Drained {
        /// Lifetime served count when the drain finished.
        served: u64,
    },
}

// --- frame layer -----------------------------------------------------------

/// Encodes `payload` into one complete frame (header + payload).
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — encoders build payloads
/// from bounded messages, so an oversized payload is a programming
/// error, not an input condition.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "frame payload exceeds MAX_PAYLOAD"
    );
    let mut w = Writer::with_capacity(HEADER_LEN + payload.len());
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u32(payload.len() as u32);
    w.u64(fnv1a(payload));
    w.bytes(payload);
    w.into_bytes()
}

/// Parses and checks a frame header (magic, version, the payload cap),
/// returning the payload length and checksum. Shared by [`decode_frame`]
/// and [`read_frame`].
fn parse_header(header: &[u8]) -> Result<(u32, u64), ServeError> {
    let mut r = Reader::new(header);
    if r.bytes(8).map_err(bad_frame)? != MAGIC {
        return Err(bad_frame("bad magic"));
    }
    let version = r.u32().map_err(bad_frame)?;
    if version != VERSION {
        return Err(bad_frame(format!("unsupported version {version}")));
    }
    let length = r.u32().map_err(bad_frame)?;
    if length > MAX_PAYLOAD {
        return Err(bad_frame(format!(
            "payload length {length} exceeds cap {MAX_PAYLOAD}"
        )));
    }
    Ok((length, r.u64().map_err(bad_frame)?))
}

/// Decodes exactly one frame from `bytes` and returns its payload.
///
/// This is the codec law's entry point: `bytes` must be the frame and
/// nothing but the frame. Any prefix, extension, or bit flip of a valid
/// frame returns a typed [`ServeError::BadFrame`]; no input panics.
pub fn decode_frame(bytes: &[u8]) -> Result<Vec<u8>, ServeError> {
    if bytes.len() < HEADER_LEN {
        return Err(bad_frame(format!(
            "truncated header: {} of {HEADER_LEN} bytes",
            bytes.len()
        )));
    }
    let (header, body) = bytes.split_at(HEADER_LEN);
    let (length, checksum) = parse_header(header)?;
    if body.len() != length as usize {
        return Err(bad_frame(format!(
            "payload length mismatch: header says {length}, got {}",
            body.len()
        )));
    }
    if fnv1a(body) != checksum {
        return Err(bad_frame("payload checksum mismatch"));
    }
    Ok(body.to_vec())
}

/// Outcome of one blocking [`read_frame`] attempt.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly at a frame boundary.
    Eof,
    /// The read timed out at a frame boundary with no bytes consumed —
    /// the session loop uses this to poll the drain flag.
    Idle,
    /// The stream carried a corrupt, truncated or stalled frame; reply
    /// with the error and close (the stream may be desynchronized).
    Corrupt(ServeError),
}

/// How far a [`fill`] call got.
enum Fill {
    /// The buffer was filled completely.
    Full,
    /// EOF before the first byte.
    EofAtStart,
    /// Read timeout before the first byte.
    IdleAtStart,
    /// EOF or timeout after at least one byte — a torn read.
    Short,
}

/// Reads until `buf` is full, distinguishing a clean boundary (no bytes
/// yet) from a torn mid-object read. A read timeout after the first
/// byte is deliberately *torn*, not retried: a frame must arrive within
/// the session's read timeout once started, so a slow-loris peer cannot
/// pin a session thread.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::EofAtStart
                } else {
                    Fill::Short
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(if filled == 0 {
                    Fill::IdleAtStart
                } else {
                    Fill::Short
                })
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// Reads one frame from a blocking stream (typically with a read
/// timeout set, so the session loop can poll for drain).
///
/// Hard transport errors (connection reset, …) surface as `Err`; every
/// *content* problem — truncation, corruption, a frame stalling past
/// the read timeout — is `Ok(FrameRead::Corrupt(..))` so the caller can
/// send the typed reply before closing.
pub fn read_frame(reader: &mut impl Read) -> io::Result<FrameRead> {
    let mut header = [0u8; HEADER_LEN];
    match fill(reader, &mut header)? {
        Fill::EofAtStart => return Ok(FrameRead::Eof),
        Fill::IdleAtStart => return Ok(FrameRead::Idle),
        Fill::Short => {
            return Ok(FrameRead::Corrupt(bad_frame(
                "truncated or stalled frame header",
            )))
        }
        Fill::Full => {}
    }
    let (length, checksum) = match parse_header(&header) {
        Ok(fields) => fields,
        Err(error) => return Ok(FrameRead::Corrupt(error)),
    };
    let mut payload = vec![0u8; length as usize];
    match fill(reader, &mut payload)? {
        Fill::Full => {}
        _ => {
            return Ok(FrameRead::Corrupt(bad_frame(
                "truncated or stalled frame payload",
            )))
        }
    }
    if fnv1a(&payload) != checksum {
        return Ok(FrameRead::Corrupt(bad_frame("payload checksum mismatch")));
    }
    Ok(FrameRead::Payload(payload))
}

/// Writes one framed payload to the stream.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    writer.write_all(&encode_frame(payload))
}

// --- message layer ---------------------------------------------------------

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Locate {
                model,
                deadline_ms,
                fingerprint,
            } => {
                w.u8(0x01);
                w.str_u32(model);
                w.u32(*deadline_ms);
                w.u32(fingerprint.len() as u32);
                w.f64s(fingerprint);
            }
            Request::Health => w.u8(0x02),
            Request::Drain => w.u8(0x03),
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a request; any structural problem is
    /// a [`ServeError::BadMessage`].
    pub fn decode(payload: &[u8]) -> Result<Request, ServeError> {
        let mut r = Reader::new(payload);
        let request = match r.u8().map_err(bad_message)? {
            0x01 => {
                let model = r.str_u32().map_err(bad_message)?;
                let deadline_ms = r.u32().map_err(bad_message)?;
                let n = r.u32().map_err(bad_message)?;
                Request::Locate {
                    model,
                    deadline_ms,
                    fingerprint: r.f64s(n as usize).map_err(bad_message)?,
                }
            }
            0x02 => Request::Health,
            0x03 => Request::Drain,
            tag => return Err(bad_message(format!("unknown request tag {tag:#04x}"))),
        };
        r.finish().map_err(bad_message)?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Located(location) => {
                w.u8(0x10);
                w.u64(location.rp_class);
                w.f64(location.x);
                w.f64(location.y);
                w.bool(location.degraded);
            }
            Response::Error(error) => {
                w.u8(0x11);
                w.u8(error.code());
                match error {
                    ServeError::BadFrame { detail }
                    | ServeError::BadMessage { detail }
                    | ServeError::Internal { detail } => w.str_u32(detail),
                    ServeError::UnknownModel { model } => w.str_u32(model),
                    ServeError::BadArity {
                        model,
                        expected,
                        got,
                    } => {
                        w.str_u32(model);
                        w.u32(*expected);
                        w.u32(*got);
                    }
                    ServeError::DeadlineExceeded { deadline_ms } => w.u32(*deadline_ms),
                    ServeError::Overloaded { retry_after_ms } => w.u32(*retry_after_ms),
                    ServeError::Draining => {}
                }
            }
            Response::Health(report) => {
                w.u8(0x12);
                w.u64(report.admitted);
                w.u64(report.served);
                w.u64(report.shed);
                w.u64(report.quarantined);
                w.u64(report.deadline_expired);
                w.u64(report.degraded);
                w.u64(report.queue_depth);
                w.u64(report.queue_peak);
                w.u64(report.batches);
                w.bool(report.draining);
            }
            Response::Drained { served } => {
                w.u8(0x13);
                w.u64(*served);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a response; any structural problem
    /// is a [`ServeError::BadMessage`].
    pub fn decode(payload: &[u8]) -> Result<Response, ServeError> {
        let mut r = Reader::new(payload);
        let response = match r.u8().map_err(bad_message)? {
            0x10 => {
                let rp_class = r.u64().map_err(bad_message)?;
                let x = r.f64().map_err(bad_message)?;
                let y = r.f64().map_err(bad_message)?;
                Response::Located(Location {
                    rp_class,
                    x,
                    y,
                    degraded: r.bool().map_err(bad_message)?,
                })
            }
            0x11 => {
                let error = match r.u8().map_err(bad_message)? {
                    1 => ServeError::BadFrame {
                        detail: r.str_u32().map_err(bad_message)?,
                    },
                    2 => ServeError::BadMessage {
                        detail: r.str_u32().map_err(bad_message)?,
                    },
                    3 => ServeError::UnknownModel {
                        model: r.str_u32().map_err(bad_message)?,
                    },
                    4 => ServeError::BadArity {
                        model: r.str_u32().map_err(bad_message)?,
                        expected: r.u32().map_err(bad_message)?,
                        got: r.u32().map_err(bad_message)?,
                    },
                    5 => ServeError::DeadlineExceeded {
                        deadline_ms: r.u32().map_err(bad_message)?,
                    },
                    6 => ServeError::Overloaded {
                        retry_after_ms: r.u32().map_err(bad_message)?,
                    },
                    7 => ServeError::Draining,
                    8 => ServeError::Internal {
                        detail: r.str_u32().map_err(bad_message)?,
                    },
                    code => return Err(bad_message(format!("unknown error code {code}"))),
                };
                Response::Error(error)
            }
            0x12 => {
                let report = HealthReport {
                    admitted: r.u64().map_err(bad_message)?,
                    served: r.u64().map_err(bad_message)?,
                    shed: r.u64().map_err(bad_message)?,
                    quarantined: r.u64().map_err(bad_message)?,
                    deadline_expired: r.u64().map_err(bad_message)?,
                    degraded: r.u64().map_err(bad_message)?,
                    queue_depth: r.u64().map_err(bad_message)?,
                    queue_peak: r.u64().map_err(bad_message)?,
                    batches: r.u64().map_err(bad_message)?,
                    draining: r.bool().map_err(bad_message)?,
                };
                Response::Health(report)
            }
            0x13 => Response::Drained {
                served: r.u64().map_err(bad_message)?,
            },
            tag => return Err(bad_message(format!("unknown response tag {tag:#04x}"))),
        };
        r.finish().map_err(bad_message)?;
        Ok(response)
    }
}
