//! The `tasd-serve` wire format: length-prefixed binary frames over a byte stream.
//!
//! Every frame is `[len: u32 LE][type: u8][payload]` where `len` counts the type byte
//! plus the payload. Matrices travel as `[rows: u64 LE][cols: u64 LE][f32 LE ×
//! rows·cols]`. All integers are little-endian; f32 payloads are raw IEEE-754 bits, so
//! a round trip is bitwise exact.
//!
//! # Hardening contract
//!
//! The decoder treats every input as untrusted and **never panics**: each failure mode
//! is a structured [`WireError`] —
//!
//! * truncation anywhere (header, type, any field, the f32 payload) →
//!   [`WireError::Truncated`] naming the field;
//! * a `rows × cols` header that disagrees with the payload (the classic codec bug:
//!   Snippet-style deserializers read "whatever bytes are left" and ignore the header)
//!   is caught in both directions — short payloads are [`Truncated`](WireError::Truncated)
//!   at the exact field, excess bytes are [`WireError::TrailingBytes`];
//! * `rows · cols · 4` is computed with checked arithmetic —
//!   [`WireError::ElementOverflow`] instead of a wrap-around under-allocation;
//! * declared frame lengths above the cap are [`WireError::Oversized`] *before* any
//!   allocation, and absurd dimensions (possible at zero width, where the payload is
//!   empty no matter the row count) are [`WireError::DimensionTooLarge`]
//!   (cap [`MAX_MATRIX_DIM`]);
//! * unknown type/op/code bytes and reserved flag bits are their own variants, so a
//!   protocol-version skew fails loudly instead of misparsing.
//!
//! Allocation is bounded by *received* bytes: the decoder verifies the payload is
//! present before sizing any buffer from header-declared counts.

use std::io::{self, Read, Write};
use tasd::{ServingError, ServingStats};
use tasd_tensor::Matrix;

/// Default cap on one frame's body (type byte + payload), applied by
/// [`read_frame`] before any allocation: 64 MiB.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Cap on either matrix dimension. Bounds decode-side work even for zero-width
/// matrices, whose payload is empty regardless of the declared row count.
pub const MAX_MATRIX_DIM: u64 = 1 << 24;

/// The `id` used by connection-scoped [`Frame::Error`]s (decode failures that are not
/// attributable to any request).
pub const CONNECTION_SCOPE_ID: u64 = u64::MAX;

const TYPE_REQUEST: u8 = 0x01;
const TYPE_CONTROL: u8 = 0x02;
const TYPE_UPDATE_WEIGHTS: u8 = 0x03;
const TYPE_NAMED_REQUEST: u8 = 0x04;
const TYPE_RESPONSE: u8 = 0x81;
const TYPE_ERROR: u8 = 0x82;
const TYPE_CONTROL_ACK: u8 = 0x83;
const TYPE_STATS: u8 = 0x84;
const TYPE_UPDATE_ACK: u8 = 0x85;

const FLAG_CONFIG: u8 = 0b01;
const FLAG_DEADLINE: u8 = 0b10;

/// A structured decode failure: what was malformed and where. See the module docs for
/// the full hardening contract.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input ended before `needed` bytes of the named field arrived.
    Truncated {
        /// The field being decoded when the bytes ran out.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame body carried bytes past the end of its last field.
    TrailingBytes {
        /// How many undecoded bytes were left over.
        extra: usize,
    },
    /// The frame header declared a zero-length body (not even a type byte).
    EmptyFrame,
    /// The declared frame length exceeds the receiver's cap (checked before any
    /// allocation).
    Oversized {
        /// Declared body length.
        declared: usize,
        /// The receiver's frame cap.
        cap: usize,
    },
    /// `rows · cols · 4` overflowed — a wrap-around that a naive decoder would turn
    /// into an under-allocation.
    ElementOverflow {
        /// Declared row count.
        rows: u64,
        /// Declared column count.
        cols: u64,
    },
    /// A single declared dimension exceeds [`MAX_MATRIX_DIM`].
    DimensionTooLarge {
        /// Which dimension ("matrix rows" / "matrix cols").
        what: &'static str,
        /// The declared value.
        value: u64,
    },
    /// The frame's type byte is not part of the protocol.
    UnknownFrameType(u8),
    /// A control frame named an operation this protocol version does not know.
    UnknownControlOp(u8),
    /// An error frame named a code this protocol version does not know.
    UnknownErrorCode(u8),
    /// A request frame set reserved flag bits.
    UnknownRequestFlags(u8),
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// The field that failed to parse.
        context: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated {
                context,
                needed,
                have,
            } => write!(
                f,
                "truncated frame: {context} needs {needed} bytes, only {have} available"
            ),
            WireError::TrailingBytes { extra } => {
                write!(
                    f,
                    "frame length mismatch: {extra} bytes past the last field"
                )
            }
            WireError::EmptyFrame => write!(f, "empty frame: zero-length body"),
            WireError::Oversized { declared, cap } => {
                write!(f, "oversized frame: declared {declared} bytes, cap {cap}")
            }
            WireError::ElementOverflow { rows, cols } => {
                write!(f, "matrix byte size overflows: {rows} x {cols} elements")
            }
            WireError::DimensionTooLarge { what, value } => {
                write!(f, "{what} too large: {value} exceeds cap {MAX_MATRIX_DIM}")
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            WireError::UnknownControlOp(op) => write!(f, "unknown control op 0x{op:02x}"),
            WireError::UnknownErrorCode(c) => write!(f, "unknown error code 0x{c:02x}"),
            WireError::UnknownRequestFlags(bits) => {
                write!(f, "reserved request flag bits set: 0b{bits:08b}")
            }
            WireError::BadUtf8 { context } => write!(f, "{context} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why [`read_frame`] failed: a transport error, or bytes that decoded to garbage.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying stream failed (connection reset, etc.).
    Io(io::Error),
    /// The bytes arrived but did not form a valid frame.
    Wire(WireError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A session-control operation carried by [`Frame::Control`] and acknowledged by
/// [`Frame::ControlAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// No-op round trip (liveness probe; also flushes the write pipeline).
    Ping,
    /// Close and execute the open window now ([`ServingEngine::flush`]).
    ///
    /// [`ServingEngine::flush`]: tasd::ServingEngine::flush
    Flush,
    /// Graceful close: shut admission, execute the parked window. Later requests on
    /// any connection resolve to [`ErrorCode::ShuttingDown`] error frames; the server
    /// keeps running and connections stay open.
    Drain,
    /// Full stop: shut admission, abandon parked requests (as
    /// [`ErrorCode::ShuttingDown`] error frames), then stop the server — the accept
    /// loop exits and every connection is closed after its writer flushes.
    Shutdown,
    /// Ask for the session's [`ServingStats`], answered with a [`Frame::Stats`].
    Stats,
}

impl ControlOp {
    fn to_byte(self) -> u8 {
        match self {
            ControlOp::Ping => 0,
            ControlOp::Flush => 1,
            ControlOp::Drain => 2,
            ControlOp::Shutdown => 3,
            ControlOp::Stats => 4,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, WireError> {
        match byte {
            0 => Ok(ControlOp::Ping),
            1 => Ok(ControlOp::Flush),
            2 => Ok(ControlOp::Drain),
            3 => Ok(ControlOp::Shutdown),
            4 => Ok(ControlOp::Stats),
            other => Err(WireError::UnknownControlOp(other)),
        }
    }
}

/// Why a request failed, as carried by [`Frame::Error`] — the wire projection of
/// [`ServingError`] plus the two connection-level causes the engine never sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The session's bounded queue rejected the request at admission.
    QueueFull,
    /// The request's deadline passed before its window executed.
    DeadlineExceeded,
    /// The session is draining or shut down; the request was refused or abandoned.
    ShuttingDown,
    /// The request was cancelled before delivery.
    Cancelled,
    /// A kernel panicked while executing the request's group (contained per group).
    KernelPanicked,
    /// The request's operand shapes are inconsistent.
    ShapeMismatch,
    /// The underlying execution failed with a (non-shape) tensor error.
    Execution,
    /// The connection sent bytes that did not decode ([`WireError`]); the server
    /// answers with this code at [`CONNECTION_SCOPE_ID`] and closes the connection
    /// (the stream cannot be resynchronized).
    BadFrame,
    /// The frame decoded but its content was unusable (e.g. an unparsable
    /// decomposition config). The connection stays open.
    BadRequest,
    /// A [`Frame::NamedRequest`] or incremental [`Frame::UpdateWeights`] named an
    /// operand the server's weight store has never registered.
    UnknownOperand,
    /// A deploy was rejected without touching the resident weights (shape mismatch
    /// against the resident generation, or preparation failed); the old generation
    /// keeps serving.
    DeployRejected,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::QueueFull => 1,
            ErrorCode::DeadlineExceeded => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Cancelled => 4,
            ErrorCode::KernelPanicked => 5,
            ErrorCode::ShapeMismatch => 6,
            ErrorCode::Execution => 7,
            ErrorCode::BadFrame => 8,
            ErrorCode::BadRequest => 9,
            ErrorCode::UnknownOperand => 10,
            ErrorCode::DeployRejected => 11,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(ErrorCode::QueueFull),
            2 => Ok(ErrorCode::DeadlineExceeded),
            3 => Ok(ErrorCode::ShuttingDown),
            4 => Ok(ErrorCode::Cancelled),
            5 => Ok(ErrorCode::KernelPanicked),
            6 => Ok(ErrorCode::ShapeMismatch),
            7 => Ok(ErrorCode::Execution),
            8 => Ok(ErrorCode::BadFrame),
            9 => Ok(ErrorCode::BadRequest),
            10 => Ok(ErrorCode::UnknownOperand),
            11 => Ok(ErrorCode::DeployRejected),
            other => Err(WireError::UnknownErrorCode(other)),
        }
    }

    /// The wire code for an engine-side [`ServingError`].
    pub fn from_serving(error: &ServingError) -> Self {
        match error {
            ServingError::QueueFull => ErrorCode::QueueFull,
            ServingError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServingError::ShuttingDown => ErrorCode::ShuttingDown,
            ServingError::Cancelled => ErrorCode::Cancelled,
            ServingError::KernelPanicked { .. } => ErrorCode::KernelPanicked,
            ServingError::ShapeMismatch { .. } => ErrorCode::ShapeMismatch,
            // `ServingError` is non-exhaustive: any future engine-side variant
            // degrades to the generic execution failure rather than a decode error.
            _ => ErrorCode::Execution,
        }
    }
}

/// The server-side counters answering [`ControlOp::Stats`]: the serving session's
/// numbers plus the deploy-lifecycle state operators use to verify a weight push
/// landed (compare `cache_generation` against the [`Frame::UpdateAck`] generation) and
/// that a restart came back warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReport {
    /// The serving session's counters.
    pub serving: ServingStats,
    /// The weight store's deploy counter (0 when nothing was ever deployed).
    pub cache_generation: u64,
    /// Resident prepared bytes: the weight store's live bands plus the engine's
    /// decomposition cache (series + packed execution formats, deduped by allocation).
    pub bytes_resident: u64,
    /// Whether the server started from an intact store snapshot (re-registering the
    /// snapshotted weights decomposes nothing).
    pub warm_start: bool,
}

/// One protocol frame. Clients send [`Request`](Frame::Request) /
/// [`NamedRequest`](Frame::NamedRequest) / [`UpdateWeights`](Frame::UpdateWeights) /
/// [`Control`](Frame::Control); servers answer with [`Response`](Frame::Response) /
/// [`Error`](Frame::Error) / [`ControlAck`](Frame::ControlAck) /
/// [`UpdateAck`](Frame::UpdateAck) / [`Stats`](Frame::Stats). Responses on one
/// connection arrive in request order.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Multiply `a · b` (with `a` optionally TASD-decomposed under `config`).
    Request {
        /// Client-chosen correlation id, echoed on the answer.
        id: u64,
        /// Decomposition config string (e.g. `"2:8+1:8"`); `None` runs the exact GEMM.
        config: Option<String>,
        /// Relative deadline budget in microseconds from server receipt; `None` never
        /// expires.
        deadline_micros: Option<u64>,
        /// Left-hand operand.
        a: Matrix,
        /// Right-hand panel (`a.cols() × width`).
        b: Matrix,
    },
    /// A session-control operation.
    Control(ControlOp),
    /// Deploy weights under `name` into the server's weight store. With `config`, a
    /// registration (every row and band acks dirty; bands unchanged against the
    /// resident generation or a restored snapshot under the same config are reused, the
    /// rest decompose); without, an incremental push against the resident generation
    /// (only dirty 64-row bands re-prepare; the name must already be registered). Answered
    /// with [`UpdateAck`](Frame::UpdateAck) or an [`Error`](Frame::Error) at
    /// [`CONNECTION_SCOPE_ID`] ([`ErrorCode::UnknownOperand`] /
    /// [`ErrorCode::DeployRejected`]); either way the previous generation keeps
    /// serving until the ack.
    UpdateWeights {
        /// The operand's name in the server's weight store.
        name: String,
        /// Decomposition config string for a full registration; `None` pushes
        /// incrementally under the registered config.
        config: Option<String>,
        /// The new weights.
        a: Matrix,
    },
    /// Multiply `name · b` against the named operand's *current* generation (resolved
    /// at enqueue: a concurrent [`UpdateWeights`](Frame::UpdateWeights) never tears an
    /// in-flight request). Answered like [`Request`](Frame::Request), or with
    /// [`ErrorCode::UnknownOperand`] if the name was never deployed.
    NamedRequest {
        /// Client-chosen correlation id, echoed on the answer.
        id: u64,
        /// The operand's name in the server's weight store.
        name: String,
        /// Relative deadline budget in microseconds from server receipt; `None` never
        /// expires.
        deadline_micros: Option<u64>,
        /// Right-hand panel (`operand.cols() × width`).
        b: Matrix,
    },
    /// A successful answer to the request with the same `id`.
    Response {
        /// The request's correlation id.
        id: u64,
        /// The product matrix.
        output: Matrix,
    },
    /// A structured failure: admission control, execution errors, and connection-level
    /// decode failures all arrive as this frame — never as a dropped connection.
    Error {
        /// The failing request's id, or [`CONNECTION_SCOPE_ID`].
        id: u64,
        /// The failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledges a [`Control`](Frame::Control) after the operation completed.
    ControlAck(ControlOp),
    /// Acknowledges an [`UpdateWeights`](Frame::UpdateWeights) after the new
    /// generation is installed and serving. The numbers mirror the store's
    /// `DeployReport`: how much actually changed and re-prepared.
    UpdateAck {
        /// The deployed operand's name.
        name: String,
        /// The store's generation counter after the deploy (unchanged for a no-op
        /// push whose rows were all identical).
        generation: u64,
        /// Rows whose content changed.
        dirty_rows: u64,
        /// Total rows of the operand.
        total_rows: u64,
        /// 64-row bands containing at least one dirty row (every band for a
        /// registration).
        dirty_shards: u64,
        /// Total 64-row bands of the operand.
        total_shards: u64,
        /// Bands the deploy actually decomposed (for a push, `dirty_shards`; for a
        /// registration, the bands it could not reuse — 0 on a warm re-register).
        prepares: u64,
    },
    /// The server's counters, answering [`ControlOp::Stats`].
    Stats(StatsReport),
}

/// Appends a `[len: u16 LE][UTF-8]` string field (config strings, operand names).
fn encode_str16(s: &str, out: &mut Vec<u8>) {
    debug_assert!(s.len() <= u16::MAX as usize, "string fields are short");
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a matrix in wire form (`[rows u64][cols u64][f32 ×]`) to `out`.
pub fn encode_matrix(matrix: &Matrix, out: &mut Vec<u8>) {
    out.extend_from_slice(&(matrix.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(matrix.cols() as u64).to_le_bytes());
    out.reserve(matrix.len() * 4);
    for &value in matrix.as_slice() {
        out.extend_from_slice(&value.to_le_bytes());
    }
}

fn take<'a>(
    buf: &mut &'a [u8],
    needed: usize,
    context: &'static str,
) -> Result<&'a [u8], WireError> {
    if buf.len() < needed {
        return Err(WireError::Truncated {
            context,
            needed,
            have: buf.len(),
        });
    }
    let (head, rest) = buf.split_at(needed);
    *buf = rest;
    Ok(head)
}

fn take_u8(buf: &mut &[u8], context: &'static str) -> Result<u8, WireError> {
    Ok(take(buf, 1, context)?[0])
}

fn take_u16(buf: &mut &[u8], context: &'static str) -> Result<u16, WireError> {
    let bytes = take(buf, 2, context)?;
    Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
}

fn take_u32(buf: &mut &[u8], context: &'static str) -> Result<u32, WireError> {
    let bytes = take(buf, 4, context)?;
    Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

fn take_u64(buf: &mut &[u8], context: &'static str) -> Result<u64, WireError> {
    let bytes = take(buf, 8, context)?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(bytes);
    Ok(u64::from_le_bytes(raw))
}

/// Decodes a `[len: u16 LE][UTF-8]` string field; `context` names it in errors
/// ("config length"/"config string" style pairs collapse to one context here).
fn take_str16(buf: &mut &[u8], context: &'static str) -> Result<String, WireError> {
    let len = take_u16(buf, context)? as usize;
    let bytes = take(buf, len, context)?;
    Ok(std::str::from_utf8(bytes)
        .map_err(|_| WireError::BadUtf8 { context })?
        .to_string())
}

/// Decodes one wire-form matrix from the front of `buf`, advancing it. Validates the
/// `rows × cols` header against the available payload (see the module docs).
pub fn decode_matrix(buf: &mut &[u8]) -> Result<Matrix, WireError> {
    let rows = take_u64(buf, "matrix rows")?;
    let cols = take_u64(buf, "matrix cols")?;
    if rows > MAX_MATRIX_DIM {
        return Err(WireError::DimensionTooLarge {
            what: "matrix rows",
            value: rows,
        });
    }
    if cols > MAX_MATRIX_DIM {
        return Err(WireError::DimensionTooLarge {
            what: "matrix cols",
            value: cols,
        });
    }
    let elements = rows
        .checked_mul(cols)
        .ok_or(WireError::ElementOverflow { rows, cols })?;
    let payload_bytes = elements
        .checked_mul(4)
        .and_then(|b| usize::try_from(b).ok())
        .ok_or(WireError::ElementOverflow { rows, cols })?;
    // The header-vs-payload check the exemplar codec skipped: the declared element
    // count must actually be present (allocation below is bounded by received bytes).
    let payload = take(buf, payload_bytes, "matrix payload")?;
    let data: Vec<f32> = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Matrix::from_vec(rows as usize, cols as usize, data).map_err(|_| {
        // Unreachable by construction (data.len() == rows·cols); kept as a structured
        // error rather than an unwrap so the decoder stays panic-free.
        WireError::ElementOverflow { rows, cols }
    })
}

/// Encodes `frame` to its full wire form (length prefix included).
///
/// # Errors
///
/// [`WireError::Oversized`] if the body exceeds the `u32` length prefix.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let mut body = Vec::new();
    match frame {
        Frame::Request {
            id,
            config,
            deadline_micros,
            a,
            b,
        } => {
            body.push(TYPE_REQUEST);
            body.extend_from_slice(&id.to_le_bytes());
            let mut flags = 0u8;
            if config.is_some() {
                flags |= FLAG_CONFIG;
            }
            if deadline_micros.is_some() {
                flags |= FLAG_DEADLINE;
            }
            body.push(flags);
            if let Some(config) = config {
                let bytes = config.as_bytes();
                debug_assert!(bytes.len() <= u16::MAX as usize, "config strings are short");
                body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                body.extend_from_slice(bytes);
            }
            if let Some(deadline) = deadline_micros {
                body.extend_from_slice(&deadline.to_le_bytes());
            }
            encode_matrix(a, &mut body);
            encode_matrix(b, &mut body);
        }
        Frame::Control(op) => {
            body.push(TYPE_CONTROL);
            body.push(op.to_byte());
        }
        Frame::UpdateWeights { name, config, a } => {
            body.push(TYPE_UPDATE_WEIGHTS);
            let mut flags = 0u8;
            if config.is_some() {
                flags |= FLAG_CONFIG;
            }
            body.push(flags);
            encode_str16(name, &mut body);
            if let Some(config) = config {
                encode_str16(config, &mut body);
            }
            encode_matrix(a, &mut body);
        }
        Frame::NamedRequest {
            id,
            name,
            deadline_micros,
            b,
        } => {
            body.push(TYPE_NAMED_REQUEST);
            body.extend_from_slice(&id.to_le_bytes());
            let mut flags = 0u8;
            if deadline_micros.is_some() {
                flags |= FLAG_DEADLINE;
            }
            body.push(flags);
            encode_str16(name, &mut body);
            if let Some(deadline) = deadline_micros {
                body.extend_from_slice(&deadline.to_le_bytes());
            }
            encode_matrix(b, &mut body);
        }
        Frame::Response { id, output } => {
            body.push(TYPE_RESPONSE);
            body.extend_from_slice(&id.to_le_bytes());
            encode_matrix(output, &mut body);
        }
        Frame::Error { id, code, message } => {
            body.push(TYPE_ERROR);
            body.extend_from_slice(&id.to_le_bytes());
            body.push(code.to_byte());
            let bytes = message.as_bytes();
            body.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            body.extend_from_slice(bytes);
        }
        Frame::ControlAck(op) => {
            body.push(TYPE_CONTROL_ACK);
            body.push(op.to_byte());
        }
        Frame::UpdateAck {
            name,
            generation,
            dirty_rows,
            total_rows,
            dirty_shards,
            total_shards,
            prepares,
        } => {
            body.push(TYPE_UPDATE_ACK);
            encode_str16(name, &mut body);
            for counter in [
                *generation,
                *dirty_rows,
                *total_rows,
                *dirty_shards,
                *total_shards,
                *prepares,
            ] {
                body.extend_from_slice(&counter.to_le_bytes());
            }
        }
        Frame::Stats(report) => {
            body.push(TYPE_STATS);
            let stats = &report.serving;
            for counter in [
                stats.enqueued,
                stats.dispatched,
                stats.windows,
                stats.coalesced_windows,
                stats.max_window as u64,
                stats.ticks,
                stats.rejected_full,
                stats.expired,
                stats.shed,
                stats.cancelled,
                stats.shutdown_rejected,
                stats.window_panics,
                report.cache_generation,
                report.bytes_resident,
                u64::from(report.warm_start),
            ] {
                body.extend_from_slice(&counter.to_le_bytes());
            }
        }
    }
    if body.len() > u32::MAX as usize {
        return Err(WireError::Oversized {
            declared: body.len(),
            cap: u32::MAX as usize,
        });
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decodes a frame body (the bytes after the length prefix). The body must be exactly
/// one frame: leftover bytes are [`WireError::TrailingBytes`].
pub fn decode_frame_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut buf = body;
    let frame_type = take_u8(&mut buf, "frame type").map_err(|_| WireError::EmptyFrame)?;
    let frame = match frame_type {
        TYPE_REQUEST => {
            let id = take_u64(&mut buf, "request id")?;
            let flags = take_u8(&mut buf, "request flags")?;
            if flags & !(FLAG_CONFIG | FLAG_DEADLINE) != 0 {
                return Err(WireError::UnknownRequestFlags(flags));
            }
            let config = if flags & FLAG_CONFIG != 0 {
                let len = take_u16(&mut buf, "config length")? as usize;
                let bytes = take(&mut buf, len, "config string")?;
                Some(
                    std::str::from_utf8(bytes)
                        .map_err(|_| WireError::BadUtf8 {
                            context: "config string",
                        })?
                        .to_string(),
                )
            } else {
                None
            };
            let deadline_micros = if flags & FLAG_DEADLINE != 0 {
                Some(take_u64(&mut buf, "deadline")?)
            } else {
                None
            };
            let a = decode_matrix(&mut buf)?;
            let b = decode_matrix(&mut buf)?;
            Frame::Request {
                id,
                config,
                deadline_micros,
                a,
                b,
            }
        }
        TYPE_CONTROL => Frame::Control(ControlOp::from_byte(take_u8(&mut buf, "control op")?)?),
        TYPE_UPDATE_WEIGHTS => {
            let flags = take_u8(&mut buf, "update flags")?;
            if flags & !FLAG_CONFIG != 0 {
                return Err(WireError::UnknownRequestFlags(flags));
            }
            let name = take_str16(&mut buf, "operand name")?;
            let config = if flags & FLAG_CONFIG != 0 {
                Some(take_str16(&mut buf, "config string")?)
            } else {
                None
            };
            let a = decode_matrix(&mut buf)?;
            Frame::UpdateWeights { name, config, a }
        }
        TYPE_NAMED_REQUEST => {
            let id = take_u64(&mut buf, "request id")?;
            let flags = take_u8(&mut buf, "request flags")?;
            if flags & !FLAG_DEADLINE != 0 {
                return Err(WireError::UnknownRequestFlags(flags));
            }
            let name = take_str16(&mut buf, "operand name")?;
            let deadline_micros = if flags & FLAG_DEADLINE != 0 {
                Some(take_u64(&mut buf, "deadline")?)
            } else {
                None
            };
            let b = decode_matrix(&mut buf)?;
            Frame::NamedRequest {
                id,
                name,
                deadline_micros,
                b,
            }
        }
        TYPE_RESPONSE => {
            let id = take_u64(&mut buf, "response id")?;
            let output = decode_matrix(&mut buf)?;
            Frame::Response { id, output }
        }
        TYPE_ERROR => {
            let id = take_u64(&mut buf, "error id")?;
            let code = ErrorCode::from_byte(take_u8(&mut buf, "error code")?)?;
            let len = take_u32(&mut buf, "error message length")? as usize;
            let bytes = take(&mut buf, len, "error message")?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadUtf8 {
                    context: "error message",
                })?
                .to_string();
            Frame::Error { id, code, message }
        }
        TYPE_CONTROL_ACK => {
            Frame::ControlAck(ControlOp::from_byte(take_u8(&mut buf, "control op")?)?)
        }
        TYPE_UPDATE_ACK => {
            let name = take_str16(&mut buf, "operand name")?;
            let mut counters = [0u64; 6];
            for counter in counters.iter_mut() {
                *counter = take_u64(&mut buf, "update ack counter")?;
            }
            Frame::UpdateAck {
                name,
                generation: counters[0],
                dirty_rows: counters[1],
                total_rows: counters[2],
                dirty_shards: counters[3],
                total_shards: counters[4],
                prepares: counters[5],
            }
        }
        TYPE_STATS => {
            let mut counters = [0u64; 15];
            for counter in counters.iter_mut() {
                *counter = take_u64(&mut buf, "stats counter")?;
            }
            Frame::Stats(StatsReport {
                serving: ServingStats {
                    enqueued: counters[0],
                    dispatched: counters[1],
                    windows: counters[2],
                    coalesced_windows: counters[3],
                    max_window: counters[4] as usize,
                    ticks: counters[5],
                    rejected_full: counters[6],
                    expired: counters[7],
                    shed: counters[8],
                    cancelled: counters[9],
                    shutdown_rejected: counters[10],
                    window_panics: counters[11],
                },
                cache_generation: counters[12],
                bytes_resident: counters[13],
                // Tolerant on purpose: any nonzero flag means warm (the encoder only
                // ever writes 0 or 1).
                warm_start: counters[14] != 0,
            })
        }
        other => return Err(WireError::UnknownFrameType(other)),
    };
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes { extra: buf.len() });
    }
    Ok(frame)
}

/// Decodes one full frame (length prefix included) from the front of `bytes`,
/// returning the frame and the bytes consumed. Pure-buffer twin of [`read_frame`] for
/// codec tests.
pub fn decode_frame(bytes: &[u8], max_frame: usize) -> Result<(Frame, usize), WireError> {
    let mut buf = bytes;
    let len = take_u32(&mut buf, "frame header")? as usize;
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    if len > max_frame {
        return Err(WireError::Oversized {
            declared: len,
            cap: max_frame,
        });
    }
    let body = take(&mut buf, len, "frame body")?;
    Ok((decode_frame_body(body)?, 4 + len))
}

/// Writes `frame` to `w` in wire form (no flush — callers own batching).
///
/// # Errors
///
/// Transport errors pass through; an unencodable frame (body beyond the `u32` prefix)
/// surfaces as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    w.write_all(&bytes)
}

/// Reads until `buf` is full or EOF; returns how many bytes were read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads one frame from `r`, enforcing `max_frame` on the declared body length before
/// allocating. Returns `Ok(None)` on a clean EOF at a frame boundary; EOF anywhere
/// inside a frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Frame>, RecvError> {
    let mut header = [0u8; 4];
    let got = read_full(r, &mut header).map_err(RecvError::Io)?;
    if got == 0 {
        return Ok(None);
    }
    if got < header.len() {
        return Err(RecvError::Wire(WireError::Truncated {
            context: "frame header",
            needed: header.len(),
            have: got,
        }));
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(RecvError::Wire(WireError::EmptyFrame));
    }
    if len > max_frame {
        return Err(RecvError::Wire(WireError::Oversized {
            declared: len,
            cap: max_frame,
        }));
    }
    let mut body = vec![0u8; len];
    let got = read_full(r, &mut body).map_err(RecvError::Io)?;
    if got < len {
        return Err(RecvError::Wire(WireError::Truncated {
            context: "frame body",
            needed: len,
            have: got,
        }));
    }
    decode_frame_body(&body).map(Some).map_err(RecvError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| (i * 31 + j) as f32 * 0.5 - 3.0)
    }

    #[test]
    fn matrix_roundtrip_is_bitwise() {
        for (rows, cols) in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7)] {
            let m = sample_matrix(rows, cols);
            let mut bytes = Vec::new();
            encode_matrix(&m, &mut bytes);
            let mut buf = bytes.as_slice();
            let back = decode_matrix(&mut buf).expect("well-formed");
            assert!(buf.is_empty());
            assert_eq!(back, m);
        }
    }

    #[test]
    fn frame_roundtrip_every_variant() {
        let frames = vec![
            Frame::Request {
                id: 7,
                config: Some("2:8+1:8".to_string()),
                deadline_micros: Some(1500),
                a: sample_matrix(4, 6),
                b: sample_matrix(6, 2),
            },
            Frame::Request {
                id: 8,
                config: None,
                deadline_micros: None,
                a: sample_matrix(0, 3),
                b: sample_matrix(3, 0),
            },
            Frame::Control(ControlOp::Drain),
            Frame::Response {
                id: 9,
                output: sample_matrix(2, 2),
            },
            Frame::Error {
                id: CONNECTION_SCOPE_ID,
                code: ErrorCode::BadFrame,
                message: "truncated frame: matrix payload needs 12 bytes".to_string(),
            },
            Frame::ControlAck(ControlOp::Shutdown),
            Frame::UpdateWeights {
                name: "mlp.0.weight".to_string(),
                config: Some("2:8+1:8".to_string()),
                a: sample_matrix(4, 6),
            },
            Frame::UpdateWeights {
                name: "mlp.0.weight".to_string(),
                config: None,
                a: sample_matrix(4, 6),
            },
            Frame::NamedRequest {
                id: 11,
                name: "mlp.0.weight".to_string(),
                deadline_micros: Some(2000),
                b: sample_matrix(6, 3),
            },
            Frame::NamedRequest {
                id: 12,
                name: String::new(),
                deadline_micros: None,
                b: sample_matrix(6, 0),
            },
            Frame::UpdateAck {
                name: "mlp.0.weight".to_string(),
                generation: 3,
                dirty_rows: 17,
                total_rows: 256,
                dirty_shards: 2,
                total_shards: 8,
                prepares: 2,
            },
            Frame::Stats(StatsReport {
                serving: ServingStats {
                    enqueued: 1,
                    dispatched: 2,
                    windows: 3,
                    coalesced_windows: 4,
                    max_window: 5,
                    ticks: 6,
                    rejected_full: 7,
                    expired: 8,
                    shed: 9,
                    cancelled: 10,
                    shutdown_rejected: 11,
                    window_panics: 12,
                },
                cache_generation: 13,
                bytes_resident: 14,
                warm_start: true,
            }),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame).expect("encodable");
            let (back, consumed) =
                decode_frame(&bytes, DEFAULT_MAX_FRAME_BYTES).expect("well-formed");
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn truncation_is_structured_at_every_length() {
        let frame = Frame::Request {
            id: 1,
            config: Some("2:8".to_string()),
            deadline_micros: Some(10),
            a: sample_matrix(3, 3),
            b: sample_matrix(3, 2),
        };
        let bytes = encode_frame(&frame).expect("encodable");
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut], DEFAULT_MAX_FRAME_BYTES)
                .expect_err("every prefix is malformed");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
        // Same property for the deploy-era frames (string fields + flags + matrix).
        for frame in [
            Frame::UpdateWeights {
                name: "w".to_string(),
                config: Some("2:8".to_string()),
                a: sample_matrix(3, 3),
            },
            Frame::NamedRequest {
                id: 2,
                name: "w".to_string(),
                deadline_micros: Some(10),
                b: sample_matrix(3, 2),
            },
            Frame::UpdateAck {
                name: "w".to_string(),
                generation: 1,
                dirty_rows: 2,
                total_rows: 3,
                dirty_shards: 1,
                total_shards: 1,
                prepares: 1,
            },
        ] {
            let bytes = encode_frame(&frame).expect("encodable");
            for cut in 0..bytes.len() {
                let err = decode_frame(&bytes[..cut], DEFAULT_MAX_FRAME_BYTES)
                    .expect_err("every prefix is malformed");
                assert!(
                    matches!(err, WireError::Truncated { .. }),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn header_payload_mismatch_is_rejected_both_directions() {
        // Shorter payload than rows×cols declares: Truncated at the payload.
        let mut bytes = Vec::new();
        encode_matrix(&sample_matrix(2, 2), &mut bytes);
        bytes.truncate(bytes.len() - 4); // drop one element
        let mut buf = bytes.as_slice();
        assert!(matches!(
            decode_matrix(&mut buf),
            Err(WireError::Truncated {
                context: "matrix payload",
                ..
            })
        ));
        // Longer: extra bytes survive matrix decode but fail the frame-level check.
        let mut body = vec![TYPE_RESPONSE];
        body.extend_from_slice(&1u64.to_le_bytes());
        encode_matrix(&sample_matrix(2, 2), &mut body);
        body.extend_from_slice(&[0xAB, 0xCD]);
        assert_eq!(
            decode_frame_body(&body),
            Err(WireError::TrailingBytes { extra: 2 })
        );
    }

    #[test]
    fn overflow_and_caps_are_checked() {
        // A huge-but-capped element count with no payload dies as Truncated *before*
        // any allocation sized from the header (the capped dims keep rows·cols·4
        // within u64 on 64-bit targets, so the checked-mul guard is backstop only).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1u64 << 23).to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 23).to_le_bytes());
        let mut buf = bytes.as_slice();
        assert!(matches!(
            decode_matrix(&mut buf),
            Err(WireError::Truncated {
                context: "matrix payload",
                ..
            })
        ));
        // Absurd dimension at zero width (payload would be empty — dims still capped).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let mut buf = bytes.as_slice();
        assert!(matches!(
            decode_matrix(&mut buf),
            Err(WireError::DimensionTooLarge { .. })
        ));
        // Declared frame length above the cap fails before allocation.
        let mut framed = Vec::new();
        framed.extend_from_slice(&(1024u32).to_le_bytes());
        framed.push(TYPE_CONTROL);
        assert!(matches!(
            decode_frame(&framed, 16),
            Err(WireError::Oversized {
                declared: 1024,
                cap: 16
            })
        ));
    }

    #[test]
    fn unknown_bytes_are_structured() {
        assert_eq!(
            decode_frame_body(&[0x7F]),
            Err(WireError::UnknownFrameType(0x7F))
        );
        assert_eq!(
            decode_frame_body(&[TYPE_CONTROL, 200]),
            Err(WireError::UnknownControlOp(200))
        );
        assert_eq!(decode_frame_body(&[]), Err(WireError::EmptyFrame));
        let mut body = vec![TYPE_REQUEST];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(0b1000_0000); // reserved flag bit
        assert_eq!(
            decode_frame_body(&body),
            Err(WireError::UnknownRequestFlags(0b1000_0000))
        );
        // Deploy frames police their reserved bits too: UpdateWeights only knows the
        // config flag, NamedRequest only the deadline flag.
        assert_eq!(
            decode_frame_body(&[TYPE_UPDATE_WEIGHTS, FLAG_DEADLINE]),
            Err(WireError::UnknownRequestFlags(FLAG_DEADLINE))
        );
        let mut body = vec![TYPE_NAMED_REQUEST];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(FLAG_CONFIG);
        assert_eq!(
            decode_frame_body(&body),
            Err(WireError::UnknownRequestFlags(FLAG_CONFIG))
        );
    }

    #[test]
    fn stream_reader_distinguishes_clean_eof_from_truncation() {
        let frame = Frame::Control(ControlOp::Ping);
        let bytes = encode_frame(&frame).expect("encodable");
        // Clean EOF at a frame boundary.
        let mut cursor = io::Cursor::new(bytes.clone());
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).expect("frame"),
            Some(frame)
        );
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .expect("clean eof")
            .is_none());
        // EOF inside a frame is Truncated, not a clean close.
        let mut cursor = io::Cursor::new(bytes[..bytes.len() - 1].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(RecvError::Wire(WireError::Truncated { .. }))
        ));
    }
}
