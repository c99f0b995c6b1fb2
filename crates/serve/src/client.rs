//! A minimal blocking client for the `tasd-serve` wire protocol.
//!
//! One [`Client`] owns one connection. Requests are correlated by caller-chosen ids
//! and answered in request order, so the simplest usage is fully synchronous:
//! [`request`](Client::request) then [`recv`](Client::recv). Pipelining (several
//! `request`s before the first `recv`) is also valid — the server's per-connection
//! writer preserves FIFO order.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use tasd_tensor::Matrix;

use crate::wire::{read_frame, write_frame, ControlOp, Frame, RecvError, DEFAULT_MAX_FRAME_BYTES};

/// A blocking connection to a `tasd-serve` server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: usize,
}

impl Client {
    /// Connects to `addr` with the default frame cap.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader_stream = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            max_frame: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Overrides the receive-side frame cap (must match the server's to accept the
    /// largest responses it can send).
    #[must_use]
    pub fn with_max_frame(mut self, max_frame: usize) -> Client {
        self.max_frame = max_frame;
        self
    }

    /// Writes one frame and flushes it.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()
    }

    /// Reads the next frame; `Ok(None)` means the server closed the connection at a
    /// frame boundary.
    pub fn recv(&mut self) -> Result<Option<Frame>, RecvError> {
        read_frame(&mut self.reader, self.max_frame)
    }

    /// Sends a multiply request: `a · b`, optionally TASD-decomposed under `config`
    /// (e.g. `"2:8+1:8"`), optionally bounded by a relative deadline in microseconds.
    pub fn request(
        &mut self,
        id: u64,
        a: &Matrix,
        b: &Matrix,
        config: Option<&str>,
        deadline_micros: Option<u64>,
    ) -> io::Result<()> {
        self.send(&Frame::Request {
            id,
            config: config.map(str::to_string),
            deadline_micros,
            a: a.clone(),
            b: b.clone(),
        })
    }

    /// Sends a multiply request against a *named* operand deployed on the server
    /// (its current generation is resolved server-side at enqueue).
    pub fn request_named(
        &mut self,
        id: u64,
        name: &str,
        b: &Matrix,
        deadline_micros: Option<u64>,
    ) -> io::Result<()> {
        self.send(&Frame::NamedRequest {
            id,
            name: name.to_string(),
            deadline_micros,
            b: b.clone(),
        })
    }

    /// Deploys weights under `name`. With `config` (e.g. `"2:8+1:8"`) this is a full
    /// registration; without, an incremental push against the registered config that
    /// re-prepares only dirty 64-row bands. The server answers with an `UpdateAck` (or
    /// a structured error frame) via [`recv`](Client::recv).
    pub fn update_weights(
        &mut self,
        name: &str,
        a: &Matrix,
        config: Option<&str>,
    ) -> io::Result<()> {
        self.send(&Frame::UpdateWeights {
            name: name.to_string(),
            config: config.map(str::to_string),
            a: a.clone(),
        })
    }

    /// Sends a control frame (the matching ack or stats frame arrives via
    /// [`recv`](Client::recv), after any in-flight responses).
    pub fn control(&mut self, op: ControlOp) -> io::Result<()> {
        self.send(&Frame::Control(op))
    }
}
