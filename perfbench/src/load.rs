//! Load over loopback: an open-loop Poisson phase (independent users, one sender and
//! one receiver thread on one connection), a closed-loop capacity phase (one thread
//! keeping a fixed number of requests in flight), and a closed-loop deploy stream on
//! a connection of its own. Every time is in seconds since one run-wide origin.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tasd_serve::wire::{encode_frame, read_frame, DEFAULT_MAX_FRAME_BYTES};
use tasd_serve::Frame;
use tasd_tensor::Matrix;

use crate::stats::{due_latencies, Sample};

/// Builds the frame for a request id.
pub type MakeFrame<'a> = &'a (dyn Fn(u64) -> Frame + Sync);

/// An answer kept for the correctness gate.
#[derive(Debug)]
pub struct Kept {
    /// Request id within its phase.
    pub id: u64,
    /// When it was sent.
    pub sent_s: f64,
    /// When its answer arrived.
    pub answered_s: f64,
    /// The server's answer.
    pub output: Matrix,
}

/// Which ids to keep: about `target` of `n`, spread evenly.
pub fn keep_every(n: usize, target: usize) -> u64 {
    (n / target.max(1)).max(1) as u64
}

/// What one phase did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each request from its due time, ms; `None` = failed or unanswered.
    pub latencies: Vec<Sample>,
    /// How late the sender was for each request, ms.
    pub late_ms: Vec<f64>,
    /// Requests sent but unanswered when the last send fired.
    pub backlog: usize,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed: error frames, missing answers and refused connections.
    pub failed: usize,
    /// Completions per second (closed loop only).
    pub capacity_rps: f64,
    /// Answers kept for the gate.
    pub kept: Vec<Kept>,
}

fn secs(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64()
}

fn sleep_until(origin: Instant, at_s: f64) {
    let now = secs(origin);
    if at_s > now {
        std::thread::sleep(Duration::from_secs_f64(at_s - now));
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One connection kept for a whole run, so the server's per-connection threads are
/// not re-created for every block. After a transport error it reconnects at the next
/// block; a refused reconnect fails that block.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    io: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, io: None }
    }

    fn io(&mut self) -> Option<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.io.is_none() {
            self.io = connect(self.addr).ok();
        }
        self.io.as_mut()
    }

    fn broken(&mut self) {
        if let Some((stream, _)) = self.io.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Sends request `i` at `start_s + due[i]` whether or not earlier ones were answered,
/// and times each answer from its due time.
pub fn open_loop(
    conn: &mut Conn,
    origin: Instant,
    start_s: f64,
    due: &[f64],
    make: MakeFrame<'_>,
    keep: u64,
) -> Phase {
    let n = due.len();
    let mut phase = Phase {
        attempted: n,
        ..Phase::default()
    };
    let Some((stream, reader)) = conn.io() else {
        phase.failed = n;
        phase.latencies = vec![None; n];
        return phase;
    };
    let answered = AtomicUsize::new(0);
    let (answers, kept) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut at: Vec<Option<f64>> = vec![None; n];
            let mut kept = Vec::new();
            for _ in 0..n {
                let frame = match read_frame(&mut *reader, DEFAULT_MAX_FRAME_BYTES) {
                    Ok(Some(frame)) => frame,
                    _ => break,
                };
                let now = secs(origin);
                answered.fetch_add(1, Ordering::SeqCst);
                if let Frame::Response { id, output } = frame {
                    if let Some(slot) = at.get_mut(id as usize) {
                        *slot = Some(now);
                        if id % keep == 0 {
                            kept.push((id, now, output));
                        }
                    }
                }
            }
            (at, kept)
        });
        let mut sent = vec![0.0; n];
        for (i, &offset) in due.iter().enumerate() {
            let bytes = encode_frame(&make(i as u64)).expect("request frames encode");
            sleep_until(origin, start_s + offset);
            let now = secs(origin);
            sent[i] = now;
            phase.late_ms.push((now - start_s - offset) * 1e3);
            if stream.write_all(&bytes).is_err() {
                // Unblocks the receiver; the unsent requests count as failed.
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
            if i + 1 == n {
                phase.backlog = n - answered.load(Ordering::SeqCst);
            }
        }
        let (at, kept) = receiver.join().expect("receiver thread panicked");
        let kept: Vec<Kept> = kept
            .into_iter()
            .map(|(id, answered_s, output)| Kept {
                id,
                sent_s: sent[id as usize],
                answered_s,
                output,
            })
            .collect();
        (at, kept)
    });
    let due_s: Vec<f64> = due.iter().map(|d| (start_s + d) * 1e3).collect();
    let answered_ms: Vec<Option<f64>> = answers.iter().map(|a| a.map(|s| s * 1e3)).collect();
    phase.latencies = due_latencies(&due_s, &answered_ms);
    phase.failed = phase.latencies.iter().filter(|l| l.is_none()).count();
    phase.kept = kept;
    if answered.into_inner() < n {
        conn.broken();
    }
    phase
}

/// Keeps `in_flight` requests outstanding for `seconds`, then drains. Capacity is the
/// completion rate inside the window, timed from its first completion to its last so
/// that a short block is not rounded to whole completions per window.
pub fn closed_loop(
    conn: &mut Conn,
    origin: Instant,
    in_flight: usize,
    seconds: f64,
    make: MakeFrame<'_>,
    keep: u64,
) -> Phase {
    let mut phase = Phase::default();
    let Some((stream, reader)) = conn.io() else {
        phase.attempted = 1;
        phase.failed = 1;
        return phase;
    };
    let start = secs(origin);
    let mut sent_at: Vec<f64> = Vec::new();
    let send = |stream: &mut TcpStream, sent_at: &mut Vec<f64>| {
        let bytes = encode_frame(&make(sent_at.len() as u64)).expect("request frames encode");
        sent_at.push(secs(origin));
        stream.write_all(&bytes).is_ok()
    };
    let mut ok = (0..in_flight).all(|_| send(stream, &mut sent_at));
    let mut received = 0;
    let mut completions = 0;
    let (mut first, mut last) = (f64::NAN, f64::NAN);
    while ok && received < sent_at.len() {
        let Ok(Some(frame)) = read_frame(reader, DEFAULT_MAX_FRAME_BYTES) else {
            break;
        };
        received += 1;
        let now = secs(origin);
        match frame {
            Frame::Response { id, output } => {
                if now - start <= seconds {
                    completions += 1;
                    if completions == 1 {
                        first = now;
                    }
                    last = now;
                }
                if id % keep == 0 {
                    phase.kept.push(Kept {
                        id,
                        sent_s: sent_at[id as usize],
                        answered_s: now,
                        output,
                    });
                }
            }
            _ => phase.failed += 1,
        }
        if now - start < seconds {
            ok = send(stream, &mut sent_at);
        }
    }
    phase.attempted = sent_at.len();
    phase.failed += sent_at.len() - received;
    if received < sent_at.len() {
        conn.broken();
    }
    phase.capacity_rps = if completions >= 2 {
        f64::from(completions - 1) / (last - first)
    } else {
        f64::from(completions) / seconds
    };
    phase
}

/// One deploy and its outcome.
#[derive(Debug, Clone, Copy)]
pub struct PushRecord {
    /// Deploy index within the run.
    pub index: u64,
    /// When the frame was sent.
    pub sent_s: f64,
    /// When the `UpdateAck` arrived; `None` if it never did or was an error frame.
    pub acked_s: Option<f64>,
    /// Whether the acknowledged `dirty_rows` equals the rows the benchmark changed.
    pub dirty_rows_match: bool,
}

impl PushRecord {
    /// Push sent → `UpdateAck` received, ms.
    pub fn latency_ms(&self) -> Sample {
        self.acked_s.map(|acked| (acked - self.sent_s) * 1e3)
    }
}

/// Sends the `n`-th deploy (run-wide index `first + n`) at `start_s + n · cadence`, or
/// as soon as the previous one is acknowledged if that is later, until `end_s` or until
/// `stop` is set. `make` returns the frame and the `dirty_rows` the acknowledgement
/// must report. The first failed deploy ends the stream.
pub fn deploy_stream(
    conn: &mut Conn,
    origin: Instant,
    (start_s, end_s): (f64, f64),
    stop: &AtomicBool,
    cadence_s: f64,
    first: u64,
    make: &mut dyn FnMut(u64) -> (Frame, u64),
) -> Vec<PushRecord> {
    let mut records = Vec::new();
    for n in 0.. {
        let due = start_s + n as f64 * cadence_s;
        if due >= end_s {
            break;
        }
        sleep_until(origin, due);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let index = first + n;
        let (frame, expected) = make(index);
        let bytes = encode_frame(&frame).expect("deploy frames encode");
        let sent_s = secs(origin);
        let reply = conn.io().and_then(|(stream, reader)| {
            stream.write_all(&bytes).ok()?;
            read_frame(reader, DEFAULT_MAX_FRAME_BYTES).ok().flatten()
        });
        let acked_s = secs(origin);
        let (acked_s, dirty_rows_match) = match reply {
            Some(Frame::UpdateAck { dirty_rows, .. }) => (Some(acked_s), dirty_rows == expected),
            _ => (None, false),
        };
        records.push(PushRecord {
            index,
            sent_s,
            acked_s,
            dirty_rows_match,
        });
        if acked_s.is_none() {
            conn.broken();
            break;
        }
    }
    records
}

/// Sends `frames` one at a time on a fresh connection and returns the replies, for
/// set-up and the correctness gate (outside every timed phase).
pub fn round_trips(addr: SocketAddr, frames: Vec<Frame>) -> Result<Vec<Frame>, String> {
    let (mut stream, mut reader) = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut replies = Vec::with_capacity(frames.len());
    for frame in frames {
        let bytes = encode_frame(&frame).map_err(|e| e.to_string())?;
        stream.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(reply)) => replies.push(reply),
            other => return Err(format!("no reply: {other:?}")),
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    Ok(replies)
}

/// Pipelines `count` requests with `in_flight` outstanding on one connection and
/// waits for every answer (the `relu-fresh` warm-up).
pub fn pipelined(
    addr: SocketAddr,
    count: usize,
    in_flight: usize,
    make: MakeFrame<'_>,
) -> Result<(), String> {
    let (mut stream, mut reader) = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut sent = 0;
    for answered in 0..count {
        while sent < count && sent - answered < in_flight {
            let bytes = encode_frame(&make(sent as u64)).map_err(|e| e.to_string())?;
            stream.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
            sent += 1;
        }
        match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(Frame::Response { .. })) => {}
            other => return Err(format!("warm-up request failed: {other:?}")),
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}
