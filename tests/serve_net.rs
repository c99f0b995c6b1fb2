//! Loopback integration suite for `tasd-serve`: the network front-end must be a
//! transparent skin over the serving engine.
//!
//! Contracts, per `crates/serve/README.md` and the ISSUE acceptance gate:
//!
//! * **Bitwise transparency** — 4 concurrent connections × 16 requests through the
//!   socket return outputs bitwise identical to an in-process
//!   [`ServingEngine::submit`] of the same requests (the engine's determinism
//!   contract extends across the wire).
//! * **Error frames, not dropped connections** — queue-full, deadline-expired,
//!   drain-raced and shutdown-raced requests all resolve to structured error frames
//!   with the request's id; the TCP connection stays healthy wherever the protocol
//!   allows.
//! * **Mid-stream drain** — a connection that sees `Drain` acknowledged keeps its
//!   socket: earlier requests complete, later requests get `ShuttingDown` frames.
//! * **Malformed bytes** — a framing error is answered with a `BadFrame` error frame
//!   (connection scope) and a clean close, never a panic or an RST.
//! * **Unusable configs** — a config the engine cannot store (block size above
//!   `NmPattern::MAX_M`) is a `BadRequest` frame and the connection stays open.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tasd::{BatchRequest, ExecutionEngine, LatchedBackend, TasdConfig};
use tasd_serve::wire::CONNECTION_SCOPE_ID;
use tasd_serve::{Client, ControlOp, ErrorCode, Frame, Server, ServerConfig};
use tasd_tensor::backend::{DenseBackend, GemmBackend};
use tasd_tensor::{Matrix, MatrixGenerator};

const CONNECTIONS: usize = 4;
const REQUESTS_PER_CONNECTION: usize = 16;
const CONFIG: &str = "2:8+1:8";

/// Connection `c`'s deterministic operand stream: mixed shapes, decomposed and dense.
fn operands(c: usize) -> Vec<(Matrix, Matrix, bool)> {
    let mut gen = MatrixGenerator::seeded(0x5EED + c as u64);
    (0..REQUESTS_PER_CONNECTION)
        .map(|i| {
            let (rows, cols) = match i % 3 {
                0 => (64, 96),
                1 => (48, 64),
                _ => (96, 48),
            };
            let a = gen.sparse_normal(rows, cols, 0.85);
            let b = gen.normal(cols, 24, 0.0, 1.0);
            (a, b, i % 2 == 0)
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The acceptance gate: concurrent socket traffic is bitwise identical to in-process
/// submission of the same requests on a fresh engine.
#[test]
fn loopback_matches_in_process_submit_bitwise() {
    if !tasd_bench::testing::require_parallelism(2, "loopback_matches_in_process_submit_bitwise") {
        return;
    }
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let over_wire: Vec<Vec<Matrix>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    operands(c)
                        .iter()
                        .enumerate()
                        .map(|(i, (a, b, decomposed))| {
                            let config = decomposed.then_some(CONFIG);
                            client.request(i as u64, a, b, config, None).expect("send");
                            match client.recv().expect("recv").expect("open") {
                                Frame::Response { id, output } => {
                                    assert_eq!(id, i as u64, "FIFO order per connection");
                                    output
                                }
                                other => panic!("conn {c} req {i}: unexpected {other:?}"),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn thread"))
            .collect()
    });
    server.shutdown();

    // In-process reference on a *separate* engine: the determinism contract says
    // window composition and engine instance never change result bits.
    let engine = ExecutionEngine::builder().build();
    let config = TasdConfig::parse(CONFIG).expect("config");
    for (c, wire_outputs) in over_wire.iter().enumerate() {
        let requests: Vec<BatchRequest> = operands(c)
            .into_iter()
            .map(|(a, b, decomposed)| {
                if decomposed {
                    BatchRequest::decomposed(a, config.clone(), b)
                } else {
                    BatchRequest::dense(a, b)
                }
            })
            .collect();
        let reference = engine.submit(requests);
        assert_eq!(reference.len(), wire_outputs.len());
        for (i, (reference, wire)) in reference.iter().zip(wire_outputs).enumerate() {
            let reference = reference.output.as_ref().expect("in-process ok");
            assert_eq!(
                bits(reference),
                bits(wire),
                "conn {c} req {i}: wire output differs from in-process submit"
            );
        }
    }
}

/// A drain raced against an open connection: earlier requests complete, the ack
/// arrives, and *later* requests on the same (still-open) connection resolve to
/// `ShuttingDown` error frames — no hang, no reset.
#[test]
fn mid_stream_drain_yields_shutting_down_frames() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut gen = MatrixGenerator::seeded(0xD8A1);
    let a = gen.sparse_normal(32, 48, 0.8);
    let b = gen.normal(48, 8, 0.0, 1.0);

    // Pipeline: request, drain, request — all before reading anything.
    client
        .request(1, &a, &b, Some(CONFIG), None)
        .expect("send 1");
    client.control(ControlOp::Drain).expect("drain");
    client
        .request(2, &a, &b, Some(CONFIG), None)
        .expect("send 2");

    match client.recv().expect("recv").expect("open") {
        Frame::Response { id: 1, .. } => {}
        other => panic!("first answer should be request 1's response, got {other:?}"),
    }
    assert_eq!(
        client.recv().expect("recv").expect("open"),
        Frame::ControlAck(ControlOp::Drain)
    );
    match client.recv().expect("recv").expect("open") {
        Frame::Error {
            id: 2,
            code: ErrorCode::ShuttingDown,
            ..
        } => {}
        other => panic!("post-drain request should be ShuttingDown, got {other:?}"),
    }
    // The connection is still healthy for control traffic.
    client.control(ControlOp::Ping).expect("ping");
    assert_eq!(
        client.recv().expect("recv").expect("open"),
        Frame::ControlAck(ControlOp::Ping)
    );
    server.shutdown();
}

/// Overload and deadline admission outcomes arrive as structured error frames.
#[test]
fn queue_full_and_deadline_yield_error_frames() {
    // A one-request queue and a kernel held on a latch: request 1 executes (and stays
    // executing), request 2 parks behind it, request 3 overflows the bounded queue.
    let latch = Arc::new(LatchedBackend::wrap(Arc::new(DenseBackend::default())));
    let engine = ExecutionEngine::builder()
        .backend(Arc::clone(&latch) as Arc<dyn GemmBackend>)
        .workers(1)
        .build();
    let config = ServerConfig {
        queue_capacity: Some(1),
        ..ServerConfig::default()
    };
    let mut server = Server::bind_over("127.0.0.1:0", config, Arc::new(engine)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut gen = MatrixGenerator::seeded(0xF00D);
    let a = gen.sparse_normal(16, 32, 0.7);
    let b = gen.normal(32, 4, 0.0, 1.0);

    client.request(1, &a, &b, None, None).expect("send 1");
    latch.wait_started();
    // One reader thread decodes this connection's frames in order, so request 2 parks
    // before request 3 is admitted, and the flush then blocks that reader on the
    // executing window. Hold the latch until request 3 has met the full queue, and
    // release it before asserting: a failure with the latch closed would hang the
    // server's shutdown on the held window.
    client.request(2, &a, &b, None, None).expect("send 2");
    client.request(3, &a, &b, None, None).expect("send 3");
    client.control(ControlOp::Flush).expect("flush");
    let start = Instant::now();
    while server.session().stats().rejected_full == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let refused = server.session().stats().rejected_full;
    latch.release();
    assert_eq!(refused, 1, "request 3 was never refused");

    // FIFO: requests 1 and 2 resolve as their windows close; request 3 was rejected at
    // admission; the flush's ack trails all three.
    for id in [1, 2] {
        match client.recv().expect("recv").expect("open") {
            Frame::Response { id: got, .. } if got == id => {}
            other => panic!("request {id} should succeed, got {other:?}"),
        }
    }
    match client.recv().expect("recv").expect("open") {
        Frame::Error {
            id: 3,
            code: ErrorCode::QueueFull,
            ..
        } => {}
        other => panic!("request 3 should be QueueFull, got {other:?}"),
    }
    assert_eq!(
        client.recv().expect("recv").expect("open"),
        Frame::ControlAck(ControlOp::Flush)
    );

    // A zero-microsecond budget expires before its window dispatches.
    client.request(4, &a, &b, None, Some(0)).expect("send 4");
    match client.recv().expect("recv").expect("open") {
        Frame::Error {
            id: 4,
            code: ErrorCode::DeadlineExceeded,
            ..
        } => {}
        other => panic!("request 4 should be DeadlineExceeded, got {other:?}"),
    }
    server.shutdown();
}

/// Bytes that do not frame are answered with a connection-scoped `BadFrame` error
/// frame followed by a clean close — the server never panics and never just resets.
#[test]
fn malformed_frame_gets_bad_frame_error_then_clean_close() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A well-formed header declaring a 1-byte body with an unknown frame type.
    stream.write_all(&[1, 0, 0, 0, 0x5A]).expect("write");
    stream.flush().expect("flush");
    let answer = tasd_serve::wire::read_frame(&mut stream, 1 << 20)
        .expect("structured answer")
        .expect("frame before close");
    match answer {
        Frame::Error {
            id: CONNECTION_SCOPE_ID,
            code: ErrorCode::BadFrame,
            ..
        } => {}
        other => panic!("expected connection-scoped BadFrame, got {other:?}"),
    }
    // Then a clean EOF at a frame boundary.
    assert!(tasd_serve::wire::read_frame(&mut stream, 1 << 20)
        .expect("clean close")
        .is_none());
    server.shutdown();
}

/// A config whose block size exceeds `NmPattern::MAX_M` (the width of the 64-bit lane
/// selection mask) is refused, so it is a `BadRequest` frame — with the request's id for a
/// `Request`, connection-scoped for a registration — and the connection keeps serving.
#[test]
fn oversized_block_configs_get_bad_request_frames() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // One value, at column 290: lane 290 of a 1:300 block would not fit a byte.
    let mut a = Matrix::zeros(1, 600);
    a[(0, 290)] = 1.0;
    let b = Matrix::from_fn(600, 1, |i, _| i as f32);

    client
        .request(1, &a, &b, Some("1:300"), None)
        .expect("send");
    match client.recv().expect("recv").expect("open") {
        Frame::Error {
            id: 1,
            code: ErrorCode::BadRequest,
            ..
        } => {}
        other => panic!("a 1:300 request should be BadRequest, got {other:?}"),
    }
    client
        .update_weights("wide", &a, Some("1:300"))
        .expect("send");
    match client.recv().expect("recv").expect("open") {
        Frame::Error {
            id: CONNECTION_SCOPE_ID,
            code: ErrorCode::BadRequest,
            message,
        } => assert!(message.contains("\"wide\""), "unnamed refusal: {message}"),
        other => panic!("a 1:300 registration should be BadRequest, got {other:?}"),
    }

    // The same connection still serves, and the widest legal block is exact.
    client.request(2, &a, &b, Some("1:64"), None).expect("send");
    match client.recv().expect("recv").expect("open") {
        Frame::Response { id: 2, output } => assert_eq!(output[(0, 0)], 290.0),
        other => panic!("a 1:64 request should be answered, got {other:?}"),
    }
    assert!(server.store().resolve("wide").is_none());
    server.shutdown();
}

/// A refused deploy carries no request id, so its error frame names the operand: a
/// push of the wrong shape is `DeployRejected`, a push to an unknown name
/// `UnknownOperand`, and the resident generation keeps serving.
#[test]
fn refused_deploys_name_their_operand() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut gen = MatrixGenerator::seeded(0xDE9);
    let weights = gen.sparse_normal(16, 32, 0.7);
    client
        .update_weights("layer", &weights, Some(CONFIG))
        .expect("send");
    match client.recv().expect("recv").expect("open") {
        Frame::UpdateAck { name, .. } => assert_eq!(name, "layer"),
        other => panic!("registration should be acknowledged, got {other:?}"),
    }
    let reshaped = gen.sparse_normal(8, 32, 0.7);
    client
        .update_weights("layer", &reshaped, None)
        .expect("send");
    client
        .update_weights("ghost", &weights, None)
        .expect("send");
    for (code, name) in [
        (ErrorCode::DeployRejected, "\"layer\""),
        (ErrorCode::UnknownOperand, "\"ghost\""),
    ] {
        match client.recv().expect("recv").expect("open") {
            Frame::Error {
                id: CONNECTION_SCOPE_ID,
                code: got,
                message,
            } if got == code => assert!(message.contains(name), "unnamed refusal: {message}"),
            other => panic!("expected a {code:?} frame naming {name}, got {other:?}"),
        }
    }
    let resident = server.store().resolve("layer").expect("still resident");
    assert_eq!(
        resident.matrix().rows(),
        16,
        "the refused push changed nothing"
    );
    server.shutdown();
}

/// The `Shutdown` control frame stops the whole server: the ack arrives, `wait()`
/// returns, and the listener goes away.
#[test]
fn shutdown_control_stops_the_server() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let mut gen = MatrixGenerator::seeded(0x0FF);
    let a = gen.sparse_normal(16, 16, 0.5);
    let b = gen.normal(16, 4, 0.0, 1.0);
    client.request(1, &a, &b, None, None).expect("send");
    match client.recv().expect("recv").expect("open") {
        Frame::Response { id: 1, .. } => {}
        other => panic!("expected a response first, got {other:?}"),
    }
    client.control(ControlOp::Shutdown).expect("shutdown");
    assert_eq!(
        client.recv().expect("recv").expect("open"),
        Frame::ControlAck(ControlOp::Shutdown)
    );
    // wait() observes the control-frame-driven stop and tears down.
    server.wait();
    // The connection closes cleanly after the ack...
    assert!(client.recv().expect("clean close").is_none());
    // ...and a request racing the shutdown would have gotten a ShuttingDown error
    // frame (covered by the session's own suite); here the listener itself is gone,
    // so a *new* connection cannot complete a request round trip.
    if let Ok(mut late) = Client::connect(addr) {
        let outcome = late.request(9, &a, &b, None, None).and_then(|()| {
            late.recv()
                .map_err(|e| std::io::Error::other(e.to_string()))
        });
        assert!(
            matches!(outcome, Ok(None) | Err(_)),
            "a post-shutdown connection must not serve requests"
        );
    }
}

/// Stats frames round-trip the session's counters over the wire.
#[test]
fn stats_control_reports_session_counters() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut gen = MatrixGenerator::seeded(0x57A7);
    let a = gen.sparse_normal(24, 32, 0.6);
    let b = gen.normal(32, 8, 0.0, 1.0);
    for id in 0..3 {
        client
            .request(id, &a, &b, Some(CONFIG), None)
            .expect("send");
        match client.recv().expect("recv").expect("open") {
            Frame::Response { .. } => {}
            other => panic!("expected a response, got {other:?}"),
        }
    }
    client.control(ControlOp::Stats).expect("stats");
    match client.recv().expect("recv").expect("open") {
        Frame::Stats(report) => {
            assert_eq!(report.serving.enqueued, 3);
            assert_eq!(report.serving.dispatched, 3);
            assert!(report.serving.windows >= 1);
            // The wire counters are the session's own, not a copy-by-hand.
            assert_eq!(server.session().stats().enqueued, 3);
            // Deploy-lifecycle fields: nothing deployed, no snapshot restored, but
            // the served decompositions are resident in the prepared cache.
            assert_eq!(report.cache_generation, 0);
            assert!(!report.warm_start);
            assert!(report.bytes_resident > 0);
        }
        other => panic!("expected a stats frame, got {other:?}"),
    }
    server.shutdown();
}
