//! `tasd-serve --snapshot PATH` end to end: the built binary restores its weight store
//! from PATH at start and saves it back after a `Shutdown` control frame, so a second
//! boot on the same path starts warm and re-registers the same weights without
//! decomposing.

use std::io::{BufRead, BufReader, Lines};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use tasd_serve::{Client, ControlOp, Frame};
use tasd_tensor::{Matrix, MatrixGenerator};

const CONFIG: &str = "2:8+1:8";

/// A running `tasd-serve` child and its stdout lines.
struct Daemon {
    child: Child,
    lines: Lines<BufReader<ChildStdout>>,
    addr: SocketAddr,
    /// Every stdout line printed before `listening on`.
    startup: Vec<String>,
}

impl Daemon {
    fn boot(snapshot: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tasd-serve"))
            .args(["--addr", "127.0.0.1:0", "--snapshot"])
            .arg(snapshot)
            .stdout(Stdio::piped())
            .spawn()
            .expect("tasd-serve starts");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut startup = Vec::new();
        let addr = loop {
            let line = lines
                .next()
                .expect("tasd-serve prints its address")
                .expect("stdout is UTF-8");
            if let Some(addr) = line.strip_prefix("tasd-serve listening on ") {
                break addr.parse().expect("a socket address");
            }
            startup.push(line);
        };
        Daemon {
            child,
            lines,
            addr,
            startup,
        }
    }

    /// Sends `Shutdown`, waits for the exit, and returns the lines printed after
    /// `listening on`.
    fn shut_down(mut self, client: &mut Client) -> Vec<String> {
        client.control(ControlOp::Shutdown).unwrap();
        assert!(matches!(
            client.recv().unwrap().unwrap(),
            Frame::ControlAck(ControlOp::Shutdown)
        ));
        let status = self.child.wait().expect("tasd-serve exits");
        assert!(status.success(), "tasd-serve exited with {status}");
        self.lines
            .by_ref()
            .map(|line| line.expect("stdout is UTF-8"))
            .collect()
    }
}

impl Drop for Daemon {
    /// A failed check must not leave the daemon running (after a clean exit, `kill`
    /// just reports that the process is gone).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Registers `a` under "w" and returns the ack's `prepares`, then answers `b` against it.
fn register_and_read(client: &mut Client, a: &Matrix, b: &Matrix) -> (u64, Matrix) {
    client.update_weights("w", a, Some(CONFIG)).unwrap();
    let prepares = match client.recv().unwrap().unwrap() {
        Frame::UpdateAck { prepares, .. } => prepares,
        other => panic!("expected UpdateAck, got {other:?}"),
    };
    client.request_named(1, "w", b, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Response { output, .. } => (prepares, output),
        other => panic!("expected Response, got {other:?}"),
    }
}

fn warm_start(client: &mut Client) -> bool {
    client.control(ControlOp::Stats).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Stats(report) => report.warm_start,
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn second_boot_on_one_snapshot_path_starts_warm_and_decomposes_nothing() {
    let path = std::env::temp_dir().join(format!(
        "tasd-serve-snapshot-flag-{}.snapshot",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut gen = MatrixGenerator::seeded(0x5AF);
    // 200 rows: four bands, the last ragged.
    let a = gen.sparse_normal(200, 48, 0.8);
    let b = gen.normal(48, 4, 0.0, 1.0);

    // First boot: no file yet, a clean cold start; every band decomposes.
    let first = Daemon::boot(&path);
    assert!(
        first.startup.iter().any(|l| l.contains("cold start")),
        "{:?}",
        first.startup
    );
    let mut client = Client::connect(first.addr).expect("connect");
    assert!(!warm_start(&mut client));
    let (prepares, first_answer) = register_and_read(&mut client, &a, &b);
    assert_eq!(prepares, 4);
    let after = first.shut_down(&mut client);
    assert!(
        after.iter().any(|l| l.contains("saved 1 operands")),
        "{after:?}"
    );

    // Second boot on the same path: warm, and re-registering decomposes nothing.
    let second = Daemon::boot(&path);
    assert!(
        second.startup.iter().any(|l| l.contains("warm_start")),
        "{:?}",
        second.startup
    );
    let mut client = Client::connect(second.addr).expect("connect");
    assert!(warm_start(&mut client));
    let (prepares, second_answer) = register_and_read(&mut client, &a, &b);
    assert_eq!(prepares, 0, "a warm re-register reuses every band");
    let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(&second_answer),
        bits(&first_answer),
        "answers across the restart are bitwise identical"
    );
    second.shut_down(&mut client);
    std::fs::remove_file(&path).unwrap();
}
