//! `tasd-serve` — the network serving daemon.
//!
//! ```text
//! tasd-serve [--addr 127.0.0.1:7474] [--max-batch 32] [--queue-cap N] [--shed]
//!            [--max-frame-mb 64] [--snapshot PATH]
//! ```
//!
//! Runs until a `Shutdown` control frame arrives (the supervisor-friendly stop path;
//! see the server module docs). With `--snapshot PATH` it restores the weight store
//! from PATH at start (a missing or corrupt file is a cold start) and saves the store
//! back to PATH after that shutdown, so the next start re-registers the same weights
//! without decomposing.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use tasd::{ExecutionEngine, LoadOutcome, OverloadPolicy};
use tasd_serve::{Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tasd-serve [--addr HOST:PORT] [--max-batch N] [--queue-cap N] [--shed] \
         [--max-frame-mb MIB] [--snapshot PATH]"
    );
    ExitCode::FAILURE
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Option<T> {
    let value = args.next()?;
    match value.parse() {
        Ok(parsed) => Some(parsed),
        Err(_) => {
            eprintln!("tasd-serve: bad value {value:?} for {flag}");
            None
        }
    }
}

/// Pins glibc's allocator to one arena; call it before any thread starts.
///
/// By default glibc gives each thread its own arena, and a freed buffer goes back to
/// the arena of the thread that allocated it. Every request here crosses threads (the
/// reader decodes the panel, the dispatcher and executor pack and multiply, the writer
/// encodes the answer) and every push allocates a new weight matrix on the deploy
/// connection's reader, so free space piles up in arenas whose own threads never
/// allocate that size again, and the resident set grows over a run by an amount that
/// differs from run to run. With one arena every thread reuses the same free space.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    /// `M_ARENA_MAX` from glibc's `malloc.h`.
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` is glibc's documented tuning entry point, declared here with
    // its C signature (`int mallopt(int, int)`). It takes two integers and touches
    // only the allocator's own parameters, under the allocator's lock. `main` calls
    // this before it spawns any thread, so no thread has chosen an arena yet and the
    // limit applies to all of them.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let mut addr = "127.0.0.1:7474".to_string();
    let mut config = ServerConfig::default();
    let mut snapshot: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(value) => addr = value,
                None => return usage(),
            },
            "--max-batch" => match parse(&mut args, "--max-batch") {
                Some(value) => config.max_batch = value,
                None => return usage(),
            },
            "--queue-cap" => match parse(&mut args, "--queue-cap") {
                Some(value) => config.queue_capacity = Some(value),
                None => return usage(),
            },
            "--shed" => config.overload = OverloadPolicy::ShedExpiredFirst,
            "--max-frame-mb" => match parse::<usize>(&mut args, "--max-frame-mb") {
                Some(value) => config.max_frame_bytes = value << 20,
                None => return usage(),
            },
            "--snapshot" => match args.next() {
                Some(value) => snapshot = Some(PathBuf::from(value)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let bound = match &snapshot {
        Some(path) => {
            let engine = Arc::new(ExecutionEngine::builder().build());
            Server::bind_restored(&addr, config, engine, path).map(|(server, outcome)| {
                match outcome {
                    LoadOutcome::Warm { operands, bytes } => println!(
                        "tasd-serve: warm_start from {}: {operands} operands, {bytes} bytes",
                        path.display()
                    ),
                    LoadOutcome::Cold { reason } => println!("tasd-serve: cold start: {reason}"),
                }
                server
            })
        }
        None => Server::bind(&addr, config),
    };
    let mut server = match bound {
        Ok(server) => server,
        Err(error) => {
            eprintln!("tasd-serve: cannot bind {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("tasd-serve listening on {}", server.local_addr());
    server.wait();
    if let Some(path) = &snapshot {
        match server.snapshot(path) {
            Ok(stats) => println!(
                "tasd-serve: saved {} operands ({} bands, {} bytes) to {}",
                stats.operands,
                stats.bands,
                stats.bytes,
                path.display()
            ),
            Err(error) => {
                eprintln!(
                    "tasd-serve: cannot save snapshot {}: {error}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!("tasd-serve: shut down cleanly");
    ExitCode::SUCCESS
}
