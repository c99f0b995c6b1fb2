//! Deploy-lifecycle integration suite: live weight updates and the persistent
//! prepared cache under serving traffic, including the chaos schedules from the
//! fault-injection harness. The executable form of the ISSUE acceptance gates:
//!
//! * **Swap atomicity, bitwise** — requests enqueued before a push execute the old
//!   generation's weights bitwise-unchanged; requests enqueued after see the new
//!   weights; concurrent resolvers never observe a torn generation.
//! * **Enqueue never blocks on a deploy** — with an injected
//!   [`FaultKind::Delay`] stretching a push's decomposition, resolving and serving
//!   the resident generation completes while the deploy is still in flight.
//! * **Warm restarts decompose nothing** — a snapshot saved by one engine makes a
//!   restarted engine's re-registration of the same weights a pure cache hit
//!   (`prepares == 0`), in process and over the wire; a corrupt snapshot is a clean
//!   cold start that still serves.
//! * **Deploy panics are contained** — a seeded [`FaultSite::Decompose`] panic
//!   mid-push surfaces as [`DeployError::PreparePanicked`], the store keeps the old
//!   generation (same `Arc`), every in-flight handle resolves, and the retry lands.
//!
//! Fault seeds follow the `serving_faults` convention (`TASD_FAULT_SEED` sweeps in
//! CI); the workloads here are deterministic, so fault placement is explicit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tasd::{
    load_snapshot, save_snapshot, BatchRequest, DeployError, ExecutionEngine, FaultKind, FaultPlan,
    FaultSite, LoadOutcome, ServingEngine, ShardPolicy, TasdConfig, WeightStore,
};
use tasd_serve::wire::CONNECTION_SCOPE_ID;
use tasd_serve::{Client, ControlOp, ErrorCode, Frame, Server, ServerConfig};
use tasd_tensor::{Matrix, MatrixGenerator};

const CONFIG: &str = "2:8+1:8";
const ROWS: usize = 64;
const COLS: usize = 32;
/// `FixedRows(16)` over 64 rows: the shard count every report below pins.
const SHARDS: u64 = 4;

fn cfg() -> TasdConfig {
    TasdConfig::parse(CONFIG).unwrap()
}

/// The engines under test shard at 16 rows so a one-row push dirties 1 of 4 shards.
fn sharded_engine() -> Arc<ExecutionEngine> {
    Arc::new(
        ExecutionEngine::builder()
            .shard_policy(ShardPolicy::FixedRows(16))
            .shard_min_rows(2)
            .workers(1)
            .build(),
    )
}

/// Same sharding, with every engine failpoint armed against `plan` and a single worker
/// so per-site call indices are in program order.
fn faulted_sharded_engine(plan: &Arc<FaultPlan>) -> Arc<ExecutionEngine> {
    Arc::new(
        ExecutionEngine::builder()
            .shard_policy(ShardPolicy::FixedRows(16))
            .shard_min_rows(2)
            .workers(1)
            .fault_plan(Arc::clone(plan))
            .build(),
    )
}

fn weights(seed: u64) -> Matrix {
    MatrixGenerator::seeded(seed).sparse_normal(ROWS, COLS, 0.8)
}

fn activations(seed: u64) -> Matrix {
    MatrixGenerator::seeded(seed).normal(COLS, 8, 0.0, 1.0)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Reference output of `a · b` under the suite config, on a fresh unrelated engine
/// (the determinism contract: engine instance never changes result bits).
fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let engine = ExecutionEngine::builder().build();
    let mut responses = engine.submit(vec![BatchRequest::decomposed(a.clone(), cfg(), b.clone())]);
    responses.remove(0).output.expect("reference run is clean")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tasd-serving-deploy-{}-{name}.snapshot",
        std::process::id()
    ))
}

/// The swap-atomicity gate: requests enqueued before a push finish bitwise on the
/// old weights, requests enqueued after run bitwise on the new — one window apart.
#[test]
fn swap_under_traffic_is_bitwise_atomic() {
    let engine = sharded_engine();
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(100);
    let store = WeightStore::new(engine);

    let old_weights = weights(0xA0);
    let mut new_weights = old_weights.clone();
    new_weights[(5, 5)] += 3.0;
    new_weights[(50, 1)] -= 2.0;
    store.register("w", old_weights.clone(), cfg()).unwrap();

    // Enqueue against the resident generation, then deploy *while they are parked*.
    let before_swap = store.resolve("w").unwrap();
    let old_handles: Vec<_> = (0..3)
        .map(|i| serving.enqueue(before_swap.request(activations(0xB0 + i))))
        .collect();
    let report = store.push("w", new_weights.clone()).unwrap();
    assert_eq!(report.dirty_rows, 2);
    assert_eq!(report.dirty_shards, 2);
    assert_eq!(report.generation, 2);
    let after_swap = store.resolve("w").unwrap();
    assert_eq!(after_swap.number(), 2);
    let new_handles: Vec<_> = (0..3)
        .map(|i| serving.enqueue(after_swap.request(activations(0xB0 + i))))
        .collect();
    serving.flush();

    for (i, handle) in old_handles.into_iter().enumerate() {
        let output = handle.wait().output.expect("old-generation request");
        let expected = reference(&old_weights, &activations(0xB0 + i as u64));
        assert_eq!(
            bits(&output),
            bits(&expected),
            "request {i} enqueued before the swap must execute the old weights bitwise"
        );
    }
    for (i, handle) in new_handles.into_iter().enumerate() {
        let output = handle.wait().output.expect("new-generation request");
        let expected = reference(&new_weights, &activations(0xB0 + i as u64));
        assert_eq!(
            bits(&output),
            bits(&expected),
            "request {i} enqueued after the swap must execute the new weights bitwise"
        );
    }
}

/// The never-blocks gate: an injected decomposition delay stretches a push far past
/// the serving path's latency, and resolving + serving the resident generation
/// completes while that deploy is still inside its decomposition.
#[test]
fn enqueue_never_blocks_on_a_slow_deploy() {
    const DEPLOY_DELAY: Duration = Duration::from_millis(500);
    // Registration decomposes shards 0..4; the armed delay hits call index 4 — the
    // push's single dirty shard.
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Decompose,
        SHARDS,
        FaultKind::Delay(DEPLOY_DELAY),
    ));
    let engine = faulted_sharded_engine(&plan);
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(100);
    let store = Arc::new(WeightStore::new(engine));

    let old_weights = weights(0xC0);
    store.register("w", old_weights.clone(), cfg()).unwrap();
    assert_eq!(plan.calls(FaultSite::Decompose), SHARDS);

    let mut new_weights = old_weights.clone();
    new_weights[(3, 3)] = 123.0;
    let deploy_done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let pusher = {
            let store = Arc::clone(&store);
            let deploy_done = Arc::clone(&deploy_done);
            let new_weights = new_weights.clone();
            scope.spawn(move || {
                let report = store.push("w", new_weights).unwrap();
                deploy_done.store(true, Ordering::SeqCst);
                report
            })
        };
        // Give the pusher time to reach the armed delay, then serve through it.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !deploy_done.load(Ordering::SeqCst),
            "the deploy must still be inside its delayed decomposition"
        );
        let resident = store.resolve("w").unwrap();
        assert_eq!(resident.number(), 1, "the swap has not landed yet");
        let handle = serving.enqueue(resident.request(activations(0xC1)));
        serving.flush();
        let output = handle.wait().output.expect("serving during a deploy");
        assert_eq!(
            bits(&output),
            bits(&reference(&old_weights, &activations(0xC1))),
            "a request served mid-deploy runs the resident weights bitwise"
        );
        assert!(
            !deploy_done.load(Ordering::SeqCst),
            "resolve + enqueue + execute all finished while the deploy was still preparing"
        );
        let report = pusher.join().expect("pusher thread");
        assert_eq!(report.prepares, 1, "only the dirty shard decomposed");
    });
    assert!(deploy_done.load(Ordering::SeqCst));
    assert_eq!(store.resolve("w").unwrap().number(), 2, "the swap landed");
}

/// The panic-containment gate: a decompose panic mid-push rejects the deploy, keeps
/// the resident generation (`Arc` identity included), loses no in-flight handles,
/// and the retry lands cleanly.
#[test]
fn deploy_panic_keeps_the_old_generation_and_loses_no_handles() {
    let plan = Arc::new(FaultPlan::new().fail_at(FaultSite::Decompose, SHARDS, FaultKind::Panic));
    let engine = faulted_sharded_engine(&plan);
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(100);
    let store = WeightStore::new(engine);

    let old_weights = weights(0xD0);
    store.register("w", old_weights.clone(), cfg()).unwrap();
    let resident = store.resolve("w").unwrap();

    // Park requests against the resident generation, then panic a push under them.
    let handles: Vec<_> = (0..3)
        .map(|i| serving.enqueue(resident.request(activations(0xD1 + i))))
        .collect();
    let mut new_weights = old_weights.clone();
    new_weights[(20, 7)] = -9.0;
    match store.push("w", new_weights.clone()) {
        Err(DeployError::PreparePanicked { payload }) => {
            assert!(
                payload.contains("injected"),
                "the injected panic's payload travels: {payload:?}"
            );
        }
        other => panic!("expected PreparePanicked, got {other:?}"),
    }
    assert_eq!(store.generation(), 1, "a failed deploy installs nothing");
    let still_resident = store.resolve("w").unwrap();
    assert!(
        Arc::ptr_eq(resident.matrix(), still_resident.matrix()),
        "the resident generation survives a panicked push untouched"
    );

    // No lost handles: every parked request resolves bitwise on the old weights.
    serving.flush();
    for (i, handle) in handles.into_iter().enumerate() {
        let output = handle
            .wait()
            .output
            .expect("requests parked across a failed deploy");
        let expected = reference(&old_weights, &activations(0xD1 + i as u64));
        assert_eq!(bits(&output), bits(&expected), "parked request {i}");
    }

    // The retry decomposes the same dirty shard (call index 5, unarmed) and lands.
    let report = store.push("w", new_weights).unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.prepares, 1);
    assert_eq!(
        plan.injected().len(),
        1,
        "the armed panic fired exactly once"
    );
}

/// The no-torn-reads gate: resolvers racing a stream of pushes only ever observe
/// complete generations — marker rows at both ends of the matrix always agree, and
/// each resolver's observed generation numbers are monotone.
#[test]
fn concurrent_pushes_and_resolves_never_tear_a_generation() {
    const PUSHES: u64 = 20;
    const RESOLVERS: usize = 2;
    let engine = sharded_engine();
    let store = Arc::new(WeightStore::new(engine));

    // Variant v carries marker v in its first and last rows; a torn read would mix
    // markers from two variants.
    let base = weights(0xE0);
    let variant = |v: u64| {
        let mut m = base.clone();
        m[(0, 0)] = v as f32;
        m[(ROWS - 1, 0)] = v as f32;
        m
    };
    store.register("w", variant(0), cfg()).unwrap();

    let pushing = Arc::new(AtomicBool::new(true));
    std::thread::scope(|scope| {
        let pusher = {
            let store = Arc::clone(&store);
            let pushing = Arc::clone(&pushing);
            scope.spawn(move || {
                for v in 1..=PUSHES {
                    store.push("w", variant(v)).unwrap();
                }
                pushing.store(false, Ordering::SeqCst);
            })
        };
        let resolvers: Vec<_> = (0..RESOLVERS)
            .map(|_| {
                let store = Arc::clone(&store);
                let pushing = Arc::clone(&pushing);
                scope.spawn(move || {
                    let mut observed = 0u64;
                    let mut last_number = 0u64;
                    while pushing.load(Ordering::SeqCst) || observed == 0 {
                        let generation = store.resolve("w").unwrap();
                        let head = generation.matrix()[(0, 0)];
                        let tail = generation.matrix()[(ROWS - 1, 0)];
                        assert_eq!(
                            head.to_bits(),
                            tail.to_bits(),
                            "torn generation: marker rows disagree ({head} vs {tail})"
                        );
                        assert!(
                            generation.number() >= last_number,
                            "generation numbers went backwards: {} after {last_number}",
                            generation.number()
                        );
                        last_number = generation.number();
                        observed += 1;
                    }
                    observed
                })
            })
            .collect();
        pusher.join().expect("pusher");
        for resolver in resolvers {
            assert!(resolver.join().expect("resolver") > 0);
        }
    });

    // The stream settled on the last variant, servable and bitwise-correct.
    let final_generation = store.resolve("w").unwrap();
    assert_eq!(final_generation.number(), 1 + PUSHES);
    let serving = ServingEngine::over(Arc::clone(store.engine()));
    let handle = serving.enqueue(final_generation.request(activations(0xE1)));
    serving.flush();
    let output = handle.wait().output.unwrap();
    assert_eq!(
        bits(&output),
        bits(&reference(&variant(PUSHES), &activations(0xE1)))
    );
}

/// The warm-restart gate, in process: a restarted engine loading the snapshot
/// re-registers the same weights with **zero** decompositions and serves bitwise
/// identically.
#[test]
fn warm_restart_registers_with_zero_decompositions() {
    let path = temp_path("warm-inproc");
    let first_weights = weights(0xF0);
    let first_boot = sharded_engine();
    let store = WeightStore::new(Arc::clone(&first_boot));
    let report = store.register("w", first_weights.clone(), cfg()).unwrap();
    assert_eq!(
        report.prepares, SHARDS,
        "cold first boot decomposes every shard"
    );
    let first_output = reference(&first_weights, &activations(0xF1));
    save_snapshot(&first_boot, &path).unwrap();
    drop((store, first_boot));

    let second_boot = sharded_engine();
    let outcome = load_snapshot(&second_boot, &path);
    assert!(
        outcome.is_warm(),
        "intact snapshot must load warm: {outcome:?}"
    );
    let store = WeightStore::new(Arc::clone(&second_boot));
    let report = store.register("w", first_weights, cfg()).unwrap();
    assert_eq!(
        report.prepares, 0,
        "re-registering snapshotted weights must be a pure cache hit"
    );
    assert_eq!(second_boot.prep_stats().prepares, 0);

    let serving = ServingEngine::over(second_boot);
    let generation = store.resolve("w").unwrap();
    let handle = serving.enqueue(generation.request(activations(0xF1)));
    serving.flush();
    assert_eq!(
        bits(&handle.wait().output.unwrap()),
        bits(&first_output),
        "warm-restarted outputs are bitwise identical to the first boot"
    );
    std::fs::remove_file(&path).unwrap();
}

/// The full deploy lifecycle over the wire: register, serve, incremental push with
/// shard-exact ack counters, and the structured deploy error frames.
#[test]
fn wire_deploy_lifecycle_roundtrips() {
    let mut server =
        Server::bind_over("127.0.0.1:0", ServerConfig::default(), sharded_engine()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let old_weights = weights(0x1A0);
    client
        .update_weights("w", &old_weights, Some(CONFIG))
        .unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::UpdateAck {
            name,
            generation,
            total_shards,
            prepares,
            ..
        } => {
            assert_eq!(name, "w");
            assert_eq!(generation, 1);
            assert_eq!(total_shards, SHARDS);
            assert_eq!(prepares, SHARDS);
        }
        other => panic!("expected UpdateAck, got {other:?}"),
    }

    let b = activations(0x1A1);
    client.request_named(7, "w", &b, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Response { id, output } => {
            assert_eq!(id, 7);
            assert_eq!(bits(&output), bits(&reference(&old_weights, &b)));
        }
        other => panic!("expected Response, got {other:?}"),
    }

    // Unknown names: per-request error frame, connection stays healthy.
    client.request_named(8, "ghost", &b, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, 8);
            assert_eq!(code, ErrorCode::UnknownOperand);
        }
        other => panic!("expected UnknownOperand error, got {other:?}"),
    }
    client.update_weights("ghost", &old_weights, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, CONNECTION_SCOPE_ID);
            assert_eq!(code, ErrorCode::UnknownOperand);
        }
        other => panic!("expected UnknownOperand error, got {other:?}"),
    }

    // A shape-changing push is rejected; the resident generation keeps serving.
    client
        .update_weights("w", &Matrix::zeros(16, 16), None)
        .unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, CONNECTION_SCOPE_ID);
            assert_eq!(code, ErrorCode::DeployRejected);
        }
        other => panic!("expected DeployRejected error, got {other:?}"),
    }

    // Incremental push: one dirty row, shard-exact ack counters.
    let mut new_weights = old_weights.clone();
    new_weights[(20, 3)] += 1.0;
    client.update_weights("w", &new_weights, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::UpdateAck {
            generation,
            dirty_rows,
            total_rows,
            dirty_shards,
            total_shards,
            prepares,
            ..
        } => {
            assert_eq!(generation, 2);
            assert_eq!(dirty_rows, 1);
            assert_eq!(total_rows, ROWS as u64);
            assert_eq!(dirty_shards, 1);
            assert_eq!(total_shards, SHARDS);
            assert_eq!(prepares, 1, "clean shards hit the cache over the wire too");
        }
        other => panic!("expected UpdateAck, got {other:?}"),
    }
    client.request_named(9, "w", &b, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Response { id, output } => {
            assert_eq!(id, 9);
            assert_eq!(bits(&output), bits(&reference(&new_weights, &b)));
        }
        other => panic!("expected Response, got {other:?}"),
    }

    // Stats surfaces the deploy state: generation 2, resident bytes, cold boot.
    client.control(ControlOp::Stats).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Stats(report) => {
            assert_eq!(report.cache_generation, 2);
            assert!(report.bytes_resident > 0);
            assert!(!report.warm_start);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    server.shutdown();
}

/// The warm-restart gate, over the wire: `snapshot` then `bind_restored` makes the
/// restarted server re-register with zero decompositions, report `warm_start`, and
/// serve bitwise-identical outputs.
#[test]
fn wire_warm_restart_decomposes_nothing() {
    let path = temp_path("warm-wire");
    let first_weights = weights(0x1B0);
    let b = activations(0x1B1);

    let mut first_boot =
        Server::bind_over("127.0.0.1:0", ServerConfig::default(), sharded_engine()).expect("bind");
    let mut client = Client::connect(first_boot.local_addr()).expect("connect");
    client
        .update_weights("w", &first_weights, Some(CONFIG))
        .unwrap();
    assert!(matches!(
        client.recv().unwrap().unwrap(),
        Frame::UpdateAck { generation: 1, .. }
    ));
    client.request_named(1, "w", &b, None).unwrap();
    let first_output = match client.recv().unwrap().unwrap() {
        Frame::Response { output, .. } => output,
        other => panic!("expected Response, got {other:?}"),
    };
    first_boot.snapshot(&path).unwrap();
    first_boot.shutdown();

    let restarted_engine = sharded_engine();
    let (mut second_boot, outcome) = Server::bind_restored(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::clone(&restarted_engine),
        &path,
    )
    .expect("bind_restored");
    assert!(
        outcome.is_warm(),
        "intact snapshot must restore warm: {outcome:?}"
    );

    let mut client = Client::connect(second_boot.local_addr()).expect("connect");
    client.control(ControlOp::Stats).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Stats(report) => {
            assert!(
                report.warm_start,
                "the Stats frame reports the warm restart"
            );
            assert!(report.bytes_resident > 0, "restored entries are resident");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    client
        .update_weights("w", &first_weights, Some(CONFIG))
        .unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::UpdateAck { prepares, .. } => {
            assert_eq!(prepares, 0, "warm re-registration decomposes nothing");
        }
        other => panic!("expected UpdateAck, got {other:?}"),
    }
    assert_eq!(
        restarted_engine.prep_stats().prepares,
        0,
        "the restarted engine performed zero decompositions end to end"
    );
    client.request_named(2, "w", &b, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Response { output, .. } => {
            assert_eq!(
                bits(&output),
                bits(&first_output),
                "outputs across the restart are bitwise identical"
            );
        }
        other => panic!("expected Response, got {other:?}"),
    }
    second_boot.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// A defective snapshot is a *clean* cold start: `bind_restored` reports `Cold`,
/// `Stats` shows a cold boot, and the server registers and serves normally.
#[test]
fn corrupt_snapshot_cold_starts_and_still_serves() {
    let path = temp_path("corrupt-wire");
    std::fs::write(&path, b"not a TASD cache snapshot at all").unwrap();
    let (mut server, outcome) = Server::bind_restored(
        "127.0.0.1:0",
        ServerConfig::default(),
        sharded_engine(),
        &path,
    )
    .expect("a corrupt snapshot must not fail the bind");
    assert!(
        matches!(outcome, LoadOutcome::Cold { .. }),
        "garbage bytes must cold-start: {outcome:?}"
    );

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.control(ControlOp::Stats).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Stats(report) => assert!(!report.warm_start),
        other => panic!("expected Stats, got {other:?}"),
    }
    let a = weights(0x1C0);
    let b = activations(0x1C1);
    client.update_weights("w", &a, Some(CONFIG)).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::UpdateAck { prepares, .. } => {
            assert_eq!(prepares, SHARDS, "cold start decomposes every shard once");
        }
        other => panic!("expected UpdateAck, got {other:?}"),
    }
    client.request_named(1, "w", &b, None).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Response { output, .. } => {
            assert_eq!(bits(&output), bits(&reference(&a, &b)));
        }
        other => panic!("expected Response, got {other:?}"),
    }
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}
