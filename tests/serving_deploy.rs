//! Deploy-lifecycle integration suite: live weight updates and store snapshots under
//! serving traffic, including the chaos schedules from the fault-injection harness, all
//! on the engine `tasd-serve` builds (`ExecutionEngine::builder().build()`):
//!
//! * **Swap atomicity, bitwise** — requests enqueued before a push execute the old
//!   generation's weights bitwise-unchanged; requests enqueued after see the new
//!   weights; concurrent resolvers never observe a torn generation.
//! * **Enqueue never blocks on a deploy** — with an injected
//!   [`FaultKind::Delay`] stretching a push's decomposition, resolving and serving
//!   the resident generation completes while the deploy is still in flight.
//! * **Warm restarts decompose nothing** — a snapshot saved from one store makes a
//!   restarted store's re-registration of the same weights reuse every band
//!   (`prepares == 0`), in process and over the wire; a corrupt snapshot is a clean
//!   cold start that still serves.
//! * **Superseded bands are freed** — a band a push replaced lives exactly as long as
//!   the last in-flight window holding it, and the resident-bytes figures count only
//!   live bands.
//! * **Deploy panics are contained** — a seeded [`FaultSite::Decompose`] panic
//!   mid-push surfaces as [`DeployError::PreparePanicked`], the store keeps the old
//!   generation (same `Arc`), every in-flight handle resolves, and the retry lands.
//!
//! Fault seeds follow the `serving_faults` convention (`TASD_FAULT_SEED` sweeps in
//! CI); the workloads here are deterministic, so fault placement is explicit.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::Duration;

use tasd::{
    load_snapshot, save_snapshot, BatchRequest, DeployError, ExecutionEngine, FaultKind, FaultPlan,
    FaultSite, LatchedBackend, LoadOutcome, PreparedSeries, ServingEngine, TasdConfig, WeightStore,
    BAND_ROWS,
};
use tasd_serve::wire::CONNECTION_SCOPE_ID;
use tasd_serve::{Client, ControlOp, ErrorCode, Frame, Server, ServerConfig};
use tasd_tensor::backend::NmBackend;
use tasd_tensor::{Matrix, MatrixGenerator};

const CONFIG: &str = "2:8+1:8";
const ROWS: usize = 256;
const COLS: usize = 64;
/// 256 rows in 64-row bands: the band count every report below pins.
const BANDS: u64 = (ROWS / BAND_ROWS) as u64;

fn cfg() -> TasdConfig {
    TasdConfig::parse(CONFIG).unwrap()
}

/// The engine `tasd-serve` builds.
fn engine() -> Arc<ExecutionEngine> {
    Arc::new(ExecutionEngine::builder().build())
}

/// The same engine with every failpoint armed against `plan`. Deploys decompose their
/// bands in order on the deploying thread, so per-site call indices are in program
/// order.
fn faulted_engine(plan: &Arc<FaultPlan>) -> Arc<ExecutionEngine> {
    Arc::new(
        ExecutionEngine::builder()
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
    let engine = engine();
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(100);
    let store = WeightStore::new(engine);

    let old_weights = weights(0xA0);
    let mut new_weights = old_weights.clone();
    new_weights[(5, 5)] += 3.0;
    new_weights[(200, 1)] -= 2.0;
    store.register("w", old_weights.clone(), cfg()).unwrap();

    // Enqueue against the resident generation, then deploy *while they are parked*.
    let before_swap = store.resolve("w").unwrap();
    let old_handles: Vec<_> = (0..3)
        .map(|i| serving.enqueue(before_swap.request(activations(0xB0 + i))))
        .collect();
    let report = store.push("w", new_weights.clone()).unwrap();
    assert_eq!(report.dirty_rows, 2);
    assert_eq!(report.dirty_shards, 2, "rows 5 and 200 lie in two bands");
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
    // Registration decomposes bands 0..4; the armed delay hits call index 4 — the
    // push's single dirty band.
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Decompose,
        BANDS,
        FaultKind::Delay(DEPLOY_DELAY),
    ));
    let engine = faulted_engine(&plan);
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(100);
    let store = Arc::new(WeightStore::new(engine));

    let old_weights = weights(0xC0);
    store.register("w", old_weights.clone(), cfg()).unwrap();
    assert_eq!(plan.calls(FaultSite::Decompose), BANDS);

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
        assert_eq!(report.prepares, 1, "only the dirty band decomposed");
    });
    assert!(deploy_done.load(Ordering::SeqCst));
    assert_eq!(store.resolve("w").unwrap().number(), 2, "the swap landed");
}

/// The panic-containment gate: a decompose panic mid-push rejects the deploy, keeps
/// the resident generation (`Arc` identity included), loses no in-flight handles,
/// and the retry lands cleanly.
#[test]
fn deploy_panic_keeps_the_old_generation_and_loses_no_handles() {
    let plan = Arc::new(FaultPlan::new().fail_at(FaultSite::Decompose, BANDS, FaultKind::Panic));
    let engine = faulted_engine(&plan);
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

    // The retry decomposes the same dirty band (call index 5, unarmed) and lands.
    let report = store.push("w", new_weights).unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.prepares, 1);
    assert_eq!(
        plan.injected().len(),
        1,
        "the armed panic fired exactly once"
    );
}

/// The no-torn-reads gate: resolvers racing two streams of pushes only ever observe
/// complete generations — marker rows at both ends of the matrix always agree, each
/// resolver's observed generation numbers are monotone, and every observed generation
/// answers bitwise as the whole-operand reference for its own matrix, including a
/// generation whose push diffed against a base another push had already replaced.
#[test]
fn concurrent_pushes_and_resolves_never_tear_a_generation() {
    const PUSHES: u64 = 20;
    const PUSHERS: u64 = 2;
    const RESOLVERS: usize = 2;
    let engine = engine();
    let store = Arc::new(WeightStore::new(engine));

    // Variant v carries marker v in its first and last rows and in one middle band
    // that rotates with v, so racing pushes dirty different bands; a torn read would
    // mix markers from two variants.
    let base = weights(0xE0);
    let variant = |v: u64| {
        let mut m = base.clone();
        m[(0, 0)] = v as f32;
        m[(ROWS - 1, 0)] = v as f32;
        m[(BAND_ROWS * (1 + v as usize % 2) + 7, 3)] = v as f32;
        m
    };
    store.register("w", variant(0), cfg()).unwrap();
    let b = activations(0xE1);

    let pushing = Arc::new(std::sync::atomic::AtomicU64::new(PUSHERS));
    std::thread::scope(|scope| {
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|p| {
                let store = Arc::clone(&store);
                let pushing = Arc::clone(&pushing);
                let variant = &variant;
                scope.spawn(move || {
                    for v in 1..=PUSHES {
                        store.push("w", variant(p * 1000 + v)).unwrap();
                    }
                    pushing.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let resolvers: Vec<_> = (0..RESOLVERS)
            .map(|_| {
                let store = Arc::clone(&store);
                let pushing = Arc::clone(&pushing);
                let b = &b;
                scope.spawn(move || {
                    let mut observed = 0u64;
                    let mut last_number = 0u64;
                    while pushing.load(Ordering::SeqCst) > 0 || observed == 0 {
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
                        let response = store.engine().submit(vec![generation.request(b.clone())]);
                        let output = response[0].output.as_ref().expect("banded answer");
                        assert_eq!(
                            bits(output),
                            bits(&reference(generation.matrix(), b)),
                            "generation {} answers differently from its own matrix",
                            generation.number()
                        );
                        last_number = generation.number();
                        observed += 1;
                    }
                    observed
                })
            })
            .collect();
        for pusher in pushers {
            pusher.join().expect("pusher");
        }
        for resolver in resolvers {
            assert!(resolver.join().expect("resolver") > 0);
        }
    });

    // The streams settled on one of the last variants, servable and bitwise-correct.
    let final_generation = store.resolve("w").unwrap();
    assert_eq!(final_generation.number(), 1 + PUSHERS * PUSHES);
    let marker = final_generation.matrix()[(0, 0)] as u64;
    assert!(
        marker % 1000 == PUSHES,
        "the last push of a stream landed last"
    );
    let serving = ServingEngine::over(Arc::clone(store.engine()));
    let handle = serving.enqueue(final_generation.request(b.clone()));
    serving.flush();
    let output = handle.wait().output.unwrap();
    assert_eq!(bits(&output), bits(&reference(&variant(marker), &b)));
}

/// A band a push replaced stays alive exactly as long as an in-flight window holds it:
/// with a window latched on generation 1, twenty pushes land; generation 1's bands
/// survive until the latch opens, every other superseded band is already gone, and
/// afterwards only the resident generation's bands are alive and counted.
#[test]
fn superseded_bands_are_freed_when_the_last_window_drops_them() {
    /// Opens the latch when dropped: declared after the server, it releases the held
    /// window before the server's teardown waits for it, so a failing check fails the
    /// test instead of hanging it.
    struct Release<'a>(&'a LatchedBackend);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.release();
        }
    }
    const PUSHES: usize = 20;
    let latch = Arc::new(LatchedBackend::wrap(Arc::new(NmBackend::default())));
    let engine = Arc::new(ExecutionEngine::builder().backend(latch.clone()).build());
    let mut server =
        Server::bind_over("127.0.0.1:0", ServerConfig::default(), engine).expect("bind");
    let _release = Release(&latch);
    let store = Arc::clone(server.store());
    let mut current = weights(0x2A0);
    store.register("w", current.clone(), cfg()).unwrap();

    let first = store.resolve("w").unwrap();
    let first_bands: Vec<Weak<PreparedSeries>> = first.bands().iter().map(Arc::downgrade).collect();
    let expected = reference(first.matrix(), &activations(0x2A1));
    let handle = server.session().enqueue(first.request(activations(0x2A1)));
    drop(first);
    latch.wait_started();

    let mut superseded: Vec<Weak<PreparedSeries>> = Vec::new();
    for k in 0..PUSHES {
        current[((k * 37) % ROWS, k % COLS)] += 1.0;
        let before = store.resolve("w").unwrap();
        let report = store.push("w", current.clone()).unwrap();
        assert_eq!(report.prepares, 1, "push {k} dirties one band");
        let after = store.resolve("w").unwrap();
        for (old, new) in before.bands().iter().zip(after.bands()) {
            if !Arc::ptr_eq(old, new) {
                superseded.push(Arc::downgrade(old));
            }
        }
    }
    assert!(
        first_bands.iter().all(|band| band.upgrade().is_some()),
        "the held window keeps generation 1's bands alive"
    );
    let live: HashSet<*const PreparedSeries> = store
        .resolve("w")
        .unwrap()
        .bands()
        .iter()
        .map(Arc::as_ptr)
        .collect();
    let held: HashSet<*const PreparedSeries> = first_bands.iter().map(Weak::as_ptr).collect();
    assert!(
        superseded
            .iter()
            .filter(|band| !held.contains(&band.as_ptr()))
            .all(|band| band.upgrade().is_none()),
        "a superseded band no window holds is freed at once"
    );

    latch.release();
    let output = handle.wait_without_dispatch().output.expect("held request");
    assert_eq!(
        bits(&output),
        bits(&expected),
        "the held window ran generation 1"
    );
    for band in first_bands.iter().chain(&superseded) {
        if let Some(band) = band.upgrade() {
            assert!(
                live.contains(&Arc::as_ptr(&band)),
                "a superseded band outlived its window"
            );
        }
    }

    let live_bytes: usize = store
        .resolve("w")
        .unwrap()
        .bands()
        .iter()
        .map(|band| band.storage_bytes())
        .sum();
    assert_eq!(store.bytes_resident(), live_bytes);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.control(ControlOp::Stats).unwrap();
    match client.recv().unwrap().unwrap() {
        Frame::Stats(report) => assert_eq!(report.bytes_resident, live_bytes as u64),
        other => panic!("expected Stats, got {other:?}"),
    }
    server.shutdown();
}

/// `DeployReport::prepares` counts the deploy's own band decompositions: pushes racing
/// a thread that submits cold inline requests on the same engine report exactly their
/// dirty band counts, every time. An injected delay holds each push inside its first
/// band's decomposition, and the inline thread decomposes only once the push has
/// entered it, so every cold decomposition lands inside a push's preparation.
#[test]
fn push_prepares_are_exact_beside_cold_inline_traffic() {
    const PUSHES: usize = 6;
    const HOLD: Duration = Duration::from_millis(50);
    let bands_of = |k: usize| 1 + k % BANDS as usize;
    // Decompose call indices: registration takes 0..BANDS; then, per push, its first
    // band (held), the inline request's decomposition, and its remaining bands.
    let mut held = Vec::new();
    let mut next = BANDS;
    for k in 0..PUSHES {
        held.push(next);
        next += bands_of(k) as u64 + 1;
    }
    let plan = held.iter().fold(FaultPlan::new(), |plan, &index| {
        plan.fail_at(FaultSite::Decompose, index, FaultKind::Delay(HOLD))
    });
    let plan = Arc::new(plan);
    let engine = faulted_engine(&plan);
    let store = WeightStore::new(Arc::clone(&engine));
    let mut current = weights(0x3A0);
    store.register("w", current.clone(), cfg()).unwrap();
    let (go_tx, go_rx) = mpsc::channel::<usize>();
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let mut pushed_bands = 0u64;
    std::thread::scope(|scope| {
        let (plan, engine, held) = (Arc::clone(&plan), Arc::clone(&engine), held.clone());
        scope.spawn(move || {
            for k in go_rx {
                let a = MatrixGenerator::seeded(0x3B0 + k as u64).sparse_normal(ROWS, COLS, 0.8);
                while plan.calls(FaultSite::Decompose) <= held[k] {
                    std::thread::yield_now();
                }
                let request = BatchRequest::decomposed(a, cfg(), activations(k as u64));
                let (responses, telemetry) = engine.submit_with_telemetry(vec![request]);
                assert!(responses[0].output.is_ok());
                done_tx
                    .send(telemetry.decompositions)
                    .expect("the pusher waits for this");
            }
        });
        for k in 0..PUSHES {
            let bands = bands_of(k);
            for band in 0..bands {
                current[(band * BAND_ROWS + k, 1)] += 1.0;
            }
            go_tx.send(k).unwrap();
            let report = store.push("w", current.clone()).unwrap();
            assert_eq!(report.dirty_shards, bands);
            assert_eq!(
                report.prepares, bands as u64,
                "push {k} must count its own decompositions only"
            );
            pushed_bands += report.prepares;
            assert_eq!(done_rx.recv().unwrap(), 1, "the inline request decomposed");
        }
        drop(go_tx);
    });
    assert_eq!(
        plan.calls(FaultSite::Decompose),
        next,
        "every decomposition as scheduled"
    );
    assert_eq!(
        engine.prep_stats().prepares,
        BANDS + pushed_bands + PUSHES as u64,
        "the engine-wide counter still sees every decomposition"
    );
}

/// The warm-restart gate, in process: a restarted engine loading the snapshot
/// re-registers the same weights with **zero** decompositions and serves bitwise
/// identically.
#[test]
fn warm_restart_registers_with_zero_decompositions() {
    let path = temp_path("warm-inproc");
    let first_weights = weights(0xF0);
    let store = WeightStore::new(engine());
    let report = store.register("w", first_weights.clone(), cfg()).unwrap();
    assert_eq!(
        report.prepares, BANDS,
        "cold first boot decomposes every band"
    );
    let first_output = reference(&first_weights, &activations(0xF1));
    save_snapshot(&store, &path).unwrap();
    drop(store);

    let second_boot = engine();
    let store = WeightStore::new(Arc::clone(&second_boot));
    let outcome = load_snapshot(&store, &path);
    assert!(
        outcome.is_warm(),
        "intact snapshot must load warm: {outcome:?}"
    );
    let report = store.register("w", first_weights, cfg()).unwrap();
    assert_eq!(
        report.prepares, 0,
        "re-registering snapshotted weights must reuse every band"
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

/// The full deploy lifecycle over the wire, through `Server::bind` itself: register,
/// serve, incremental push with band-exact ack counters, and the structured deploy
/// error frames.
#[test]
fn wire_deploy_lifecycle_roundtrips() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
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
            assert_eq!(total_shards, BANDS);
            assert_eq!(prepares, BANDS);
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

    // Incremental push of 4 rows in 3 distinct bands: band-exact ack counters.
    let mut new_weights = old_weights.clone();
    for row in [3, 60, 130, 255] {
        new_weights[(row, 3)] += 1.0;
    }
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
            assert_eq!(dirty_rows, 4);
            assert_eq!(total_rows, ROWS as u64);
            assert_eq!(dirty_shards, 3);
            assert_eq!(total_shards, ROWS.div_ceil(BAND_ROWS) as u64);
            assert_eq!(prepares, 3, "only the bands holding a pushed row decompose");
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
        Server::bind_over("127.0.0.1:0", ServerConfig::default(), engine()).expect("bind");
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

    let restarted_engine = engine();
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
    let (mut server, outcome) =
        Server::bind_restored("127.0.0.1:0", ServerConfig::default(), engine(), &path)
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
            assert_eq!(prepares, BANDS, "cold start decomposes every band once");
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
