//! Async-serving stress suite: the session lifecycle (enqueue → window → group →
//! execute → handle) under concurrency, and the shared-executor placement guarantee.
//!
//! The contracts locked down here, per the `tasd::engine` module docs:
//!
//! * **Bitwise identity under contention** — N threads enqueueing mixed
//!   banded/inline/dense batches concurrently through one [`ServingEngine`] get
//!   responses bitwise identical to a sequential [`ExecutionEngine::submit`] of the
//!   same requests, however the windows happen to compose.
//! * **Prepare-once under contention** — warm concurrent traffic performs zero
//!   conversions, zero replans, and zero operand rescans ([`PrepStats`] deltas), so the
//!   serving hot path stays scan-free when threads pile on.
//! * **One executor, sized once** — banded execution never spawns per call: the
//!   engine's pool threads are spawned once ([`ExecutionEngine::pool_threads`] stays at
//!   `workers − 1` across arbitrarily many banded batches), the worker count is
//!   captured at build time ([`EngineBuilder::workers`]), and worker placement never
//!   changes results.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tasd::{
    BatchRequest, BatchResponse, ExecutionEngine, Generation, LatchedBackend, ServingEngine,
    ServingError, TasdConfig, WeightStore,
};
use tasd_tensor::backend::{DenseBackend, GemmBackend};
use tasd_tensor::{Matrix, MatrixGenerator};

/// Threads the stress tests fan out over (the acceptance criterion names ≥ 4).
const THREADS: usize = 4;

/// A mixed workload over shared operands: a named operand (a weight-store generation,
/// executed by band), a small inline operand decomposed through the cache, and dense
/// (undecomposed) requests on the named operand's weights — `per_thread` requests per
/// thread, deterministically seeded per thread so the concurrent and sequential runs
/// see identical bytes.
struct Workload {
    big: Arc<Generation>,
    small: Arc<Matrix>,
    cfg: TasdConfig,
}

impl Workload {
    fn new() -> Self {
        let mut gen = MatrixGenerator::seeded(0xA57C);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let store = WeightStore::new(Arc::new(ExecutionEngine::builder().build()));
        store
            .register("big", gen.sparse_normal(128, 64, 0.9), cfg.clone())
            .unwrap();
        Workload {
            big: store.resolve("big").unwrap(),
            small: Arc::new(gen.sparse_normal(32, 64, 0.6)),
            cfg,
        }
    }

    fn engine(&self) -> ExecutionEngine {
        ExecutionEngine::builder().workers(THREADS).build()
    }

    /// Thread `t`'s deterministic request stream.
    fn requests(&self, t: usize, per_thread: usize) -> Vec<BatchRequest> {
        let mut gen = MatrixGenerator::seeded(0xBEE5 + t as u64);
        (0..per_thread)
            .map(|i| {
                let b = gen.normal(64, 3, 0.0, 1.0);
                match i % 3 {
                    0 => self.big.request(b),
                    1 => BatchRequest::decomposed(Arc::clone(&self.small), self.cfg.clone(), b),
                    _ => BatchRequest::dense(Arc::clone(self.big.matrix()), b),
                }
            })
            .collect()
    }

    /// Warms every cache the serving paths touch: inline decompositions, plans, and
    /// operand fingerprints. Window composition is timing-dependent under
    /// concurrency, and a group's plan is memoized per packed-output-width *bucket* —
    /// so the warmup submits each operand group at every size whose bucket a window
    /// could produce, leaving the concurrent run nothing to plan.
    fn warm(&self, engine: &ExecutionEngine) {
        for k in [1usize, 2, 3, 4, 6, 8, 11, 16] {
            let mut gen = MatrixGenerator::seeded(0xFEED ^ k as u64);
            let mut batch = Vec::new();
            for _ in 0..k {
                batch.push(self.big.request(gen.normal(64, 3, 0.0, 1.0)));
                batch.push(BatchRequest::decomposed(
                    Arc::clone(&self.small),
                    self.cfg.clone(),
                    gen.normal(64, 3, 0.0, 1.0),
                ));
                batch.push(BatchRequest::dense(
                    Arc::clone(self.big.matrix()),
                    gen.normal(64, 3, 0.0, 1.0),
                ));
            }
            let responses = engine.submit(batch);
            assert!(responses.iter().all(|r| r.output.is_ok()));
        }
    }
}

fn outputs(responses: Vec<BatchResponse>) -> Vec<Matrix> {
    responses
        .into_iter()
        .map(|r| r.output.expect("stress requests are well-shaped"))
        .collect()
}

/// The satellite stress test: ≥ 4 threads enqueueing mixed banded/inline batches
/// concurrently must be bitwise identical to sequential `submit`, and warm traffic must
/// keep the prepare-once contract under contention.
#[test]
fn concurrent_enqueue_matches_sequential_submit_bitwise() {
    const PER_THREAD: usize = 12;
    let workload = Workload::new();

    // Sequential reference: one plain `submit` per thread's stream, on its own engine.
    let reference_engine = workload.engine();
    let reference: Vec<Vec<Matrix>> = (0..THREADS)
        .map(|t| outputs(reference_engine.submit(workload.requests(t, PER_THREAD))))
        .collect();

    // Concurrent run: every thread enqueues its stream through one shared session,
    // interleaving flushes (to close windows mid-stream) and handle waits.
    let engine = Arc::new(workload.engine());
    workload.warm(&engine);
    let prep_before = engine.prep_stats();
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(8);
    let got: Vec<Vec<Matrix>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let serving = serving.clone();
                let workload = &workload;
                scope.spawn(move || {
                    let mut waiting = Vec::new();
                    for (i, request) in workload.requests(t, PER_THREAD).into_iter().enumerate() {
                        waiting.push(serving.enqueue(request));
                        if i % 4 == t % 4 {
                            serving.flush();
                        }
                    }
                    waiting
                        .into_iter()
                        .map(|h| h.wait().output.expect("well-shaped"))
                        .collect::<Vec<Matrix>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving thread panicked"))
            .collect()
    });

    for (t, (got, expected)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(expected).enumerate() {
            assert_eq!(
                g, e,
                "thread {t} request {i}: concurrent serving must be bitwise identical \
                 to sequential submit"
            );
        }
    }

    // Prepare-once under contention: the whole concurrent run, windows and bands and
    // all, performed zero conversions, zero replans, and zero operand rescans.
    let prep_after = engine.prep_stats();
    assert_eq!(
        prep_after.prepares, prep_before.prepares,
        "no decompositions"
    );
    assert_eq!(
        prep_after.conversions, prep_before.conversions,
        "no conversions"
    );
    assert_eq!(
        prep_after.plans_computed, prep_before.plans_computed,
        "no replans"
    );
    assert_eq!(
        prep_after.fingerprint_scans, prep_before.fingerprint_scans,
        "no operand rescans"
    );
    let stats = serving.stats();
    assert_eq!(stats.enqueued, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.dispatched, stats.enqueued, "no request left behind");
    assert!(stats.windows >= 1);
}

/// A named operand large enough that its banded groups run as one run of bands per
/// executor worker: 512×256 at half density under 2:8+1:8 with 64-column panels crosses
/// the engine's tiling threshold.
fn tiled_generation(engine: &Arc<ExecutionEngine>) -> Arc<Generation> {
    let store = WeightStore::new(Arc::clone(engine));
    let a = MatrixGenerator::seeded(0x77).sparse_normal(512, 256, 0.5);
    store
        .register("tiled", a, TasdConfig::parse("2:8+1:8").unwrap())
        .unwrap();
    store.resolve("tiled").unwrap()
}

/// The executor-placement guarantee: many sharded batches (a generation's requests run
/// as runs of its 64-row bands across the workers) — including concurrent ones — reuse
/// one lazily-spawned pool; nothing spawns per call.
#[test]
fn sharded_batches_share_one_executor_pool() {
    let engine = Arc::new(ExecutionEngine::builder().workers(THREADS).build());
    let generation = tiled_generation(&engine);
    let batch = |seed: u64| -> Vec<BatchRequest> {
        let b = MatrixGenerator::seeded(seed).normal(256, 64, 0.0, 1.0);
        vec![generation.request(b)]
    };
    assert_eq!(engine.workers(), THREADS);
    assert_eq!(engine.pool_threads(), 0, "pool is lazy until the first job");

    // Sequential banded batches.
    for t in 0..3 {
        let _ = outputs(engine.submit(batch(t)));
    }
    let spawned = engine.pool_threads();
    assert_eq!(
        spawned,
        THREADS - 1,
        "workers − 1 resident threads, spawned once"
    );

    // Concurrent banded batches from every thread: still the same pool.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            let batch = &batch;
            scope.spawn(move || {
                for i in 0..3 {
                    let responses = engine.submit(batch((t * 3 + i) as u64));
                    assert!(responses.iter().all(|r| r.output.is_ok()));
                }
            });
        }
    });
    assert_eq!(
        engine.pool_threads(),
        spawned,
        "concurrent banded batches must not grow the pool — per-call spawning is gone"
    );
}

/// Worker-count invariance through the builder seam: any pinned worker count produces
/// bitwise-identical banded results, and the count is captured at build time.
#[test]
fn pinned_worker_counts_are_deterministic_and_result_invariant() {
    let b = MatrixGenerator::seeded(0x78).normal(256, 64, 0.0, 1.0);
    let mut baseline: Option<Matrix> = None;
    for workers in [1usize, 2, 3, 8] {
        let engine = Arc::new(ExecutionEngine::builder().workers(workers).build());
        assert_eq!(engine.workers(), workers);
        let generation = tiled_generation(&engine);
        let c = outputs(engine.submit(vec![generation.request(b.clone())])).remove(0);
        match &baseline {
            None => baseline = Some(c),
            Some(expected) => assert_eq!(expected, &c, "workers={workers} diverged"),
        }
    }
}

/// The micro-batch window lifecycle end to end on a cache-less engine, where the
/// decomposition count directly measures coalescing: while the dispatcher's first window
/// is held executing on a latched kernel, three late same-operand requests park, and the
/// dispatcher closes them as one window with one decomposition, where individual
/// submits pay one each.
#[test]
fn window_coalesces_late_arrivals_into_one_decomposition() {
    let mut gen = MatrixGenerator::seeded(0xC0A1);
    let a = Arc::new(gen.sparse_normal(48, 48, 0.85));
    let cfg = TasdConfig::parse("2:8").unwrap();
    let request = |gen: &mut MatrixGenerator| -> BatchRequest {
        BatchRequest::decomposed(Arc::clone(&a), cfg.clone(), gen.normal(48, 4, 0.0, 1.0))
    };

    // Cache-less engine: every window decomposes its groups afresh, so `prepares`
    // counts exactly what coalescing saves.
    let latch = Arc::new(LatchedBackend::wrap(Arc::new(DenseBackend::default())));
    let engine = Arc::new(
        ExecutionEngine::builder()
            .backend(Arc::clone(&latch) as Arc<dyn GemmBackend>)
            .cache_capacity(0)
            .workers(1)
            .build(),
    );
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(32);
    let dispatcher = serving.spawn_dispatcher();
    let h0 = serving.enqueue(request(&mut gen));
    latch.wait_started();
    let late: Vec<_> = (0..3).map(|_| serving.enqueue(request(&mut gen))).collect();
    // Release before asserting, so a failure cannot leave the dispatcher held on the
    // latch while its handle's drop joins it.
    let parked = serving.pending();
    latch.release();
    assert_eq!(parked, 3, "late arrivals park behind the executing window");
    assert!(h0.wait_without_dispatch().output.is_ok());
    let outs: Vec<Matrix> = late
        .into_iter()
        .map(|h| h.wait_without_dispatch().output.unwrap())
        .collect();
    dispatcher.stop();
    let window_prepares = engine.prep_stats().prepares - 1;
    assert_eq!(
        window_prepares, 1,
        "three coalesced requests, one decomposition"
    );
    assert_eq!(serving.stats().windows, 2);
    assert_eq!(serving.stats().coalesced_windows, 1);

    // The same three requests submitted individually: one decomposition each.
    let mut gen = MatrixGenerator::seeded(0xC0A1);
    let _ = gen.sparse_normal(48, 48, 0.85); // re-sync the stream past the operand
    let _ = request(&mut gen); // and past the first request
    let individual_engine = ExecutionEngine::builder().cache_capacity(0).build();
    let mut individual = Vec::new();
    for _ in 0..3 {
        individual.push(outputs(individual_engine.submit(vec![request(&mut gen)])));
    }
    let individual_prepares = individual_engine.prep_stats().prepares;
    assert_eq!(individual_prepares, 3);
    assert!(
        window_prepares < individual_prepares,
        "a micro-batch window must save at least one decomposition"
    );
    // And coalescing never changes bits.
    for (got, expected) in outs.iter().zip(individual.iter().map(|v| &v[0])) {
        assert_eq!(
            got, expected,
            "window outputs must match individual submits"
        );
    }
}

/// The drain-while-enqueue race: `shutdown()` fired into the middle of a 4-thread
/// enqueue storm never loses a handle — every single enqueue returns a handle that
/// resolves to a real response or `ShuttingDown`, with nothing hung and nothing
/// double-counted.
#[test]
fn concurrent_shutdown_never_loses_a_handle() {
    const PER_THREAD: usize = 24;
    let workload = Workload::new();
    let serving = ServingEngine::over(Arc::new(workload.engine())).with_max_batch(4);
    let barrier = Barrier::new(THREADS + 1);
    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let enqueuers: Vec<_> = (0..THREADS)
            .map(|t| {
                let serving = serving.clone();
                let workload = &workload;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut pending = Vec::new();
                    for (i, request) in workload.requests(t, PER_THREAD).into_iter().enumerate() {
                        pending.push(serving.enqueue(request));
                        if i % 3 == t % 3 {
                            serving.flush();
                        }
                    }
                    let mut served = 0u64;
                    let mut refused = 0u64;
                    for handle in pending {
                        match handle.wait().output {
                            Ok(_) => served += 1,
                            Err(ServingError::ShuttingDown) => refused += 1,
                            Err(other) => panic!("shutdown race leaked an error: {other}"),
                        }
                    }
                    (served, refused)
                })
            })
            .collect();
        barrier.wait();
        // Race the close into the middle of the storm.
        serving.shutdown();
        enqueuers
            .into_iter()
            .map(|h| h.join().expect("enqueuer thread panicked"))
            .collect()
    });

    let served: u64 = outcomes.iter().map(|(ok, _)| ok).sum();
    let refused: u64 = outcomes.iter().map(|(_, down)| down).sum();
    assert_eq!(
        served + refused,
        (THREADS * PER_THREAD) as u64,
        "every handle resolves exactly once — none lost to the race"
    );
    let stats = serving.stats();
    assert_eq!(
        stats.dispatched, served,
        "every accepted-and-executed request produced exactly one Ok outcome"
    );
    assert!(serving.is_closed());
}

/// Handles are well-behaved at the edges: polling before dispatch, waiting without a
/// dispatcher, shape errors delivered as `Err` responses (not panics), and ids in enqueue
/// order.
#[test]
fn handle_edge_cases() {
    let mut gen = MatrixGenerator::seeded(0xED6E);
    let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
    let serving = ExecutionEngine::builder().serving();
    // Poll before dispatch: handle comes back intact.
    let h = serving.enqueue(BatchRequest::dense(
        Arc::clone(&a),
        gen.normal(16, 2, 0.0, 1.0),
    ));
    assert!(!h.is_ready());
    let h = h.try_take().expect_err("window has not dispatched");
    assert_eq!(h.id(), 0);
    // A lone waiter closes the window itself.
    assert!(h.wait().output.is_ok());
    // Shape errors come back through the handle as Err responses.
    let bad = serving.enqueue(BatchRequest::dense(
        Arc::clone(&a),
        gen.normal(9, 2, 0.0, 1.0),
    ));
    let good = serving.enqueue(BatchRequest::dense(
        Arc::clone(&a),
        gen.normal(16, 2, 0.0, 1.0),
    ));
    serving.flush().expect("two pending requests");
    assert!(bad.try_take().expect("flushed").output.is_err());
    assert!(good.try_take().expect("flushed").output.is_ok());
}

/// Regression — the unowned-window latency bug. A request parked with **no follow-up
/// traffic** waits until its caller blocks in `wait()` (force-closing the window)
/// unless someone owns the window. With a [`DispatcherHandle`](tasd::DispatcherHandle)
/// attached, the window closes as soon as no window is executing, so a passive waiter
/// resolves with nothing else touching the session.
#[test]
fn dispatcher_bounds_parked_request_latency_without_caller_traffic() {
    let mut gen = MatrixGenerator::seeded(0x71CC);
    let a = Arc::new(gen.sparse_normal(32, 32, 0.7));
    let b = gen.normal(32, 4, 0.0, 1.0);
    let serving = ExecutionEngine::builder().serving().with_max_batch(1024); // never closes on size
    let dispatcher = serving.spawn_dispatcher();

    let handle = serving.enqueue(BatchRequest::dense(a, b));
    // Touch nothing: no flush, no blocking wait that would force-close the window. Only
    // the background dispatcher can resolve this handle.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_ready() {
        assert!(
            Instant::now() < deadline,
            "parked request did not resolve: nobody owned the window"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The passive wait must not dispatch either — the dispatcher already did.
    let response = handle.wait_without_dispatch();
    assert!(response.output.is_ok());
    let stats = serving.stats();
    assert_eq!(stats.windows, 1);
    assert_eq!(
        stats.ticks, 1,
        "resolution came from one dispatcher wake-up"
    );
    dispatcher.stop();
}
