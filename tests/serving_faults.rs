//! Deterministic fault-injection suite for the serving stack — the executable proof of
//! the `tasd::engine` "Failure semantics" contract:
//!
//! * **Exact blast radius** — a seeded [`FaultPlan`] panicking k of N in-flight
//!   requests makes exactly those k resolve [`ServingError::KernelPanicked`], while the
//!   surviving N−k responses are **bitwise identical** to a fault-free run of the same
//!   workload, and the same seed fails the same requests on every rerun.
//! * **Deadlines without sleeping** — a stepped [`MockClock`] drives
//!   [`ServingError::DeadlineExceeded`] deterministically, including the
//!   shed-expired-first overload policy.
//! * **No lost handles, ever** — window-dispatch panics, decomposition panics,
//!   shutdown under load, and full concurrent chaos (enqueue + cancel + shutdown racing
//!   across threads) all resolve every outstanding handle to a response or a defined
//!   [`ServingError`]; nothing hangs and the engine survives for the next session.
//!
//! Seeds are overridable with `TASD_FAULT_SEED` (the CI chaos job sweeps several); each
//! test's workload is seeded independently of the fault seed so fault placement is the
//! only thing that varies.

use std::sync::{Arc, Barrier};
use std::time::Duration;
use tasd::{
    BatchRequest, ExecutionEngine, FaultKind, FaultPlan, FaultSite, FaultyBackend, MockClock,
    OverloadPolicy, ServingEngine, ServingError, TasdConfig,
};
use tasd_tensor::backend::{DenseBackend, GemmBackend};
use tasd_tensor::{Matrix, MatrixGenerator};

/// In-flight requests in the isolation test (one single-request group each).
const N_REQUESTS: usize = 8;

/// Faults injected by the seeded plans.
const K_FAULTS: usize = 3;

/// The chaos seed: fixed by default so local runs are reproducible, swept by the CI
/// `serving-chaos` job via `TASD_FAULT_SEED`.
fn fault_seed() -> u64 {
    std::env::var("TASD_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED)
}

/// An engine whose every kernel entry trips `plan` ([`FaultyBackend`] over the dense
/// reference kernel) and whose internal failpoints are armed against the same plan.
/// A single-worker engine runs every kernel whole, in program order, so per-site call
/// indices stay deterministic.
fn faulty_engine(plan: &Arc<FaultPlan>) -> Arc<ExecutionEngine> {
    let inner: Arc<dyn GemmBackend> = Arc::new(DenseBackend::default());
    Arc::new(
        ExecutionEngine::builder()
            .backend(Arc::new(FaultyBackend::wrap(inner, Arc::clone(plan))))
            .fault_plan(Arc::clone(plan))
            .workers(1)
            .build(),
    )
}

/// `n` single-request groups: each request carries its own operand (distinct
/// fingerprints), so request i is group i and fails independently.
fn distinct_requests(n: usize) -> Vec<BatchRequest> {
    let cfg = TasdConfig::parse("2:8").unwrap();
    let mut gen = MatrixGenerator::seeded(0xFA01);
    (0..n)
        .map(|i| {
            let a = Arc::new(gen.sparse_normal(24, 24, 0.4 + 0.05 * i as f64));
            let b = gen.normal(24, 3, 0.0, 1.0);
            BatchRequest::decomposed(a, cfg.clone(), b)
        })
        .collect()
}

/// Runs `requests` as one serving window on a fresh engine armed with `plan`; returns
/// each request's outcome in enqueue order.
fn run_window(
    plan: &Arc<FaultPlan>,
    requests: Vec<BatchRequest>,
) -> Vec<Result<Matrix, ServingError>> {
    let serving = ServingEngine::over(faulty_engine(plan)).with_max_batch(100);
    let handles: Vec<_> = requests.into_iter().map(|r| serving.enqueue(r)).collect();
    serving.flush();
    handles.into_iter().map(|h| h.wait().output).collect()
}

/// The acceptance-criteria test: seeded k-of-N kernel panics fail exactly k requests,
/// survivors are bitwise identical to a fault-free run, and the seed is deterministic.
#[test]
fn seeded_kernel_panics_fail_exactly_k_requests_and_survivors_match_bitwise() {
    // Fault-free probe: reference outputs, plus the empirical Gemm call universe the
    // seeded picks draw from.
    let probe = Arc::new(FaultPlan::new());
    let reference = run_window(&probe, distinct_requests(N_REQUESTS));
    assert!(
        reference.iter().all(Result::is_ok),
        "probe run is fault-free"
    );
    let universe = probe.calls(FaultSite::Gemm);
    assert_eq!(
        universe, N_REQUESTS as u64,
        "one single-term group per request must mean one kernel entry per request"
    );

    let seed = fault_seed();
    let chaos_outcomes = |seed: u64| -> (Vec<usize>, Vec<Result<Matrix, ServingError>>) {
        let plan = Arc::new(FaultPlan::new().seeded_faults(
            FaultSite::Gemm,
            FaultKind::Panic,
            K_FAULTS,
            universe,
            seed,
        ));
        let outcomes = run_window(&plan, distinct_requests(N_REQUESTS));
        assert_eq!(
            plan.injected().len(),
            K_FAULTS,
            "every armed trigger fires exactly once"
        );
        let failed: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_err())
            .map(|(i, _)| i)
            .collect();
        (failed, outcomes)
    };

    let (failed, outcomes) = chaos_outcomes(seed);
    assert_eq!(
        failed.len(),
        K_FAULTS,
        "exactly k of N requests fail (seed {seed})"
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(matrix) => {
                let expected = reference[i].as_ref().expect("probe run is fault-free");
                assert_eq!(
                    matrix, expected,
                    "survivor {i} must be bitwise identical to the fault-free run"
                );
            }
            Err(error) => assert!(
                matches!(error, ServingError::KernelPanicked { .. }),
                "request {i}: injected panics surface as KernelPanicked, got {error}"
            ),
        }
    }

    // Determinism: the same seed fails the same requests on a fresh engine.
    let (failed_again, _) = chaos_outcomes(seed);
    assert_eq!(failed, failed_again, "same seed, same blast radius");
}

/// Transient (non-panic) injected errors are likewise contained per request.
#[test]
fn injected_transient_errors_fail_only_their_own_request() {
    let plan = Arc::new(FaultPlan::new().fail_at(FaultSite::Gemm, 1, FaultKind::TransientError));
    let outcomes = run_window(&plan, distinct_requests(3));
    let failures = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(failures, 1, "one armed transient error, one failed request");
    for outcome in &outcomes {
        if let Err(error) = outcome {
            assert!(
                matches!(error, ServingError::Execution(_)),
                "a transient kernel error surfaces as ServingError::Execution, got {error}"
            );
        }
    }
}

/// Deadlines on a stepped clock: expiry is decided at dispatch, deterministically,
/// without any sleeping; unexpired requests in the same window are untouched.
#[test]
fn deadlines_expire_deterministically_on_a_mock_clock() {
    let clock = Arc::new(MockClock::new());
    let serving = ServingEngine::over_with_clock(
        Arc::new(ExecutionEngine::builder().build()),
        Arc::<MockClock>::clone(&clock),
    )
    .with_max_batch(100);

    let mut requests = distinct_requests(2).into_iter();
    let tight = serving.enqueue(
        requests
            .next()
            .unwrap()
            .with_deadline(serving.now() + Duration::from_millis(10)),
    );
    let lax = serving.enqueue(requests.next().unwrap());
    // Nothing expires while the clock stands still...
    assert!(!tight.is_ready() && !lax.is_ready());
    // ...and stepping past the deadline expires exactly the tight request at dispatch.
    clock.advance(Duration::from_millis(20));
    let telemetry = serving.flush().expect("the lax request still executes");
    assert_eq!(
        telemetry.requests, 1,
        "expired request never reaches the executor"
    );
    assert_eq!(
        tight.wait().output.unwrap_err(),
        ServingError::DeadlineExceeded
    );
    assert!(lax.wait().output.is_ok());
    assert_eq!(serving.stats().expired, 1);
}

/// Overload with `ShedExpiredFirst`: a full queue shelters the new arrival by first
/// resolving parked requests whose deadlines already passed.
#[test]
fn shed_expired_first_makes_room_by_resolving_expired_requests() {
    let clock = Arc::new(MockClock::new());
    let serving = ServingEngine::over_with_clock(
        Arc::new(ExecutionEngine::builder().build()),
        Arc::<MockClock>::clone(&clock),
    )
    .with_max_batch(100)
    .with_queue_capacity(2)
    .with_overload_policy(OverloadPolicy::ShedExpiredFirst);

    let mut requests = distinct_requests(3).into_iter();
    let stale = serving.enqueue(
        requests
            .next()
            .unwrap()
            .with_deadline(serving.now() + Duration::from_millis(5)),
    );
    let fresh = serving.enqueue(requests.next().unwrap());
    clock.advance(Duration::from_millis(10));
    // Queue is at capacity 2; the stale request's deadline has passed, so the third
    // arrival sheds it instead of being rejected.
    let late = serving.enqueue(requests.next().unwrap());
    assert_eq!(
        stale.wait().output.unwrap_err(),
        ServingError::DeadlineExceeded
    );
    assert!(!late.is_ready(), "the shed made room: late was admitted");
    serving.flush();
    assert!(fresh.wait().output.is_ok());
    assert!(late.wait().output.is_ok());
    let stats = serving.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.rejected_full, 0, "shedding prevented the rejection");
}

/// The regression test for the dispatch-thread-panics hang: a panic in the window
/// dispatch itself (before any group runs) must wake every waiter with
/// `KernelPanicked` — and the session must survive to serve the next window.
#[test]
fn window_dispatch_panic_wakes_every_waiter_and_the_session_survives() {
    let plan = Arc::new(FaultPlan::new().fail_at(FaultSite::WindowDispatch, 0, FaultKind::Panic));
    let serving = ServingEngine::over(faulty_engine(&plan)).with_max_batch(100);
    let handles: Vec<_> = distinct_requests(3)
        .into_iter()
        .map(|r| serving.enqueue(r))
        .collect();
    assert!(
        serving.flush().is_none(),
        "the panicked window has no telemetry"
    );
    for handle in handles {
        assert!(
            handle.is_ready(),
            "a dispatch panic must resolve every slot immediately — no hung waiters"
        );
        assert!(matches!(
            handle.wait().output.unwrap_err(),
            ServingError::KernelPanicked { .. }
        ));
    }
    assert_eq!(serving.stats().window_panics, 1);
    // The very next window (dispatch call index 1, unarmed) serves normally.
    let next = serving.enqueue(distinct_requests(1).remove(0));
    serving.flush();
    assert!(next.wait().output.is_ok(), "the session survives the panic");
}

/// A panic inside decomposition (the engine's `Decompose` failpoint) fails only the
/// group being prepared; other groups in the same window complete normally.
#[test]
fn decompose_panic_is_contained_to_its_own_group() {
    let plan = Arc::new(FaultPlan::new().fail_at(FaultSite::Decompose, 0, FaultKind::Panic));
    let outcomes = run_window(&plan, distinct_requests(2));
    let panicked = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServingError::KernelPanicked { .. })))
        .count();
    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    assert_eq!(
        (panicked, ok),
        (1, 1),
        "one group's decomposition panicked, the other group completed"
    );
}

/// Shutdown under load: with a latency fault stretching an in-flight window, `shutdown`
/// abandons parked requests, refuses late arrivals, waits out the in-flight window, and
/// leaves the engine healthy — every handle resolves.
#[test]
fn shutdown_under_load_resolves_every_handle_and_spares_the_engine() {
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Gemm,
        0,
        FaultKind::Delay(Duration::from_millis(30)),
    ));
    let engine = faulty_engine(&plan);
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(100);

    let in_flight: Vec<_> = distinct_requests(4)
        .into_iter()
        .map(|r| serving.enqueue(r))
        .collect();
    let all_resolved = std::thread::scope(|scope| {
        let dispatcher = {
            let serving = serving.clone();
            scope.spawn(move || serving.flush())
        };
        // Give the dispatcher a head start into the slowed window, then shut down
        // against it. Whatever the interleaving, every handle must resolve.
        std::thread::sleep(Duration::from_millis(5));
        let parked: Vec<_> = distinct_requests(2)
            .into_iter()
            .map(|r| serving.enqueue(r))
            .collect();
        serving.shutdown();
        dispatcher.join().expect("dispatcher must not panic");
        let late = serving.enqueue(distinct_requests(1).remove(0));
        assert_eq!(late.wait().output.unwrap_err(), ServingError::ShuttingDown);
        in_flight
            .into_iter()
            .chain(parked)
            .map(|h| h.wait().output)
            .all(|o| matches!(o, Ok(_) | Err(ServingError::ShuttingDown)))
    });
    assert!(
        all_resolved,
        "every handle resolves to a response or ShuttingDown — none lost, none hung"
    );
    // The shared engine outlives the session: a fresh session serves immediately.
    let next_session = ServingEngine::over(engine);
    let h = next_session.enqueue(distinct_requests(1).remove(0));
    assert!(
        h.wait().output.is_ok(),
        "engine survives a session shutdown"
    );
}

/// Full concurrent chaos: enqueuers, cancellations, seeded kernel panics, a bounded
/// queue, and a mid-storm shutdown racing across threads. The invariant under all of
/// it: **zero lost or leaked handles** — every handle resolves to a response or a
/// defined `ServingError`, and the accounting adds up.
#[test]
fn concurrent_chaos_loses_no_handles() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 16;
    let seed = fault_seed();
    let plan = Arc::new(FaultPlan::new().seeded_faults(
        FaultSite::Gemm,
        FaultKind::Panic,
        6,
        (THREADS * PER_THREAD) as u64,
        seed,
    ));
    let serving = ServingEngine::over(faulty_engine(&plan))
        .with_max_batch(4)
        .with_queue_capacity(32)
        .with_overload_policy(OverloadPolicy::ShedExpiredFirst);

    let barrier = Barrier::new(THREADS + 1);
    let per_thread_outcomes: Vec<[u64; 5]> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let serving = serving.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut gen = MatrixGenerator::seeded(0xC1A0 + t as u64);
                    let cfg = TasdConfig::parse("2:8").unwrap();
                    barrier.wait();
                    let mut handles = Vec::new();
                    for i in 0..PER_THREAD {
                        let a = Arc::new(gen.sparse_normal(24, 24, 0.5));
                        let request =
                            BatchRequest::decomposed(a, cfg.clone(), gen.normal(24, 3, 0.0, 1.0));
                        let handle = serving.enqueue(request);
                        if i % 5 == t {
                            handle.cancel();
                        }
                        handles.push(handle);
                        if i % 3 == 0 {
                            serving.flush();
                        }
                    }
                    // [ok, kernel_panicked, cancelled, shutting_down, queue_full]
                    let mut counts = [0u64; 5];
                    for handle in handles {
                        match handle.wait().output {
                            Ok(_) => counts[0] += 1,
                            Err(ServingError::KernelPanicked { .. }) => counts[1] += 1,
                            Err(ServingError::Cancelled) => counts[2] += 1,
                            Err(ServingError::ShuttingDown) => counts[3] += 1,
                            Err(ServingError::QueueFull) => counts[4] += 1,
                            Err(other) => panic!("undefined chaos outcome: {other}"),
                        }
                    }
                    counts
                })
            })
            .collect();
        barrier.wait();
        // Let the storm develop, then slam the door mid-flight.
        std::thread::sleep(Duration::from_millis(3));
        serving.shutdown();
        workers
            .into_iter()
            .map(|w| w.join().expect("chaos enqueuer panicked"))
            .collect()
    });

    let mut totals = [0u64; 5];
    for counts in &per_thread_outcomes {
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
    }
    assert_eq!(
        totals.iter().sum::<u64>(),
        (THREADS * PER_THREAD) as u64,
        "every single handle resolved to a defined outcome: {totals:?}"
    );
    let stats = serving.stats();
    // `dispatched` counts every request a window *executed* — that covers all Ok
    // outcomes, the per-group KernelPanicked failures, and cancellations that lost the
    // race and executed anyway; it can never exceed those three combined.
    assert!(
        stats.dispatched >= totals[0] && stats.dispatched <= totals[0] + totals[1] + totals[2],
        "executed-request accounting out of range: dispatched {} vs outcomes {totals:?}",
        stats.dispatched
    );
    assert_eq!(
        stats.cancelled, totals[2],
        "cancellation accounting matches"
    );
    assert!(serving.is_closed());
}
