//! Batched serving vs one-at-a-time execution, and the prepared-operand hot path.
//!
//! Measures `ExecutionEngine::submit` against a per-request loop on the same workload —
//! many narrow right-hand panels (one per "request") against one shared sparse operand —
//! at 3 batch sizes × 2 sparsities, plus the *warm* (cache-hit) serving path against a
//! faithful reconstruction of the pre-prepared-operand engine (the PR 2 baseline:
//! rescan + re-cost + raw-format term execution per call).
//!
//! Every measurement is recorded to `BENCH_serving.json` at the repository root
//! (`{name, config, ns_per_iter}`), so the serving-path performance trajectory is
//! tracked across PRs.
//!
//! The bench also carries the PR's acceptance gates, run before the timing groups:
//!
//! 1. a cold batch of 32 requests sharing one decomposed operand performs exactly one
//!    decomposition (cache telemetry);
//! 2. a warm batch performs zero decompositions, zero format conversions, zero replans,
//!    and zero operand rescans (prepared-execution telemetry);
//! 3. `submit` results are bitwise identical to the per-request raw-series reference;
//! 4. the warm prepared path beats the PR 2 baseline reconstruction by ≥ 1.5×
//!    wall-clock (skipped under `cargo bench -- --test` quick mode, where one-shot
//!    timings are meaningless — gates 1–3 still run, so CI smoke keeps the bench and
//!    the contracts honest without failing on runner speed);
//! 5. the **async serving** micro-batch window ([`serving_window_gate`]): one window of
//!    three same-operand requests, closed by one `flush`, performs one decomposition (≥ 1
//!    fewer than the same requests submitted individually), bitwise identical to
//!    per-request execution. Warm window-vs-per-request ns/iter is recorded as
//!    `serving_async/*`;
//! 6. the **overload** path ([`measure_overload`]): a capacity-bounded session with
//!    `ShedExpiredFirst` absorbing a flood of already-expired requests resolves every
//!    flooded handle `DeadlineExceeded`, answers the in-budget batch bitwise
//!    identically to the no-overload path, and (timing gate, skipped in `-- --test`
//!    quick mode) costs the in-budget requests ≤ 10% over the same session's
//!    no-overload warm window path. Both sides are recorded as `serving_overload/*`;
//! 7. the **deploy** path ([`measure_serving_deploy`]) on the engine `tasd-serve`
//!    builds: steady-state generation swaps (`serving_deploy/swap` — pushes that
//!    decompose exactly their dirty bands), warm vs cold restart
//!    (`serving_deploy/restart_{warm,cold}` — the warm side loads a store snapshot and
//!    must re-register with **zero** decompositions, asserted every rep), and
//!    resolve+enqueue p99 while a pusher thread deploys
//!    continuously vs steady state (`serving_deploy/enqueue_p99/*`), gated ≤ 1.10×
//!    (timing gate skipped in `-- --test` quick mode) — a deploy may not meaningfully
//!    stall the enqueue path.
//!
//! Run with: `cargo bench --bench serving` (append `-- --test` for the smoke mode).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasd::{
    load_snapshot, save_snapshot, BatchRequest, Clock, ExecutionEngine, MockClock, OverloadPolicy,
    ServingEngine, ServingError, TasdConfig, WeightStore,
};
use tasd_bench::bench_json::{quick_mode, BenchRecorder};
use tasd_tensor::backend::{pack_panels, unpack_panels};
use tasd_tensor::{Matrix, MatrixGenerator};

/// Operand geometry: a serving-sized weight (256×512) against 8-column request panels.
const M: usize = 256;
const K: usize = 512;
const PANEL_COLS: usize = 8;

fn workload(sparsity: f64, batch: usize) -> (Arc<Matrix>, Vec<Matrix>, TasdConfig) {
    let mut gen = MatrixGenerator::seeded(0x5E11);
    let a = Arc::new(gen.sparse_normal(M, K, sparsity));
    let panels = (0..batch)
        .map(|_| gen.normal(K, PANEL_COLS, 0.0, 1.0))
        .collect();
    (a, panels, TasdConfig::parse("2:8+1:8").unwrap())
}

fn requests(a: &Arc<Matrix>, panels: &[Matrix], cfg: &TasdConfig) -> Vec<BatchRequest> {
    panels
        .iter()
        .map(|b| BatchRequest::decomposed(Arc::clone(a), cfg.clone(), b.clone()))
        .collect()
}

fn config_label(sparsity: f64, batch: usize) -> String {
    format!(
        "s{:02.0} {M}x{K} batch={batch} panels={PANEL_COLS} cfg=2:8+1:8",
        sparsity * 100.0
    )
}

fn bench_serving(_c: &mut Criterion) {
    let mut rec = BenchRecorder::new("serving", 10);
    for sparsity in [0.5, 0.9] {
        for batch in [4usize, 16, 32] {
            let (a, panels, cfg) = workload(sparsity, batch);
            // Warm the prepared cache so both sides measure steady-state serving; the
            // cold-decomposition contrast is what the acceptance gate measures.
            let engine = ExecutionEngine::builder().build();
            let _ = engine.prepare_shared(&a, &cfg);

            let label = config_label(sparsity, batch);
            rec.measure(&format!("submit_batched/{batch}"), &label, || {
                let responses = engine.submit(std::hint::black_box(requests(&a, &panels, &cfg)));
                assert!(responses.iter().all(|r| r.output.is_ok()));
                responses
            });
            rec.measure(&format!("one_at_a_time/{batch}"), &label, || {
                panels
                    .iter()
                    .map(|b| {
                        engine
                            .decompose_gemm(std::hint::black_box(&a), &cfg, std::hint::black_box(b))
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            });
        }
    }
    measure_serving_async(&mut rec);
    measure_overload(&mut rec);
    measure_serving_net(&mut rec);
    measure_serving_deploy(&mut rec);
    rec.write().expect("BENCH_serving.json must be writable");
}

/// Best-of-`reps` wall-clock of `f` (de-noises single-core CI runners).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one rep")
}

/// PR 2's content fingerprint: byte-serial FNV-1a over every element (replaced in this
/// PR by a word-wise multi-lane hash *and* a per-allocation memo). The scan was part of
/// every warm `submit` call's cost, so the baseline must pay it too.
fn pr2_fnv1a_fingerprint(a: &Matrix) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(a.rows() as u64);
    mix(a.cols() as u64);
    for &x in a.as_slice() {
        mix(x.to_bits() as u64);
    }
    h
}

/// The PR 2 warm serving path, reconstructed from public APIs: per call it rescans the
/// operand (byte-serial FNV-1a fingerprint + non-zero count), re-costs every request
/// with shape-only plans, packs the panels, executes the **raw** series (terms in their
/// stored N:M format through per-call planning), and unpacks. This is what `submit` did
/// before prepared operands; keeping it executable is what makes the ≥ 1.5× gate a
/// measurement instead of a changelog claim.
fn pr2_baseline_submit(
    engine: &ExecutionEngine,
    series: &tasd::TasdSeries,
    a: &Matrix,
    panels: &[Matrix],
    cfg: &TasdConfig,
) -> Vec<Matrix> {
    let _fingerprint = std::hint::black_box(pr2_fnv1a_fingerprint(a));
    let nnz = a.count_nonzeros();
    let density = nnz as f64 / a.len() as f64;
    let mut cost_acc = 0u64;
    for b in panels {
        cost_acc = cost_acc.wrapping_add(
            engine
                .plan_dims(a.rows(), a.cols(), b.cols(), density, Some(cfg))
                .estimated_macs(),
        );
    }
    std::hint::black_box(cost_acc);
    let panel_refs: Vec<&Matrix> = panels.iter().collect();
    let wide_b = pack_panels(&panel_refs).expect("panels share the operand width");
    let wide_c = engine
        .series_gemm(series, &wide_b)
        .expect("consistent shapes");
    let widths: Vec<usize> = panels.iter().map(Matrix::cols).collect();
    unpack_panels(&wide_c, &widths)
}

/// The PR's acceptance gates (panic on regression); see the module docs for the list.
fn acceptance_gate(_c: &mut Criterion) {
    const BATCH: usize = 32;
    let (a, panels, cfg) = workload(0.9, BATCH);

    // -- Gate 1: exactly one decomposition per cold shared-operand batch. --------------
    let engine = ExecutionEngine::builder().build();
    let (responses, telemetry) = engine.submit_with_telemetry(requests(&a, &panels, &cfg));
    assert!(responses.iter().all(|r| r.output.is_ok()));
    assert_eq!(telemetry.groups.len(), 1, "one shared operand, one group");
    assert_eq!(
        telemetry.decompositions, 1,
        "a batch of {BATCH} requests sharing one operand must decompose exactly once"
    );
    assert_eq!(telemetry.cache_misses, 1);
    assert!(telemetry.bytes_resident > 0);
    let cold = engine.prep_stats();
    assert!(
        cold.conversions > 0,
        "the 90%-sparse terms must have been packed into a faster format"
    );

    // -- Gate 2: a warm batch performs zero decompositions / conversions / replans / ---
    // -- rescans (the prepare-once / execute-many contract, measured not asserted). ----
    let (warm_responses, warm_telemetry) =
        engine.submit_with_telemetry(requests(&a, &panels, &cfg));
    let warm = engine.prep_stats();
    assert_eq!(
        warm_telemetry.decompositions, 0,
        "warm batch must not decompose"
    );
    assert!(warm_telemetry.groups[0].cache_hit);
    assert_eq!(
        warm.conversions, cold.conversions,
        "warm batch must not convert"
    );
    assert_eq!(
        warm.plans_computed, cold.plans_computed,
        "warm batch must not replan"
    );
    assert_eq!(
        warm.fingerprint_scans, cold.fingerprint_scans,
        "warm batch must not rescan the shared operand"
    );

    // -- Gate 3: submit ≡ per-request raw-series reference, bitwise. -------------------
    let series = engine.decompose(&a, &cfg);
    for (resp, b) in warm_responses.iter().zip(&panels) {
        let reference = engine.series_gemm(&series, b).unwrap();
        assert_eq!(
            resp.output.as_ref().unwrap(),
            &reference,
            "prepared submit must be bitwise identical to the raw per-request path"
        );
    }

    // -- Gate 4: warm prepared path ≥ 1.5× over the PR 2 baseline reconstruction. ------
    if quick_mode() {
        println!("serving acceptance gate: quick (--test) mode, timing gate skipped");
        return;
    }
    let prepared = best_of(7, || {
        let responses = engine.submit(requests(&a, &panels, &cfg));
        assert!(responses.iter().all(|r| r.output.is_ok()));
    });
    let baseline = best_of(7, || {
        let outs = pr2_baseline_submit(&engine, &series, &a, &panels, &cfg);
        assert_eq!(outs.len(), BATCH);
    });
    let speedup = baseline.as_secs_f64() / prepared.as_secs_f64();
    println!(
        "serving acceptance gate: warm prepared {prepared:?} vs PR 2 baseline {baseline:?} \
         ({speedup:.2}x) on {BATCH} shared-operand requests"
    );
    assert!(
        speedup >= 1.5,
        "warm prepared submit ({prepared:?}) must be >= 1.5x faster than the PR 2 \
         baseline ({baseline:?}); measured {speedup:.2}x"
    );
}

/// The async-serving micro-batch window gate (always run, including `-- --test` smoke):
///
/// 1. **a window coalesces what it holds**: on a cache-less engine (so the
///    decomposition count measures coalescing directly) and a session with no
///    dispatcher, three same-operand enqueues closed by one `flush` dispatch as **one**
///    window performing **one** decomposition, where the same three requests submitted
///    individually perform three — the window saves ≥ 1 decomposition, the acceptance
///    criterion;
/// 2. window outputs are **bitwise identical** to individual per-request `submit`s.
fn serving_window_gate(_c: &mut Criterion) {
    let (a, panels, cfg) = workload(0.9, 8);

    // -- Gate 1 + 2: the coalescing window vs individual submits. ----------------------
    let engine = Arc::new(ExecutionEngine::builder().cache_capacity(0).build());
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(64);
    let handles: Vec<_> = panels[..3]
        .iter()
        .map(|b| {
            serving.enqueue(BatchRequest::decomposed(
                Arc::clone(&a),
                cfg.clone(),
                b.clone(),
            ))
        })
        .collect();
    assert!(
        handles.iter().all(|h| !h.is_ready()),
        "without a dispatcher the window holds until it is closed"
    );
    let telemetry = serving.flush().expect("three parked requests");
    assert_eq!(
        telemetry.requests, 3,
        "one flush closes one window of three"
    );
    let window_decompositions = engine.prep_stats().prepares;
    assert_eq!(
        window_decompositions, 1,
        "one window must coalesce 3 requests into one decomposition"
    );
    let outs: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    assert_eq!(serving.stats().windows, 1);
    assert_eq!(serving.stats().coalesced_windows, 1);

    let individual_engine = ExecutionEngine::builder().cache_capacity(0).build();
    for (out, b) in outs.iter().zip(&panels) {
        let reference = individual_engine.submit(vec![BatchRequest::decomposed(
            Arc::clone(&a),
            cfg.clone(),
            b.clone(),
        )]);
        assert_eq!(
            out.output.as_ref().unwrap(),
            reference[0].output.as_ref().unwrap(),
            "window outputs must be bitwise identical to per-request submits"
        );
    }
    let individual_decompositions = individual_engine.prep_stats().prepares;
    assert!(
        window_decompositions < individual_decompositions,
        "the micro-batch window must save at least one decomposition \
         ({window_decompositions} vs {individual_decompositions})"
    );

    println!("serving window gate: coalescing + bitwise contracts verified");
}

/// Warm async serving (one coalesced micro-batch window) vs warm per-request `submit`
/// loops, recorded into `BENCH_serving.json` (`serving_async/*`) for the cross-PR
/// trajectory.
fn measure_serving_async(rec: &mut BenchRecorder) {
    const BATCH: usize = 32;
    let (a, panels, cfg) = workload(0.9, BATCH);
    let engine = Arc::new(ExecutionEngine::builder().build());
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(BATCH);
    let _ = engine.prepare_shared(&a, &cfg); // steady-state serving on both sides
    let label = config_label(0.9, BATCH);
    rec.measure(&format!("serving_async/window/{BATCH}"), &label, || {
        let handles: Vec<_> = requests(&a, &panels, &cfg)
            .into_iter()
            .map(|r| serving.enqueue(r))
            .collect();
        serving.flush();
        handles
            .into_iter()
            .map(|h| h.wait().output.expect("well-shaped"))
            .collect::<Vec<_>>()
    });
    rec.measure(
        &format!("serving_async/per_request/{BATCH}"),
        &label,
        || {
            requests(&a, &panels, &cfg)
                .into_iter()
                .map(|r| {
                    engine
                        .submit(vec![r])
                        .pop()
                        .expect("one response")
                        .output
                        .expect("well-shaped")
                })
                .collect::<Vec<_>>()
        },
    );
}

/// Overload behavior under admission control: a capacity-bounded session running
/// [`OverloadPolicy::ShedExpiredFirst`] absorbs a flood of already-expired requests
/// while an in-budget batch lands in the same window; the **same session** runs the
/// identical in-budget workload with an empty queue as the no-overload baseline,
/// interleaved rep by rep. Both sides are recorded into `BENCH_serving.json`
/// (`serving_overload/{no_overload,shed}`).
///
/// Correctness gates (always run, including `-- --test` smoke mode):
///
/// 1. every flooded (expired) handle resolves [`ServingError::DeadlineExceeded`] —
///    shedding *answers* handles, it never drops one on the floor;
/// 2. in-budget responses under shed are **bitwise identical** to the engine's
///    direct no-overload `submit` on the same requests;
/// 3. the session's shed accounting is exact: only expired requests were shed, and
///    the whole flood was.
///
/// Timing gate (skipped in quick mode, like the warm-path gate): the shed path's
/// in-budget latency — shedding at admission, the executed window, and waking the
/// waiters all included — stays within 1.10× of the no-overload warm path on the
/// same session: handling overload may cost the requests still in budget at most 10%.
fn measure_overload(rec: &mut BenchRecorder) {
    const BATCH: usize = 32;
    let (a, panels, cfg) = workload(0.9, BATCH);
    let label = config_label(0.9, BATCH);

    let reps = if quick_mode() { 1 } else { 10 };

    // One capacity-bounded session serves both sides of the comparison: the same
    // engine, allocator state, and dispatch path time the in-budget batch with an
    // empty queue (no overload) and under a full expired flood (shed), interleaved
    // rep by rep so machine noise hits both sides equally. (Separate engine instances
    // differ by far more than the 10% budget on window-execution time alone — the
    // gate must isolate what *overload handling* adds, not allocator layout luck.)
    //
    // Request construction (panel clones) stays outside the timers on both sides: the
    // gate compares what the session costs an in-budget request, not what the client
    // pays to build one. The flood also *arrives* before the shed timer starts — it
    // is the pre-existing overload state — while shedding it, admitting the in-budget
    // batch, executing the window, and waking the waiters are all timed.
    let clock = Arc::new(MockClock::new());
    clock.set(Duration::from_secs(1_000));
    let engine = Arc::new(ExecutionEngine::builder().build());
    let _ = engine.prepare_shared(&a, &cfg);
    let serving = ServingEngine::over_with_clock(Arc::clone(&engine), clock as Arc<dyn Clock>)
        // Admission (the capacity bound), not window size, must close the window: at
        // 2×BATCH the flood alone can never trigger an early dispatch.
        .with_max_batch(2 * BATCH)
        .with_queue_capacity(BATCH)
        .with_overload_policy(OverloadPolicy::ShedExpiredFirst);
    let expired = Duration::from_secs(500); // behind the pinned clock: dead on arrival
    let in_budget = Duration::from_secs(2_000); // comfortably ahead of it

    let in_budget_reqs = || -> Vec<BatchRequest> {
        requests(&a, &panels, &cfg)
            .into_iter()
            .map(|r| r.with_deadline(in_budget))
            .collect()
    };
    let run_in_budget = |reqs: Vec<BatchRequest>| -> Vec<Matrix> {
        let handles: Vec<_> = reqs.into_iter().map(|r| serving.enqueue(r)).collect();
        serving.flush();
        handles
            .into_iter()
            .map(|h| h.wait().output.expect("in budget"))
            .collect()
    };

    let mut no_overload_t = Duration::MAX;
    let mut shed_t = Duration::MAX;
    let mut shed_outputs: Vec<Matrix> = Vec::new();
    for rep in 0..=reps {
        // Side A — no overload: the queue is empty, admission sheds nothing.
        let reqs = in_budget_reqs();
        let start = Instant::now();
        let outs = run_in_budget(reqs);
        let no_overload_elapsed = start.elapsed();
        std::hint::black_box(outs);
        // Side B — overload: the flood fills the queue to capacity, so the first
        // in-budget admission finds it full and sheds the whole flood (the mock
        // clock pinned at t=1000s makes "already expired" deterministic).
        let flood: Vec<_> = requests(&a, &panels, &cfg)
            .into_iter()
            .map(|r| serving.enqueue(r.with_deadline(expired)))
            .collect();
        let reqs = in_budget_reqs();
        let start = Instant::now();
        shed_outputs = run_in_budget(reqs);
        let shed_elapsed = start.elapsed();
        if rep > 0 {
            // rep 0 warms both sides and is not counted.
            no_overload_t = no_overload_t.min(no_overload_elapsed);
            shed_t = shed_t.min(shed_elapsed);
        }
        for h in flood {
            assert!(
                matches!(h.wait().output, Err(ServingError::DeadlineExceeded)),
                "every flooded request must resolve DeadlineExceeded"
            );
        }
    }
    let shed_label = format!("{label} cap={BATCH} flood={BATCH} policy=shed-expired-first");
    rec.record(
        &format!("serving_overload/no_overload/{BATCH}"),
        &format!("{label} cap={BATCH} flood=0 policy=shed-expired-first"),
        no_overload_t,
    );
    rec.record(
        &format!("serving_overload/shed/{BATCH}"),
        &shed_label,
        shed_t,
    );

    // -- Gates 1–3: shedding loses no handle and corrupts no in-budget response. -------
    let stats = serving.stats();
    assert_eq!(
        stats.shed, stats.expired,
        "only expired requests may be shed"
    );
    assert!(
        stats.shed >= BATCH as u64,
        "the expired flood must have been shed to admit the in-budget batch"
    );
    let reference: Vec<Matrix> = engine
        .submit(requests(&a, &panels, &cfg))
        .into_iter()
        .map(|r| r.output.expect("well-shaped"))
        .collect();
    assert_eq!(
        shed_outputs, reference,
        "in-budget responses under shed must be bitwise identical to the no-overload path"
    );

    if quick_mode() {
        println!("serving overload gate: quick (--test) mode, timing gate skipped");
        return;
    }
    let ratio = shed_t.as_secs_f64() / no_overload_t.as_secs_f64();
    println!(
        "serving overload gate: shed {shed_t:?} vs no-overload warm {no_overload_t:?} \
         ({ratio:.3}x) on {BATCH} in-budget + {BATCH} expired requests"
    );
    assert!(
        ratio <= 1.10,
        "shedding a {BATCH}-request expired flood must cost the in-budget batch <= 10% \
         over the no-overload warm path; measured {ratio:.3}x \
         (shed {shed_t:?} vs no-overload {no_overload_t:?})"
    );
}

/// The network serving path: an in-process `tasd-serve` server on a loopback socket,
/// its background dispatcher owning window close.
///
/// Correctness gate (always run, including `-- --test` smoke mode): 4 concurrent
/// connections × 16 requests through the socket return outputs **bitwise identical**
/// to an in-process `ExecutionEngine::submit` of the same requests on a separate engine
/// instance — the wire codec and the dispatcher-owned window must be invisible in the
/// result bits.
///
/// Timing: a closed-loop load-generator run records per-request latency percentiles
/// and throughput into `BENCH_serving.json` as `serving_net/{p50,p95,p99,rps}` (the
/// `rps` record stores mean time per completed request; the requests-per-second
/// figure is in its config string).
fn measure_serving_net(rec: &mut BenchRecorder) {
    use tasd_serve::loadgen::{LoadShape, LoadSpec};
    use tasd_serve::{Client, Frame, Server, ServerConfig};

    const NET_CONNECTIONS: usize = 4;
    const NET_REQUESTS: usize = 16;
    const NET_CFG: &str = "2:8+1:8";

    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    // -- Gate: socket responses ≡ in-process submit, bitwise. --------------------------
    let cfg = TasdConfig::parse(NET_CFG).unwrap();
    let operands = |c: usize| -> Vec<(Matrix, Matrix)> {
        let mut gen = MatrixGenerator::seeded(0x7C9 + c as u64);
        (0..NET_REQUESTS)
            .map(|_| {
                (
                    gen.sparse_normal(96, 128, 0.9),
                    gen.normal(128, PANEL_COLS, 0.0, 1.0),
                )
            })
            .collect()
    };
    let over_wire: Vec<Vec<Matrix>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..NET_CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    operands(c)
                        .iter()
                        .enumerate()
                        .map(|(i, (a, b))| {
                            client
                                .request(i as u64, a, b, Some(NET_CFG), None)
                                .expect("send");
                            match client.recv().expect("recv").expect("open") {
                                Frame::Response { output, .. } => output,
                                other => panic!("conn {c} req {i}: unexpected {other:?}"),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net gate connection"))
            .collect()
    });
    let reference_engine = ExecutionEngine::builder().build();
    for (c, wire_outputs) in over_wire.iter().enumerate() {
        let reference = reference_engine.submit(
            operands(c)
                .into_iter()
                .map(|(a, b)| BatchRequest::decomposed(a, cfg.clone(), b))
                .collect(),
        );
        for (i, (r, w)) in reference.iter().zip(wire_outputs).enumerate() {
            assert_eq!(
                r.output.as_ref().unwrap(),
                w,
                "net gate: conn {c} req {i} differs from in-process submit"
            );
        }
    }
    println!(
        "serving net gate: {NET_CONNECTIONS} connections x {NET_REQUESTS} requests \
         bitwise identical to in-process submit"
    );

    // -- Trajectory: closed-loop load run (latency percentiles + throughput). ----------
    let spec = LoadSpec {
        connections: NET_CONNECTIONS,
        requests_per_connection: if quick_mode() { 4 } else { 64 },
        shapes: vec![
            LoadShape {
                rows: 96,
                cols: 128,
                sparsity: 0.9,
            },
            LoadShape {
                rows: 128,
                cols: 96,
                sparsity: 0.7,
            },
        ],
        panel_cols: PANEL_COLS,
        config: Some(NET_CFG.to_string()),
        deadline_micros: None,
        seed: 0x10AD,
    };
    let report = tasd_serve::loadgen::run(addr, &spec).expect("load run");
    assert_eq!(report.errors, 0, "load traffic must not be rejected");
    let label = format!(
        "net conns={NET_CONNECTIONS} reqs={} shapes=96x128@0.9+128x96@0.7 \
         panels={PANEL_COLS} cfg={NET_CFG}",
        spec.requests_per_connection
    );
    rec.record("serving_net/p50", &label, report.p50);
    rec.record("serving_net/p95", &label, report.p95);
    rec.record("serving_net/p99", &label, report.p99);
    // Mean time per completed request; the rps figure rides in the config string.
    rec.record(
        "serving_net/rps",
        &format!("{label} rps={:.1}", report.throughput_rps),
        report.elapsed / report.requests.max(1) as u32,
    );
    if !quick_mode() {
        println!(
            "serving net: p50 {:?} p95 {:?} p99 {:?} at {:.1} req/s over {} connections",
            report.p50, report.p95, report.p99, report.throughput_rps, NET_CONNECTIONS
        );
    }
    server.shutdown();
}

/// The deploy lifecycle: generation swaps, warm vs cold restarts, and the
/// enqueue-during-deploy latency gate; recorded into `BENCH_serving.json` as
/// `serving_deploy/*`.
///
/// Correctness gates (always run, including `-- --test` smoke mode):
///
/// 1. every push decomposes exactly its dirty bands — a swap between the two variants
///    decomposes the two bands their changed rows lie in, and shares the other two
///    with the generation it replaces (a superseded band is freed, so a swap back
///    decomposes again);
/// 2. a warm restart (snapshot load) re-registers the serving operand with **zero**
///    decompositions — asserted on every timed rep, so the `restart_warm` record can
///    never silently degrade into a re-decomposition;
/// 3. the session serves bitwise-correct outputs against the final deployed
///    generation.
///
/// Timing gate (skipped in quick mode): resolve+enqueue p99 with a pusher thread
/// deploying continuously stays within 1.10× of the same path's steady-state p99 —
/// deploys must never meaningfully stall admission.
fn measure_serving_deploy(rec: &mut BenchRecorder) {
    const ENQUEUE_SAMPLES: usize = 4000;

    let deploy_engine = || Arc::new(ExecutionEngine::builder().build());
    let mut gen = MatrixGenerator::seeded(0xDE9107);
    let base = gen.sparse_normal(M, K, 0.9);
    // The two deploy variants differ from `base` in one row each, in distinct bands of
    // M = 256 rows (four 64-row bands): a push from `base` dirties one band, and every
    // swap between the variants dirties two.
    let variant = |marker: f32, row: usize| {
        let mut m = base.clone();
        m[(row, 0)] = marker;
        m
    };
    let panel = gen.normal(K, PANEL_COLS, 0.0, 1.0);
    let label = format!("s90 {M}x{K} bands=4 dirty_bands=2 panels={PANEL_COLS} cfg=2:8+1:8");

    let engine = deploy_engine();
    let serving = ServingEngine::over(Arc::clone(&engine)).with_max_batch(64);
    let store = Arc::new(WeightStore::new(Arc::clone(&engine)));
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    store.register("w", base.clone(), cfg.clone()).unwrap();
    // Gate 1: a push decomposes exactly its dirty bands.
    let first = store.push("w", variant(1.0, 3)).unwrap();
    assert_eq!(first.dirty_shards, 1, "one changed row, one dirty band");
    assert_eq!(first.prepares, 1);
    store.push("w", variant(2.0, 200)).unwrap();
    let swap = store.push("w", variant(1.0, 3)).unwrap();
    assert_eq!(swap.dirty_shards, 2, "rows 3 and 200 lie in two bands");
    assert_eq!(
        swap.prepares, 2,
        "a swap decomposes its dirty bands and nothing else"
    );

    // -- serving_deploy/swap: steady-state generation swaps under parked load. ---------
    let parked: Vec<_> = (0..8)
        .map(|_| serving.enqueue(store.resolve("w").unwrap().request(panel.clone())))
        .collect();
    let mut toggle = 0u32;
    let swap_t = rec.measure("serving_deploy/swap", &label, || {
        toggle += 1;
        let (marker, row) = if toggle.is_multiple_of(2) {
            (1.0, 3)
        } else {
            (2.0, 200)
        };
        let report = store.push("w", variant(marker, row)).unwrap();
        assert_eq!(
            report.prepares, report.dirty_shards as u64,
            "steady-state swaps decompose exactly their dirty bands"
        );
        report
    });
    for handle in parked {
        handle.cancel();
    }
    serving.flush();

    // -- serving_deploy/enqueue_p99: admission latency, steady vs mid-deploy. ----------
    let p99_of = |mut samples: Vec<Duration>| -> Duration {
        samples.sort_unstable();
        samples[samples.len() * 99 / 100 - 1]
    };
    let sample_enqueues = || -> Vec<Duration> {
        (0..ENQUEUE_SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let handle = serving.enqueue(store.resolve("w").unwrap().request(panel.clone()));
                let elapsed = start.elapsed();
                handle.cancel();
                elapsed
            })
            .collect()
    };
    let steady_p99 = p99_of(sample_enqueues());
    let deploying = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let during_p99 = std::thread::scope(|scope| {
        let pusher = {
            let store = Arc::clone(&store);
            let deploying = Arc::clone(&deploying);
            let variant_a = variant(1.0, 3);
            let variant_b = variant(2.0, 200);
            scope.spawn(move || {
                let mut swaps = 0u64;
                while deploying.load(std::sync::atomic::Ordering::Relaxed) {
                    let next = if swaps.is_multiple_of(2) {
                        &variant_a
                    } else {
                        &variant_b
                    };
                    store.push("w", next.clone()).unwrap();
                    swaps += 1;
                }
                swaps
            })
        };
        let p99 = p99_of(sample_enqueues());
        deploying.store(false, std::sync::atomic::Ordering::Relaxed);
        let swaps = pusher.join().expect("deploy pusher");
        assert!(swaps > 0, "the pusher must have deployed during sampling");
        p99
    });
    serving.flush();
    rec.record("serving_deploy/enqueue_p99/steady", &label, steady_p99);
    rec.record("serving_deploy/enqueue_p99/during_swap", &label, during_p99);

    // -- Gate 3: the final generation serves bitwise-correct outputs. ------------------
    let final_generation = store.resolve("w").unwrap();
    let handle = serving.enqueue(final_generation.request(panel.clone()));
    serving.flush();
    let served = handle.wait().output.expect("final generation serves");
    let reference = ExecutionEngine::builder()
        .build()
        .decompose_gemm(final_generation.matrix(), &cfg, &panel)
        .unwrap();
    assert_eq!(served, reference, "deployed generation must serve bitwise");

    // -- serving_deploy/restart_{cold,warm}: boot-to-registered wall clock. ------------
    let snapshot_path =
        std::env::temp_dir().join(format!("tasd-bench-deploy-{}.snapshot", std::process::id()));
    store.register("w", base.clone(), cfg.clone()).unwrap();
    save_snapshot(&store, &snapshot_path).expect("snapshot write");
    let restart_label = format!("s90 {M}x{K} bands=4 cfg=2:8+1:8 register-after-boot");
    let cold_t = rec.measure("serving_deploy/restart_cold", &restart_label, || {
        let store = WeightStore::new(deploy_engine());
        let report = store.register("w", base.clone(), cfg.clone()).unwrap();
        assert_eq!(report.prepares, 4, "a cold boot decomposes every band");
        report
    });
    let warm_t = rec.measure("serving_deploy/restart_warm", &restart_label, || {
        let store = WeightStore::new(deploy_engine());
        assert!(load_snapshot(&store, &snapshot_path).is_warm());
        let report = store.register("w", base.clone(), cfg.clone()).unwrap();
        assert_eq!(report.prepares, 0, "a warm restart decomposes nothing");
        report
    });
    let _ = std::fs::remove_file(&snapshot_path);

    if quick_mode() {
        println!("serving deploy gate: quick (--test) mode, timing gate skipped");
        return;
    }
    println!(
        "serving deploy: swap {swap_t:?}, restart warm {warm_t:?} vs cold {cold_t:?} \
         ({:.2}x), enqueue p99 steady {steady_p99:?} vs during swap {during_p99:?}",
        cold_t.as_secs_f64() / warm_t.as_secs_f64()
    );
    let ratio = during_p99.as_secs_f64() / steady_p99.as_secs_f64();
    assert!(
        ratio <= 1.10,
        "resolve+enqueue p99 during continuous deploys must stay within 1.10x of \
         steady state; measured {ratio:.3}x (during {during_p99:?} vs steady {steady_p99:?})"
    );
}

criterion_group!(benches, acceptance_gate, serving_window_gate, bench_serving);
criterion_main!(benches);
