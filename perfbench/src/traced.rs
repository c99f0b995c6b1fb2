//! The traced run (`--trace 1`): per-layer metrics, measured from outside each layer
//! by timing calls into its public entry points.
//!
//! Three parts, all on the workload's generated inputs:
//! 1. the low-rate phase against the spawned binary, untraced, reading the `Stats`
//!    control frame and `/proc/<pid>` at its boundaries (server, window and health
//!    figures);
//! 2. the same phase replayed in-process through a `Server` bound with
//!    `ServerConfig::default()`, with a span around `wire::decode_frame`,
//!    `WeightStore::{register, push, resolve}`, `ServingEngine::enqueue`,
//!    `ResponseHandle::wait_without_dispatch` and `wire::encode_frame`;
//! 3. single-threaded probes of `Matrix::fingerprint`, `tasd::decompose`, a cold
//!    `ExecutionEngine::prepare`, `series_gemm_prepared` and
//!    `ExecutionEngine::submit_with_telemetry`.
//!
//! Spans stay in memory and are written, with their self times, to
//! `<target dir>/perfbench/spans-<workload>-<seed>.tsv` when the run ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use tasd::{BatchRequest, ExecutionEngine, ResponseHandle, WeightStore};
use tasd_serve::wire::{decode_frame, encode_frame, DEFAULT_MAX_FRAME_BYTES};
use tasd_serve::{Frame, Server, ServerConfig};
use tasd_tensor::Matrix;

use crate::load::{self, Kept, Phase, PushRecord};
use crate::stats::{mean, median, quantile, self_times, summarize, Span};
use crate::sys::{self, ServerProc};
use crate::workload::{self, Kind, BERT_LAYERS, RELU_CONFIG};
use crate::{config, tile_index, Deploys, Metric, Model, Outcome, GATE_SAMPLES};

/// Input spaces of the probes, apart from every timed phase's.
const SPACE_PROBE: u64 = 300;

/// Per-layer metrics: name, unit, whether derived from other figures, and the
/// end-to-end metric it should move (on which workload).
pub const LAYER_METRICS: &[(&str, &str, bool, &str)] = &[
    (
        "wire.decode_us",
        "us",
        false,
        "p50_ms.low (bert-steady, relu-fresh), a few % at most",
    ),
    (
        "wire.encode_us",
        "us",
        false,
        "p50_ms.low (bert-steady, relu-fresh), a few % at most",
    ),
    (
        "wire.bytes_per_req",
        "bytes",
        false,
        "p50_ms.low (bert-steady, relu-fresh), a few % at most",
    ),
    ("server.edge_ms", "ms", true, "p50_ms.low (all)"),
    (
        "server.cpu_ms_per_req",
        "ms",
        false,
        "p50_ms.low (all), capacity_rps (bert-steady)",
    ),
    (
        "server.ctx_switches_per_req",
        "count",
        false,
        "p50_ms.low (all), capacity_rps (bert-steady)",
    ),
    (
        "server.threads",
        "count",
        false,
        "p50_ms.low (all), capacity_rps (bert-steady)",
    ),
    (
        "serving.enqueue_us",
        "us",
        false,
        "p50_ms.low (bert-steady); no change on relu-fresh",
    ),
    (
        "serving.in_engine_ms",
        "ms",
        false,
        "p50_ms.low (bert-steady); no change on relu-fresh",
    ),
    (
        "serving.window_wait_ms",
        "ms",
        true,
        "p50_ms.low (bert-steady); no change on relu-fresh",
    ),
    (
        "serving.mean_window",
        "requests",
        false,
        "p50_ms.high, capacity_rps (bert-steady); no change on relu-fresh",
    ),
    (
        "serving.coalesced_frac",
        "fraction",
        false,
        "p50_ms.high, capacity_rps (bert-steady); no change on relu-fresh",
    ),
    (
        "serving.ticks_per_s",
        "1/s",
        false,
        "p50_ms.low (bert-steady); no change on relu-fresh",
    ),
    (
        "batch.submit_ms",
        "ms",
        false,
        "p50_ms.high, capacity_rps (bert-steady); no change on relu-fresh",
    ),
    (
        "batch.groups_per_window",
        "count",
        false,
        "p50_ms.high, capacity_rps (bert-steady); no change on relu-fresh",
    ),
    (
        "prepare.fingerprint_us",
        "us",
        false,
        "every latency and capacity_rps (relu-fresh); setup_s (all)",
    ),
    (
        "prepare.decompose_ms",
        "ms",
        false,
        "every latency and capacity_rps (relu-fresh); setup_s (all); deploy_p50_ms (bert-deploy)",
    ),
    (
        "prepare.pack_plan_ms",
        "ms",
        true,
        "every latency and capacity_rps (relu-fresh); setup_s (all); deploy_p50_ms (bert-deploy)",
    ),
    (
        "prepare.prepares_per_req",
        "count",
        false,
        "every latency (relu-fresh); no change on bert-steady (0)",
    ),
    (
        "prepare.fingerprint_scans_per_req",
        "count",
        false,
        "every latency (relu-fresh); no change on bert-steady",
    ),
    (
        "cache.hit_rate",
        "fraction",
        false,
        "every latency (relu-fresh); no change on bert-steady",
    ),
    (
        "cache.evictions_per_req",
        "count",
        false,
        "peak_rss_mb (relu-fresh)",
    ),
    (
        "cache.resident_mb",
        "MB",
        false,
        "peak_rss_mb (relu-fresh, bert-deploy)",
    ),
    (
        "kernel.pass_ms",
        "ms",
        false,
        "p50_ms.high, capacity_rps (bert-steady)",
    ),
    (
        "kernel.macs_per_req",
        "count",
        false,
        "p50_ms.high, capacity_rps (bert-steady)",
    ),
    (
        "kernel.gflops",
        "GFLOP/s",
        true,
        "p50_ms.high, capacity_rps (bert-steady)",
    ),
    (
        "deploy.register_ms",
        "ms",
        false,
        "setup_s (bert-steady, bert-deploy); no change on relu-fresh reads",
    ),
    (
        "deploy.push_ms",
        "ms",
        false,
        "deploy_p50_ms, deploy_tail_ms, tail_ms.low (bert-deploy)",
    ),
    (
        "deploy.prepares_per_push",
        "count",
        false,
        "deploy_p50_ms (bert-deploy)",
    ),
    (
        "deploy.dirty_shards_frac",
        "fraction",
        false,
        "deploy_p50_ms (bert-deploy)",
    ),
    (
        "loadgen.late_p99_ms",
        "ms",
        false,
        "none: explains a noisy set",
    ),
    (
        "loadgen.backlog",
        "count",
        false,
        "none: explains a noisy set",
    ),
    ("host.steal_pct", "%", false, "none: explains a noisy set"),
];

/// Span recorder: slots are opened before their children so a child can name its
/// parent, and closed when the call returns.
struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    }

    fn close(&self, index: usize) {
        let end = self.now();
        self.spans.lock().expect("span list lock poisoned")[index].end = end;
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, parent, request);
        let out = f();
        self.close(index);
        out
    }

    /// Median self time of the spans named `name`, in ms.
    fn self_ms(&self, name: &str) -> f64 {
        median(&self.self_times_ms(name))
    }

    /// Self times of the spans named `name`, in ms.
    fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        spans
            .iter()
            .zip(self_times(&spans))
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let own = self_times(&spans);
        let mut text = String::from("index\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (i, (span, own)) in spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}\n",
                span.name, span.request, span.start, span.end
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// What part 1 measured against the binary.
struct Untraced {
    p50_ms: f64,
    phase: Phase,
    deploys: Deploys,
    steal_pct: f64,
    cpu_ms_per_req: f64,
    ctx_per_req: f64,
    threads: f64,
    mean_window: f64,
    coalesced_frac: f64,
    ticks_per_s: f64,
}

fn part_untraced(model: &Model, length: f64) -> Result<Untraced, String> {
    let binary = sys::build_server()?;
    let server = ServerProc::spawn(&binary)?;
    model.set_up(&server, 0)?;
    let due = workload::poisson_schedule(
        &mut workload::Rng::new(model.seed, 1),
        model.plan.low_rps,
        length,
    );
    let make = |id: u64| model.read_frame(1, id);
    let keep = load::keep_every(due.len(), GATE_SAMPLES);
    let origin = Instant::now();
    let (stats_before, proc_before, host_before) = (
        server.stats()?,
        sys::sample_proc(server.pid()),
        sys::host_ticks(),
    );
    let stop = AtomicBool::new(false);
    let (phase, deploys, mid) = std::thread::scope(|scope| {
        let pusher = (model.plan.kind == Kind::BertDeploy).then(|| {
            scope.spawn(|| {
                let mut deploys = Deploys::default();
                deploys.run(
                    model,
                    &mut load::Conn::new(server.addr),
                    origin,
                    (0.05, f64::INFINITY),
                    &stop,
                );
                deploys
            })
        });
        let sampler = scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_secs_f64(length / 2.0));
            sys::sample_proc(server.pid())
        });
        let phase = load::open_loop(
            &mut load::Conn::new(server.addr),
            origin,
            0.05,
            &due,
            &make,
            keep,
        );
        stop.store(true, Ordering::SeqCst);
        let deploys = pusher
            .map(|p| p.join().expect("pusher thread panicked"))
            .unwrap_or_default();
        (
            phase,
            deploys,
            sampler.join().expect("sampler thread panicked"),
        )
    });
    let elapsed = origin.elapsed().as_secs_f64();
    let (stats_after, proc_after) = (server.stats()?, sys::sample_proc(server.pid()));
    let steal_pct = sys::steal_pct(host_before, sys::host_ticks());
    server.stop()?;
    let requests = phase.attempted.max(1) as f64;
    let (before, after) = (stats_before.serving, stats_after.serving);
    let windows = after.windows.saturating_sub(before.windows).max(1) as f64;
    Ok(Untraced {
        p50_ms: summarize(&phase.latencies).p50,
        steal_pct,
        cpu_ms_per_req: proc_after.cpu_ticks.saturating_sub(proc_before.cpu_ticks) as f64 * 1e3
            / sys::TICKS_PER_S
            / requests,
        ctx_per_req: proc_after
            .ctx_switches
            .saturating_sub(proc_before.ctx_switches) as f64
            / requests,
        threads: mid.threads as f64,
        mean_window: (after.dispatched - before.dispatched) as f64 / windows,
        coalesced_frac: (after.coalesced_windows - before.coalesced_windows) as f64 / windows,
        ticks_per_s: (after.ticks - before.ticks) as f64 / elapsed,
        phase,
        deploys,
    })
}

/// What part 2 measured in-process.
struct Replay {
    in_engine_ms: Vec<f64>,
    bytes_per_req: f64,
    prepares_per_req: f64,
    scans_per_req: f64,
    hit_rate: f64,
    evictions_per_req: f64,
    resident_mb: f64,
    push_prepares: Vec<f64>,
    dirty_shards_frac: Vec<f64>,
    phase: Phase,
}

/// Registers the workload's operands on `store` (spanned), and answers one request
/// per operand (`bert-*`) or runs the warm-up (`relu-fresh`).
fn set_up_in_process(model: &Model, tracer: &Tracer, server: &Server) {
    let store = server.store();
    match &model.bert {
        Some(bert) => {
            for (i, layer) in BERT_LAYERS.iter().enumerate() {
                tracer
                    .span("deploy.register", None, i as u64, || {
                        store.register(
                            layer.name,
                            Arc::clone(&bert.weights[i]),
                            config(layer.config),
                        )
                    })
                    .expect("registering a generated layer succeeds");
                let generation = store.resolve(layer.name).expect("just registered");
                let _ = server
                    .session()
                    .enqueue(generation.request(bert.panel(i, 0).clone()))
                    .wait_without_dispatch();
            }
        }
        None => {
            for k in 0..workload::RELU_DEPLOY_NAMES as u64 {
                let tile = workload::relu_tile(model.seed, tile_index(crate::SPACE_DEPLOY, k));
                tracer
                    .span("deploy.register", None, k, || {
                        store.register(&format!("relu.tile.{k}"), tile, config(RELU_CONFIG))
                    })
                    .expect("registering a generated tile succeeds");
            }
            let weights = model.relu_weights.clone().expect("relu-fresh has weights");
            let handles: Vec<ResponseHandle> = (0..crate::RELU_WARMUP as u64)
                .map(|i| {
                    let tile = workload::relu_tile(model.seed, tile_index(crate::SPACE_WARMUP, i));
                    server.session().enqueue(BatchRequest::decomposed(
                        tile,
                        config(RELU_CONFIG),
                        weights.clone(),
                    ))
                })
                .collect();
            for handle in handles {
                let _ = handle.wait_without_dispatch();
            }
        }
    }
}

/// Replays the low phase's schedule through the in-process server's public entry
/// points, one span per call.
fn part_replay(model: &Model, tracer: &Tracer, length: f64, deploys: &mut Deploys) -> Replay {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binding loopback succeeds");
    set_up_in_process(model, tracer, &server);
    let store: &WeightStore = server.store();
    let engine = store.engine();
    let (prep_before, cache_before) = (engine.prep_stats(), engine.cache_stats());
    let due = workload::poisson_schedule(
        &mut workload::Rng::new(model.seed, 1),
        model.plan.low_rps,
        length,
    );
    let keep = load::keep_every(due.len(), GATE_SAMPLES);
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(u64, usize, f64, ResponseHandle)>();
    let mut bytes = 0usize;
    let mut pushed = Vec::new();
    let (answers, kept) = std::thread::scope(|scope| {
        let pusher = (model.plan.kind == Kind::BertDeploy).then(|| {
            scope.spawn(|| {
                let bert = model.bert.as_ref().expect("bert-deploy has BERT inputs");
                let mut current: Vec<Matrix> =
                    bert.weights.iter().map(|w| Matrix::clone(w)).collect();
                let mut done = Vec::new();
                let cadence = model.plan.deploy_cadence_ms as f64 / 1e3;
                for index in 0u64.. {
                    let due = 0.05 + index as f64 * cadence;
                    let now = origin.elapsed().as_secs_f64();
                    if due > now {
                        std::thread::sleep(std::time::Duration::from_secs_f64(due - now));
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let push = workload::push(model.seed, index, model.plan.push_rows);
                    workload::apply(&mut current[push.layer], &push);
                    let matrix = current[push.layer].clone();
                    let sent_s = origin.elapsed().as_secs_f64();
                    let report = tracer
                        .span("deploy.push", None, index, || {
                            store.push(BERT_LAYERS[push.layer].name, matrix)
                        })
                        .expect("pushing a generated change succeeds");
                    let record = PushRecord {
                        index,
                        sent_s,
                        acked_s: Some(origin.elapsed().as_secs_f64()),
                        dirty_rows_match: report.dirty_rows == push.rows.len(),
                    };
                    done.push((record, push, report));
                }
                done
            })
        });
        let waiter = scope.spawn(|| {
            let mut answers = Vec::new();
            let mut kept = Vec::new();
            for (id, request_span, enqueued_at, handle) in rx {
                let wait = tracer.open("serving.wait", Some(request_span), id);
                let response = handle.wait_without_dispatch();
                tracer.close(wait);
                let done = origin.elapsed().as_secs_f64();
                let Ok(output) = response.output else {
                    // Counted as failed: the answers fall short of the schedule.
                    tracer.close(request_span);
                    continue;
                };
                let frame = Frame::Response { id, output };
                let encoded = tracer.span("wire.encode", Some(request_span), id, || {
                    encode_frame(&frame)
                });
                tracer.close(request_span);
                let Frame::Response { output, .. } = frame else {
                    unreachable!()
                };
                answers.push(((done - enqueued_at) * 1e3, encoded.map_or(0, |b| b.len())));
                if id % keep == 0 {
                    kept.push(Kept {
                        id,
                        sent_s: enqueued_at,
                        answered_s: done,
                        output,
                    });
                }
            }
            (answers, kept)
        });
        for (i, &offset) in due.iter().enumerate() {
            let id = i as u64;
            let encoded = encode_frame(&model.read_frame(1, id)).expect("request frames encode");
            bytes += encoded.len();
            let now = origin.elapsed().as_secs_f64();
            if 0.05 + offset > now {
                std::thread::sleep(std::time::Duration::from_secs_f64(0.05 + offset - now));
            }
            let request_span = tracer.open("request", None, id);
            let frame = tracer.span("wire.decode", Some(request_span), id, || {
                decode_frame(&encoded, DEFAULT_MAX_FRAME_BYTES)
            });
            let request = match frame.expect("own frames decode").0 {
                Frame::NamedRequest { name, b, .. } => {
                    let generation = tracer.span("store.resolve", Some(request_span), id, || {
                        store.resolve(&name)
                    });
                    generation.expect("registered in set-up").request(b)
                }
                Frame::Request {
                    a,
                    b,
                    config: Some(text),
                    ..
                } => BatchRequest::decomposed(a, config(&text), b),
                other => unreachable!("the workloads send requests only: {other:?}"),
            };
            let enqueued_at = origin.elapsed().as_secs_f64();
            let handle = tracer.span("serving.enqueue", Some(request_span), id, || {
                server.session().enqueue(request)
            });
            tx.send((id, request_span, enqueued_at, handle))
                .expect("waiter is alive");
        }
        drop(tx);
        let out = waiter.join().expect("waiter thread panicked");
        stop.store(true, Ordering::SeqCst);
        if let Some(pusher) = pusher {
            pushed = pusher.join().expect("pusher thread panicked");
        }
        out
    });
    let (prep_after, cache_after) = (engine.prep_stats(), engine.cache_stats());
    let requests = answers.len().max(1) as f64;
    let push_prepares: u64 = pushed.iter().map(|(_, _, r)| r.prepares).sum();
    let lookups = (cache_after.hits + cache_after.misses)
        .saturating_sub(cache_before.hits + cache_before.misses);
    let response_bytes: usize = answers.iter().map(|a| a.1).sum();
    let replay = Replay {
        in_engine_ms: answers.iter().map(|a| a.0).collect(),
        bytes_per_req: (bytes + response_bytes) as f64 / requests,
        prepares_per_req: (prep_after.prepares - prep_before.prepares).saturating_sub(push_prepares)
            as f64
            / requests,
        scans_per_req: (prep_after.fingerprint_scans - prep_before.fingerprint_scans) as f64
            / requests,
        hit_rate: (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
        evictions_per_req: (cache_after.evictions - cache_before.evictions) as f64 / requests,
        resident_mb: cache_after.bytes_resident as f64 / (1 << 20) as f64,
        push_prepares: pushed.iter().map(|(_, _, r)| r.prepares as f64).collect(),
        dirty_shards_frac: pushed
            .iter()
            .map(|(_, _, r)| r.dirty_shards as f64 / r.total_shards.max(1) as f64)
            .collect(),
        phase: Phase {
            attempted: due.len(),
            failed: due.len() - answers.len(),
            kept,
            ..Phase::default()
        },
    };
    for (record, push, _) in pushed {
        deploys.records.push(record);
        deploys.pushes.push(push);
    }
    drop(server);
    replay
}

/// Operands, configurations and panels for the probes.
fn probe_inputs(model: &Model) -> Vec<(Arc<Matrix>, tasd::TasdConfig, Matrix)> {
    match &model.bert {
        Some(bert) => (0..BERT_LAYERS.len())
            .map(|i| {
                (
                    Arc::clone(&bert.weights[i]),
                    config(BERT_LAYERS[i].config),
                    bert.panel(i, 0).clone(),
                )
            })
            .collect(),
        None => (0..8)
            .map(|k| {
                let tile = workload::relu_tile(model.seed, tile_index(SPACE_PROBE, k));
                let weights = model.relu_weights.clone().expect("relu-fresh has weights");
                (Arc::new(tile), config(RELU_CONFIG), weights)
            })
            .collect(),
    }
}

/// What part 3 measured besides spans.
struct Probes {
    /// Effectual multiply-accumulates per request of the workload's mix.
    macs: f64,
    /// Groups per submitted window.
    groups: f64,
    /// `(prepares, dirty shard fraction)` of each probe push.
    pushes: Vec<(f64, f64)>,
}

/// Part 3: single-threaded probes.
fn part_probes(model: &Model, tracer: &Tracer, window: usize, push_probe: bool) -> Probes {
    let inputs = probe_inputs(model);
    let mut macs = Vec::new();
    for (k, (a, cfg, b)) in inputs.iter().enumerate() {
        let id = k as u64;
        tracer.span("prepare.fingerprint", None, id, || {
            std::hint::black_box(a.fingerprint())
        });
        tracer.span("prepare.decompose", None, id, || {
            std::hint::black_box(tasd::decompose(a, cfg))
        });
        let engine = ExecutionEngine::builder().build();
        let prepared = tracer.span("prepare.cold", None, id, || engine.prepare(a, cfg));
        for _ in 0..3 {
            let out = tracer.span("kernel.pass", None, id, || {
                engine.series_gemm_prepared(&prepared, b)
            });
            std::hint::black_box(out.expect("probe shapes agree"));
        }
        macs.push((prepared.nnz() * b.cols()) as f64);
    }
    // Windows of the observed mean size, on a warm store (bert) or fresh tiles (relu).
    let engine = Arc::new(ExecutionEngine::builder().build());
    let store = WeightStore::new(Arc::clone(&engine));
    if let Some(bert) = &model.bert {
        for (i, layer) in BERT_LAYERS.iter().enumerate() {
            store
                .register(
                    layer.name,
                    Arc::clone(&bert.weights[i]),
                    config(layer.config),
                )
                .expect("register succeeds");
        }
    }
    let size = window.max(1);
    let mut groups = Vec::new();
    for w in 0..8u64 {
        let requests: Vec<BatchRequest> = (0..size as u64)
            .map(|j| {
                let id = w * size as u64 + j;
                match &model.bert {
                    Some(_) => {
                        let Frame::NamedRequest { name, b, .. } =
                            model.read_frame(SPACE_PROBE + 1, id)
                        else {
                            unreachable!()
                        };
                        store.resolve(&name).expect("registered").request(b)
                    }
                    None => model.read_request(SPACE_PROBE + 1, id, &[]),
                }
            })
            .collect();
        let (_, telemetry) = tracer.span("batch.submit", None, w, || {
            engine.submit_with_telemetry(requests)
        });
        groups.push(telemetry.groups.len() as f64);
    }
    let mut reports = Vec::new();
    if push_probe {
        // Deploy probes: pushes of a few changed rows through the same store.
        match &model.bert {
            Some(bert) => {
                for k in 0..6u64 {
                    let push = workload::push(model.seed ^ 0x9B0E, k, model.plan.push_rows);
                    let mut matrix = Matrix::clone(&bert.weights[push.layer]);
                    workload::apply(&mut matrix, &push);
                    reports.push(tracer.span("deploy.push", None, k, || {
                        store.push(BERT_LAYERS[push.layer].name, matrix)
                    }));
                }
            }
            None => {
                let tile = workload::relu_tile(model.seed, tile_index(SPACE_PROBE + 2, 0));
                store
                    .register("relu.tile.probe", tile.clone(), config(RELU_CONFIG))
                    .expect("register succeeds");
                for k in 0..6u64 {
                    let mut changed = tile.clone();
                    let row = (k as usize * 37) % workload::RELU_ROWS;
                    let fresh = workload::relu_tile(model.seed, tile_index(SPACE_PROBE + 3, k));
                    changed.row_mut(row).copy_from_slice(fresh.row(row));
                    reports.push(tracer.span("deploy.push", None, k, || {
                        store.push("relu.tile.probe", changed)
                    }));
                }
            }
        }
    }
    Probes {
        macs: mean(&macs),
        groups: median(&groups),
        pushes: reports
            .into_iter()
            .map(|r| {
                let r = r.expect("probe pushes succeed");
                (
                    r.prepares as f64,
                    r.dirty_shards as f64 / r.total_shards.max(1) as f64,
                )
            })
            .collect(),
    }
}

/// The traced run: every per-layer metric of the workload.
pub fn run(model: &Model, seconds: f64) -> Result<Outcome, String> {
    let length = 0.4 * seconds;
    let untraced = part_untraced(model, length)?;
    let tracer = Tracer {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
    };
    let mut replay_deploys = Deploys::default();
    let replay = part_replay(model, &tracer, length, &mut replay_deploys);
    let window = untraced.mean_window.round() as usize;
    let push_probe = model.plan.kind != Kind::BertDeploy;
    let probes = part_probes(model, &tracer, window, push_probe);
    let (macs, groups) = (probes.macs, probes.groups);
    let (push_prepares, dirty_frac) = if push_probe {
        let column = |pick: fn(&(f64, f64)) -> f64| {
            median(&probes.pushes.iter().map(pick).collect::<Vec<_>>())
        };
        (column(|p| p.0), column(|p| p.1))
    } else {
        (
            median(&replay.push_prepares),
            median(&replay.dirty_shards_frac),
        )
    };

    let verdict =
        crate::gate(model, &[(1, &untraced.phase)], &untraced.deploys).and_then(|checked| {
            Ok(checked + crate::gate(model, &[(1, &replay.phase)], &replay_deploys)?)
        });
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "target".into(), std::path::PathBuf::from);
    let name = match model.plan.kind {
        Kind::BertSteady => "bert-steady",
        Kind::ReluFresh => "relu-fresh",
        Kind::BertDeploy => "bert-deploy",
    };
    let path = target
        .join("perfbench")
        .join(format!("spans-{name}-{}.tsv", model.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let in_engine = median(&replay.in_engine_ms);
    let submit = tracer.self_ms("batch.submit");
    let fingerprint = tracer.self_ms("prepare.fingerprint");
    let decompose = tracer.self_ms("prepare.decompose");
    // Requests spread evenly over the probed operands, so per-request figures are means.
    let pass = mean(&tracer.self_times_ms("kernel.pass"));
    let values = [
        tracer.self_ms("wire.decode") * 1e3,
        tracer.self_ms("wire.encode") * 1e3,
        replay.bytes_per_req,
        untraced.p50_ms - in_engine,
        untraced.cpu_ms_per_req,
        untraced.ctx_per_req,
        untraced.threads,
        tracer.self_ms("serving.enqueue") * 1e3,
        in_engine,
        in_engine - submit,
        untraced.mean_window,
        untraced.coalesced_frac,
        untraced.ticks_per_s,
        submit,
        groups,
        fingerprint * 1e3,
        decompose,
        tracer.self_ms("prepare.cold") - fingerprint - decompose,
        replay.prepares_per_req,
        replay.scans_per_req,
        replay.hit_rate,
        replay.evictions_per_req,
        replay.resident_mb,
        pass,
        macs,
        2.0 * macs / (pass * 1e-3) / 1e9,
        tracer.self_ms("deploy.register"),
        tracer.self_ms("deploy.push"),
        push_prepares,
        dirty_frac,
        quantile(&untraced.phase.late_ms, 0.99),
        untraced.phase.backlog as f64,
        untraced.steal_pct,
    ];
    println!(
        "per-layer metrics (traced run; spans in {}):",
        path.display()
    );
    for (&(metric, unit, derived, moves), value) in LAYER_METRICS.iter().zip(values) {
        let label = if derived { "derived" } else { "measured" };
        println!("  {metric:<34} {value:>14.4} {unit:<9} {label:<9} moves: {moves}");
    }
    match &verdict {
        Ok(checked) => {
            println!("correctness gate: {checked} answers bitwise equal to in-process submit")
        }
        Err(why) => println!("correctness gate FAILED: {why}"),
    }
    let attempted =
        untraced.phase.attempted + replay.phase.attempted + untraced.deploys.records.len();
    let failed = untraced.phase.failed
        + replay.phase.failed
        + untraced
            .deploys
            .records
            .iter()
            .filter(|r| r.acked_s.is_none())
            .count();
    Ok(Outcome {
        correct: verdict.is_ok(),
        attempted: attempted.max(1),
        failed,
        metrics: LAYER_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
            .collect(),
    })
}
