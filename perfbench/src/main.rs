//! `tasd-perfbench` — the repository benchmark: the shipped `tasd-serve` binary under
//! TASD-W reads (`bert-steady`), TASD-A fresh activations (`relu-fresh`) and live
//! deploys beside reads (`bert-deploy`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bert-steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` drives the binary over loopback and
//! prints the end-to-end metrics; `--trace 1` replays the same inputs in-process with
//! a span around each call into a layer and prints the per-layer metrics. The last
//! line of standard output is one JSON object; see `perfbench/README.md`.

mod load;
mod stats;
mod sys;
mod traced;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use tasd::{BatchRequest, ExecutionEngine, ServingStats, TasdConfig};
use tasd_serve::Frame;
use tasd_tensor::Matrix;

use load::{Kept, Phase, PushRecord};
use stats::{calm_blocks, median, quantile, summarize};
use sys::ServerProc;
use workload::{BertInputs, Kind, Plan, Push, BERT_LAYERS, RELU_CONFIG, RELU_DEPLOY_NAMES};

/// Fresh tiles the `relu-fresh` warm-up sends: past the engine's default prepared-cache
/// and fingerprint-memo capacities (128 each at the seed commit).
pub const RELU_WARMUP: usize = 160;
/// Answers per phase the correctness gate recomputes.
pub const GATE_SAMPLES: usize = 6;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad(()))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The generated inputs of one run.
pub struct Model {
    /// The workload's frozen parameters.
    pub plan: Plan,
    /// The workload seed.
    pub seed: u64,
    /// BERT weights and panels (`bert-*`).
    pub bert: Option<BertInputs>,
    /// The dense weight panel (`relu-fresh`).
    pub relu_weights: Option<Matrix>,
}

/// Index space of generated ReLU tiles, so warm-up, phases and deploys never share one.
pub fn tile_index(space: u64, id: u64) -> u64 {
    space << 32 | id
}

/// Tiles the `relu-fresh` warm-up sends (plus the set-up round); timed phases use
/// their phase number as the space.
pub const SPACE_WARMUP: u64 = 100;
/// Tiles the `relu-fresh` deploys register.
pub const SPACE_DEPLOY: u64 = 200;

impl Model {
    /// Generates the inputs of `plan` from `seed`.
    pub fn generate(plan: Plan, seed: u64) -> Model {
        let bert = (plan.kind != Kind::ReluFresh).then(|| BertInputs::generate(seed));
        let relu_weights = (plan.kind == Kind::ReluFresh).then(|| workload::relu_weights(seed));
        Model {
            plan,
            seed,
            bert,
            relu_weights,
        }
    }

    /// The `id`-th read of phase `phase`, as sent on the wire.
    pub fn read_frame(&self, phase: u64, id: u64) -> Frame {
        match &self.bert {
            Some(bert) => {
                let read = workload::bert_read(self.seed, phase, id);
                Frame::NamedRequest {
                    id,
                    name: BERT_LAYERS[read.layer].name.to_string(),
                    deadline_micros: None,
                    b: bert.panel(read.layer, read.panel).clone(),
                }
            }
            None => self.relu_request(id, tile_index(phase, id)),
        }
    }

    fn relu_request(&self, id: u64, tile: u64) -> Frame {
        Frame::Request {
            id,
            config: Some(RELU_CONFIG.to_string()),
            deadline_micros: None,
            a: workload::relu_tile(self.seed, tile),
            b: self
                .relu_weights
                .clone()
                .expect("relu-fresh has a weight panel"),
        }
    }

    /// The in-process request that `read_frame(phase, id)` asks for, against the
    /// given BERT weights.
    pub fn read_request(&self, phase: u64, id: u64, weights: &[Arc<Matrix>]) -> BatchRequest {
        match &self.bert {
            Some(bert) => {
                let read = workload::bert_read(self.seed, phase, id);
                BatchRequest::decomposed(
                    Arc::clone(&weights[read.layer]),
                    config(BERT_LAYERS[read.layer].config),
                    bert.panel(read.layer, read.panel).clone(),
                )
            }
            None => BatchRequest::decomposed(
                workload::relu_tile(self.seed, tile_index(phase, id)),
                config(RELU_CONFIG),
                self.relu_weights
                    .clone()
                    .expect("relu-fresh has a weight panel"),
            ),
        }
    }

    /// Registers the model and answers one request per layer (`bert-*`), or runs the
    /// closed-loop warm-up (`relu-fresh`).
    pub fn set_up(&self, server: &ServerProc, round: u64) -> Result<(), String> {
        let Some(bert) = &self.bert else {
            let make = |i: u64| self.relu_request(i, tile_index(SPACE_WARMUP + round, i));
            return load::pipelined(server.addr, RELU_WARMUP, self.plan.in_flight, &make);
        };
        let mut frames: Vec<Frame> = BERT_LAYERS
            .iter()
            .zip(&bert.weights)
            .map(|(layer, weights)| Frame::UpdateWeights {
                name: layer.name.to_string(),
                config: Some(layer.config.to_string()),
                a: Matrix::clone(weights),
            })
            .collect();
        frames.extend(
            BERT_LAYERS
                .iter()
                .enumerate()
                .map(|(i, layer)| Frame::NamedRequest {
                    id: i as u64,
                    name: layer.name.to_string(),
                    deadline_micros: None,
                    b: bert.panel(i, 0).clone(),
                }),
        );
        let replies = load::round_trips(server.addr, frames)?;
        let registered = replies
            .iter()
            .take(6)
            .all(|r| matches!(r, Frame::UpdateAck { .. }));
        let answered = replies
            .iter()
            .skip(6)
            .all(|r| matches!(r, Frame::Response { .. }));
        if registered && answered {
            Ok(())
        } else {
            Err("set-up was refused".to_string())
        }
    }
}

/// Parses a frozen configuration string.
pub fn config(text: &str) -> TasdConfig {
    TasdConfig::parse(text).expect("frozen configurations parse")
}

/// The deploys of a run and the pushes behind them, accumulated across blocks so the
/// push index (and with it the layer rotation) and the pushed weights carry over.
#[derive(Default)]
pub struct Deploys {
    /// What each deploy did.
    pub records: Vec<PushRecord>,
    /// The changes behind them (`bert-*` only), in deploy order.
    pub pushes: Vec<Push>,
    /// The weights the server holds after every push so far (`bert-*`).
    current: Vec<Matrix>,
}

impl Deploys {
    /// Runs the deploy stream for `[start_s, end_s)` (or until `stop`): pushes of a few
    /// changed rows rotating over the BERT layers, or fresh-tile registrations for
    /// `relu-fresh`.
    pub fn run(
        &mut self,
        model: &Model,
        conn: &mut load::Conn,
        origin: Instant,
        (start_s, end_s): (f64, f64),
        stop: &AtomicBool,
    ) {
        let cadence = model.plan.deploy_cadence_ms as f64 / 1e3;
        let first = self.records.len() as u64;
        let records = match &model.bert {
            Some(bert) => {
                if self.current.is_empty() {
                    self.current = bert.weights.iter().map(|w| Matrix::clone(w)).collect();
                }
                let (current, pushes) = (&mut self.current, &mut self.pushes);
                let mut make = |k: u64| {
                    let push = workload::push(model.seed, k, model.plan.push_rows);
                    workload::apply(&mut current[push.layer], &push);
                    let frame = Frame::UpdateWeights {
                        name: BERT_LAYERS[push.layer].name.to_string(),
                        config: None,
                        a: current[push.layer].clone(),
                    };
                    let rows = push.rows.len() as u64;
                    pushes.push(push);
                    (frame, rows)
                };
                load::deploy_stream(
                    conn,
                    origin,
                    (start_s, end_s),
                    stop,
                    cadence,
                    first,
                    &mut make,
                )
            }
            None => {
                let mut make = |k: u64| {
                    let frame = Frame::UpdateWeights {
                        name: format!("relu.tile.{}", k % RELU_DEPLOY_NAMES as u64),
                        config: Some(RELU_CONFIG.to_string()),
                        a: workload::relu_tile(model.seed, tile_index(SPACE_DEPLOY, k)),
                    };
                    (frame, workload::RELU_ROWS as u64)
                };
                load::deploy_stream(
                    conn,
                    origin,
                    (start_s, end_s),
                    stop,
                    cadence,
                    first,
                    &mut make,
                )
            }
        };
        self.records.extend(records);
    }
}

/// Bitwise equality of two matrices.
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The correctness gate, run outside every timed phase: recomputes each kept answer
/// in-process with `ExecutionEngine::submit` on a default engine and requires bitwise
/// equality. A read that raced a push may legitimately see any generation installed
/// while it was in flight, so each such generation is a candidate. Returns the number
/// of answers checked.
pub fn gate(model: &Model, phases: &[(u64, &Phase)], deploys: &Deploys) -> Result<usize, String> {
    let engine = ExecutionEngine::builder().build();
    let compute = |request: BatchRequest| -> Result<Matrix, String> {
        engine
            .submit(vec![request])
            .pop()
            .and_then(|r| r.output.ok())
            .ok_or_else(|| "in-process recomputation failed".to_string())
    };
    let base: Vec<Arc<Matrix>> = model
        .bert
        .as_ref()
        .map(|b| b.weights.clone())
        .unwrap_or_default();
    // Weights of `layer` after its first `count` pushes.
    let generation = |layer: usize, count: usize| -> Arc<Matrix> {
        let mut weights = Matrix::clone(&base[layer]);
        for push in deploys
            .pushes
            .iter()
            .filter(|p| p.layer == layer)
            .take(count)
        {
            workload::apply(&mut weights, push);
        }
        Arc::new(weights)
    };
    let mut checked = 0;
    for &(phase_id, phase) in phases {
        for Kept {
            id,
            sent_s,
            answered_s,
            output,
        } in &phase.kept
        {
            let candidates: Vec<Vec<Arc<Matrix>>> = if base.is_empty() {
                vec![Vec::new()]
            } else {
                let layer = workload::bert_read(model.seed, phase_id, *id).layer;
                let to_layer: Vec<&PushRecord> = deploys
                    .records
                    .iter()
                    .zip(&deploys.pushes)
                    .filter(|(_, p)| p.layer == layer)
                    .map(|(r, _)| r)
                    .collect();
                let settled = to_layer
                    .iter()
                    .take_while(|r| r.acked_s.is_some_and(|a| a <= *sent_s))
                    .count();
                let possible = to_layer.iter().filter(|r| r.sent_s < *answered_s).count();
                (settled..=possible.max(settled))
                    .map(|count| {
                        let mut weights = base.clone();
                        weights[layer] = generation(layer, count);
                        weights
                    })
                    .collect()
            };
            let mut matched = false;
            for weights in &candidates {
                let expected = compute(model.read_request(phase_id, *id, weights))?;
                if same_bits(&expected, output) {
                    matched = true;
                    break;
                }
            }
            if !matched {
                return Err(format!(
                    "phase {phase_id} request {id}: answer differs from in-process submit"
                ));
            }
            checked += 1;
        }
    }
    if let Some(bad) = deploys
        .records
        .iter()
        .find(|r| r.acked_s.is_some() && !r.dirty_rows_match)
    {
        return Err(format!(
            "deploy {}: UpdateAck dirty_rows differs from the rows changed",
            bad.index
        ));
    }
    Ok(checked)
}

/// After the timed phases: one request per BERT layer against the final weights.
fn final_check(model: &Model, server: &ServerProc, deploys: &Deploys) -> Result<usize, String> {
    let Some(bert) = &model.bert else {
        return Ok(0);
    };
    let frames = (0..BERT_LAYERS.len())
        .map(|i| Frame::NamedRequest {
            id: i as u64,
            name: BERT_LAYERS[i].name.to_string(),
            deadline_micros: None,
            b: bert.panel(i, 1).clone(),
        })
        .collect();
    let replies = load::round_trips(server.addr, frames)?;
    let engine = ExecutionEngine::builder().build();
    for (i, reply) in replies.iter().enumerate() {
        let mut weights = Matrix::clone(&bert.weights[i]);
        let acked = deploys.records.iter().zip(&deploys.pushes);
        for (_, push) in acked.filter(|(r, p)| p.layer == i && r.acked_s.is_some()) {
            workload::apply(&mut weights, push);
        }
        let request = BatchRequest::decomposed(
            weights,
            config(BERT_LAYERS[i].config),
            bert.panel(i, 1).clone(),
        );
        let expected = engine
            .submit(vec![request])
            .pop()
            .and_then(|r| r.output.ok());
        match (reply, expected) {
            (Frame::Response { output, .. }, Some(expected)) if same_bits(output, &expected) => {}
            _ => {
                return Err(format!(
                    "{}: final weights answer differs",
                    BERT_LAYERS[i].name
                ))
            }
        }
    }
    Ok(replies.len())
}

/// One printed metric.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line the benchmark ends with.
pub struct Outcome {
    /// Whether every checked answer and acknowledgement was right.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A failure that reaches a percentile makes it infinite; JSON has no
                // infinity, so it prints as a number no limit admits.
                let value = if m.value.is_finite() { m.value } else { 1e9 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn describe(name: &str, phase: &Phase, steal: f64) {
    let summary = summarize(&phase.latencies);
    println!(
        "  {name:<8} n={:<5} p50={:8.3} ms  tail=p{:.1} {:8.3} ms  late_p99={:7.3} ms  backlog={:<3} failed={} steal={:.2}%",
        summary.n,
        summary.p50,
        summary.tail_pct,
        summary.tail,
        quantile(&phase.late_ms, 0.99),
        phase.backlog,
        phase.failed,
        steal
    );
}

/// Spawns the server `plan.setups` times, timing spawn → registered and warm; keeps
/// the last one running. Returns it with the median set-up time.
fn set_up(model: &Model, binary: &std::path::PathBuf) -> Result<(ServerProc, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for round in 0..model.plan.setups {
        if let Some(previous) = last.take() {
            ServerProc::stop(previous)?;
        }
        let start = Instant::now();
        let server = ServerProc::spawn(binary)?;
        model.set_up(&server, round as u64)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(server);
    }
    let server = last.ok_or("no set-up ran")?;
    Ok((server, median(&times)))
}

/// One round of the untraced run: a low-rate and a high-rate open-loop block and a
/// closed-loop capacity block, with host steal time for each.
struct Round {
    low: Phase,
    high: Phase,
    capacity: Phase,
    steal: [f64; 3],
    /// Serving counters from the `Stats` frame after the round.
    stats: Option<ServingStats>,
}

/// Phase id of block `kind` (0 low, 1 high, 2 capacity) in round `round`: the key of
/// the block's generated inputs.
fn phase_id(round: usize, kind: u64) -> u64 {
    1 + 4 * round as u64 + kind
}

/// The untraced run: every end-to-end metric of the workload. The run is `rounds`
/// short repetitions of low, high, capacity (and, unless deploys run beside the low
/// block, a quiet deploy block). Latencies pool the samples of each kind's calm blocks
/// (see [`calm_blocks`]); capacity averages the calm capacity blocks; deploy latencies
/// pool every deploy of the run.
fn run_untraced(model: &Model, seconds: f64) -> Result<Outcome, String> {
    let plan = model.plan;
    let binary = sys::build_server()?;
    let (server, setup_s) = set_up(model, &binary)?;
    println!(
        "workload set up in {setup_s:.4} s (median of {})",
        plan.setups
    );
    let set_up_stats = server.stats()?.serving;
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64() + 0.02;
    let round_s = seconds / plan.rounds as f64;
    let [low_s, high_s, cap_s, deploy_s] = plan.shares.map(|share| share * round_s);
    let beside = plan.kind == Kind::BertDeploy;
    let never = AtomicBool::new(false);
    let mut deploys = Deploys::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut reads = load::Conn::new(server.addr);
    let mut pushes = load::Conn::new(server.addr);
    for round in 0..plan.rounds {
        let mut open = |kind: u64, rate: f64, length: f64| {
            let id = phase_id(round, kind);
            let due =
                workload::poisson_schedule(&mut workload::Rng::new(model.seed, id), rate, length);
            let make = |i: u64| model.read_frame(id, i);
            let host = sys::host_ticks();
            let keep = load::keep_every(due.len() * plan.rounds, GATE_SAMPLES);
            let phase = load::open_loop(&mut reads, origin, now(), &due, &make, keep);
            (phase, sys::steal_pct(host, sys::host_ticks()))
        };
        let (low, steal_low) = if beside {
            // Deploys run beside the low block only: they compete with reads there,
            // while the high and capacity blocks stay comparable with `bert-steady`'s.
            std::thread::scope(|scope| {
                let pusher = scope.spawn(|| {
                    let start = now();
                    deploys.run(model, &mut pushes, origin, (start, start + low_s), &never);
                });
                let low = open(0, plan.low_rps, low_s);
                pusher.join().expect("pusher thread panicked");
                low
            })
        } else {
            open(0, plan.low_rps, low_s)
        };
        let (high, steal_high) = open(1, plan.high_rps, high_s);
        let id = phase_id(round, 2);
        let make = |i: u64| model.read_frame(id, i);
        let host = sys::host_ticks();
        let keep = load::keep_every(
            (cap_s * plan.high_rps * 2.0) as usize * plan.rounds,
            GATE_SAMPLES,
        );
        let capacity = load::closed_loop(&mut reads, origin, plan.in_flight, cap_s, &make, keep);
        let steal_cap = sys::steal_pct(host, sys::host_ticks());
        if !beside {
            let start = now();
            deploys.run(
                model,
                &mut pushes,
                origin,
                (start, start + deploy_s),
                &never,
            );
        }
        rounds.push(Round {
            low,
            high,
            capacity,
            steal: [steal_low, steal_high, steal_cap],
            stats: server.stats().ok().map(|report| report.serving),
        });
    }
    let proc = sys::sample_proc(server.pid());

    println!("rounds (latency from due time; failures count as misses):");
    let mut before = set_up_stats;
    for (r, round) in rounds.iter().enumerate() {
        describe(&format!("{r} low"), &round.low, round.steal[0]);
        describe(&format!("{r} high"), &round.high, round.steal[1]);
        println!(
            "  {r} capacity {:.2} req/s with {} in flight, failed={} steal={:.2}%",
            round.capacity.capacity_rps, plan.in_flight, round.capacity.failed, round.steal[2]
        );
        if let Some(after) = round.stats {
            println!(
                "  {r} windows  {} requests in {} windows ({} coalesced), {} ticks",
                after.dispatched.saturating_sub(before.dispatched),
                after.windows.saturating_sub(before.windows),
                after
                    .coalesced_windows
                    .saturating_sub(before.coalesced_windows),
                after.ticks.saturating_sub(before.ticks),
            );
            before = after;
        }
    }
    let calm = |kind: usize| calm_blocks(&rounds.iter().map(|r| r.steal[kind]).collect::<Vec<_>>());
    let pooled = |kind: usize, block: fn(&Round) -> &Phase| {
        let used = calm(kind);
        let samples: Vec<_> = used
            .iter()
            .flat_map(|&r| block(&rounds[r]).latencies.iter().copied())
            .collect();
        (summarize(&samples), used)
    };
    let (low, low_used) = pooled(0, |r| &r.low);
    let (high, high_used) = pooled(1, |r| &r.high);
    let capacity_used = calm(2);
    let capacity = capacity_used
        .iter()
        .map(|&r| rounds[r].capacity.capacity_rps)
        .sum::<f64>()
        / capacity_used.len().max(1) as f64;
    for (name, summary, used) in [("low", &low, &low_used), ("high", &high, &high_used)] {
        println!(
            "  {name:<8} n={:<5} p50={:8.3} ms  tail=p{:.1} {:8.3} ms over calmer rounds {used:?}",
            summary.n, summary.p50, summary.tail_pct, summary.tail
        );
    }
    println!("  capacity {capacity:.2} req/s over calmer rounds {capacity_used:?}");
    let push_latencies: Vec<_> = deploys.records.iter().map(PushRecord::latency_ms).collect();
    let pushes = summarize(&push_latencies);
    println!(
        "  deploys  n={} p50={:.3} ms tail=p{:.1} {:.3} ms, every {} ms {}",
        pushes.n,
        pushes.p50,
        pushes.tail_pct,
        pushes.tail,
        plan.deploy_cadence_ms,
        if beside {
            "beside the low blocks"
        } else {
            "in quiet blocks"
        }
    );

    let phases: Vec<(u64, &Phase)> = rounds
        .iter()
        .enumerate()
        .flat_map(|(r, round)| {
            [
                (phase_id(r, 0), &round.low),
                (phase_id(r, 1), &round.high),
                (phase_id(r, 2), &round.capacity),
            ]
        })
        .collect();
    let verdict = gate(model, &phases, &deploys)
        .and_then(|checked| Ok(checked + final_check(model, &server, &deploys)?));
    match &verdict {
        Ok(checked) => {
            println!("correctness gate: {checked} answers bitwise equal to in-process submit")
        }
        Err(why) => println!("correctness gate FAILED: {why}"),
    }
    server.stop()?;

    let attempted = phases.iter().map(|(_, p)| p.attempted).sum::<usize>() + deploys.records.len();
    let failed = phases.iter().map(|(_, p)| p.failed).sum::<usize>()
        + deploys
            .records
            .iter()
            .filter(|r| r.acked_s.is_none())
            .count();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "p50_ms.low",
            value: low.p50,
            unit: "ms",
        },
        Metric {
            name: "tail_ms.low",
            value: low.tail,
            unit: "ms",
        },
        Metric {
            name: "p50_ms.high",
            value: high.p50,
            unit: "ms",
        },
        Metric {
            name: "tail_ms.high",
            value: high.tail,
            unit: "ms",
        },
        Metric {
            name: "capacity_rps",
            value: capacity,
            unit: "req/s",
        },
        Metric {
            name: "deploy_p50_ms",
            value: pushes.p50,
            unit: "ms",
        },
        Metric {
            name: "deploy_tail_ms",
            value: pushes.tail,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: proc.hwm_kb as f64 / 1024.0,
            unit: "MB",
        },
    ];
    Ok(Outcome {
        correct: verdict.is_ok(),
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("tasd-perfbench: {why}");
            eprintln!("usage: tasd-perfbench --workload bert-steady|relu-fresh|bert-deploy --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = Plan::named(&args.workload) else {
        eprintln!("tasd-perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let model = Model::generate(plan, args.seed);
    let outcome = if args.trace {
        traced::run(&model, args.seconds)
    } else {
        run_untraced(&model, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("tasd-perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}
