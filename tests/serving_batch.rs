//! Serving-grade tests of `ExecutionEngine::submit`: the batched path must be bitwise
//! identical to per-request execution for any request mix — groups run in arrival
//! order, and packing a group's panels never changes a column's accumulation order.

use proptest::prelude::*;
use std::sync::Arc;
use tasd::{BatchRequest, ExecutionEngine, TasdConfig};
use tasd_tensor::{Matrix, MatrixGenerator};

/// Builds a deterministic request mix: `n_req` requests over at most `n_req` distinct
/// operands (duplication driven by `dup_mask`), mixed decomposed/dense, shapes up to
/// 128, sparsities up to 0.97.
fn build_requests(
    seed: u64,
    n_req: usize,
    m: usize,
    k: usize,
    sparsity: f64,
    dup_mask: u64,
) -> Vec<BatchRequest> {
    let mut gen = MatrixGenerator::seeded(seed);
    let configs = [
        None,
        Some(TasdConfig::parse("2:8").unwrap()),
        Some(TasdConfig::parse("4:8+1:8").unwrap()),
    ];
    let mut operands: Vec<Arc<Matrix>> = Vec::new();
    (0..n_req)
        .map(|i| {
            // Bit i of dup_mask decides whether request i reuses the previous operand
            // (same Arc — the common serving case) or brings a fresh one.
            let a = if (dup_mask >> i) & 1 == 1 && !operands.is_empty() {
                Arc::clone(operands.last().expect("non-empty"))
            } else {
                let a = Arc::new(gen.sparse_normal(m, k, sparsity));
                operands.push(Arc::clone(&a));
                a
            };
            let width = 1 + (seed as usize >> (2 * i)) % 8;
            let b = gen.normal(k, width, 0.0, 1.0);
            match &configs[i % configs.len()] {
                Some(cfg) => BatchRequest::decomposed(a, cfg.clone(), b),
                None => BatchRequest::dense(a, b),
            }
        })
        .collect()
}

/// Per-request reference: the engine's one-at-a-time execute path.
fn reference_outputs(engine: &ExecutionEngine, requests: &[BatchRequest]) -> Vec<Matrix> {
    requests
        .iter()
        .map(|r| match &r.config {
            Some(cfg) => {
                let series = engine.decompose(r.a.as_ref(), cfg);
                engine.series_gemm(&series, &r.b).unwrap()
            }
            None => engine.gemm(r.a.as_ref(), &r.b).unwrap(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn submit_matches_per_request_execute(
        (m, k) in (1usize..=128, 1usize..=128),
        n_req in 1usize..=6,
        sparsity in 0.0f64..0.97,
        seed in 0u64..u64::MAX,
        dup_mask in 0u64..64,
    ) {
        let requests = build_requests(seed, n_req, m, k, sparsity, dup_mask);
        let reference = reference_outputs(&ExecutionEngine::builder().build(), &requests);
        let responses = ExecutionEngine::builder().build().submit(requests.clone());
        prop_assert_eq!(responses.len(), requests.len());
        for (resp, expected) in responses.iter().zip(&reference) {
            let got = resp.output.as_ref().expect("well-formed request");
            prop_assert_eq!(
                got,
                expected,
                "request {} diverged bitwise from per-request execution",
                resp.index
            );
        }
    }

    #[test]
    fn duplicated_operands_decompose_once_per_batch(
        m in 8usize..=64,
        k in 8usize..=64,
        copies in 2usize..=12,
        sparsity in 0.3f64..0.97,
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = Arc::new(gen.sparse_normal(m, k, sparsity));
        let cfg = TasdConfig::parse("2:8").unwrap();
        let requests: Vec<BatchRequest> = (0..copies)
            .map(|_| BatchRequest::decomposed(Arc::clone(&a), cfg.clone(), gen.normal(k, 3, 0.0, 1.0)))
            .collect();
        let engine = ExecutionEngine::builder().build();
        let (responses, telemetry) = engine.submit_with_telemetry(requests);
        prop_assert!(responses.iter().all(|r| r.output.is_ok()));
        prop_assert_eq!(telemetry.groups.len(), 1);
        prop_assert_eq!(telemetry.decompositions, 1);
    }
}

/// The whole-operand inline twin of `request`: same weights, config and panel, no bands.
fn inline(request: &BatchRequest) -> BatchRequest {
    match &request.config {
        Some(config) => {
            BatchRequest::decomposed(Arc::clone(&request.a), config.clone(), request.b.clone())
        }
        None => BatchRequest::dense(Arc::clone(&request.a), request.b.clone()),
    }
}

#[test]
fn mixed_batches_run_only_named_groups_by_band() {
    use tasd::WeightStore;
    // A named operand (96 rows: two bands), a small inline operand, a dense request on
    // the named weights, and the named weights again as an inline operand. Only the
    // generation's requests run by band: they group together, never touch the cache,
    // and answer bitwise as the whole-operand path does.
    let mut gen = MatrixGenerator::seeded(0x51AB);
    let cfg = TasdConfig::parse("2:8").unwrap();
    let engine = Arc::new(ExecutionEngine::builder().build());
    let store = WeightStore::new(Arc::clone(&engine));
    store
        .register("big", gen.sparse_normal(96, 48, 0.9), cfg.clone())
        .unwrap();
    let big = store.resolve("big").unwrap();
    let small = Arc::new(gen.sparse_normal(16, 48, 0.6));
    let build_batch = |gen: &mut MatrixGenerator| {
        vec![
            big.request(gen.normal(48, 4, 0.0, 1.0)),
            BatchRequest::decomposed(Arc::clone(&small), cfg.clone(), gen.normal(48, 2, 0.0, 1.0)),
            big.request(gen.normal(48, 1, 0.0, 1.0)),
            BatchRequest::dense(Arc::clone(big.matrix()), gen.normal(48, 3, 0.0, 1.0)),
            BatchRequest::decomposed(
                Arc::clone(big.matrix()),
                cfg.clone(),
                gen.normal(48, 2, 0.0, 1.0),
            ),
        ]
    };
    let plain = ExecutionEngine::builder().build();

    let batch = build_batch(&mut gen);
    let twins: Vec<BatchRequest> = batch.iter().map(inline).collect();
    let (responses, telemetry) = engine.submit_with_telemetry(batch);
    assert_eq!(telemetry.groups.len(), 4);
    assert_eq!(
        responses[0].group, responses[2].group,
        "one generation, one group"
    );
    assert_ne!(
        responses[0].group, responses[4].group,
        "the inline twin groups apart"
    );
    assert_ne!(responses[0].group, responses[3].group);
    // Cold cache accounting: the two inline decomposed groups miss; the banded group
    // never looks.
    assert_eq!(telemetry.cache_misses, 2);
    assert_eq!(engine.cache_stats().entries, 2);
    let banded = &telemetry.groups[responses[0].group.unwrap()];
    assert!(!banded.decomposed && !banded.cache_hit);
    assert_eq!(banded.fingerprint, big.store_fingerprint());
    for (resp, plain_resp) in responses.iter().zip(plain.submit(twins)) {
        assert_eq!(
            resp.output.as_ref().unwrap(),
            plain_resp.output.as_ref().unwrap(),
            "request {} diverged from the whole-operand path",
            resp.index
        );
    }

    // Warm batch: one hit per inline decomposed group, nothing else touches the cache.
    let (responses, telemetry) = engine.submit_with_telemetry(build_batch(&mut gen));
    assert!(responses.iter().all(|r| r.output.is_ok()));
    assert_eq!(telemetry.decompositions, 0);
    assert_eq!(telemetry.cache_hits, 2);
    assert_eq!(telemetry.cache_misses, 0);
    assert!(responses[1].cache_hit && responses[4].cache_hit);
    assert!(!responses[0].cache_hit && !responses[3].cache_hit);

    // A banded request whose operand was replaced after building runs inline on the
    // new operand, never on the generation's stale bands.
    let mut swapped = big.request(gen.normal(48, 2, 0.0, 1.0));
    swapped.a = Arc::new(gen.sparse_normal(96, 48, 0.9));
    let expected = plain.submit(vec![inline(&swapped)]);
    let got = engine.submit(vec![swapped]);
    assert_eq!(
        got[0].output.as_ref().unwrap(),
        expected[0].output.as_ref().unwrap()
    );
}
