//! The prepared-execution contract of [`ExecutionEngine`]: prepared-path results are
//! **bitwise** identical to the unprepared (raw-series) reference across the full
//! sparsity range, through `series_gemm_prepared` and through `submit`, and a cache hit
//! performs zero format conversions and zero replans (counter-based telemetry).

use proptest::prelude::*;
use std::sync::Arc;
use tasd::{BatchRequest, ExecutionEngine, TasdConfig};
use tasd_tensor::{Matrix, MatrixGenerator};

fn configs() -> Vec<TasdConfig> {
    vec![
        TasdConfig::parse("2:8").unwrap(),
        TasdConfig::parse("2:8+1:8").unwrap(),
        TasdConfig::parse("4:8+4:8").unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `series_gemm_prepared` ≡ `series_gemm` on the raw series, bit for bit: packing a
    /// term into its planned backend's native format preserves per-row accumulation
    /// order exactly, whatever the sparsity and whichever formats the table picks.
    #[test]
    fn prepared_series_gemm_is_bitwise_identical_to_unprepared(
        (m, k) in (1usize..=160, 1usize..=160),
        width in 1usize..=24,
        sparsity in 0.0f64..0.97,
        cfg_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = gen.sparse_normal(m, k, sparsity);
        let b = gen.normal(k, width, 0.0, 1.0);
        let cfg = &configs()[cfg_idx];
        let engine = ExecutionEngine::builder().build();
        let prepared = engine.prepare(&a, cfg);
        let via_prepared = engine.series_gemm_prepared(&prepared, &b).unwrap();
        let via_raw = engine.series_gemm(prepared.series(), &b).unwrap();
        prop_assert_eq!(via_prepared, via_raw);
    }

    /// `submit` (which executes prepared series) ≡ the per-request raw-series reference,
    /// bit for bit, cold and warm.
    #[test]
    fn prepared_submit_is_bitwise_identical_to_unprepared_reference(
        (m, k) in (1usize..=128, 1usize..=128),
        n_req in 1usize..=6,
        sparsity in 0.0f64..0.97,
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let shared = Arc::new(gen.sparse_normal(m, k, sparsity));
        let cfgs = configs();
        let requests: Vec<BatchRequest> = (0..n_req)
            .map(|i| {
                let b = gen.normal(k, 1 + i % 5, 0.0, 1.0);
                match i % 4 {
                    3 => BatchRequest::dense(Arc::clone(&shared), b),
                    j => BatchRequest::decomposed(Arc::clone(&shared), cfgs[j].clone(), b),
                }
            })
            .collect();
        // Unprepared reference: decompose (shared cache) then execute the raw series.
        let reference_engine = ExecutionEngine::builder().build();
        let reference: Vec<Matrix> = requests
            .iter()
            .map(|r| match &r.config {
                Some(cfg) => {
                    let series = reference_engine.decompose(r.a.as_ref(), cfg);
                    reference_engine.series_gemm(&series, &r.b).unwrap()
                }
                None => reference_engine.gemm(r.a.as_ref(), &r.b).unwrap(),
            })
            .collect();
        let engine = ExecutionEngine::builder().build();
        // Twice: cold (prepare + execute) and warm (cache-hit execute) must both agree
        // with the reference exactly.
        for round in ["cold", "warm"] {
            let responses = engine.submit(requests.clone());
            for (resp, expected) in responses.iter().zip(&reference) {
                prop_assert_eq!(
                    resp.output.as_ref().unwrap(),
                    expected,
                    "{} round: request {} diverged bitwise",
                    round,
                    resp.index
                );
            }
        }
    }
}

/// The prepare-once / execute-many contract, audited through `PrepStats`: after the
/// first (cold) call, serving the same operand performs zero format conversions, zero
/// replans, zero operand rescans, and zero decompositions.
#[test]
fn cache_hits_perform_zero_conversions_and_zero_replans() {
    let mut gen = MatrixGenerator::seeded(0xFEED);
    // Large + sparse: the measured table packs the terms into CSR, so the cold path
    // provably performs conversions that the warm path must then never repeat.
    let a = Arc::new(gen.sparse_normal(256, 512, 0.9));
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let panels: Vec<Matrix> = (0..8).map(|_| gen.normal(512, 8, 0.0, 1.0)).collect();
    let engine = ExecutionEngine::builder().build();
    let make_requests = || -> Vec<BatchRequest> {
        panels
            .iter()
            .map(|b| BatchRequest::decomposed(Arc::clone(&a), cfg.clone(), b.clone()))
            .collect()
    };

    // Cold: one prepare, with conversions (table packs sparse terms), one plan, one scan.
    let (responses, telemetry) = engine.submit_with_telemetry(make_requests());
    assert!(responses.iter().all(|r| r.output.is_ok()));
    assert_eq!(telemetry.decompositions, 1);
    let cold = engine.prep_stats();
    assert_eq!(cold.prepares, 1);
    assert!(
        cold.conversions > 0,
        "cold prepare must have packed the sparse terms into a non-native format"
    );
    assert_eq!(
        cold.fingerprint_scans, 1,
        "one content scan for the shared operand"
    );
    assert!(cold.plans_computed >= 1);

    // Warm, several times: every counter that represents redone work stays frozen.
    for round in 0..3 {
        let (responses, telemetry) = engine.submit_with_telemetry(make_requests());
        assert!(responses.iter().all(|r| r.output.is_ok()));
        let warm = engine.prep_stats();
        assert_eq!(
            telemetry.decompositions, 0,
            "round {round}: no decompositions"
        );
        assert!(telemetry.groups[0].cache_hit, "round {round}: cache hit");
        assert_eq!(
            warm.conversions, cold.conversions,
            "round {round}: a cache hit must perform zero format conversions"
        );
        assert_eq!(
            warm.plans_computed, cold.plans_computed,
            "round {round}: a cache hit must perform zero replans"
        );
        assert_eq!(
            warm.fingerprint_scans, cold.fingerprint_scans,
            "round {round}: a cache hit must not rescan the operand"
        );
        assert_eq!(warm.prepares, cold.prepares);
        assert!(warm.plan_hits > cold.plan_hits);
        assert!(warm.fingerprint_hits > cold.fingerprint_hits);
    }
}

/// `bytes_resident` accounts the packed execution formats, not just the compressed
/// series — and releases them on eviction and on `clear_cache`.
#[test]
fn cache_bytes_include_packed_formats() {
    let mut gen = MatrixGenerator::seeded(0xBEEF);
    let a = gen.sparse_normal(256, 512, 0.9);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let engine = ExecutionEngine::builder().build();
    let prepared = engine.prepare(&a, &cfg);
    assert!(
        prepared.packed_bytes() > 0,
        "the measured table must CSR-pack these sparse serving-sized terms"
    );
    assert_eq!(
        prepared.storage_bytes(),
        prepared.series().storage_bytes() + prepared.packed_bytes()
    );
    let stats = engine.cache_stats();
    assert_eq!(
        stats.bytes_resident,
        prepared.storage_bytes(),
        "bytes_resident must cover series + packed formats"
    );
    let entries = engine.cache_entry_stats();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].bytes, prepared.storage_bytes());
    assert_eq!(entries[0].packed_bytes, prepared.packed_bytes());
    engine.clear_cache();
    assert_eq!(engine.cache_stats().bytes_resident, 0);
}

/// The per-allocation fingerprint memo pins operands: content mutation behind a *new*
/// allocation gets a new fingerprint (a new cache key), so no stale prepared series is
/// ever served.
#[test]
fn mutated_operands_never_hit_stale_prepared_entries() {
    let mut gen = MatrixGenerator::seeded(0xDEAD);
    let a = Arc::new(gen.sparse_normal(64, 64, 0.8));
    let cfg = TasdConfig::parse("2:8").unwrap();
    let engine = ExecutionEngine::builder().build();
    let first = engine.prepare_shared(&a, &cfg);
    // "Mutating" an Arc'd operand in safe Rust forces a new allocation (the engine's
    // memo holds a strong reference, so make_mut clones).
    let mut a2 = Arc::clone(&a);
    Arc::make_mut(&mut a2)[(0, 0)] += 1.0;
    assert!(!Arc::ptr_eq(&a, &a2), "make_mut must have cloned");
    let second = engine.prepare_shared(&a2, &cfg);
    assert_ne!(first.fingerprint(), second.fingerprint());
    assert_eq!(
        engine.cache_stats().misses,
        2,
        "different content, different key"
    );
    // The original is untouched and still served from cache.
    let again = engine.prepare_shared(&a, &cfg);
    assert!(Arc::ptr_eq(again.series(), first.series()));
}
