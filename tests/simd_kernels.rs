//! SIMD-tier agreement suite: every kernel family (dense blocked, CSR, N:M, and a pass
//! over column-packed right-hand panels) must compute the same product at every SIMD
//! tier.
//!
//! Two bars, mirroring the dispatch design in `tasd_tensor::backend::simd`:
//!
//! * **Portable tier ≡ scalar, bitwise.** The hand-unrolled portable kernels perform
//!   exactly the scalar `c[j] += v * b[j]` per element in the scalar order, so their
//!   results are `assert_eq!`-identical to the seed's reference `gemm` — across every
//!   remainder width (`n % 8 ∈ 0..8`), unaligned row offsets, and partial row ranges.
//! * **Detected tier ≈ scalar, 1e-6 per reduction step.** FMA tiers fuse the
//!   multiply-add rounding step (one rounding per term instead of two), so per element
//!   they agree to within ~1 ulp per accumulated term rather than bitwise.
//!
//! Plus the backend layer's zero-annihilation contract on non-finite inputs: an
//! exact-zero operand entry never contributes, so `0 · NaN` cannot leak into `C` from
//! any tier (`GemmBackend` docs; the scalar reference `gemm` skips zeros and is the
//! behavioral ground truth).

use proptest::prelude::*;
use tasd_tensor::backend::{
    pack_panels, unpack_panels, CsrBackend, DenseBackend, GemmBackend, NmBackend, SimdLevel,
};
use tasd_tensor::{gemm, CsrMatrix, Matrix, MatrixGenerator, NmCompressed, NmPattern};

/// The three kernel-family backends at an explicit SIMD tier.
fn backends_at(level: SimdLevel) -> Vec<Box<dyn GemmBackend>> {
    vec![
        Box::new(DenseBackend::default().with_simd(level)),
        Box::new(CsrBackend::new().with_simd(level)),
        Box::new(NmBackend::new().with_simd(level)),
    ]
}

fn run(backend: &dyn GemmBackend, lhs: &dyn tasd_tensor::GemmOperand, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(lhs.shape().0, b.cols());
    backend
        .gemm_into(lhs, b, &mut c)
        .expect("consistent shapes");
    c
}

/// Same operand in all three formats (the N:M operand is the 2:8 view's own content).
fn operands(gen: &mut MatrixGenerator, rows: usize, cols: usize, sparsity: f64) -> Formats {
    let a = gen.sparse_normal(rows, cols, sparsity);
    let csr = CsrMatrix::from_dense(&a);
    let pattern = NmPattern::new(2, 8).unwrap();
    let view = pattern.view(&a);
    let nm = NmCompressed::from_dense_strict(&view, pattern).unwrap();
    Formats { a, csr, view, nm }
}

struct Formats {
    a: Matrix,
    csr: CsrMatrix,
    view: Matrix,
    nm: NmCompressed,
}

/// Every remainder width mod 8 (1..=17 covers 0..8 twice), deterministic — the exact
/// grid the tail-handling code paths branch on.
#[test]
fn portable_tier_is_bitwise_scalar_across_all_remainder_widths() {
    let mut gen = MatrixGenerator::seeded(0x51D0);
    for n_cols in 1usize..=17 {
        let f = operands(&mut gen, 13, 40, 0.6);
        let b = gen.normal(40, n_cols, 0.0, 1.0);
        let reference = gemm(&f.a, &b).unwrap();
        let view_reference = gemm(&f.view, &b).unwrap();
        for backend in backends_at(SimdLevel::Portable) {
            let name = backend.name();
            assert_eq!(
                run(backend.as_ref(), &f.a, &b),
                reference,
                "{name}/dense-operand drifted at width {n_cols} (n%8={})",
                n_cols % 8
            );
            assert_eq!(
                run(backend.as_ref(), &f.csr, &b),
                reference,
                "{name}/csr-operand drifted at width {n_cols}"
            );
            assert_eq!(
                run(backend.as_ref(), &f.nm, &b),
                view_reference,
                "{name}/nm-operand drifted at width {n_cols}"
            );
        }
    }
}

/// Partial row ranges over odd widths: every row slab the kernel sees starts at an
/// 8-misaligned float offset, and the row-range entry point (`gemm_rows_into`) is what
/// the parallel tiler drives.
#[test]
fn unaligned_row_offsets_and_partial_ranges_stay_bitwise_on_portable() {
    let mut gen = MatrixGenerator::seeded(0x51D1);
    let f = operands(&mut gen, 23, 33, 0.5);
    let b = gen.normal(33, 19, 0.0, 1.0); // odd width → misaligned row starts
    let reference = gemm(&f.a, &b).unwrap();
    for backend in backends_at(SimdLevel::Portable) {
        let mut c = Matrix::zeros(23, 19);
        // Uneven blocks with odd boundaries, including a 1-row slice.
        for (r0, r1) in [(0usize, 1usize), (1, 6), (6, 17), (17, 23)] {
            let slab = c.rows_slice_mut(r0, r1);
            backend.gemm_rows_into(&f.csr, &b, r0, r1, slab, 19);
        }
        assert_eq!(c, reference, "{} row-range drift", backend.name());
    }
}

/// The packed multi-RHS pass at both tiers (`pack_panels` → `gemm_into` →
/// `unpack_panels`, as the engine runs a request group): panel packing must be
/// invisible, panel by panel, exactly — every tier against its own single-panel result.
#[test]
fn multi_rhs_packed_pass_matches_single_panel_at_every_tier() {
    let mut gen = MatrixGenerator::seeded(0x51D2);
    let f = operands(&mut gen, 16, 48, 0.6);
    let panels: Vec<Matrix> = [5usize, 1, 9, 3, 8]
        .iter()
        .map(|&w| gen.normal(48, w, 0.0, 1.0))
        .collect();
    let panel_refs: Vec<&Matrix> = panels.iter().collect();
    let widths: Vec<usize> = panels.iter().map(Matrix::cols).collect();
    let wide_b = pack_panels(&panel_refs).unwrap();
    for level in [SimdLevel::Portable, SimdLevel::detected()] {
        for backend in backends_at(level) {
            for operand in [&f.a as &dyn tasd_tensor::GemmOperand, &f.csr, &f.nm] {
                let batched = unpack_panels(run(backend.as_ref(), operand, &wide_b), &widths);
                for (p, got) in panels.iter().zip(&batched) {
                    let single = run(backend.as_ref(), operand, p);
                    assert_eq!(
                        &single,
                        got,
                        "{} multi-rhs drift at {:?}",
                        backend.name(),
                        level
                    );
                }
            }
        }
    }
}

/// NaN and Inf in `B` rows whose operand column is entirely exact-zero must not reach
/// any output, at any tier, in any format: zeros annihilate.
#[test]
fn zero_operand_entries_annihilate_nonfinite_b() {
    // a: column 2 is all zeros (and 2:8 blocks keep it zero in every format).
    let mut a = Matrix::zeros(6, 8);
    for i in 0..6 {
        a.row_mut(i)[0] = 1.0 + i as f32;
        a.row_mut(i)[5] = -0.5;
    }
    let csr = CsrMatrix::from_dense(&a);
    let pattern = NmPattern::new(2, 8).unwrap();
    let nm = NmCompressed::from_dense_strict(&pattern.view(&a), pattern).unwrap();

    // b: the dead column's row is pure poison; live rows are finite.
    let mut b = Matrix::zeros(8, 9);
    for j in 0..9 {
        b.row_mut(2)[j] = if j % 2 == 0 { f32::NAN } else { f32::INFINITY };
        b.row_mut(0)[j] = 1.0;
        b.row_mut(5)[j] = 2.0;
    }

    let reference = gemm(&a, &b).unwrap();
    assert!(
        reference.as_slice().iter().all(|x| x.is_finite()),
        "the scalar reference itself must annihilate zeros"
    );
    for level in [SimdLevel::Portable, SimdLevel::detected()] {
        for backend in backends_at(level) {
            for (fmt, operand) in [
                ("dense", &a as &dyn tasd_tensor::GemmOperand),
                ("csr", &csr),
                ("nm", &nm),
            ] {
                let c = run(backend.as_ref(), operand, &b);
                assert_eq!(
                    c,
                    reference,
                    "{}/{fmt} at {:?} leaked non-finite values through zero entries",
                    backend.name(),
                    level
                );
            }
        }
    }
}

/// When a *live* operand entry meets non-finite `B`, the poison must propagate the same
/// way everywhere: the non-finite placement is determined by the sparsity pattern alone.
#[test]
fn live_entries_propagate_nonfinite_b_identically() {
    let mut a = Matrix::zeros(4, 8);
    a.row_mut(0)[1] = 2.0; // row 0 reads the poisoned B row
    a.row_mut(1)[0] = 3.0; // row 1 does not
    let mut b = Matrix::filled(8, 5, 1.0);
    b.row_mut(1)[2] = f32::NAN;
    let reference = gemm(&a, &b).unwrap();
    assert!(reference.get(0, 2).unwrap().is_nan());
    assert!(reference.get(1, 2).unwrap().is_finite());
    for level in [SimdLevel::Portable, SimdLevel::detected()] {
        for backend in backends_at(level) {
            let c = run(backend.as_ref(), &a, &b);
            for i in 0..4 {
                for j in 0..5 {
                    let (got, want) = (c.get(i, j).unwrap(), reference.get(i, j).unwrap());
                    assert!(
                        got == want || (got.is_nan() && want.is_nan()),
                        "{} at {:?}: non-finite placement diverged at ({i},{j}): \
                         {got} vs {want}",
                        backend.name(),
                        level
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes × sparsities: portable is bitwise-scalar, detected is 1e-6, for
    /// all three formats.
    #[test]
    fn tiers_agree_with_scalar_on_random_shapes(
        (rows, cols, n_cols) in (1usize..40, 1usize..72, 1usize..40),
        sparsity in 0.0f64..0.97,
        seed in 0u64..1_000,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let f = operands(&mut gen, rows, cols, sparsity);
        let b = gen.normal(cols, n_cols, 0.0, 1.0);
        let reference = gemm(&f.a, &b).unwrap();
        let view_reference = gemm(&f.view, &b).unwrap();
        for backend in backends_at(SimdLevel::Portable) {
            prop_assert_eq!(&run(backend.as_ref(), &f.a, &b), &reference);
            prop_assert_eq!(&run(backend.as_ref(), &f.csr, &b), &reference);
            prop_assert_eq!(&run(backend.as_ref(), &f.nm, &b), &view_reference);
        }
        // 1e-6 per reduction step: FMA fuses one rounding per accumulated term, so the
        // worst-case drift from the scalar reference scales with the reduction depth.
        let tol = 1e-6 * cols as f32;
        for backend in backends_at(SimdLevel::detected()) {
            let name = backend.name();
            prop_assert!(
                run(backend.as_ref(), &f.a, &b).approx_eq(&reference, tol),
                "{} detected-tier drift beyond {} on dense operand", name, tol
            );
            prop_assert!(
                run(backend.as_ref(), &f.csr, &b).approx_eq(&reference, tol),
                "{} detected-tier drift beyond {} on csr operand", name, tol
            );
            prop_assert!(
                run(backend.as_ref(), &f.nm, &b).approx_eq(&view_reference, tol),
                "{} detected-tier drift beyond {} on nm operand", name, tol
            );
        }
    }
}
