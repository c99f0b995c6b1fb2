//! Differential suite for the one-pass TASD extraction: `tasd::decompose` and
//! `NmPattern::view` must equal, bit for bit, the sort-based reference they replaced.
//!
//! The reference below is the earlier implementation, kept as test-only code: per
//! block, sort every lane index by descending magnitude (earlier lane first on ties) and
//! zero all but the first N; per term, take the dense view of the running residual,
//! subtract it, compress it, and stop once the residual has no nonzeros. The inputs are
//! finite — non-finite values are where the two deliberately differ (see
//! `decompose::tests::non_finite_values_land_in_exactly_one_term`).

use proptest::prelude::*;
use tasd::{decompose, decompose_with_residual, TasdConfig, TasdSeries};
use tasd_tensor::{Matrix, MatrixGenerator, NmCompressed, NmPattern};

/// Configs of one to four terms with mixed block sizes.
const CONFIGS: [&str; 6] = [
    "2:4+2:8+2:16",
    "4:8+2:8+1:8",
    "1:8+1:8+1:8+1:8",
    "8:8",
    "2:8+1:8",
    "4:8",
];

/// Reference selection: keeps the `n` largest-magnitude entries of `block` and zeroes
/// the rest, ties broken in favour of earlier positions.
fn reference_keep_top_n(block: &mut [f32], n: usize) {
    if block.len() <= n {
        return;
    }
    let mut idx: Vec<usize> = (0..block.len()).collect();
    idx.sort_by(|&a, &b| {
        block[b]
            .abs()
            .partial_cmp(&block[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in idx.iter().skip(n) {
        block[i] = 0.0;
    }
}

/// Reference N:M view.
fn reference_view(matrix: &Matrix, pattern: NmPattern) -> Matrix {
    let mut out = matrix.clone();
    for i in 0..out.rows() {
        for block in out.row_mut(i).chunks_mut(pattern.m()) {
            reference_keep_top_n(block, pattern.n());
        }
    }
    out
}

/// Reference decomposition: view, subtract, compress, and stop on an empty residual.
fn reference_decompose_with_residual(matrix: &Matrix, config: &TasdConfig) -> (TasdSeries, Matrix) {
    let mut residual = matrix.clone();
    let mut terms = Vec::with_capacity(config.order());
    for &pattern in config.terms() {
        let view = reference_view(&residual, pattern);
        residual = residual.try_sub(&view).unwrap();
        terms.push(NmCompressed::from_dense_strict(&view, pattern).unwrap());
        if residual.count_nonzeros() == 0 {
            break;
        }
    }
    (
        TasdSeries::new(matrix.shape(), config.clone(), terms),
        residual,
    )
}

/// One term as bits: its pattern and every row's `(column, value bits)`.
type TermBits = (NmPattern, Vec<Vec<(usize, u32)>>);

fn series_bits(series: &TasdSeries) -> Vec<TermBits> {
    series
        .terms()
        .iter()
        .map(|term| {
            let rows = (0..term.rows())
                .map(|i| term.row_entries(i).map(|(j, v)| (j, v.to_bits())).collect())
                .collect();
            (term.pattern(), rows)
        })
        .collect()
}

fn matrix_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A finite test matrix: a `sparsity` fraction of exact zeros (half of them `-0.0`); the
/// rest by `kind` — 0: continuous values; 1: a few quantized magnitudes with random
/// signs, so blocks tie on magnitude with mixed signs (and hold more signed zeros);
/// 2: subnormals mixed with quantized values.
fn test_matrix(rows: usize, cols: usize, sparsity: f64, kind: u64, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        let (coin, r) = (splitmix(&mut state), splitmix(&mut state));
        let signed = |x: f32| if coin & 1 == 1 { -x } else { x };
        if ((coin >> 11) as f64 / (1u64 << 53) as f64) < sparsity {
            return signed(0.0);
        }
        let quantized = signed((r & 3) as f32 * 0.25);
        match kind {
            0 => signed(((r >> 8) & 0xFF_FFFF) as f32 / (1 << 22) as f32),
            1 => quantized,
            _ if r & 4 == 0 => signed(f32::from_bits((r >> 8) as u32 & 0x007F_FFFF)),
            _ => quantized,
        }
    })
}

/// Asserts the one-pass extraction equals the reference on `a` under every config,
/// and every pattern's view equals the reference view.
fn assert_matches_reference(a: &Matrix) {
    for text in CONFIGS {
        let config = TasdConfig::parse(text).unwrap();
        let (expected, expected_residual) = reference_decompose_with_residual(a, &config);
        let series = decompose(a, &config);
        assert_eq!(series.shape(), expected.shape(), "{text}");
        assert_eq!(series.config(), expected.config(), "{text}");
        assert_eq!(series_bits(&series), series_bits(&expected), "{text}");
        // The residual comes from the row buffer instead of a subtraction, so only the
        // sign of some zeros may differ: compare values.
        let (with_residual, residual) = decompose_with_residual(a, &config);
        assert_eq!(
            series_bits(&with_residual),
            series_bits(&expected),
            "{text}"
        );
        assert_eq!(residual, expected_residual, "{text}");
        for &pattern in config.terms() {
            assert_eq!(
                matrix_bits(&pattern.view(a)),
                matrix_bits(&reference_view(a, pattern)),
                "view {pattern}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(840))]

    /// Shapes 1–40 × 1–70 (ragged tail blocks for every M), sparsities 0 to 1.
    #[test]
    fn one_pass_decompose_equals_the_reference_bitwise(
        (rows, cols) in (1usize..=40, 1usize..=70),
        (sparsity_twentieths, kind, seed) in (0u32..=20, 0u64..3, 0u64..u64::MAX),
    ) {
        let sparsity = f64::from(sparsity_twentieths) / 20.0;
        assert_matches_reference(&test_matrix(rows, cols, sparsity, kind, seed));
    }
}

/// Inputs the first term captures entirely stop the series after one term, as the
/// reference does; an all-zero input stops there too.
#[test]
fn early_stop_matches_the_reference() {
    let captured = MatrixGenerator::seeded(9).structured_nm(8, 48, NmPattern::new(2, 4).unwrap());
    let config = TasdConfig::parse("2:4+2:8+1:8").unwrap();
    for a in [captured, Matrix::zeros(3, 17), Matrix::zeros(0, 5)] {
        let series = decompose(&a, &config);
        let (expected, _) = reference_decompose_with_residual(&a, &config);
        assert_eq!(series.num_terms(), 1);
        assert_eq!(series_bits(&series), series_bits(&expected));
        assert_matches_reference(&a);
    }
}
