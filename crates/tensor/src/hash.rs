//! Content hashing of `f32` data: the one hash behind
//! [`Matrix::fingerprint`](crate::Matrix::fingerprint) and the engine's per-row deploy
//! hashes.

const M: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: every input bit flips about half the output bits.
#[inline]
pub fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 64-bit hash of `values`' bit patterns, seeded with two words (a matrix passes its
/// rows and cols, so equal data under a different shape hashes differently).
///
/// Exact on bits: `-0.0` and `0.0`, or two NaNs with different payloads, hash
/// differently. Four independent multiply-xor lanes each take one pair of values per
/// 8-value chunk, so the multiplier's latency pipelines instead of serializing; a tail
/// shorter than a chunk goes round-robin over the lanes with a marker bit set. Each lane
/// finishes with an [`avalanche`] before the lanes are combined.
pub fn hash_f32s(values: &[f32], seed_a: u64, seed_b: u64) -> u64 {
    let mut lanes = [
        M ^ seed_a,
        M.rotate_left(17) ^ seed_b,
        M.rotate_left(34),
        M.rotate_left(51),
    ];
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
            let word = (pair[0].to_bits() as u64) << 32 | pair[1].to_bits() as u64;
            *lane = (*lane ^ word).wrapping_mul(M);
        }
    }
    for (i, &x) in chunks.remainder().iter().enumerate() {
        let lane = &mut lanes[i % 4];
        *lane = (*lane ^ (x.to_bits() as u64 | 1 << 63)).wrapping_mul(M);
    }
    avalanche(
        avalanche(lanes[0])
            .wrapping_add(avalanche(lanes[1]).rotate_left(16))
            .wrapping_add(avalanche(lanes[2]).rotate_left(32))
            .wrapping_add(avalanche(lanes[3]).rotate_left(48)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_position_is_exact_on_sign_and_nan_payload() {
        // 8·3 + 5 values: three full chunks (every lane, both halves of each pair) and
        // a ragged tail.
        let base: Vec<f32> = (0..29).map(|i| i as f32 * 0.25).collect();
        let h = |v: &[f32]| hash_f32s(v, 1, v.len() as u64);
        for p in 0..base.len() {
            let mut zero = base.clone();
            zero[p] = 0.0;
            let mut negative_zero = base.clone();
            negative_zero[p] = -0.0;
            assert_ne!(h(&zero), h(&negative_zero), "sign of zero at {p}");
            let mut nan = base.clone();
            nan[p] = f32::from_bits(0x7FC0_0001);
            let mut other_nan = base.clone();
            other_nan[p] = f32::from_bits(0x7FC0_0002);
            assert_ne!(h(&nan), h(&other_nan), "NaN payload at {p}");
        }
    }

    #[test]
    fn seeds_separate_equal_data() {
        let v = [1.0f32, 2.0, 3.0];
        assert_ne!(hash_f32s(&v, 1, 3), hash_f32s(&v, 3, 1));
        assert_eq!(hash_f32s(&v, 1, 3), hash_f32s(&v, 1, 3));
    }
}
