//! Multi-RHS panel packing: one LHS operand, many right-hand sides, one kernel pass.
//!
//! A batched serving workload multiplies one (possibly decomposed) operand `A` by many
//! narrow right-hand panels `B₁ … Bₚ` — one per request. Running them one at a time pays
//! the per-entry dispatch cost of `A` once *per panel*; packing the panels column-wise
//! into a single wide `B = [B₁ | B₂ | … | Bₚ]` pays it once per batch, because every
//! [`GemmBackend`](super::GemmBackend) row kernel streams each stored entry of `A` across
//! the full width of `B`. Column independence of GEMM makes the packed result exactly the
//! per-panel results side by side — each output column accumulates in the same order
//! either way, so unpacking reproduces the one-at-a-time outputs bit for bit.
//!
//! A lone panel is its own packing: [`pack_panels`] borrows it and [`unpack_panels`]
//! returns the wide output itself, so a one-panel pass copies nothing in or out. The
//! execution engine's `submit` path packs at the series level so one decomposed `A`
//! serves a whole request group.

use crate::{Matrix, Result, TensorError};
use std::borrow::Cow;

/// Packs right-hand panels column-wise into one wide matrix `[B₁ | B₂ | … | Bₚ]`.
///
/// A single panel comes back borrowed, uncopied. Zero-width panels are allowed (they
/// contribute no columns); an empty panel list packs to a `0×0` matrix.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the panels do not all have the same number
/// of rows.
pub fn pack_panels<'a>(panels: &[&'a Matrix]) -> Result<Cow<'a, Matrix>> {
    if let [panel] = panels {
        return Ok(Cow::Borrowed(*panel));
    }
    let rows = panels.first().map_or(0, |p| p.rows());
    let mut total_cols = 0usize;
    for p in panels {
        if p.rows() != rows {
            return Err(TensorError::ShapeMismatch {
                op: "pack panels",
                lhs: (rows, total_cols),
                rhs: p.shape(),
            });
        }
        total_cols += p.cols();
    }
    let mut wide = Matrix::zeros(rows, total_cols);
    for r in 0..rows {
        let dst = wide.row_mut(r);
        let mut offset = 0;
        for p in panels {
            dst[offset..offset + p.cols()].copy_from_slice(p.row(r));
            offset += p.cols();
        }
    }
    Ok(Cow::Owned(wide))
}

/// Splits a packed wide matrix back into panels of the given widths. A single width
/// gets `wide` itself back, uncopied.
///
/// # Panics
///
/// Panics if the widths do not sum to the wide matrix's column count.
pub fn unpack_panels(wide: Matrix, widths: &[usize]) -> Vec<Matrix> {
    assert_eq!(
        widths.iter().sum::<usize>(),
        wide.cols(),
        "panel widths must cover the packed matrix exactly"
    );
    if widths.len() == 1 {
        return vec![wide];
    }
    let mut outs: Vec<Matrix> = widths
        .iter()
        .map(|&w| Matrix::zeros(wide.rows(), w))
        .collect();
    for r in 0..wide.rows() {
        let src = wide.row(r);
        let mut offset = 0;
        for out in outs.iter_mut() {
            let w = out.cols();
            out.row_mut(r).copy_from_slice(&src[offset..offset + w]);
            offset += w;
        }
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatrixGenerator;

    #[test]
    fn pack_then_unpack_roundtrips() {
        let mut gen = MatrixGenerator::seeded(7);
        let panels: Vec<Matrix> = [3usize, 1, 0, 5]
            .iter()
            .map(|&w| gen.normal(6, w, 0.0, 1.0))
            .collect();
        let refs: Vec<&Matrix> = panels.iter().collect();
        let wide = pack_panels(&refs).unwrap();
        assert_eq!(wide.shape(), (6, 9));
        let widths: Vec<usize> = panels.iter().map(Matrix::cols).collect();
        let back = unpack_panels(wide.into_owned(), &widths);
        assert_eq!(back, panels);
    }

    #[test]
    fn packed_columns_are_panel_columns() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0], vec![6.0]]);
        let wide = pack_panels(&[&a, &b]).unwrap();
        assert_eq!(
            *wide,
            Matrix::from_rows(&[vec![1.0, 2.0, 5.0], vec![3.0, 4.0, 6.0]])
        );
    }

    #[test]
    fn a_lone_panel_is_copied_neither_in_nor_out() {
        let mut gen = MatrixGenerator::seeded(8);
        let panel = gen.normal(6, 3, 0.0, 1.0);
        let packed = pack_panels(&[&panel]).unwrap();
        assert!(
            std::ptr::eq(packed.as_ref(), &panel),
            "packing one panel must hand back the caller's matrix"
        );
        let wide = gen.normal(6, 3, 0.0, 1.0);
        let buffer = wide.as_slice().as_ptr();
        let outs = unpack_panels(wide, &[3]);
        assert_eq!(outs.len(), 1);
        assert_eq!(
            outs[0].as_slice().as_ptr(),
            buffer,
            "unpacking one width must return the wide output's own buffer"
        );
    }

    #[test]
    fn empty_panel_list_packs_to_empty() {
        let wide = pack_panels(&[]).unwrap();
        assert_eq!(wide.shape(), (0, 0));
        assert!(unpack_panels(wide.into_owned(), &[]).is_empty());
    }

    #[test]
    fn mismatched_rows_are_rejected() {
        let a = Matrix::zeros(4, 2);
        let b = Matrix::zeros(3, 2);
        assert!(pack_panels(&[&a, &b]).is_err());
    }
}
