//! Convolution-to-GEMM lowering (`im2col`).
//!
//! The paper applies TASD only to CONV and FC layers because both lower to matrix
//! multiplication (§4.1). This module provides the `im2col` transformation used for that
//! lowering, plus the GEMM dimensions (`M`, `N`, `K`) a convolution maps to, which is what
//! the accelerator model and the MAC-reduction experiments consume.

use crate::{Matrix, Result, TensorError};

/// Geometry of a 2-D convolution layer (single image, NCHW layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dDims {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Input spatial height.
    pub in_height: usize,
    /// Input spatial width.
    pub in_width: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dDims {
    /// Convenience constructor for a square-kernel convolution.
    pub fn square(
        in_channels: usize,
        out_channels: usize,
        in_size: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dDims {
            in_channels,
            out_channels,
            in_height: in_size,
            in_width: in_size,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        (self.in_height + 2 * self.padding).saturating_sub(self.kernel_h) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        (self.in_width + 2 * self.padding).saturating_sub(self.kernel_w) / self.stride + 1
    }

    /// GEMM dimensions `(M, N, K)` after im2col lowering for a batch of `batch` images:
    /// `M = out_h * out_w * batch` (output pixels), `N = out_channels`,
    /// `K = in_channels * kernel_h * kernel_w`.
    pub fn gemm_dims(&self, batch: usize) -> (usize, usize, usize) {
        (
            self.out_height() * self.out_width() * batch,
            self.out_channels,
            self.in_channels * self.kernel_h * self.kernel_w,
        )
    }

    /// Total dense MAC count for a batch of `batch` images.
    pub fn dense_macs(&self, batch: usize) -> u64 {
        let (m, n, k) = self.gemm_dims(batch);
        m as u64 * n as u64 * k as u64
    }

    /// Validates the geometry (kernel fits in the padded input, non-zero sizes).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvGeometry`] describing the problem.
    pub fn validate(&self) -> Result<()> {
        if self.in_channels == 0
            || self.out_channels == 0
            || self.in_height == 0
            || self.in_width == 0
            || self.kernel_h == 0
            || self.kernel_w == 0
            || self.stride == 0
        {
            return Err(TensorError::InvalidConvGeometry(
                "all conv dimensions must be positive".to_string(),
            ));
        }
        if self.kernel_h > self.in_height + 2 * self.padding
            || self.kernel_w > self.in_width + 2 * self.padding
        {
            return Err(TensorError::InvalidConvGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kernel_h,
                self.kernel_w,
                self.in_height + 2 * self.padding,
                self.in_width + 2 * self.padding
            )));
        }
        Ok(())
    }
}

/// Lowers a single-image activation tensor (given as a `(channels, height*width)` matrix in
/// channel-major order) to the im2col patch matrix of shape
/// `(out_h * out_w, in_channels * kernel_h * kernel_w)`.
///
/// Each row of the result is the flattened receptive field for one output pixel, so
/// convolution becomes `patches * weights^T` where `weights` is
/// `(out_channels, in_channels * kh * kw)`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidConvGeometry`] if the geometry is invalid or the input
/// matrix shape does not match `dims`.
pub fn im2col(input: &Matrix, dims: &Conv2dDims) -> Result<Matrix> {
    dims.validate()?;
    if input.rows() != dims.in_channels || input.cols() != dims.in_height * dims.in_width {
        return Err(TensorError::InvalidConvGeometry(format!(
            "input matrix {}x{} does not match {} channels of {}x{}",
            input.rows(),
            input.cols(),
            dims.in_channels,
            dims.in_height,
            dims.in_width
        )));
    }
    let out_h = dims.out_height();
    let out_w = dims.out_width();
    let k = dims.in_channels * dims.kernel_h * dims.kernel_w;
    let mut patches = Matrix::zeros(out_h * out_w, k);
    for oy in 0..out_h {
        for ox in 0..out_w {
            let row_idx = oy * out_w + ox;
            let row = patches.row_mut(row_idx);
            let mut col = 0usize;
            for c in 0..dims.in_channels {
                for ky in 0..dims.kernel_h {
                    for kx in 0..dims.kernel_w {
                        let iy = (oy * dims.stride + ky) as isize - dims.padding as isize;
                        let ix = (ox * dims.stride + kx) as isize - dims.padding as isize;
                        row[col] = if iy >= 0
                            && ix >= 0
                            && (iy as usize) < dims.in_height
                            && (ix as usize) < dims.in_width
                        {
                            input[(c, iy as usize * dims.in_width + ix as usize)]
                        } else {
                            0.0
                        };
                        col += 1;
                    }
                }
            }
        }
    }
    Ok(patches)
}

/// Executes a convolution via im2col + GEMM.
///
/// `weights` must be `(out_channels, in_channels * kernel_h * kernel_w)` — i.e. each filter
/// flattened into a row. Returns the output as `(out_channels, out_h * out_w)`.
///
/// # Errors
///
/// Propagates geometry and shape errors from [`im2col`] and the GEMM.
pub fn conv2d_im2col(input: &Matrix, weights: &Matrix, dims: &Conv2dDims) -> Result<Matrix> {
    let k = dims.in_channels * dims.kernel_h * dims.kernel_w;
    if weights.rows() != dims.out_channels || weights.cols() != k {
        return Err(TensorError::InvalidConvGeometry(format!(
            "weight matrix {}x{} does not match ({}, {})",
            weights.rows(),
            weights.cols(),
            dims.out_channels,
            k
        )));
    }
    let patches = im2col(input, dims)?;
    // (out_pixels, K) x (K, out_channels) -> transpose to (out_channels, out_pixels)
    let out = crate::gemm::gemm(&patches, &weights.transpose())?;
    Ok(out.transpose())
}

/// Reference direct convolution (no lowering) for validating the im2col path.
///
/// Shapes are as in [`conv2d_im2col`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidConvGeometry`] on shape mismatches.
pub fn conv2d_direct(input: &Matrix, weights: &Matrix, dims: &Conv2dDims) -> Result<Matrix> {
    dims.validate()?;
    let k = dims.in_channels * dims.kernel_h * dims.kernel_w;
    if weights.rows() != dims.out_channels || weights.cols() != k {
        return Err(TensorError::InvalidConvGeometry(
            "weight shape mismatch".to_string(),
        ));
    }
    if input.rows() != dims.in_channels || input.cols() != dims.in_height * dims.in_width {
        return Err(TensorError::InvalidConvGeometry(
            "input shape mismatch".to_string(),
        ));
    }
    let out_h = dims.out_height();
    let out_w = dims.out_width();
    let mut out = Matrix::zeros(dims.out_channels, out_h * out_w);
    for oc in 0..dims.out_channels {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0f32;
                let mut widx = 0usize;
                for c in 0..dims.in_channels {
                    for ky in 0..dims.kernel_h {
                        for kx in 0..dims.kernel_w {
                            let iy = (oy * dims.stride + ky) as isize - dims.padding as isize;
                            let ix = (ox * dims.stride + kx) as isize - dims.padding as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < dims.in_height
                                && (ix as usize) < dims.in_width
                            {
                                acc += weights[(oc, widx)]
                                    * input[(c, iy as usize * dims.in_width + ix as usize)];
                            }
                            widx += 1;
                        }
                    }
                }
                out[(oc, oy * out_w + ox)] = acc;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::MatrixGenerator;

    #[test]
    fn output_dims_basic() {
        let d = Conv2dDims::square(3, 8, 32, 3, 1, 1);
        assert_eq!(d.out_height(), 32);
        assert_eq!(d.out_width(), 32);
        let d2 = Conv2dDims::square(3, 8, 32, 3, 2, 1);
        assert_eq!(d2.out_height(), 16);
        let d3 = Conv2dDims::square(3, 8, 224, 7, 2, 3);
        assert_eq!(d3.out_height(), 112);
    }

    #[test]
    fn gemm_dims_and_macs() {
        // ResNet-50 conv example from Table 4 (L2-like): 3x3 conv, 64 channels, 56x56.
        let d = Conv2dDims::square(64, 64, 56, 3, 1, 1);
        let (m, n, k) = d.gemm_dims(1);
        assert_eq!(m, 3136);
        assert_eq!(n, 64);
        assert_eq!(k, 576);
        assert_eq!(d.dense_macs(1), 3136 * 64 * 576);
        assert_eq!(d.gemm_dims(4).0, 4 * 3136);
    }

    #[test]
    fn geometry_validation() {
        assert!(Conv2dDims::square(3, 8, 8, 3, 1, 0).validate().is_ok());
        assert!(Conv2dDims::square(0, 8, 8, 3, 1, 0).validate().is_err());
        assert!(Conv2dDims::square(3, 8, 2, 5, 1, 0).validate().is_err());
        // Padding can make an otherwise-too-big kernel fit.
        assert!(Conv2dDims::square(3, 8, 2, 5, 1, 2).validate().is_ok());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel: patches are just the input pixels, one channel per column.
        let d = Conv2dDims::square(2, 4, 3, 1, 1, 0);
        let input = Matrix::from_fn(2, 9, |c, p| (c * 9 + p) as f32);
        let patches = im2col(&input, &d).unwrap();
        assert_eq!(patches.shape(), (9, 2));
        assert_eq!(patches[(4, 0)], input[(0, 4)]);
        assert_eq!(patches[(4, 1)], input[(1, 4)]);
    }

    #[test]
    fn im2col_conv_matches_direct_conv() {
        let mut gen = MatrixGenerator::seeded(10);
        for &(c_in, c_out, size, k, stride, pad) in &[
            (3usize, 4usize, 8usize, 3usize, 1usize, 1usize),
            (2, 5, 9, 3, 2, 0),
            (4, 4, 7, 1, 1, 0),
            (1, 2, 6, 5, 1, 2),
        ] {
            let d = Conv2dDims::square(c_in, c_out, size, k, stride, pad);
            let input = gen.normal(c_in, size * size, 0.0, 1.0);
            let weights = gen.normal(c_out, c_in * k * k, 0.0, 1.0);
            let via_gemm = conv2d_im2col(&input, &weights, &d).unwrap();
            let direct = conv2d_direct(&input, &weights, &d).unwrap();
            assert!(
                via_gemm.approx_eq(&direct, 1e-3),
                "mismatch for {c_in}->{c_out} k={k} s={stride} p={pad}"
            );
        }
    }

    #[test]
    fn conv_shape_errors() {
        let d = Conv2dDims::square(3, 4, 8, 3, 1, 1);
        let input = Matrix::zeros(3, 64);
        let bad_weights = Matrix::zeros(4, 26);
        assert!(conv2d_im2col(&input, &bad_weights, &d).is_err());
        let bad_input = Matrix::zeros(2, 64);
        let weights = Matrix::zeros(4, 27);
        assert!(conv2d_im2col(&bad_input, &weights, &d).is_err());
        assert!(conv2d_direct(&bad_input, &weights, &d).is_err());
    }

    #[test]
    fn padding_zeros_appear_in_patches() {
        let d = Conv2dDims::square(1, 1, 2, 3, 1, 1);
        let input = Matrix::filled(1, 4, 1.0);
        let patches = im2col(&input, &d).unwrap();
        // Top-left output pixel: 4 of 9 taps are inside the 2x2 input.
        let first_row_nonzeros = patches.row(0).iter().filter(|&&x| x != 0.0).count();
        assert_eq!(first_row_nonzeros, 4);
    }
}
