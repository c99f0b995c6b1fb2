//! Real-system model: an RTX-3080-class GPU with 2:4 sparse tensor cores running a
//! TensorRT-style engine (paper §5.5, Fig. 16).
//!
//! The paper exports TASD-W-transformed models to ONNX and measures TensorRT latency on an
//! RTX 3080. Offline, this module substitutes an analytical GPU execution-time model: each
//! CONV/FC layer's time is its dense-GEMM time divided by the sparse-kernel speedup when
//! the layer's weights have been made 2:4 (≈1.6–1.8× for realistic shapes, not the ideal
//! 2×), plus a fixed per-layer framework/kernel-launch overhead, plus a fixed share for the
//! non-GEMM layers TASD does not touch. Speedup therefore grows with the number of layers
//! converted and saturates Amdahl-style — the shape of Fig. 16.

use tasd_dnn::NetworkSpec;

/// GPU execution-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Sustained dense tensor-core throughput in MACs per nanosecond (RTX-3080 class at
    /// FP16 ≈ 60 TMAC/s → 60 000 MACs/ns; real kernels reach roughly half of peak).
    pub dense_macs_per_ns: f64,
    /// Effective speedup of a 2:4 sparse kernel over the dense kernel for the same layer
    /// (the hardware peak is 2×; measured end-to-end kernel gains are lower).
    pub sparse_kernel_speedup: f64,
    /// Fixed per-layer overhead in nanoseconds (kernel launch, tensor reformat).
    pub per_layer_overhead_ns: f64,
    /// Fraction of end-to-end time spent outside CONV/FC GEMMs (element-wise ops,
    /// batch-norm, data movement) that TASD cannot accelerate.
    pub non_gemm_fraction: f64,
}

impl GpuModel {
    /// Parameters calibrated to an RTX-3080-class device running batched ImageNet CNNs.
    pub fn rtx3080() -> Self {
        GpuModel {
            dense_macs_per_ns: 30_000.0,
            sparse_kernel_speedup: 1.6,
            per_layer_overhead_ns: 10_000.0,
            non_gemm_fraction: 0.18,
        }
    }

    /// Estimated end-to-end latency (nanoseconds) of `spec` at the given batch size when
    /// the layers listed in `tasd_layers` (by index) run on the 2:4 sparse tensor cores.
    ///
    /// The non-GEMM share of the network (element-wise ops, normalization, data movement)
    /// is sized from the *dense* model and added as a constant — TASD does not shrink it,
    /// which is what bounds the end-to-end speedup (Amdahl's law).
    pub fn latency_ns(&self, spec: &NetworkSpec, batch: usize, tasd_layers: &[usize]) -> f64 {
        let mut gemm_time = 0.0f64;
        let mut dense_gemm_time = 0.0f64;
        for (i, layer) in spec.iter().enumerate() {
            let dense_t = layer.dense_macs(batch) as f64 / self.dense_macs_per_ns;
            let t = if tasd_layers.contains(&i) {
                dense_t / self.sparse_kernel_speedup
            } else {
                dense_t
            };
            gemm_time += t + self.per_layer_overhead_ns;
            dense_gemm_time += dense_t + self.per_layer_overhead_ns;
        }
        let non_gemm_time =
            dense_gemm_time * self.non_gemm_fraction / (1.0 - self.non_gemm_fraction);
        gemm_time + non_gemm_time
    }

    /// Speedup of running with the given TASD-W layers relative to the fully dense model.
    pub fn speedup(&self, spec: &NetworkSpec, batch: usize, tasd_layers: &[usize]) -> f64 {
        let dense = self.latency_ns(spec, batch, &[]);
        let sparse = self.latency_ns(spec, batch, tasd_layers);
        dense / sparse
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel::rtx3080()
    }
}

/// One point of the Fig. 16 sweep: convert the `num_layers` layers with the largest dense
/// MAC counts to 2:4 TASD-W and report the resulting speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct RealSystemPoint {
    /// Number of layers running with 2:4 TASD-W weights.
    pub num_tasd_layers: usize,
    /// End-to-end speedup over the dense model (1.0 = no gain).
    pub speedup: f64,
    /// Performance improvement in percent (`(speedup - 1) * 100`).
    pub improvement_pct: f64,
}

/// Sweeps the number of TASD-W layers from 0 to every CONV/FC layer of `spec`, converting
/// layers in descending order of dense MACs (the order TASDER's greedy pass would convert
/// them, since big layers buy the most time for the least accuracy risk).
pub fn sweep_tasd_layers(
    model: &GpuModel,
    spec: &NetworkSpec,
    batch: usize,
) -> Vec<RealSystemPoint> {
    let mut order: Vec<usize> = (0..spec.num_layers()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(spec.layers[i].dense_macs(batch)));
    (0..=spec.num_layers())
        .map(|count| {
            let chosen: Vec<usize> = order.iter().copied().take(count).collect();
            let speedup = model.speedup(spec, batch, &chosen);
            RealSystemPoint {
                num_tasd_layers: count,
                speedup,
                improvement_pct: (speedup - 1.0) * 100.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_dnn::{Activation, LayerSpec};
    use tasd_tensor::Conv2dDims;

    fn small_net() -> NetworkSpec {
        NetworkSpec::new(
            "net",
            vec![
                LayerSpec::conv(
                    "c1",
                    Conv2dDims::square(64, 64, 56, 3, 1, 1),
                    Activation::Relu,
                ),
                LayerSpec::conv(
                    "c2",
                    Conv2dDims::square(128, 256, 28, 3, 1, 1),
                    Activation::Relu,
                ),
                LayerSpec::linear("fc", 512, 1000, 1, Activation::None),
            ],
        )
    }

    #[test]
    fn no_tasd_layers_means_no_speedup() {
        let model = GpuModel::rtx3080();
        let net = small_net();
        assert!((model.speedup(&net, 32, &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_grows_with_layer_count_and_saturates_below_kernel_speedup() {
        let model = GpuModel::rtx3080();
        let net = small_net();
        let sweep = sweep_tasd_layers(&model, &net, 32);
        assert_eq!(sweep.len(), net.num_layers() + 1);
        // Monotone non-decreasing speedup.
        for w in sweep.windows(2) {
            assert!(w[1].speedup >= w[0].speedup - 1e-12);
        }
        let full = sweep.last().unwrap();
        assert!(
            full.speedup > 1.05,
            "full conversion speedup {}",
            full.speedup
        );
        // Amdahl: never reaches the raw kernel speedup.
        assert!(full.speedup < model.sparse_kernel_speedup);
    }

    #[test]
    fn resnet34_scale_speedup_matches_paper_ballpark() {
        // Paper Fig. 16: up to ~39% end-to-end gain on sparse ResNet-34 with most layers
        // converted. With default parameters the model should land in the 20-60% band.
        let model = GpuModel::rtx3080();
        let net = tasd_models_like_resnet34();
        let sweep = sweep_tasd_layers(&model, &net, 32);
        let full = sweep.last().unwrap();
        assert!(
            (15.0..60.0).contains(&full.improvement_pct),
            "improvement {}%",
            full.improvement_pct
        );
    }

    /// A stand-in ResNet-34-shaped network (the real builder lives in `tasd-models`, which
    /// this crate does not depend on).
    fn tasd_models_like_resnet34() -> NetworkSpec {
        let mut layers = vec![LayerSpec::conv(
            "conv1",
            Conv2dDims::square(3, 64, 224, 7, 2, 3),
            Activation::Relu,
        )];
        let stages = [
            (64usize, 56usize, 6usize),
            (128, 28, 8),
            (256, 14, 12),
            (512, 7, 6),
        ];
        for (ch, size, count) in stages {
            for i in 0..count {
                layers.push(LayerSpec::conv(
                    format!("c{ch}_{i}"),
                    Conv2dDims::square(ch, ch, size, 3, 1, 1),
                    Activation::Relu,
                ));
            }
        }
        layers.push(LayerSpec::linear("fc", 512, 1000, 1, Activation::None));
        NetworkSpec::new("resnet34-like", layers)
    }

    #[test]
    fn biggest_layers_convert_first() {
        let model = GpuModel::rtx3080();
        let net = small_net();
        let sweep = sweep_tasd_layers(&model, &net, 32);
        // Converting only the single biggest layer should already capture most of the gain
        // available from converting the two biggest.
        let one = sweep[1].speedup - 1.0;
        let two = sweep[2].speedup - 1.0;
        assert!(one > 0.0);
        assert!(one >= two * 0.4);
    }

    #[test]
    fn batch_size_scales_gemm_time_but_not_overhead() {
        let model = GpuModel::rtx3080();
        let net = small_net();
        let small_batch = model.latency_ns(&net, 1, &[]);
        let big_batch = model.latency_ns(&net, 64, &[]);
        assert!(big_batch > small_batch);
        assert!(
            big_batch < small_batch * 64.0,
            "fixed overheads must not scale"
        );
    }
}
