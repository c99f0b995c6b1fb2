//! A small executable multi-layer perceptron.
//!
//! This is the end-to-end testbed: a network small enough to train and evaluate exactly,
//! whose weights and activations TASD can be applied to so that selection algorithms can be
//! validated against a *true* accuracy metric (the offline stand-in for the paper's
//! ImageNet evaluation). Forward execution also doubles as the calibration engine for
//! TASD-A: [`Mlp::forward_trace`] records every layer's input activations.
//!
//! All matmul traffic — the layer GEMMs and the TASD decompositions — dispatches through
//! an [`ExecutionEngine`], so forward passes inherit its backend planning, decomposition
//! caching, and parallelism. Callers that do not care pass
//! [`ExecutionEngine::global()`](ExecutionEngine::global).

use crate::activation::Activation;
use crate::layer::LayerSpec;
use crate::network::NetworkSpec;
use tasd::{BatchRequest, ExecutionEngine, ResponseHandle, ServingEngine, TasdConfig};
use tasd_tensor::{Matrix, MatrixGenerator};

/// One dense layer of the executable network.
#[derive(Debug, Clone)]
pub struct MlpLayer {
    /// Weight matrix in GEMM orientation `(in_features, out_features)`.
    pub weights: Matrix,
    /// Bias vector of length `out_features`.
    pub bias: Vec<f32>,
    /// Activation applied to this layer's output.
    pub activation: Activation,
}

impl MlpLayer {
    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weights.rows()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weights.cols()
    }
}

/// Per-layer activation trace captured during a forward pass.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// For each layer, the matrix of *input* activations it consumed (batch × in_features).
    pub layer_inputs: Vec<Matrix>,
    /// The network output logits (batch × classes).
    pub logits: Matrix,
}

/// A small multi-layer perceptron with explicit weights.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<MlpLayer>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (`dims[0]` inputs → `dims.last()` outputs)
    /// and hidden activation; the final layer has no activation (logits).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new(dims: &[usize], hidden_activation: Activation, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let mut gen = MatrixGenerator::seeded(seed);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let std = (2.0 / fan_in as f32).sqrt();
            layers.push(MlpLayer {
                weights: gen.normal(fan_in, fan_out, 0.0, std),
                bias: vec![0.0; fan_out],
                activation: hidden_activation,
            });
        }
        if let Some(last) = layers.last_mut() {
            last.activation = Activation::None;
        }
        Mlp { layers }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[MlpLayer] {
        &self.layers
    }

    /// Mutable access to the layers (the trainer and TASDER transforms use this).
    pub fn layers_mut(&mut self) -> &mut Vec<MlpLayer> {
        &mut self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, MlpLayer::in_features)
    }

    /// Output dimensionality (number of classes).
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, MlpLayer::out_features)
    }

    /// Forward pass: `inputs` is `(batch, input_dim)`, returns logits `(batch, output_dim)`.
    /// Every layer GEMM dispatches through `engine`.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the first layer.
    pub fn forward(&self, engine: &ExecutionEngine, inputs: &Matrix) -> Matrix {
        self.forward_trace(engine, inputs).logits
    }

    /// Forward pass that also records each layer's input activations (for calibration and
    /// for TASD-A evaluation).
    pub fn forward_trace(&self, engine: &ExecutionEngine, inputs: &Matrix) -> ForwardTrace {
        let mut x = inputs.clone();
        let mut layer_inputs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            assert_eq!(
                x.cols(),
                layer.in_features(),
                "activation width does not match layer input"
            );
            layer_inputs.push(x.clone());
            let mut z = engine
                .gemm(&x, &layer.weights)
                .expect("shapes checked above");
            add_bias(&mut z, &layer.bias);
            x = layer.activation.apply(&z);
        }
        ForwardTrace {
            layer_inputs,
            logits: x,
        }
    }

    /// Forward pass with TASD applied to each layer's *input activations*: before layer
    /// `i`'s GEMM, its input is decomposed with `configs[i]` and the approximated product
    /// is executed term-by-term through `engine` — the software model of TASD-A (the
    /// hardware performs the same decomposition in the TASD unit). Layers with no entry in
    /// `configs` run unmodified.
    pub fn forward_with_activation_tasd(
        &self,
        engine: &ExecutionEngine,
        inputs: &Matrix,
        configs: &[Option<TasdConfig>],
    ) -> Matrix {
        let mut x = inputs.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = match configs.get(i) {
                Some(Some(cfg)) => {
                    // Activations are fresh every batch: decompose directly instead of
                    // through the engine's cache, which would pay fingerprinting for keys
                    // that never repeat and evict reusable weight-series entries.
                    // Execution still dispatches through the engine's planned backends.
                    let series = tasd::decompose(&x, cfg);
                    engine
                        .series_gemm(&series, &layer.weights)
                        .expect("shape mismatch in tasd forward")
                }
                _ => engine
                    .gemm(&x, &layer.weights)
                    .expect("shape mismatch in tasd forward"),
            };
            add_bias(&mut z, &layer.bias);
            x = layer.activation.apply(&z);
        }
        x
    }

    /// Batched serving forward pass: runs many independent requests (each a
    /// `(samples, input_dim)` activation matrix) through the network in one
    /// [`ExecutionEngine::submit`] batch per layer.
    ///
    /// Each layer's GEMM executes in the *serving orientation* `Wᵀ·xᵀ`, with the
    /// transposed weight matrix as the batch's shared left-hand operand — so the engine
    /// groups every request onto one operand fingerprint and multiplies the packed
    /// activation panels in a single kernel pass per layer, instead of once per request.
    /// Outputs match [`Mlp::forward`] per request up to f32 accumulation-order effects.
    ///
    /// # Panics
    ///
    /// Panics if any request's width does not match the first layer.
    pub fn forward_batch(&self, engine: &ExecutionEngine, inputs: &[Matrix]) -> Vec<Matrix> {
        self.forward_batch_with_weight_tasd(engine, inputs, &[])
    }

    /// [`Mlp::forward_batch`] with TASD applied to each layer's *weights*: layer `i`'s
    /// transposed weight operand is decomposed with `configs[i]` (through the engine's
    /// prepared cache, so the decomposition *and* its backend-native packing happen once
    /// and are reused across requests, batches, and calls) and each request's product is
    /// executed term-by-term — the software model of serving a TASD-W deployment. Layers
    /// with no entry in `configs` run unmodified.
    ///
    /// Each call snapshots the network into a fresh [`ServingMlp`] (one `O(in·out)`
    /// transpose copy plus one content-fingerprint scan per layer per call), so weight
    /// mutation through [`Mlp::layers_mut`] can never serve a stale operand. A serving
    /// deployment that forwards many batches between weight updates should hold a
    /// [`Mlp::prepare_serving`] snapshot instead — its pointer-stable operands hit the
    /// engine's fingerprint memo and prepared cache with zero per-call rescans.
    ///
    /// # Panics
    ///
    /// Panics if any request's width does not match the first layer.
    pub fn forward_batch_with_weight_tasd(
        &self,
        engine: &ExecutionEngine,
        inputs: &[Matrix],
        configs: &[Option<TasdConfig>],
    ) -> Vec<Matrix> {
        self.prepare_serving(engine, configs)
            .forward_batch(engine, inputs)
    }

    /// Snapshots this network for serving: every layer's weights are transposed into the
    /// serving orientation **once**, behind pointer-stable [`Arc`](std::sync::Arc)s, and
    /// each configured layer's decomposition is prepared into `engine`'s cache up front.
    /// Repeated [`ServingMlp::forward_batch`] calls then perform zero weight transposes,
    /// zero content-fingerprint scans, zero decompositions, zero format conversions, and
    /// zero replans — the prepare-once / execute-many contract of the `tasd::engine`
    /// module, applied network-wide. Each configured layer is one cache entry, prepared
    /// with `ExecutionEngine::prepare_shared`.
    ///
    /// The snapshot is decoupled from the `Mlp`: mutating weights afterwards (e.g. via
    /// [`Mlp::layers_mut`]) does not invalidate it — rebuild the snapshot after a weight
    /// update, as a deployment would roll a new model version.
    pub fn prepare_serving(
        &self,
        engine: &ExecutionEngine,
        configs: &[Option<TasdConfig>],
    ) -> ServingMlp {
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                let w_t = std::sync::Arc::new(layer.weights.transpose());
                let config = configs.get(l).cloned().flatten();
                if let Some(cfg) = &config {
                    // Warm the prepared cache (and the fingerprint memo) now, so the
                    // first batch is as cheap as the hundredth.
                    engine.prepare_shared(&w_t, cfg);
                }
                ServingLayer {
                    w_t,
                    bias: layer.bias.clone(),
                    activation: layer.activation,
                    in_features: layer.in_features(),
                    config,
                }
            })
            .collect();
        ServingMlp { layers }
    }

    /// Predicted class per sample (argmax of logits).
    pub fn predict(&self, engine: &ExecutionEngine, inputs: &Matrix) -> Vec<usize> {
        argmax_rows(&self.forward(engine, inputs))
    }

    /// Classification accuracy on `(inputs, labels)`.
    pub fn accuracy(&self, engine: &ExecutionEngine, inputs: &Matrix, labels: &[usize]) -> f64 {
        let preds = self.predict(engine, inputs);
        accuracy_from_predictions(&preds, labels)
    }

    /// Classification accuracy with activation-TASD applied (see
    /// [`Mlp::forward_with_activation_tasd`]).
    pub fn accuracy_with_activation_tasd(
        &self,
        engine: &ExecutionEngine,
        inputs: &Matrix,
        labels: &[usize],
        configs: &[Option<TasdConfig>],
    ) -> f64 {
        let preds = argmax_rows(&self.forward_with_activation_tasd(engine, inputs, configs));
        accuracy_from_predictions(&preds, labels)
    }

    /// Returns a copy of this network with layer `layer_idx`'s weights decomposed with
    /// `config` and reconstructed (the software model of TASD-W). The decomposition goes
    /// through `engine`, so repeated evaluations of the same layer hit its cache.
    ///
    /// # Panics
    ///
    /// Panics if `layer_idx` is out of range.
    #[must_use]
    pub fn with_weight_tasd(
        &self,
        engine: &ExecutionEngine,
        layer_idx: usize,
        config: &TasdConfig,
    ) -> Mlp {
        let mut out = self.clone();
        let w = &out.layers[layer_idx].weights;
        let series = engine.decompose(w, config);
        out.layers[layer_idx].weights = series.reconstruct();
        out
    }

    /// The network spec (layer IR) corresponding to this executable network, for feeding
    /// the same model into the optimizer and the accelerator simulator. `tokens` is the
    /// batch size the spec should assume.
    pub fn to_spec(&self, name: &str, tokens: usize) -> NetworkSpec {
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                LayerSpec::linear(
                    format!("fc{i}"),
                    l.in_features(),
                    l.out_features(),
                    tokens,
                    l.activation,
                )
                .with_weight_sparsity(tasd_tensor::sparsity_degree(&l.weights))
            })
            .collect();
        NetworkSpec::new(name, layers)
    }
}

/// One layer of a [`ServingMlp`]: the transposed weight operand behind a pointer-stable
/// `Arc`, plus the epilogue state.
#[derive(Debug, Clone)]
struct ServingLayer {
    w_t: std::sync::Arc<Matrix>,
    bias: Vec<f32>,
    activation: Activation,
    in_features: usize,
    config: Option<TasdConfig>,
}

impl ServingLayer {
    /// The serving-orientation request for one activation matrix (`Wᵀ·xᵀ`, sharing the
    /// snapshot's pointer-stable weight operand).
    fn request(&self, x: &Matrix) -> BatchRequest {
        assert_eq!(
            x.cols(),
            self.in_features,
            "activation width does not match layer input"
        );
        match &self.config {
            Some(cfg) => BatchRequest::decomposed(
                std::sync::Arc::clone(&self.w_t),
                cfg.clone(),
                x.transpose(),
            ),
            None => BatchRequest::dense(std::sync::Arc::clone(&self.w_t), x.transpose()),
        }
    }

    /// Un-transposes one response and applies bias + activation.
    fn epilogue(&self, z_t: Matrix) -> Matrix {
        let mut z = z_t.transpose();
        add_bias(&mut z, &self.bias);
        self.activation.apply(&z)
    }
}

/// A serving-ready snapshot of an [`Mlp`], from [`Mlp::prepare_serving`]: weights
/// pre-transposed into the shared-operand orientation behind pointer-stable `Arc`s, and
/// per-layer TASD configurations pinned. Because the operand allocations never change
/// across calls, every [`forward_batch`](ServingMlp::forward_batch) after the first hits
/// the engine's fingerprint memo and prepared decomposition cache — the hot path does no
/// conversion and no replanning.
#[derive(Debug, Clone)]
pub struct ServingMlp {
    layers: Vec<ServingLayer>,
}

impl ServingMlp {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Batched serving forward pass (see [`Mlp::forward_batch`] for the orientation
    /// contract): one [`ExecutionEngine::submit`] batch per layer, every request sharing
    /// the snapshot's weight operand. Outputs match [`Mlp::forward_batch`] on the
    /// snapshotted weights exactly.
    ///
    /// # Panics
    ///
    /// Panics if any request's width does not match the first layer.
    pub fn forward_batch(&self, engine: &ExecutionEngine, inputs: &[Matrix]) -> Vec<Matrix> {
        self.try_forward_batch(engine, inputs)
            .expect("shapes checked by the snapshot; no serving faults on this path")
    }

    /// [`forward_batch`](Self::forward_batch) with structured failure: any request
    /// failing (a width mismatch surfacing as
    /// [`ServingError::ShapeMismatch`](tasd::ServingError), or an injected/real kernel
    /// fault as [`KernelPanicked`](tasd::ServingError::KernelPanicked)) fails the pass
    /// with that request's error instead of panicking.
    ///
    /// # Errors
    ///
    /// The first failing request's [`ServingError`](tasd::ServingError), scanning
    /// layer by layer in request order.
    pub fn try_forward_batch(
        &self,
        engine: &ExecutionEngine,
        inputs: &[Matrix],
    ) -> Result<Vec<Matrix>, tasd::ServingError> {
        let mut xs: Vec<Matrix> = inputs.to_vec();
        for layer in &self.layers {
            let requests: Vec<BatchRequest> = xs.iter().map(|x| layer.request(x)).collect();
            xs = engine
                .submit(requests)
                .into_iter()
                .map(|response| Ok(layer.epilogue(response.output?)))
                .collect::<Result<_, tasd::ServingError>>()?;
        }
        Ok(xs)
    }

    /// Batched serving forward pass through a [`ServingEngine`] session's handle API:
    /// per layer, every request is [`enqueue`](ServingEngine::enqueue)d into the
    /// session's open micro-batch window and collected through its
    /// [`ResponseHandle`] — so this network's traffic coalesces with whatever *other*
    /// requests are in flight on the same session (another thread serving the same
    /// snapshot joins the same window and shares the packed kernel passes).
    ///
    /// Layer boundaries force a window per layer for this call's own requests (layer
    /// `i+1`'s inputs are layer `i`'s outputs, so the handles must drain), flushed via
    /// [`ResponseHandle::wait`] — late arrivals from other threads still join each
    /// window until it closes. Outputs are **bitwise identical** to
    /// [`forward_batch`](Self::forward_batch) on the session's engine: window
    /// composition never changes results (see the `tasd::engine` module docs).
    ///
    /// # Panics
    ///
    /// Panics if any request's width does not match the first layer, or if the session
    /// refuses/fails a request (queue full, shutting down, kernel fault) — use
    /// [`try_forward_batch_serving`](Self::try_forward_batch_serving) to observe those
    /// as errors instead.
    pub fn forward_batch_serving(&self, serving: &ServingEngine, inputs: &[Matrix]) -> Vec<Matrix> {
        self.try_forward_batch_serving(serving, inputs)
            .expect("shapes checked by the snapshot; session healthy on this path")
    }

    /// [`forward_batch_serving`](Self::forward_batch_serving) with structured failure:
    /// every per-request serving outcome — admission rejection
    /// ([`QueueFull`](tasd::ServingError::QueueFull),
    /// [`ShuttingDown`](tasd::ServingError::ShuttingDown)), deadline expiry,
    /// cancellation, or a contained kernel panic — surfaces as that request's
    /// [`ServingError`](tasd::ServingError) instead of a panic.
    ///
    /// # Errors
    ///
    /// The first failing request's [`ServingError`](tasd::ServingError), scanning
    /// layer by layer in request order. Later handles in the same layer are still
    /// waited (their windows resolve them), so no handle leaks.
    pub fn try_forward_batch_serving(
        &self,
        serving: &ServingEngine,
        inputs: &[Matrix],
    ) -> Result<Vec<Matrix>, tasd::ServingError> {
        let mut xs: Vec<Matrix> = inputs.to_vec();
        for layer in &self.layers {
            let handles: Vec<ResponseHandle> = xs
                .iter()
                .map(|x| serving.enqueue(layer.request(x)))
                .collect();
            // Wait every handle before surfacing the first error: the responses are
            // already scheduled, and abandoning a handle mid-layer would discard them.
            let outputs: Vec<Result<Matrix, tasd::ServingError>> = handles
                .into_iter()
                .map(|handle| {
                    // `wait` closes the open window if this request is still parked, so
                    // the drain can never hang on a window nobody else fills.
                    handle.wait().output
                })
                .collect();
            xs = outputs
                .into_iter()
                .map(|output| Ok(layer.epilogue(output?)))
                .collect::<Result<_, tasd::ServingError>>()?;
        }
        Ok(xs)
    }
}

/// Adds `bias` to every row of `z` (the shared layer epilogue).
fn add_bias(z: &mut Matrix, bias: &[f32]) {
    for i in 0..z.rows() {
        let row = z.row_mut(i);
        for (j, b) in bias.iter().enumerate() {
            row[j] += b;
        }
    }
}

/// Argmax of every row.
pub(crate) fn argmax_rows(m: &Matrix) -> Vec<usize> {
    (0..m.rows())
        .map(|i| {
            m.row(i)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0)
        })
        .collect()
}

/// Fraction of predictions matching the labels.
pub(crate) fn accuracy_from_predictions(preds: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "prediction/label count mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / preds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> &'static ExecutionEngine {
        ExecutionEngine::global()
    }

    #[test]
    fn construction_and_shapes() {
        let mlp = Mlp::new(&[16, 32, 8, 4], Activation::Relu, 1);
        assert_eq!(mlp.num_layers(), 3);
        assert_eq!(mlp.input_dim(), 16);
        assert_eq!(mlp.output_dim(), 4);
        assert_eq!(mlp.layers()[0].out_features(), 32);
        // Last layer emits raw logits.
        assert_eq!(mlp.layers()[2].activation, Activation::None);
        assert_eq!(mlp.layers()[0].activation, Activation::Relu);
    }

    #[test]
    fn forward_shapes_and_trace() {
        let mlp = Mlp::new(&[8, 16, 3], Activation::Relu, 2);
        let x = MatrixGenerator::seeded(5).normal(10, 8, 0.0, 1.0);
        let trace = mlp.forward_trace(engine(), &x);
        assert_eq!(trace.logits.shape(), (10, 3));
        assert_eq!(trace.layer_inputs.len(), 2);
        assert_eq!(trace.layer_inputs[0].shape(), (10, 8));
        assert_eq!(trace.layer_inputs[1].shape(), (10, 16));
        // Hidden activations are ReLU outputs: non-negative.
        assert!(trace.layer_inputs[1].iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn predictions_and_accuracy() {
        let mlp = Mlp::new(&[4, 8, 2], Activation::Relu, 3);
        let x = MatrixGenerator::seeded(6).normal(20, 4, 0.0, 1.0);
        let preds = mlp.predict(engine(), &x);
        assert_eq!(preds.len(), 20);
        assert!(preds.iter().all(|&p| p < 2));
        // Accuracy against its own predictions is 1.
        assert_eq!(mlp.accuracy(engine(), &x, &preds), 1.0);
    }

    #[test]
    fn dense_tasd_config_is_a_noop() {
        let mlp = Mlp::new(&[8, 16, 4], Activation::Relu, 7);
        let x = MatrixGenerator::seeded(8).normal(12, 8, 0.0, 1.0);
        let baseline = mlp.forward(engine(), &x);
        let dense_cfgs = vec![Some(TasdConfig::dense(8)); mlp.num_layers()];
        let with_tasd = mlp.forward_with_activation_tasd(engine(), &x, &dense_cfgs);
        assert!(baseline.approx_eq(&with_tasd, 1e-5));
        let w_tasd = mlp.with_weight_tasd(engine(), 0, &TasdConfig::dense(8));
        assert!(w_tasd.forward(engine(), &x).approx_eq(&baseline, 1e-5));
    }

    #[test]
    fn aggressive_activation_tasd_changes_output() {
        let mlp = Mlp::new(&[16, 32, 4], Activation::Relu, 9);
        let x = MatrixGenerator::seeded(10).normal(6, 16, 0.0, 1.0);
        let baseline = mlp.forward(engine(), &x);
        let cfgs = vec![Some(TasdConfig::parse("1:8").unwrap()); mlp.num_layers()];
        let approx = mlp.forward_with_activation_tasd(engine(), &x, &cfgs);
        assert_eq!(approx.shape(), baseline.shape());
        assert!(
            !baseline.approx_eq(&approx, 1e-6),
            "1:8 on dense input must perturb output"
        );
    }

    #[test]
    fn weight_tasd_reduces_weight_density() {
        let mlp = Mlp::new(&[32, 64, 4], Activation::Relu, 11);
        let cfg = TasdConfig::parse("2:8").unwrap();
        let modified = mlp.with_weight_tasd(engine(), 0, &cfg);
        let dens = 1.0 - tasd_tensor::sparsity_degree(&modified.layers()[0].weights);
        assert!(dens <= 0.25 + 1e-9, "density {dens}");
        // Other layers untouched.
        assert_eq!(modified.layers()[1].weights, mlp.layers()[1].weights);
    }

    #[test]
    fn forward_is_engine_invariant() {
        // The same network must produce the same logits whatever engine executes it.
        let mlp = Mlp::new(&[12, 24, 5], Activation::Relu, 15);
        let x = MatrixGenerator::seeded(16).normal(9, 12, 0.0, 1.0);
        let default = mlp.forward(engine(), &x);
        let csr_only = ExecutionEngine::builder()
            .backend(std::sync::Arc::new(tasd_tensor::CsrBackend::default()))
            .build();
        let sequential = ExecutionEngine::builder().workers(1).build();
        assert!(mlp.forward(&csr_only, &x).approx_eq(&default, 1e-5));
        assert!(mlp.forward(&sequential, &x).approx_eq(&default, 1e-5));
    }

    #[test]
    fn with_weight_tasd_reuses_the_engine_cache() {
        let mlp = Mlp::new(&[16, 16, 4], Activation::Relu, 17);
        let e = ExecutionEngine::builder().cache_capacity(8).build();
        let cfg = TasdConfig::parse("2:8").unwrap();
        let _ = mlp.with_weight_tasd(&e, 0, &cfg);
        let _ = mlp.with_weight_tasd(&e, 0, &cfg);
        let stats = e.cache_stats();
        assert_eq!(
            stats.misses, 1,
            "second decomposition must be served from cache"
        );
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn forward_batch_matches_per_request_forward() {
        let mlp = Mlp::new(&[10, 20, 6], Activation::Relu, 19);
        let mut gen = MatrixGenerator::seeded(20);
        // Mixed request sizes, including a single-sample request.
        let inputs: Vec<Matrix> = [4usize, 1, 7]
            .iter()
            .map(|&n| gen.normal(n, 10, 0.0, 1.0))
            .collect();
        let e = ExecutionEngine::builder().build();
        let batched = mlp.forward_batch(&e, &inputs);
        assert_eq!(batched.len(), inputs.len());
        for (x, got) in inputs.iter().zip(&batched) {
            let expected = mlp.forward(&e, x);
            assert_eq!(got.shape(), expected.shape());
            // The serving orientation transposes the GEMM, so accumulation order
            // differs from the row-major forward pass: compare within tolerance.
            assert!(got.approx_eq(&expected, 1e-4));
        }
    }

    #[test]
    fn forward_batch_with_dense_tasd_is_a_noop() {
        let mlp = Mlp::new(&[8, 16, 4], Activation::Relu, 27);
        let mut gen = MatrixGenerator::seeded(28);
        let inputs: Vec<Matrix> = (0..3).map(|_| gen.normal(5, 8, 0.0, 1.0)).collect();
        let e = ExecutionEngine::builder().build();
        let dense_cfgs = vec![Some(TasdConfig::dense(8)); mlp.num_layers()];
        let with_tasd = mlp.forward_batch_with_weight_tasd(&e, &inputs, &dense_cfgs);
        let baseline = mlp.forward_batch(&e, &inputs);
        for (a, b) in with_tasd.iter().zip(&baseline) {
            assert!(a.approx_eq(b, 1e-5));
        }
    }

    #[test]
    fn forward_batch_decomposes_each_layer_once_across_requests_and_calls() {
        let mlp = Mlp::new(&[16, 24, 8], Activation::Relu, 29);
        let mut gen = MatrixGenerator::seeded(30);
        let inputs: Vec<Matrix> = (0..6).map(|_| gen.normal(3, 16, 0.0, 1.0)).collect();
        let e = ExecutionEngine::builder().build();
        let cfgs = vec![Some(TasdConfig::parse("2:8").unwrap()); mlp.num_layers()];
        let _ = mlp.forward_batch_with_weight_tasd(&e, &inputs, &cfgs);
        let stats = e.cache_stats();
        assert_eq!(
            stats.misses,
            mlp.num_layers() as u64,
            "one decomposition per layer, shared by all 6 requests"
        );
        // A second batch is served entirely from the cache.
        let _ = mlp.forward_batch_with_weight_tasd(&e, &inputs, &cfgs);
        assert_eq!(e.cache_stats().misses, mlp.num_layers() as u64);
        assert!(e.cache_stats().hits >= mlp.num_layers() as u64);
    }

    #[test]
    fn serving_snapshot_matches_forward_batch_and_never_rescans() {
        let mlp = Mlp::new(&[16, 24, 8], Activation::Relu, 33);
        let mut gen = MatrixGenerator::seeded(34);
        let inputs: Vec<Matrix> = (0..4).map(|_| gen.normal(3, 16, 0.0, 1.0)).collect();
        let e = ExecutionEngine::builder().build();
        let cfgs = vec![Some(TasdConfig::parse("2:8").unwrap()); mlp.num_layers()];
        let serving = mlp.prepare_serving(&e, &cfgs);
        assert_eq!(serving.num_layers(), mlp.num_layers());
        // The snapshot path answers exactly like the per-call path on the same engine.
        let via_snapshot = serving.forward_batch(&e, &inputs);
        let via_percall = mlp.forward_batch_with_weight_tasd(&e, &inputs, &cfgs);
        for (a, b) in via_snapshot.iter().zip(&via_percall) {
            assert_eq!(a, b, "snapshot serving must be bitwise identical");
        }
        // Warm calls on the snapshot: zero scans, zero decompositions, zero conversions,
        // zero replans — the prepare-once / execute-many contract end to end.
        let _ = serving.forward_batch(&e, &inputs);
        let before = e.prep_stats();
        let cache_before = e.cache_stats();
        let _ = serving.forward_batch(&e, &inputs);
        let after = e.prep_stats();
        assert_eq!(after.fingerprint_scans, before.fingerprint_scans);
        assert_eq!(after.conversions, before.conversions);
        assert_eq!(after.plans_computed, before.plans_computed);
        assert_eq!(after.prepares, before.prepares);
        assert_eq!(e.cache_stats().misses, cache_before.misses);
    }

    #[test]
    fn serving_handles_match_submit_serving_bitwise() {
        use tasd::ServingEngine;
        // The handle API must produce exactly what the synchronous submit path does —
        // window composition (here: one window per layer, closed by the first `wait`)
        // never changes bits.
        let mlp = Mlp::new(&[12, 24, 5], Activation::Relu, 37);
        let mut gen = MatrixGenerator::seeded(38);
        let inputs: Vec<Matrix> = (0..5).map(|_| gen.normal(3, 12, 0.0, 1.0)).collect();
        let cfgs = vec![Some(TasdConfig::parse("2:8").unwrap()); mlp.num_layers()];
        let engine = std::sync::Arc::new(ExecutionEngine::builder().build());
        let snapshot = mlp.prepare_serving(&engine, &cfgs);
        let serving = ServingEngine::over(std::sync::Arc::clone(&engine));
        let via_handles = snapshot.forward_batch_serving(&serving, &inputs);
        let via_submit = snapshot.forward_batch(&engine, &inputs);
        for (a, b) in via_handles.iter().zip(&via_submit) {
            assert_eq!(a, b, "handle serving must be bitwise identical");
        }
        // Warm handle serving keeps the prepare-once contract.
        let before = engine.prep_stats();
        let _ = snapshot.forward_batch_serving(&serving, &inputs);
        let after = engine.prep_stats();
        assert_eq!(after.conversions, before.conversions);
        assert_eq!(after.plans_computed, before.plans_computed);
        assert_eq!(after.fingerprint_scans, before.fingerprint_scans);
        assert_eq!(after.prepares, before.prepares);
        // One window per layer per call, every window coalescing all 5 requests.
        let stats = serving.stats();
        assert_eq!(stats.windows, 2 * mlp.num_layers() as u64);
        assert_eq!(stats.coalesced_windows, stats.windows);
        assert_eq!(stats.max_window, inputs.len());
    }

    #[test]
    fn forward_batch_of_empty_and_zero_requests() {
        let mlp = Mlp::new(&[4, 6, 2], Activation::Relu, 31);
        let e = ExecutionEngine::builder().build();
        assert!(mlp.forward_batch(&e, &[]).is_empty());
        // A zero-sample request flows through and keeps its shape.
        let out = mlp.forward_batch(&e, &[Matrix::zeros(0, 4)]);
        assert_eq!(out[0].shape(), (0, 2));
    }

    #[test]
    fn to_spec_mirrors_structure() {
        let mlp = Mlp::new(&[8, 16, 4], Activation::Gelu, 13);
        let spec = mlp.to_spec("mini", 32);
        assert_eq!(spec.num_layers(), 2);
        assert_eq!(spec.layers[0].gemm_dims(1), (32, 16, 8));
        assert_eq!(spec.layers[0].activation, Activation::Gelu);
        assert_eq!(spec.layers[1].activation, Activation::None);
    }

    #[test]
    fn argmax_helper() {
        let m = Matrix::from_rows(&[vec![0.1, 0.9, 0.2], vec![3.0, -1.0, 2.0]]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
        assert_eq!(accuracy_from_predictions(&[1, 0], &[1, 1]), 0.5);
    }
}
