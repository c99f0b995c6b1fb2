//! The three workloads, their frozen parameters, and the seeded inputs they send.
//!
//! Everything the server receives is generated here from the `--seed` argument. The
//! rates, shapes, configurations, in-flight count and push cadence below are frozen:
//! changing any of them changes the benchmark, not the program under test.

use std::sync::Arc;

use tasd_tensor::{Matrix, MatrixGenerator};

/// One weight layer of the first encoder block of the paper's Sparse BERT.
#[derive(Debug, Clone, Copy)]
pub struct BertLayer {
    /// Operand name on the server.
    pub name: &'static str,
    /// Output features: rows of the weight in serving orientation (`W · X`).
    pub rows: usize,
    /// Input features: columns of the weight and rows of the token panel.
    pub cols: usize,
    /// Magnitude-pruned weight sparsity, from `Workload::SparseBert`'s profile.
    pub sparsity: f64,
    /// The configuration TASDER's layer-wise TASD-W assigns the layer when optimizing
    /// the full model for TTC-VEGETA-M8.
    pub config: &'static str,
}

/// `encoder.0` of Sparse BERT: Q/K/V/O at 768×768, FFN 768→3072→768.
pub const BERT_LAYERS: [BertLayer; 6] = [
    BertLayer {
        name: "encoder.0.attn.query",
        rows: 768,
        cols: 768,
        sparsity: 0.77,
        config: "4:8",
    },
    BertLayer {
        name: "encoder.0.attn.key",
        rows: 768,
        cols: 768,
        sparsity: 0.88,
        config: "2:8+1:8",
    },
    BertLayer {
        name: "encoder.0.attn.value",
        rows: 768,
        cols: 768,
        sparsity: 0.88,
        config: "2:8+1:8",
    },
    BertLayer {
        name: "encoder.0.attn.output",
        rows: 768,
        cols: 768,
        sparsity: 0.88,
        config: "2:8+1:8",
    },
    BertLayer {
        name: "encoder.0.ffn.fc1",
        rows: 3072,
        cols: 768,
        sparsity: 0.91,
        config: "2:8+1:8",
    },
    BertLayer {
        name: "encoder.0.ffn.fc2",
        rows: 768,
        cols: 3072,
        sparsity: 0.92,
        config: "2:8",
    },
];

/// Tokens per BERT panel: the paper's sequence length.
pub const BERT_TOKENS: usize = 128;
/// Distinct token panels per input width; panels are not prepared, so reuse is free.
const BERT_PANELS: usize = 8;

/// ReLU activation tile rows: a slice of ResNet-50's representative layer L1
/// (784×128×1152, Table 4).
pub const RELU_ROWS: usize = 256;
/// Reduction width of L1 (3×3×128).
pub const RELU_COLS: usize = 1152;
/// Output channels of L1: columns of the dense weight panel.
pub const RELU_OUT: usize = 128;
/// What `tasd_a::select_config` picks on the TTC-VEGETA-M8 menu for 50%-sparse input
/// at α = 0.05.
pub const RELU_CONFIG: &str = "4:8";
/// Distinct operand names the `relu-fresh` deploy phase registers tiles under.
pub const RELU_DEPLOY_NAMES: usize = 4;

/// The workloads, each with its frozen traffic parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TASD-W reads against six resident layers; preparation only in set-up.
    BertSteady,
    /// TASD-A: every request carries a fresh activation tile to decompose.
    ReluFresh,
    /// `BertSteady`'s reads with a push stream beside the low-rate phase.
    BertDeploy,
}

/// Frozen parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which traffic.
    pub kind: Kind,
    /// Poisson rate of the low phase, requests/s.
    pub low_rps: f64,
    /// Poisson rate of the high phase, requests/s; below saturation, so a slow-host
    /// spell cannot turn it into an unbounded queue.
    pub high_rps: f64,
    /// Requests kept in flight by the closed-loop capacity phase.
    pub in_flight: usize,
    /// Time between deploys, ms; longer than a deploy takes.
    pub deploy_cadence_ms: u64,
    /// Rows a push changes.
    pub push_rows: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Rounds the timed part of a run is split into; each read metric uses the rounds
    /// with little host steal time.
    pub rounds: usize,
    /// Shares of a round spent on the low, high, capacity and quiet deploy blocks.
    pub shares: [f64; 4],
}

impl Plan {
    /// The plan for a workload name, or `None` for an unknown one.
    pub fn named(name: &str) -> Option<Plan> {
        let bert = Plan {
            kind: Kind::BertSteady,
            low_rps: 50.0,
            high_rps: 100.0,
            in_flight: 4,
            deploy_cadence_ms: 150,
            push_rows: 4,
            setups: 5,
            rounds: 10,
            shares: [0.3, 0.3, 0.15, 0.25],
        };
        match name {
            "bert-steady" => Some(bert),
            "bert-deploy" => Some(Plan {
                kind: Kind::BertDeploy,
                deploy_cadence_ms: 400,
                shares: [0.6, 0.2, 0.2, 0.0],
                ..bert
            }),
            "relu-fresh" => Some(Plan {
                kind: Kind::ReluFresh,
                low_rps: 5.0,
                high_rps: 10.0,
                in_flight: 4,
                deploy_cadence_ms: 40,
                push_rows: 0,
                setups: 3,
                rounds: 10,
                shares: [0.45, 0.35, 0.1, 0.1],
            }),
            _ => None,
        }
    }
}

/// A 64-bit mix (splitmix64), the seed expander for everything below.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small seeded stream for schedules and choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, salt)`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ mix(salt)))
    }

    /// Next raw 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Due times (seconds from the phase start) of a Poisson arrival process at `rate`
/// over `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = -rng.unit().ln() / rate;
    while t < seconds {
        due.push(t);
        t += -rng.unit().ln() / rate;
    }
    due
}

/// The BERT layers' weights and the token panels requests carry.
#[derive(Debug)]
pub struct BertInputs {
    /// Weights, indexed like [`BERT_LAYERS`].
    pub weights: Vec<Arc<Matrix>>,
    /// Panels with 768 rows (inputs of every layer but fc2).
    pub narrow: Vec<Matrix>,
    /// Panels with 3072 rows (inputs of fc2).
    pub wide: Vec<Matrix>,
}

impl BertInputs {
    /// Generates weights and panels from `seed`.
    pub fn generate(seed: u64) -> BertInputs {
        let mut gen = MatrixGenerator::seeded(mix(seed ^ 0xBE27));
        let weights = BERT_LAYERS
            .iter()
            .map(|l| Arc::new(gen.magnitude_pruned(l.rows, l.cols, l.sparsity)))
            .collect();
        let narrow = (0..BERT_PANELS)
            .map(|_| gen.normal(768, BERT_TOKENS, 0.0, 1.0))
            .collect();
        let wide = (0..BERT_PANELS)
            .map(|_| gen.gelu_activations(3072, BERT_TOKENS))
            .collect();
        BertInputs {
            weights,
            narrow,
            wide,
        }
    }

    /// The panel a request against `layer` carries, chosen by `pick`.
    pub fn panel(&self, layer: usize, pick: usize) -> &Matrix {
        let pool = if BERT_LAYERS[layer].cols == 768 {
            &self.narrow
        } else {
            &self.wide
        };
        &pool[pick % pool.len()]
    }
}

/// One read against a BERT layer: which layer and which panel.
#[derive(Debug, Clone, Copy)]
pub struct BertRead {
    /// Index into [`BERT_LAYERS`].
    pub layer: usize,
    /// Panel choice.
    pub panel: usize,
}

/// The `index`-th read of a phase's seeded stream. Every run of six consecutive reads
/// visits each layer once, in a seeded order, so each phase sends the same layer mix
/// and its latency percentiles do not drift with the draw.
pub fn bert_read(seed: u64, phase: u64, index: u64) -> BertRead {
    let group = index / BERT_LAYERS.len() as u64;
    let mut order = Rng::new(seed, mix(phase << 32 ^ group));
    let mut layers: [usize; 6] = [0, 1, 2, 3, 4, 5];
    for i in (1..layers.len()).rev() {
        layers.swap(i, order.below(i + 1));
    }
    BertRead {
        layer: layers[(index % BERT_LAYERS.len() as u64) as usize],
        panel: Rng::new(seed, mix(phase << 32 ^ index ^ 0x9A7E)).below(BERT_PANELS),
    }
}

/// A fresh ReLU activation tile: about half the entries exactly zero, the rest
/// positive. Every `(seed, index)` gives a distinct tile, so no two requests share an
/// operand.
pub fn relu_tile(seed: u64, index: u64) -> Matrix {
    let mut state = mix(seed ^ mix(index ^ 0x2E1F));
    let data = (0..RELU_ROWS * RELU_COLS)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let bits = mix(state);
            if bits & 1 == 0 {
                0.0
            } else {
                // Half-normal-like magnitudes from the sum of two uniforms.
                let u = (bits >> 40) as f32 / (1u64 << 24) as f32;
                let v = ((bits >> 16) & 0xFF_FFFF) as f32 / (1u64 << 24) as f32;
                (u + v - 1.0).abs() * 2.0 + 1e-3
            }
        })
        .collect();
    Matrix::from_vec(RELU_ROWS, RELU_COLS, data).expect("tile data has rows × cols elements")
}

/// The dense weight panel every `relu-fresh` request multiplies by.
pub fn relu_weights(seed: u64) -> Matrix {
    MatrixGenerator::seeded(mix(seed ^ 0x3E1A)).normal(RELU_COLS, RELU_OUT, 0.0, 0.05)
}

/// One push: new values for a few rows of one layer.
#[derive(Debug, Clone)]
pub struct Push {
    /// Index into [`BERT_LAYERS`].
    pub layer: usize,
    /// Changed rows, ascending and distinct.
    pub rows: Vec<usize>,
    /// New contents, one per changed row.
    pub values: Vec<Vec<f32>>,
}

/// The `index`-th push of a run: rotates over the six layers and replaces `count`
/// rows with freshly pruned ones.
pub fn push(seed: u64, index: u64, count: usize) -> Push {
    let layer = (index % BERT_LAYERS.len() as u64) as usize;
    let spec = BERT_LAYERS[layer];
    let mut rng = Rng::new(seed, mix(0xD3B1 ^ index));
    let mut rows: Vec<usize> = Vec::with_capacity(count);
    while rows.len() < count {
        let row = rng.below(spec.rows);
        if !rows.contains(&row) {
            rows.push(row);
        }
    }
    rows.sort_unstable();
    let mut gen = MatrixGenerator::seeded(rng.next());
    let values = rows
        .iter()
        .map(|_| gen.magnitude_pruned(1, spec.cols, spec.sparsity).into_vec())
        .collect();
    Push {
        layer,
        rows,
        values,
    }
}

/// Applies `push` to `weights` in place.
pub fn apply(weights: &mut Matrix, push: &Push) {
    for (&row, values) in push.rows.iter().zip(&push.values) {
        weights.row_mut(row).copy_from_slice(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd::PatternMenu;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(relu_tile(3, 9).as_slice(), relu_tile(3, 9).as_slice());
        assert_ne!(
            relu_tile(3, 9).fingerprint(),
            relu_tile(3, 10).fingerprint()
        );
        assert_ne!(relu_tile(3, 9).fingerprint(), relu_tile(4, 9).fingerprint());
        let a = push(5, 7, 4);
        let b = push(5, 7, 4);
        assert_eq!((a.layer, &a.rows, &a.values), (b.layer, &b.rows, &b.values));
        let mut r1 = Rng::new(1, 2);
        let mut r2 = Rng::new(1, 2);
        assert_eq!(
            poisson_schedule(&mut r1, 50.0, 2.0),
            poisson_schedule(&mut r2, 50.0, 2.0)
        );
    }

    #[test]
    fn relu_tiles_are_about_half_zero() {
        let tile = relu_tile(0, 0);
        let zeros = tile.count_zeros() as f64 / tile.len() as f64;
        assert!((0.45..0.55).contains(&zeros), "{zeros}");
        assert!(tile.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn relu_config_is_what_tasd_a_selects() {
        let config = tasder::tasd_a::select_config(&PatternMenu::vegeta_m8(), 2, 0.5, 0.05)
            .expect("a 50%-sparse input admits a config");
        assert_eq!(config.to_string(), RELU_CONFIG);
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let due = poisson_schedule(&mut Rng::new(11, 0), 100.0, 50.0);
        assert!((4700..5300).contains(&due.len()), "{}", due.len());
    }

    #[test]
    fn every_six_reads_visit_every_layer() {
        for group in 0..20u64 {
            let mut seen: Vec<usize> = (0..6)
                .map(|i| bert_read(9, 3, group * 6 + i).layer)
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn pushes_rotate_and_change_distinct_rows() {
        for index in 0..12 {
            let p = push(0, index, 4);
            assert_eq!(p.layer, index as usize % 6);
            assert_eq!(p.rows.len(), 4);
            assert!(p.rows.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
