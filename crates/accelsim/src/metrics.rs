//! Per-layer and per-network performance/energy metrics.

use std::ops::Add;

/// Energy consumed at each level of the design, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// DRAM access energy.
    pub dram: f64,
    /// L2 scratchpad access energy.
    pub l2: f64,
    /// L1 scratchpad access energy.
    pub l1: f64,
    /// Register-file access energy.
    pub rf: f64,
    /// MAC (compute) energy, including any unstructured indexing overhead.
    pub mac: f64,
    /// TASD-unit (dynamic decomposition) energy.
    pub tasd_unit: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.dram + self.l2 + self.l1 + self.rf + self.mac + self.tasd_unit
    }

    /// The breakdown as `(label, value)` pairs, in hierarchy order.
    pub fn components(&self) -> [(&'static str, f64); 6] {
        [
            ("DRAM", self.dram),
            ("L2 SMEM", self.l2),
            ("L1 SMEM", self.l1),
            ("RF", self.rf),
            ("MAC", self.mac),
            ("TASD unit", self.tasd_unit),
        ]
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            dram: self.dram + rhs.dram,
            l2: self.l2 + rhs.l2,
            l1: self.l1 + rhs.l1,
            rf: self.rf + rhs.rf,
            mac: self.mac + rhs.mac,
            tasd_unit: self.tasd_unit + rhs.tasd_unit,
        }
    }
}

/// Simulation result for one layer on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetrics {
    /// Layer name.
    pub name: String,
    /// Execution cycles (the max of the compute and DRAM-bandwidth bounds).
    pub cycles: f64,
    /// Energy by level.
    pub energy: EnergyBreakdown,
    /// Effectual MACs actually executed.
    pub effectual_macs: f64,
    /// Dense MACs of the layer (for utilization/skip reporting).
    pub dense_macs: f64,
}

impl LayerMetrics {
    /// Total energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Latency in seconds at the given clock frequency.
    pub fn latency_s(&self, frequency_ghz: f64) -> f64 {
        self.cycles / (frequency_ghz * 1e9)
    }

    /// Energy-delay product in joule-seconds at the given clock frequency.
    pub fn edp(&self, frequency_ghz: f64) -> f64 {
        (self.energy_pj() * 1e-12) * self.latency_s(frequency_ghz)
    }

    /// Fraction of dense MACs that were skipped.
    pub fn mac_reduction(&self) -> f64 {
        if self.dense_macs == 0.0 {
            0.0
        } else {
            1.0 - self.effectual_macs / self.dense_macs
        }
    }
}

/// Aggregated metrics for a whole network on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkMetrics {
    /// Design label these metrics belong to.
    pub design: String,
    /// Per-layer results, in network order.
    pub layers: Vec<LayerMetrics>,
    /// Clock frequency used for latency/EDP conversion.
    pub frequency_ghz: f64,
}

impl NetworkMetrics {
    /// Total cycles across layers (layers execute sequentially).
    pub fn total_cycles(&self) -> f64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total energy in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.layers.iter().map(LayerMetrics::energy_pj).sum()
    }

    /// Summed energy breakdown across layers.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        self.layers
            .iter()
            .fold(EnergyBreakdown::default(), |acc, l| acc + l.energy)
    }

    /// End-to-end latency in seconds.
    pub fn total_latency_s(&self) -> f64 {
        self.total_cycles() / (self.frequency_ghz * 1e9)
    }

    /// End-to-end energy-delay product in joule-seconds.
    pub fn edp(&self) -> f64 {
        (self.total_energy_pj() * 1e-12) * self.total_latency_s()
    }

    /// Total effectual MACs.
    pub fn total_effectual_macs(&self) -> f64 {
        self.layers.iter().map(|l| l.effectual_macs).sum()
    }

    /// Total dense MACs.
    pub fn total_dense_macs(&self) -> f64 {
        self.layers.iter().map(|l| l.dense_macs).sum()
    }

    /// Overall MAC reduction versus dense execution.
    pub fn mac_reduction(&self) -> f64 {
        if self.total_dense_macs() == 0.0 {
            0.0
        } else {
            1.0 - self.total_effectual_macs() / self.total_dense_macs()
        }
    }

    /// Metrics for a single layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerMetrics> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// Ratio helpers for "normalized to the dense TC" reporting used by every figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedMetrics {
    /// Latency relative to the baseline (lower is better).
    pub latency: f64,
    /// Energy relative to the baseline.
    pub energy: f64,
    /// EDP relative to the baseline.
    pub edp: f64,
}

impl NormalizedMetrics {
    /// Normalizes `metrics` against `baseline`.
    pub fn against(metrics: &NetworkMetrics, baseline: &NetworkMetrics) -> Self {
        NormalizedMetrics {
            latency: metrics.total_cycles() / baseline.total_cycles().max(f64::MIN_POSITIVE),
            energy: metrics.total_energy_pj() / baseline.total_energy_pj().max(f64::MIN_POSITIVE),
            edp: metrics.edp() / baseline.edp().max(f64::MIN_POSITIVE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, cycles: f64, mac_energy: f64) -> LayerMetrics {
        LayerMetrics {
            name: name.to_string(),
            cycles,
            energy: EnergyBreakdown {
                dram: 10.0,
                l2: 5.0,
                l1: 2.0,
                rf: 1.0,
                mac: mac_energy,
                tasd_unit: 0.5,
            },
            effectual_macs: 100.0,
            dense_macs: 200.0,
        }
    }

    #[test]
    fn breakdown_total_and_components() {
        let b = layer("x", 1.0, 3.0).energy;
        assert!((b.total_pj() - 21.5).abs() < 1e-12);
        assert_eq!(b.components().len(), 6);
        let sum: f64 = b.components().iter().map(|(_, v)| v).sum();
        assert!((sum - b.total_pj()).abs() < 1e-12);
    }

    #[test]
    fn layer_metric_derivations() {
        let l = layer("x", 1000.0, 3.0);
        assert_eq!(l.mac_reduction(), 0.5);
        assert!((l.latency_s(1.0) - 1e-6).abs() < 1e-18);
        let edp = l.edp(1.0);
        assert!((edp - 21.5e-12 * 1e-6).abs() < 1e-24);
    }

    #[test]
    fn network_aggregation() {
        let net = NetworkMetrics {
            design: "TC".to_string(),
            layers: vec![layer("a", 100.0, 1.0), layer("b", 300.0, 2.0)],
            frequency_ghz: 1.0,
        };
        assert_eq!(net.total_cycles(), 400.0);
        assert!((net.total_energy_pj() - (19.5 + 20.5)).abs() < 1e-9);
        assert_eq!(net.total_effectual_macs(), 200.0);
        assert_eq!(net.mac_reduction(), 0.5);
        assert!(net.layer("a").is_some());
        assert!(net.layer("c").is_none());
        let bd = net.energy_breakdown();
        assert!((bd.dram - 20.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_against_baseline() {
        let base = NetworkMetrics {
            design: "TC".to_string(),
            layers: vec![layer("a", 200.0, 10.0)],
            frequency_ghz: 1.0,
        };
        let better = NetworkMetrics {
            design: "TTC".to_string(),
            layers: vec![layer("a", 100.0, 10.0)],
            frequency_ghz: 1.0,
        };
        let norm = NormalizedMetrics::against(&better, &base);
        assert!((norm.latency - 0.5).abs() < 1e-12);
        assert!((norm.energy - 1.0).abs() < 1e-12);
        assert!((norm.edp - 0.5).abs() < 1e-12);
    }
}
