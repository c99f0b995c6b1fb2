//! Accelerator configuration shared by all designs (paper §5.1: "All designs use the same
//! memory hierarchy and the same amount of PEs to ensure a fair comparison").

use crate::energy::EnergyModel;

/// The common accelerator configuration: PE-array geometry, clock, memory hierarchy, and
/// energy constants. Individual [`crate::HwDesign`]s change *how* they use these resources,
/// not how many they have.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Number of TASD tensor cores (TTCs) or equivalent sub-arrays.
    pub num_cores: usize,
    /// PE rows per core.
    pub pe_rows: usize,
    /// PE columns per core.
    pub pe_cols: usize,
    /// Clock frequency in GHz (used to convert cycles to seconds).
    pub frequency_ghz: f64,
    /// DRAM bandwidth in 32-bit words per cycle (all cores combined).
    pub dram_words_per_cycle: f64,
    /// L1 scratchpad capacity per core, in KiB.
    pub l1_kib: usize,
    /// L2 scratchpad capacity (shared), in KiB.
    pub l2_kib: usize,
    /// GEMM output-row tile size used by the dataflow model (controls B reuse out of L2).
    pub tile_m: usize,
    /// GEMM output-column tile size (controls A reuse out of the RF).
    pub tile_n: usize,
    /// Energy constants.
    pub energy: EnergyModel,
}

impl AcceleratorConfig {
    /// The default configuration: four 16×16 cores at 1 GHz (1024 MACs/cycle), 64 KiB L1
    /// per core, 2 MiB shared L2, 64 words/cycle of DRAM bandwidth — the same scale as the
    /// four-TTC system of the paper's Fig. 9.
    pub fn standard() -> Self {
        AcceleratorConfig {
            num_cores: 4,
            pe_rows: 16,
            pe_cols: 16,
            frequency_ghz: 1.0,
            dram_words_per_cycle: 64.0,
            l1_kib: 64,
            l2_kib: 2048,
            tile_m: 128,
            tile_n: 128,
            energy: EnergyModel::standard(),
        }
    }

    /// Total MACs the PE arrays can issue per cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        (self.num_cores * self.pe_rows * self.pe_cols) as f64
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_values() {
        let c = AcceleratorConfig::standard();
        assert_eq!(c.macs_per_cycle(), 1024.0);
        assert!(c.frequency_ghz > 0.0);
        assert!(c.dram_words_per_cycle > 0.0);
        assert!(c.tile_m > 0 && c.tile_n > 0);
    }

    #[test]
    fn default_is_standard() {
        assert_eq!(AcceleratorConfig::default(), AcceleratorConfig::standard());
    }
}
