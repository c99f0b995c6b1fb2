//! Per-access energy constants.
//!
//! Absolute values follow the usual accelerator-modelling ballpark (Eyeriss / Sparseloop
//! style, ~45 nm class, 32-bit words): what matters for reproducing the paper's trends is
//! the *relative* ordering — DRAM ≫ L2 SMEM > L1 SMEM > RF ≳ MAC — which determines where
//! data reuse pays off and how much skipping ineffectual compute helps.

/// Energy cost (picojoules) of one access / operation at each level of the design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One 32-bit DRAM access.
    pub dram_pj: f64,
    /// One 32-bit access to the shared L2 scratchpad.
    pub l2_pj: f64,
    /// One 32-bit access to a TTC-local L1 scratchpad.
    pub l1_pj: f64,
    /// One 32-bit register-file access inside a PE.
    pub rf_pj: f64,
    /// One multiply-accumulate operation.
    pub mac_pj: f64,
    /// One element passing through a TASD unit (comparator-tree compare/select step).
    pub tasd_unit_pj: f64,
    /// Extra per-MAC energy an unstructured design pays for indexing/intersection logic.
    pub unstructured_index_pj: f64,
}

impl EnergyModel {
    /// The default energy model used throughout the reproduction.
    pub fn standard() -> Self {
        EnergyModel {
            dram_pj: 160.0,
            l2_pj: 12.0,
            l1_pj: 2.5,
            rf_pj: 0.25,
            mac_pj: 1.0,
            tasd_unit_pj: 0.12,
            unstructured_index_pj: 0.9,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_ordering_holds() {
        let e = EnergyModel::standard();
        assert!(e.dram_pj > e.l2_pj);
        assert!(e.l2_pj > e.l1_pj);
        assert!(e.l1_pj > e.rf_pj);
        assert!(e.mac_pj > e.rf_pj);
        assert!(
            e.tasd_unit_pj < e.l1_pj,
            "TASD unit must be cheaper than an SMEM access"
        );
        assert!(e.unstructured_index_pj < e.mac_pj * 2.0);
    }

    #[test]
    fn default_matches_standard() {
        assert_eq!(EnergyModel::default(), EnergyModel::standard());
    }
}
