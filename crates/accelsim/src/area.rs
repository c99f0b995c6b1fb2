//! Area model for the TASD-unit extension (paper §5.4).
//!
//! The paper prototypes the TASD units in RTL and synthesizes them with a 15 nm library,
//! reporting ≤ 2 % of the PE-array area. Offline, this module reproduces that estimate from
//! first principles: a TASD unit for block size M is a comparator tree that selects the
//! largest remaining element of an M-element block each cycle, so its size is dominated by
//! `M − 1` comparators plus M small value/index registers, while a PE is a fused
//! multiply-accumulate plus operand registers.

/// Gate-equivalent cost model for the datapath building blocks (32-bit datapath).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Gate equivalents of one 32-bit magnitude comparator.
    pub comparator_ge: f64,
    /// Gate equivalents of one 32-bit register.
    pub register_ge: f64,
    /// Gate equivalents of one 32-bit fused multiply-accumulate unit.
    pub mac_ge: f64,
    /// Gate equivalents of small control/muxing per structured-sparse PE (metadata decode).
    pub pe_sparse_control_ge: f64,
}

impl AreaModel {
    /// Typical standard-cell gate-equivalent counts (32-bit FP datapath: an FP32 FMA is in
    /// the 10–15 k gate-equivalent range, a 32-bit magnitude comparator well under 200).
    pub fn standard() -> Self {
        AreaModel {
            comparator_ge: 150.0,
            register_ge: 150.0,
            mac_ge: 12_000.0,
            pe_sparse_control_ge: 300.0,
        }
    }

    /// Gate equivalents of one TASD unit for block size `m`: an (m−1)-comparator selection
    /// tree plus value and index registers for the block.
    pub fn tasd_unit_ge(&self, m: usize) -> f64 {
        let comparators = (m.saturating_sub(1)) as f64 * self.comparator_ge;
        let registers = m as f64 * (self.register_ge + 0.25 * self.register_ge);
        comparators + registers
    }

    /// Gate equivalents of one PE (MAC + two operand registers + accumulator register).
    pub fn pe_ge(&self) -> f64 {
        self.mac_ge + 3.0 * self.register_ge
    }

    /// Area overhead of adding `tasd_units` TASD units (block size `m`) to a PE array of
    /// `pes` processing elements, as a fraction of the PE-array area.
    pub fn tasd_overhead_fraction(&self, pes: usize, tasd_units: usize, m: usize) -> f64 {
        let pe_array = pes as f64 * self.pe_ge();
        let tasd = tasd_units as f64 * self.tasd_unit_ge(m);
        tasd / pe_array
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::standard()
    }
}

/// The paper's TTC-VEGETA configuration: each 16×16 TTC carries 16 TASD units (enough, by
/// Little's law, to hide the M-cycle decomposition latency of the 2-blocks-per-cycle output
/// stream — §4.4). Returns the TASD-unit area overhead fraction for that configuration.
pub fn ttc_vegeta_overhead(model: &AreaModel, m: usize) -> f64 {
    model.tasd_overhead_fraction(16 * 16, 16, m)
}

/// Minimum number of TASD units per TTC needed to decompose `blocks_per_cycle` output
/// blocks without stalling, when each decomposition takes up to `m` cycles
/// (Little's law: units = rate × latency, §4.4).
pub fn tasd_units_required(blocks_per_cycle: usize, m: usize) -> usize {
    blocks_per_cycle * m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasd_unit_is_tiny_compared_to_a_pe() {
        let a = AreaModel::standard();
        assert!(a.tasd_unit_ge(8) < a.pe_ge());
        assert!(a.tasd_unit_ge(4) < a.tasd_unit_ge(8));
    }

    #[test]
    fn paper_overhead_claim_holds() {
        // 16 TASD units (M=8) on a 256-PE array: at most 2% of the PE-array area.
        let a = AreaModel::standard();
        let overhead = ttc_vegeta_overhead(&a, 8);
        assert!(overhead <= 0.02, "overhead {overhead}");
        assert!(overhead > 0.001, "overhead implausibly small: {overhead}");
    }

    #[test]
    fn littles_law_unit_count() {
        // 2 blocks per cycle, 8-cycle decomposition: 16 units, matching Fig. 10.
        assert_eq!(tasd_units_required(2, 8), 16);
        assert_eq!(tasd_units_required(2, 4), 8);
    }

    #[test]
    fn overhead_scales_with_unit_count() {
        let a = AreaModel::standard();
        let few = a.tasd_overhead_fraction(256, 8, 8);
        let many = a.tasd_overhead_fraction(256, 32, 8);
        assert!(many > few);
        assert!((many / few - 4.0).abs() < 1e-9);
    }
}
