//! The hardware designs compared in the paper (Table 3 plus the appendix ablation).

use std::fmt;
use tasd::PatternMenu;

/// A hardware design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwDesign {
    /// Dense tensor core (TC): no sparsity support.
    DenseTc,
    /// Dual-side sparse tensor core (DSTC): unstructured sparsity on both operands, at the
    /// cost of indexing/merging overheads and load imbalance.
    Dstc,
    /// TASD tensor core built on an STC-like engine with M=4: native 2:4 plus dense,
    /// TASD limited to one term.
    TtcStcM4,
    /// TASD tensor core built on an STC-like engine widened to M=8: native 4:8 plus dense.
    TtcStcM8,
    /// TASD tensor core built on a VEGETA-like engine with M=4: native {1:4, 2:4}, TASD up
    /// to two terms (adds 3:4).
    TtcVegetaM4,
    /// TASD tensor core built on a VEGETA-like engine with M=8: native {1:8, 2:8, 4:8},
    /// TASD up to two terms (adds 3:8, 5:8, 6:8) — paper Table 2.
    TtcVegetaM8,
    /// A plain VEGETA engine with the M=8 menu but *no* TASD units: it can only exploit
    /// weights that are already structured-pruned (appendix Fig. 19 ablation).
    Vegeta,
}

impl HwDesign {
    /// The six designs of the paper's main comparison (Fig. 12/13), in presentation order.
    pub fn main_comparison() -> [HwDesign; 6] {
        [
            HwDesign::DenseTc,
            HwDesign::Dstc,
            HwDesign::TtcStcM4,
            HwDesign::TtcStcM8,
            HwDesign::TtcVegetaM4,
            HwDesign::TtcVegetaM8,
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            HwDesign::DenseTc => "TC",
            HwDesign::Dstc => "DSTC",
            HwDesign::TtcStcM4 => "TTC-STC-M4",
            HwDesign::TtcStcM8 => "TTC-STC-M8",
            HwDesign::TtcVegetaM4 => "TTC-VEGETA-M4",
            HwDesign::TtcVegetaM8 => "TTC-VEGETA-M8",
            HwDesign::Vegeta => "VEGETA",
        }
    }

    /// The structured-sparsity pattern menu this design supports natively, or `None` for
    /// designs with no structured support (dense TC, DSTC).
    pub fn pattern_menu(&self) -> Option<PatternMenu> {
        match self {
            HwDesign::DenseTc | HwDesign::Dstc => None,
            HwDesign::TtcStcM4 => Some(PatternMenu::stc_m4()),
            HwDesign::TtcStcM8 => Some(PatternMenu::stc_m8()),
            HwDesign::TtcVegetaM4 => Some(PatternMenu::vegeta_m4()),
            HwDesign::TtcVegetaM8 | HwDesign::Vegeta => Some(PatternMenu::vegeta_m8()),
        }
    }

    /// Maximum number of TASD terms the design can chain (0 for designs without TASD
    /// units: dense TC, DSTC, and the plain VEGETA ablation point).
    pub fn max_tasd_terms(&self) -> usize {
        match self {
            HwDesign::DenseTc | HwDesign::Dstc | HwDesign::Vegeta => 0,
            HwDesign::TtcStcM4 | HwDesign::TtcStcM8 => 1,
            HwDesign::TtcVegetaM4 | HwDesign::TtcVegetaM8 => 2,
        }
    }

    /// Whether the design has TASD units and can therefore decompose *activations*
    /// dynamically at runtime (TASD-A). Weight-side decomposition is an offline software
    /// transform and only requires the structured menu.
    pub fn supports_dynamic_decomposition(&self) -> bool {
        self.max_tasd_terms() > 0
    }

    /// Whether the design natively handles unstructured sparsity in both operands.
    pub fn supports_unstructured(&self) -> bool {
        matches!(self, HwDesign::Dstc)
    }

    /// Whether the design can gate MAC energy for zero operands on the *streaming* side
    /// (the paper's "gating the compute units for sparse activations"). Structured designs
    /// and DSTC can; the dense TC cannot.
    pub fn supports_operand_gating(&self) -> bool {
        !matches!(self, HwDesign::DenseTc)
    }

    /// Relative area of the design's PE array and sparsity logic, normalized to the dense
    /// TC (= 1.0). Structured support costs a few percent (metadata muxing); TASD units add
    /// ≈2 % more (§5.4); DSTC-class unstructured support costs ≈35 % extra
    /// (SIGMA/SCNN-class overheads, §2.3).
    pub fn relative_area(&self) -> f64 {
        match self {
            HwDesign::DenseTc => 1.00,
            HwDesign::Dstc => 1.35,
            HwDesign::Vegeta => 1.05,
            HwDesign::TtcStcM4 | HwDesign::TtcStcM8 => 1.05 + 0.02,
            HwDesign::TtcVegetaM4 | HwDesign::TtcVegetaM8 => 1.05 + 0.02,
        }
    }
}

impl fmt::Display for HwDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_comparison_matches_table3() {
        let designs = HwDesign::main_comparison();
        assert_eq!(designs.len(), 6);
        assert_eq!(designs[0].label(), "TC");
        assert_eq!(designs[5].label(), "TTC-VEGETA-M8");
    }

    #[test]
    fn pattern_menus_match_table3() {
        assert!(HwDesign::DenseTc.pattern_menu().is_none());
        assert!(HwDesign::Dstc.pattern_menu().is_none());
        assert_eq!(HwDesign::TtcStcM4.pattern_menu().unwrap().native_n(), &[2]);
        assert_eq!(HwDesign::TtcStcM8.pattern_menu().unwrap().native_n(), &[4]);
        assert_eq!(
            HwDesign::TtcVegetaM8.pattern_menu().unwrap().native_n(),
            &[1, 2, 4]
        );
        assert_eq!(HwDesign::TtcVegetaM4.pattern_menu().unwrap().m(), 4);
    }

    #[test]
    fn tasd_term_limits() {
        assert_eq!(HwDesign::DenseTc.max_tasd_terms(), 0);
        assert_eq!(HwDesign::TtcStcM4.max_tasd_terms(), 1);
        assert_eq!(HwDesign::TtcVegetaM8.max_tasd_terms(), 2);
        assert_eq!(HwDesign::Vegeta.max_tasd_terms(), 0);
        assert!(HwDesign::TtcVegetaM8.supports_dynamic_decomposition());
        assert!(!HwDesign::Vegeta.supports_dynamic_decomposition());
    }

    #[test]
    fn vegeta_with_tasd_covers_more_patterns_than_without() {
        // Table 2: the VEGETA menu natively has 3 sparse patterns; with 2 TASD terms the
        // TTC reaches 6 sparse patterns (+ dense).
        let menu = HwDesign::TtcVegetaM8.pattern_menu().unwrap();
        let native = menu.native_patterns().len();
        let with_tasd = menu
            .compose_table(HwDesign::TtcVegetaM8.max_tasd_terms())
            .iter()
            .filter(|r| r.is_supported() && !r.series.as_ref().unwrap().is_dense())
            .count();
        assert_eq!(native, 3);
        assert_eq!(with_tasd, 6);
    }

    #[test]
    fn area_ordering() {
        assert!(HwDesign::Dstc.relative_area() > HwDesign::TtcVegetaM8.relative_area());
        assert!(HwDesign::TtcVegetaM8.relative_area() > HwDesign::DenseTc.relative_area());
        assert!(HwDesign::TtcVegetaM8.relative_area() > HwDesign::Vegeta.relative_area());
        // TASD unit overhead is ~2% on top of the structured design.
        let tasd_overhead =
            HwDesign::TtcVegetaM8.relative_area() - HwDesign::Vegeta.relative_area();
        assert!((tasd_overhead - 0.02).abs() < 1e-9);
    }

    #[test]
    fn gating_support() {
        assert!(!HwDesign::DenseTc.supports_operand_gating());
        assert!(HwDesign::Dstc.supports_operand_gating());
        assert!(HwDesign::TtcVegetaM8.supports_operand_gating());
        assert!(HwDesign::Dstc.supports_unstructured());
        assert!(!HwDesign::TtcVegetaM8.supports_unstructured());
    }
}
