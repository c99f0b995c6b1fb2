//! Pattern-composition algebra: which effective N:M patterns a structured-sparse
//! accelerator can serve once TASD chaining is allowed (paper Table 2).
//!
//! A VEGETA-style engine natively supports {1:8, 2:8, 4:8}. With TASD and up to two terms,
//! any density expressible as the sum of two supported N values becomes available (e.g.
//! 5:8 = 4:8 + 1:8), which is how the paper reaches 7 of the 8 possible N:8 patterns.

use crate::config::TasdConfig;
use serde::{Deserialize, Serialize};
use tasd_tensor::NmPattern;

/// The set of N:M patterns a hardware design supports natively, all sharing one block size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternMenu {
    m: usize,
    /// Natively supported N values, sorted ascending, deduplicated.
    supported_n: Vec<usize>,
    /// Whether the design can also run the operand densely (all designs in the paper can).
    supports_dense: bool,
}

impl PatternMenu {
    /// Creates a menu from the native N values for block size `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or above [`NmPattern::MAX_M`], or any `n` is zero or exceeds
    /// `m`.
    pub fn new(m: usize, native_n: &[usize], supports_dense: bool) -> Self {
        assert!(
            m > 0 && m <= NmPattern::MAX_M,
            "block size must be in 1..={}",
            NmPattern::MAX_M
        );
        let mut supported_n: Vec<usize> = native_n.to_vec();
        for &n in &supported_n {
            assert!(n > 0 && n <= m, "native pattern {n}:{m} is invalid");
        }
        supported_n.sort_unstable();
        supported_n.dedup();
        PatternMenu {
            m,
            supported_n,
            supports_dense,
        }
    }

    /// The menu of an NVIDIA-STC-like design: 2:4 plus dense.
    pub fn stc_m4() -> Self {
        PatternMenu::new(4, &[2], true)
    }

    /// An STC-style design widened to M=8: 4:8 plus dense.
    pub fn stc_m8() -> Self {
        PatternMenu::new(8, &[4], true)
    }

    /// The menu of a VEGETA-like design with M=4: 1:4 and 2:4 plus dense.
    pub fn vegeta_m4() -> Self {
        PatternMenu::new(4, &[1, 2], true)
    }

    /// The menu of a VEGETA-like design with M=8: 1:8, 2:8 and 4:8 plus dense (paper Table 2).
    pub fn vegeta_m8() -> Self {
        PatternMenu::new(8, &[1, 2, 4], true)
    }

    /// Block size M shared by all patterns of this menu.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The natively supported N values (ascending).
    pub fn native_n(&self) -> &[usize] {
        &self.supported_n
    }

    /// Whether dense execution is available.
    pub fn supports_dense(&self) -> bool {
        self.supports_dense
    }

    /// Native patterns as [`NmPattern`]s (excluding dense).
    pub fn native_patterns(&self) -> Vec<NmPattern> {
        self.supported_n
            .iter()
            .map(|&n| NmPattern::new(n, self.m).expect("validated at construction"))
            .collect()
    }

    /// All TASD configurations of at most `max_terms` native terms (order matters for
    /// execution but not for coverage, so terms are emitted in descending N — the greedy
    /// order the decomposition uses).
    pub fn configurations(&self, max_terms: usize) -> Vec<TasdConfig> {
        let mut configs = Vec::new();
        if self.supports_dense {
            configs.push(TasdConfig::dense(self.m));
        }
        let native = self.native_patterns();
        // Multisets of native patterns of size 1..=max_terms, descending N order.
        let mut stack: Vec<Vec<NmPattern>> = vec![Vec::new()];
        for _ in 0..max_terms {
            let mut next = Vec::new();
            for prefix in &stack {
                let start_n = prefix.last().map_or(usize::MAX, |p| p.n());
                for &pat in native.iter().rev() {
                    if pat.n() <= start_n {
                        let mut ext = prefix.clone();
                        ext.push(pat);
                        next.push(ext);
                    }
                }
            }
            for combo in &next {
                let total_n: usize = combo.iter().map(NmPattern::n).sum();
                if total_n <= self.m {
                    configs.push(TasdConfig::new(combo.clone()));
                }
            }
            stack = next;
        }
        configs.sort();
        configs.dedup();
        // Two configurations with the same effective density behave identically on the
        // PE array (e.g. 1:8+1:8 vs 2:8), but the longer series costs an extra
        // decomposition pass and extra output-tile traffic — and a single native term can
        // be honoured even by hardware without TASD units. Keep only the shortest series
        // per effective density.
        configs.sort_by(|a, b| {
            a.kept_density()
                .partial_cmp(&b.kept_density())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.order().cmp(&b.order()))
        });
        configs.dedup_by(|a, b| (a.kept_density() - b.kept_density()).abs() < 1e-12);
        configs
    }

    /// For each target pattern `n:m` (n in `1..=m`), the cheapest TASD series (fewest
    /// terms) of native patterns whose N values sum to exactly `n`, using at most
    /// `max_terms` terms. This reproduces the paper's Table 2.
    pub fn compose_table(&self, max_terms: usize) -> Vec<ComposedPattern> {
        compose_pattern_table(self, max_terms)
    }

    /// The best (largest effective N) configuration with at most `max_terms` terms whose
    /// effective density does not exceed `max_density`. Returns `None` when even the
    /// sparsest native pattern exceeds the bound.
    pub fn densest_config_within(&self, max_density: f64, max_terms: usize) -> Option<TasdConfig> {
        let mut best: Option<TasdConfig> = None;
        for cfg in self.configurations(max_terms) {
            if cfg.is_dense() {
                if max_density >= 1.0 {
                    return Some(cfg);
                }
                continue;
            }
            if cfg.kept_density() <= max_density + 1e-12 {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        cfg.kept_density() > b.kept_density()
                            || (cfg.kept_density() == b.kept_density() && cfg.order() < b.order())
                    }
                };
                if better {
                    best = Some(cfg);
                }
            }
        }
        best
    }
}

/// One row of the pattern-composition table: a target N:M pattern and how (or whether) it
/// can be served by a TASD series over the menu's native patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComposedPattern {
    /// The target effective pattern.
    pub target: NmPattern,
    /// The series achieving it, or `None` if it cannot be composed within the term limit.
    pub series: Option<TasdConfig>,
}

impl ComposedPattern {
    /// Whether the target can be served.
    pub fn is_supported(&self) -> bool {
        self.series.is_some()
    }
}

/// Computes the composition table for every target `n:m`, `n = 1..=m` (paper Table 2).
///
/// The dense target `m:m` is reported as supported via dense execution when the menu
/// allows it.
pub fn compose_pattern_table(menu: &PatternMenu, max_terms: usize) -> Vec<ComposedPattern> {
    let m = menu.m();
    (1..=m)
        .map(|target_n| {
            let target = NmPattern::new(target_n, m).expect("1..=m is valid");
            let series = if target_n == m && menu.supports_dense() {
                Some(TasdConfig::dense(m))
            } else {
                cheapest_sum(menu.native_n(), target_n, max_terms).map(|ns| {
                    TasdConfig::new(
                        ns.iter()
                            .map(|&n| NmPattern::new(n, m).expect("native n validated"))
                            .collect(),
                    )
                })
            };
            ComposedPattern { target, series }
        })
        .collect()
}

/// Finds the shortest multiset of values from `candidates` summing exactly to `target`,
/// using at most `max_terms` values. Larger values are preferred first so the returned
/// series matches the greedy decomposition order (e.g. 6 = 4 + 2, not 2 + 2 + 2).
fn cheapest_sum(candidates: &[usize], target: usize, max_terms: usize) -> Option<Vec<usize>> {
    fn rec(
        candidates: &[usize],
        target: usize,
        remaining_terms: usize,
        max_value: usize,
    ) -> Option<Vec<usize>> {
        if target == 0 {
            return Some(Vec::new());
        }
        if remaining_terms == 0 {
            return None;
        }
        for &c in candidates.iter().rev() {
            if c <= target && c <= max_value {
                if let Some(mut rest) = rec(candidates, target - c, remaining_terms - 1, c) {
                    rest.insert(0, c);
                    return Some(rest);
                }
            }
        }
        None
    }
    // Try shorter series first so the result uses the fewest terms.
    for terms in 1..=max_terms {
        if let Some(r) = rec(candidates, target, terms, usize::MAX) {
            if r.len() == terms {
                return Some(r);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_vegeta_m8_with_two_terms() {
        // Paper Table 2: with {1:8, 2:8, 4:8} and <=2 TASD terms, every N:8 except 7:8 is
        // supported; 8:8 is dense.
        let menu = PatternMenu::vegeta_m8();
        let table = menu.compose_table(2);
        let expect: &[(usize, Option<&str>)] = &[
            (1, Some("1:8")),
            (2, Some("2:8")),
            (3, Some("2:8+1:8")),
            (4, Some("4:8")),
            (5, Some("4:8+1:8")),
            (6, Some("4:8+2:8")),
            (7, None),
            (8, Some("8:8")),
        ];
        for (row, &(n, series)) in table.iter().zip(expect) {
            assert_eq!(row.target.n(), n);
            match series {
                Some(s) => {
                    assert_eq!(
                        row.series.as_ref().map(|c| c.to_string()),
                        Some(s.to_string()),
                        "target {n}:8"
                    );
                }
                None => assert!(!row.is_supported(), "target {n}:8 should be unsupported"),
            }
        }
        assert_eq!(table.iter().filter(|r| r.is_supported()).count(), 7);
    }

    #[test]
    fn table2_with_three_terms_covers_7_of_8() {
        let menu = PatternMenu::vegeta_m8();
        let table = menu.compose_table(3);
        let seven = table.iter().find(|r| r.target.n() == 7).unwrap();
        assert_eq!(
            seven.series.as_ref().map(|c| c.to_string()),
            Some("4:8+2:8+1:8".to_string())
        );
        assert!(table.iter().all(ComposedPattern::is_supported));
    }

    #[test]
    fn stc_m4_limited_menu() {
        let menu = PatternMenu::stc_m4();
        let table = menu.compose_table(2);
        // Only 2:4 (native), 4:4 (dense via 2+2 or dense) are reachable; 1:4 and 3:4 are not.
        assert!(!table[0].is_supported()); // 1:4
        assert!(table[1].is_supported()); // 2:4
        assert!(!table[2].is_supported()); // 3:4
        assert!(table[3].is_supported()); // 4:4
    }

    #[test]
    fn vegeta_m4_reaches_three_quarters() {
        let menu = PatternMenu::vegeta_m4();
        let table = menu.compose_table(2);
        let three = table.iter().find(|r| r.target.n() == 3).unwrap();
        assert_eq!(
            three.series.as_ref().map(|c| c.to_string()),
            Some("2:4+1:4".to_string())
        );
    }

    #[test]
    fn configurations_respect_term_and_density_limits() {
        let menu = PatternMenu::vegeta_m8();
        let cfgs = menu.configurations(2);
        assert!(cfgs.iter().all(|c| c.order() <= 2 || c.is_dense()));
        // No configuration keeps more than the full block.
        assert!(cfgs
            .iter()
            .all(|c| c.terms().iter().map(NmPattern::n).sum::<usize>() <= 8));
        // The dense configuration is present exactly once.
        assert_eq!(cfgs.iter().filter(|c| c.is_dense()).count(), 1);
        // 4:8+1:8 must be among them.
        assert!(cfgs.iter().any(|c| c.to_string() == "4:8+1:8"));
    }

    #[test]
    fn densest_config_within_budget() {
        let menu = PatternMenu::vegeta_m8();
        // Budget 70% density: best is 5/8 = 62.5% via 4:8+1:8.
        let best = menu.densest_config_within(0.70, 2).unwrap();
        assert_eq!(best.to_string(), "4:8+1:8");
        // Budget 100%: dense.
        assert!(menu.densest_config_within(1.0, 2).unwrap().is_dense());
        // Budget 10%: even 1:8 (12.5%) is too dense.
        assert!(menu.densest_config_within(0.10, 2).is_none());
        // Budget 12.5% exactly admits 1:8.
        assert_eq!(
            menu.densest_config_within(0.125, 2).unwrap().to_string(),
            "1:8"
        );
    }

    #[test]
    fn cheapest_sum_prefers_fewest_then_largest_terms() {
        assert_eq!(cheapest_sum(&[1, 2, 4], 6, 2), Some(vec![4, 2]));
        assert_eq!(cheapest_sum(&[1, 2, 4], 4, 2), Some(vec![4]));
        assert_eq!(cheapest_sum(&[1, 2, 4], 7, 2), None);
        assert_eq!(cheapest_sum(&[1, 2, 4], 7, 3), Some(vec![4, 2, 1]));
        assert_eq!(cheapest_sum(&[2], 3, 4), None);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn menu_rejects_invalid_native_pattern() {
        let _ = PatternMenu::new(4, &[5], true);
    }
}
