//! TASD series configurations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use tasd_tensor::{NmPattern, TensorError};

/// A TASD series configuration: the ordered list of N:M patterns applied to successive
/// residuals (paper §3.1).
///
/// The first pattern is applied to the original tensor, the second to the first residual,
/// and so on. The paper calls the number of terms the *order* of the series.
///
/// # Example
///
/// ```
/// use tasd::TasdConfig;
///
/// let cfg = TasdConfig::parse("2:4+2:8").unwrap();
/// assert_eq!(cfg.order(), 2);
/// assert_eq!(cfg.to_string(), "2:4+2:8");
/// // A 2:4 term keeps 50% and the 2:8 term keeps another 25%.
/// assert_eq!(cfg.kept_density(), 0.75);
/// assert_eq!(cfg.approximated_sparsity(), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct TasdConfig {
    terms: Vec<NmPattern>,
}

impl TasdConfig {
    /// Creates a configuration from an ordered list of patterns.
    ///
    /// An empty list is allowed and denotes "drop the whole tensor" (order 0); it is useful
    /// as a degenerate baseline but rarely what you want.
    pub fn new(terms: Vec<NmPattern>) -> Self {
        TasdConfig { terms }
    }

    /// Creates a single-term configuration.
    pub fn single(pattern: NmPattern) -> Self {
        TasdConfig {
            terms: vec![pattern],
        }
    }

    /// The identity configuration for block size `m`: a dense `m:m` "pattern" that keeps
    /// everything (used to represent running a layer densely).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or above [`NmPattern::MAX_M`].
    pub fn dense(m: usize) -> Self {
        TasdConfig {
            terms: vec![NmPattern::new(m, m).expect("m:m is valid for 0 < m <= MAX_M")],
        }
    }

    /// Parses a configuration from a string such as `"2:4"`, `"2:4+2:8"` or
    /// `"4:8+2:8+1:8"`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPattern`] if any term is malformed.
    pub fn parse(s: &str) -> Result<Self, TensorError> {
        s.parse()
    }

    /// The patterns of the series, in application order.
    pub fn terms(&self) -> &[NmPattern] {
        &self.terms
    }

    /// Number of terms (the order of the series).
    pub fn order(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the configuration has no terms (approximates everything to zero).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` if the first term already keeps every element (dense execution).
    pub fn is_dense(&self) -> bool {
        self.terms.first().is_some_and(|p| p.is_dense())
    }

    /// Upper bound on the fraction of elements the whole series can keep: `Σ nᵢ/mᵢ`,
    /// clamped to 1. For a tensor dense enough to saturate every term this is exact.
    pub fn kept_density(&self) -> f64 {
        self.terms
            .iter()
            .map(NmPattern::density)
            .sum::<f64>()
            .min(1.0)
    }

    /// The *approximated sparsity* of the configuration (paper §5.3 / Fig. 14 x-axis):
    /// `1 - kept_density`. Both `1:4` and `2:8` have approximated sparsity 0.75; the
    /// series `4:8+1:8` has 0.375.
    pub fn approximated_sparsity(&self) -> f64 {
        1.0 - self.kept_density()
    }

    /// The fraction of MACs a structured accelerator would execute for an operand
    /// saturating this configuration, relative to dense execution. Identical to
    /// [`TasdConfig::kept_density`], provided for readability at call sites that reason
    /// about compute.
    pub fn compute_fraction(&self) -> f64 {
        self.kept_density()
    }

    /// Appends another term to the series, returning the extended configuration.
    #[must_use]
    pub fn with_term(&self, pattern: NmPattern) -> Self {
        let mut terms = self.terms.clone();
        terms.push(pattern);
        TasdConfig { terms }
    }

    /// The sum of N across terms that share the same block size M, if all terms use the
    /// same M. This is the "effective N:M" of the series (e.g. `4:8+1:8` behaves like 5:8);
    /// returns `None` when terms mix block sizes.
    pub fn effective_pattern(&self) -> Option<NmPattern> {
        let m = self.terms.first()?.m();
        if self.terms.iter().any(|p| p.m() != m) {
            return None;
        }
        let n: usize = self.terms.iter().map(NmPattern::n).sum();
        NmPattern::new(n.min(m), m).ok()
    }
}

impl fmt::Display for TasdConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "none");
        }
        let parts: Vec<String> = self.terms.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join("+"))
    }
}

impl FromStr for TasdConfig {
    type Err = TensorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(TasdConfig::new(Vec::new()));
        }
        let mut terms = Vec::new();
        for part in s.split('+') {
            let part = part.trim();
            let (n_str, m_str) = part
                .split_once(':')
                .ok_or(TensorError::InvalidPattern { n: 0, m: 0 })?;
            let n: usize = n_str
                .trim()
                .parse()
                .map_err(|_| TensorError::InvalidPattern { n: 0, m: 0 })?;
            let m: usize = m_str
                .trim()
                .parse()
                .map_err(|_| TensorError::InvalidPattern { n: 0, m: 0 })?;
            terms.push(NmPattern::new(n, m)?);
        }
        Ok(TasdConfig::new(terms))
    }
}

impl From<NmPattern> for TasdConfig {
    fn from(p: NmPattern) -> Self {
        TasdConfig::single(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["2:4", "2:4+2:8", "4:8+2:8+1:8", "1:16"] {
            let cfg = TasdConfig::parse(s).unwrap();
            assert_eq!(cfg.to_string(), s);
        }
        assert_eq!(TasdConfig::parse("none").unwrap().order(), 0);
        assert_eq!(TasdConfig::parse("").unwrap().to_string(), "none");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(TasdConfig::parse("2-4").is_err());
        assert!(TasdConfig::parse("a:4").is_err());
        assert!(TasdConfig::parse("5:4").is_err());
        assert!(TasdConfig::parse("2:4+").is_err());
        // Block sizes are capped at NmPattern::MAX_M.
        assert!(TasdConfig::parse("1:64").is_ok());
        assert!(TasdConfig::parse("1:300").is_err());
    }

    #[test]
    fn densities_accumulate_across_terms() {
        let cfg = TasdConfig::parse("2:4+2:8").unwrap();
        assert!((cfg.kept_density() - 0.75).abs() < 1e-12);
        assert!((cfg.approximated_sparsity() - 0.25).abs() < 1e-12);
        let cfg3 = TasdConfig::parse("2:4+2:8+2:16").unwrap();
        assert!((cfg3.kept_density() - 0.875).abs() < 1e-12);
        // Saturating configurations clamp to 1.
        let all = TasdConfig::parse("4:4+4:4").unwrap();
        assert_eq!(all.kept_density(), 1.0);
    }

    #[test]
    fn dense_and_empty_configs() {
        let dense = TasdConfig::dense(8);
        assert!(dense.is_dense());
        assert_eq!(dense.approximated_sparsity(), 0.0);
        let none = TasdConfig::new(Vec::new());
        assert!(none.is_empty());
        assert_eq!(none.approximated_sparsity(), 1.0);
    }

    #[test]
    fn effective_pattern_for_uniform_block_sizes() {
        let cfg = TasdConfig::parse("4:8+1:8").unwrap();
        assert_eq!(cfg.effective_pattern(), Some(NmPattern::new(5, 8).unwrap()));
        let mixed = TasdConfig::parse("2:4+2:8").unwrap();
        assert_eq!(mixed.effective_pattern(), None);
        let over = TasdConfig::parse("4:8+4:8+4:8").unwrap();
        assert_eq!(
            over.effective_pattern(),
            Some(NmPattern::new(8, 8).unwrap())
        );
    }

    #[test]
    fn with_term_extends() {
        let cfg = TasdConfig::single(NmPattern::new(2, 4).unwrap());
        let ext = cfg.with_term(NmPattern::new(2, 8).unwrap());
        assert_eq!(ext.order(), 2);
        assert_eq!(cfg.order(), 1, "original untouched");
    }

    #[test]
    fn from_pattern_conversion() {
        let cfg: TasdConfig = NmPattern::new(2, 4).unwrap().into();
        assert_eq!(cfg.to_string(), "2:4");
    }
}
