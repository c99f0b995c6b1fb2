//! Workspace source discovery: collects `.rs` files under the configured include
//! roots, skipping excluded prefixes, and returns deterministic repo-relative paths.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::Config;

/// Collects every `.rs` file under `root` selected by the config, sorted by path.
/// Returned paths are repo-relative with `/` separators (stable across platforms,
/// and what the lock registry's `file` prefixes match against).
pub fn collect_sources(root: &Path, config: &Config) -> io::Result<Vec<String>> {
    let mut found = Vec::new();
    for include in &config.include {
        let dir = root.join(include);
        if !dir.exists() {
            continue;
        }
        visit(root, &dir, config, &mut found)?;
    }
    found.sort();
    found.dedup();
    Ok(found)
}

fn visit(root: &Path, dir: &Path, config: &Config, found: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let rel = relative(root, &path);
        if is_excluded(&rel, config) {
            continue;
        }
        if path.is_dir() {
            // Never descend into build output even if it is not listed explicitly.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            visit(root, &path, config, found)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            found.push(rel);
        }
    }
    Ok(())
}

fn is_excluded(rel: &str, config: &Config) -> bool {
    config
        .exclude
        .iter()
        .any(|prefix| rel == prefix || rel.starts_with(&format!("{prefix}/")))
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusion_matches_path_prefixes_only() {
        let config = Config {
            exclude: vec!["crates/compat".to_string()],
            ..Config::default()
        };
        assert!(is_excluded("crates/compat", &config));
        assert!(is_excluded("crates/compat/rand/src/lib.rs", &config));
        assert!(!is_excluded("crates/compatible/src/lib.rs", &config));
        assert!(!is_excluded("crates/core/src/lib.rs", &config));
    }
}
