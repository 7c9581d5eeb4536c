//! Workspace file discovery and role classification.
//!
//! The analyzer walks the source tree itself instead of asking cargo, so
//! it works in the registry-less container and needs no build. Paths are
//! normalised to `/`-separated, workspace-relative form; every rule keys
//! off the [`Role`] and crate name derived here.

use std::fs;
use std::path::{Path, PathBuf};

/// What kind of target a file belongs to. Rules use this to scope
/// themselves (e.g. `no-panic` exempts everything but `Lib`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Library code: `src/` of any crate, outside `src/bin/`.
    Lib,
    /// Binary targets: `src/bin/*`, `src/main.rs`.
    Bin,
    /// Integration tests: any `tests/` directory.
    Tests,
    /// Bench targets: any `benches/` directory.
    Benches,
    /// Examples: any `examples/` directory.
    Examples,
}

/// A discovered source file with its classification.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative, `/`-separated path (also used in reports).
    pub rel: String,
    /// Owning crate (directory under `crates/`, or `lazygraph` for the
    /// root package).
    pub krate: String,
    /// Target role.
    pub role: Role,
}

/// Classifies a workspace-relative `/`-separated path. Returns `None` for
/// files the analyzer should not look at (shims, fixtures, build output).
pub fn classify(rel: &str) -> Option<(String, Role)> {
    if rel.starts_with("target/")
        || rel.starts_with("shims/")
        || rel.contains("/fixtures/")
        || rel.starts_with(".")
    {
        return None;
    }
    let krate = if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or_default().to_string()
    } else {
        "lazygraph".to_string()
    };
    if krate.is_empty() {
        return None;
    }
    let role = if rel.contains("/src/bin/")
        || rel.starts_with("src/bin/")
        || rel.ends_with("/src/main.rs")
        || rel == "src/main.rs"
    {
        Role::Bin
    } else if rel.contains("/tests/") || rel.starts_with("tests/") {
        Role::Tests
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        Role::Benches
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        Role::Examples
    } else if rel.contains("/src/") || rel.starts_with("src/") {
        Role::Lib
    } else {
        // A stray .rs outside any target layout (e.g. build.rs): treat as
        // library code so nothing silently escapes the contract.
        Role::Lib
    };
    Some((krate, role))
}

/// Recursively collects every `.rs` file under `root` that [`classify`]
/// accepts. IO errors on individual entries are skipped, not fatal: a
/// half-readable tree still gets a best-effort report.
pub fn discover(root: &Path) -> Vec<SourceFile> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "shims" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = match path.strip_prefix(root) {
                    Ok(r) => r.to_string_lossy().replace('\\', "/"),
                    Err(_) => continue,
                };
                if let Some((krate, role)) = classify(&rel) {
                    out.push(SourceFile {
                        abs: path,
                        rel,
                        krate,
                        role,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_layout() {
        assert_eq!(
            classify("crates/engine/src/driver.rs"),
            Some(("engine".into(), Role::Lib))
        );
        assert_eq!(
            classify("crates/bench/src/bin/fig9.rs"),
            Some(("bench".into(), Role::Bin))
        );
        assert_eq!(
            classify("crates/cluster/tests/mesh.rs"),
            Some(("cluster".into(), Role::Tests))
        );
        assert_eq!(
            classify("crates/bench/benches/engines.rs"),
            Some(("bench".into(), Role::Benches))
        );
        assert_eq!(
            classify("src/lib.rs"),
            Some(("lazygraph".into(), Role::Lib))
        );
        assert_eq!(
            classify("src/bin/lazygraph-cli.rs"),
            Some(("lazygraph".into(), Role::Bin))
        );
        assert_eq!(
            classify("tests/determinism.rs"),
            Some(("lazygraph".into(), Role::Tests))
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            Some(("lazygraph".into(), Role::Examples))
        );
    }

    #[test]
    fn excluded_trees() {
        assert_eq!(classify("shims/rand/src/lib.rs"), None);
        assert_eq!(classify("target/debug/build/foo.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/bad/x.rs"), None);
    }

    #[test]
    fn discovers_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = discover(&root);
        assert!(files.iter().any(|f| f.rel == "crates/engine/src/driver.rs"));
        assert!(!files.iter().any(|f| f.rel.starts_with("shims/")));
        assert!(!files.iter().any(|f| f.rel.contains("fixtures/")));
    }
}
