//! # lazygraph-lint
//!
//! An offline, registry-free static analyzer enforcing the workspace's
//! determinism & coherency contract as six named rules:
//!
//! | id | meaning |
//! |----|---------|
//! | `unordered-iter`    | L1: hash-container iteration in `engine`/`cluster`/`partition` must be sorted or reduced order-insensitively |
//! | `float-commit`      | L2: float accumulation under `engine/src` must consume ordered (block-committed) sources |
//! | `nondet-source`     | L3: no wall-clock / thread-id / unseeded-RNG reads in engine functions |
//! | `no-panic`          | L4: no `unwrap()`/`expect()`/`panic!` in library crates outside tests |
//! | `lock-order`        | L5: Mutex/RwLock acquisition order consistent across the `cluster` crate |
//! | `detached-spawn`    | L6: `thread::spawn` in `engine`/`cluster` must join its `JoinHandle` |
//!
//! All six are per-file token heuristics; `lock-order` additionally checks
//! that the acquisition order it saw is consistent across files. What the
//! retired L7–L9 policed (snapshot coverage, `Wire` symmetry, counter
//! coverage) is declared once and checked by rustc — see DESIGN.md §13.
//!
//! Suppression: `// lazylint: allow(rule-id) -- reason` (line-scoped) or
//! `// lazylint: allow-file(rule-id) -- reason` (whole file). The reason
//! is mandatory. A pragma that no longer suppresses anything is reported
//! through the `stale-pragma` channel (`lazylint --stale-pragmas`), so
//! justifications cannot outlive the code they excuse.
//!
//! The analyzer is a hand-rolled lexer plus token-sequence heuristics —
//! no `syn`, no registry access — so it builds and runs in the same
//! hermetic container as the rest of the workspace.

use std::fs;
use std::path::Path;

pub mod files;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;

pub use files::{classify, discover, Role, SourceFile};
pub use report::{render_human, render_json, Finding, REPORT_VERSION};
pub use rules::{RULE_DESCRIPTIONS, RULE_IDS};

use rules::FileCtx;

/// One source file handed to [`analyze_sources`]: a workspace-relative
/// path (which decides crate and role scoping) plus its contents.
#[derive(Clone, Debug)]
pub struct SourceSpec {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// File contents.
    pub src: String,
}

/// The outcome of a workspace analysis.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Rule findings that survived pragma suppression, plus pragma-syntax
    /// findings, in deterministic `(file, line, rule, message)` order.
    pub findings: Vec<Finding>,
    /// `stale-pragma` findings: suppressions that matched nothing this
    /// run. Kept out of `findings` because staleness is a property of the
    /// *pragma*, not the code, and is gated separately in CI.
    pub stale_pragmas: Vec<Finding>,
}

/// Analyzes a set of sources as one workspace: per-file rules on each
/// file, then `lock-order`'s order consistency over the union. Pragmas are
/// applied per file with usage tracking — a pragma that suppressed nothing
/// becomes a `stale-pragma` finding.
pub fn analyze_sources(sources: &[SourceSpec]) -> Analysis {
    let mut raw = Vec::new();
    let mut all_acq: Vec<Vec<rules::lock_order::Acquisition>> = Vec::new();
    let mut lexed: Vec<(String, Vec<lexer::Token>)> = Vec::new();

    for spec in sources {
        let Some((krate, role)) = files::classify(&spec.rel) else {
            continue;
        };
        let toks = lexer::lex(&spec.src);
        let ctx = FileCtx::new(&spec.rel, &krate, role, &toks);
        raw.extend(rules::unordered_iter::check(&ctx));
        raw.extend(rules::float_commit::check(&ctx));
        raw.extend(rules::nondet_source::check(&ctx));
        raw.extend(rules::no_panic::check(&ctx));
        raw.extend(rules::detached_spawn::check(&ctx));
        all_acq.extend(rules::lock_order::acquisitions(&ctx));
        lexed.push((spec.rel.clone(), toks));
    }

    raw.extend(rules::lock_order::cross_check(&all_acq));

    // Pragma application, one pass per file, with usage tracking.
    let mut findings = Vec::new();
    let mut stale = Vec::new();
    for (rel, toks) in &lexed {
        let mut mine = Vec::new();
        raw.retain(|f| {
            if &f.file == rel {
                mine.push(f.clone());
                false
            } else {
                true
            }
        });
        let (pragmas, mut pragma_findings) = pragma::collect(toks, rel, RULE_IDS);
        let code_lines: Vec<u32> = {
            let mut v: Vec<u32> = toks.iter().filter(|t| t.is_code()).map(|t| t.line).collect();
            v.dedup();
            v
        };
        let (mut kept, used) = pragma::suppress_tracked(mine, &pragmas, &code_lines);
        findings.append(&mut kept);
        findings.append(&mut pragma_findings);
        for (p, was_used) in pragmas.iter().zip(used) {
            if !was_used {
                stale.push(Finding {
                    rule: "stale-pragma",
                    file: rel.clone(),
                    line: p.line,
                    message: format!(
                        "`allow{}({})` suppresses nothing — the finding it excused is gone; \
                         delete the pragma (its reason was: {})",
                        if p.file_wide { "-file" } else { "" },
                        p.rule,
                        p.reason
                    ),
                });
            }
        }
    }
    findings.extend(raw); // findings in files we never lexed (none in practice)

    report::sort_findings(&mut findings);
    report::sort_findings(&mut stale);
    Analysis {
        findings,
        stale_pragmas: stale,
    }
}

/// Analyzes one file's source under a virtual workspace-relative path
/// (the path decides crate and role scoping). Pragmas are honoured;
/// malformed pragmas are reported; stale pragmas are *not* (fixtures
/// legitimately carry pragmas whose findings depend on context the fixture
/// omits). This is the entry point the fixture tests drive.
pub fn analyze_file(virtual_path: &str, src: &str) -> Vec<Finding> {
    analyze_sources(&[SourceSpec {
        rel: virtual_path.to_string(),
        src: src.to_string(),
    }])
    .findings
}

/// Discovers and analyzes the whole workspace rooted at `root`,
/// returning the full [`Analysis`] (findings + stale pragmas).
pub fn analyze_workspace_full(root: &Path) -> Analysis {
    let mut sources = Vec::new();
    let mut unreadable = Vec::new();
    for sf in files::discover(root) {
        match fs::read_to_string(&sf.abs) {
            Ok(src) => sources.push(SourceSpec { rel: sf.rel, src }),
            Err(e) => unreadable.push(Finding {
                rule: "pragma",
                file: sf.rel.clone(),
                line: 0,
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    let mut analysis = analyze_sources(&sources);
    analysis.findings.extend(unreadable);
    report::sort_findings(&mut analysis.findings);
    analysis
}

/// Analyzes the whole workspace rooted at `root`, returning the findings
/// only (the historical entry point; see [`analyze_workspace_full`] for
/// stale-pragma reporting).
pub fn analyze_workspace(root: &Path) -> Vec<Finding> {
    analyze_workspace_full(root).findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_file_scopes_by_virtual_path() {
        let src = "fn f() { let x = g().unwrap(); }";
        assert_eq!(analyze_file("crates/graph/src/io.rs", src).len(), 1);
        assert!(analyze_file("crates/graph/tests/io.rs", src).is_empty());
        assert!(analyze_file("shims/rand/src/lib.rs", src).is_empty());
    }

    #[test]
    fn pragma_round_trip() {
        let src = "fn f() { let x = g().unwrap(); // lazylint: allow(no-panic) -- boot path\n }";
        assert!(analyze_file("crates/graph/src/io.rs", src).is_empty());
    }

    #[test]
    fn unjustified_pragma_is_reported() {
        let src = "fn f() { let x = g().unwrap(); // lazylint: allow(no-panic)\n }";
        let f = analyze_file("crates/graph/src/io.rs", src);
        // unwrap still fires AND the malformed pragma fires.
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.rule == "no-panic"));
        assert!(f.iter().any(|x| x.rule == "pragma"));
    }

    #[test]
    fn stale_pragma_is_reported_via_the_side_channel() {
        let src = "fn f() { g(); // lazylint: allow(no-panic) -- nothing here anymore\n }";
        let a = analyze_sources(&[SourceSpec {
            rel: "crates/graph/src/io.rs".into(),
            src: src.into(),
        }]);
        assert!(a.findings.is_empty());
        assert_eq!(a.stale_pragmas.len(), 1);
        assert_eq!(a.stale_pragmas[0].rule, "stale-pragma");
        assert!(a.stale_pragmas[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn used_pragma_is_not_stale() {
        let src = "fn f() { let x = g().unwrap(); // lazylint: allow(no-panic) -- boot path\n }";
        let a = analyze_sources(&[SourceSpec {
            rel: "crates/graph/src/io.rs".into(),
            src: src.into(),
        }]);
        assert!(a.findings.is_empty());
        assert!(a.stale_pragmas.is_empty());
    }

    #[test]
    fn findings_order_is_deterministic() {
        let spec = SourceSpec {
            rel: "crates/graph/src/io.rs".into(),
            src: "fn f() { a().unwrap(); b().unwrap(); }\nfn g() { c().unwrap(); }".into(),
        };
        let a1 = analyze_sources(std::slice::from_ref(&spec));
        let a2 = analyze_sources(&[spec]);
        assert_eq!(a1.findings, a2.findings);
        let lines: Vec<u32> = a1.findings.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
