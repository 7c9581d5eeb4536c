//! Mutation self-test: the workspace-semantic rules must *bite*.
//!
//! A coverage rule that is merely silent on the real tree could be
//! silent because it is vacuous. Each test here takes the real workspace
//! sources, deletes exactly one load-bearing line — a capture, a
//! restore, an encode, a merge — and asserts the corresponding rule
//! catches the hole. The baseline (unmutated) workspace must be clean,
//! so each detection is attributable to the single deleted line.

use std::fs;
use std::path::Path;

use lazygraph_lint::{analyze_sources, discover, SourceSpec};

/// Reads the real workspace sources, exactly as `analyze_workspace` does.
fn workspace_sources() -> Vec<SourceSpec> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    discover(&root)
        .into_iter()
        .map(|sf| SourceSpec {
            rel: sf.rel,
            src: fs::read_to_string(&sf.abs).unwrap_or_else(|e| {
                panic!("cannot read {}: {e}", sf.abs.display());
            }),
        })
        .collect()
}

/// Deletes the single line containing `needle` from the file whose
/// workspace-relative path ends with `file_suffix`. Panics if the needle
/// is absent or ambiguous — a rename in the target file should fail the
/// test loudly, not silently mutate nothing.
fn delete_line(sources: &mut [SourceSpec], file_suffix: &str, needle: &str) {
    let spec = sources
        .iter_mut()
        .find(|s| s.rel.ends_with(file_suffix))
        .unwrap_or_else(|| panic!("no source ending with {file_suffix}"));
    let hits = spec.src.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(
        hits, 1,
        "needle `{needle}` must match exactly one line in {file_suffix}, found {hits}"
    );
    spec.src = spec
        .src
        .lines()
        .filter(|l| !l.contains(needle))
        .collect::<Vec<_>>()
        .join("\n");
}

/// Runs the analysis and asserts exactly one finding, of `rule`, whose
/// message mentions `mentions`.
fn assert_single_finding(sources: &[SourceSpec], rule: &str, mentions: &str) {
    let analysis = analyze_sources(sources);
    assert_eq!(
        analysis.findings.len(),
        1,
        "expected exactly one finding, got:\n{}",
        lazygraph_lint::render_human(&analysis.findings)
    );
    let f = &analysis.findings[0];
    assert_eq!(f.rule, rule, "wrong rule: {f:?}");
    assert!(
        f.message.contains(mentions),
        "finding does not mention `{mentions}`: {}",
        f.message
    );
}

#[test]
fn baseline_workspace_is_clean() {
    let analysis = analyze_sources(&workspace_sources());
    assert!(
        analysis.findings.is_empty(),
        "mutation baseline must be clean; findings:\n{}",
        lazygraph_lint::render_human(&analysis.findings)
    );
    assert!(
        analysis.stale_pragmas.is_empty(),
        "mutation baseline must have no stale pragmas:\n{}",
        lazygraph_lint::render_human(&analysis.stale_pragmas)
    );
}

#[test]
fn deleting_a_capture_line_is_caught_by_l7() {
    let mut sources = workspace_sources();
    delete_line(
        &mut sources,
        "engine/src/checkpoint.rs",
        "vdata: state.vdata.clone(),",
    );
    assert_single_finding(&sources, "snapshot-coverage", "vdata");
}

#[test]
fn deleting_a_restore_line_is_caught_by_l7() {
    let mut sources = workspace_sources();
    delete_line(
        &mut sources,
        "engine/src/checkpoint.rs",
        "state.coherent = self.coherent.clone();",
    );
    assert_single_finding(&sources, "snapshot-coverage", "coherent");
}

#[test]
fn deleting_an_encode_line_is_caught_by_l8() {
    let mut sources = workspace_sources();
    delete_line(
        &mut sources,
        "engine/src/checkpoint.rs",
        "self.do_local.encode(out);",
    );
    assert_single_finding(&sources, "wire-symmetry", "do_local");
}

/// The shard file's codec lives in a different file from its struct's
/// declaration; the pairing must still find it.
#[test]
fn deleting_a_shard_encode_line_is_caught_by_l8() {
    let mut sources = workspace_sources();
    delete_line(
        &mut sources,
        "partition/src/distributed/codec.rs",
        "self.out_weights.encode(out);",
    );
    assert_single_finding(&sources, "wire-symmetry", "out_weights");
}

#[test]
fn deleting_a_merge_line_is_caught_by_l9() {
    let mut sources = workspace_sources();
    delete_line(
        &mut sources,
        "cluster/src/stats.rs",
        "self.pool_misses += other.pool_misses;",
    );
    assert_single_finding(&sources, "stats-coverage", "pool_misses");
}
