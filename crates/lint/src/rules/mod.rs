//! The rule set enforcing the determinism & coherency contract.
//!
//! Each rule is a token-sequence heuristic over one file's lexed stream,
//! scoped by crate and target role. DESIGN.md §"The determinism contract
//! as a lint" documents what each rule means and why; this module holds
//! the shared analysis (test-region and function-span detection) plus the
//! registry the driver and the pragma checker consult.

use crate::files::Role;
use crate::lexer::{TokKind, Token};
use crate::report::Finding;

pub mod detached_spawn;
pub mod float_commit;
pub mod lock_order;
pub mod no_panic;
pub mod nondet_source;
pub mod unordered_iter;

/// Identifiers of all real rules (the `pragma` and `stale-pragma`
/// pseudo-rules are implicit).
pub const RULE_IDS: &[&str] = &[
    "unordered-iter",
    "float-commit",
    "nondet-source",
    "no-panic",
    "lock-order",
    "detached-spawn",
];

/// Short per-rule descriptions for `--list-rules`.
pub const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    (
        "unordered-iter",
        "L1: hash-map/set iteration in engine/cluster/partition must be sorted or reduced order-insensitively",
    ),
    (
        "float-commit",
        "L2: float accumulation in engine/src must consume block-ordered (or otherwise ordered) sources",
    ),
    (
        "nondet-source",
        "L3: no wall-clock, thread-id, or unseeded-RNG reads inside engine functions",
    ),
    (
        "no-panic",
        "L4: no unwrap()/expect()/panic! in library crates outside tests",
    ),
    (
        "lock-order",
        "L5: Mutex/RwLock acquisition order must be consistent across cluster functions",
    ),
    (
        "detached-spawn",
        "L6: thread::spawn in engine/cluster must join its JoinHandle (or justify the detach)",
    ),
];

/// A function's location in the token stream.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Index of the `fn` keyword token (into the code-token slice).
    pub start: usize,
    /// Index of the body's closing `}` (inclusive).
    pub end: usize,
}

/// Everything a rule needs to know about one file.
pub struct FileCtx {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate name.
    pub krate: String,
    /// Target role.
    pub role: Role,
    /// Code tokens only (comments stripped).
    pub toks: Vec<Token>,
    /// For each code token, whether it sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Function spans (indices into `toks`).
    pub fns: Vec<FnSpan>,
}

impl FileCtx {
    /// Builds the per-file analysis context from a lexed stream.
    pub fn new(path: &str, krate: &str, role: Role, all_toks: &[Token]) -> Self {
        let toks: Vec<Token> = all_toks.iter().filter(|t| t.is_code()).cloned().collect();
        let in_test = mark_cfg_test(&toks);
        let fns = find_fns(&toks);
        FileCtx {
            path: path.to_string(),
            krate: krate.to_string(),
            role,
            toks,
            in_test,
            fns,
        }
    }

    /// Emits a finding at the line of token `idx`.
    pub fn finding(&self, rule: &'static str, idx: usize, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.clone(),
            line: self.toks.get(idx).map(|t| t.line).unwrap_or(0),
            message,
        }
    }
}

/// Runs every per-file rule over one file context.
pub fn run_all(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(unordered_iter::check(ctx));
    out.extend(float_commit::check(ctx));
    out.extend(nondet_source::check(ctx));
    out.extend(no_panic::check(ctx));
    out.extend(lock_order::check(ctx));
    out.extend(detached_spawn::check(ctx));
    out
}

/// Marks tokens covered by `#[cfg(test)]` items (the attribute plus the
/// brace-matched body of whatever item follows it).
fn mark_cfg_test(toks: &[Token]) -> Vec<bool> {
    let mut marked = vec![false; toks.len()];
    let mut i = 0;
    while i + 5 < toks.len() {
        let is_cfg_test = toks[i].is_punct("#")
            && toks[i + 1].is_punct("[")
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct("(")
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(")");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the item body: first `{` after the attribute, brace-matched.
        let mut j = i + 6;
        while j < toks.len() && !toks[j].is_punct("{") {
            // A `;`-terminated item (e.g. `#[cfg(test)] use ...;`) has no
            // body; mark through the semicolon.
            if toks[j].is_punct(";") {
                break;
            }
            j += 1;
        }
        let end = if j < toks.len() && toks[j].is_punct("{") {
            match_brace(toks, j)
        } else {
            j
        };
        for m in marked.iter_mut().take(end.min(toks.len() - 1) + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    marked
}

/// Returns the index of the `}` matching the `{` at `open` (or the last
/// token if unbalanced).
pub fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Finds function definitions: `fn name ... { body }`.
fn find_fns(toks: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            // Walk to the body `{`, skipping the parameter list (paren
            // matched) so closure braces in default args don't confuse us.
            let mut j = i + 2;
            let mut paren = 0isize;
            while j < toks.len() {
                if toks[j].is_punct("(") {
                    paren += 1;
                } else if toks[j].is_punct(")") {
                    paren -= 1;
                } else if paren == 0 && toks[j].is_punct("{") {
                    break;
                } else if paren == 0 && toks[j].is_punct(";") {
                    // Trait method declaration without body.
                    break;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("{") {
                let end = match_brace(toks, j);
                fns.push(FnSpan { name, start: i, end });
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/engine/src/x.rs", "engine", Role::Lib, &lex(src))
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let c = ctx("fn a() { x(); }\n#[cfg(test)]\nmod tests { fn b() { y(); } }\nfn c() {}");
        let a_idx = c.toks.iter().position(|t| t.is_ident("x")).expect("x");
        let y_idx = c.toks.iter().position(|t| t.is_ident("y")).expect("y");
        let c_idx = c.toks.iter().rposition(|t| t.is_ident("c")).expect("c");
        assert!(!c.in_test[a_idx]);
        assert!(c.in_test[y_idx]);
        assert!(!c.in_test[c_idx]);
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let c = ctx("fn alpha(a: u32) -> u32 { a + 1 }\nimpl T { fn beta(&self) { if x { y() } } }");
        let names: Vec<&str> = c.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        let beta = &c.fns[1];
        assert!(c.toks[beta.end].is_punct("}"));
    }

    #[test]
    fn rule_registry_consistent() {
        assert_eq!(RULE_IDS.len(), RULE_DESCRIPTIONS.len());
        for (id, _) in RULE_DESCRIPTIONS {
            assert!(RULE_IDS.contains(id));
        }
    }
}
