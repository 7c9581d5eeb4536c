//! L6 `detached-spawn`: no fire-and-forget `std::thread::spawn` in the
//! engine or cluster crates.
//!
//! A spawned thread whose `JoinHandle` is dropped unjoined cannot
//! propagate its panic or its typed error back to the machine loop; in
//! the cluster crates a silently-dead helper thread wedges its peers at
//! the next coherency barrier instead of failing fast. Every spawn must
//! either bind its handle (so something joins it) or carry a line pragma
//! justifying the detach — e.g. a thread that blocks on a peer's frame
//! and would deadlock a clean shutdown if joined.
//!
//! The heuristic: a `thread::spawn(...)` (optionally `std::`-qualified)
//! whose call expression is a `;`-terminated statement — or whose handle
//! is bound to `_` — is detached. Handles that are bound to a name,
//! passed as an argument, returned, or immediately chained (`.join()`)
//! pass.

use crate::files::Role;
use crate::report::Finding;
use crate::rules::FileCtx;

/// Crates in scope: the machine loops and the transport/runtime layer.
const SCOPED_CRATES: &[&str] = &["engine", "cluster"];

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    if ctx.role != Role::Lib || !SCOPED_CRATES.contains(&ctx.krate.as_str()) {
        return Vec::new();
    }
    let toks = &ctx.toks;
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        // `thread :: spawn (` — optionally preceded by `std ::`.
        if !(i + 3 < toks.len()
            && toks[i].is_ident("thread")
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("spawn")
            && toks[i + 3].is_punct("("))
        {
            continue;
        }
        let path_start = if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("std") {
            i - 2
        } else {
            i
        };
        if is_detached(ctx, path_start, i + 3) {
            findings.push(ctx.finding(
                "detached-spawn",
                i + 2,
                "`thread::spawn` with its JoinHandle dropped unjoined; bind and join the \
                 handle so failures propagate, or justify the detach with a pragma"
                    .to_string(),
            ));
        }
    }
    findings
}

/// Decides whether the spawn call starting at `path_start` (with its
/// argument list opening at `open_paren`) discards the `JoinHandle`.
fn is_detached(ctx: &FileCtx, path_start: usize, open_paren: usize) -> bool {
    let toks = &ctx.toks;
    // What consumes the call's value? Look at the token before the path.
    if path_start > 0 {
        let prev = &toks[path_start - 1];
        if prev.is_punct("=") {
            // Bound — unless the binding is the wildcard `let _ = ...`.
            return path_start >= 3
                && toks[path_start - 2].is_ident("_")
                && toks[path_start - 3].is_ident("let");
        }
        // Argument position (`push(spawn(..))`, `Some(spawn(..))`, tuple or
        // arg list element) or explicit `return`: the handle is consumed.
        if prev.is_punct("(") || prev.is_punct(",") || prev.is_ident("return") {
            return false;
        }
    }
    // Expression statement or tail expression: detached iff the call is
    // `;`-terminated with nothing chained after it.
    let close = match_paren(ctx, open_paren);
    match toks.get(close + 1) {
        Some(t) => t.is_punct(";"),
        // Tail expression of the file's last fn: the handle is returned.
        None => false,
    }
}

/// Returns the index of the `)` matching the `(` at `open` (or the last
/// token if unbalanced).
fn match_paren(ctx: &FileCtx, open: usize) -> usize {
    let toks = &ctx.toks;
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings_at(path: &str, krate: &str, role: Role, src: &str) -> Vec<Finding> {
        let ctx = FileCtx::new(path, krate, role, &lex(src));
        check(&ctx)
    }

    fn cluster(src: &str) -> Vec<Finding> {
        findings_at("crates/cluster/src/transport.rs", "cluster", Role::Lib, src)
    }

    #[test]
    fn statement_spawn_fires() {
        let f = cluster("fn f() { std::thread::spawn(move || { loop {} }); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("JoinHandle"));
    }

    #[test]
    fn unqualified_statement_spawn_fires() {
        let f = cluster("fn f() { thread::spawn(|| work()); }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wildcard_binding_fires() {
        let f = cluster("fn f() { let _ = std::thread::spawn(|| work()); }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn named_binding_is_silent() {
        let src = "fn f() { let h = std::thread::spawn(|| work()); h.join().ok(); }";
        assert!(cluster(src).is_empty());
    }

    #[test]
    fn tail_expression_is_silent() {
        // Handle returned to the caller (a spawn helper's shape).
        let src = "fn f() -> JoinHandle<()> { std::thread::spawn(move || { run() }) }";
        assert!(cluster(src).is_empty());
    }

    #[test]
    fn argument_position_is_silent() {
        let src = "fn f(v: &mut Vec<JoinHandle<()>>) { v.push(std::thread::spawn(|| work())); }";
        assert!(cluster(src).is_empty());
    }

    #[test]
    fn immediate_join_chain_is_silent() {
        let src = "fn f() { std::thread::spawn(|| work()).join().ok(); }";
        assert!(cluster(src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_and_roles_are_silent() {
        let src = "fn f() { std::thread::spawn(|| work()); }";
        assert!(findings_at("crates/net/src/tcp.rs", "net", Role::Lib, src).is_empty());
        assert!(findings_at("crates/cluster/tests/t.rs", "cluster", Role::Tests, src).is_empty());
        assert!(findings_at("src/bin/cli.rs", "lazygraph", Role::Bin, src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_silent() {
        let src = "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| work()); } }";
        assert!(cluster(src).is_empty());
    }

    #[test]
    fn pragma_escapes() {
        let src = "fn f() {\n    // lazylint: allow(detached-spawn) -- reader exits on Shutdown\n    std::thread::spawn(|| work());\n}";
        assert!(crate::analyze_file("crates/cluster/src/transport.rs", src).is_empty());
    }
}
