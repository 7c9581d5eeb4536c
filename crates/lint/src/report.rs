//! Findings and report rendering (human and JSON).

use std::fmt::Write as _;

/// JSON report schema version. Bumped when the shape changes:
/// 1 — `{count, findings}`; 2 — adds this `version` field (and the
/// `stale-pragma` channel upstream).
pub const REPORT_VERSION: u32 = 2;

/// Sorts findings into the canonical deterministic order:
/// `(file, line, rule, message)`. Every rendered report and every CI run
/// goes through this, so textual diffs between runs are meaningful.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`unordered-iter`, `no-panic`, …, or `pragma` for
    /// malformed suppressions).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Human one-liner: `path:line: [rule] message`.
    pub fn human(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Renders findings in the human format, one per line, followed by a
/// summary line.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.human());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("lazygraph-lint: no findings\n");
    } else {
        let _ = writeln!(out, "lazygraph-lint: {} finding(s)", findings.len());
    }
    out
}

/// Renders findings as a JSON document:
/// `{"version": V, "count": N, "findings": [{"rule": ..., "file": ...,
/// "line": N, "message": ...}]}`. Hand-rolled (no serde in this
/// container).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": {REPORT_VERSION},");
    let _ = writeln!(out, "  \"count\": {},", findings.len());
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        );
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "no-panic",
            file: "crates/engine/src/driver.rs".into(),
            line: 42,
            message: "`unwrap()` in library code — propagate a typed error".into(),
        }]
    }

    #[test]
    fn human_format_has_span() {
        let h = render_human(&sample());
        assert!(h.contains("crates/engine/src/driver.rs:42: [no-panic]"));
        assert!(h.contains("1 finding(s)"));
    }

    #[test]
    fn json_is_escaped_and_parsable_shape() {
        let findings = vec![Finding {
            rule: "pragma",
            file: "a\\b.rs".into(),
            line: 1,
            message: "quote \" and newline \n inside".into(),
        }];
        let j = render_json(&findings);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("a\\\\b.rs"));
        assert!(j.contains("\\\" and newline \\n"));
    }

    #[test]
    fn empty_report() {
        assert!(render_human(&[]).contains("no findings"));
        assert!(render_json(&[]).contains("\"count\": 0"));
    }

    #[test]
    fn json_carries_schema_version() {
        let j = render_json(&sample());
        assert!(j.contains(&format!("\"version\": {REPORT_VERSION}")));
    }

    #[test]
    fn sort_is_total_including_message() {
        let mk = |line: u32, rule: &'static str, msg: &str| Finding {
            rule,
            file: "a.rs".into(),
            line,
            message: msg.into(),
        };
        let mut v = vec![
            mk(2, "no-panic", "zz"),
            mk(2, "no-panic", "aa"),
            mk(1, "pragma", "x"),
        ];
        sort_findings(&mut v);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].message, "aa");
        assert_eq!(v[2].message, "zz");
    }
}
