//! Matrix Market (`.mtx`) coordinate-format I/O — the interchange format
//! of the SuiteSparse collection, where many of the paper's graph classes
//! are published.
//!
//! Supported: `%%MatrixMarket matrix coordinate (real|pattern|integer)
//! (general|symmetric)`. Pattern matrices get unit weights; symmetric
//! matrices are expanded to both directions; 1-based indices are converted
//! to 0-based vertex ids.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::io::invalid;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Pattern,
    Integer,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Loads a Matrix Market coordinate file as a directed graph (row → col).
/// Self-loops are dropped; duplicate entries keep the minimum weight.
pub fn load_matrix_market<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut header = String::new();
    reader.read_line(&mut header)?;
    let header = header.trim().to_ascii_lowercase();
    let mut parts = header.split_whitespace();
    if parts.next() != Some("%%matrixmarket") || parts.next() != Some("matrix") {
        return Err(invalid("not a MatrixMarket matrix file".into()));
    }
    if parts.next() != Some("coordinate") {
        return Err(invalid("only coordinate format is supported".into()));
    }
    let field = match parts.next() {
        Some("real") => Field::Real,
        Some("pattern") => Field::Pattern,
        Some("integer") => Field::Integer,
        other => return Err(invalid(format!("unsupported field {other:?}"))),
    };
    let symmetry = match parts.next() {
        Some("general") => Symmetry::General,
        Some("symmetric") => Symmetry::Symmetric,
        other => return Err(invalid(format!("unsupported symmetry {other:?}"))),
    };

    // Size line: first non-comment line.
    let mut size_line = String::new();
    loop {
        size_line.clear();
        if reader.read_line(&mut size_line)? == 0 {
            return Err(invalid("missing size line".into()));
        }
        let t = size_line.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break;
        }
    }
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| invalid(format!("size line: {e}"))))
        .collect::<Result<_, _>>()?;
    let [rows, cols, nnz] = dims[..] else {
        return Err(invalid("size line needs rows cols nnz".into()));
    };
    // The size line is untrusted: an entry is at least `r c` and a line
    // break, so a file cannot hold more of them than a quarter of its length.
    if nnz as u64 > file_len.saturating_add(1) / 4 {
        return Err(invalid(format!(
            "size line claims {nnz} entries, a {file_len}-byte file cannot hold them"
        )));
    }
    if rows.max(cols) > u32::MAX as usize {
        return Err(invalid(format!("{rows}x{cols} overflows 32-bit ids")));
    }
    let n = rows.max(cols);
    let mut builder = GraphBuilder::new(n.max(1));
    builder.reserve(if symmetry == Symmetry::Symmetric {
        nnz * 2
    } else {
        nnz
    });
    let mut seen = 0usize;
    let mut line = String::new();
    while seen < nnz {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid(format!("expected {nnz} entries, got {seen}")));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| invalid("missing row".into()))?
            .parse()
            .map_err(|e| invalid(format!("row: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| invalid("missing col".into()))?
            .parse()
            .map_err(|e| invalid(format!("col: {e}")))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(invalid(format!("entry ({r},{c}) out of bounds")));
        }
        let w: f32 = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .ok_or_else(|| invalid("missing value".into()))?
                .parse()
                .map_err(|e| invalid(format!("value: {e}")))?,
        };
        let (src, dst) = (r - 1, c - 1);
        if src != dst {
            builder.add_weighted_edge(src, dst, w);
            if symmetry == Symmetry::Symmetric {
                builder.add_weighted_edge(dst, src, w);
            }
        }
        seen += 1;
    }
    builder.dedup();
    Ok(builder.build())
}

/// Writes `graph` as `%%MatrixMarket matrix coordinate real general`.
pub fn save_matrix_market<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(out, "% generated by lazygraph")?;
    writeln!(
        out,
        "{} {} {}",
        graph.num_vertices(),
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.edges() {
        writeln!(out, "{} {} {}", e.src.0 + 1, e.dst.0 + 1, e.weight)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, RmatConfig};
    use crate::io::canonical_edges;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lazygraph-mtx-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip() {
        let g = rmat(RmatConfig::weblike(7, 4, 51));
        let path = tmp("rt.mtx");
        save_matrix_market(&g, &path).unwrap();
        let g2 = load_matrix_market(&path).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(canonical_edges(&g), canonical_edges(&g2));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pattern_symmetric() {
        let path = tmp("sym.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern symmetric\n\
             % a triangle\n\
             3 3 3\n1 2\n2 3\n3 1\n",
        )
        .unwrap();
        let g = load_matrix_market(&path).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6, "symmetric expansion");
        assert!(g.edges().all(|e| e.weight == 1.0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn drops_self_loops_and_dedups() {
        let path = tmp("loops.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n\
             3 3 4\n1 1 9.0\n1 2 5.0\n1 2 2.0\n2 3 1.5\n",
        )
        .unwrap();
        let g = load_matrix_market(&path).unwrap();
        assert_eq!(g.num_edges(), 2);
        let w01 = g
            .edges()
            .find(|e| e.src.0 == 0 && e.dst.0 == 1)
            .unwrap()
            .weight;
        assert_eq!(w01, 2.0, "dedup keeps minimum weight");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_bad_header_and_bounds() {
        let path = tmp("bad.mtx");
        std::fs::write(&path, "%%MatrixMarket matrix array real general\n2 2 1\n1 1 1\n").unwrap();
        assert!(load_matrix_market(&path).is_err());
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        )
        .unwrap();
        assert!(load_matrix_market(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    /// The size line's entry count used to be doubled and reserved as read.
    #[test]
    fn an_entry_count_the_file_cannot_hold_is_refused_unreserved() {
        let path = tmp("nnz.mtx");
        for nnz in [usize::MAX, usize::MAX / 2 + 1, 1 << 40, 4] {
            std::fs::write(
                &path,
                format!("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 {nnz}\n1 2\n"),
            )
            .unwrap();
            let err = load_matrix_market(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{nnz}: {err}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rectangular_uses_max_dimension() {
        let path = tmp("rect.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n2 5 2\n1 5\n2 3\n",
        )
        .unwrap();
        let g = load_matrix_market(&path).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(path).ok();
    }
}
