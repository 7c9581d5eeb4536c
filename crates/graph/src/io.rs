//! Graph serialisation: a human-readable edge-list text format (compatible
//! with SNAP-style files, `#`-prefixed comments) and a compact little-endian
//! binary format for fast reloads of generated benchmark inputs.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::types::{Edge, VertexId};

const BINARY_MAGIC: &[u8; 8] = b"LZGRAPH1";
/// Magic, vertex count, edge count, symmetry flag.
const BINARY_HEADER_LEN: u64 = 8 + 8 + 8 + 1;
/// `src`, `dst`, `weight`: four bytes each.
const BINARY_RECORD_LEN: u64 = 12;

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Appends `v` in decimal, as `Display` prints it.
fn push_decimal(out: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut first = digits.len();
    loop {
        first -= 1;
        digits[first] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[first..]);
}

/// Writes `graph` as a text edge list: one `src dst weight` triple per line.
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(
        out,
        "# LazyGraph edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    // One reused line, ids and integral weights (what every unweighted
    // graph has) written digit by digit; only a fractional weight goes
    // through the float formatter, whose text the fast path reproduces.
    let mut line: Vec<u8> = Vec::new();
    for e in graph.edges() {
        line.clear();
        push_decimal(&mut line, e.src.0);
        line.push(b' ');
        push_decimal(&mut line, e.dst.0);
        line.push(b' ');
        let integral = e.weight as u32;
        if integral as f32 == e.weight && integral < 1 << 24 && e.weight.is_sign_positive() {
            push_decimal(&mut line, integral);
        } else {
            write!(line, "{}", e.weight)?;
        }
        line.push(b'\n');
        out.write_all(&line)?;
    }
    out.flush()
}

/// Loads a text edge list. Lines starting with `#` or `%` are comments; each
/// data line is `src dst [weight]`. The vertex count is
/// `max(id) + 1` unless `num_vertices` is given, in which case an id at or
/// above it is `InvalidData` naming the line.
///
/// Every line is parsed out of one reused buffer straight into the edge
/// storage the [`GraphBuilder`] then owns, so the text, a staging vector
/// and the builder's copy never coexist.
pub fn load_edge_list<P: AsRef<Path>>(path: P, num_vertices: Option<usize>) -> io::Result<Graph> {
    let mut reader = BufReader::new(File::open(path)?);
    // Sized once: a line count first, so the edges never sit in a vector
    // that is being regrown. Comment lines make it an over-count; a data
    // line is at least `s d` and a line break, which bounds it by the
    // file's length whatever the line breaks say.
    let (mut lines, mut bytes) = (1usize, 0usize);
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        lines += buf.iter().filter(|&&b| b == b'\n').count();
        bytes += buf.len();
        let read = buf.len();
        reader.consume(read);
    }
    reader.rewind()?;
    let mut edges: Vec<Edge> = Vec::with_capacity(lines.min(bytes / 4 + 1));
    let mut max_id: u32 = 0;
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let mut id = |what: &str| -> io::Result<u32> {
            it.next()
                .ok_or_else(|| invalid(format!("line {lineno}: missing {what}")))?
                .parse()
                .map_err(|e| invalid(format!("line {lineno}: {e}")))
        };
        let (src, dst) = (id("source")?, id("target")?);
        let weight: f32 = match it.next() {
            Some(tok) => tok
                .parse()
                .map_err(|e| invalid(format!("line {lineno}: {e}")))?,
            None => 1.0,
        };
        max_id = max_id.max(src).max(dst);
        if num_vertices.is_some_and(|n| max_id as usize >= n) {
            return Err(invalid(format!(
                "line {lineno}: edge {src}->{dst} out of range {}",
                num_vertices.unwrap_or_default()
            )));
        }
        edges.push(Edge::weighted(src, dst, weight));
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() { 0 } else { max_id as usize + 1 });
    Ok(GraphBuilder::with_edges(n.max(1), edges).build())
}

/// Writes `graph` in the compact binary format.
pub fn save_binary<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(BINARY_MAGIC)?;
    out.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    out.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    out.write_all(&[graph.is_symmetric() as u8])?;
    for e in graph.edges() {
        out.write_all(&e.src.0.to_le_bytes())?;
        out.write_all(&e.dst.0.to_le_bytes())?;
        out.write_all(&e.weight.to_le_bytes())?;
    }
    out.flush()
}

/// Whether the file at `path` starts with the binary format's magic. A
/// file that cannot be opened or is shorter is not binary: the loader it
/// is handed to instead reports why.
pub fn is_binary<P: AsRef<Path>>(path: P) -> bool {
    let mut magic = [0u8; 8];
    File::open(path).is_ok_and(|mut f| f.read_exact(&mut magic).is_ok() && &magic == BINARY_MAGIC)
}

/// Loads a graph written by [`save_binary`].
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(invalid("bad magic".into()));
    }
    let mut u64buf = [0u8; 8];
    reader.read_exact(&mut u64buf)?;
    let n = u64::from_le_bytes(u64buf) as usize;
    reader.read_exact(&mut u64buf)?;
    let m = u64::from_le_bytes(u64buf) as usize;
    let mut flag = [0u8; 1];
    reader.read_exact(&mut flag)?;
    // The header is untrusted: reserve only what the file can back.
    let body = file_len.saturating_sub(BINARY_HEADER_LEN);
    if m as u64 > body / BINARY_RECORD_LEN {
        return Err(invalid(format!(
            "header claims {m} edges, the file holds {}",
            body / BINARY_RECORD_LEN
        )));
    }
    if n > u32::MAX as usize + 1 {
        return Err(invalid(format!("{n} vertices overflow 32-bit ids")));
    }
    let mut builder = GraphBuilder::new(n);
    builder.reserve(m);
    let mut rec = [0u8; BINARY_RECORD_LEN as usize];
    for _ in 0..m {
        reader.read_exact(&mut rec)?;
        let src = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        let dst = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
        let w = f32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]);
        if src as usize >= n || dst as usize >= n {
            return Err(invalid(format!("edge {src}->{dst} out of range {n}")));
        }
        builder.add_weighted_edge(src, dst, w);
    }
    if flag[0] == 1 {
        // Re-tag symmetry (structure already contains both directions).
        builder.symmetrize();
    }
    Ok(builder.build())
}

/// Returns sorted `(src, dst, weight-bits)` triples — a canonical form for
/// equality checks in tests.
pub fn canonical_edges(graph: &Graph) -> Vec<(VertexId, VertexId, u32)> {
    let mut v: Vec<_> = graph
        .edges()
        .map(|e| (e.src, e.dst, e.weight.to_bits()))
        .collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, RmatConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lazygraph-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn text_roundtrip() {
        let g = rmat(RmatConfig::graph500(7, 4, 11));
        let path = tmp("text.el");
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path, Some(g.num_vertices())).unwrap();
        assert_eq!(canonical_edges(&g), canonical_edges(&g2));
        std::fs::remove_file(path).ok();
    }

    /// The digit-by-digit writer and its integral-weight fast path print
    /// what `Display` prints, so files are byte for byte what they were.
    #[test]
    fn text_is_what_display_prints() {
        let weights = [
            0.0, -0.0, 1.0, 63.0, 0.5, -1.0, 1.5e-42, 16_777_215.0, 16_777_216.0, 3.0e9, 1.0e10,
            f32::MAX, f32::INFINITY, f32::NAN,
        ];
        let edges: Vec<Edge> = weights
            .iter()
            .zip([0u32, 9, 10, 123_456, 99_999])
            .cycle()
            .take(weights.len())
            .map(|(&w, id)| Edge::weighted(id, 99_999 - id.min(99_999), w))
            .collect();
        let g = Graph::from_edges(123_457, &edges);
        let path = tmp("display.el");
        save_edge_list(&g, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let want: String = std::iter::once(format!(
            "# LazyGraph edge list: {} vertices, {} edges\n",
            g.num_vertices(),
            g.num_edges()
        ))
        .chain(g.edges().map(|e| format!("{} {} {}\n", e.src, e.dst, e.weight)))
        .collect();
        assert_eq!(text, want);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_roundtrip() {
        let g = rmat(RmatConfig::weblike(7, 4, 12));
        let path = tmp("bin.lzg");
        save_binary(&g, &path).unwrap();
        let g2 = load_binary(&path).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(canonical_edges(&g), canonical_edges(&g2));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_default_weight() {
        let path = tmp("comments.el");
        std::fs::write(&path, "# header\n% more\n0 1\n1 2 3.5\n\n").unwrap();
        let g = load_edge_list(&path, None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        let weights: Vec<f32> = g.edges().map(|e| e.weight).collect();
        assert!(weights.contains(&1.0));
        assert!(weights.contains(&3.5));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage.el");
        std::fs::write(&path, "0 not_a_number\n").unwrap();
        assert!(load_edge_list(&path, None).is_err());
        std::fs::remove_file(path).ok();
    }

    /// `Some(n)` with an id at or past `n` used to reach the builder's
    /// range assertion.
    #[test]
    fn an_id_past_the_given_vertex_count_names_its_line() {
        let path = tmp("range.el");
        std::fs::write(&path, "# header\n0 1\n1 4 2.5\n").unwrap();
        let err = load_edge_list(&path, Some(4)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("line 3") && msg.contains("1->4") && msg.contains("range 4"),
            "{msg}"
        );
        assert_eq!(load_edge_list(&path, Some(5)).unwrap().num_vertices(), 5);
        assert_eq!(load_edge_list(&path, None).unwrap().num_vertices(), 5);
        std::fs::remove_file(path).ok();
    }

    /// The header's edge count used to be reserved as read.
    #[test]
    fn an_edge_count_the_file_cannot_hold_is_refused_unreserved() {
        let path = tmp("count.lzg");
        let file = |edges: u64, records: usize| {
            let mut bytes = BINARY_MAGIC.to_vec();
            bytes.extend_from_slice(&3u64.to_le_bytes());
            bytes.extend_from_slice(&edges.to_le_bytes());
            bytes.push(0);
            for _ in 0..records {
                bytes.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x80, 0x3f]);
            }
            std::fs::write(&path, bytes).unwrap();
        };
        for (edges, records) in [(u64::MAX, 0), (1 << 40, 2), (3, 2)] {
            file(edges, records);
            let err = load_binary(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{edges}: {err}");
            let holds = format!("the file holds {records}");
            assert!(err.to_string().contains(&holds), "{err}");
        }
        file(2, 2);
        assert_eq!(load_binary(&path).unwrap().num_edges(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic.lzg");
        std::fs::write(&path, b"NOTMAGIC________").unwrap();
        assert!(load_binary(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}
