//! Graph serialisation: a human-readable edge-list text format (compatible
//! with SNAP-style files, `#`-prefixed comments) and a compact little-endian
//! binary format for fast reloads of generated benchmark inputs.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::csr::{Csr, WalkChanged};
use crate::graph::Graph;
use crate::types::VertexId;

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
/// Two reads of the file fill the CSR in place (`Csr::try_by_rows`): the
/// first parses and checks every line and counts each source's edges and
/// the largest id, the second parses each line again and drops its edge
/// into its row's next slot. A row lists its edges in file order, and no
/// edge list is staged beside the CSR. Lines are parsed as bytes where the
/// reader buffered them; whitespace is the ASCII set `str::trim` knows, and
/// a byte outside ASCII is part of a token.
pub fn load_edge_list<P: AsRef<Path>>(path: P, num_vertices: Option<usize>) -> io::Result<Graph> {
    let mut reader = BufReader::new(File::open(path)?);
    // The first read checks ids against `num_vertices`, the second against
    // the count the first found: a file rewritten in between cannot name a
    // vertex the rows were not laid out for.
    let mut limit = num_vertices;
    let out = Csr::try_by_rows(|sink| {
        reader.rewind()?;
        let mut max_id: Option<u32> = None;
        for_each_line(&mut reader, |lineno, line| {
            let Some((src, dst, weight)) = parse_line(lineno, line)? else {
                return Ok(());
            };
            if let Some(n) = limit.filter(|&n| src.max(dst) as usize >= n) {
                return Err(invalid(format!("line {lineno}: edge {src}->{dst} out of range {n}")));
            }
            max_id = max_id.max(Some(src.max(dst)));
            sink(VertexId(src), VertexId(dst), weight);
            Ok(())
        })?;
        let n = limit.unwrap_or(max_id.map_or(0, |id| id as usize + 1)).max(1);
        limit = Some(n);
        Ok::<_, io::Error>(n)
    })?;
    Ok(Graph::from_csr(out, false))
}

impl From<WalkChanged> for io::Error {
    fn from(_: WalkChanged) -> io::Error {
        invalid("the file changed between the two reads that load it".into())
    }
}

/// Hands every line of `reader` — its bytes up to a `\n` or the end of the
/// input, numbered from 1 — to `each`, straight out of the reader's
/// buffer. Only a line that straddles two fills of the buffer is copied,
/// into one reused spill vector.
fn for_each_line(
    reader: &mut impl BufRead,
    mut each: impl FnMut(usize, &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut spill: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        let mut pieces = buf.split(|&b| b == b'\n');
        // What follows the buffer's last line break continues into the
        // next fill.
        let tail = pieces.next_back().unwrap_or_default();
        for line in pieces {
            lineno += 1;
            if spill.is_empty() {
                each(lineno, line)?;
            } else {
                spill.extend_from_slice(line);
                each(lineno, &spill)?;
                spill.clear();
            }
        }
        spill.extend_from_slice(tail);
        let read = buf.len();
        reader.consume(read);
    }
    if !spill.is_empty() {
        each(lineno + 1, &spill)?;
    }
    Ok(())
}

/// The whitespace `str::split_whitespace` and `str::trim` know, within ASCII.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r')
}

/// The next whitespace-separated token of `line`, which is advanced past it.
fn next_token<'a>(line: &mut &'a [u8]) -> Option<&'a [u8]> {
    let start = line.iter().position(|&b| !is_space(b))?;
    let rest = &line[start..];
    let end = rest.iter().position(|&b| is_space(b)).unwrap_or(rest.len());
    *line = &rest[end..];
    Some(&rest[..end])
}

/// A data line's `(src, dst, weight)`, or `None` for a blank or comment
/// line. A weight defaults to 1; tokens after it are ignored.
fn parse_line(lineno: usize, mut line: &[u8]) -> io::Result<Option<(u32, u32, f32)>> {
    let Some(first) = next_token(&mut line) else {
        return Ok(None);
    };
    if first[0] == b'#' || first[0] == b'%' {
        return Ok(None);
    }
    let src = parse_id(lineno, first)?;
    let target = next_token(&mut line)
        .ok_or_else(|| invalid(format!("line {lineno}: missing target")))?;
    let dst = parse_id(lineno, target)?;
    let weight = match next_token(&mut line) {
        // The integral weights `save_edge_list` writes digit by digit;
        // below 2^24 a `u32` converts to exactly the float the text names.
        Some(tok) => match small_decimal(tok).filter(|&w| w < 1 << 24) {
            Some(w) => w as f32,
            None => parse_token(lineno, tok)?,
        },
        None => 1.0,
    };
    Ok(Some((src, dst, weight)))
}

fn parse_id(lineno: usize, tok: &[u8]) -> io::Result<u32> {
    small_decimal(tok).map_or_else(|| parse_token(lineno, tok), Ok)
}

/// `tok`'s value if it is one to nine ASCII digits, which no `u32`
/// overflows; anything else is left to [`parse_token`].
fn small_decimal(tok: &[u8]) -> Option<u32> {
    if tok.len() > 9 {
        return None;
    }
    tok.iter()
        .try_fold(0u32, |v, &b| b.is_ascii_digit().then(|| v * 10 + u32::from(b - b'0')))
}

/// `tok` through `str::parse`, its error named by line as it always was.
fn parse_token<T: std::str::FromStr>(lineno: usize, tok: &[u8]) -> io::Result<T>
where
    T::Err: std::fmt::Display,
{
    String::from_utf8_lossy(tok)
        .parse()
        .map_err(|e| invalid(format!("line {lineno}: {e}")))
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

/// Loads a graph written by [`save_binary`]: two walks over the records
/// fill the CSR in place. A file flagged symmetric must hold what
/// `save_binary` writes for a symmetrised graph, or it is `InvalidData`.
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
    let out = Csr::try_by_rows(|sink| {
        reader.seek(SeekFrom::Start(BINARY_HEADER_LEN))?;
        let mut rec = [0u8; BINARY_RECORD_LEN as usize];
        for _ in 0..m {
            reader.read_exact(&mut rec)?;
            let src = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            let dst = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
            let w = f32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]);
            if src as usize >= n || dst as usize >= n {
                return Err(invalid(format!("edge {src}->{dst} out of range {n}")));
            }
            sink(VertexId(src), VertexId(dst), w);
        }
        Ok::<_, io::Error>(n)
    })?;
    let symmetric = flag[0] == 1;
    if symmetric {
        check_symmetric(&out)?;
    }
    Ok(Graph::from_csr(out, symmetric))
}

/// Holds a CSR read from a file flagged symmetric to what [`save_binary`]
/// writes for a symmetrised graph: every row's targets strictly ascending
/// — `(target, weight)` order with no pair repeated — and every edge's
/// reverse present with the same weight bits. Rows are checked for order
/// first, then edges for their reverse, each in row order; the first
/// failure is named.
fn check_symmetric(csr: &Csr) -> io::Result<()> {
    for u in (0..csr.num_vertices() as u32).map(VertexId) {
        if let Some(pair) = csr.neighbors(u).windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(invalid(format!(
                "flagged symmetric, but row {u} lists {} after {}",
                pair[1], pair[0]
            )));
        }
    }
    // The weight of row `v`'s entry `at`: 1.0 in an unweighted CSR.
    let reverse_weight = |v: VertexId, at: usize| csr.weights(v).map_or(1.0, |w| w[at]);
    // Sources ascend, so the edges into `v` arrive in the order row `v`
    // lists their reverses: one cursor per row pairs every edge in one pass.
    let mut paired = vec![0u32; csr.num_vertices()];
    let all_paired = csr.iter_all().all(|(u, v, weight)| {
        let at = &mut paired[v.index()];
        let reverse = csr.neighbors(v).get(*at as usize) == Some(&u);
        let same = reverse && reverse_weight(v, *at as usize).to_bits() == weight.to_bits();
        *at += 1;
        same
    });
    if all_paired {
        return Ok(());
    }
    // Some edge is unpaired: a search per edge names the first.
    let reverse_of = |u: VertexId, v: VertexId| {
        let at = csr.neighbors(v).binary_search(&u).ok()?;
        Some(reverse_weight(v, at))
    };
    match csr
        .iter_all()
        .find(|&(u, v, weight)| reverse_of(u, v).map(f32::to_bits) != Some(weight.to_bits()))
    {
        Some((u, v, weight)) => Err(invalid(format!(
            "flagged symmetric, but edge {u}->{v} (weight {weight}) has no reverse of equal weight"
        ))),
        None => Ok(()),
    }
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
    use crate::builder::GraphBuilder;
    use crate::generators::{rmat, RmatConfig};
    use crate::types::Edge;
    use proptest::prelude::*;

    /// The text loader the two-read fill replaced, kept as the oracle it
    /// is tested against: a `String` per `read_line`, `trim` and
    /// `split_whitespace`, `str::parse` for every token, the edges staged
    /// in a vector and built by a [`GraphBuilder`].
    fn oracle_load_edge_list(path: &Path, num_vertices: Option<usize>) -> io::Result<Graph> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut edges: Vec<Edge> = Vec::new();
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
        let mut builder = GraphBuilder::new(n.max(1));
        builder.extend(edges);
        Ok(builder.build())
    }

    /// What a load comes to, bit for bit: the forward CSR and the vertex
    /// count, or the error's kind and text.
    fn outcome(loaded: io::Result<Graph>) -> Result<String, String> {
        loaded
            .map(|g| format!("{} {} {:?}", g.num_vertices(), g.is_symmetric(), g.out_csr().bits()))
            .map_err(|e| format!("{:?}: {e}", e.kind()))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lazygraph-io-{}-{name}", std::process::id()));
        p
    }

    /// Odd tokens in an id's place: signed, padded, past `u32::MAX`, and
    /// not numbers. (An id at `u32::MAX` would size 2^32 rows.)
    const ODD_IDS: [&str; 14] = [
        "007", "+5", "-1", "-0", "4294967296", "99999999999", "abc", "1e3", "2.5", "", "#", "%",
        "0x10", "é",
    ];

    /// Odd tokens in a weight's place: integral ones the fast path takes,
    /// ones past it that it must leave to `str::parse`, and not numbers.
    /// (Whitespace outside ASCII is where the two routes differ on
    /// purpose: the staged route split tokens at it, the byte scan keeps it
    /// in a token.)
    const ODD_WEIGHTS: [&str; 21] = [
        "2.5", "-0.0", "16777215", "16777216", "16777217", "123456789", "4294967295",
        "99999999999", "inf", "NaN", "nan", "1.5e-42", "1e3", "abc", "-1", "+5", "007", "0x10",
        "é", "", "#",
    ];

    const GAPS: [&str; 7] = [" ", "  ", "\t", "\x0b", "\x0c", "\r", " \t "];

    fn pick<T: Copy>(list: &'static [T]) -> impl Strategy<Value = T> {
        (0..list.len()).prop_map(move |i| list[i])
    }

    /// A file of comment, blank and data lines, tokens joined by any ASCII
    /// whitespace, lines ended by `\n` or `\r\n`, the last one maybe not.
    fn arb_file() -> impl Strategy<Value = String> {
        let token = (pick(&GAPS), 0u32..5, 0u32..12, pick(&ODD_IDS), pick(&ODD_WEIGHTS));
        let data = (collection::vec(token, 0..5), pick(&GAPS), any::<bool>())
            .prop_map(|(tokens, end, padded)| {
                let line: String = tokens
                    .into_iter()
                    .enumerate()
                    .map(|(at, (gap, kind, id, odd_id, odd_weight))| match (kind, at) {
                        (0..4, _) => format!("{gap}{id}"),
                        (_, 0..2) => format!("{gap}{odd_id}"),
                        _ => format!("{gap}{odd_weight}"),
                    })
                    .collect();
                let line = if padded { line } else { line.trim_start().to_owned() };
                line + end
            });
        let line = (0u32..8, data, pick(&GAPS), pick(&["#", "%"]), 0u32..1000).prop_map(
            |(kind, data, gap, mark, text)| match kind {
                0..6 => data,
                6 => format!("{gap}{mark} comment {text}"),
                _ => String::new(),
            },
        );
        (collection::vec((line, pick(&["\n", "\r\n"])), 0..12), any::<bool>()).prop_map(
            |(lines, last_break)| {
                let count = lines.len();
                lines
                    .into_iter()
                    .enumerate()
                    .map(|(i, (line, end))| if i + 1 < count || last_break { line + end } else { line })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn text_load_matches_the_staged_route(
            text in arb_file(),
            num_vertices in (any::<bool>(), 0usize..14).prop_map(|(some, n)| some.then_some(n)),
        ) {
            let path = tmp(&format!("prop-{}.el", text.len()));
            std::fs::write(&path, &text).unwrap();
            let want = outcome(oracle_load_edge_list(&path, num_vertices));
            let got = outcome(load_edge_list(&path, num_vertices));
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(got, want, "{:?}", text);
        }

        /// Lines that straddle two fills of the reader's buffer come out
        /// whole, numbered as `read_line` numbers them.
        #[test]
        fn lines_survive_any_buffer_size(text in arb_file(), capacity in 1usize..24) {
            let mut got = Vec::new();
            let mut reader = BufReader::with_capacity(capacity, text.as_bytes());
            for_each_line(&mut reader, |lineno, line| {
                got.push((lineno, line.to_vec()));
                Ok(())
            })
            .unwrap();
            let want: Vec<(usize, Vec<u8>)> = text
                .split_inclusive('\n')
                .enumerate()
                .map(|(i, line)| (i + 1, line.strip_suffix('\n').unwrap_or(line).as_bytes().to_vec()))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass pairing accepts exactly the graphs in which every
        /// edge has its reverse of equal weight bits — symmetrised ones,
        /// and ones a dropped edge or a changed weight broke.
        #[test]
        fn the_symmetry_check_is_the_definition(
            n in 1usize..12,
            edges in collection::vec((0u32..12, 0u32..12, 0u32..3), 0..40),
            symmetrize in any::<bool>(),
            breakage in (0u32..3, 0usize..80),
        ) {
            let mut b = GraphBuilder::new(n);
            b.extend(edges.iter().map(|&(s, d, w)| {
                Edge::weighted(s % n as u32, d % n as u32, [1.0, -0.0, 0.0][w as usize])
            }));
            b.dedup();
            if symmetrize {
                b.symmetrize();
            }
            let mut kept: Vec<Edge> = b.build().edges().collect();
            match breakage {
                (0, at) if at < kept.len() => {
                    kept.remove(at);
                }
                (1, at) if at < kept.len() => kept[at].weight = 2.0,
                _ => {}
            }
            let csr = Csr::from_edges(n, &kept);
            let definition = kept.iter().all(|e| {
                kept.iter().any(|r| {
                    (r.src, r.dst, r.weight.to_bits()) == (e.dst, e.src, e.weight.to_bits())
                })
            });
            prop_assert_eq!(check_symmetric(&csr).is_ok(), definition, "{:?}", kept);
        }
    }

    /// A file many buffer fills long, in the row order `save_edge_list`
    /// writes, loads to the CSR it was written from, bit for bit, as the
    /// staged route loads it.
    #[test]
    fn text_roundtrip() {
        let g = rmat(RmatConfig::graph500(10, 8, 3));
        let path = tmp("text.el");
        save_edge_list(&g, &path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 32 << 10);
        let n = Some(g.num_vertices());
        let loaded = load_edge_list(&path, n);
        let want = outcome(oracle_load_edge_list(&path, n));
        std::fs::remove_file(path).ok();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.out_csr().bits(), g.out_csr().bits());
        assert_eq!(outcome(Ok(loaded)), want);
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

    /// A directed graph and a symmetrised one reload as the same forward
    /// CSR and flag; the symmetrised one is not symmetrised again.
    #[test]
    fn binary_roundtrip() {
        let raw = rmat(RmatConfig::graph500(9, 8, 5));
        let mut b = GraphBuilder::new(raw.num_vertices());
        b.extend(raw.edges());
        b.symmetrize().randomize_weights(1.0, 64.0, 5);
        for g in [rmat(RmatConfig::weblike(7, 4, 12)), b.build()] {
            let path = tmp("bin.lzg");
            save_binary(&g, &path).unwrap();
            let loaded = load_binary(&path).unwrap();
            std::fs::remove_file(path).ok();
            assert_eq!(loaded.is_symmetric(), g.is_symmetric());
            assert_eq!(loaded.num_vertices(), g.num_vertices());
            assert_eq!(loaded.out_csr().bits(), g.out_csr().bits());
            loaded.validate().unwrap();
        }
    }

    /// The builder, the text loader and the binary loader make one
    /// decision on one edge list: no weights stored iff every weight is
    /// bitwise `1.0` — also when a text file spells a unit weight out.
    #[test]
    fn every_route_drops_the_same_weights() {
        let raw = rmat(RmatConfig::graph500(8, 4, 9));
        let nudges = [
            None,
            Some(1.0),
            Some(2.0),
            Some(-0.0),
            Some(f32::from_bits(0x3f80_0001)),
        ];
        for nudge in nudges {
            let mut edges: Vec<Edge> = raw.edges().collect();
            if let Some(w) = nudge {
                let at = edges.len() / 2;
                edges[at].weight = w;
            }
            let unit = edges.iter().all(|e| e.weight.to_bits() == 1.0f32.to_bits());
            let mut b = GraphBuilder::new(raw.num_vertices());
            b.extend(edges);
            let g = b.build();
            assert_eq!(g.out_csr().is_unweighted(), unit, "{nudge:?}");
            let (text, binary) = (tmp("routes.el"), tmp("routes.lzg"));
            save_edge_list(&g, &text).unwrap();
            save_binary(&g, &binary).unwrap();
            let loaded = [
                load_edge_list(&text, Some(g.num_vertices())),
                load_binary(&binary),
            ];
            std::fs::remove_file(text).ok();
            std::fs::remove_file(binary).ok();
            for loaded in loaded {
                assert_eq!(
                    loaded.unwrap().out_csr().bits(),
                    g.out_csr().bits(),
                    "{nudge:?}"
                );
            }
        }
        let path = tmp("spelled.el");
        std::fs::write(&path, "0 1 1\n1 2 1.0\n2 0 1e0\n2 1\n").unwrap();
        let spelled = load_edge_list(&path, None).unwrap();
        std::fs::remove_file(path).ok();
        assert!(spelled.out_csr().is_unweighted());
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

    /// A file flagged symmetric whose edges are not is refused, naming the
    /// edge, where it used to be symmetrised silently.
    #[test]
    fn a_binary_flagged_symmetric_that_is_not_is_refused() {
        let path = tmp("notsym.lzg");
        let file = |edges: &[(u32, u32, f32)]| {
            let mut bytes = BINARY_MAGIC.to_vec();
            bytes.extend_from_slice(&3u64.to_le_bytes());
            bytes.extend_from_slice(&(edges.len() as u64).to_le_bytes());
            bytes.push(1);
            for &(s, d, w) in edges {
                bytes.extend_from_slice(&s.to_le_bytes());
                bytes.extend_from_slice(&d.to_le_bytes());
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            std::fs::write(&path, bytes).unwrap();
            load_binary(&path)
        };
        for (edges, names) in [
            (&[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)][..], "edge 1->2 (weight 1) has no reverse"),
            (&[(0, 1, 1.0), (1, 0, 2.0)][..], "edge 0->1 (weight 1) has no reverse"),
            (&[(0, 1, 0.0), (1, 0, -0.0)][..], "edge 0->1 (weight 0) has no reverse"),
            (&[(0, 2, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)][..], "row 0 lists 1 after 2"),
            (&[(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)][..], "row 0 lists 1 after 1"),
        ] {
            let err = file(edges).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(names), "{err}");
        }
        let fine = file(&[(0, 1, 2.0), (0, 2, 1.0), (1, 0, 2.0), (2, 0, 1.0), (2, 2, 3.0)]).unwrap();
        assert!(fine.is_symmetric());
        assert_eq!(fine.num_edges(), 5);
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
