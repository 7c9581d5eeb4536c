//! The table of shipped programs (DESIGN.md §17, "One way to ask for a
//! run").
//!
//! The binaries run six of this crate's programs. Everything that depends
//! on *which* — the `--algorithm` name and the option it reads, the tag in
//! a multiprocess job file, the placement rule it needs, the line it adds
//! to a report, the program value itself — is declared here and nowhere
//! else: a request is an [`AlgoSpec`], [`AlgoSpec::dispatch`] is the one
//! place a spec becomes a program, and [`Shipped::spec`] the one place a
//! program names its row. A front end holds a [`Visitor`] and never a
//! program type.

use std::fmt::Display;

use lazygraph_engine::VertexProgram;
use lazygraph_net::{NetError, Wire, WireReader};

use crate::{Bfs, ConnectedComponents, KCore, PageRankDelta, Sssp, WidestPath};

/// A shipped program and its parameter, as a command line or a job file
/// names it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlgoSpec {
    /// PageRank-Delta with the given flush tolerance.
    PageRank { tolerance: f64 },
    /// Single-source shortest paths from `source`.
    Sssp { source: u32 },
    /// BFS levels from `source`.
    Bfs { source: u32 },
    /// Connected components (label propagation).
    Cc,
    /// k-core decomposition.
    KCore { k: u32 },
    /// Widest path from `source`.
    Widest { source: u32 },
}

/// A program of the table: it names its own row, so an API that takes a
/// `Shipped` program (the multiprocess launcher) can never be handed a
/// spec that disagrees with the program's type. Its values print as
/// `--output` writes them.
pub trait Shipped: VertexProgram<VData: Display> {
    /// The row and parameter [`AlgoSpec::dispatch`] rebuilds `self` from.
    fn spec(&self) -> AlgoSpec;

    /// The line a report adds under the run's summary, for a program whose
    /// result has a headline figure.
    fn headline(&self, _values: &[Self::VData]) -> Option<String> {
        None
    }
}

/// What a front end does with the program a request names, written once
/// for every program of the table.
pub trait Visitor {
    type Out;
    fn visit<P: Shipped>(self, program: P) -> Self::Out;
}

impl AlgoSpec {
    /// The names [`Self::parse`] knows, in wire-tag order (the usage line).
    pub const CLI_NAMES: [&'static str; 6] = ["pagerank", "sssp", "bfs", "cc", "kcore", "widest"];

    /// Whether the program propagates along an edge in both directions (it
    /// runs on the symmetrised graph), so a parallel edge must be present
    /// wherever either endpoint has a replica: the paper's §4.1 dispatch
    /// rule for bidirectional algorithms, `EngineConfig::bidirectional`.
    pub fn bidirectional(&self) -> bool {
        matches!(self, AlgoSpec::Cc | AlgoSpec::KCore { .. })
    }

    /// The request `--algorithm name` makes, its parameter read from the
    /// option of the same name (`option("source")` is `--source`'s value)
    /// or defaulted: `--source 0`, `--k 3`, `--tolerance 1e-3`. Options of
    /// other rows are not looked at. The error is the one line to print.
    pub fn parse<'a>(
        name: &str,
        option: impl Fn(&str) -> Option<&'a str>,
    ) -> Result<AlgoSpec, String> {
        fn number<T: std::str::FromStr>(value: Option<&str>, key: &str, default: T) -> Result<T, String> {
            value.map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{key}: cannot parse {v}")))
        }
        let source = || number(option("source"), "source", 0u32);
        let tolerance = PageRankDelta::default().tolerance;
        let spec = match name {
            "pagerank" => AlgoSpec::PageRank { tolerance: number(option("tolerance"), "tolerance", tolerance)? },
            "sssp" => AlgoSpec::Sssp { source: source()? },
            "bfs" => AlgoSpec::Bfs { source: source()? },
            "cc" => AlgoSpec::Cc,
            "kcore" => AlgoSpec::KCore { k: number(option("k"), "k", 3)? },
            "widest" => AlgoSpec::Widest { source: source()? },
            _ => return Err(format!("unknown algorithm {name} (expected {})", Self::CLI_NAMES.join("|"))),
        };
        spec.check()?;
        Ok(spec)
    }

    /// The conditions a parameter must meet whatever the graph: a k-core
    /// needs `k ≥ 1` (`KCore::new` asserts it) and PageRank a finite
    /// positive tolerance (0 never parks a residual, a NaN parks all).
    fn check(&self) -> Result<(), String> {
        match *self {
            AlgoSpec::KCore { k: 0 } => Err("--k: 0 is not a core (k >= 1)".into()),
            AlgoSpec::PageRank { tolerance } if !(tolerance.is_finite() && tolerance > 0.0) => {
                Err(format!("--tolerance: {tolerance} is not a finite number above 0"))
            }
            _ => Ok(()),
        }
    }

    /// The condition only the loaded graph can settle: a source vertex it
    /// has (one past the end reaches nothing and "converges" at once).
    pub fn check_graph(&self, num_vertices: usize) -> Result<(), String> {
        match *self {
            AlgoSpec::Sssp { source } | AlgoSpec::Bfs { source } | AlgoSpec::Widest { source }
                if source as usize >= num_vertices =>
            {
                Err(format!("--source: vertex {source} is not in a graph of |V| = {num_vertices}"))
            }
            _ => Ok(()),
        }
    }

    /// Hands `visitor` the program this spec names — the only place one
    /// is built from a spec.
    pub fn dispatch<V: Visitor>(&self, visitor: V) -> V::Out {
        match *self {
            AlgoSpec::PageRank { tolerance } => visitor.visit(PageRankDelta { tolerance }),
            AlgoSpec::Sssp { source } => visitor.visit(Sssp::new(source)),
            AlgoSpec::Bfs { source } => visitor.visit(Bfs::new(source)),
            AlgoSpec::Cc => visitor.visit(ConnectedComponents),
            AlgoSpec::KCore { k } => visitor.visit(KCore::new(k)),
            AlgoSpec::Widest { source } => visitor.visit(WidestPath::new(source)),
        }
    }
}

impl Shipped for PageRankDelta {
    fn spec(&self) -> AlgoSpec {
        AlgoSpec::PageRank { tolerance: self.tolerance }
    }
}

impl Shipped for Sssp {
    fn spec(&self) -> AlgoSpec {
        AlgoSpec::Sssp { source: self.source.0 }
    }
}

impl Shipped for Bfs {
    fn spec(&self) -> AlgoSpec {
        AlgoSpec::Bfs { source: self.source.0 }
    }
}

impl Shipped for ConnectedComponents {
    fn spec(&self) -> AlgoSpec {
        AlgoSpec::Cc
    }

    fn headline(&self, labels: &[u32]) -> Option<String> {
        let components: std::collections::HashSet<_> = labels.iter().collect();
        Some(format!("{} connected components", components.len()))
    }
}

impl Shipped for KCore {
    fn spec(&self) -> AlgoSpec {
        AlgoSpec::KCore { k: self.k }
    }

    fn headline(&self, cores: &[u32]) -> Option<String> {
        let survivors = cores.iter().filter(|&&c| c > 0).count();
        Some(format!("{survivors} vertices in the {}-core", self.k))
    }
}

impl Shipped for WidestPath {
    fn spec(&self) -> AlgoSpec {
        AlgoSpec::Widest { source: self.source.0 }
    }
}

// By hand: the bytes after the tag are the row's parameter, and a job
// file is outside input — a parameter `dispatch` would panic on is refused
// here.
impl Wire for AlgoSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            AlgoSpec::PageRank { tolerance } => (0u8, tolerance).encode(out),
            AlgoSpec::Sssp { source } => (1u8, source).encode(out),
            AlgoSpec::Bfs { source } => (2u8, source).encode(out),
            AlgoSpec::Cc => 3u8.encode(out),
            AlgoSpec::KCore { k } => (4u8, k).encode(out),
            AlgoSpec::Widest { source } => (5u8, source).encode(out),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let spec = match r.take_u8()? {
            0 => AlgoSpec::PageRank { tolerance: Wire::decode(r)? },
            1 => AlgoSpec::Sssp { source: Wire::decode(r)? },
            2 => AlgoSpec::Bfs { source: Wire::decode(r)? },
            3 => AlgoSpec::Cc,
            4 => AlgoSpec::KCore { k: Wire::decode(r)? },
            5 => AlgoSpec::Widest { source: Wire::decode(r)? },
            tag => return Err(NetError::BadTag { tag, ty: "AlgoSpec" }),
        };
        spec.check().map_err(|detail| NetError::Malformed { ty: "AlgoSpec", detail })?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns what the program says it is.
    struct SpecOf;
    impl Visitor for SpecOf {
        type Out = (AlgoSpec, &'static str);
        fn visit<P: Shipped>(self, program: P) -> Self::Out {
            (program.spec(), program.name())
        }
    }

    fn with<'a>(key: &'a str, value: &'a str) -> impl Fn(&str) -> Option<&'a str> {
        move |k| (k == key).then_some(value)
    }

    #[test]
    fn every_row_agrees_with_itself() {
        for (tag, name) in AlgoSpec::CLI_NAMES.into_iter().enumerate() {
            let spec = AlgoSpec::parse(name, |_| None).expect("defaults are valid");
            assert_eq!(spec.to_wire()[0], tag as u8, "{name} is not where the usage line lists it");
            assert_eq!(AlgoSpec::from_wire(&spec.to_wire()), Ok(spec));
            // spec -> program -> spec is the identity, so the launcher's
            // `program.spec()` and the worker's `dispatch` cannot disagree.
            assert_eq!(spec.dispatch(SpecOf).0, spec, "{name}");
        }
        assert_eq!(
            AlgoSpec::parse("widest", with("source", "9")).map(|s| s.dispatch(SpecOf)),
            Ok((AlgoSpec::Widest { source: 9 }, "widest-path"))
        );
    }

    #[test]
    fn parameters_are_validated_where_they_enter() {
        let err = |name, key, value| AlgoSpec::parse(name, with(key, value)).unwrap_err();
        assert!(err("kcore", "k", "0").starts_with("--k: 0"));
        for bad in ["0", "-1", "nan", "inf"] {
            assert!(err("pagerank", "tolerance", bad).starts_with("--tolerance: "), "{bad}");
        }
        assert_eq!(err("sssp", "source", "x"), "--source: cannot parse x");
        assert!(err("louvain", "k", "1").starts_with("unknown algorithm louvain (expected pagerank|"));
        // Another row's option is not this row's business.
        assert_eq!(AlgoSpec::parse("sssp", with("k", "0")), Ok(AlgoSpec::Sssp { source: 0 }));

        // The same conditions off a job file: typed, before `KCore::new`.
        let mut zero_core = AlgoSpec::KCore { k: 1 }.to_wire();
        zero_core[1] = 0;
        assert!(matches!(
            AlgoSpec::from_wire(&zero_core),
            Err(NetError::Malformed { ty: "AlgoSpec", .. })
        ));
        assert!(AlgoSpec::from_wire(&AlgoSpec::PageRank { tolerance: f64::NAN }.to_wire()).is_err());
        assert_eq!(AlgoSpec::from_wire(&[6]), Err(NetError::BadTag { tag: 6, ty: "AlgoSpec" }));
    }

    #[test]
    fn a_source_must_be_a_vertex_of_the_graph() {
        let spec = AlgoSpec::Bfs { source: 10 };
        assert_eq!(spec.check_graph(11), Ok(()));
        let err = spec.check_graph(10).unwrap_err();
        assert!(err.contains("|V| = 10"), "{err}");
        assert_eq!(AlgoSpec::KCore { k: 99 }.check_graph(0), Ok(()));
    }

    #[test]
    fn cc_and_kcore_need_bidirectional_placement_and_have_a_headline() {
        let bidirectional: Vec<_> = AlgoSpec::CLI_NAMES
            .into_iter()
            .filter(|name| AlgoSpec::parse(name, |_| None).expect("defaults").bidirectional())
            .collect();
        assert_eq!(bidirectional, ["cc", "kcore"]);
        assert_eq!(
            ConnectedComponents.headline(&[0, 0, 2, 2, 4]).as_deref(),
            Some("3 connected components")
        );
        assert_eq!(KCore::new(3).headline(&[0, 5, 4, 0]).as_deref(), Some("2 vertices in the 3-core"));
        assert_eq!(Sssp::new(0u32).headline(&[0.0]), None);
    }
}
