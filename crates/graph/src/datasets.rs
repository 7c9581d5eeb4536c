//! Class-matched synthetic analogues of the paper's Table 1 datasets.
//!
//! We cannot redistribute UK-2005, twitter, road-USA, … here, so each paper
//! graph is replaced by a generator configuration in the same *class*:
//!
//! | paper graph      | class  | analogue                               | matched property |
//! |------------------|--------|----------------------------------------|------------------|
//! | UK-2005          | web    | crawl model, E/V ≈ 24, strong locality | E/V, low λ        |
//! | web-Google       | web    | crawl model, E/V ≈ 6, strong locality  | E/V, low λ        |
//! | road_USA_net     | road   | 2-D lattice + local shortcuts          | low degree, huge diameter |
//! | roadNet-CA       | road   | smaller lattice                        | as above         |
//! | twitter          | social | R-MAT graph500, E/V ≈ 24               | E/V, heavy skew  |
//! | soc-LiveJournal  | social | R-MAT graph500, E/V ≈ 14               | E/V, heavy skew  |
//! | enwiki           | social | crawl model, global hub-heavy links    | extreme skew → largest λ |
//! | com-youtube      | social | crawl model, moderate locality         | E/V ≈ 5, low social λ |
//!
//! §5.3 of the paper shows the speedup is governed by the replication factor
//! λ and graph class (diameter, skew), "independent of the graph sizes", so
//! the analogues are scaled ~100–1000× down to run on one host. The `scale`
//! knob multiplies the vertex count.

use crate::builder::GraphBuilder;
use crate::generators::{grid2d, rmat, web_crawl, Grid2dConfig, RmatConfig, WebCrawlConfig};
use crate::graph::Graph;

/// Broad dataset class, mirroring Table 1's grouping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphClass {
    Web,
    Road,
    Social,
}

/// One of the eight Table-1 analogues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    Uk2005Like,
    WebGoogleLike,
    RoadUsaLike,
    RoadNetCaLike,
    TwitterLike,
    LiveJournalLike,
    EnwikiLike,
    ComYoutubeLike,
}

impl Dataset {
    /// All datasets in Table-1 order.
    pub fn all() -> [Dataset; 8] {
        [
            Dataset::Uk2005Like,
            Dataset::WebGoogleLike,
            Dataset::RoadUsaLike,
            Dataset::RoadNetCaLike,
            Dataset::TwitterLike,
            Dataset::LiveJournalLike,
            Dataset::EnwikiLike,
            Dataset::ComYoutubeLike,
        ]
    }

    /// Human-readable name (paper name + `-like`).
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Uk2005Like => "UK-2005-like",
            Dataset::WebGoogleLike => "web-Google-like",
            Dataset::RoadUsaLike => "road-USA-like",
            Dataset::RoadNetCaLike => "roadNet-CA-like",
            Dataset::TwitterLike => "twitter-like",
            Dataset::LiveJournalLike => "soc-LiveJournal-like",
            Dataset::EnwikiLike => "enwiki-like",
            Dataset::ComYoutubeLike => "com-youtube-like",
        }
    }

    /// Dataset class.
    pub fn class(self) -> GraphClass {
        match self {
            Dataset::Uk2005Like | Dataset::WebGoogleLike => GraphClass::Web,
            Dataset::RoadUsaLike | Dataset::RoadNetCaLike => GraphClass::Road,
            _ => GraphClass::Social,
        }
    }

    /// The paper's measured replication factor λ for the original graph
    /// (Table 1, coordinated cut on 48 partitions) — used for reporting the
    /// paper-vs-measured comparison.
    pub fn paper_lambda(self) -> f64 {
        match self {
            Dataset::Uk2005Like => 3.51,
            Dataset::WebGoogleLike => 2.47,
            Dataset::RoadUsaLike => 2.14,
            Dataset::RoadNetCaLike => 2.09,
            Dataset::TwitterLike => 5.52,
            Dataset::LiveJournalLike => 4.96,
            Dataset::EnwikiLike => 7.22,
            Dataset::ComYoutubeLike => 2.70,
        }
    }

    /// The paper's E/V ratio for the original graph (Table 1).
    pub fn paper_ev_ratio(self) -> f64 {
        match self {
            Dataset::Uk2005Like => 23.73,
            Dataset::WebGoogleLike => 5.83,
            Dataset::RoadUsaLike => 2.44,
            Dataset::RoadNetCaLike => 2.82,
            Dataset::TwitterLike => 23.85,
            Dataset::LiveJournalLike => 14.23,
            Dataset::EnwikiLike => 24.09,
            Dataset::ComYoutubeLike => 5.27,
        }
    }

    /// The analogue's default size at `scale` 1.0, before its generator
    /// rounds it (a square lattice, a power of two).
    fn base_vertices(self) -> usize {
        match self {
            Dataset::Uk2005Like | Dataset::TwitterLike | Dataset::LiveJournalLike => 32_768,
            Dataset::WebGoogleLike => 30_000,
            Dataset::RoadUsaLike => 102_400,
            Dataset::RoadNetCaLike => 25_600,
            Dataset::EnwikiLike => 24_576,
            Dataset::ComYoutubeLike => 40_000,
        }
    }

    /// How many vertices the analogue has at `scale`: `None` unless
    /// `scale` is finite and above 0 and every vertex of the analogue can
    /// be numbered by a [`VertexId`](crate::VertexId).
    pub fn vertices_at(self, scale: f64) -> Option<usize> {
        if !(scale.is_finite() && scale > 0.0) {
            return None;
        }
        let sz = sized(self.base_vertices(), scale);
        let n = match self {
            Dataset::RoadUsaLike | Dataset::RoadNetCaLike => {
                int_sqrt(sz).checked_mul(int_sqrt(sz))?
            }
            Dataset::TwitterLike | Dataset::LiveJournalLike => 1usize.checked_shl(log2_of(sz))?,
            _ => sz,
        };
        (n <= u32::MAX as usize).then_some(n)
    }

    /// Builds the directed analogue. `scale` multiplies the default vertex
    /// count (1.0 ≈ the sizes used throughout the experiment harness); it
    /// must be one [`Self::vertices_at`] accepts.
    pub fn build(self, scale: f64) -> Graph {
        assert!(
            self.vertices_at(scale).is_some(),
            "scale {scale} is not finite and positive, or too large for vertex ids"
        );
        let sz = sized(self.base_vertices(), scale);
        match self {
            Dataset::Uk2005Like => web_crawl(WebCrawlConfig::uk_flavour(sz, 0xA1)),
            Dataset::WebGoogleLike => web_crawl(WebCrawlConfig::google_flavour(sz, 0xA2)),
            Dataset::RoadUsaLike => {
                let side = int_sqrt(sz);
                grid2d(Grid2dConfig::road(side, side, 0xA3))
            }
            Dataset::RoadNetCaLike => {
                let side = int_sqrt(sz);
                grid2d(Grid2dConfig::road(side, side, 0xA4))
            }
            Dataset::TwitterLike => rmat(RmatConfig::graph500(log2_of(sz), 24, 0xA5)),
            Dataset::LiveJournalLike => rmat(RmatConfig::graph500(log2_of(sz), 14, 0xA6)),
            Dataset::EnwikiLike => web_crawl(WebCrawlConfig::wiki_flavour(sz, 0xA7)),
            Dataset::ComYoutubeLike => web_crawl(WebCrawlConfig::youtube_flavour(sz, 0xA8)),
        }
    }

    /// Builds the analogue symmetrised (both edge directions), with
    /// deterministic random weights in `[1, 64)` for SSSP. Bidirectional
    /// algorithms (CC, k-core) and SSSP-on-road use this form.
    pub fn build_symmetric(self, scale: f64) -> Graph {
        let g = self.build(scale);
        let mut b = GraphBuilder::new(g.num_vertices());
        b.extend(g.edges());
        b.symmetrize();
        b.randomize_weights(1.0, 64.0, 0xBEEF ^ self as u64);
        b.build()
    }
}

/// `base` vertices times `scale`, at least 64 (saturating).
fn sized(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(64)
}

fn log2_of(n: usize) -> u32 {
    // Round to the nearest power of two's exponent, at least 6 (64 vertices).
    let exact = (n.max(64) as f64).log2().round() as u32;
    exact.max(6)
}

fn int_sqrt(n: usize) -> usize {
    ((n as f64).sqrt().round() as usize).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::graph_stats;

    #[test]
    fn all_build_at_small_scale() {
        for d in Dataset::all() {
            let g = d.build(0.05);
            assert!(g.num_vertices() >= 64, "{} too small", d.name());
            assert!(g.num_edges() > 0, "{} has no edges", d.name());
            g.validate().unwrap();
        }
    }

    #[test]
    fn ev_ratio_classes_match_paper_ordering() {
        // At default scale, the web/social analogues must be dense
        // (E/V > 10) and the road analogues sparse (E/V < 10): the adaptive
        // interval model's locality split depends on this.
        let uk = Dataset::Uk2005Like.build(0.25);
        let road = Dataset::RoadUsaLike.build(0.25);
        assert!(uk.ev_ratio() > 10.0, "uk E/V {}", uk.ev_ratio());
        assert!(road.ev_ratio() < 10.0, "road E/V {}", road.ev_ratio());
    }

    #[test]
    fn road_is_flat_social_is_skewed() {
        let road = graph_stats(&Dataset::RoadNetCaLike.build(0.25));
        let social = graph_stats(&Dataset::TwitterLike.build(0.25));
        assert!(road.top1pct_edge_share < 0.10);
        assert!(social.top1pct_edge_share > 0.15);
    }

    #[test]
    fn symmetric_build_has_weights_and_reverses() {
        let g = Dataset::RoadNetCaLike.build_symmetric(0.1);
        assert!(g.is_symmetric());
        assert!(g.edges().all(|e| (1.0..64.0).contains(&e.weight)));
    }

    #[test]
    fn vertices_at_is_what_build_makes_and_refuses_what_it_cannot() {
        for d in Dataset::all() {
            assert_eq!(d.vertices_at(0.05), Some(d.build(0.05).num_vertices()), "{}", d.name());
            for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e12] {
                assert_eq!(d.vertices_at(bad), None, "{} at {bad}", d.name());
            }
        }
    }

    #[test]
    fn scale_changes_size() {
        let small = Dataset::ComYoutubeLike.build(0.05);
        let large = Dataset::ComYoutubeLike.build(0.2);
        assert!(large.num_vertices() > 2 * small.num_vertices());
    }

    #[test]
    fn names_and_metadata_cover_all() {
        for d in Dataset::all() {
            assert!(!d.name().is_empty());
            assert!(d.paper_lambda() > 1.0);
            assert!(d.paper_ev_ratio() > 1.0);
        }
    }
}
