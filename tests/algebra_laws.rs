//! Property tests of each vertex program's algebra — the §3.5 correctness
//! proof rests on `Sum ⊕` being commutative and associative and `Inverse`
//! undoing one contribution; these laws are what the engines assume.

use proptest::prelude::*;

use lazygraph::prelude::*;
use lazygraph_algorithms::{MultiSourceBfs, PageRankData, PersonalizedPageRank, WidestPath};
use lazygraph_engine::scheduler::cut_most_urgent;
use lazygraph_engine::{VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

fn check_comm_assoc<P: VertexProgram>(p: &P, a: P::Delta, b: P::Delta, c: P::Delta) {
    assert_eq!(p.sum(a, b), p.sum(b, a), "⊕ must be commutative");
    assert_eq!(
        p.sum(p.sum(a, b), c),
        p.sum(a, p.sum(b, c)),
        "⊕ must be associative"
    );
}

/// The laws of a declared local order (DESIGN.md §17) over arbitrary
/// `(value, pending accumulator)` states: the key is pure; a candidate
/// `apply` would reject keys at `+∞` (it clears without traversing); and
/// the scheduling cut over the keys — whatever they are, NaN included —
/// neither panics nor depends on the order the states arrive in.
fn check_local_order<P: VertexProgram>(p: &P, states: &[(P::VData, P::Delta)]) {
    let key = p.local_order().expect("program declares a local order");
    let ctx = VertexCtx {
        out_degree: 1,
        in_degree: 1,
        degree: 2,
        num_vertices: states.len(),
    };
    let mut pending = Vec::with_capacity(states.len());
    for (l, (data, accum)) in states.iter().enumerate() {
        let k = key(data, accum);
        assert_eq!(k.to_bits(), key(data, accum).to_bits(), "local order must be pure");
        if p.apply(VertexId(0), &mut data.clone(), *accum, &ctx).is_none() {
            assert_eq!(k, f64::INFINITY, "a rejected candidate must clear first: {data:?} ← {accum:?}");
        }
        pending.push((k, l as u32));
    }
    let selected = |mut pending: Vec<(f64, u32)>| {
        let cut = cut_most_urgent(&mut pending);
        let mut ids: Vec<u32> = pending[..cut].iter().map(|&(_, l)| l).collect();
        ids.sort_unstable();
        ids
    };
    let mut reversed = pending.clone();
    reversed.reverse();
    assert_eq!(selected(pending), selected(reversed), "the cut must not depend on arrival order");
}

/// Whether `p`'s `exchange_policy` gives `delta` more than one answer
/// over `views`.
fn policy_reads_view<P: VertexProgram>(p: &P, views: &[P::VData], delta: P::Delta) -> bool {
    let first = views.first().map(|v| p.exchange_policy(v, &delta));
    views.iter().any(|v| Some(p.exchange_policy(v, &delta)) != first)
}

/// The declaration a lazy machine's memory rests on: a program that says
/// its policy reads no coherent view holds none, and its policy is shown
/// `vdata` instead — so the answer must not depend on the view at all.
fn check_coherent_declaration<P: VertexProgram>(p: &P, views: &[P::VData], delta: P::Delta) {
    if !p.reads_coherent() {
        assert!(
            !policy_reads_view(p, views, delta),
            "{} declares that its policy reads no coherent view, but {delta:?} gets another \
             answer over {views:?}",
            p.name()
        );
    }
}

/// The programs whose policy is a function of the delta alone say so, and
/// the check above has teeth: SSSP's policy does read the view, so SSSP
/// declaring otherwise would fail it.
#[test]
fn shipped_programs_declare_whether_their_policy_reads_the_view() {
    assert!(!PageRankDelta::default().reads_coherent());
    assert!(!PersonalizedPageRank::new(VertexId(0)).reads_coherent());
    assert!(Sssp::new(0u32).reads_coherent());
    assert!(WidestPath::new(0u32).reads_coherent());
    assert!(Bfs::new(0u32).reads_coherent());
    assert!(ConnectedComponents.reads_coherent());
    assert!(KCore::new(3).reads_coherent());
    assert!(MultiSourceBfs::new(vec![VertexId(0)]).reads_coherent());
    assert!(policy_reads_view(&Sssp::new(0u32), &[1.0, 5.0], 3.0));
}

#[test]
fn programs_without_a_magnitude_order_declare_none() {
    // PageRank's `|accum|` order was measured and lost, and CC converges
    // before ordering starts on the graphs it was judged on
    // (EXPERIMENTS.md); these must stay on the sweep-everything stage.
    assert!(ConnectedComponents.local_order().is_none());
    assert!(PageRankDelta::default().local_order().is_none());
    assert!(PersonalizedPageRank::new(VertexId(0)).local_order().is_none());
    assert!(KCore::new(3).local_order().is_none());
    assert!(MultiSourceBfs::new(vec![VertexId(0)]).local_order().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn float_local_orders_are_pure_and_nan_safe(
        bits in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..600),
    ) {
        // Any `f32` bit pattern: NaNs of both signs, infinities, subnormals.
        let states: Vec<(f32, f32)> =
            bits.iter().map(|&(d, a)| (f32::from_bits(d), f32::from_bits(a))).collect();
        check_local_order(&Sssp::new(0u32), &states);
        check_local_order(&WidestPath::new(0u32), &states);
    }

    #[test]
    fn integer_local_orders_are_pure(
        // A narrow domain, so equal keys (whole BFS levels) straddle the cut.
        states in proptest::collection::vec((0u32..40, 0u32..40), 1..600),
    ) {
        check_local_order(&Bfs::new(0u32), &states);
    }

    #[test]
    fn local_orders_run_the_best_candidate_first(d in 1.0f32..1e6, a in 0.001f32..1.0, b in 0.001f32..1.0) {
        // Of two improving candidates the nearer is the more urgent; for
        // widest path, the wider.
        let (near, far) = (d * a.min(b), d * a.max(b));
        let sssp = Sssp::new(0u32).local_order().unwrap();
        prop_assert!(sssp(&d, &near) >= sssp(&d, &far));
        let widest = WidestPath::new(0u32).local_order().unwrap();
        prop_assert!(widest(&0.0, &far) >= widest(&0.0, &near));
    }

    #[test]
    fn kcore_algebra(a in 0u32..1000, b in 0u32..1000, c in 0u32..1000) {
        let p = KCore::new(3);
        check_comm_assoc(&p, a, b, c);
        // Inverse law: inverse(sum(a, b), a) == b.
        prop_assert_eq!(p.inverse(p.sum(a, b), a), b);
    }

    #[test]
    fn sssp_algebra(a in 0.0f32..1e6, b in 0.0f32..1e6, c in 0.0f32..1e6) {
        let p = Sssp::new(0u32);
        check_comm_assoc(&p, a, b, c);
        // Idempotence: a ⊕ a == a, and the identity Inverse is harmless:
        // sum(x, inverse(sum(x, y), x)) == sum(x, y).
        prop_assert_eq!(p.sum(a, a), a);
        let total = p.sum(a, b);
        prop_assert_eq!(p.sum(a, p.inverse(total, a)), total);
    }

    #[test]
    fn cc_algebra(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let p = ConnectedComponents;
        check_comm_assoc(&p, a, b, c);
        prop_assert_eq!(p.sum(a, a), a);
    }

    #[test]
    fn bfs_algebra(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let p = Bfs::new(0u32);
        check_comm_assoc(&p, a, b, c);
        prop_assert_eq!(p.sum(a, a), a);
    }

    #[test]
    fn widest_path_algebra(a in 0.0f32..1e6, b in 0.0f32..1e6, c in 0.0f32..1e6) {
        let p = WidestPath::new(0u32);
        check_comm_assoc(&p, a, b, c);
        prop_assert_eq!(p.sum(a, a), a);
    }

    #[test]
    fn multi_bfs_algebra(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let p = MultiSourceBfs::new(vec![VertexId(0)]);
        check_comm_assoc(&p, a, b, c);
        prop_assert_eq!(p.sum(a, a), a);
    }

    /// PageRank's algebra over sane magnitudes (floats are only
    /// approximately associative; the engine's proof needs exactness only
    /// up to the program's own tolerance, so we check within 1e-9).
    #[test]
    fn pagerank_algebra(a in -1e3f64..1e3, b in -1e3f64..1e3, c in -1e3f64..1e3) {
        let p = PageRankDelta::default();
        prop_assert_eq!(p.sum(a, b), p.sum(b, a));
        let l = p.sum(p.sum(a, b), c);
        let r = p.sum(a, p.sum(b, c));
        prop_assert!((l - r).abs() < 1e-9);
        let undone = p.inverse(p.sum(a, b), a);
        prop_assert!((undone - b).abs() < 1e-9);
    }

    /// Every shipped program that declares its policy reads no coherent
    /// view gives each delta one answer whatever the view: arbitrary
    /// values, NaNs and infinities included.
    #[test]
    fn a_policy_that_reads_no_view_ignores_it(
        views in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..8),
        small in proptest::collection::vec(0u32..64, 1..8),
        delta in (any::<u64>(), -1e-2f64..1e-2, any::<u32>(), any::<u64>()),
        tolerance in 1e-9f64..1e-1,
    ) {
        let ranks: Vec<PageRankData> = views
            .iter()
            .map(|&(r, p)| PageRankData { rank: f64::from_bits(r), pending: f64::from_bits(p) })
            .collect();
        let floats: Vec<f32> = views.iter().map(|&(r, _)| f32::from_bits(r as u32)).collect();
        let words: Vec<u32> = views.iter().map(|&(r, _)| r as u32).collect();
        let masks: Vec<u64> = views.iter().map(|&(r, _)| r).collect();
        for d in [f64::from_bits(delta.0), delta.1] {
            check_coherent_declaration(&PageRankDelta { tolerance }, &ranks, d);
            check_coherent_declaration(&PersonalizedPageRank::new(VertexId(0)), &ranks, d);
        }
        let d32 = f32::from_bits(delta.2);
        check_coherent_declaration(&Sssp::new(0u32), &floats, d32);
        check_coherent_declaration(&WidestPath::new(0u32), &floats, d32);
        check_coherent_declaration(&Bfs::new(0u32), &words, delta.2);
        check_coherent_declaration(&ConnectedComponents, &words, delta.2);
        check_coherent_declaration(&KCore::new(3), &small, delta.2 % 64);
        check_coherent_declaration(&MultiSourceBfs::new(vec![VertexId(0)]), &masks, delta.3);
    }

    /// The scatter transform of SSSP composes with ⊕ the way path
    /// relaxation requires: min distributes over +w.
    #[test]
    fn sssp_scatter_distributes(a in 0.0f32..1e5, b in 0.0f32..1e5, w in 0.0f32..1e3) {
        let p = Sssp::new(0u32);
        let ctx = lazygraph_engine::VertexCtx {
            out_degree: 1,
            in_degree: 1,
            degree: 2,
            num_vertices: 2,
        };
        let e = lazygraph_engine::EdgeCtx {
            dst: VertexId(1),
            weight: w,
        };
        let s = |d: f32| p.scatter(VertexId(0), &d, d, &ctx, &e).unwrap();
        prop_assert_eq!(s(p.sum(a, b)), p.sum(s(a), s(b)));
    }
}
