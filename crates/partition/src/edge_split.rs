//! The edge splitter (§4.1): selects which edges become *parallel-edges*
//! and how many, per the paper's three key elements.
//!
//! 1. **Selection criterion** — an edge connecting two high-degree vertices
//!    (helps rapid convergence of local computation) or an edge with a
//!    low-out-degree source and low-degree target (saves transmission cost).
//! 2. **Budget** — the number of parallel edges comes from
//!    `[PE_high·(P−1) + PE_low·(P/3)] / P = TEPS · t_extra` with
//!    `PE_low = 550 · PE_high`, where `t_extra` is the extra execution time a
//!    user is willing to pay and TEPS the per-machine traversal rate.
//! 3. **Dispatch rule** — a parallel edge `v→u` must appear on every machine
//!    holding a replica of `u` (unidirectional algorithms) or of `v` *or*
//!    `u` (bidirectional); dispatch may create replicas and therefore runs
//!    to a fixpoint (handled in [`crate::distributed`]).

use lazygraph_graph::hash::mix64;
use lazygraph_graph::{Graph, MachineId};
use lazygraph_net::wire_record;

/// Splitter tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct SplitterConfig {
    /// Per-machine 'traversed edges per second' rate (machine performance).
    pub teps: f64,
    /// Extra execution time budget (seconds) the user grants parallel
    /// edges; determines the proportion of parallel edges.
    pub t_extra: f64,
    /// Degree at or above which a vertex counts as high-degree. `None`
    /// derives it as the 99th-percentile degree.
    pub high_degree_threshold: Option<usize>,
    /// Degree at or below which a vertex counts as low-degree. `None`
    /// derives it as the average total degree (road-class graphs, whose
    /// every edge is the transmission-saving case, then qualify).
    pub low_degree_threshold: Option<usize>,
    /// Hard cap on the fraction of edges split (guards pathological
    /// configurations).
    pub max_fraction: f64,
}

// A launcher ships both splitter and fan-out settings to its workers
// inside the `EngineConfig` (floats as bit patterns).
wire_record!(SplitterConfig {
    teps, t_extra, high_degree_threshold, low_degree_threshold, max_fraction,
});
wire_record!(HubFanoutConfig { degree_threshold, fanout });

impl Default for SplitterConfig {
    fn default() -> Self {
        SplitterConfig {
            teps: 20.0e6,
            t_extra: 0.0005,
            high_degree_threshold: None,
            low_degree_threshold: None,
            max_fraction: 0.05,
        }
    }
}

impl SplitterConfig {
    /// A splitter that selects nothing — used for the PowerGraph baselines
    /// and for the one-edge-only ablation.
    pub fn disabled() -> Self {
        SplitterConfig {
            t_extra: 0.0,
            ..SplitterConfig::default()
        }
    }

    /// Solves the paper's budget equations for `(PE_high, PE_low)` given
    /// `P` machines:
    /// `PE_high = TEPS · t_extra · P / ((P−1) + 550·P/3)`.
    pub fn budget(&self, num_machines: usize) -> (usize, usize) {
        if self.t_extra <= 0.0 || num_machines < 2 {
            return (0, 0);
        }
        let p = num_machines as f64;
        let pe_high = self.teps * self.t_extra * p / ((p - 1.0) + 550.0 * p / 3.0);
        let pe_high = pe_high.floor().max(0.0) as usize;
        (pe_high, pe_high * 550)
    }
}

/// The splitter's decision: which edge indices (in [`Graph::edges`] order)
/// are parallel-edges.
#[derive(Clone, Debug, Default)]
pub struct SplitPlan {
    /// Parallel flag per edge index.
    pub is_parallel: Vec<bool>,
    /// How many edges were selected by the high-high criterion.
    pub num_high: usize,
    /// How many edges were selected by the low-low criterion.
    pub num_low: usize,
}

impl SplitPlan {
    /// A plan with no parallel edges (baseline configuration).
    pub fn none(num_edges: usize) -> Self {
        SplitPlan {
            is_parallel: vec![false; num_edges],
            num_high: 0,
            num_low: 0,
        }
    }

    /// Total selected edges.
    pub fn num_parallel(&self) -> usize {
        self.num_high + self.num_low
    }
}

/// Runs the selection criterion and budget to produce a [`SplitPlan`].
pub fn plan_split(graph: &Graph, num_machines: usize, cfg: &SplitterConfig) -> SplitPlan {
    let m = graph.num_edges();
    let (mut pe_high, mut pe_low) = cfg.budget(num_machines);
    let cap = (m as f64 * cfg.max_fraction) as usize;
    if pe_high + pe_low > cap {
        // Scale both budgets down proportionally to respect the cap.
        let scale = cap as f64 / (pe_high + pe_low).max(1) as f64;
        pe_high = (pe_high as f64 * scale) as usize;
        pe_low = (pe_low as f64 * scale) as usize;
    }
    if pe_high + pe_low == 0 {
        return SplitPlan::none(m);
    }
    let degree: Vec<u32> = graph.vertices().map(|v| graph.degree(v) as u32).collect();
    let low_thresh = cfg.low_degree_threshold.unwrap_or_else(|| {
        ((2 * graph.num_edges()).div_ceil(graph.num_vertices().max(1))).max(3)
    });
    let high_thresh = cfg.high_degree_threshold.unwrap_or_else(|| {
        // 99th-percentile total degree.
        let mut degs = degree.clone();
        let idx = ((degs.len() * 99) / 100).min(degs.len() - 1);
        (*degs.select_nth_unstable(idx).1 as usize).max(2)
    });
    let (low_thresh, high_thresh) = (low_thresh as u64, high_thresh as u64);

    // Rank candidates: high-high by combined degree (descending, biggest
    // hubs first → fastest local convergence payoff); low-low by combined
    // degree (ascending, cheapest replication first), ties to the smaller
    // edge index. A candidate is one word, rank in the high half and edge
    // index in the low, so that ascending words are the ranking.
    assert!(
        m <= u32::MAX as usize / 4,
        "ranks are 32-bit and a combined degree can reach 4·E"
    );
    let mut high_candidates: Vec<u64> = Vec::new();
    let mut low_candidates: Vec<u64> = Vec::new();
    let out = graph.out_csr();
    for src in graph.vertices() {
        let ds = u64::from(degree[src.index()]);
        let src_is_low = out.degree(src) as u64 <= low_thresh;
        for (idx, dst) in out.range(src).zip(out.neighbors(src)) {
            let dd = u64::from(degree[dst.index()]);
            if ds >= high_thresh && dd >= high_thresh {
                high_candidates.push((u64::from(u32::MAX) - (ds + dd)) << 32 | idx as u64);
            } else if src_is_low && dd <= low_thresh {
                low_candidates.push((ds + dd) << 32 | idx as u64);
            }
        }
    }

    let mut plan = SplitPlan::none(m);
    // The two candidate lists are disjoint, so marking is order-free.
    let mut mark = |candidates: &mut [u64], budget: usize| {
        let chosen = best_ranked(candidates, budget);
        for &c in chosen.iter() {
            plan.is_parallel[c as u32 as usize] = true;
        }
        chosen.len()
    };
    plan.num_high = mark(&mut high_candidates, pe_high);
    plan.num_low = mark(&mut low_candidates, pe_low);
    plan
}

/// The `budget` smallest of `candidates`, in no particular order. No two
/// candidates are equal (each carries its edge index), so the ranking is
/// strict and its first `budget` entries are one set however a selection
/// arranges them — a linear-time selection picks what a full sort would.
fn best_ranked(candidates: &mut [u64], budget: usize) -> &[u64] {
    if budget < candidates.len() {
        candidates.select_nth_unstable(budget).0
    } else {
        candidates
    }
}

/// Degree-aware hub fan-out: a post-pass over a per-edge assignment that
/// spreads every hub's edge list across `fanout` machines.
///
/// A vertex whose *higher-degree* endpoint role crosses the threshold
/// gets its adjacent edges dealt round-robin over a deterministic window
/// of machines (seeded by the hub id, so different hubs use different
/// windows). The reassignment happens before replica derivation, so the
/// hub simply ends up replicated on every window machine and its partial
/// accumulations ⊕-merge through the ordinary mirror machinery at the
/// coherency exchange — no special-case state anywhere downstream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HubFanoutConfig {
    /// Degree at or above which a vertex counts as a hub. `None` derives
    /// 8× the average degree (matching the adversarial fixture in
    /// `lazygraph_graph::fixtures`).
    pub degree_threshold: Option<usize>,
    /// How many machines each hub's edges spread across; 0 disables the
    /// pass entirely (the static-placement baseline).
    pub fanout: usize,
}

impl HubFanoutConfig {
    /// Fan-out over all machines with the derived threshold.
    pub fn all_machines() -> Self {
        HubFanoutConfig {
            degree_threshold: None,
            fanout: usize::MAX,
        }
    }

    /// True when the pass would reassign nothing.
    pub fn is_disabled(&self) -> bool {
        self.fanout == 0
    }
}

/// Applies [`HubFanoutConfig`] to `assignment` in place; returns the
/// number of edges reassigned. Each edge is attributed to its
/// higher-degree endpoint (ties break to the smaller id), and if that
/// endpoint is a hub the edge goes to
/// `(mix64(hub) + k) % num_machines` for the hub's k-th adjacent edge in
/// edge-index order — pure integer arithmetic, deterministic for a given
/// graph.
pub fn apply_hub_fanout(
    graph: &Graph,
    assignment: &mut [MachineId],
    num_machines: usize,
    cfg: &HubFanoutConfig,
) -> usize {
    if cfg.is_disabled() || num_machines < 2 {
        return 0;
    }
    let fanout = cfg.fanout.min(num_machines);
    let threshold = cfg
        .degree_threshold
        .unwrap_or_else(|| lazygraph_graph::fixtures::hub_degree_threshold(graph));
    let n = graph.num_vertices();
    let mut counter = vec![0u64; n];
    let mut moved = 0usize;
    for (idx, e) in graph.edges().enumerate() {
        let (ds, dd) = (graph.degree(e.src), graph.degree(e.dst));
        let hub = if ds > dd || (ds == dd && e.src.0 <= e.dst.0) {
            e.src
        } else {
            e.dst
        };
        if graph.degree(hub) < threshold {
            continue;
        }
        let k = counter[hub.index()];
        counter[hub.index()] += 1;
        // Window base is hub-seeded so different hubs spread over
        // different machine windows; k walks the window round-robin.
        let base = (mix64(hub.0 as u64) % num_machines as u64) as usize;
        let target = MachineId::from((base + (k % fanout as u64) as usize) % num_machines);
        if assignment[idx] != target {
            assignment[idx] = target;
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
    use lazygraph_graph::GraphBuilder;
    use proptest::prelude::*;

    /// `plan_split` as it was before it selected: every candidate fully
    /// sorted to take a prefix. Kept as the oracle.
    fn plan_by_full_sort(graph: &Graph, num_machines: usize, cfg: &SplitterConfig) -> SplitPlan {
        let m = graph.num_edges();
        let (mut pe_high, mut pe_low) = cfg.budget(num_machines);
        let cap = (m as f64 * cfg.max_fraction) as usize;
        if pe_high + pe_low > cap {
            let scale = cap as f64 / (pe_high + pe_low).max(1) as f64;
            pe_high = (pe_high as f64 * scale) as usize;
            pe_low = (pe_low as f64 * scale) as usize;
        }
        if pe_high + pe_low == 0 {
            return SplitPlan::none(m);
        }
        let low_thresh = cfg.low_degree_threshold.unwrap_or_else(|| {
            ((2 * graph.num_edges()).div_ceil(graph.num_vertices().max(1))).max(3)
        });
        let high_thresh = cfg.high_degree_threshold.unwrap_or_else(|| {
            let mut degs: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
            degs.sort_unstable();
            let idx = (degs.len() * 99) / 100;
            degs[idx.min(degs.len() - 1)].max(2)
        });
        let mut high_candidates: Vec<(usize, usize)> = Vec::new();
        let mut low_candidates: Vec<(usize, usize)> = Vec::new();
        for (idx, e) in graph.edges().enumerate() {
            let ds = graph.degree(e.src);
            let dd = graph.degree(e.dst);
            if ds >= high_thresh && dd >= high_thresh {
                high_candidates.push((idx, ds + dd));
            } else if graph.out_degree(e.src) <= low_thresh && dd <= low_thresh {
                low_candidates.push((idx, ds + dd));
            }
        }
        high_candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        low_candidates.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut plan = SplitPlan::none(m);
        for &(idx, _) in high_candidates.iter().take(pe_high) {
            plan.is_parallel[idx] = true;
            plan.num_high += 1;
        }
        for &(idx, _) in low_candidates.iter().take(pe_low) {
            if !plan.is_parallel[idx] {
                plan.is_parallel[idx] = true;
                plan.num_low += 1;
            }
        }
        plan
    }

    fn assert_same_plan(g: &Graph, machines: usize, cfg: &SplitterConfig) {
        let got = plan_split(g, machines, cfg);
        let want = plan_by_full_sort(g, machines, cfg);
        assert_eq!(got.is_parallel, want.is_parallel);
        assert_eq!((got.num_high, got.num_low), (want.num_high, want.num_low));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A selected prefix is the sorted prefix, whether the budget
        /// undercuts, equals or exceeds the candidate count; scores collide
        /// constantly, so the edge-index tie-break decides most of it.
        #[test]
        fn selection_takes_what_a_full_sort_takes(
            scores in proptest::collection::vec(0u64..6, 0..60),
            budget in 0usize..70,
        ) {
            let mut candidates: Vec<u64> =
                scores.iter().zip(0u64..).map(|(s, idx)| s << 32 | idx).collect();
            for budget in [budget, candidates.len(), candidates.len().saturating_sub(1)] {
                let mut want = candidates.clone();
                want.sort_unstable();
                want.truncate(budget);
                let mut got = best_ranked(&mut candidates, budget).to_vec();
                got.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }

        /// Whole plans against the full sort, over budgets from nothing to
        /// every edge and thresholds that make both criteria bite.
        #[test]
        fn plans_match_the_full_sort(
            n in 4usize..50,
            links in proptest::collection::vec((0u32..50, 0u32..50), 1..250),
            machines in 2usize..9,
            t_extra in 0.0f64..0.00002,
            max_fraction in 0.0f64..1.0,
            thresholds in (0usize..12, 0usize..12, any::<bool>()),
        ) {
            let mut b = GraphBuilder::new(n);
            for (s, d) in links {
                b.add_edge(s % n as u32, d % n as u32);
            }
            let g = b.build();
            let (high, low, derived) = thresholds;
            let cfg = SplitterConfig {
                t_extra,
                max_fraction,
                high_degree_threshold: (!derived).then_some(high),
                low_degree_threshold: (!derived).then_some(low),
                ..SplitterConfig::default()
            };
            assert_same_plan(&g, machines, &cfg);
        }
    }

    #[test]
    fn plans_match_the_full_sort_on_generated_graphs() {
        let graphs = [
            rmat(RmatConfig::graph500(11, 8, 2)),
            grid2d(Grid2dConfig::road(30, 30, 3)),
        ];
        for g in &graphs {
            for t_extra in [0.0, 0.00001, 0.0005, 10.0] {
                for max_fraction in [0.01, 0.05, 1.0] {
                    let cfg = SplitterConfig {
                        t_extra,
                        max_fraction,
                        ..SplitterConfig::default()
                    };
                    assert_same_plan(g, 8, &cfg);
                }
            }
        }
    }

    #[test]
    fn budget_equation_matches_paper_form() {
        let cfg = SplitterConfig {
            teps: 20.0e6,
            t_extra: 0.001,
            ..Default::default()
        };
        let p = 48usize;
        let (high, low) = cfg.budget(p);
        assert_eq!(low, high * 550);
        // Re-check the defining equation within rounding:
        let lhs = (high as f64 * (p as f64 - 1.0) + low as f64 * (p as f64 / 3.0)) / p as f64;
        let rhs = cfg.teps * cfg.t_extra;
        assert!(
            (lhs - rhs).abs() / rhs < 0.05,
            "budget equation violated: lhs {lhs}, rhs {rhs}"
        );
    }

    #[test]
    fn zero_budget_when_disabled() {
        let cfg = SplitterConfig::disabled();
        assert_eq!(cfg.budget(48), (0, 0));
        let g = rmat(RmatConfig::graph500(9, 8, 1));
        let plan = plan_split(&g, 48, &cfg);
        assert_eq!(plan.num_parallel(), 0);
        assert!(plan.is_parallel.iter().all(|&b| !b));
    }

    #[test]
    fn single_machine_never_splits() {
        let cfg = SplitterConfig::default();
        assert_eq!(cfg.budget(1), (0, 0));
    }

    #[test]
    fn selection_prefers_hubs_and_leaves() {
        let g = rmat(RmatConfig::graph500(11, 8, 2));
        let cfg = SplitterConfig {
            t_extra: 0.0005,
            ..Default::default()
        };
        let plan = plan_split(&g, 16, &cfg);
        assert!(plan.num_parallel() > 0, "expected some parallel edges");
        // Verify the criterion: every selected edge is high-high or low-low.
        let mut degs: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        let high_thresh = degs[(degs.len() * 99) / 100].max(2);
        let low_thresh = ((2 * g.num_edges()).div_ceil(g.num_vertices())).max(3);
        for (idx, e) in g.edges().enumerate() {
            if plan.is_parallel[idx] {
                let hh = g.degree(e.src) >= high_thresh && g.degree(e.dst) >= high_thresh;
                let ll = g.out_degree(e.src) <= low_thresh && g.degree(e.dst) <= low_thresh;
                assert!(hh || ll, "edge {idx} violates the selection criterion");
            }
        }
    }

    #[test]
    fn cap_respected() {
        let g = grid2d(Grid2dConfig::road(30, 30, 3));
        let cfg = SplitterConfig {
            t_extra: 10.0, // absurd budget
            max_fraction: 0.01,
            ..Default::default()
        };
        let plan = plan_split(&g, 8, &cfg);
        assert!(plan.num_parallel() <= g.num_edges() / 100 + 1);
    }

    #[test]
    fn plan_deterministic() {
        let g = rmat(RmatConfig::weblike(10, 8, 5));
        let cfg = SplitterConfig::default();
        let p1 = plan_split(&g, 16, &cfg);
        let p2 = plan_split(&g, 16, &cfg);
        assert_eq!(p1.is_parallel, p2.is_parallel);
    }

    #[test]
    fn fanout_spreads_hub_edges() {
        let g = rmat(RmatConfig::skewed(10, 8, 7));
        let n = 4usize;
        let mut assignment = lazygraph_graph::fixtures::adversarial_hub_assignment(&g, n);
        let before = crate::vertex_cut::load_imbalance(&assignment, n);
        let moved = apply_hub_fanout(&g, &mut assignment, n, &HubFanoutConfig::all_machines());
        assert!(moved > 0, "no hub edges were reassigned");
        let after = crate::vertex_cut::load_imbalance(&assignment, n);
        assert!(
            after < before,
            "fan-out did not flatten the edge balance: {before:.3} -> {after:.3}"
        );
        // Every hub's edges now touch more than one machine.
        let t = lazygraph_graph::fixtures::hub_degree_threshold(&g);
        let mut touched: Vec<std::collections::BTreeSet<u16>> =
            vec![Default::default(); g.num_vertices()];
        for (e, m) in g.edges().zip(&assignment) {
            touched[e.src.index()].insert(m.0);
            touched[e.dst.index()].insert(m.0);
        }
        for v in g.vertices() {
            if g.degree(v) >= t {
                assert!(
                    touched[v.index()].len() > 1,
                    "hub {v:?} (degree {}) stayed on one machine",
                    g.degree(v)
                );
            }
        }
    }

    #[test]
    fn fanout_deterministic_and_gated() {
        let g = rmat(RmatConfig::skewed(9, 8, 3));
        let base = lazygraph_graph::fixtures::adversarial_hub_assignment(&g, 4);
        let mut a = base.clone();
        let mut b = base.clone();
        let cfg = HubFanoutConfig {
            degree_threshold: Some(64),
            fanout: 3,
        };
        apply_hub_fanout(&g, &mut a, 4, &cfg);
        apply_hub_fanout(&g, &mut b, 4, &cfg);
        assert_eq!(a, b);
        let mut c = base.clone();
        assert_eq!(
            apply_hub_fanout(&g, &mut c, 4, &HubFanoutConfig::default()),
            0,
            "fanout=0 must be a no-op"
        );
        assert_eq!(c, base);
    }
}
