//! The adaptive interval model (§4.2.1): when to turn lazy mode on, and how
//! long each local computation stage may run.
//!
//! The paper trains a decision tree over two features — graph locality
//! (`E/V`, replication factor) and the algorithm's active-vertex trend —
//! and reports the learned rule:
//!
//! * turn lazy mode on when `E/V ≤ 10 || trend ≥ 0.07`, where
//!   `trend = (cnt_{t−1} − cnt_t) / cnt_{t−1}` over active-vertex counts at
//!   successive coherency points (negative trend = ascent phase);
//! * the first iteration always runs without a local computation stage;
//! * `T` is collected online as the duration of the run's first local
//!   computation stage (which runs to local quiescence); every later local
//!   stage runs no longer than `3·T` (`doLC()`).
//!
//! The last bullet is kept to the letter where locality is good
//! (`E/V ≤ ev_threshold`). Where it is poor — the branch whose lazy mode is
//! trend-gated — a stage is rationed by what it is there to amortise
//! instead: a sub-round is admitted only while the stage, that sub-round
//! included, stays within [`STAGE_BUDGET_FRACTION`] of the simulated cost
//! the previous coherency point was charged (DESIGN.md §17, "How long a
//! local stage runs"). No multiple of `T` can say that: on a skewed graph a
//! sub-round is a full-graph sweep in the dense phase and a few hundred
//! edges in the tail, and only the second is cheap next to the barrier and
//! exchange it postpones.

use crate::config::IntervalPolicy;

/// The share κ of the previous coherency point's simulated cost a budgeted
/// local stage may spend. Measured, not derived (EXPERIMENTS.md, "Budgeted
/// local stages"; `pr-social`, 10 + 30 seeds): ¼, ½ and ¾ sit on one
/// plateau of `lazy_sim_s` and ½ is its middle and the point with the
/// narrowest spread across seeds; from κ = 1 on the median is worse and the
/// spread several times wider, and so is any κ when the check only runs
/// after the sub-round.
pub const STAGE_BUDGET_FRACTION: f64 = 0.5;

/// One local stage's progress on this machine, as `doLC()` sees it before
/// a sub-round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageProgress {
    /// Sub-rounds the stage has run so far.
    pub subrounds: u64,
    /// Simulated compute the stage has been charged so far, seconds.
    pub elapsed: f64,
    /// Simulated compute the sub-round in question would be charged,
    /// seconds. Only a budgeted stage reads it.
    pub predicted: f64,
}

/// Tracks the active-vertex trend and answers `turnOnLazy()` / `doLC()`.
#[derive(Clone, Debug)]
pub struct IntervalModel {
    policy: IntervalPolicy,
    ev_ratio: f64,
    prev_active: Option<u64>,
    last_trend: f64,
    iterations_seen: u64,
}

impl IntervalModel {
    /// A model for one run over a graph with the given `E/V`.
    pub fn new(policy: IntervalPolicy, ev_ratio: f64) -> Self {
        IntervalModel {
            policy,
            ev_ratio,
            prev_active: None,
            last_trend: 0.0,
            iterations_seen: 0,
        }
    }

    /// Records the global active-vertex count observed at a data coherency
    /// stage and updates the trend.
    pub fn observe_active(&mut self, count: u64) {
        if let Some(prev) = self.prev_active {
            if prev > 0 {
                self.last_trend = (prev as f64 - count as f64) / prev as f64;
            }
        }
        self.prev_active = Some(count);
        self.iterations_seen += 1;
    }

    /// The current trend value (positive = descent part of the algorithm).
    pub fn trend(&self) -> f64 {
        self.last_trend
    }

    /// The model's mutable state, for checkpointing:
    /// `(prev_active, last_trend, iterations_seen)`.
    pub fn export_state(&self) -> (Option<u64>, f64, u64) {
        (self.prev_active, self.last_trend, self.iterations_seen)
    }

    /// Restores state captured by [`Self::export_state`] — the policy and
    /// `E/V` are reconstruction inputs, not state, so only the trend
    /// tracker moves.
    pub fn import_state(&mut self, state: (Option<u64>, f64, u64)) {
        self.prev_active = state.0;
        self.last_trend = state.1;
        self.iterations_seen = state.2;
    }

    /// `turnOnLazy()` — may the engine enter the local computation stage?
    pub fn turn_on_lazy(&self) -> bool {
        // The first iteration always runs eagerly (establishes x^(1), Δ^(1)).
        if self.iterations_seen < 1 {
            return false;
        }
        match self.policy {
            IntervalPolicy::AlwaysLazy => true,
            IntervalPolicy::NeverLazy => false,
            IntervalPolicy::Adaptive {
                ev_threshold,
                trend_threshold,
                ..
            } => self.ev_ratio <= ev_threshold || self.last_trend >= trend_threshold,
        }
    }

    /// Whether this run's local stages are rationed by the cost of the
    /// coherency point they postpone instead of bounded by a multiple of
    /// `T`: the poor-locality branch of the adaptive rule, the complement
    /// of the `E/V ≤ ev_threshold` that turns lazy mode on unconditionally.
    pub fn budgets_stages(&self) -> bool {
        matches!(
            self.policy,
            IntervalPolicy::Adaptive { ev_threshold, .. } if self.ev_ratio > ev_threshold
        )
    }

    /// The simulated seconds the local stage about to start may spend.
    /// `first_stage` is the measured duration `T` of this run's *first*
    /// local computation stage (`None` while it is still being measured:
    /// that stage runs to local quiescence and establishes `T` online, per
    /// §4.2.1; later stages get `local_bound_factor · T`). A budgeted run
    /// ([`Self::budgets_stages`]) has no `T` and no unbounded first stage:
    /// every stage gets [`STAGE_BUDGET_FRACTION`] of `coherency_cost`, the
    /// simulated seconds the previous coherency point was charged.
    pub fn stage_budget(&self, first_stage: Option<f64>, coherency_cost: f64) -> f64 {
        match self.policy {
            IntervalPolicy::AlwaysLazy => f64::INFINITY,
            IntervalPolicy::NeverLazy => 0.0,
            IntervalPolicy::Adaptive { .. } if self.budgets_stages() => {
                STAGE_BUDGET_FRACTION * coherency_cost
            }
            IntervalPolicy::Adaptive {
                local_bound_factor, ..
            } => match first_stage {
                None => f64::INFINITY,
                Some(t) => local_bound_factor * t.max(f64::MIN_POSITIVE),
            },
        }
    }

    /// `doLC()` — may the stage run the sub-round `stage` describes?
    /// `budget` is what [`Self::stage_budget`] gave this stage. The paper's
    /// bound is read between sub-rounds, so a stage always runs its first
    /// and may overshoot by one. A budgeted stage is asked *before* every
    /// sub-round, the first included, and admits it only if the stage stays
    /// within the budget with it — so a stage may admit none (the iteration
    /// is then an eager one), and a budget that is zero or not a number
    /// admits nothing.
    pub fn continue_local_stage(&self, budget: f64, stage: StageProgress) -> bool {
        match self.policy {
            IntervalPolicy::AlwaysLazy => true,
            IntervalPolicy::NeverLazy => false,
            IntervalPolicy::Adaptive { .. } if self.budgets_stages() => {
                stage.elapsed + stage.predicted <= budget
            }
            IntervalPolicy::Adaptive { .. } => stage.subrounds == 0 || stage.elapsed < budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive() -> IntervalPolicy {
        IntervalPolicy::paper_adaptive()
    }

    #[test]
    fn first_iteration_is_always_eager() {
        let m = IntervalModel::new(adaptive(), 2.0);
        assert!(!m.turn_on_lazy(), "paper: first iteration without local stage");
        let m2 = IntervalModel::new(IntervalPolicy::AlwaysLazy, 2.0);
        assert!(!m2.turn_on_lazy());
    }

    #[test]
    fn good_locality_turns_on_after_first() {
        // Road graph: E/V ≈ 2.4 ≤ 10 → lazy on regardless of trend.
        let mut m = IntervalModel::new(adaptive(), 2.4);
        m.observe_active(1000);
        assert!(m.turn_on_lazy());
        // Even in the ascent phase (growing active set → negative trend).
        m.observe_active(5000);
        assert!(m.trend() < 0.0);
        assert!(m.turn_on_lazy());
    }

    #[test]
    fn poor_locality_needs_descent() {
        // Twitter-like: E/V ≈ 24 > 10 → lazy only when trend ≥ 0.07.
        let mut m = IntervalModel::new(adaptive(), 24.0);
        m.observe_active(1000);
        assert!(!m.turn_on_lazy(), "no trend yet");
        m.observe_active(2000); // ascent
        assert!(m.trend() < 0.0);
        assert!(!m.turn_on_lazy());
        m.observe_active(1000); // sharp descent: trend = 0.5
        assert!((m.trend() - 0.5).abs() < 1e-12);
        assert!(m.turn_on_lazy());
    }

    #[test]
    fn shallow_descent_below_threshold_stays_eager() {
        let mut m = IntervalModel::new(adaptive(), 24.0);
        m.observe_active(1000);
        m.observe_active(950); // trend = 0.05 < 0.07
        assert!(!m.turn_on_lazy());
        m.observe_active(870); // trend ≈ 0.084 ≥ 0.07
        assert!(m.turn_on_lazy());
    }

    /// `doLC()` between two sub-rounds of a stage `elapsed` seconds old,
    /// in a run whose first stage took `t`.
    fn between_subrounds(m: &IntervalModel, t: Option<f64>, elapsed: f64) -> bool {
        let stage = StageProgress {
            subrounds: 1,
            elapsed,
            predicted: 0.0,
        };
        m.continue_local_stage(m.stage_budget(t, 0.0), stage)
    }

    #[test]
    fn local_stage_bound_is_3t() {
        let m = IntervalModel::new(adaptive(), 2.0);
        let t = Some(0.010);
        assert!(between_subrounds(&m, t, 0.0));
        assert!(between_subrounds(&m, t, 0.029));
        assert!(!between_subrounds(&m, t, 0.030));
        assert!(!between_subrounds(&m, t, 1.0));
    }

    #[test]
    fn first_stage_is_unbounded() {
        let m = IntervalModel::new(adaptive(), 2.0);
        assert!(between_subrounds(&m, None, 1.0e9));
    }

    #[test]
    fn always_lazy_never_bounds() {
        let m = IntervalModel::new(IntervalPolicy::AlwaysLazy, 50.0);
        assert!(between_subrounds(&m, Some(0.001), 1.0e9));
        let mut m2 = m.clone();
        m2.observe_active(10);
        assert!(m2.turn_on_lazy());
    }

    #[test]
    fn never_lazy_never_enters() {
        let mut m = IntervalModel::new(IntervalPolicy::NeverLazy, 2.0);
        m.observe_active(10);
        m.observe_active(1);
        assert!(!m.turn_on_lazy());
        assert!(!between_subrounds(&m, Some(1.0), 0.0));
    }

    #[test]
    fn good_locality_ignores_cost_and_prediction() {
        // At the threshold itself the paper's rule still governs: the
        // coherency cost and the prediction are not read, and a stage
        // always runs its first sub-round.
        let m = IntervalModel::new(adaptive(), 10.0);
        assert!(!m.budgets_stages());
        for c in [0.0, 0.045, f64::NAN] {
            assert_eq!(m.stage_budget(None, c), f64::INFINITY);
            assert_eq!(m.stage_budget(Some(0.010), c), 3.0 * 0.010);
        }
        let costly_first = StageProgress {
            subrounds: 0,
            elapsed: 0.0,
            predicted: 1.0e9,
        };
        assert!(m.continue_local_stage(0.0, costly_first));
        // Lifting the threshold selects this branch on any graph.
        let withheld = IntervalPolicy::Adaptive {
            ev_threshold: f64::INFINITY,
            trend_threshold: 0.07,
            local_bound_factor: 3.0,
        };
        assert!(!IntervalModel::new(withheld, 24.0).budgets_stages());
    }

    /// `doLC()` of a budgeted model before a sub-round predicted to cost
    /// `predicted`, `elapsed` into a stage after a coherency point of cost
    /// `c`. `T` is never measured on this branch.
    fn budgeted(c: f64, subrounds: u64, elapsed: f64, predicted: f64) -> bool {
        let m = IntervalModel::new(adaptive(), 24.0);
        assert!(m.budgets_stages());
        let stage = StageProgress {
            subrounds,
            elapsed,
            predicted,
        };
        m.continue_local_stage(m.stage_budget(None, c), stage)
    }

    #[test]
    fn poor_locality_budgets_every_stage_the_first_included() {
        let m = IntervalModel::new(adaptive(), 24.0);
        // No unbounded first stage, and `T` would not change the budget.
        assert_eq!(m.stage_budget(None, 0.044), STAGE_BUDGET_FRACTION * 0.044);
        assert_eq!(m.stage_budget(Some(1.0), 0.044), m.stage_budget(None, 0.044));
        // A sub-round is admitted while the stage stays within ½·C with it.
        assert!(budgeted(0.044, 0, 0.0, 0.022));
        assert!(budgeted(0.044, 3, 0.010, 0.012));
        assert!(!budgeted(0.044, 3, 0.010, 0.0121));
        assert!(!budgeted(0.044, 1, 0.023, 0.0));
    }

    #[test]
    fn costly_first_subround_is_refused() {
        // The dense phase: one sub-round is a full-graph sweep, dearer than
        // the coherency point it would postpone. The stage admits none.
        assert!(!budgeted(0.044, 0, 0.0, 0.108));
        assert!(!budgeted(0.044, 0, 0.0, 0.0221));
    }

    #[test]
    fn degenerate_coherency_cost_admits_nothing() {
        for c in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            assert!(!budgeted(c, 0, 0.0, 1.0e-9), "C = {c}");
            assert!(!budgeted(c, 2, 1.0e-6, 1.0e-9), "C = {c}");
        }
        // Nor does a prediction that is not a number.
        assert!(!budgeted(0.044, 0, 0.0, f64::NAN));
    }

    #[test]
    fn trend_handles_zero_prev() {
        let mut m = IntervalModel::new(adaptive(), 24.0);
        m.observe_active(0);
        m.observe_active(100);
        // prev == 0: trend untouched, no division by zero.
        assert_eq!(m.trend(), 0.0);
    }
}
