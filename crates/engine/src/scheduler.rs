//! Epoch-bucketed deterministic priority scheduling for the
//! delta-accumulative engine (DESIGN.md §15).
//!
//! Maiter-style selective execution processes the largest-|delta| vertices
//! first, but a literal priority queue breaks the repo's bitwise
//! determinism contract: heap pop order depends on insertion order and
//! float ties, and any hash-based bucket map iterates in nondeterministic
//! order (DESIGN.md §8). This module replaces the queue with
//! **power-of-two priority buckets**: a pending vertex with priority `p`
//! lands in bucket `⌊log₂(p / tolerance)⌋` (clamped to the bucket range),
//! and each epoch the scheduler selects whole buckets from the top down
//! until at least [`SELECT_NUM`]`/`[`SELECT_DEN`] of the schedulable
//! worklist is covered (Maiter's top-portion selective execution), in
//! ascending local-id order. Selecting a portion rather than the single
//! top bucket keeps epochs large enough for sender-side combining to
//! fold same-target deltas — one-bucket epochs ship nearly uncombined
//! traffic. The cut is integer arithmetic over bucket occupancy counts,
//! so the plan is a pure function of
//! `(candidates, tolerance, num_buckets)` — no clocks, no hashes, no
//! allocation-order dependence — so execution order is reproducible at
//! every thread count and across reruns, and no lint exemption is needed.
//!
//! `⌊log₂⌋` is computed by IEEE-754 exponent extraction rather than
//! `f64::log2` so the binning is bit-exact on every platform: for a
//! normal `r ≥ 1`, the unbiased exponent *is* `⌊log₂ r⌋`.
//!
//! The lazy-block engine's scheduling cut ([`cut_most_urgent`], DESIGN.md
//! §17) lives here too, under the same rules: a pure function of the
//! pending set and its keys.

/// Bucket index of a priority ratio `r = priority / tolerance`, for
/// `r ≥ 1`: `⌊log₂ r⌋` via exponent extraction (exact, no libm).
#[inline]
fn pow2_bucket(r: f64) -> usize {
    if r.is_infinite() {
        return usize::MAX;
    }
    let e = ((r.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    // `r ≥ 1` (the caller gates sub-tolerance out), so the unbiased
    // exponent is non-negative except for subnormal-adjacent edge cases
    // clamped to zero.
    e.max(0) as usize
}

/// Each epoch selects whole buckets from the top down until at least
/// `SELECT_NUM / SELECT_DEN` of the schedulable worklist is covered —
/// Maiter's top-portion heuristic, expressed as an exact integer cut
/// over occupancy counts so the plan stays deterministic.
pub const SELECT_NUM: u64 = 1;
/// See [`SELECT_NUM`].
pub const SELECT_DEN: u64 = 4;

/// The deterministic bucket scheduler: binning parameters plus per-epoch
/// occupancy scratch (counts only — vertex ids are never stored across
/// epochs, so there is no cross-iteration state to snapshot; an epoch
/// plan is recomputed from `MachineState` alone).
#[derive(Clone, Debug)]
pub struct PriorityBuckets {
    num_buckets: usize,
    tolerance: f64,
    occupancy: Vec<u64>,
}

/// One epoch's schedule, partitioned from the pending worklist. All three
/// id lists preserve the caller's (ascending local-id) order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochPlan {
    /// The highest non-empty buckets' vertices (down to the portion cut)
    /// — this epoch's worklist.
    pub selected: Vec<u32>,
    /// Schedulable vertices below the cut, to be re-queued untouched.
    pub deferred: Vec<u32>,
    /// Sub-tolerance vertices: their accumulated delta is negligible
    /// within the program's error model, so they leave the schedule until
    /// a fresh delivery re-activates them.
    pub skipped: Vec<u32>,
    /// Index of the highest non-empty bucket (None when nothing is
    /// schedulable).
    pub top_bucket: Option<usize>,
    /// Largest single-bucket occupancy observed while binning — the
    /// `bucket_high_water` statistic.
    pub high_water: u64,
}

impl PriorityBuckets {
    /// A scheduler with `num_buckets` power-of-two magnitude classes above
    /// `tolerance`. Both are clamped to sane floors (at least one bucket;
    /// a positive tolerance) so a misconfigured run degrades to
    /// process-everything rather than dividing by zero.
    pub fn new(num_buckets: usize, tolerance: f64) -> Self {
        let num_buckets = num_buckets.max(1);
        PriorityBuckets {
            num_buckets,
            tolerance: if tolerance > 0.0 { tolerance } else { f64::MIN_POSITIVE },
            occupancy: vec![0; num_buckets],
        }
    }

    /// The termination threshold the binning uses.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Whether `priority` is large enough to schedule at all.
    #[inline]
    pub fn schedulable(&self, priority: f64) -> bool {
        priority >= self.tolerance
    }

    /// Bucket index for `priority`: `None` below tolerance (or NaN),
    /// otherwise `⌊log₂(priority / tolerance)⌋` clamped into range.
    /// Higher index = higher priority.
    #[inline]
    pub fn bucket_of(&self, priority: f64) -> Option<usize> {
        if !self.schedulable(priority) {
            return None;
        }
        Some(pow2_bucket(priority / self.tolerance).min(self.num_buckets - 1))
    }

    /// Bins `candidates` (ascending local ids with their priorities) and
    /// selects the highest buckets, top down, until at least
    /// `SELECT_NUM / SELECT_DEN` of the schedulable candidates are in the
    /// worklist. Pure: identical candidates always produce the identical
    /// plan.
    pub fn plan(&mut self, candidates: &[(u32, f64)]) -> EpochPlan {
        debug_assert!(
            candidates.windows(2).all(|w| w[0].0 < w[1].0),
            "scheduler candidates must ascend by local id"
        );
        self.occupancy.iter_mut().for_each(|c| *c = 0);
        let mut plan = EpochPlan::default();
        let mut top: Option<usize> = None;
        let mut schedulable: u64 = 0;
        for &(_, p) in candidates {
            if let Some(b) = self.bucket_of(p) {
                self.occupancy[b] += 1;
                plan.high_water = plan.high_water.max(self.occupancy[b]);
                top = Some(top.map_or(b, |t: usize| t.max(b)));
                schedulable += 1;
            }
        }
        plan.top_bucket = top;
        // Walk down from the top bucket until the covered occupancy meets
        // the portion target (integer ceiling — no float thresholds).
        let target = (schedulable * SELECT_NUM).div_ceil(SELECT_DEN);
        let cut = top.map(|t| {
            let mut covered = 0u64;
            let mut cut = t;
            for b in (0..=t).rev() {
                covered += self.occupancy[b];
                cut = b;
                if covered >= target {
                    break;
                }
            }
            cut
        });
        for &(l, p) in candidates {
            match (self.bucket_of(p), cut) {
                (Some(b), Some(c)) if b >= c => plan.selected.push(l),
                (Some(_), _) => plan.deferred.push(l),
                (None, _) => plan.skipped.push(l),
            }
        }
        plan
    }
}

/// An ordered local stage — one of a program with a local order
/// ([`VertexProgram::local_order`](crate::program::VertexProgram::local_order)),
/// from coherency iteration [`LOCAL_ORDER_FROM`] on — sweeps, each
/// sub-round, the most urgent `1 / LOCAL_CUT_DEN` of its pending vertices.
/// Read off the measured curve (EXPERIMENTS.md, "Ordered local stages",
/// road SSSP with every stage ordered): a narrower cut keeps shaving the
/// simulated clock (½ → ¼ → ⅛ → 1⁄64: 2.87 → 2.53 → 2.42 → 2.35 s) but
/// multiplies the sub-rounds, each a fixed cost on the wall clock (0.98 →
/// 0.87 → 0.94 → 1.56 s) — the optimum is interior, at a quarter.
pub const LOCAL_CUT_DEN: usize = 4;

/// Fewest vertices an ordered sub-round sweeps, so the thin tail of a
/// stage is not sliced into sweeps too small to pay for themselves; a
/// worklist no longer than this runs whole, unkeyed. Same curve: the
/// largest floor that costs the simulated clock nothing (within 0.3 % of
/// no minimum; 2 % worse at 256, 25 % at 1024), with the wall clock flat
/// up to 256 at a quarter and halved by it at narrower cuts.
pub const LOCAL_MIN_BATCH: usize = 64;

/// The first coherency iteration whose local stage is ordered; earlier
/// stages sweep everything pending, as a program without an order does.
/// This is not the optimum of a curve but the largest step
/// `BENCHMARK.json` admits in one change. Ordering every stage is 4.6×
/// faster still on road SSSP (`lazy_sim_s` 11.8 → 2.5 s, same section),
/// but the contract holds `sim_speedup`'s spread across seeds to an
/// absolute quarter of the *parent's* median (0.81), and the spread of a
/// ratio grows with the ratio: 0.5 at the parent's 3.3×, 0.6–0.9 at 4.3×,
/// 5.4 at 19×. Ordering the late stages first is the variance-cheap
/// end: their number (28–44 coherency points, by seed) is what varies,
/// and ordered they cost little each. The early stages are the long
/// ones — the first runs the source's partition to quiescence and
/// measures `T` — so `T` and the `3·T` bound also keep their old values.
/// Lower it once the baseline has been re-measured on this tree.
pub const LOCAL_ORDER_FROM: u64 = 6;

/// The ordered local stage's cut: reorders `pending` — `(urgency key, local
/// id)` pairs, any order — so the entries to sweep now come first, and
/// returns how many they are: everything at or above the k-th largest key,
/// `k = max(⌈len / LOCAL_CUT_DEN⌉, LOCAL_MIN_BATCH)`, ties included. Keys
/// compare by `f64::total_cmp`, so a NaN key is an ordinary (extreme)
/// value. Taking every tie makes the selected *set* a function of the key
/// multiset alone — not of arrival order, block size or thread count — and
/// lets equal-key programs (BFS levels) run level-synchronously; the
/// caller sorts the selected ids into the canonical sweep order.
pub fn cut_most_urgent(pending: &mut [(f64, u32)]) -> usize {
    let k = pending.len().div_ceil(LOCAL_CUT_DEN).max(LOCAL_MIN_BATCH);
    if k >= pending.len() {
        return pending.len();
    }
    let (_, &mut (kth, _), rest) =
        pending.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
    let mut ties = 0;
    for i in 0..rest.len() {
        if rest[i].0.total_cmp(&kth).is_eq() {
            rest.swap(ties, i);
            ties += 1;
        }
    }
    k + ties
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(pairs: &[(f64, u32)]) -> Vec<u32> {
        let mut ids: Vec<u32> = pairs.iter().map(|&(_, l)| l).collect();
        ids.sort_unstable();
        ids
    }

    /// The cut by its definition: full sort, then everything at or above
    /// the k-th largest key.
    fn cut_by_sorting(pending: &[(f64, u32)]) -> Vec<u32> {
        let k = pending.len().div_ceil(LOCAL_CUT_DEN).max(LOCAL_MIN_BATCH);
        let mut sorted = pending.to_vec();
        sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
        let Some(&(kth, _)) = sorted.get(k - 1) else {
            return ids(pending);
        };
        sorted.retain(|p| p.0.total_cmp(&kth).is_ge());
        ids(&sorted)
    }

    #[test]
    fn cut_takes_the_most_urgent_quarter_with_its_ties() {
        // Keys with many duplicates, so some tie class straddles the k-th
        // position and must ride along whole.
        let n = 8 * LOCAL_MIN_BATCH as u32;
        let mut pending: Vec<(f64, u32)> =
            (0..n).map(|l| (f64::from(l.wrapping_mul(2654435761) % 97), l)).collect();
        let want = cut_by_sorting(&pending);
        assert!(want.len() > pending.len().div_ceil(LOCAL_CUT_DEN), "no tie crossed the cut");
        assert!(want.len() < pending.len());
        // The selected *set* is a function of the key multiset: the same
        // whatever order the entries arrive in.
        let mut rotated = pending.clone();
        rotated.rotate_left(pending.len() / 3);
        for input in [&mut pending, &mut rotated] {
            let cut = cut_most_urgent(input);
            assert_eq!(ids(&input[..cut]), want);
        }
    }

    #[test]
    fn all_equal_keys_select_the_whole_worklist() {
        // The "no order" degenerate case: one tie class, nothing deferred.
        let mut pending: Vec<(f64, u32)> = (0..10_000).map(|l| (f64::INFINITY, l)).collect();
        assert_eq!(cut_most_urgent(&mut pending), pending.len());
        assert_eq!(ids(&pending), (0..10_000).collect::<Vec<u32>>());
    }

    #[test]
    fn short_worklists_run_whole() {
        let mut pending: Vec<(f64, u32)> =
            (0..LOCAL_MIN_BATCH as u32).map(|l| (f64::from(l), l)).collect();
        assert_eq!(cut_most_urgent(&mut pending), LOCAL_MIN_BATCH);
        assert_eq!(cut_most_urgent(&mut []), 0);
    }

    #[test]
    fn nan_keys_are_ordinary_values() {
        // total_cmp: +NaN above +∞, −NaN below −∞. No panic, and the same
        // cut whatever order the entries arrive in.
        let n = 8 * LOCAL_MIN_BATCH as u32;
        let key = |l: u32| match l % 7 {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => f64::NEG_INFINITY,
            _ => f64::from(l),
        };
        let mut a: Vec<(f64, u32)> = (0..n).map(|l| (key(l), l)).collect();
        let mut b = a.clone();
        b.reverse();
        let want = cut_by_sorting(&a);
        // Every +NaN key is in (they top the order), no −NaN key is.
        assert!((0..n).filter(|l| l % 7 == 0).all(|l| want.binary_search(&l).is_ok()));
        assert!((0..n).filter(|l| l % 7 == 1).all(|l| want.binary_search(&l).is_err()));
        for input in [&mut a, &mut b] {
            let cut = cut_most_urgent(input);
            assert_eq!(ids(&input[..cut]), want);
        }
    }

    #[test]
    fn binning_boundaries() {
        let s = PriorityBuckets::new(8, 1e-3);
        assert_eq!(s.bucket_of(0.5e-3), None, "below tolerance");
        assert_eq!(s.bucket_of(1e-3), Some(0), "exactly tolerance");
        assert_eq!(s.bucket_of(1.9e-3), Some(0));
        assert_eq!(s.bucket_of(2e-3), Some(1), "one doubling");
        assert_eq!(s.bucket_of(4.1e-3), Some(2));
        assert_eq!(s.bucket_of(1e9), Some(7), "clamped to the top bucket");
        assert_eq!(s.bucket_of(f64::INFINITY), Some(7));
        assert_eq!(s.bucket_of(f64::NAN), None, "NaN is never schedulable");
        assert_eq!(s.bucket_of(-1.0), None);
        assert_eq!(s.bucket_of(0.0), None);
    }

    #[test]
    fn exponent_extraction_matches_log2() {
        for r in [1.0, 1.5, 2.0, 3.9, 4.0, 1023.0, 1024.0, 6.02e23] {
            assert_eq!(pow2_bucket(r), r.log2().floor() as usize, "r={r}");
        }
    }

    #[test]
    fn plan_selects_highest_bucket_in_id_order() {
        let mut s = PriorityBuckets::new(8, 1.0);
        // ids ascend; priorities deliberately interleave magnitudes. Five
        // schedulable → portion target 2; the top bucket alone covers it.
        let cands = [
            (0u32, 9.0),   // bucket 3
            (2, 1.2),      // bucket 0
            (5, 8.0),      // bucket 3
            (7, 0.01),     // skipped
            (9, 3.0),      // bucket 1
            (11, 15.9),    // bucket 3
        ];
        let plan = s.plan(&cands);
        assert_eq!(plan.top_bucket, Some(3));
        assert_eq!(plan.selected, vec![0, 5, 11]);
        assert_eq!(plan.deferred, vec![2, 9]);
        assert_eq!(plan.skipped, vec![7]);
        assert_eq!(plan.high_water, 3);
    }

    #[test]
    fn portion_cut_descends_past_a_thin_top_bucket() {
        let mut s = PriorityBuckets::new(8, 1.0);
        // Eight schedulable → portion target ceil(8/4) = 2. The top bucket
        // holds one vertex, so the cut walks down (through empty buckets)
        // to bucket 1, selecting two; bucket 0 stays deferred.
        let cands = [
            (0u32, 100.0), // bucket 6
            (1, 1.1),      // bucket 0
            (2, 1.2),      // bucket 0
            (3, 1.3),      // bucket 0
            (4, 1.4),      // bucket 0
            (5, 3.0),      // bucket 1
            (6, 1.5),      // bucket 0
            (7, 1.6),      // bucket 0
        ];
        let plan = s.plan(&cands);
        assert_eq!(plan.top_bucket, Some(6));
        assert_eq!(plan.selected, vec![0, 5]);
        assert_eq!(plan.deferred, vec![1, 2, 3, 4, 6, 7]);
        assert!(plan.skipped.is_empty());
    }

    #[test]
    fn plan_is_pure() {
        let mut s = PriorityBuckets::new(16, 1e-4);
        let cands: Vec<(u32, f64)> =
            (0..500).map(|i| (i, 1e-5 * (i as f64 + 1.0) * 1.7)).collect();
        let a = s.plan(&cands);
        let b = s.plan(&cands);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_all_subtolerance_plans() {
        let mut s = PriorityBuckets::new(4, 1.0);
        let empty = s.plan(&[]);
        assert_eq!(empty.top_bucket, None);
        assert!(empty.selected.is_empty());
        let cold = s.plan(&[(1, 0.1), (3, 0.2)]);
        assert_eq!(cold.top_bucket, None);
        assert_eq!(cold.skipped, vec![1, 3]);
        assert_eq!(cold.high_water, 0);
    }

    #[test]
    fn degenerate_config_degrades_to_process_everything() {
        let mut s = PriorityBuckets::new(0, 0.0);
        let plan = s.plan(&[(0, 1e-300), (1, 1e300)]);
        // One bucket, everything positive schedulable: dense execution.
        assert_eq!(plan.selected, vec![0, 1]);
        assert!(plan.deferred.is_empty());
    }

    #[test]
    fn infinite_priority_lands_in_top_bucket() {
        let s = PriorityBuckets::new(12, 1e-3);
        assert_eq!(s.bucket_of(f64::INFINITY), Some(11));
    }
}
