//! The push-style delta vertex-program abstraction (§3.1).
//!
//! LazyGraph keeps the GAS programming interface but requires algorithms to
//! be written as *push-style vertex-programs with delta propagation*: the
//! vertex computation must fit the iterative equation
//!
//! ```text
//! x_i^(t+1) = x_i^(t) +op ⊕_{j→i ∈ E} Δ_j^(t)
//! ```
//!
//! with a commutative, associative `Sum ⊕` — this algebraic restriction is
//! exactly what makes the lazy coherency protocol correct (§3.5): replicas
//! may receive the same multiset of deltas in any order and grouping and
//! still converge to the same value.

use std::fmt::Debug;

use lazygraph_graph::VertexId;
use lazygraph_net::Wire;

/// Per-vertex context available to the program's operators: the *user-view*
/// (global) degrees — a replica sees its vertex's whole-graph degrees, not
/// its local shard's.
#[derive(Clone, Copy, Debug)]
pub struct VertexCtx {
    /// Global out-degree of the vertex.
    pub out_degree: u32,
    /// Global in-degree of the vertex.
    pub in_degree: u32,
    /// Global total degree (`in + out`) — k-core's initial core value.
    pub degree: u32,
    /// Number of vertices in the graph.
    pub num_vertices: usize,
}

/// Per-edge context passed to `scatter`.
#[derive(Clone, Copy, Debug)]
pub struct EdgeCtx {
    /// Global id of the edge's target.
    pub dst: VertexId,
    /// Edge weight.
    pub weight: f32,
}

/// What to do with an accumulated `deltaMsg` at a data coherency point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaExchange {
    /// Ship it to sibling replicas (the default).
    Send,
    /// Discard it: the program guarantees it is a no-op for every replica
    /// (idempotent algebras: a candidate that does not beat the last
    /// coherent value never will, since values move monotonically).
    Drop,
    /// Keep accumulating locally and reconsider at the next coherency
    /// point (tolerance-gated algebras: sub-threshold mass may be delayed
    /// within the program's own error model).
    Defer,
}

/// An urgency key over `(vertex value, pending accumulator)`, larger =
/// sooner: what [`VertexProgram::local_order`] declares.
pub type LocalOrder<V, D> = fn(&V, &D) -> f64;

/// A push-style delta vertex program. Mirrors the paper's
/// `GatherMsg / Sum / Inverse / Apply / Scatter` interface (§3.1, Fig. 3).
///
/// Engine contract:
/// * [`VertexProgram::sum`] must be commutative and associative;
/// * [`VertexProgram::inverse`] must remove one contribution from a
///   combined accumulator (`inverse(sum(a, b), a) ≡ b`) — or, for
///   *idempotent* programs (`min`/`max` style), return the accumulator
///   unchanged, because re-applying one's own contribution is harmless;
/// * [`VertexProgram::apply`] must be a deterministic function of the
///   current value and the accumulator.
///
/// Both associated types carry a [`Wire`] bound so every engine message is
/// transport-agnostic: the in-proc mesh moves the values untouched, while
/// the TCP backend encodes them with the deterministic little-endian codec
/// (bit-identical on every platform, so a TCP run reproduces an in-proc
/// run exactly). The `'static` supertrait lets a TCP endpoint's links
/// join its machine's I/O loop, which holds them type-erased.
pub trait VertexProgram: Send + Sync + 'static {
    /// Vertex value type.
    type VData: Clone + Send + Sync + PartialEq + Debug + Wire + 'static;
    /// Message / delta type. `Default` is any value at all, never folded:
    /// it fills a delivery buffer's slots before they are first staged.
    type Delta: Copy + Default + Send + Sync + PartialEq + Debug + Wire + 'static;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Initial vertex value (`initData`). Must depend only on the vertex id
    /// and its ctx so every replica initialises identically.
    fn init_data(&self, v: VertexId, ctx: &VertexCtx) -> Self::VData;

    /// Initial activation (`initMsg`): the message preloaded into `v`'s
    /// inbox, if any. `None` leaves the vertex inactive.
    fn init_message(&self, v: VertexId, ctx: &VertexCtx) -> Option<Self::Delta>;

    /// Receiving-side message transform (`GatherMsg`); identity for every
    /// algorithm in the paper, provided for interface fidelity.
    #[inline]
    fn gather(&self, _v: VertexId, msg: Self::Delta) -> Self::Delta {
        msg
    }

    /// The commutative associative combiner `⊕`.
    fn sum(&self, a: Self::Delta, b: Self::Delta) -> Self::Delta;

    /// Removes contribution `a` from `accum` (mirrors-to-master coherency,
    /// Fig. 3's `Inverse`). Idempotent programs return `accum` unchanged.
    fn inverse(&self, accum: Self::Delta, a: Self::Delta) -> Self::Delta;

    /// Updates the vertex value with the gathered accumulator
    /// (`x ← x +op accum`). Returns `Some(delta)` to activate neighbours
    /// and scatter `delta` along out-edges, `None` to stay quiet.
    fn apply(
        &self,
        v: VertexId,
        data: &mut Self::VData,
        accum: Self::Delta,
        ctx: &VertexCtx,
    ) -> Option<Self::Delta>;

    /// Produces the message for one out-edge from the apply delta
    /// (`Scatter`). Returning `None` skips this edge.
    fn scatter(
        &self,
        v: VertexId,
        data: &Self::VData,
        delta: Self::Delta,
        ctx: &VertexCtx,
        edge: &EdgeCtx,
    ) -> Option<Self::Delta>;

    /// Decides whether an accumulated `deltaMsg` is worth exchanging, given
    /// the replica's value at the last coherency point (`coherent`). The
    /// default ships everything, which is the paper's literal protocol;
    /// programs may override to drop provably-useless deltas (idempotent
    /// algebras) or defer sub-tolerance mass (PageRank-style thresholds).
    /// Must never change results beyond the program's own error model.
    #[inline]
    fn exchange_policy(&self, _coherent: &Self::VData, _delta: &Self::Delta) -> DeltaExchange {
        DeltaExchange::Send
    }

    /// Whether [`VertexProgram::exchange_policy`] reads its `coherent`
    /// argument. A program whose policy is a function of the delta alone
    /// declares `false`, and its replicas hold no coherent view — 8 to 16 B
    /// a replica on the lazy engines; the policy is then handed the
    /// replica's `vdata` in its place, so a mis-declared program would
    /// read the wrong view (`tests/algebra_laws.rs` holds every shipped
    /// program to its declaration). The default, `true`, is always safe.
    fn reads_coherent(&self) -> bool {
        true
    }

    /// Scheduling priority of a pending accumulated delta: how much the
    /// vertex value would move if `accum` were applied to `data` now. The
    /// delta-accumulative engine's bucket scheduler processes the
    /// largest-priority vertices first and treats priorities below its
    /// tolerance as negligible (skippable within the program's error
    /// model). Must be a pure function of its arguments.
    ///
    /// The default returns `f64::INFINITY` — every pending vertex is
    /// always urgent — which degenerates the scheduler to
    /// process-everything and keeps programs without a magnitude notion
    /// (BFS, CC, k-core) exact under the delta engine.
    #[inline]
    fn priority(&self, _data: &Self::VData, _accum: &Self::Delta) -> f64 {
        f64::INFINITY
    }

    /// The order a lazy-block local stage should run this program's
    /// pending vertices in: `Some(key)` makes the local sub-rounds of
    /// coherency iteration
    /// [`LOCAL_ORDER_FROM`](crate::scheduler::LOCAL_ORDER_FROM) and later
    /// sweep only the most urgent part of their worklist
    /// ([`cut_most_urgent`](crate::scheduler::cut_most_urgent)) — larger
    /// `key(value, pending accumulator)` first — and leave the rest
    /// pending. Worth declaring when a vertex run too early must run
    /// again (monotone path programs: relaxing the nearest frontier first
    /// is Dijkstra's order; a far vertex relaxed now is relaxed again
    /// when the near wave reaches it). A candidate that `apply` will
    /// reject should key at `f64::INFINITY`: it clears without traversing
    /// an edge. The key must be a pure function of its arguments; any
    /// `f64`, NaN included, is a valid key (`f64::total_cmp` order).
    ///
    /// The default, `None`, is "no order": local stages sweep everything
    /// pending and never compute a key.
    #[inline]
    fn local_order(&self) -> Option<LocalOrder<Self::VData, Self::Delta>> {
        None
    }

    /// Wire size of one `(vertex id, delta)` message, for traffic
    /// accounting.
    fn delta_bytes(&self) -> usize {
        4 + std::mem::size_of::<Self::Delta>()
    }

    /// Wire size of one `(vertex id, vertex data)` record (eager engines
    /// broadcast vertex data to mirrors).
    fn vdata_bytes(&self) -> usize {
        4 + std::mem::size_of::<Self::VData>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy additive program used by engine unit tests: counts the total
    /// weight of deltas received.
    pub struct CountProgram;

    impl VertexProgram for CountProgram {
        type VData = i64;
        type Delta = i64;

        fn name(&self) -> &'static str {
            "count"
        }

        fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> i64 {
            0
        }

        fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<i64> {
            (v.0 == 0).then_some(1)
        }

        fn sum(&self, a: i64, b: i64) -> i64 {
            a + b
        }

        fn inverse(&self, accum: i64, a: i64) -> i64 {
            accum - a
        }

        fn apply(&self, _v: VertexId, data: &mut i64, accum: i64, _ctx: &VertexCtx) -> Option<i64> {
            *data += accum;
            None
        }

        fn scatter(
            &self,
            _v: VertexId,
            _data: &i64,
            d: i64,
            _ctx: &VertexCtx,
            _e: &EdgeCtx,
        ) -> Option<i64> {
            Some(d)
        }
    }

    #[test]
    fn default_gather_is_identity() {
        let p = CountProgram;
        assert_eq!(p.gather(VertexId(3), 42), 42);
    }

    #[test]
    fn inverse_law() {
        let p = CountProgram;
        let combined = p.sum(5, 7);
        assert_eq!(p.inverse(combined, 5), 7);
        assert_eq!(p.inverse(combined, 7), 5);
    }

    #[test]
    fn default_priority_is_always_urgent() {
        let p = CountProgram;
        assert_eq!(p.priority(&0, &5), f64::INFINITY);
        assert_eq!(p.priority(&-3, &0), f64::INFINITY);
    }

    #[test]
    fn wire_sizes() {
        let p = CountProgram;
        assert_eq!(p.delta_bytes(), 4 + 8);
        assert_eq!(p.vdata_bytes(), 4 + 8);
    }
}
