//! The deterministic cost model converting counted work into simulated
//! seconds.
//!
//! The paper's performance claims are *explained* by the number of global
//! synchronisations and the communication volume (§5.3); this module turns
//! those exact counts into time the way the authors' 48-node 1 GigE cluster
//! did, using the communication-time equations the paper itself fitted in
//! §4.2.2:
//!
//! ```text
//! t_a2a(c) = 0.0029·c + 0.04                    (c in MB, t in seconds)
//! t_m2m(c) = −6e−7·c² + 0.0045·c + 0.3
//! ```
//!
//! Compute is charged at a TEPS (traversed edges per second) rate per
//! machine — the same machine-performance abstraction the edge splitter's
//! budget equation uses (§4.1).

/// Tunable constants of the simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Traversed edges per second per machine (compute rate).
    pub teps: f64,
    /// Seconds per apply-operator execution.
    pub apply_cost: f64,
    /// Latency of one global barrier, seconds.
    pub barrier_latency: f64,
    /// Fixed cost of one fine-grained asynchronous message batch, seconds,
    /// paid on the *receive* path (RPC dispatch; together with `latency`
    /// this is what stretches the dependency chains that make Async
    /// degrade on high-diameter graphs).
    pub async_msg_overhead: f64,
    /// Sender-side CPU cost of handing one batch to the transport,
    /// seconds. Sends overlap with the network (non-blocking RPC), so the
    /// sender only pays serialisation, not the wire time.
    pub async_send_cpu: f64,
    /// One-way network latency, seconds.
    pub latency: f64,
    /// Per-update CPU overhead of the asynchronous engine's machinery
    /// (fiber scheduling, queueing), amortised over the node's cores —
    /// GraphLab-style async engines sustain far fewer updates per second
    /// than a tight BSP scan loop.
    pub async_apply_cost: f64,
    /// Distributed-lock round-trip charged per *causal hop* of the eager
    /// protocol: before a master applies it must lock its replica set, and
    /// the lock+grant round trip sits on the update's dependency chain
    /// (§2.2's atomicity). Charged inside [`CostModel::async_batch_time`].
    pub async_lock_rtt: f64,
    /// Link bandwidth, bytes/second (1 GigE).
    pub bandwidth: f64,
}

// Part of the `EngineConfig` a multiprocess launcher ships to its workers;
// every constant as its exact bit pattern.
lazygraph_net::wire_record!(CostModel {
    teps, apply_cost, barrier_latency, async_msg_overhead, async_send_cpu, latency,
    async_apply_cost, async_lock_rtt, bandwidth,
});

impl CostModel {
    /// Constants matching the paper's EC2-like cluster (8-core nodes,
    /// 1 GigE): TEPS in the tens of millions, millisecond barriers.
    pub fn paper_cluster() -> Self {
        CostModel {
            teps: 20.0e6,
            apply_cost: 100.0e-9,
            barrier_latency: 1.0e-3,
            async_msg_overhead: 60.0e-6,
            async_send_cpu: 5.0e-6,
            latency: 100.0e-6,
            async_apply_cost: 3.0e-6,
            async_lock_rtt: 1.5e-3,
            bandwidth: 125.0e6,
        }
    }

    /// Seconds to traverse `edges` edges on one machine.
    #[inline]
    pub fn compute_time(&self, edges: u64) -> f64 {
        edges as f64 / self.teps
    }

    /// Seconds for `applies` apply operations on one machine.
    #[inline]
    pub fn apply_time(&self, applies: u64) -> f64 {
        applies as f64 * self.apply_cost
    }

    /// All-to-all collective exchange time for `bytes` total payload
    /// (paper Fig. 8(b) linear fit).
    #[inline]
    pub fn t_a2a(&self, bytes: u64) -> f64 {
        let mb = bytes as f64 / 1.0e6;
        0.0029 * mb + 0.04
    }

    /// Mirrors-to-master exchange time for `bytes` total payload (paper
    /// Fig. 8(b) polynomial fit). The quadratic term models pipelining
    /// gains; past the fit's vertex we clamp to bandwidth-limited linear
    /// growth so the model stays monotone outside the measured range.
    #[inline]
    pub fn t_m2m(&self, bytes: u64) -> f64 {
        let mb = bytes as f64 / 1.0e6;
        // Vertex of the fitted parabola: 0.0045 / (2·6e−7) = 3750 MB.
        const VERTEX_MB: f64 = 0.0045 / (2.0 * 6.0e-7);
        if mb <= VERTEX_MB {
            -6.0e-7 * mb * mb + 0.0045 * mb + 0.3
        } else {
            let at_vertex = -6.0e-7 * VERTEX_MB * VERTEX_MB + 0.0045 * VERTEX_MB + 0.3;
            at_vertex + (mb - VERTEX_MB) / (self.bandwidth / 1.0e6)
        }
    }

    /// Transfer time of one asynchronous batch: fixed overhead + latency +
    /// serialisation at link bandwidth.
    #[inline]
    pub fn async_batch_time(&self, bytes: u64) -> f64 {
        self.async_msg_overhead
            + self.latency
            + self.async_lock_rtt
            + bytes as f64 / self.bandwidth
    }

    /// Per-apply CPU charge of the asynchronous engine.
    #[inline]
    pub fn async_apply_time(&self) -> f64 {
        self.async_apply_cost
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_cluster()
    }
}

/// A per-machine simulated clock. Machines advance their own clock with
/// compute charges and merge remote clocks on message receipt (virtual-time
/// discrete-event style); collectives set every clock to the global max
/// plus the collective's cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock { now: 0.0 }
    }

    /// Current simulated time, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances by `dt` seconds (local work).
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "negative time advance {dt}");
        self.now += dt;
    }

    /// Merges a remote event time: the local clock cannot be earlier than
    /// an event it causally depends on.
    #[inline]
    pub fn merge(&mut self, remote: f64) {
        if remote > self.now {
            self.now = remote;
        }
    }

    /// Sets the clock (used by collectives after an allreduce-max).
    #[inline]
    pub fn set(&mut self, t: f64) {
        debug_assert!(t + 1e-12 >= self.now, "clock moved backwards: {} -> {t}", self.now);
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_equation_values() {
        let m = CostModel::paper_cluster();
        // t_a2a at 0 MB is the 0.04 s constant; at 100 MB: 0.0029*100+0.04.
        assert!((m.t_a2a(0) - 0.04).abs() < 1e-12);
        assert!((m.t_a2a(100_000_000) - 0.33).abs() < 1e-9);
        // t_m2m at 0 MB is its 0.3 s constant.
        assert!((m.t_m2m(0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn a2a_cheaper_for_small_m2m_cheaper_for_large() {
        // §4.2.2: "All-to-all mode is appropriate for a small amount of
        // communication traffic, and mirrors-to-master mode is appropriate
        // for a large amount."
        let m = CostModel::paper_cluster();
        assert!(m.t_a2a(1_000_000) < m.t_m2m(1_000_000));
        // With the paper's literal coefficients the curves cross near
        // 2.82 GB per exchange.
        let big = 3_500_000_000; // 3.5 GB
        assert!(m.t_m2m(big) < m.t_a2a(big), "m2m should win at 3.5 GB");
    }

    #[test]
    fn m2m_is_monotone() {
        let m = CostModel::paper_cluster();
        let mut prev = 0.0;
        for mb in (0..20_000).step_by(250) {
            let t = m.t_m2m(mb as u64 * 1_000_000);
            assert!(t >= prev, "t_m2m not monotone at {mb} MB");
            prev = t;
        }
    }

    #[test]
    fn compute_scales_linearly() {
        let m = CostModel::paper_cluster();
        assert!((m.compute_time(20_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(m.compute_time(0), 0.0);
    }

    #[test]
    fn clock_semantics() {
        let mut c = SimClock::new();
        c.advance(1.0);
        c.merge(0.5); // earlier remote: no effect
        assert_eq!(c.now(), 1.0);
        c.merge(2.5);
        assert_eq!(c.now(), 2.5);
        c.set(3.0);
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // advance() guards with debug_assert
    fn clock_rejects_negative_advance() {
        let mut c = SimClock::new();
        c.advance(-1.0);
    }
}
