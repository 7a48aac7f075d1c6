//! Maximum-flow substrate (Dinic's algorithm) behind [`crate::uniform`].
//!
//! On *uniform machines with restricted availabilities* — the structure
//! the paper shows the GriPPS platform has (§3) — deadline feasibility
//! (System (2)) reduces to a transportation problem. The milestone binary
//! search then probes with a max-flow computation instead of a full LP
//! solve, and the minimum cut read off a final residual graph drives the
//! parametric search that replaces the range LP.
//!
//! The network stores residual capacities only: pushing `f` along an
//! edge takes `f` off its residual and adds it to its reverse edge's, so
//! the flow on an edge is its reverse edge's residual. The adjacency is
//! one index array over all nodes, and the BFS levels, the queue and the
//! DFS pointers live in the network and are refilled on every phase;
//! [`FlowNetwork::set_capacities`] resets a network for another run
//! without rebuilding it.
//!
//! Dinic is generic over a [`Capacity`]: every [`Scalar`], and [`Int`], an
//! exact integer that the parametric search uses for capacities scaled
//! by their common denominator. The phase count is bounded by the number
//! of nodes whatever the capacities, so it terminates on exact rationals
//! and integers just as on floats.

use dlflow_num::Scalar;

/// A capacity that Dinic can route.
pub(crate) trait Capacity: Clone {
    /// The zero capacity.
    fn empty() -> Self;
    /// `true` when a residual of this size still admits flow (beyond a
    /// scalar's slack).
    fn admits_flow(&self) -> bool;
    /// `true` when the capacity lies below zero (beyond a scalar's slack).
    fn below_zero(&self) -> bool;
    /// Sum.
    fn plus(&self, o: &Self) -> Self;
    /// Difference.
    fn minus(&self, o: &Self) -> Self;
    /// The smaller of two capacities (`o` on a tie).
    fn smaller(self, o: Self) -> Self;
}

impl<S: Scalar> Capacity for S {
    fn empty() -> Self {
        S::zero()
    }
    fn admits_flow(&self) -> bool {
        self.is_positive_tol()
    }
    fn below_zero(&self) -> bool {
        self.is_negative_tol()
    }
    fn plus(&self, o: &Self) -> Self {
        self.add(o)
    }
    fn minus(&self, o: &Self) -> Self {
        self.sub(o)
    }
    fn smaller(self, o: Self) -> Self {
        if self.cmp_total(&o) == std::cmp::Ordering::Less {
            self
        } else {
            o
        }
    }
}

/// An exact integer capacity. Arithmetic is checked: a network whose
/// source capacities sum to at most `i128::MAX` never leaves the range
/// (a residual never exceeds its edge's capacity plus its reverse's, and
/// the flow never exceeds the source's capacities), so an overflow is a
/// broken precondition and panics instead of wrapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Int(pub(crate) i128);

impl Capacity for Int {
    fn empty() -> Self {
        Int(0)
    }
    fn admits_flow(&self) -> bool {
        self.0 > 0
    }
    fn below_zero(&self) -> bool {
        self.0 < 0
    }
    fn plus(&self, o: &Self) -> Self {
        let sum = self.0.checked_add(o.0);
        Int(sum.expect("flows stay within the source capacities"))
    }
    fn minus(&self, o: &Self) -> Self {
        let difference = self.0.checked_sub(o.0);
        Int(difference.expect("flows stay within the source capacities"))
    }
    fn smaller(self, o: Self) -> Self {
        if self.0 < o.0 {
            self
        } else {
            o
        }
    }
}

/// An edge of the residual network.
#[derive(Clone, Debug)]
struct Edge<C> {
    to: usize,
    /// Residual capacity.
    res: C,
}

/// A flow network on nodes `0..n`. Edges are numbered in insertion order.
#[derive(Clone, Debug)]
pub(crate) struct FlowNetwork<C> {
    /// Edge `k` at `2k`, its reverse at `2k + 1`.
    edges: Vec<Edge<C>>,
    /// Adjacency index, rebuilt by a run after edges were added: the
    /// residual edges leaving node `u` are `out[first[u]..first[u + 1]]`,
    /// in insertion order.
    first: Vec<usize>,
    out: Vec<usize>,
    /// BFS level of each node in the last phase (`u32::MAX` =
    /// unreachable); after [`FlowNetwork::max_flow`], the residual graph's
    /// reachability from the source.
    level: Vec<u32>,
    queue: Vec<usize>,
    /// Per node, the position in `out` of the next edge the DFS tries.
    next: Vec<usize>,
}

impl<C: Capacity> FlowNetwork<C> {
    /// A network with `n_nodes` nodes and no edges.
    pub(crate) fn new(n_nodes: usize) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            first: Vec::with_capacity(n_nodes + 1),
            out: Vec::new(),
            level: vec![u32::MAX; n_nodes],
            queue: Vec::with_capacity(n_nodes),
            next: vec![0; n_nodes],
        }
    }

    /// Adds a directed edge `u → v` with the given capacity and returns its
    /// number, the count of edges added before it (use with
    /// [`FlowNetwork::flow_on`]). A residual reverse edge of capacity 0 is
    /// added with it.
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, cap: C) -> usize {
        assert!(!cap.below_zero(), "negative capacity");
        assert!(u.max(v) < self.level.len(), "edge to a missing node");
        let id = self.edges.len() / 2;
        self.edges.push(Edge { to: v, res: cap });
        self.edges.push(Edge {
            to: u,
            res: C::empty(),
        });
        id
    }

    /// Builds the adjacency index if edges were added since the last one.
    fn index(&mut self) {
        if self.out.len() == self.edges.len() {
            return;
        }
        // Residual edge `e` leaves the node its partner `e ^ 1` enters.
        let n = self.level.len();
        self.first.clear();
        self.first.resize(n + 1, 0);
        for e in 0..self.edges.len() {
            self.first[self.edges[e ^ 1].to + 1] += 1;
        }
        for u in 0..n {
            self.first[u + 1] += self.first[u];
        }
        self.out.clear();
        self.out.resize(self.edges.len(), 0);
        self.next.copy_from_slice(&self.first[..n]);
        for e in 0..self.edges.len() {
            let u = self.edges[e ^ 1].to;
            self.out[self.next[u]] = e;
            self.next[u] += 1;
        }
    }

    /// Resets every edge to carry no flow, with the capacities `caps` in
    /// edge order, so the network can run again.
    pub(crate) fn set_capacities(&mut self, caps: impl IntoIterator<Item = C>) {
        let mut pairs = self.edges.chunks_exact_mut(2);
        for cap in caps {
            assert!(!cap.below_zero(), "negative capacity");
            let pair = pairs.next().expect("one capacity per edge");
            pair[0].res = cap;
            pair[1].res = C::empty();
        }
        assert!(pairs.next().is_none(), "one capacity per edge");
    }

    /// Flow currently routed through edge `id`: its reverse's residual.
    pub(crate) fn flow_on(&self, id: usize) -> &C {
        &self.edges[2 * id + 1].res
    }

    /// After [`FlowNetwork::max_flow`], `true` for the nodes on the source
    /// side of a minimum cut: those still reachable from the source in the
    /// residual graph. The edges leaving that side are saturated and their
    /// capacities sum to the maximum flow.
    pub(crate) fn on_source_side(&self, v: usize) -> bool {
        self.level[v] != u32::MAX
    }

    /// Fills `level` with the BFS levels of the residual graph.
    fn bfs(&mut self, source: usize) {
        self.level.fill(u32::MAX);
        self.level[source] = 0;
        self.queue.clear();
        self.queue.push(source);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &eid in &self.out[self.first[u]..self.first[u + 1]] {
                let v = self.edges[eid].to;
                if self.level[v] == u32::MAX && self.edges[eid].res.admits_flow() {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Computes the maximum `source → sink` flow (Dinic).
    pub(crate) fn max_flow(&mut self, source: usize, sink: usize) -> C {
        assert_ne!(source, sink);
        self.index();
        let mut total = C::empty();
        loop {
            self.bfs(source);
            if self.level[sink] == u32::MAX {
                return total;
            }
            // Blocking flow along level-increasing paths.
            let n = self.next.len();
            self.next.copy_from_slice(&self.first[..n]);
            while let Some(f) = self.dfs_push(source, sink, None) {
                total = total.plus(&f);
            }
        }
    }

    /// Pushes flow along one admissible path; `limit = None` means
    /// unlimited at the source.
    fn dfs_push(&mut self, u: usize, sink: usize, limit: Option<C>) -> Option<C> {
        if u == sink {
            return limit;
        }
        while self.next[u] < self.first[u + 1] {
            let eid = self.out[self.next[u]];
            let v = self.edges[eid].to;
            let res = &self.edges[eid].res;
            if self.level[v] == self.level[u] + 1 && res.admits_flow() {
                let next_limit = match &limit {
                    None => res.clone(),
                    Some(l) => l.clone().smaller(res.clone()),
                };
                if let Some(f) = self.dfs_push(v, sink, Some(next_limit)) {
                    self.edges[eid].res = self.edges[eid].res.minus(&f);
                    self.edges[eid ^ 1].res = self.edges[eid ^ 1].res.plus(&f);
                    return Some(f);
                }
            }
            self.next[u] += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlflow_num::Rat;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::<f64>::new(2);
        net.add_edge(0, 1, 5.0);
        assert_eq!(net.max_flow(0, 1), 5.0);
    }

    #[test]
    fn series_takes_bottleneck() {
        let mut net = FlowNetwork::<f64>::new(3);
        net.add_edge(0, 1, 5.0);
        net.add_edge(1, 2, 3.0);
        assert_eq!(net.max_flow(0, 2), 3.0);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut net = FlowNetwork::<f64>::new(4);
        net.add_edge(0, 1, 2.0);
        net.add_edge(1, 3, 2.0);
        net.add_edge(0, 2, 3.0);
        net.add_edge(2, 3, 3.0);
        assert_eq!(net.max_flow(0, 3), 5.0);
    }

    #[test]
    fn classic_augmenting_through_cross_edge() {
        // The textbook 4-node diamond with a cross edge that tempts a
        // greedy router into a suboptimal split.
        let mut net = FlowNetwork::<f64>::new(4);
        net.add_edge(0, 1, 1.0);
        net.add_edge(0, 2, 1.0);
        net.add_edge(1, 2, 1.0);
        net.add_edge(1, 3, 1.0);
        net.add_edge(2, 3, 1.0);
        assert_eq!(net.max_flow(0, 3), 2.0);
    }

    #[test]
    fn disconnected_sink_yields_zero() {
        let mut net = FlowNetwork::<f64>::new(3);
        net.add_edge(0, 1, 4.0);
        assert_eq!(net.max_flow(0, 2), 0.0);
    }

    #[test]
    fn exact_rational_capacities() {
        let mut net = FlowNetwork::<Rat>::new(4);
        net.add_edge(0, 1, Rat::from_ratio(1, 3));
        net.add_edge(1, 3, Rat::from_ratio(1, 2));
        net.add_edge(0, 2, Rat::from_ratio(1, 6));
        net.add_edge(2, 3, Rat::from_ratio(1, 6));
        assert_eq!(net.max_flow(0, 3), Rat::from_ratio(1, 2));
    }

    #[test]
    fn flow_conservation_on_edges() {
        let mut net = FlowNetwork::<Rat>::new(4);
        let e01 = net.add_edge(0, 1, Rat::from_i64(2));
        let e02 = net.add_edge(0, 2, Rat::from_i64(3));
        let e13 = net.add_edge(1, 3, Rat::from_i64(2));
        let e23 = net.add_edge(2, 3, Rat::from_i64(2));
        let f = net.max_flow(0, 3);
        assert_eq!(f, Rat::from_i64(4));
        // Source outflow equals sink inflow equals total.
        let out = net.flow_on(e01).add_ref(net.flow_on(e02));
        let inn = net.flow_on(e13).add_ref(net.flow_on(e23));
        assert_eq!(out, f);
        assert_eq!(inn, f);
    }

    #[test]
    fn residuals_are_capacity_minus_flow() {
        // 0 → 1 → 2 with a detour 0 → 2: after the run, each edge's
        // residual and its reverse's (the flow) sum to its capacity.
        let mut net = FlowNetwork::<Rat>::new(3);
        let caps = [Rat::from_i64(4), Rat::from_i64(1), Rat::from_ratio(5, 2)];
        net.add_edge(0, 1, caps[0].clone());
        net.add_edge(1, 2, caps[1].clone());
        net.add_edge(0, 2, caps[2].clone());
        assert_eq!(net.max_flow(0, 2), Rat::from_ratio(7, 2));
        for (id, cap) in caps.iter().enumerate() {
            let res = &net.edges[2 * id].res;
            assert_eq!(res.add_ref(net.flow_on(id)), *cap, "edge {id}");
        }
        assert_eq!(*net.flow_on(0), Rat::one());
    }

    #[test]
    fn source_side_is_a_minimum_cut() {
        // 0 → 1 → 3 bottlenecks at 1 → 3; 0 → 2 → 3 at 0 → 2.
        let mut net = FlowNetwork::<Rat>::new(4);
        net.add_edge(0, 1, Rat::from_i64(5));
        net.add_edge(1, 3, Rat::from_i64(2));
        net.add_edge(0, 2, Rat::from_i64(1));
        net.add_edge(2, 3, Rat::from_i64(4));
        assert_eq!(net.max_flow(0, 3), Rat::from_i64(3));
        // Cut edges 1 → 3 (2) and 0 → 2 (1): capacity 3 = the flow.
        let side: Vec<bool> = (0..4).map(|v| net.on_source_side(v)).collect();
        assert_eq!(side, [true, true, false, false]);
    }

    #[test]
    fn refilled_network_runs_again() {
        // The same topology at two capacity vectors: each run starts from
        // a flow of zero, as a freshly built network would.
        let mut net = FlowNetwork::<f64>::new(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            net.add_edge(u, v, 1.0);
        }
        assert_eq!(net.max_flow(0, 3), 2.0);
        net.set_capacities([5.0, 2.0, 1.0, 4.0]);
        assert_eq!(net.max_flow(0, 3), 3.0);
        assert_eq!((*net.flow_on(0), *net.flow_on(2)), (2.0, 1.0));
        net.set_capacities([0.0; 4]);
        assert_eq!(net.max_flow(0, 3), 0.0);
    }

    #[test]
    fn integer_capacities_route_exactly() {
        // The diamond with a cross edge, over scaled integers.
        let mut net = FlowNetwork::<Int>::new(4);
        for (u, v, c) in [(0, 1, 7), (0, 2, 5), (1, 2, 4), (1, 3, 3), (2, 3, 8)] {
            net.add_edge(u, v, Int(c));
        }
        assert_eq!(net.max_flow(0, 3), Int(11));
        let side: Vec<bool> = (0..4).map(|v| net.on_source_side(v)).collect();
        assert_eq!(side, [true, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn negative_capacity_is_refused() {
        let mut net = FlowNetwork::<Int>::new(2);
        net.add_edge(0, 1, Int(1));
        net.set_capacities([Int(-1)]);
    }

    #[test]
    fn bipartite_matching_as_flow() {
        // 3×3 bipartite with unit capacities: perfect matching = flow 3.
        let mut net = FlowNetwork::<f64>::new(8); // 0 src, 1-3 left, 4-6 right, 7 sink
        for l in 1..=3 {
            net.add_edge(0, l, 1.0);
            net.add_edge(l + 3, 7, 1.0);
        }
        net.add_edge(1, 4, 1.0);
        net.add_edge(1, 5, 1.0);
        net.add_edge(2, 5, 1.0);
        net.add_edge(3, 5, 1.0);
        net.add_edge(3, 6, 1.0);
        assert_eq!(net.max_flow(0, 7), 3.0);
    }
}
