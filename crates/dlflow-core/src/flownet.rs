//! Maximum-flow substrate (Dinic's algorithm), generic over [`Scalar`].
//!
//! Used by the combinatorial fast path of [`crate::uniform`]: on *uniform
//! machines with restricted availabilities* — the structure the paper
//! shows the GriPPS platform has (§3) — deadline feasibility (System (2))
//! reduces to a transportation problem, so the milestone binary search
//! can probe with a max-flow computation instead of a full LP solve, and
//! the minimum cut read off the final residual graph drives the
//! parametric search that replaces the range LP.
//!
//! Dinic's phase count is bounded by the number of nodes regardless of
//! capacities, so the algorithm terminates for exact rational capacities
//! just as it does for floats.

use dlflow_num::Scalar;

/// An edge of the residual network.
#[derive(Clone, Debug)]
struct Edge<S> {
    to: usize,
    cap: S,
    flow: S,
}

/// A flow network with unit-indexed nodes.
#[derive(Clone, Debug)]
pub struct FlowNetwork<S> {
    edges: Vec<Edge<S>>,
    adj: Vec<Vec<usize>>,
}

impl<S: Scalar> FlowNetwork<S> {
    /// A network with `n_nodes` nodes and no edges.
    pub fn new(n_nodes: usize) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            adj: vec![Vec::new(); n_nodes],
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `u → v` with the given capacity; returns its
    /// id (use with [`FlowNetwork::flow_on`]). A residual reverse edge of
    /// capacity 0 is added automatically.
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, cap: S) -> usize {
        assert!(!cap.is_negative_tol(), "negative capacity");
        let id = self.edges.len();
        self.edges.push(Edge {
            to: v,
            cap,
            flow: S::zero(),
        });
        self.adj[u].push(id);
        self.edges.push(Edge {
            to: u,
            cap: S::zero(),
            flow: S::zero(),
        });
        self.adj[v].push(id + 1);
        id
    }

    /// Flow currently routed through edge `id`.
    pub fn flow_on(&self, id: usize) -> &S {
        &self.edges[id].flow
    }

    fn residual(&self, id: usize) -> S {
        self.edges[id].cap.sub(&self.edges[id].flow)
    }

    /// BFS levels of the residual graph from `source` (`u32::MAX` =
    /// unreachable).
    fn levels(&self, source: usize) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.n_nodes()];
        level[source] = 0;
        let mut queue = vec![source];
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &eid in &self.adj[u] {
                let v = self.edges[eid].to;
                if level[v] == u32::MAX && self.residual(eid).is_positive_tol() {
                    level[v] = level[u] + 1;
                    queue.push(v);
                }
            }
        }
        level
    }

    /// The source side of a minimum cut, read off the residual graph after
    /// [`FlowNetwork::max_flow`]: `true` for every node still reachable
    /// from `source`. The edges leaving that side are saturated and their
    /// capacities sum to the maximum flow.
    pub(crate) fn source_side(&self, source: usize) -> Vec<bool> {
        self.levels(source)
            .into_iter()
            .map(|l| l != u32::MAX)
            .collect()
    }

    /// Computes the maximum `source → sink` flow (Dinic).
    pub fn max_flow(&mut self, source: usize, sink: usize) -> S {
        assert_ne!(source, sink);
        let n = self.n_nodes();
        let mut total = S::zero();
        loop {
            let level = self.levels(source);
            if level[sink] == u32::MAX {
                return total;
            }
            // DFS blocking flow with iteration pointers.
            let mut it = vec![0usize; n];
            loop {
                let pushed = self.dfs_push(source, sink, None, &level, &mut it);
                match pushed {
                    Some(f) => total = total.add(&f),
                    None => break,
                }
            }
        }
    }

    /// Pushes flow along one admissible path; `limit = None` means
    /// unlimited at the source.
    fn dfs_push(
        &mut self,
        u: usize,
        sink: usize,
        limit: Option<S>,
        level: &[u32],
        it: &mut [usize],
    ) -> Option<S> {
        if u == sink {
            return limit;
        }
        while it[u] < self.adj[u].len() {
            let eid = self.adj[u][it[u]];
            let v = self.edges[eid].to;
            let res = self.residual(eid);
            if level[v] == level[u] + 1 && res.is_positive_tol() {
                let next_limit = match &limit {
                    None => res.clone(),
                    Some(l) => {
                        if l.cmp_total(&res) == std::cmp::Ordering::Less {
                            l.clone()
                        } else {
                            res
                        }
                    }
                };
                if let Some(f) = self.dfs_push(v, sink, Some(next_limit), level, it) {
                    self.edges[eid].flow = self.edges[eid].flow.add(&f);
                    self.edges[eid ^ 1].flow = self.edges[eid ^ 1].flow.sub(&f);
                    return Some(f);
                }
            }
            it[u] += 1;
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
    fn source_side_is_a_minimum_cut() {
        // 0 → 1 → 3 bottlenecks at 1 → 3; 0 → 2 → 3 at 0 → 2.
        let mut net = FlowNetwork::<Rat>::new(4);
        net.add_edge(0, 1, Rat::from_i64(5));
        net.add_edge(1, 3, Rat::from_i64(2));
        net.add_edge(0, 2, Rat::from_i64(1));
        net.add_edge(2, 3, Rat::from_i64(4));
        assert_eq!(net.max_flow(0, 3), Rat::from_i64(3));
        // Cut edges 1 → 3 (2) and 0 → 2 (1): capacity 3 = the flow.
        assert_eq!(net.source_side(0), [true, true, false, false]);
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
