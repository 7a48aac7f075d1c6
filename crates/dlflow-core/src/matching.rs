//! Hopcroft–Karp maximum bipartite matching.
//!
//! Used by the Gonzalez–Sahni/Birkhoff decomposition (§4.4): each phase of
//! the rebuilt preemptive schedule is a perfect matching between machines
//! and jobs on the positive entries of the (padded) work matrix.

/// Maximum matching in a bipartite graph.
///
/// `adj[u]` lists the right-side vertices adjacent to left vertex `u`.
/// Returns `(size, match_left, match_right)` where `match_left[u]` is the
/// right partner of `u` (or `usize::MAX`), and symmetrically.
pub fn hopcroft_karp(
    n_left: usize,
    n_right: usize,
    adj: &[Vec<usize>],
) -> (usize, Vec<usize>, Vec<usize>) {
    assert_eq!(adj.len(), n_left, "adjacency list length must equal n_left");
    const NIL: usize = usize::MAX;
    let mut ml = vec![NIL; n_left];
    let mut mr = vec![NIL; n_right];
    let mut dist = vec![0u32; n_left];
    let mut size = 0usize;

    loop {
        // BFS layering from free left vertices.
        let mut queue: Vec<usize> = Vec::new();
        for u in 0..n_left {
            if ml[u] == NIL {
                dist[u] = 0;
                queue.push(u);
            } else {
                dist[u] = u32::MAX;
            }
        }
        let mut found_free_right = false;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &adj[u] {
                let w = mr[v];
                if w == NIL {
                    found_free_right = true;
                } else if dist[w] == u32::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push(w);
                }
            }
        }
        if !found_free_right {
            break;
        }

        // DFS augmentation along layered paths.
        fn dfs(
            u: usize,
            adj: &[Vec<usize>],
            ml: &mut [usize],
            mr: &mut [usize],
            dist: &mut [u32],
        ) -> bool {
            const NIL: usize = usize::MAX;
            for idx in 0..adj[u].len() {
                let v = adj[u][idx];
                let w = mr[v];
                if w == NIL || (dist[w] == dist[u] + 1 && dfs(w, adj, ml, mr, dist)) {
                    ml[u] = v;
                    mr[v] = u;
                    return true;
                }
            }
            dist[u] = u32::MAX;
            false
        }

        for u in 0..n_left {
            if ml[u] == NIL && dfs(u, adj, &mut ml, &mut mr, &mut dist) {
                size += 1;
            }
        }
    }
    (size, ml, mr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_on_identity() {
        let adj = vec![vec![0], vec![1], vec![2]];
        let (size, ml, mr) = hopcroft_karp(3, 3, &adj);
        assert_eq!(size, 3);
        assert_eq!(ml, vec![0, 1, 2]);
        assert_eq!(mr, vec![0, 1, 2]);
    }

    #[test]
    fn augmenting_path_needed() {
        // L0 → {R0}, L1 → {R0, R1}: greedy could block; HK must find both.
        let adj = vec![vec![0], vec![0, 1]];
        let (size, ml, _) = hopcroft_karp(2, 2, &adj);
        assert_eq!(size, 2);
        assert_eq!(ml[0], 0);
        assert_eq!(ml[1], 1);
    }

    #[test]
    fn long_augmenting_chain() {
        // Chain forcing repeated reassignments.
        let adj = vec![vec![0], vec![0, 1], vec![1, 2], vec![2, 3]];
        let (size, _, _) = hopcroft_karp(4, 4, &adj);
        assert_eq!(size, 4);
    }

    #[test]
    fn imperfect_when_hall_violated() {
        // Three left vertices all adjacent only to two right vertices.
        let adj = vec![vec![0, 1], vec![0, 1], vec![0, 1]];
        let (size, _, _) = hopcroft_karp(3, 2, &adj);
        assert_eq!(size, 2);
    }

    #[test]
    fn empty_graph() {
        let adj: Vec<Vec<usize>> = vec![vec![], vec![]];
        let (size, ml, _) = hopcroft_karp(2, 2, &adj);
        assert_eq!(size, 0);
        assert_eq!(ml, vec![usize::MAX, usize::MAX]);
    }

    #[test]
    fn matching_is_consistent() {
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1], vec![2, 3]];
        let (size, ml, mr) = hopcroft_karp(4, 4, &adj);
        assert_eq!(size, 4);
        for (u, &v) in ml.iter().enumerate() {
            if v != usize::MAX {
                assert_eq!(mr[v], u);
                assert!(adj[u].contains(&v));
            }
        }
    }

    #[test]
    fn doubly_stochastic_support_has_perfect_matching() {
        // Positive support of a doubly stochastic matrix (Birkhoff): a
        // 4×4 circulant support must admit a perfect matching.
        let adj = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]];
        assert_eq!(hopcroft_karp(4, 4, &adj).0, 4);
    }
}
