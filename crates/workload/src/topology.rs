//! Network topology generators.
//!
//! The demo "measure\[s\] the performance of various networks arranged in
//! different topologies"; these generators produce the directed
//! acquaintance graphs the experiments sweep over. An edge `(i, j)` means
//! *data flows from node `i` to node `j`* — i.e. a coordination rule with
//! source `i` and target `j`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::fmt;

/// A topology family, sized.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum Topology {
    /// `0 → 1 → … → n-1`. Diameter `n-1`; the classic update-depth
    /// stressor.
    Chain(usize),
    /// A directed cycle `0 → 1 → … → n-1 → 0`: the minimal cyclic rule
    /// graph; the update fixpoint is genuinely recursive.
    Ring(usize),
    /// `leaves` leaf nodes all feeding node `0` (the hub).
    Star {
        /// Number of leaves (total nodes = leaves + 1).
        leaves: usize,
    },
    /// Complete binary in-tree of the given height: leaves push towards
    /// the root (node 0). Height 0 is a single node.
    Tree {
        /// Tree height.
        height: usize,
    },
    /// `w × h` grid; each cell feeds its right and down neighbours —
    /// acyclic with many redundant paths (duplicate-suppression stressor).
    Grid {
        /// Columns.
        w: usize,
        /// Rows.
        h: usize,
    },
    /// Erdős–Rényi-style random DAG: each pair `i < j` gets edge `i → j`
    /// with probability `p_percent/100`; a chain backbone guarantees
    /// connectivity.
    RandomDag {
        /// Node count.
        n: usize,
        /// Edge probability in percent (0–100).
        p_percent: u8,
        /// RNG seed.
        seed: u64,
    },
    /// Every ordered pair is an edge: the densest (cyclic) topology.
    Clique(usize),
    /// Barabási–Albert preferential attachment: nodes arrive one at a
    /// time and each connects to `m` distinct earlier nodes chosen with
    /// probability proportional to their current degree. Produces the
    /// heavy-tailed degree distributions of real P2P overlays; hubs
    /// emerge without any global coordination. Edges point old ← new
    /// (`(i, t)` with `t < i`), so the graph is acyclic with sink-side
    /// flow toward the early hubs.
    ScaleFree {
        /// Node count.
        n: usize,
        /// Edges each arriving node attaches with (clamped to the
        /// number of earlier nodes).
        m: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match *self {
            Topology::Chain(n) | Topology::Ring(n) | Topology::Clique(n) => n,
            Topology::Star { leaves } => leaves + 1,
            Topology::Tree { height } => (1 << (height + 1)) - 1,
            Topology::Grid { w, h } => w * h,
            Topology::RandomDag { n, .. } | Topology::ScaleFree { n, .. } => n,
        }
    }

    /// Directed data-flow edges `(source, target)`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        match *self {
            Topology::Chain(n) => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            Topology::Ring(n) => {
                if n < 2 {
                    return Vec::new();
                }
                (0..n).map(|i| (i, (i + 1) % n)).collect()
            }
            Topology::Star { leaves } => (1..=leaves).map(|i| (i, 0)).collect(),
            Topology::Tree { .. } => {
                // Nodes 0..2^(h+1)-1 in heap order; children feed parents.
                let n = self.node_count();
                (1..n).map(|i| (i, (i - 1) / 2)).collect()
            }
            Topology::Grid { w, h } => {
                let mut edges = Vec::new();
                for row in 0..h {
                    for col in 0..w {
                        let i = row * w + col;
                        if col + 1 < w {
                            edges.push((i, i + 1));
                        }
                        if row + 1 < h {
                            edges.push((i, i + w));
                        }
                    }
                }
                edges
            }
            Topology::RandomDag { n, p_percent, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut edges = Vec::new();
                // Backbone for connectivity.
                for i in 0..n.saturating_sub(1) {
                    edges.push((i, i + 1));
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        if j != i + 1 && rng.gen_range(0u8..100) < p_percent {
                            edges.push((i, j));
                        }
                    }
                }
                edges
            }
            Topology::Clique(n) => {
                let mut edges = Vec::new();
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            edges.push((i, j));
                        }
                    }
                }
                edges
            }
            Topology::ScaleFree { n, m, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut edges = Vec::new();
                // Every edge endpoint is recorded twice in this list, so
                // sampling an element uniformly samples a node with
                // probability proportional to its degree — the classic
                // O(1)-per-draw preferential-attachment trick.
                let mut endpoints: Vec<usize> = Vec::new();
                for i in 1..n {
                    let want = m.max(1).min(i);
                    let mut targets: Vec<usize> = Vec::with_capacity(want);
                    while targets.len() < want {
                        // First node, or occasional uniform draw, keeps the
                        // endpoint list from locking in early hubs entirely.
                        let t = if endpoints.is_empty() {
                            rng.gen_range(0..i)
                        } else {
                            endpoints[rng.gen_range(0..endpoints.len())]
                        };
                        if t < i && !targets.contains(&t) {
                            targets.push(t);
                        } else {
                            // Resample collisions uniformly so the loop
                            // terminates even when hubs dominate.
                            let u = rng.gen_range(0..i);
                            if !targets.contains(&u) {
                                targets.push(u);
                            }
                        }
                    }
                    for t in targets {
                        edges.push((i, t));
                        endpoints.push(i);
                        endpoints.push(t);
                    }
                }
                edges
            }
        }
    }

    /// The natural "sink" node where the experiments pose queries / start
    /// updates: the chain end, the hub, the tree root, the grid corner.
    pub fn sink(&self) -> usize {
        match *self {
            Topology::Chain(n) => n.saturating_sub(1),
            Topology::Ring(_) => 0,
            Topology::Star { .. } | Topology::Tree { .. } => 0,
            Topology::Grid { w, h } => w * h - 1,
            Topology::RandomDag { n, .. } => n.saturating_sub(1),
            Topology::Clique(_) => 0,
            Topology::ScaleFree { .. } => 0,
        }
    }

    /// True iff the edge set contains a directed cycle.
    pub fn is_cyclic(&self) -> bool {
        matches!(self, Topology::Ring(n) if *n >= 2)
            || matches!(self, Topology::Clique(n) if *n >= 2)
    }

    /// The directed diameter towards the sink (longest shortest path), a
    /// lower bound for the longest update propagation path.
    pub fn depth_to_sink(&self) -> usize {
        match *self {
            Topology::Chain(n) => n.saturating_sub(1),
            Topology::Ring(n) => n.saturating_sub(1),
            Topology::Star { leaves } => usize::from(leaves > 0),
            Topology::Tree { height } => height,
            Topology::Grid { w, h } => (w - 1) + (h - 1),
            Topology::RandomDag { n, .. } => n.saturating_sub(1), // backbone
            Topology::Clique(n) => usize::from(n > 1),
            // No closed form for a generated graph: measure by BFS.
            Topology::ScaleFree { .. } => self.bfs_depth_to_sink(),
        }
    }

    /// Longest shortest path to the sink, measured on the actual edge
    /// set by reverse BFS from the sink. Nodes that cannot reach the
    /// sink don't count.
    fn bfs_depth_to_sink(&self) -> usize {
        let n = self.node_count();
        if n == 0 {
            return 0;
        }
        let mut reverse_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (src, dst) in self.edges() {
            reverse_adj[dst].push(src);
        }
        let mut dist = vec![usize::MAX; n];
        let mut frontier = std::collections::VecDeque::from([self.sink()]);
        dist[self.sink()] = 0;
        let mut deepest = 0;
        while let Some(v) = frontier.pop_front() {
            for &u in &reverse_adj[v] {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    deepest = deepest.max(dist[u]);
                    frontier.push_back(u);
                }
            }
        }
        deepest
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Chain(n) => write!(f, "chain-{n}"),
            Topology::Ring(n) => write!(f, "ring-{n}"),
            Topology::Star { leaves } => write!(f, "star-{leaves}"),
            Topology::Tree { height } => write!(f, "tree-h{height}"),
            Topology::Grid { w, h } => write!(f, "grid-{w}x{h}"),
            Topology::RandomDag { n, p_percent, .. } => write!(f, "random-{n}-p{p_percent}"),
            Topology::Clique(n) => write!(f, "clique-{n}"),
            Topology::ScaleFree { n, m, .. } => write!(f, "scalefree-{n}-m{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn chain_shape() {
        let t = Topology::Chain(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edges(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.sink(), 3);
        assert!(!t.is_cyclic());
        assert_eq!(t.depth_to_sink(), 3);
    }

    #[test]
    fn ring_shape() {
        let t = Topology::Ring(3);
        assert_eq!(t.edges(), vec![(0, 1), (1, 2), (2, 0)]);
        assert!(t.is_cyclic());
        assert_eq!(Topology::Ring(1).edges(), vec![]);
    }

    #[test]
    fn star_shape() {
        let t = Topology::Star { leaves: 3 };
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edges(), vec![(1, 0), (2, 0), (3, 0)]);
        assert_eq!(t.sink(), 0);
        assert_eq!(t.depth_to_sink(), 1);
    }

    #[test]
    fn tree_shape() {
        let t = Topology::Tree { height: 2 };
        assert_eq!(t.node_count(), 7);
        let edges = t.edges();
        assert_eq!(edges.len(), 6);
        assert!(edges.contains(&(1, 0)) && edges.contains(&(2, 0)));
        assert!(edges.contains(&(3, 1)) && edges.contains(&(6, 2)));
        assert_eq!(t.depth_to_sink(), 2);
    }

    #[test]
    fn grid_shape() {
        let t = Topology::Grid { w: 2, h: 2 };
        let edges: BTreeSet<_> = t.edges().into_iter().collect();
        assert_eq!(edges, [(0, 1), (0, 2), (1, 3), (2, 3)].into());
        assert_eq!(t.sink(), 3);
        assert_eq!(t.depth_to_sink(), 2);
    }

    #[test]
    fn random_dag_is_connected_and_deterministic() {
        let t = Topology::RandomDag { n: 10, p_percent: 30, seed: 7 };
        let e1 = t.edges();
        let e2 = t.edges();
        assert_eq!(e1, e2);
        // Backbone present.
        for i in 0..9 {
            assert!(e1.contains(&(i, i + 1)));
        }
        // All edges i < j (acyclic).
        assert!(e1.iter().all(|(i, j)| i < j));
    }

    #[test]
    fn clique_shape() {
        let t = Topology::Clique(3);
        assert_eq!(t.edges().len(), 6);
        assert!(t.is_cyclic());
    }

    #[test]
    fn display_names() {
        assert_eq!(Topology::Chain(8).to_string(), "chain-8");
        assert_eq!(Topology::Grid { w: 3, h: 2 }.to_string(), "grid-3x2");
        assert_eq!(Topology::ScaleFree { n: 100, m: 3, seed: 1 }.to_string(), "scalefree-100-m3");
    }

    #[test]
    fn scale_free_shape() {
        let t = Topology::ScaleFree { n: 200, m: 3, seed: 7 };
        let edges = t.edges();
        assert_eq!(t.edges(), edges, "deterministic");
        // Acyclic by construction: every edge points to an earlier node.
        assert!(edges.iter().all(|&(i, j)| j < i));
        // Each node i ≥ 1 attaches with min(m, i) distinct edges.
        assert_eq!(edges.len(), 1 + 2 + 3 * 197);
        for window in [(1usize, 1usize), (2, 2), (50, 3)] {
            let deg = edges.iter().filter(|&&(i, _)| i == window.0).count();
            assert_eq!(deg, window.1);
        }
        // Heavy tail: some early node accumulates far more than m links.
        let mut in_deg = vec![0usize; 200];
        for &(_, j) in &edges {
            in_deg[j] += 1;
        }
        assert!(in_deg.iter().max().unwrap() > &20, "hubs emerge: {:?}", in_deg.iter().max());
        assert!(!t.is_cyclic());
        assert_eq!(t.sink(), 0);
        // Everyone reaches the sink (node 0 is the first attachment
        // target, and paths strictly descend), within a small diameter.
        let d = t.depth_to_sink();
        assert!((1..=20).contains(&d), "scale-free diameter is small: {d}");
        // Different seeds give different graphs.
        assert_ne!(Topology::ScaleFree { n: 200, m: 3, seed: 8 }.edges(), edges);
    }
}
