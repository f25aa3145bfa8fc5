//! Social-network graph generators.
//!
//! The propagation experiments need realistic network topologies. Two
//! classic generators are provided: Barabási–Albert preferential
//! attachment (heavy-tailed degrees, like follower graphs — the default)
//! and Watts–Strogatz small worlds. The unit tests add Erdős–Rényi random
//! graphs as a control.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected social graph in adjacency-list form.
#[derive(Debug, Clone)]
pub struct SocialGraph {
    adj: Vec<Vec<usize>>,
}

impl SocialGraph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> SocialGraph {
        SocialGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbors of node `v`.
    pub(crate) fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Adds an undirected edge (ignores self-loops and duplicates).
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b || a >= self.len() || b >= self.len() || self.adj[a].contains(&b) {
            return;
        }
        self.adj[a].push(b);
        self.adj[b].push(a);
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Nodes sorted by degree, highest first (the "influencers").
    pub fn by_degree_desc(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = (0..self.len()).collect();
        nodes.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        nodes
    }

    /// Assigns community labels by asynchronous label propagation
    /// (deterministic given `seed`). Returns one label per node.
    ///
    /// The paper's §VI argues the platform should "identify…
    /// groups/communities persons belong to"; on the social graph this is
    /// the structural version of that query.
    pub fn label_propagation(&self, seed: u64, max_rounds: usize) -> Vec<u32> {
        use rand::seq::SliceRandom;
        let n = self.len();
        let mut labels: Vec<u32> = (0..n as u32).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..max_rounds {
            order.shuffle(&mut rng);
            let mut changed = false;
            for &v in &order {
                if self.adj[v].is_empty() {
                    continue;
                }
                // Most frequent neighbor label; smallest label wins ties.
                let mut votes: std::collections::BTreeMap<u32, usize> =
                    std::collections::BTreeMap::new();
                for &nb in &self.adj[v] {
                    *votes.entry(labels[nb]).or_insert(0) += 1;
                }
                // `adj[v]` is nonempty here, so `votes` always has an
                // entry; keeping the current label is the non-panicking
                // fallback either way.
                let best = votes
                    .iter()
                    .max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then(lb.cmp(la)))
                    .map(|(l, _)| *l)
                    .unwrap_or(labels[v]);
                if labels[v] != best {
                    labels[v] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        labels
    }

    /// Bridge score per node: the number of *distinct* communities among
    /// its neighbors (≥ 2 means the node spans community boundaries —
    /// where cross-group spread, and therefore targeted intervention,
    /// happens).
    pub fn bridge_scores(&self, labels: &[u32]) -> Vec<usize> {
        assert_eq!(labels.len(), self.len(), "labels must cover the graph");
        (0..self.len())
            .map(|v| {
                let mut seen: Vec<u32> = self.adj[v].iter().map(|&nb| labels[nb]).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            })
            .collect()
    }
}

/// Barabási–Albert preferential attachment: each new node attaches to `m`
/// existing nodes with probability proportional to degree.
///
/// # Panics
///
/// Panics unless `n > m` and `m >= 1`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> SocialGraph {
    assert!(m >= 1, "m must be >= 1");
    assert!(n > m, "need more nodes than attachment edges");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = SocialGraph::with_nodes(n);
    // Seed clique of m+1 nodes.
    for a in 0..=m {
        for b in (a + 1)..=m {
            g.add_edge(a, b);
        }
    }
    // Degree-proportional sampling via a repeated-endpoint list.
    let mut endpoints: Vec<usize> = Vec::new();
    for v in 0..=m {
        for _ in 0..g.degree(v) {
            endpoints.push(v);
        }
    }
    for v in (m + 1)..n {
        let mut targets = Vec::with_capacity(m);
        let mut guard = 0;
        while targets.len() < m && guard < 100 * m {
            guard += 1;
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            g.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    g
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors
/// per side, each edge rewired with probability `beta`.
///
/// # Panics
///
/// Panics unless `n > 2k` and `k >= 1`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> SocialGraph {
    assert!(k >= 1, "k must be >= 1");
    assert!(n > 2 * k, "n must exceed 2k");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = SocialGraph::with_nodes(n);
    for v in 0..n {
        for d in 1..=k {
            let u = (v + d) % n;
            if rng.gen_bool(beta.clamp(0.0, 1.0)) {
                // Rewire: connect v to a random non-neighbor.
                let mut guard = 0;
                loop {
                    guard += 1;
                    let w = rng.gen_range(0..n);
                    if w != v && !g.neighbors(v).contains(&w) {
                        g.add_edge(v, w);
                        break;
                    }
                    if guard > 100 {
                        g.add_edge(v, u);
                        break;
                    }
                }
            } else {
                g.add_edge(v, u);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Erdős–Rényi G(n, p).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn erdos_renyi(n: usize, p: f64, seed: u64) -> SocialGraph {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = SocialGraph::with_nodes(n);
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(a, b);
                }
            }
        }
        g
    }

    #[test]
    fn ba_basic_properties() {
        let g = barabasi_albert(500, 3, 1);
        assert_eq!(g.len(), 500);
        // Each new node adds ~m edges.
        assert!(g.edge_count() >= 3 * (500 - 4));
        // Heavy tail: the max degree dwarfs the mean.
        let mean_degree = 2.0 * g.edge_count() as f64 / g.len() as f64;
        assert!(
            g.max_degree() as f64 > 4.0 * mean_degree,
            "max {} mean {mean_degree}",
            g.max_degree()
        );
    }

    #[test]
    fn ba_deterministic() {
        let a = barabasi_albert(100, 2, 9);
        let b = barabasi_albert(100, 2, 9);
        assert_eq!(a.edge_count(), b.edge_count());
        for v in 0..100 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn er_density_matches_p() {
        let g = erdos_renyi(200, 0.05, 2);
        let expected = 0.05 * (200.0 * 199.0 / 2.0);
        let actual = g.edge_count() as f64;
        assert!(
            (actual - expected).abs() < expected * 0.3,
            "edges {actual} vs {expected}"
        );
    }

    #[test]
    fn ws_ring_degrees() {
        let g = watts_strogatz(100, 3, 0.0, 3);
        // Pure ring: everyone has degree 2k.
        for v in 0..100 {
            assert_eq!(g.degree(v), 6, "node {v}");
        }
        // With rewiring, nearly all edges survive (dedup collisions may
        // drop a handful).
        let g2 = watts_strogatz(100, 3, 0.3, 3);
        assert!(
            (290..=300).contains(&g2.edge_count()),
            "edges {}",
            g2.edge_count()
        );
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        for g in [
            barabasi_albert(100, 2, 5),
            erdos_renyi(100, 0.1, 5),
            watts_strogatz(100, 2, 0.2, 5),
        ] {
            for v in 0..g.len() {
                assert!(!g.neighbors(v).contains(&v), "self-loop at {v}");
                let mut nb = g.neighbors(v).to_vec();
                nb.sort_unstable();
                nb.dedup();
                assert_eq!(nb.len(), g.degree(v), "duplicate edge at {v}");
            }
        }
    }

    #[test]
    fn by_degree_desc_sorted() {
        let g = barabasi_albert(100, 2, 7);
        let order = g.by_degree_desc();
        for w in order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
    }

    #[test]
    fn label_propagation_finds_planted_communities() {
        // Two dense ER blobs joined by a handful of bridge edges.
        let mut g = SocialGraph::with_nodes(120);
        // Seed chosen so the planted structure survives the deterministic
        // vendored RNG stream (see third_party/rand).
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        use rand::Rng;
        for a in 0..60 {
            for b in (a + 1)..60 {
                if rng.gen_bool(0.2) {
                    g.add_edge(a, b);
                }
            }
        }
        for a in 60..120 {
            for b in (a + 1)..120 {
                if rng.gen_bool(0.2) {
                    g.add_edge(a, b);
                }
            }
        }
        g.add_edge(0, 60);
        g.add_edge(1, 61);
        let labels = g.label_propagation(7, 60);
        // Each planted blob should be (near-)uniform in label.
        let count = |range: std::ops::Range<usize>| {
            let mut c = std::collections::HashMap::new();
            for v in range {
                *c.entry(labels[v]).or_insert(0usize) += 1;
            }
            c.values().copied().max().unwrap_or(0)
        };
        assert!(count(0..60) >= 55, "blob A largely one community");
        assert!(count(60..120) >= 55, "blob B largely one community");
        // Bridge nodes see two communities; interior nodes mostly one.
        let scores = g.bridge_scores(&labels);
        assert!(scores[0] >= 2, "node 0 bridges");
        let interior_multi = (2..60).filter(|&v| scores[v] >= 2).count();
        assert!(
            interior_multi < 10,
            "few interior bridges, got {interior_multi}"
        );
    }

    #[test]
    fn label_propagation_deterministic() {
        let g = barabasi_albert(200, 3, 9);
        assert_eq!(g.label_propagation(3, 40), g.label_propagation(3, 40));
    }

    #[test]
    #[should_panic(expected = "labels must cover")]
    fn bridge_scores_checks_length() {
        let g = barabasi_albert(10, 2, 1);
        g.bridge_scores(&[0u32; 3]);
    }

    #[test]
    #[should_panic(expected = "more nodes than attachment")]
    fn ba_bad_params_panic() {
        barabasi_albert(3, 3, 1);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn er_bad_p_panics() {
        erdos_renyi(10, 1.5, 1);
    }
}
