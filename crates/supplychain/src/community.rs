//! Community detection over the propagation interaction graph.
//!
//! §VI: "The construction of news blockchain supply chain graph … is very
//! useful in identifying the groups/communities persons belong to" and "it
//! would be useful to identify all the groups each individual is
//! participating". Accounts that propagate each other's items form an
//! undirected interaction graph; asynchronous label propagation (with
//! deterministic, seeded tie-breaking) assigns community labels.

use std::collections::{BTreeMap, HashMap, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tn_crypto::Address;

use crate::graph::SupplyChainGraph;

/// An undirected weighted interaction graph between accounts.
#[derive(Debug, Default)]
pub struct InteractionGraph {
    /// adjacency: account → neighbor → weight.
    adj: HashMap<Address, BTreeMap<Address, u64>>,
}

impl InteractionGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the interaction graph from a supply chain: each parent edge
    /// between items by different authors adds interaction weight.
    pub fn from_supply_chain(sc: &SupplyChainGraph) -> Self {
        let mut g = InteractionGraph::new();
        for item in sc.iter().filter(|i| !i.is_fact_root) {
            for pref in &item.parents {
                if let Some(parent) = sc.get(&pref.id) {
                    if !parent.is_fact_root && parent.author != item.author {
                        g.add_edge(item.author, parent.author, 1);
                    }
                }
            }
        }
        g
    }

    /// Adds (or strengthens) an undirected edge.
    pub fn add_edge(&mut self, a: Address, b: Address, weight: u64) {
        if a == b {
            return;
        }
        *self.adj.entry(a).or_default().entry(b).or_insert(0) += weight;
        *self.adj.entry(b).or_default().entry(a).or_insert(0) += weight;
    }

    /// Number of accounts.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Sum of edge weights incident to `a`.
    pub fn degree(&self, a: &Address) -> u64 {
        self.adj.get(a).map(|n| n.values().sum()).unwrap_or(0)
    }

    /// Runs label propagation, returning account → community label.
    /// Deterministic given `seed`; converges when no label changes or
    /// after `max_rounds`.
    pub fn label_propagation(&self, seed: u64, max_rounds: usize) -> HashMap<Address, u32> {
        let mut nodes: Vec<Address> = self.adj.keys().copied().collect();
        nodes.sort();
        let mut labels: HashMap<Address, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, i as u32))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..max_rounds {
            let mut order = nodes.clone();
            order.shuffle(&mut rng);
            let mut changed = false;
            for node in &order {
                let neighbors = &self.adj[node];
                if neighbors.is_empty() {
                    continue;
                }
                // Weighted vote per label; smallest label wins ties for
                // determinism.
                let mut votes: BTreeMap<u32, u64> = BTreeMap::new();
                for (nb, w) in neighbors {
                    *votes.entry(labels[nb]).or_insert(0) += w;
                }
                let best = votes
                    .iter()
                    .max_by(|(la, wa), (lb, wb)| wa.cmp(wb).then(lb.cmp(la)))
                    .map(|(l, _)| *l)
                    .expect("nonempty votes");
                if labels[node] != best {
                    labels.insert(*node, best);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        labels
    }

    /// Groups accounts into communities (label → members, sorted).
    pub fn communities(&self, seed: u64, max_rounds: usize) -> Vec<Vec<Address>> {
        let labels = self.label_propagation(seed, max_rounds);
        let mut groups: BTreeMap<u32, Vec<Address>> = BTreeMap::new();
        for (addr, label) in labels {
            groups.entry(label).or_default().push(addr);
        }
        let mut out: Vec<Vec<Address>> = groups.into_values().collect();
        for g in &mut out {
            g.sort();
        }
        out.sort_by_key(|g| std::cmp::Reverse(g.len()));
        out
    }

    /// The communities an account bridges: labels of its neighbors — used
    /// for the paper's "build bridges across communities" research hook.
    pub fn neighbor_communities(
        &self,
        a: &Address,
        labels: &HashMap<Address, u32>,
    ) -> HashSet<u32> {
        self.adj
            .get(a)
            .map(|nbs| nbs.keys().filter_map(|n| labels.get(n).copied()).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::Keypair;

    fn addr(i: u64) -> Address {
        Keypair::from_seed(&i.to_le_bytes()).address()
    }

    /// Two dense cliques joined by one weak edge.
    fn two_cliques() -> (InteractionGraph, Vec<Address>, Vec<Address>) {
        let mut g = InteractionGraph::new();
        let a: Vec<Address> = (0..5).map(addr).collect();
        let b: Vec<Address> = (10..15).map(addr).collect();
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                g.add_edge(a[i], a[j], 5);
            }
        }
        for i in 0..b.len() {
            for j in (i + 1)..b.len() {
                g.add_edge(b[i], b[j], 5);
            }
        }
        g.add_edge(a[0], b[0], 1);
        (g, a, b)
    }

    #[test]
    fn cliques_form_two_communities() {
        let (g, a, b) = two_cliques();
        let labels = g.label_propagation(7, 50);
        let la: HashSet<u32> = a.iter().map(|x| labels[x]).collect();
        let lb: HashSet<u32> = b.iter().map(|x| labels[x]).collect();
        assert_eq!(la.len(), 1, "clique A should share a label");
        assert_eq!(lb.len(), 1, "clique B should share a label");
        assert_ne!(la, lb, "cliques should have different labels");
        let comms = g.communities(7, 50);
        assert_eq!(comms.len(), 2);
        assert_eq!(comms[0].len(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, _, _) = two_cliques();
        assert_eq!(g.label_propagation(3, 50), g.label_propagation(3, 50));
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = InteractionGraph::new();
        g.add_edge(addr(1), addr(1), 10);
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn degree_counts_weights() {
        let mut g = InteractionGraph::new();
        g.add_edge(addr(1), addr(2), 3);
        g.add_edge(addr(1), addr(3), 4);
        assert_eq!(g.degree(&addr(1)), 7);
        assert_eq!(g.degree(&addr(2)), 3);
        assert_eq!(g.degree(&addr(9)), 0);
    }

    #[test]
    fn from_supply_chain_links_authors() {
        use crate::ops::PropagationOp;
        use tn_crypto::sha256::sha256;

        let mut sc = SupplyChainGraph::new();
        let root = sha256(b"r");
        sc.add_fact_root(root, "Fact text here. More fact text.", "t", 0)
            .unwrap();
        let a1 = sc
            .insert(
                addr(1),
                "Fact text here. More fact text.",
                "t",
                1,
                vec![(root, PropagationOp::Relay)],
                1,
            )
            .unwrap();
        let _a2 = sc
            .insert(
                addr(2),
                "Fact text here. More fact text.",
                "t",
                1,
                vec![(a1, PropagationOp::Relay)],
                2,
            )
            .unwrap();
        let ig = InteractionGraph::from_supply_chain(&sc);
        // addr(1) ↔ addr(2) linked; root edges (fact roots) excluded.
        assert_eq!(ig.node_count(), 2);
        assert_eq!(ig.degree(&addr(1)), 1);
    }

    #[test]
    fn bridge_node_sees_both_communities() {
        let (g, a, b) = two_cliques();
        let labels = g.label_propagation(7, 50);
        let bridge_comms = g.neighbor_communities(&a[0], &labels);
        assert_eq!(
            bridge_comms.len(),
            2,
            "bridge should touch both communities"
        );
        let interior = g.neighbor_communities(&a[2], &labels);
        assert_eq!(interior.len(), 1);
        assert!(b.iter().all(|x| labels.contains_key(x)));
    }
}
