//! Domain-topic expert identification from ledger history.
//!
//! "The construction of news blockchain supply chain graph … can be useful
//! in identifying the potential domain topic experts by AI analyzing the
//! history of blockchain ledger to identify the fact news creators of a
//! given domain topic" (§VI). An author's expertise on a topic is scored
//! from the volume and provenance quality of their contributions: items
//! that trace to the factual database with little modification count for
//! much more than unsourced or heavily distorted ones.
//!
//! The paper wants the suggestion "in real time when news emerges", so
//! the evidence is tallied as items enter the graph (an item's trace is
//! final at insert — see [`crate::graph`]) and a suggestion for a topic
//! sorts that topic's rows; nothing is traced at query time.

use std::collections::HashMap;

use tn_crypto::Address;

use crate::graph::{count_visit, SupplyChainGraph, TraceSummary};
use crate::ranking::summary_score;

/// Expertise evidence for one author on one topic.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertScore {
    /// The author account.
    pub author: Address,
    /// Topic label.
    pub topic: String,
    /// Number of items the author published on the topic.
    pub items: usize,
    /// Number of those that trace back to the factual database.
    pub rooted_items: usize,
    /// Sum of trace scores (each in `[0,1]`) — the expertise score.
    pub score: f64,
}

/// The running [`ExpertScore`] of every (topic, author) pair, kept by the
/// graph: an item's trace is final when it is inserted, so its evidence
/// is added then — once, in insertion order, which fixes the order the
/// `f64` sum adds in — and a suggestion reads one topic's rows instead of
/// tracing the graph.
#[derive(Debug, Default)]
pub(crate) struct ExpertTallies {
    by_topic: HashMap<String, HashMap<Address, ExpertScore>>,
}

impl ExpertTallies {
    /// Adds one non-root item's evidence.
    pub(crate) fn record(&mut self, topic: &str, author: Address, trace: &TraceSummary) {
        let entry = self
            .by_topic
            .entry(topic.to_string())
            .or_default()
            .entry(author)
            .or_insert_with(|| ExpertScore {
                author,
                topic: topic.to_string(),
                items: 0,
                rooted_items: 0,
                score: 0.0,
            });
        entry.items += 1;
        if trace.reaches_root {
            entry.rooted_items += 1;
        }
        entry.score += summary_score(trace);
    }
}

/// The best `k` of `rows`, copied out: score descending, then author,
/// then topic (one author can hold equal scores on two topics).
fn top<'a>(rows: impl Iterator<Item = &'a ExpertScore>, k: usize) -> Vec<ExpertScore> {
    let mut rows: Vec<&ExpertScore> = rows.inspect(|_| count_visit()).collect();
    rows.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.author.cmp(&b.author))
            .then_with(|| a.topic.cmp(&b.topic))
    });
    rows.into_iter().take(k).cloned().collect()
}

/// Every (author, topic) pair with its score, best first.
pub fn score_experts(graph: &SupplyChainGraph) -> Vec<ExpertScore> {
    let tallies = &graph.experts().by_topic;
    top(tallies.values().flat_map(HashMap::values), usize::MAX)
}

/// The top-k candidate experts for a topic — the paper's "dynamically
/// suggest a group of domain topic experts to a given topic in real time
/// when news emerges". Reads that topic's rows and no others.
pub fn experts_for_topic(graph: &SupplyChainGraph, topic: &str, k: usize) -> Vec<ExpertScore> {
    let authors = graph.experts().by_topic.get(topic);
    top(authors.into_iter().flat_map(HashMap::values), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PropagationOp;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    const FACT: &str = "The committee approved the solar subsidy amendment. \
        The vote passed with a clear majority. The minister welcomed the outcome.";

    fn addr(seed: &[u8]) -> Address {
        Keypair::from_seed(seed).address()
    }

    fn build_graph() -> (SupplyChainGraph, Address, Address, Address) {
        let mut g = SupplyChainGraph::new();
        let expert = addr(b"expert");
        let casual = addr(b"casual");
        let troll = addr(b"troll");

        // Several energy fact roots.
        let roots: Vec<_> = (0..4u8)
            .map(|i| {
                let id = sha256(&[i]);
                g.add_fact_root(id, &format!("{FACT} Docket {i}."), "energy", 0)
                    .unwrap();
                id
            })
            .collect();

        // Expert: four faithful citations.
        for (i, r) in roots.iter().enumerate() {
            g.insert(
                expert,
                &format!("{FACT} Docket {i}."),
                "energy",
                1,
                vec![(*r, PropagationOp::Cite)],
                10 + i as u64,
            )
            .unwrap();
        }
        // Casual: one faithful citation.
        g.insert(
            casual,
            &format!("{FACT} Docket 0."),
            "energy",
            1,
            vec![(roots[0], PropagationOp::Relay)],
            30,
        )
        .unwrap();
        // Troll: three unsourced fabrications.
        for i in 0..3u64 {
            g.insert(
                troll,
                &format!("Shocking secret energy scandal number {i} exposed."),
                "energy",
                1,
                vec![],
                40 + i,
            )
            .unwrap();
        }
        (g, expert, casual, troll)
    }

    #[test]
    fn expert_outranks_casual_and_troll() {
        let (g, expert, casual, troll) = build_graph();
        let top = experts_for_topic(&g, "energy", 3);
        assert_eq!(top[0].author, expert);
        assert!(top[0].score > 3.5, "expert score {}", top[0].score);
        let pos = |a: Address| top.iter().position(|e| e.author == a);
        assert!(pos(expert) < pos(casual));
        // Troll has 3 items but zero rooted ones: score ~0, ranked last.
        let troll_entry = top.iter().find(|e| e.author == troll).unwrap();
        assert_eq!(troll_entry.rooted_items, 0);
        assert!(troll_entry.score < 0.01);
    }

    #[test]
    fn topic_filter_applies() {
        let (mut g, expert, _, _) = build_graph();
        let r = sha256(b"health-root");
        g.add_fact_root(r, "Hospital staffing report released today.", "health", 0)
            .unwrap();
        g.insert(
            expert,
            "Hospital staffing report released today.",
            "health",
            2,
            vec![(r, PropagationOp::Cite)],
            99,
        )
        .unwrap();
        let health = experts_for_topic(&g, "health", 5);
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].author, expert);
        assert_eq!(health[0].items, 1);
    }

    #[test]
    fn k_limits_results() {
        let (g, _, _, _) = build_graph();
        assert_eq!(experts_for_topic(&g, "energy", 1).len(), 1);
        assert!(experts_for_topic(&g, "nonexistent", 5).is_empty());
    }

    #[test]
    fn counts_are_accurate() {
        let (g, expert, _, _) = build_graph();
        let all = score_experts(&g);
        let e = all.iter().find(|e| e.author == expert).unwrap();
        assert_eq!(e.items, 4);
        assert_eq!(e.rooted_items, 4);
    }
}
