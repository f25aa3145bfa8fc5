//! E7 — Expert identification from ledger history: precision@k of the
//! AI-suggested domain experts against ground truth, and the growth of
//! the fact-checker candidate pool over time.
//!
//! Paper anchor: §VI — "identifying the potential domain topic experts by
//! AI analyzing the history of blockchain ledger … can help to increase
//! the domain topic experts of fact-checking pools."
//!
//! Run: `cargo run -p tn-bench --release --bin exp7_expert_identification`

use std::collections::HashSet;

use serde::Serialize;
use tn_bench::Experiment;
use tn_crypto::Address;
use tn_supplychain::expert::score_experts;
use tn_supplychain::synth::{generate, SynthConfig};

#[derive(Debug, Serialize)]
struct Row {
    items_indexed: usize,
    k: usize,
    precision_at_k: f64,
    candidate_pool: usize,
}

fn main() {
    let exp = Experiment::start("E7", "domain-expert identification from ledger history");
    // Ground truth: honest accounts are the "experts" (they create factual,
    // well-sourced content); fakers are not.
    let mut rows = Vec::new();
    for &n_items in &[100usize, 300, 900] {
        let synth = generate(&SynthConfig {
            n_fact_roots: 50,
            n_honest: 15,
            n_fakers: 8,
            n_items,
            seed: 23,
        });
        let honest: HashSet<Address> = synth.honest.iter().copied().collect();
        let scored = score_experts(&synth.graph);
        // Aggregate per author across topics (an author's best evidence).
        let mut per_author: Vec<(Address, f64)> = Vec::new();
        for e in &scored {
            match per_author.iter_mut().find(|(a, _)| *a == e.author) {
                Some((_, s)) => *s += e.score,
                None => per_author.push((e.author, e.score)),
            }
        }
        per_author.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        for &k in &[3usize, 5, 10] {
            let hits = per_author
                .iter()
                .take(k)
                .filter(|(a, _)| honest.contains(a))
                .count();
            rows.push(Row {
                items_indexed: n_items,
                k,
                precision_at_k: hits as f64 / k as f64,
                candidate_pool: per_author.iter().filter(|(_, s)| *s > 1.0).count(),
            });
        }
    }

    exp.report("E7", "expert identification", &rows);
    println!(
        "\nshape check: precision@k is high (the top of the expertise ranking is dominated \
         by genuinely factual creators) and the candidate pool grows with ledger history — \
         the mechanism the paper proposes for scaling the fact-checking pool."
    );
}
