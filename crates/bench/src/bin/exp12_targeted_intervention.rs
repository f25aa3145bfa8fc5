//! E12 (extension) — Personalized / targeted intervention.
//!
//! Paper anchor: §VII — "Personalization of the fake news intervention
//! mechanisms … There is no single size fit all solution … It is
//! therefore important and highly challenged to identify, tag, and
//! categorize the different personal characteristics for individual or
//! different groups/communities, and develop various intervention
//! technologies accordingly."
//!
//! The population has heterogeneous receptivity to fake content (the
//! paper's "asymmetrical updaters"): gullible, average and skeptical
//! accounts. The platform has an intervention *budget* of K accounts it
//! can reach with a personalized literacy/warning intervention (their
//! receptivity to fake content drops to 0.1). Targeting strategies are
//! compared at equal budget.
//!
//! Run: `cargo run -p tn-bench --release --bin exp12_targeted_intervention`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use tn_bench::Experiment;
use tn_propagation::cascade::{
    assign_accounts, independent_cascade_with_receptivity, CascadeConfig,
};
use tn_propagation::network::{barabasi_albert, SocialGraph};

/// A modular "communities" network: `blocks` dense groups joined by a few
/// random bridge edges — the group structure §VI says the supply-chain
/// graph exposes.
fn modular_graph(blocks: usize, block_size: usize, seed: u64) -> SocialGraph {
    let n = blocks * block_size;
    let mut g = SocialGraph::with_nodes(n);
    let mut rng = StdRng::seed_from_u64(seed);
    for b in 0..blocks {
        let base = b * block_size;
        for a in 0..block_size {
            for c in (a + 1)..block_size {
                if rng.gen_bool(0.08) {
                    g.add_edge(base + a, base + c);
                }
            }
        }
    }
    // Sparse inter-community bridges.
    for _ in 0..(blocks * 3) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        g.add_edge(a, b);
    }
    g
}

#[derive(Debug, Serialize)]
struct Row {
    network: &'static str,
    strategy: &'static str,
    budget: usize,
    fake_reach: usize,
    reduction_vs_none: f64,
}

fn main() {
    let exp = Experiment::start("E12", "targeted intervention under a fixed budget");
    let networks: Vec<(&'static str, SocialGraph)> = vec![
        ("barabasi-albert 5k", barabasi_albert(5_000, 3, 707)),
        ("modular 25×200", modular_graph(25, 200, 707)),
    ];
    let mut rows: Vec<Row> = Vec::new();

    for (net_name, graph) in &networks {
        let n = graph.len();
        let accounts = assign_accounts(n, 0.10, 0.05, 707);
        let mut rng = StdRng::seed_from_u64(909);

        // Heterogeneous receptivity: 30 % gullible (1.6), 50 % average
        // (1.0), 20 % skeptical (0.4).
        let receptivity_base: Vec<f64> = (0..n)
            .map(|_| {
                let roll: f64 = rng.gen();
                if roll < 0.3 {
                    1.6
                } else if roll < 0.8 {
                    1.0
                } else {
                    0.4
                }
            })
            .collect();

        let by_degree = graph.by_degree_desc();
        let fake_seeds: Vec<usize> = by_degree.iter().copied().take(5).collect();
        // On the modular network, in-group spread must be supercritical for
        // group structure to matter (a story saturates its community and
        // only bridges carry it further).
        let base_prob = if net_name.starts_with("modular") {
            0.085
        } else {
            0.05
        };
        let config = CascadeConfig {
            base_prob,
            share_multiplier: 1.0,
            max_rounds: 40,
            seed: 11,
        };

        // Average over many cascade seeds for stability.
        let run = |receptivity: &[f64]| -> f64 {
            let mut total = 0usize;
            for seed in 0..24u64 {
                let cfg = CascadeConfig {
                    seed,
                    ..config.clone()
                };
                total += independent_cascade_with_receptivity(
                    graph,
                    &accounts,
                    &fake_seeds,
                    &[],
                    receptivity,
                    &cfg,
                )
                .expect("masks cover the graph")
                .total_reach;
            }
            total as f64 / 24.0
        };

        // Targeting strategies: each is a priority order over nodes.
        let gullible_rank = {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| {
                let sa = receptivity_base[a] * graph.degree(a) as f64;
                let sb = receptivity_base[b] * graph.degree(b) as f64;
                sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
            });
            idx
        };
        let bridge_rank = {
            // Community bridges (×degree): compartmentalize the network by
            // inoculating the nodes that connect groups (§VI's "build
            // bridges across communities", inverted defensively).
            let labels = graph.label_propagation(5, 40);
            let bridges = graph.bridge_scores(&labels);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| {
                let sa = bridges[a] as f64 * graph.degree(a) as f64;
                let sb = bridges[b] as f64 * graph.degree(b) as f64;
                sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
            });
            idx
        };
        let random_order = {
            let mut idx: Vec<usize> = (0..n).collect();
            use rand::seq::SliceRandom;
            idx.shuffle(&mut StdRng::seed_from_u64(13));
            idx
        };

        let strategies: Vec<(&'static str, &Vec<usize>)> = vec![
            ("random", &random_order),
            ("top-degree", &by_degree),
            ("gullible × degree", &gullible_rank),
            ("community bridges", &bridge_rank),
        ];

        let baseline = run(&receptivity_base);
        println!("[{net_name}] baseline fake reach: {baseline:.0} accounts");
        rows.push(Row {
            network: net_name,
            strategy: "none",
            budget: 0,
            fake_reach: baseline.round() as usize,
            reduction_vs_none: 0.0,
        });
        for &budget in &[100usize, 250, 500] {
            for (name, order) in &strategies {
                let mut receptivity = receptivity_base.clone();
                for &v in order.iter().take(budget) {
                    receptivity[v] = 0.1; // personalized warning takes effect
                }
                let reach = run(&receptivity);
                let reduction = 1.0 - reach / baseline;
                rows.push(Row {
                    network: net_name,
                    strategy: name,
                    budget,
                    fake_reach: reach.round() as usize,
                    reduction_vs_none: reduction,
                });
            }
        }
    }
    exp.report("E12", "targeted intervention", &rows);
    println!(
        "\nshape check: informed targeting beats random spending at every budget once the \
         cascade is strong enough to matter. On scale-free networks degree (refined by the \
         gullibility tag) is the lever; on modular networks per-account gullibility and \
         bridge structure carry more of the weight. Personalization pays exactly where the \
         paper says it should: in the per-account and per-group structure the platform \
         uniquely records."
    );
}
