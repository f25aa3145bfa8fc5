//! The fake-vs-factual propagation race (the paper's abstract promise:
//! "factual-sourced reporting can outpace the spread of fake news").
//!
//! Releases a bot-amplified fake story and a journalist-seeded factual
//! story on the same scale-free network and compares reach under four
//! platform policies.
//!
//! Run with: `cargo run -p tn-examples --bin fake_news_race --release`

use tn_propagation::network::barabasi_albert;
use tn_propagation::race::{run_race, Intervention, RaceConfig};

fn main() {
    let graph = barabasi_albert(5_000, 3, 2019);
    println!(
        "network: {} accounts, {} edges, max degree {}",
        graph.len(),
        graph.edge_count(),
        graph.max_degree()
    );

    let base = RaceConfig::default();
    let scenarios: Vec<(&str, RaceConfig, Intervention)> = vec![
        ("status quo (no platform)", base.clone(), Intervention::None),
        (
            "flagging after 3 rounds (-80% reshare)",
            base.clone(),
            Intervention::Flagging {
                delay: 3,
                multiplier: 0.2,
            },
        ),
        (
            "source blocking after 2 rounds",
            base.clone(),
            Intervention::SourceBlocking { delay: 2 },
        ),
        (
            "trace-ranking suppression + certified boost",
            RaceConfig { factual_boost: 1.6 },
            Intervention::RankingSuppression { multiplier: 0.25 },
        ),
    ];

    println!(
        "\n{:<42} {:>10} {:>10} {:>8} {:>12}",
        "scenario", "fake", "factual", "ratio", "factual wins"
    );
    for (label, config, intervention) in scenarios {
        let r = run_race(&graph, &config, intervention).expect("valid race config");
        println!(
            "{:<42} {:>10} {:>10} {:>8.2} {:>12}",
            label,
            r.fake.total_reach,
            r.factual.total_reach,
            r.factual_to_fake_ratio,
            r.factual_wins
        );
    }

    // Reach-over-time curves for the bookend scenarios.
    let none = run_race(&graph, &base, Intervention::None).expect("valid race config");
    let full = run_race(
        &graph,
        &RaceConfig { factual_boost: 1.6 },
        Intervention::RankingSuppression { multiplier: 0.25 },
    )
    .expect("valid race config");
    println!("\nreach over time (every 5 rounds):");
    println!(
        "{:>5} {:>12} {:>14} {:>12} {:>14}",
        "round", "fake (none)", "factual (none)", "fake (full)", "factual (full)"
    );
    let len = none
        .fake
        .reach_over_time
        .len()
        .max(full.fake.reach_over_time.len());
    for t in (0..len).step_by(5) {
        let at = |v: &[usize]| v.get(t).copied().or(v.last().copied()).unwrap_or(0);
        println!(
            "{:>5} {:>12} {:>14} {:>12} {:>14}",
            t,
            at(&none.fake.reach_over_time),
            at(&none.factual.reach_over_time),
            at(&full.fake.reach_over_time),
            at(&full.factual.reach_over_time),
        );
    }
}
