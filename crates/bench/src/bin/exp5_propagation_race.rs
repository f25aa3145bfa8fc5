//! E5 — Propagation race: fake vs factual reach under platform
//! interventions, across network models.
//!
//! Paper anchor: the abstract's promise that "factual-sourced reporting
//! can outpace the spread of fake news", plus the cited Facebook flagging
//! effect (−80 % reshare) and bot-driven spread.
//!
//! Run: `cargo run -p tn-bench --release --bin exp5_propagation_race`
//! (`--quick` runs the same races, asserts the shape check and writes no
//! artifact).

use serde::Serialize;
use tn_bench::Experiment;
use tn_propagation::network::{barabasi_albert, watts_strogatz};
use tn_propagation::race::{run_race, Intervention, RaceConfig};

#[derive(Debug, Serialize)]
struct Row {
    network: &'static str,
    intervention: String,
    fake_reach: usize,
    factual_reach: usize,
    ratio: f64,
    factual_wins: bool,
    fake_half_reach_round: usize,
}

fn main() {
    let exp = Experiment::start("E5", "fake vs factual propagation race under interventions");
    let networks: Vec<(&'static str, tn_propagation::network::SocialGraph)> = vec![
        ("barabasi-albert 5k", barabasi_albert(5_000, 3, 2019)),
        ("watts-strogatz 5k", watts_strogatz(5_000, 4, 0.1, 2019)),
    ];
    let base = RaceConfig::default();
    let scenarios: Vec<(String, RaceConfig, Intervention)> = vec![
        ("none (status quo)".into(), base.clone(), Intervention::None),
        (
            "flagging d=3 (−80%)".into(),
            base.clone(),
            Intervention::Flagging {
                delay: 3,
                multiplier: 0.2,
            },
        ),
        (
            "flagging d=8 (−80%)".into(),
            base.clone(),
            Intervention::Flagging {
                delay: 8,
                multiplier: 0.2,
            },
        ),
        (
            "source block d=2".into(),
            base.clone(),
            Intervention::SourceBlocking { delay: 2 },
        ),
        (
            "rank suppress ×0.25".into(),
            base.clone(),
            Intervention::RankingSuppression { multiplier: 0.25 },
        ),
        (
            "suppress + certify ×1.6".into(),
            RaceConfig { factual_boost: 1.6 },
            Intervention::RankingSuppression { multiplier: 0.25 },
        ),
    ];

    let mut rows = Vec::new();
    for (net_name, graph) in &networks {
        for (label, config, intervention) in &scenarios {
            let r = run_race(graph, config, *intervention).expect("valid race config");
            rows.push(Row {
                network: net_name,
                intervention: label.clone(),
                fake_reach: r.fake.total_reach,
                factual_reach: r.factual.total_reach,
                ratio: r.factual_to_fake_ratio,
                factual_wins: r.factual_wins,
                fake_half_reach_round: r.fake.half_reach_round,
            });
        }
    }

    // The shape check, asserted on both topologies: the status-quo fake
    // outruns the factual story, a flag at delay 8 changes nothing, and
    // the full stack (suppress + certify) lets the factual story win.
    for (net_name, _) in &networks {
        let cell = |label: &str| {
            rows.iter()
                .find(|r| r.network == *net_name && r.intervention == label)
                .expect("every cell ran")
        };
        let (none, late, stack) = (
            cell("none (status quo)"),
            cell("flagging d=8 (−80%)"),
            cell("suppress + certify ×1.6"),
        );
        assert!(
            !none.factual_wins && late.fake_reach == none.fake_reach && stack.factual_wins,
            "shape check failed on {net_name}: status quo factual wins {}, late flag reach {} \
             vs {}, full stack factual wins {}",
            none.factual_wins,
            late.fake_reach,
            none.fake_reach,
            stack.factual_wins
        );
    }

    exp.report("E5", "propagation race", &rows);
    println!(
        "\nshape check: with no platform the bot-amplified, influencer-seeded fake dominates \
         on both topologies. Flagging helps only when it lands within the cascade's short \
         life (late flags are useless — the 'corrections come too late' problem). The full \
         platform stack — trace-ranking suppression of the fake plus certification-driven \
         placement of the factual story — flips the race so factual content wins, the \
         paper's headline claim."
    );
}
