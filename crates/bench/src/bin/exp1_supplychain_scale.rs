//! E1 — Process supply chain (Fig. 3) vs news supply chain (Fig. 4):
//! participants, ledger growth and trace cost as item volume scales.
//!
//! Paper anchor: §VI's contrast between "pre-configured limited number of
//! processing steps … pre-fixed network architecture" and the news chain's
//! "much complicated and dynamic network architecture with large scale
//! network graph \[where\] consumers are involved into the process nodes".
//!
//! Run: `cargo run -p tn-bench --release --bin exp1_supplychain_scale`
//! (`--quick` runs the same sizes, asserts the shape check and writes no
//! artifact).

use std::collections::HashSet;
use std::time::Instant;

use serde::Serialize;
use tn_bench::Experiment;
use tn_crypto::Keypair;
use tn_supplychain::process::{ProcessSupplyChain, Stage};
use tn_supplychain::synth::{generate, SynthConfig};

#[derive(Debug, Serialize)]
struct Row {
    chain_kind: &'static str,
    items: usize,
    participants: usize,
    ledger_entries: usize,
    edges: usize,
    mean_trace_us: f64,
    traceable_fraction: f64,
}

fn main() {
    let exp = Experiment::start(
        "E1",
        "process supply chain (Fig. 3) vs news supply chain (Fig. 4)",
    );
    let mut rows = Vec::new();

    for &items in &[100usize, 400, 1600] {
        // --- Fig. 3 baseline: fixed 4-participant pipeline ----------------
        let actors = [
            (Stage::Producer, Keypair::from_seed(b"e1 farm").address()),
            (Stage::Processor, Keypair::from_seed(b"e1 plant").address()),
            (
                Stage::Distributor,
                Keypair::from_seed(b"e1 truck").address(),
            ),
            (Stage::Retailer, Keypair::from_seed(b"e1 shop").address()),
        ];
        let actor = |s: Stage| actors.iter().find(|(st, _)| *st == s).unwrap().1;
        let mut chain = ProcessSupplyChain::new(actors);
        let ids: Vec<_> = (0..items)
            .map(|i| ProcessSupplyChain::item_id(&format!("batch-{i}")))
            .collect();
        for stage in Stage::PIPELINE {
            for id in &ids {
                chain.record(*id, stage, actor(stage), 0).expect("in order");
            }
        }
        let t0 = Instant::now();
        for id in &ids {
            assert!(chain.is_complete(id));
            let _ = chain.trace(id);
        }
        let mean_trace_us = t0.elapsed().as_secs_f64() * 1e6 / items as f64;
        rows.push(Row {
            chain_kind: "process (Fig.3)",
            items,
            participants: chain.participant_count(),
            ledger_entries: chain.len(),
            edges: items * (Stage::PIPELINE.len() - 1),
            mean_trace_us,
            traceable_fraction: 1.0,
        });

        // --- Fig. 4: dynamic news supply chain ----------------------------
        let synth = generate(&SynthConfig {
            n_fact_roots: (items / 8).max(10),
            n_honest: (items / 10).max(5),
            n_fakers: (items / 40).max(2),
            n_items: items,
            seed: 42,
        });
        let participants: HashSet<_> = synth
            .graph
            .iter()
            .filter(|i| !i.is_fact_root)
            .map(|i| i.author)
            .collect();
        let t0 = Instant::now();
        let traces = synth.graph.trace_all();
        let elapsed = t0.elapsed().as_secs_f64() * 1e6;
        let traceable =
            traces.iter().filter(|(_, t)| t.reaches_root).count() as f64 / traces.len() as f64;
        rows.push(Row {
            chain_kind: "news (Fig.4)",
            items,
            participants: participants.len(),
            ledger_entries: synth.graph.len(),
            edges: synth.graph.edge_count(),
            mean_trace_us: elapsed / traces.len() as f64,
            traceable_fraction: traceable,
        });
    }

    // The shape check, asserted: the process chain keeps its 4
    // participants at every size, the news chain's participant set grows
    // with volume, and most (not all: fabrications have no root) news
    // items trace back to the factual database.
    let (process, news): (Vec<&Row>, Vec<&Row>) = rows
        .iter()
        .partition(|r| r.chain_kind.starts_with("process"));
    let fixed = process.iter().all(|r| r.participants == 4);
    let grows = news
        .windows(2)
        .all(|w| w[1].participants > w[0].participants);
    let traced = news
        .iter()
        .all(|r| (0.85..1.0).contains(&r.traceable_fraction));
    assert!(
        fixed && grows && traced,
        "shape check failed: process participants fixed at 4 {fixed}, news participants grow \
         {grows}, news traceable fraction in [0.85, 1) {traced}"
    );

    exp.report("E1", "process vs news supply chain scale", &rows);
    println!(
        "\nshape check: process participants stay fixed at 4 while news participants grow \
         with volume; news tracing stays sub-microsecond per item: answers are stored at insert."
    );
}
