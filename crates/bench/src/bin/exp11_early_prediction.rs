//! E11 (extension) — Early fake-news prediction at publication time.
//!
//! Paper anchor: §VII — "we need to investigate mechanisms to minimize
//! the impact of fake news before it has been propagated and disputed.
//! This imposes a hard technical challenge which requires fake news
//! prediction algorithms to anticipate the onset of a fake news
//! propagation."
//!
//! The predictor sees only what exists the moment an item is published:
//! its text style, its provenance structure (parents, modification
//! degree), and the author's *prior* on-ledger history. No crowd
//! ratings, no propagation data, no dispute — those come later. Feature
//! sets are ablated to show where the predictive power lives.
//!
//! Run: `cargo run -p tn-bench --release --bin exp11_early_prediction`
//! (`--quick` runs the same split, asserts the shape check and writes no
//! artifact).

use serde::Serialize;
use std::collections::HashMap;
use tn_aidetect::dense::DenseLogReg;
use tn_aidetect::lexicon::LexiconFeatures;
use tn_aidetect::metrics::evaluate;
use tn_bench::Experiment;
use tn_crypto::Address;
use tn_supplychain::ranking::trace_score;
use tn_supplychain::synth::{generate, SynthConfig};

#[derive(Debug, Serialize)]
struct Row {
    feature_set: &'static str,
    n_features: usize,
    auc: f64,
    accuracy: f64,
    recall_fake: f64,
}

/// Publication-time feature vector of one item.
struct Sample {
    content_style: Vec<f64>,
    provenance: Vec<f64>,
    author_history: Vec<f64>,
    label_fake: bool,
}

fn main() {
    let exp = Experiment::start(
        "E11",
        "predicting fake news at publication, before propagation",
    );
    let synth = generate(&SynthConfig {
        n_fact_roots: 60,
        n_honest: 25,
        n_fakers: 7,
        n_items: 1200,
        seed: 41,
    });

    // Walk items in publication order, maintaining each author's history
    // *as it was* when the item appeared (no look-ahead).
    let mut history: HashMap<Address, (usize, f64)> = HashMap::new(); // (items, sum trace)
    let mut samples: Vec<Sample> = Vec::new();
    let traces: HashMap<_, _> = synth.graph.trace_all().into_iter().collect();
    let items: Vec<_> = synth
        .graph
        .iter()
        .filter(|i| !i.is_fact_root)
        .cloned()
        .collect();
    for item in &items {
        let truth = &synth.truth[&item.id];
        let lex = LexiconFeatures::extract(&item.content);
        let content_style = vec![
            lex.negative_rate,
            lex.conspiracy_rate,
            lex.clickbait_rate,
            lex.exclamation_rate,
            lex.allcaps_fraction,
            item.content.len() as f64,
        ];
        let (parent_trace, max_mod) = item
            .parents
            .iter()
            .map(|p| {
                let pt = traces.get(&p.id).map(trace_score).unwrap_or(1.0); // parent is a fact root
                (pt, p.modification)
            })
            .fold((0.0f64, 0.0f64), |(bt, bm), (t, m)| (bt.max(t), bm.max(m)));
        let provenance = vec![
            item.parents.is_empty() as u8 as f64,
            item.parents.len() as f64,
            parent_trace,
            max_mod,
        ];
        let (h_count, h_sum) = history.get(&item.author).copied().unwrap_or((0, 0.0));
        let author_history = vec![
            h_count as f64,
            if h_count > 0 {
                h_sum / h_count as f64
            } else {
                0.5
            },
        ];
        samples.push(Sample {
            content_style,
            provenance,
            author_history,
            label_fake: truth.is_fake,
        });
        // Update history with this item's eventual trace quality (the
        // ledger accumulates it over time).
        let ts = traces.get(&item.id).map(trace_score).unwrap_or(0.0);
        let e = history.entry(item.author).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += ts;
    }

    // Temporal split: train on the first 70 %, test on the rest.
    let cut = samples.len() * 7 / 10;
    type Extractor = Box<dyn Fn(&Sample) -> Vec<f64>>;
    let feature_sets: Vec<(&'static str, Extractor)> = vec![
        (
            "content style only",
            Box::new(|s: &Sample| s.content_style.clone()),
        ),
        (
            "provenance only",
            Box::new(|s: &Sample| s.provenance.clone()),
        ),
        (
            "author history only",
            Box::new(|s: &Sample| s.author_history.clone()),
        ),
        (
            "provenance + history",
            Box::new(|s: &Sample| [s.provenance.clone(), s.author_history.clone()].concat()),
        ),
        (
            "all features",
            Box::new(|s: &Sample| {
                [
                    s.content_style.clone(),
                    s.provenance.clone(),
                    s.author_history.clone(),
                ]
                .concat()
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, extract) in &feature_sets {
        let x_train: Vec<Vec<f64>> = samples[..cut].iter().map(extract).collect();
        let y_train: Vec<bool> = samples[..cut].iter().map(|s| s.label_fake).collect();
        let model = DenseLogReg::train(&x_train, &y_train);
        let preds: Vec<(bool, f64)> = samples[cut..]
            .iter()
            .map(|s| (s.label_fake, model.predict(&extract(s))))
            .collect();
        let m = evaluate(&preds, 0.5);
        rows.push(Row {
            feature_set: name,
            n_features: x_train[0].len(),
            auc: m.auc,
            accuracy: m.accuracy,
            recall_fake: m.recall,
        });
    }

    // The shape check, asserted: the ledger-only signals (provenance +
    // author history, no content) reach AUC 0.9 and beat each part alone;
    // all features together are near-perfect and the best set.
    let auc = |name: &str| {
        rows.iter()
            .find(|r| r.feature_set == name)
            .map_or(f64::NAN, |r| r.auc)
    };
    let (provenance, history, ledger, all) = (
        auc("provenance only"),
        auc("author history only"),
        auc("provenance + history"),
        auc("all features"),
    );
    let best = rows.iter().all(|r| r.auc <= all);
    assert!(
        ledger >= 0.9 && ledger > provenance && ledger > history && all >= 0.95 && best,
        "shape check failed: provenance + history AUC {ledger:.3} (provenance {provenance:.3}, \
         history {history:.3}), all features {all:.3}, best of every set {best}"
    );

    exp.report("E11", "publication-time fake prediction", &rows);
    println!(
        "\nshape check: fake news is predictable AT PUBLICATION, before any propagation or \
         dispute. Content style is a strong signal against overt fakes; provenance structure \
         plus the author's on-ledger history match it WITHOUT reading the content at all \
         (signals only a blockchain platform has, and ones that survive the camouflage \
         regime where style fails — see E3); the combination is near-perfect. This is the \
         §VII future-work item made concrete: the platform can rank-suppress a likely-fake \
         story from its first second, feeding E5's ranking-suppression intervention."
    );
}
