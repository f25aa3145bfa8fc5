//! E3 — Trace-back ranking quality: how well the provenance signal (trace
//! distance × modification degree) separates fake from factual content,
//! alone and combined with the AI content score.
//!
//! Paper anchor: §VI — "the trace distance of graph from its root … and
//! the degree of the modifications … can then be used to rank the
//! factualness of the news."
//!
//! Run: `cargo run -p tn-bench --release --bin exp3_traceback_ranking`
//! (`--quick` runs the same chain, asserts the shape check and writes no
//! artifact).

use std::collections::HashSet;

use serde::Serialize;
use tn_aidetect::metrics::roc_auc;
use tn_bench::scenarios::ProvenanceSignals;
use tn_bench::Experiment;
use tn_crypto::Hash256;
use tn_supplychain::ranking::{precision_at_k, spearman, trace_score};

#[derive(Debug, Serialize)]
struct Row {
    signal: &'static str,
    auc_fake_detection: f64,
    spearman_vs_truth: f64,
    precision_at_25_fake: f64,
}

#[derive(Debug, Serialize)]
struct GenerationRow {
    generation: usize,
    items: usize,
    mean_score: f64,
}

/// Scores one factualness signal over `ids`: low score should mean fake,
/// so `1 - score` is fed as "probability fake" to the ROC and to
/// precision@25 for catching fakes when sorting ascending by score.
fn evaluate(name: &'static str, ids: &[Hash256], is_fake: &[bool], scores: &[f64]) -> Row {
    let preds: Vec<(bool, f64)> = scores
        .iter()
        .zip(is_fake)
        .map(|(s, f)| (*f, 1.0 - s))
        .collect();
    let scored: Vec<(Hash256, f64)> = ids
        .iter()
        .zip(scores)
        .map(|(id, s)| (*id, 1.0 - s))
        .collect();
    let fake_set: HashSet<Hash256> = ids
        .iter()
        .zip(is_fake)
        .filter(|(_, f)| **f)
        .map(|(id, _)| *id)
        .collect();
    let truth: Vec<f64> = is_fake.iter().map(|f| if *f { 0.0 } else { 1.0 }).collect();
    Row {
        signal: name,
        auc_fake_detection: roc_auc(&preds),
        spearman_vs_truth: spearman(scores, &truth),
        precision_at_25_fake: precision_at_k(&scored, &fake_set, 25),
    }
}

fn main() {
    let exp = Experiment::start("E3", "provenance-based factualness ranking quality");
    let ProvenanceSignals {
        synth,
        traces,
        ids,
        is_fake,
        trace_scores,
        ai_scores,
        text_clean,
    } = ProvenanceSignals::collect();
    let combined: Vec<f64> = trace_scores
        .iter()
        .zip(&ai_scores)
        .map(|(t, a)| 0.7 * t + 0.3 * a)
        .collect();

    let mut rows = vec![
        evaluate("trace only", &ids, &is_fake, &trace_scores),
        evaluate("ai only", &ids, &is_fake, &ai_scores),
        evaluate("combined (0.7/0.3)", &ids, &is_fake, &combined),
    ];

    // Camouflage stress test: restrict to factual items plus the fakes
    // whose *text* looks clean (honest accounts relaying fake-lineage
    // content verbatim, or lightly split copies). On this subset the AI
    // has little to work with and provenance carries the detection.
    let subset: Vec<usize> = (0..ids.len())
        .filter(|&i| !is_fake[i] || text_clean[i])
        .collect();
    let camou_fakes = subset.iter().filter(|&&i| is_fake[i]).count();
    if camou_fakes >= 10 {
        let sub_ids: Vec<Hash256> = subset.iter().map(|&i| ids[i]).collect();
        let sub_fake: Vec<bool> = subset.iter().map(|&i| is_fake[i]).collect();
        let sub = |v: &[f64]| -> Vec<f64> { subset.iter().map(|&i| v[i]).collect() };
        println!("(camouflage subset: {camou_fakes} text-clean fakes)\n");
        for (name, scores) in [
            ("trace only (camouflaged)", &trace_scores),
            ("ai only (camouflaged)", &ai_scores),
            ("combined (camouflaged)", &combined),
        ] {
            rows.push(evaluate(name, &sub_ids, &sub_fake, &sub(scores)));
        }
    }

    exp.report("E3", "trace-back ranking quality", &rows);

    // Distance/modification profile.
    let mut by_gen: Vec<(usize, Vec<f64>)> = Vec::new();
    for (id, trace) in &traces {
        if let Some(t) = synth.truth.get(id) {
            let gen = t.generation.min(5);
            if by_gen.iter().all(|(g, _)| *g != gen) {
                by_gen.push((gen, Vec::new()));
            }
            by_gen
                .iter_mut()
                .find(|(g, _)| *g == gen)
                .expect("inserted")
                .1
                .push(trace_score(trace));
        }
    }
    by_gen.sort_by_key(|(g, _)| *g);
    println!("\ntrace score by propagation generation (decay with distance):");
    let generations: Vec<GenerationRow> = by_gen
        .iter()
        .map(|(generation, scores)| GenerationRow {
            generation: *generation,
            items: scores.len(),
            mean_score: scores.iter().sum::<f64>() / scores.len() as f64,
        })
        .collect();
    exp.table(&generations);

    // The shape check, asserted: the AI signal is strong on the full mix;
    // on the camouflaged subset it falls toward chance while provenance
    // keeps detecting; trace scores fall with every generation after the
    // first.
    let auc = |name: &str| {
        rows.iter()
            .find(|r| r.signal == name)
            .map_or(f64::NAN, |r| r.auc_fake_detection)
    };
    let (ai, trace_camo, ai_camo) = (
        auc("ai only"),
        auc("trace only (camouflaged)"),
        auc("ai only (camouflaged)"),
    );
    let decays = generations[1..]
        .windows(2)
        .all(|w| w[1].mean_score < w[0].mean_score);
    assert!(
        ai >= 0.9 && trace_camo >= 0.9 && ai_camo < 0.75 && decays,
        "shape check failed: AI AUC {ai:.3} (>= 0.9), camouflaged trace AUC {trace_camo:.3} \
         (>= 0.9) vs AI {ai_camo:.3} (< 0.75), trace score decays by generation {decays}"
    );

    println!(
        "\nshape check: on the full mix the AI content signal is strong (the synthetic fakes \
         carry emotional markers) and the combination matches it; on the camouflaged subset \
         — fake-lineage content relayed with clean text — the AI signal collapses toward \
         chance while provenance keeps detecting it. That asymmetry is the paper's argument \
         for integrating blockchain provenance WITH AI rather than relying on either alone. \
         Trace scores also decay monotonically with propagation generation (distance)."
    );
}
