//! Synthetic news supply-chain workload generator with ground truth.
//!
//! Real propagation traces (the paper's Twitter-election datasets) are not
//! shippable, so experiments run on generated supply chains whose
//! statistics follow the paper's citations: most fake news derives from
//! modified factual articles with emotionally loaded insertions, a
//! minority is fabricated from nothing, and honest accounts mostly relay
//! or lightly edit. Every generated item carries ground truth (fake or
//! factual, and the originating account), which is what the E3 ranking and
//! E9 accountability experiments score against.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tn_crypto::{Address, Hash256, Keypair};
use tn_factdb::corpus::{generate_corpus, CorpusConfig};

use crate::graph::SupplyChainGraph;
use crate::ops::{apply, PropagationOp};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of factual-database roots to seed.
    pub n_fact_roots: usize,
    /// Honest accounts (relay / cite / lightly edit).
    pub n_honest: usize,
    /// Fake-news accounts (fabricate or distort).
    pub n_fakers: usize,
    /// News items to generate on top of the roots.
    pub n_items: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_fact_roots: 40,
            n_honest: 20,
            n_fakers: 5,
            n_items: 300,
            seed: 42,
        }
    }
}

/// Probability a faker fabricates from nothing instead of distorting an
/// existing item (the paper's citation says ~72 % of fakes are *modified*
/// factual news, hence 0.28).
const FABRICATE_PROB: f64 = 0.28;
/// Probability an honest item derives from an existing item rather than
/// citing a fact root directly.
const DEEP_PROPAGATION_PROB: f64 = 0.6;

/// Ground truth for one generated item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemTruth {
    /// True when the content is fake (fabricated, distorted, or derived
    /// from fake content).
    pub is_fake: bool,
    /// The account where the content originated (the fabricator for fakes).
    pub origin: Address,
    /// Hops from the item's initial publication (0 = the origin post).
    pub generation: usize,
}

/// Output of the generator.
#[derive(Debug)]
pub struct SynthChain {
    /// The populated supply-chain graph.
    pub graph: SupplyChainGraph,
    /// Ground truth per generated item id.
    pub truth: HashMap<Hash256, ItemTruth>,
    /// Honest account addresses.
    pub honest: Vec<Address>,
}

const FABRICATED_TEMPLATES: [&str; 6] = [
    "Leaked dossier proves the election computers were rigged by insiders. Share before deletion.",
    "Secret memo shows the vaccine program is a massive cover-up. Anonymous officials confirm everything.",
    "Hidden camera captures the minister taking suitcases of cash. The media refuses to report it.",
    "Whistleblower reveals the climate data was fabricated in a basement. Nobody will be punished.",
    "Underground network controls all the banks, insiders warn. The collapse is scheduled for next month.",
    "Foreign agents wrote the new education law, leaked chats suggest. Teachers are being silenced.",
];

/// Generates a supply chain per `config`.
///
/// # Panics
///
/// Panics if any population parameter is zero.
pub fn generate(config: &SynthConfig) -> SynthChain {
    assert!(config.n_fact_roots > 0, "need fact roots");
    assert!(config.n_honest > 0, "need honest accounts");
    assert!(config.n_fakers > 0, "need faker accounts");
    let mut rng = StdRng::seed_from_u64(config.seed);

    let honest: Vec<Address> = (0..config.n_honest)
        .map(|i| Keypair::from_seed(format!("honest-{i}-{}", config.seed).as_bytes()).address())
        .collect();
    let fakers: Vec<Address> = (0..config.n_fakers)
        .map(|i| Keypair::from_seed(format!("faker-{i}-{}", config.seed).as_bytes()).address())
        .collect();

    let mut graph = SupplyChainGraph::new();
    let corpus = generate_corpus(&CorpusConfig {
        size: config.n_fact_roots,
        seed: config.seed ^ 0x5eed,
        start_time: 0,
    });
    let mut roots = Vec::with_capacity(corpus.len());
    for rec in &corpus {
        let id = rec.id();
        graph
            .add_fact_root(id, &rec.content, &rec.topic, rec.recorded_at)
            .unwrap();
        roots.push(id);
    }

    let mut truth: HashMap<Hash256, ItemTruth> = HashMap::new();
    // Track (id, topic) of generated items for parent selection.
    let mut generated: Vec<Hash256> = Vec::new();

    for i in 0..config.n_items {
        let t = config.n_fact_roots as u64 + i as u64 + 1;
        let faker_turn =
            rng.gen_bool(config.n_fakers as f64 / (config.n_fakers + config.n_honest) as f64);
        let (id, item_truth) = if faker_turn {
            let author = *fakers.choose(&mut rng).expect("nonempty");
            if rng.gen_bool(FABRICATE_PROB) || generated.is_empty() && roots.is_empty() {
                // Fabricated from nothing: no parents at all.
                let template = FABRICATED_TEMPLATES.choose(&mut rng).expect("nonempty");
                let content = format!("{template} Report {i}.");
                let topic = corpus.choose(&mut rng).expect("nonempty").topic.clone();
                let id = graph
                    .insert(author, &content, &topic, 1, vec![], t)
                    .unwrap();
                (
                    id,
                    ItemTruth {
                        is_fake: true,
                        origin: author,
                        generation: 0,
                    },
                )
            } else {
                // Distortion of an existing item or root (the 72 % case).
                let (pid, parent_fake, parent_gen) =
                    pick_parent(&graph, &truth, &roots, &generated, 0.5, &mut rng);
                let parent = graph.get(&pid).expect("parent exists");
                let content = apply(PropagationOp::Insert, &[&parent.content], true, &mut rng);
                let topic = parent.topic.clone();
                let id = graph
                    .insert(
                        author,
                        &content,
                        &topic,
                        1,
                        vec![(pid, PropagationOp::Insert)],
                        t,
                    )
                    .unwrap();
                let origin = if parent_fake {
                    truth.get(&pid).map(|tr| tr.origin).unwrap_or(author)
                } else {
                    author
                };
                (
                    id,
                    ItemTruth {
                        is_fake: true,
                        origin,
                        generation: parent_gen + 1,
                    },
                )
            }
        } else {
            let author = *honest.choose(&mut rng).expect("nonempty");
            let deep = rng.gen_bool(DEEP_PROPAGATION_PROB) && !generated.is_empty();
            let (pid, parent_fake, parent_gen) = if deep {
                pick_parent(&graph, &truth, &roots, &generated, 0.9, &mut rng)
            } else {
                let r = *roots.choose(&mut rng).expect("nonempty");
                (r, false, 0)
            };
            let parent = graph.get(&pid).expect("parent exists");
            let op = *[
                PropagationOp::Relay,
                PropagationOp::Relay,
                PropagationOp::Cite,
                PropagationOp::Split,
                PropagationOp::Insert,
            ]
            .choose(&mut rng)
            .expect("nonempty");
            let content = apply(op, &[&parent.content], false, &mut rng);
            let topic = parent.topic.clone();
            let id = graph
                .insert(author, &content, &topic, 1, vec![(pid, op)], t)
                .unwrap();
            let origin = truth.get(&pid).map(|tr| tr.origin).unwrap_or(author);
            // Honest relays of fake content keep the content fake.
            (
                id,
                ItemTruth {
                    is_fake: parent_fake,
                    origin,
                    generation: parent_gen + 1,
                },
            )
        };
        truth.insert(id, item_truth);
        generated.push(id);
    }

    SynthChain {
        graph,
        truth,
        honest,
    }
}

/// Picks a parent: with probability `prefer_generated` an already-generated
/// item (recency-biased), otherwise a fact root. Returns `(id, is_fake,
/// generation)`.
fn pick_parent<R: Rng>(
    _graph: &SupplyChainGraph,
    truth: &HashMap<Hash256, ItemTruth>,
    roots: &[Hash256],
    generated: &[Hash256],
    prefer_generated: f64,
    rng: &mut R,
) -> (Hash256, bool, usize) {
    if !generated.is_empty() && rng.gen_bool(prefer_generated) {
        // Recency bias: sample from the last half.
        let lo = generated.len() / 2;
        let idx = rng.gen_range(lo..generated.len());
        let id = generated[idx];
        let t = &truth[&id];
        (id, t.is_fake, t.generation)
    } else {
        (*roots.choose(rng).expect("roots nonempty"), false, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_count(s: &SynthChain) -> usize {
        s.truth.values().filter(|t| t.is_fake).count()
    }

    fn small() -> SynthConfig {
        SynthConfig {
            n_fact_roots: 10,
            n_honest: 5,
            n_fakers: 2,
            n_items: 80,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(fake_count(&a), fake_count(&b));
        let ids_a: Vec<_> = a.graph.iter().map(|i| i.id).collect();
        let ids_b: Vec<_> = b.graph.iter().map(|i| i.id).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn populations_and_counts() {
        let s = generate(&small());
        assert_eq!(s.graph.len(), 10 + 80);
        assert_eq!(s.graph.root_count(), 10);
        assert_eq!(s.truth.len(), 80);
        assert!(fake_count(&s) > 0, "some fakes expected");
        assert!(fake_count(&s) < 80, "not everything should be fake");
    }

    #[test]
    fn fakes_mostly_derive_from_modified_factual() {
        // Matching the cited statistic: most fakes have parents (modified
        // factual news), a minority are fabricated (no parents).
        let cfg = SynthConfig {
            n_items: 400,
            ..SynthConfig::default()
        };
        let s = generate(&cfg);
        let fakes: Vec<_> = s
            .truth
            .iter()
            .filter(|(_, t)| t.is_fake && t.generation == 0)
            .map(|(id, _)| *id)
            .collect();
        let fabricated = fakes
            .iter()
            .filter(|id| s.graph.get(id).unwrap().parents.is_empty())
            .count();
        assert_eq!(
            fabricated,
            fakes.len(),
            "generation-0 fakes are exactly the fabricated ones"
        );
        let all_fake_origins = s.truth.values().filter(|t| t.is_fake).count();
        assert!(
            fabricated * 2 < all_fake_origins,
            "fabricated ({fabricated}) should be a minority of fakes ({all_fake_origins})"
        );
    }

    #[test]
    fn trace_scores_separate_fake_from_factual() {
        // The headline E3 property, verified in-miniature: average trace
        // score of factual items exceeds that of fake items.
        let s = generate(&SynthConfig {
            n_items: 250,
            ..SynthConfig::default()
        });
        let mut fake_scores = Vec::new();
        let mut fact_scores = Vec::new();
        for (id, trace) in s.graph.trace_all() {
            let Some(t) = s.truth.get(&id) else { continue };
            let score = crate::ranking::trace_score(&trace);
            if t.is_fake {
                fake_scores.push(score);
            } else {
                fact_scores.push(score);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&fact_scores) > mean(&fake_scores) + 0.15,
            "separation too small: factual {:.3} vs fake {:.3}",
            mean(&fact_scores),
            mean(&fake_scores)
        );
    }

    #[test]
    fn origin_attribution_matches_graph_walk() {
        let s = generate(&small());
        // For fabricated fakes (generation 0), the graph's origin_author
        // must recover the ground-truth fabricator.
        let mut checked = 0;
        for (id, t) in &s.truth {
            if t.is_fake && t.generation == 0 {
                let found = s.graph.origin_author(id).unwrap();
                assert_eq!(found, Some(t.origin), "origin mismatch for {}", id.short());
                checked += 1;
            }
        }
        assert!(checked > 0, "expected at least one fabricated item");
    }

    #[test]
    #[should_panic(expected = "need fact roots")]
    fn zero_roots_panics() {
        generate(&SynthConfig {
            n_fact_roots: 0,
            ..SynthConfig::default()
        });
    }
}
