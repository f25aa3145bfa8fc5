//! Differential oracle for the provenance reads of [`SupplyChainGraph`]:
//! `trace_back`, `trace_all`, `distortion_culprit`, `origin_author`,
//! `score_experts` / `experts_for_topic` and the stored summaries
//! `summaries()` scores items by, against their definitions, recomputed
//! from nothing but `iter()` / `get()`.
//!
//! The reference ([`reference_trace`]) is the memoised recursion the graph
//! answered with before answers were stored on the nodes, kept here word
//! for word: it walks parents in edge order, multiplies `parent.score ×
//! (1 − modification).max(0)`, and replaces the running best on a strictly
//! larger score, on the first reachable parent, or on an equal score
//! (within 1e-15) with a strictly shorter distance. Every `f64` is
//! compared by `to_bits`, so an operand swapped or a sum re-associated
//! fails here even where the printed value would not move.
//!
//! Written and passing before the stored summaries existed. Sabotages it
//! fails under (each checked by hand against the summary code):
//!
//! - the tie rule's `distance < best.distance` turned into `<=` (a later
//!   parent of equal score and equal distance takes the path);
//! - the culprit tie going to the parent-side hop (`m > hop` → `m >= hop`
//!   where a node compares the worst hop inherited from its best parent
//!   with its own), so the oldest of several equal modifications is
//!   blamed;
//! - expertise tallies summed out of insertion order (`from_bytes`
//!   rebuilding them from the newest item backwards): `Σ trace_score`
//!   re-associates and moves in the last bits.
//!
//! Graphs come from two generators, because the two ways into the graph
//! compute modifications differently: `insert` measures them from the
//! texts (verbatim copies give 0, unrelated text gives 1 — a rooted path
//! of score 0 — and copies of one parent give equal values), and
//! `from_bytes` restores whatever the blob recorded, which lets the
//! generator force 0, 1, repeated values and a parent named twice with
//! two different modifications.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tn_chain::codec::Encoder;
use tn_crypto::sha256::sha256;
use tn_crypto::{Address, Hash256, Keypair};
use tn_supplychain::expert::{experts_for_topic, score_experts, ExpertScore};
use tn_supplychain::graph::{SupplyChainGraph, TraceResult};
use tn_supplychain::ranking::summary_score;
use tn_supplychain::PropagationOp;

// --- the definitions ------------------------------------------------------

type Memo = HashMap<Hash256, TraceResult>;

/// The best path of `id` by definition (see the module docs).
fn reference_trace(g: &SupplyChainGraph, id: Hash256, memo: &mut Memo) -> TraceResult {
    if let Some(cached) = memo.get(&id) {
        return cached.clone();
    }
    let item = g.get(&id).expect("edges name known nodes");
    let result = if item.is_fact_root {
        TraceResult {
            reaches_root: true,
            score: 1.0,
            distance: Some(0),
            path: vec![id],
            cumulative_modification: 0.0,
        }
    } else {
        let mut best = TraceResult {
            reaches_root: false,
            score: 0.0,
            distance: None,
            path: Vec::new(),
            cumulative_modification: 0.0,
        };
        for pref in &item.parents {
            let parent = reference_trace(g, pref.id, memo);
            if !parent.reaches_root {
                continue;
            }
            let retention = (1.0 - pref.modification).max(0.0);
            let score = parent.score * retention;
            let better = score > best.score
                || !best.reaches_root
                || ((score - best.score).abs() < 1e-15
                    && parent.distance.map(|d| d + 1) < best.distance);
            if better {
                let mut path = vec![id];
                path.extend_from_slice(&parent.path);
                best = TraceResult {
                    reaches_root: true,
                    score,
                    distance: parent.distance.map(|d| d + 1),
                    path,
                    cumulative_modification: parent.cumulative_modification + pref.modification,
                };
            }
        }
        best
    };
    memo.insert(id, result.clone());
    result
}

/// The largest-modification hop of the best path at or above
/// `threshold`, blaming the child of the hop; of equal hops the one
/// nearest the item. A hop's modification is that of the child's first
/// edge naming the next node of the path.
fn reference_culprit(
    g: &SupplyChainGraph,
    trace: &TraceResult,
    threshold: f64,
) -> Option<(Address, f64)> {
    let mut worst: Option<(Address, f64)> = None;
    for w in trace.path.windows(2) {
        let child = g.get(&w[0]).expect("path node");
        let edge = child
            .parents
            .iter()
            .find(|p| p.id == w[1])
            .expect("path follows edges");
        if edge.modification >= threshold && worst.is_none_or(|(_, m)| edge.modification > m) {
            worst = Some((child.author, edge.modification));
        }
    }
    worst
}

/// The author of the node before the root on the best path; for an item
/// that reaches no root, of the unsourced item its first-parent chain
/// ends at; `None` for a root.
fn reference_origin(g: &SupplyChainGraph, id: Hash256, trace: &TraceResult) -> Option<Address> {
    if trace.reaches_root {
        let n = trace.path.len();
        return (n >= 2).then(|| g.get(&trace.path[n - 2]).expect("path node").author);
    }
    let mut item = g.get(&id).expect("known");
    while let Some(first) = item.parents.first() {
        item = g.get(&first.id).expect("edges name known nodes");
    }
    Some(item.author)
}

fn clamped(trace: &TraceResult) -> f64 {
    if trace.reaches_root {
        trace.score.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Expertise rows by definition: one pass over the items in insertion
/// order, so every `Σ trace_score` adds in that order.
fn reference_experts(g: &SupplyChainGraph, memo: &mut Memo) -> Vec<ExpertScore> {
    let mut rows: Vec<ExpertScore> = Vec::new();
    for item in g.iter().filter(|i| !i.is_fact_root) {
        let trace = reference_trace(g, item.id, memo);
        let at = rows
            .iter()
            .position(|r| r.author == item.author && r.topic == item.topic)
            .unwrap_or_else(|| {
                rows.push(ExpertScore {
                    author: item.author,
                    topic: item.topic.clone(),
                    items: 0,
                    rooted_items: 0,
                    score: 0.0,
                });
                rows.len() - 1
            });
        rows[at].items += 1;
        rows[at].rooted_items += usize::from(trace.reaches_root);
        rows[at].score += clamped(&trace);
    }
    rows
}

/// Score descending, then author — the order `score_experts` promises.
/// Two topics of one author with equal scores tie under it, so whole
/// lists are compared after [`canonical`] and the promised order is
/// checked on its own.
fn expert_order(a: &ExpertScore, b: &ExpertScore) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("scores are finite")
        .then_with(|| a.author.cmp(&b.author))
}

fn canonical(mut rows: Vec<ExpertScore>) -> Vec<(Address, String, usize, usize, u64)> {
    rows.sort_by(|a, b| expert_order(a, b).then_with(|| a.topic.cmp(&b.topic)));
    rows.into_iter()
        .map(|r| {
            (
                r.author,
                r.topic,
                r.items,
                r.rooted_items,
                r.score.to_bits(),
            )
        })
        .collect()
}

// --- the comparison -------------------------------------------------------

const THRESHOLDS: [f64; 4] = [0.0, 0.1, 0.5, 1.0];
const TOPICS: [&str; 3] = ["energy", "health", "transit"];

fn fail(msg: String) -> TestCaseError {
    TestCaseError::Fail(msg)
}

/// Every read of `g` against its definition.
fn check_against_definitions(g: &SupplyChainGraph) -> Result<(), TestCaseError> {
    let mut memo = Memo::new();
    let all = g.trace_all();
    let non_roots: Vec<Hash256> = g.iter().filter(|i| !i.is_fact_root).map(|i| i.id).collect();
    prop_assert_eq!(
        all.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        non_roots.clone()
    );
    let all: HashMap<Hash256, TraceResult> = all.into_iter().collect();

    for item in g.iter() {
        let id = item.id;
        let want = reference_trace(g, id, &mut memo);
        let got = g.trace_back(&id).map_err(|e| fail(e.to_string()))?;
        prop_assert_eq!(got.reaches_root, want.reaches_root);
        prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
        prop_assert_eq!(
            got.cumulative_modification.to_bits(),
            want.cumulative_modification.to_bits()
        );
        prop_assert_eq!(got.distance, want.distance);
        prop_assert_eq!(&got.path, &want.path);
        if !item.is_fact_root {
            prop_assert_eq!(&all[&id], &got);
        }
        for t in THRESHOLDS {
            let want_culprit = reference_culprit(g, &want, t);
            let got_culprit = g
                .distortion_culprit(&id, t)
                .map_err(|e| fail(e.to_string()))?;
            prop_assert_eq!(
                got_culprit.map(|(a, m)| (a, m.to_bits())),
                want_culprit.map(|(a, m)| (a, m.to_bits()))
            );
        }
        prop_assert_eq!(
            g.origin_author(&id).map_err(|e| fail(e.to_string()))?,
            reference_origin(g, id, &want)
        );
    }

    let want_rows = reference_experts(g, &mut memo);
    let got_rows = score_experts(g);
    prop_assert!(
        got_rows
            .windows(2)
            .all(|w| expert_order(&w[0], &w[1]) != std::cmp::Ordering::Greater),
        "score_experts out of order"
    );
    prop_assert_eq!(canonical(got_rows), canonical(want_rows.clone()));
    for topic in TOPICS.iter().copied().chain(["no such topic"]) {
        // Within one topic authors are distinct, so the order is total.
        let mut want_topic: Vec<ExpertScore> = want_rows
            .iter()
            .filter(|r| r.topic == topic)
            .cloned()
            .collect();
        want_topic.sort_by(expert_order);
        for k in [0, 1, 2, usize::MAX] {
            let got = experts_for_topic(g, topic, k);
            prop_assert_eq!(got.len(), want_topic.len().min(k));
            for (got, want) in got.iter().zip(&want_topic) {
                prop_assert_eq!(got.author, want.author);
                prop_assert_eq!(&got.topic, &want.topic);
                prop_assert_eq!(
                    (got.items, got.rooted_items),
                    (want.items, want.rooted_items)
                );
                prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            }
        }
    }

    let scored: Vec<_> = g
        .summaries()
        .filter(|(item, _)| !item.is_fact_root)
        .collect();
    prop_assert_eq!(
        scored.iter().map(|(item, _)| item.id).collect::<Vec<_>>(),
        non_roots
    );
    for (item, summary) in scored {
        let trace = reference_trace(g, item.id, &mut memo);
        prop_assert_eq!(summary_score(summary).to_bits(), clamped(&trace).to_bits());
        prop_assert_eq!(summary.reaches_root, trace.reaches_root);
    }
    Ok(())
}

// --- generators -----------------------------------------------------------

/// SplitMix64: one `u64` from the strategy seeds a whole graph.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn author(i: usize) -> Address {
    Keypair::from_seed(&[b'a', i as u8]).address()
}

const OPS: [PropagationOp; 6] = [
    PropagationOp::Relay,
    PropagationOp::Cite,
    PropagationOp::Mix,
    PropagationOp::Split,
    PropagationOp::Merge,
    PropagationOp::Insert,
];

/// 0–3 earlier nodes, the second draw repeating the first one time in
/// four.
fn draw_parents(rng: &mut Rng, earlier: usize) -> Vec<usize> {
    if earlier == 0 {
        return Vec::new();
    }
    let mut parents: Vec<usize> = Vec::new();
    for _ in 0..rng.below(4) {
        match parents.first() {
            Some(&first) if rng.below(4) == 0 => parents.push(first),
            _ => parents.push(rng.below(earlier)),
        }
    }
    parents
}

const SENTENCES: [&str; 4] = [
    "The committee approved the solar subsidy amendment after a long debate.",
    "Hospital staffing levels rose for the third quarter running.",
    "Insiders warn this is a shocking corrupt cover-up of historic scale.",
    "The new tram line opens to passengers early next spring.",
];

/// A graph built through `add_fact_root` / `insert`: modifications are
/// measured from the texts.
fn inserted_graph(seed: u64, n: usize) -> SupplyChainGraph {
    let mut rng = Rng(seed);
    let mut g = SupplyChainGraph::new();
    let mut nodes: Vec<(Hash256, String)> = Vec::new();
    for i in 0..n {
        let topic = TOPICS[rng.below(TOPICS.len())];
        if rng.below(5) == 0 {
            let id = sha256(format!("root {i}").as_bytes());
            let content = format!("{} Docket {i}.", SENTENCES[rng.below(SENTENCES.len())]);
            g.add_fact_root(id, &content, topic, i as u64)
                .expect("fresh id");
            nodes.push((id, content));
            continue;
        }
        let parents = draw_parents(&mut rng, nodes.len());
        let content = match (parents.first(), rng.below(4)) {
            // Unrelated text: modification 1 on every edge.
            (None, _) | (_, 0) => format!("fresh{i} words{i} that{i} share{i} nothing{i}"),
            // Verbatim: modification 0 on that edge, and equal values on
            // edges to other copies of the same text.
            (Some(&p), 1) => nodes[p].1.clone(),
            (Some(&p), _) => format!("{} {}", nodes[p].1, SENTENCES[rng.below(SENTENCES.len())]),
        };
        let edges = parents
            .iter()
            .map(|&p| (nodes[p].0, OPS[rng.below(OPS.len())]))
            .collect();
        let id = g
            .insert(author(rng.below(3)), &content, topic, 1, edges, i as u64)
            .expect("fresh id, known parents");
        nodes.push((id, content));
    }
    g
}

const FORCED: [f64; 6] = [0.0, 1.0, 0.25, 0.25, 0.5, 0.1];

/// A checkpoint blob written by hand, so modifications are whatever the
/// generator says: forced 0 / 1 / repeated values half of the time.
fn restored_graph(seed: u64, n: usize) -> SupplyChainGraph {
    let mut rng = Rng(seed);
    let mut e = Encoder::new();
    e.put_varint(n as u64);
    let id_of = |i: usize| sha256(format!("node {i}").as_bytes());
    for i in 0..n {
        let is_root = rng.below(5) == 0;
        e.put_hash(&id_of(i))
            .put_hash(author(rng.below(3)).as_hash())
            .put_str(&format!("text {i}"))
            .put_str(TOPICS[rng.below(TOPICS.len())])
            .put_u64(1)
            .put_u64(i as u64)
            .put_bool(is_root);
        let parents = if is_root {
            Vec::new()
        } else {
            draw_parents(&mut rng, i)
        };
        e.put_varint(parents.len() as u64);
        for p in parents {
            let modification = if rng.below(2) == 0 {
                FORCED[rng.below(FORCED.len())]
            } else {
                (rng.next() >> 11) as f64 / (1u64 << 53) as f64
            };
            e.put_hash(&id_of(p))
                .put_u8(OPS[rng.below(OPS.len())].tag())
                .put_u64(modification.to_bits());
        }
    }
    SupplyChainGraph::from_bytes(&e.finish()).expect("well-formed blob")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn inserted_graphs_answer_by_definition(seed in any::<u64>(), n in 0usize..48) {
        let g = inserted_graph(seed, n);
        check_against_definitions(&g)?;
        // Summaries are not serialised: a restored graph rebuilds them and
        // must answer the same, byte for byte.
        let restored = SupplyChainGraph::from_bytes(&g.to_bytes()).map_err(fail)?;
        prop_assert_eq!(restored.digest(), g.digest());
        prop_assert_eq!(restored.to_bytes(), g.to_bytes());
        check_against_definitions(&restored)?;
        prop_assert_eq!(restored.trace_all(), g.trace_all());
        prop_assert_eq!(score_experts(&restored), score_experts(&g));
    }

    #[test]
    fn restored_graphs_answer_by_definition(seed in any::<u64>(), n in 0usize..48) {
        check_against_definitions(&restored_graph(seed, n))?;
    }
}

/// The generators do produce what the module docs say they do.
#[test]
fn generators_cover_ties_zero_scores_and_repeated_parents() {
    let (mut zero_rooted, mut unrooted, mut repeated, mut tied, mut multi) = (0, 0, 0, 0, 0);
    for seed in 0..64u64 {
        for g in [inserted_graph(seed, 40), restored_graph(seed, 40)] {
            for item in g.iter().filter(|i| !i.is_fact_root) {
                let trace = g.trace_back(&item.id).unwrap();
                zero_rooted += usize::from(trace.reaches_root && trace.score == 0.0);
                unrooted += usize::from(!trace.reaches_root);
                multi += usize::from(item.parents.len() > 1);
                let ids: Vec<_> = item.parents.iter().map(|p| p.id).collect();
                repeated += usize::from((1..ids.len()).any(|i| ids[..i].contains(&ids[i])));
                let mods: Vec<_> = item.parents.iter().map(|p| p.modification).collect();
                tied += usize::from((1..mods.len()).any(|i| mods[..i].contains(&mods[i])));
            }
        }
    }
    for (name, n) in [
        ("zero-score rooted", zero_rooted),
        ("unrooted", unrooted),
        ("repeated parent", repeated),
        ("equal modifications", tied),
        ("several parents", multi),
    ] {
        assert!(n >= 50, "{name}: only {n} cases generated");
    }
}

/// A relay chain deep enough that the reference needs its own stack: the
/// definition and the graph agree hop for hop far beyond proptest sizes.
#[test]
fn deep_chain_answers_by_definition() {
    let worker = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let mut g = SupplyChainGraph::new();
            let root = sha256(b"deep root");
            let text = SENTENCES[0];
            g.add_fact_root(root, text, TOPICS[0], 0).unwrap();
            let mut tip = root;
            for i in 0..1_500u64 {
                // Every 100th hop appends a sentence: a handful of
                // non-zero modifications along an otherwise verbatim chain.
                let content = format!("{text}{}", " More follows.".repeat((i / 100) as usize));
                tip = g
                    .insert(
                        author((i % 3) as usize),
                        &content,
                        TOPICS[0],
                        1,
                        vec![(tip, PropagationOp::Relay)],
                        i + 1,
                    )
                    .unwrap();
            }
            let mut memo = Memo::new();
            let want = reference_trace(&g, tip, &mut memo);
            let got = g.trace_back(&tip).unwrap();
            assert_eq!(got, want);
            assert_eq!(got.score.to_bits(), want.score.to_bits());
            assert_eq!(got.distance, Some(1_500));
            for t in THRESHOLDS {
                assert_eq!(
                    g.distortion_culprit(&tip, t).unwrap(),
                    reference_culprit(&g, &want, t)
                );
            }
            assert_eq!(
                g.origin_author(&tip).unwrap(),
                reference_origin(&g, tip, &want)
            );
        })
        .expect("spawn");
    worker.join().expect("deep chain worker");
}

// --- pinned bytes ---------------------------------------------------------

fn hex(h: &Hash256) -> String {
    h.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// Stored answers are derived data: the digest and the checkpoint bytes
/// of a fixed five-node graph are what they were before nodes carried
/// them.
#[test]
fn five_node_graph_digest_and_bytes_are_pinned() {
    let mut g = SupplyChainGraph::new();
    let root = sha256(b"pinned root");
    let fact = SENTENCES[0];
    g.add_fact_root(root, fact, "energy", 7).unwrap();
    let a = g
        .insert(
            author(0),
            fact,
            "energy",
            1,
            vec![(root, PropagationOp::Cite)],
            10,
        )
        .unwrap();
    let b = g
        .insert(
            author(1),
            &format!("{fact} {}", SENTENCES[2]),
            "energy",
            2,
            vec![(a, PropagationOp::Insert)],
            11,
        )
        .unwrap();
    g.insert(
        author(2),
        &format!("{fact} {}", SENTENCES[1]),
        "health",
        2,
        vec![(a, PropagationOp::Merge), (b, PropagationOp::Merge)],
        12,
    )
    .unwrap();
    g.insert(author(2), SENTENCES[3], "transit", 3, vec![], 13)
        .unwrap();

    let bytes = g.to_bytes();
    assert_eq!(
        (hex(&g.digest()), bytes.len(), hex(&sha256(&bytes))),
        (
            PINNED_DIGEST.to_string(),
            PINNED_LEN,
            PINNED_BYTES_SHA256.to_string()
        )
    );
}

const PINNED_DIGEST: &str = "7f85fa64988156ef804bd558d999d190dd56aac57610018eabc6215f4e60b69a";
const PINNED_LEN: usize = 1088;
const PINNED_BYTES_SHA256: &str =
    "fd68e9d52e24cd1c5d73daff2d1c92d330a6886d51307d9c765af59e67f8ccf5";
