//! Supply-chain benchmarks: graph construction, full-graph trace-back,
//! single-item queries by chain depth and expert suggestion — the costs
//! behind E1/E9 and the `reader_mix` read rows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tn_crypto::sha256::sha256;
use tn_crypto::Keypair;
use tn_supplychain::expert::experts_for_topic;
use tn_supplychain::ranking::summary_score;
use tn_supplychain::synth::{generate, SynthConfig};
use tn_supplychain::{PropagationOp, SupplyChainGraph};

fn config(n_items: usize) -> SynthConfig {
    SynthConfig {
        n_fact_roots: 50,
        n_honest: 20,
        n_fakers: 5,
        n_items,
        seed: 5,
        ..SynthConfig::default()
    }
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_build");
    group.sample_size(10);
    for n in [200usize, 800] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| generate(black_box(&config(n))))
        });
    }
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(10);
    for n in [200usize, 800] {
        let synth = generate(&config(n));
        group.bench_with_input(BenchmarkId::new("all", n), &synth, |b, s| {
            b.iter(|| s.graph.trace_all())
        });
        let last = synth.graph.iter().last().expect("nonempty").id;
        group.bench_with_input(BenchmarkId::new("single", n), &synth, |b, s| {
            b.iter(|| s.graph.trace_back(black_box(&last)).expect("known"))
        });
    }
    group.finish();
}

/// One reader's queries on one item, by its depth in a relay chain. A
/// read from a stored summary is tens of nanoseconds — below what one
/// timed call resolves — so every row times 1024 calls.
fn bench_single(c: &mut Criterion) {
    const FACT: &str = "The committee approved the solar subsidy amendment.";
    let mut graph = SupplyChainGraph::new();
    let root = sha256(b"fact");
    graph
        .add_fact_root(root, FACT, "energy", 0)
        .expect("fresh id");
    let author = Keypair::from_seed(b"relayer").address();
    let mut chain = vec![root];
    for at in 1..=512u64 {
        let edge = vec![(chain[chain.len() - 1], PropagationOp::Relay)];
        let id = graph.insert(author, FACT, "energy", 1, edge, at);
        chain.push(id.expect("fresh id, known parent"));
    }
    let mut group = c.benchmark_group("single");
    group.sample_size(10);
    for depth in [8usize, 48, 512] {
        let id = chain[depth];
        group.bench_function(&format!("rank_x1024/{depth}"), |b| {
            b.iter(|| {
                (0..1024).fold(0.0, |sum, _| {
                    sum + summary_score(&graph.trace_summary(black_box(&id)).expect("known"))
                })
            })
        });
        group.bench_function(&format!("trace_x1024/{depth}"), |b| {
            b.iter(|| {
                (0..1024).fold(0, |hops, _| {
                    hops + graph.trace_back(black_box(&id)).expect("known").path.len()
                })
            })
        });
        group.bench_function(&format!("culprit_x1024/{depth}"), |b| {
            b.iter(|| {
                (0..1024)
                    .filter_map(|_| {
                        graph
                            .distortion_culprit(black_box(&id), 0.1)
                            .expect("known")
                    })
                    .count()
            })
        });
    }
    group.finish();
}

/// Expert suggestion for one topic against the size of the whole graph.
fn bench_experts(c: &mut Criterion) {
    let mut group = c.benchmark_group("experts");
    group.sample_size(10);
    for n in [200usize, 800] {
        let synth = generate(&config(n));
        let topic = synth.graph.iter().last().expect("nonempty").topic.clone();
        group.bench_function(&format!("top5_x1024/{n}"), |b| {
            b.iter(|| {
                (0..1024).fold(0, |rows, _| {
                    rows + experts_for_topic(&synth.graph, black_box(&topic), 5).len()
                })
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_trace, bench_single, bench_experts
}
criterion_main!(benches);
