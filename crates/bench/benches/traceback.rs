//! Supply-chain benchmarks: graph construction, full-graph trace-back,
//! single-item queries by chain depth, expert suggestion, and the
//! modification degree every inserted edge is scored with — the costs
//! behind E1/E9 and the `reader_mix` read and publish rows.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tn_crypto::sha256::sha256;
use tn_crypto::Keypair;
use tn_factdb::corpus::{generate_corpus, CorpusConfig};
use tn_factdb::FactRecord;
use tn_supplychain::expert::experts_for_topic;
use tn_supplychain::ranking::summary_score;
use tn_supplychain::synth::{generate, SynthConfig};
use tn_supplychain::text::modification_degree;
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

/// `reader_mix`'s publish text (`benchmark/src/reader.rs`): a chain stays
/// close to its first report, so each relay is a light modification.
fn report(base: usize, author: usize, i: usize) -> String {
    format!(
        "Report {base} of author {author}: the committee approved the amendment \
         with a clear majority and the minister welcomed it. Update {i}."
    )
}

/// The genesis fact records `reader_mix`'s platform plants as roots.
fn reader_facts() -> Vec<FactRecord> {
    generate_corpus(&CorpusConfig {
        size: 50,
        seed: 42,
        start_time: 0,
    })
}

/// One edge scored as `SupplyChainGraph::insert` scores it, on
/// `reader_mix`'s texts: the relay of a chain head (an author's next
/// publish is twelve ops later) and the fact citation that starts a
/// chain. One edge is a few microseconds, near what one timed call
/// resolves, so every row times 1024 edges.
fn bench_text(c: &mut Criterion) {
    let facts = reader_facts();
    let head = report(0, 0, 0);
    let relay = report(0, 0, 12);
    let mut group = c.benchmark_group("text");
    group.sample_size(20);
    for (name, parent, child) in [
        ("modification_degree_relay", &head, &relay),
        ("modification_degree_cite", &facts[0].content, &head),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                (0..1024).fold(0.0, |sum, _| {
                    sum + modification_degree(black_box(parent), black_box(child))
                })
            })
        });
    }
    group.finish();
}

/// One round of `reader_mix`'s writes into the graph: 384 items on 8
/// chains, each chain a fact citation and 47 relays, the authors taking
/// turns at every op but each third (a rating). Each iteration inserts
/// all 384 into a graph holding only the fact roots, which is built
/// outside the timing.
fn bench_insert(c: &mut Criterion) {
    const AUTHORS: usize = 8;
    let facts = reader_facts();
    let authors: Vec<_> = (0..AUTHORS)
        .map(|i| Keypair::from_seed(format!("insert-relay/{i}").as_bytes()).address())
        .collect();
    let roots = || {
        let mut graph = SupplyChainGraph::new();
        for rec in &facts {
            graph
                .add_fact_root(rec.id(), &rec.content, &rec.topic, rec.recorded_at)
                .expect("distinct records");
        }
        graph
    };
    let mut group = c.benchmark_group("graph");
    group.sample_size(10);
    group.bench_function("insert_relay", |b| {
        b.iter_batched(
            roots,
            |mut graph| {
                let mut heads: [Option<(usize, _)>; AUTHORS] = [None; AUTHORS];
                for (n, i) in (0..576).filter(|i| i % 3 != 2).enumerate() {
                    let author = n % AUTHORS;
                    let (base, parent) = match heads[author] {
                        Some((base, head)) => (base, (head, PropagationOp::Relay)),
                        None => (i, (facts[i % facts.len()].id(), PropagationOp::Cite)),
                    };
                    let (content, edge) = (report(base, author, i), vec![parent]);
                    let id = graph.insert(authors[author], &content, "general", 1, edge, i as u64);
                    heads[author] = Some((base, id.expect("fresh id, known parent")));
                }
                graph
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_trace, bench_single, bench_experts, bench_text, bench_insert
}
criterion_main!(benches);
