//! End-to-end platform benchmarks: the cost of the full publish → block →
//! index pipeline, of combined-rank queries — the operation mix the
//! Figure-2 ecosystem runs at scale — and of one built-in contract call
//! (§VII's "scalable smart contract" concern).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tn_chain::state::TxExecutor;
use tn_contracts::builtin::{ranking_submit, RankingContract};
use tn_contracts::executor::ContractRegistry;
use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::Keypair;
use tn_supplychain::ops::PropagationOp;

struct Bench {
    platform: Platform,
    journalist: Keypair,
    room: u64,
    item: tn_crypto::Hash256,
    counter: u64,
}

fn setup() -> Bench {
    let mut platform = Platform::new(PlatformConfig::default());
    let publisher = Keypair::from_seed(b"bench publisher");
    let journalist = Keypair::from_seed(b"bench journalist");
    platform
        .register_identity(&publisher, "Bench Press", &[Role::Publisher])
        .expect("publisher");
    platform
        .register_identity(
            &journalist,
            "Bench Journalist",
            &[Role::ContentCreator, Role::Consumer],
        )
        .expect("journalist");
    platform.produce_block().expect("identities");
    let room = platform
        .open_newsroom(&publisher, "Bench Press", "energy", &[journalist.address()])
        .expect("newsroom");
    let fact = platform.factdb().iter().next().expect("seeded").clone();
    let item = platform
        .publish_news(
            &journalist,
            room,
            &fact.topic,
            &fact.content,
            vec![(fact.id(), PropagationOp::Cite)],
        )
        .expect("publish");
    platform.produce_block().expect("block");
    Bench {
        platform,
        journalist,
        room,
        item,
        counter: 0,
    }
}

fn bench_publish_and_block(c: &mut Criterion) {
    let mut b = setup();
    let fact = b.platform.factdb().iter().next().expect("seeded").clone();
    c.bench_function("platform_publish_plus_block", |bench| {
        bench.iter(|| {
            b.counter += 1;
            let content = format!("{} Update number {}.", fact.content, b.counter);
            b.platform
                .publish_news(
                    &b.journalist,
                    b.room,
                    &fact.topic,
                    &content,
                    vec![(fact.id(), PropagationOp::Insert)],
                )
                .expect("publish");
            b.platform.produce_block().expect("block")
        })
    });
}

fn bench_rank_query(c: &mut Criterion) {
    let b = setup();
    c.bench_function("platform_rank_item", |bench| {
        bench.iter(|| b.platform.rank_item(black_box(&b.item)).expect("rank"))
    });
}

fn bench_builtin_rating(c: &mut Criterion) {
    let owner = Keypair::from_seed(b"rating owner").address();
    let mut reg = ContractRegistry::new();
    let addr = reg.install_builtin(Box::new(RankingContract::new(owner)));
    let rater = Keypair::from_seed(b"rater").address();
    let input = ranking_submit(&tn_crypto::sha256::sha256(b"benchmark item"), 80);
    c.bench_function("builtin_submit_rating", |b| {
        b.iter(|| {
            reg.call(black_box(&rater), &addr, &input, 10_000)
                .expect("runs")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_publish_and_block, bench_rank_query, bench_builtin_rating
}
criterion_main!(benches);
