//! Chain-layer benchmarks: transaction verification, block building and
//! block import (full validation + state transition).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tn_chain::prelude::*;
use tn_crypto::Keypair;

fn make_txs(n: usize) -> Vec<Transaction> {
    let alice = Keypair::from_seed(b"bench alice");
    (0..n)
        .map(|i| {
            Transaction::signed(
                &alice,
                i as u64,
                1,
                Payload::Blob {
                    tag: blob_tags::NEWS_PUBLISH,
                    data: vec![0u8; 128],
                },
            )
        })
        .collect()
}

fn bench_tx_verify(c: &mut Criterion) {
    let tx = make_txs(1).pop().expect("one");
    c.bench_function("tx_verify", |b| {
        b.iter(|| black_box(&tx).verify().expect("valid"))
    });
}

fn bench_block_import(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_import");
    group.sample_size(10);
    for n in [16usize, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let alice = Keypair::from_seed(b"bench alice");
                    let validator = Keypair::from_seed(b"bench validator");
                    let genesis = State::genesis([(alice.address(), 1_000_000)]);
                    let store = ChainStore::new(genesis, &validator);
                    let block = store.propose(&validator, 1, make_txs(n), &mut NoExecutor);
                    (store, block)
                },
                |(mut store, block)| {
                    store
                        .import(black_box(&block), &mut NoExecutor)
                        .expect("imports")
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tx_verify, bench_block_import
}
criterion_main!(benches);
