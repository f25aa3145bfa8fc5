//! Chain-layer benchmarks: transaction verification, block building and
//! block import (full validation + state transition), a cold chain
//! imported block by block and as one run, and what the state costs a
//! block as the account table grows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tn_bench::scenarios::{StateScale, STATE_SCALE_SIZES};
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

/// A cold replica taking in a whole chain — the shapes catch-up and
/// restart see: 256 one-transaction blocks (what consensus produces) and
/// 13 full ones. The `each/` rows are [`ChainStore::import`] in a loop, two
/// or 129 signatures settled per block; the others settle all of them
/// before the first block executes ([`ChainStore::import_run`]).
fn bench_import_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("import_run");
    group.sample_size(10);
    let alice = Keypair::from_seed(b"bench alice");
    let validator = Keypair::from_seed(b"bench validator");
    let cold = || ChainStore::new(State::genesis([(alice.address(), 1_000_000)]), &validator);
    for (per_block, blocks) in [(1usize, 256usize), (128, 13)] {
        let mut source = cold();
        let chain: Vec<Block> = make_txs(per_block * blocks)
            .chunks(per_block)
            .zip(1..)
            .map(|(txs, t)| {
                let (block, _) = source
                    .commit(&validator, t, txs.to_vec(), &mut NoExecutor)
                    .expect("commits");
                block
            })
            .collect();
        let shape = format!("{per_block}tx_x{blocks}");
        group.bench_function(&format!("each/{shape}"), |b| {
            b.iter_batched(
                cold,
                |mut store| {
                    for block in &chain {
                        store.import(block, &mut NoExecutor).expect("imports");
                    }
                    store.height()
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_function(&shape, |b| {
            b.iter_batched(
                cold,
                |mut store| {
                    let (_, verdict) = store.import_run(black_box(&chain), &mut NoExecutor);
                    verdict.expect("imports");
                    store.height()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The state's share of a block at 10³–10⁶ accounts: taking a copy of the
/// head state, applying a block of 128 transfers to fresh accounts and
/// committing to the result, and serving a 16-balance page.
fn bench_state_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_scale");
    group.sample_size(20);
    for n in STATE_SCALE_SIZES {
        let fixture = StateScale::new(n);
        group.bench_with_input(BenchmarkId::new("clone", n), &n, |b, _| {
            b.iter(|| black_box(&fixture.state).clone())
        });
        group.bench_with_input(BenchmarkId::new("block128_root", n), &n, |b, _| {
            b.iter_batched(
                || fixture.state.clone(),
                |state| fixture.apply_block(state).root(),
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("page16", n), &n, |b, _| {
            b.iter(|| fixture.read_page(black_box(&fixture.state)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tx_verify, bench_block_import, bench_import_run, bench_state_scale
}
criterion_main!(benches);
