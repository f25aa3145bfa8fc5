//! Chain-layer benchmarks: transaction verification, block building and
//! block import (full validation + state transition), a cold chain
//! imported block by block and as one run, what the state costs a block
//! as the account table grows, and cutting a block from a warmed mempool.

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

/// Importing a block into the store that proposed it: proposing proved
/// every signature into the store's sigcache and noted the header, so
/// these rows are the warm-cache import — no signature is verified again.
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

/// A warmed pool: `accounts` senders with enough pending transactions
/// between them for 160 picks, at fees 1…5, admitted through `cache`.
fn warmed_pool(accounts: usize, cache: &SigCache) -> (Mempool, State) {
    let keys: Vec<Keypair> = (0..accounts as u32)
        .map(|i| Keypair::from_seed(&i.to_be_bytes()))
        .collect();
    let state = State::genesis(keys.iter().map(|k| (k.address(), 1_000_000)));
    let mut pool = Mempool::new(1 << 12);
    pool.set_sig_cache(cache.clone());
    for (i, key) in keys.iter().enumerate() {
        for nonce in 0..160u64.div_ceil(accounts as u64) {
            let fee = 1 + (i as u64 * 7 + nonce) % 5;
            let data = vec![0u8; 128];
            let payload = Payload::Blob {
                tag: blob_tags::NEWS_PUBLISH,
                data,
            };
            let tx = Transaction::signed(key, nonce, fee, payload);
            pool.insert(tx, &state).expect("admits");
        }
    }
    (pool, state)
}

/// Cutting a block from a warmed pool: 128 picks from 8, 36 and 256
/// accounts (one state read per account, then a heap of ready
/// transactions), and committing a 128-transaction block built on the ids
/// admission kept (`commit128/identified`) against the same block from
/// bare transactions, each hashed again (`commit128/rehashed`).
fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select");
    let cache = SigCache::new(1 << 12);
    for accounts in [8usize, 36, 256] {
        let (pool, state) = warmed_pool(accounts, &cache);
        group.bench_with_input(BenchmarkId::new("pick128", accounts), &accounts, |b, _| {
            b.iter(|| pool.select_identified(black_box(&state), 128))
        });
    }
    let (pool, state) = warmed_pool(36, &cache);
    let validator = Keypair::from_seed(b"bench validator");
    let store = || {
        let mut store = ChainStore::new(state.clone(), &validator);
        store.set_sig_cache(cache.clone());
        store
    };
    group.bench_function("commit128/identified", |b| {
        b.iter_batched(
            store,
            |mut store| {
                let txs = pool.select_identified(store.head_state(), 128);
                store.commit(&validator, 1, txs, &mut NoExecutor)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("commit128/rehashed", |b| {
        b.iter_batched(
            store,
            |mut store| {
                let txs = pool.select(store.head_state(), 128);
                store.commit(&validator, 1, txs, &mut NoExecutor)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tx_verify, bench_block_import, bench_import_run, bench_state_scale, bench_select
}
criterion_main!(benches);
