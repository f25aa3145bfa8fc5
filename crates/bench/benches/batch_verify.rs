//! Microbenchmarks for batch verification at the shapes the workloads
//! produce: `verify_batch` against verifying the same items alone, for
//! n = 2, 16, 64, 128 and 512 signatures from 8 and 36 signers (a door
//! admission chunk is 128 transactions from ~30 signers, a `reader_mix`
//! synced block 65 signatures from 24, a replicated one-transaction block
//! 2), the MSM kernels underneath at the same shapes, and mempool
//! admission of one ingest batch. The source of the measured tables in
//! `tn_crypto::msm`'s module docs.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tn_bench::scenarios::BlobChain;
use tn_chain::prelude::Mempool;
use tn_crypto::ec::{mul_generator, Affine, GENERATOR};
use tn_crypto::msm::{glv_halves, pippenger, signed_window, straus};
use tn_crypto::sha256::{sha256, tagged_hash};
use tn_crypto::u256::U256;
use tn_crypto::{verify_batch, BatchItem, Keypair};

/// The (signatures, signers) shapes measured.
const SHAPES: [(usize, usize); 10] = [
    (2, 8),
    (2, 36),
    (16, 8),
    (16, 36),
    (64, 8),
    (64, 36),
    (128, 8),
    (128, 36),
    (512, 8),
    (512, 36),
];

/// `n` signed items from `signers` keys in rotation.
fn items(n: usize, signers: usize) -> Vec<BatchItem> {
    let keys: Vec<Keypair> = (0..signers.min(n))
        .map(|i| Keypair::from_seed(format!("bench batch {i}").as_bytes()))
        .collect();
    (0..n)
        .map(|i| {
            let kp = &keys[i % keys.len()];
            let msg = sha256(format!("bench message {i}").as_bytes());
            (*kp.public(), msg, kp.sign(&msg))
        })
        .collect()
}

/// The batched check against the items' lone verifications. Every key
/// has been verified twice before, so the lone side is a repeat signer's
/// table walk — the cheapest it gets.
fn bench_verify_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify/schnorr");
    group.sample_size(20);
    for (n, signers) in SHAPES {
        let items = items(n, signers);
        for (key, msg, sig) in items.iter().chain(&items) {
            assert!(key.verify(msg, sig));
        }
        let id = format!("{n}x{signers}");
        group.bench_with_input(BenchmarkId::new("batch", &id), &items, |b, items| {
            b.iter(|| assert!(verify_batch(black_box(items), b"bench seed")))
        });
        group.bench_with_input(BenchmarkId::new("lone", &id), &items, |b, items| {
            b.iter(|| assert!(items.iter().all(|(k, m, s)| k.verify(black_box(m), s))))
        });
    }
    group.finish();
}

/// Pairs shaped like a coalesced equation of `n` signatures from
/// `signers` keys: a 128-bit coefficient on every nonce point, a
/// full-width scalar on every key and on the generator.
fn equation_pairs(n: usize, signers: usize) -> Vec<(Affine, U256)> {
    let scalar = |tag: &str, i: usize| {
        U256::from_be_bytes(tagged_hash(tag, &(i as u64).to_be_bytes()).as_bytes())
    };
    let half = |k: U256| U256::from_limbs([k.limbs()[0], k.limbs()[1], 0, 0]);
    let mut pairs: Vec<(Affine, U256)> = (0..n)
        .map(|i| {
            (
                mul_generator(&scalar("bench/nonce", i)),
                half(scalar("bench/z", i)),
            )
        })
        .collect();
    pairs.extend((0..signers.min(n)).map(|i| {
        let key = mul_generator(&scalar("bench/key", i));
        (key, scalar("bench/ze", i).shr(1))
    }));
    pairs.push((GENERATOR, scalar("bench/zs", 0).shr(1)));
    pairs
}

/// Straus against the signed buckets at the model's window and one either
/// side of it — the crossover and the window model in one table.
fn bench_msm_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify/msm");
    group.sample_size(20);
    for (n, signers) in SHAPES.into_iter().filter(|(n, _)| *n >= 16) {
        let pairs = equation_pairs(n, signers);
        let halves = glv_halves(&pairs);
        let id = format!("{n}x{signers}");
        group.bench_with_input(BenchmarkId::new("straus", &id), &pairs, |b, ps| {
            b.iter(|| straus(black_box(ps)))
        });
        let model = signed_window(halves.len());
        for w in [model - 1, model, model + 1] {
            let label = format!("pippenger_c{w}{}", if w == model { "_model" } else { "" });
            group.bench_with_input(BenchmarkId::new(label, &id), &halves, |b, hs| {
                b.iter(|| pippenger(black_box(hs), w))
            });
        }
    }
    group.finish();
}

/// Mempool admission of one 128-transaction ingest batch (the gateway's
/// default `ingest_batch`, 24 signers like the persona workloads) on a
/// fresh pool with a cold sigcache of its own, so every iteration pays its
/// signature checks: a `Mempool::insert` loop (the per-transaction scan)
/// vs `Mempool::insert_batch` (one batched equation).
fn bench_mempool_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify/mempool_admit_128");
    group.sample_size(10);
    let chain = BlobChain::new("bench admit", 128, 24);
    let state = chain.store.head_state();
    let fresh = || (Mempool::new(1024), chain.txs.clone());
    group.bench_function("scan", |b| {
        b.iter_batched(
            fresh,
            |(mut mempool, txs)| {
                let verdicts = txs.into_iter().map(|tx| mempool.insert(tx, state));
                verdicts.filter(Result::is_ok).count()
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("batched", |b| {
        b.iter_batched(
            fresh,
            |(mut mempool, txs)| mempool.insert_batch(txs, state),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_verify_batch, bench_msm_kernels, bench_mempool_admit
}
criterion_main!(benches);
