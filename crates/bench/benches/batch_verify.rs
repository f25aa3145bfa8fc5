//! Microbenchmarks for the batch-verification kernels: variable-base MSM
//! (Straus vs Pippenger across window widths and batch sizes) and the
//! batched Schnorr check itself, plus mempool admission of one ingest
//! batch through it. The window sweep here is the source of the
//! measured-parameter table in `tn_crypto::msm`'s module docs and of
//! `STRAUS_CUTOFF` / `pippenger_window`.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tn_bench::scenarios::BlobChain;
use tn_chain::block::BatchVerifyPolicy;
use tn_chain::prelude::Mempool;
use tn_crypto::ec::Affine;
use tn_crypto::msm::{msm, pippenger, pippenger_window, straus};
use tn_crypto::sha256::{sha256, tagged_hash};
use tn_crypto::u256::U256;
use tn_crypto::{verify_batch, BatchItem, Keypair};

/// Deterministic full-width scalars and distinct points.
fn pairs(n: usize) -> Vec<(Affine, U256)> {
    (0..n)
        .map(|i| {
            let h = tagged_hash("bench/msm-scalar", &(i as u64).to_be_bytes());
            let k = U256::from_be_bytes(h.as_bytes());
            let p = tagged_hash("bench/msm-point", &(i as u64).to_be_bytes());
            let point = tn_crypto::ec::mul_generator(&U256::from_be_bytes(p.as_bytes()));
            (point, k)
        })
        .collect()
}

/// Straus vs Pippenger window widths across batch sizes — justifies
/// `STRAUS_CUTOFF` and the `pippenger_window` cost model.
fn bench_msm_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify/msm");
    group.sample_size(10);
    for n in [16usize, 64, 128, 192, 256, 1024, 4096] {
        let ps = pairs(n);
        if n <= 256 {
            group.bench_with_input(BenchmarkId::new("straus", n), &ps, |b, ps| {
                b.iter(|| straus(black_box(ps)))
            });
        }
        for w in [4u32, 6, 8, 10, 12] {
            // Skip widths that are clearly hopeless for the size (keeps
            // the sweep's wall-time sane without hiding the optimum).
            if (n <= 64 && w > 8) || (n <= 256 && w > 10) {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("pippenger_c{w}"), n),
                &ps,
                |b, ps| b.iter(|| pippenger(black_box(ps), w)),
            );
        }
        group.bench_with_input(BenchmarkId::new("auto", n), &ps, |b, ps| {
            b.iter(|| msm(black_box(ps)))
        });
    }
    group.finish();
    for n in [16usize, 64, 128, 192, 256, 1024, 4096] {
        println!("pippenger_window({n}) = {}", pippenger_window(n));
    }
}

/// The end product: one batched Schnorr equation over a chunk of
/// signatures, single-signer (pubkey coalescing at its best) and
/// distinct-signer (no pubkey coalescing) variants.
fn bench_verify_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify/schnorr");
    group.sample_size(10);
    for (label, signers) in [("single_signer", 1usize), ("distinct_signers", 512)] {
        let keys: Vec<Keypair> = (0..signers)
            .map(|i| Keypair::from_seed(format!("bench batch {i}").as_bytes()))
            .collect();
        let items: Vec<BatchItem> = (0..512usize)
            .map(|i| {
                let kp = &keys[i % keys.len()];
                let msg = sha256(format!("bench message {i}").as_bytes());
                (*kp.public(), msg, kp.sign(&msg))
            })
            .collect();
        group.bench_with_input(BenchmarkId::new(label, 512), &items, |b, items| {
            b.iter(|| assert!(verify_batch(black_box(items), b"bench seed")))
        });
    }
    group.finish();
}

/// Mempool admission of one 128-transaction ingest batch (the gateway's
/// default `ingest_batch`, 24 signers like the persona workloads) with no
/// sigcache, so every iteration pays its signature checks: the
/// per-transaction scan vs one batched equation.
fn bench_mempool_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify/mempool_admit_128");
    group.sample_size(10);
    let chain = BlobChain::new("bench admit", 128, 24);
    let state = chain.store.head_state();
    let pool = chain.store.verify_pool();
    for (label, policy) in [
        ("scan", BatchVerifyPolicy::disabled()),
        ("batched", BatchVerifyPolicy::default()),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || (Mempool::new(1024), chain.txs.clone()),
                |(mut mempool, txs)| mempool.insert_batch(txs, state, &pool, policy),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_msm_windows, bench_verify_batch, bench_mempool_admit
}
criterion_main!(benches);
