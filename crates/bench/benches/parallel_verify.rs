//! Benchmarks for the parallel verification pipeline: worker-pool
//! block verification, warm-cache verification, parallel Merkle roots,
//! and the fixed-base generator multiplication behind every Schnorr
//! check.
//!
//! Note: thread-scaling numbers only separate on multi-core hosts; on a
//! single-core container the worker sweep measures pool overhead, while
//! the warm-cache and fixed-base rows show the machine-independent wins.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tn_bench::scenarios::BlobChain;
use tn_chain::prelude::*;
use tn_chain::sigcache::SigCache;
use tn_crypto::ec::mul_generator;
use tn_crypto::merkle::{merkle_root, merkle_root_par};
use tn_crypto::u256::U256;
use tn_par::Pool;
use tn_telemetry::TelemetrySink;
use tn_trace::TraceSink;

/// The import path's verifier with its default batching policy.
fn verify(block: &Block, pool: &Pool, cache: Option<&SigCache>) {
    block
        .verify_structure_policy(
            pool,
            cache,
            &TelemetrySink::disabled(),
            &TraceSink::disabled(),
            0,
            BatchVerifyPolicy::default(),
        )
        .expect("valid")
}

fn bench_verify_workers(c: &mut Criterion) {
    let block = BlobChain::new("bench", 256, 1).block();
    let mut group = c.benchmark_group("block_verify_256");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        let pool = Pool::new(workers);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &pool, |b, pool| {
            b.iter(|| verify(black_box(&block), pool, None))
        });
    }
    group.finish();
}

fn bench_verify_warm_cache(c: &mut Criterion) {
    let block = BlobChain::new("bench", 256, 1).block();
    let pool = Pool::new(4);
    let cache = SigCache::new(1 << 16);
    verify(&block, &pool, Some(&cache)); // warms the cache
    c.bench_function("block_verify_256_warm_cache", |b| {
        b.iter(|| verify(black_box(&block), &pool, Some(&cache)))
    });
}

fn bench_merkle_par(c: &mut Criterion) {
    let leaves: Vec<[u8; 32]> = (0u32..1024)
        .map(|i| {
            let mut leaf = [0u8; 32];
            leaf[..4].copy_from_slice(&i.to_le_bytes());
            leaf
        })
        .collect();
    let mut group = c.benchmark_group("merkle_root_1024");
    group.bench_function("sequential", |b| {
        b.iter(|| merkle_root(black_box(&leaves).iter()))
    });
    for workers in [2usize, 4] {
        let pool = Pool::new(workers);
        group.bench_with_input(BenchmarkId::new("parallel", workers), &pool, |b, pool| {
            b.iter(|| merkle_root_par(black_box(&leaves), pool))
        });
    }
    group.finish();
}

fn bench_fixed_base_mul(c: &mut Criterion) {
    let k = U256::from_be_bytes(&[0x5a; 32]);
    let g = tn_crypto::ec::Jacobian::from_affine(&tn_crypto::ec::GENERATOR);
    c.bench_function("mul_generator_window", |b| {
        b.iter(|| mul_generator(black_box(&k)))
    });
    c.bench_function("mul_generator_ladder", |b| {
        b.iter(|| black_box(&g).mul_scalar(black_box(&k)).to_affine())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_verify_workers, bench_verify_warm_cache, bench_merkle_par, bench_fixed_base_mul
}
criterion_main!(benches);
