//! E17: parallel verification pipeline — worker scaling, verified-tx
//! cache hit rates, and the fixed-base generator table.
//!
//! The paper's platform must ingest news transactions at interactive
//! rates; block import is dominated by Schnorr signature checks. This
//! experiment measures the three levers the verification pipeline adds:
//!
//! - **Worker scaling** (Part A): block verification wall-time at 1/2/4/8
//!   pool workers. Thread scaling only separates on multi-core hosts — on
//!   a single-core container the sweep measures pool overhead instead,
//!   and the report records whatever the hardware gives.
//! - **Verified-tx cache** (Part B): the end-to-end admission → proposal
//!   → import flow, counting actual EC verifications via the
//!   `chain.sigcache.{hit,miss}` counters, plus warm vs cold block
//!   verification wall-time.
//! - **Fixed-base window table** (Part C): `s·G` via the precomputed
//!   generator table vs the generic double-and-add ladder — the
//!   machine-independent speedup inside every single verification.
//!
//! Run with `--quick` for a CI-sized smoke run.

use std::time::Instant;

use serde::Serialize;

use tn_bench::scenarios::BlobChain;
use tn_bench::Experiment;
use tn_chain::prelude::*;
use tn_chain::sigcache::{SigCache, HIT_COUNTER, MISS_COUNTER};
use tn_crypto::ec::{mul_generator, Jacobian, GENERATOR};
use tn_crypto::u256::U256;
use tn_par::Pool;
use tn_telemetry::{Registry, TelemetrySink};
use tn_trace::TraceSink;

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Row {
    /// Which part of the experiment the row belongs to.
    section: &'static str,
    /// Human-readable configuration label.
    label: String,
    /// Pool workers (0 when not applicable).
    workers: usize,
    /// Transactions (or scalars) per measured operation.
    txs: usize,
    /// Wall-time per operation, milliseconds.
    ms: f64,
    /// Throughput in transactions (or scalar muls) per second.
    per_s: f64,
    /// Speedup vs the first row of the same section.
    speedup: f64,
    /// `chain.sigcache.hit` observed (Part B only).
    hits: u64,
    /// `chain.sigcache.miss` observed (Part B only).
    misses: u64,
}

impl Row {
    /// A row measuring `txs` operations in `ms` each, everything else zero.
    fn timed(section: &'static str, label: impl Into<String>, txs: usize, ms: f64) -> Row {
        Row {
            section,
            label: label.into(),
            workers: 0,
            txs,
            ms,
            per_s: if ms > 0.0 {
                txs as f64 / (ms / 1_000.0)
            } else {
                0.0
            },
            speedup: 0.0,
            hits: 0,
            misses: 0,
        }
    }
}

fn time_verify(block: &Block, pool: &Pool, cache: Option<&SigCache>, reps: usize) -> f64 {
    let verify = || {
        block
            .verify_structure_policy(
                pool,
                cache,
                &TelemetrySink::disabled(),
                &TraceSink::disabled(),
                0,
                BatchVerifyPolicy::default(),
            )
            .expect("valid block")
    };
    verify(); // one untimed pass to populate caches and tables
    let started = Instant::now();
    for _ in 0..reps {
        verify();
    }
    started.elapsed().as_secs_f64() * 1_000.0 / reps as f64
}

fn main() {
    let exp = Experiment::start(
        "E17",
        "Parallel verification: worker pool, sigcache, fixed-base table",
    );
    println!(
        "available parallelism: {} (thread scaling is flat on 1-core hosts)\n",
        Pool::auto().workers()
    );

    let block_txs = if exp.quick { 64 } else { 256 };
    let reps = if exp.quick { 2 } else { 5 };
    let mut rows: Vec<Row> = Vec::new();

    // Part A: worker sweep, cold cache.
    println!("Part A: {block_txs}-tx block verification vs pool workers\n");
    let block = BlobChain::new("e17", block_txs, 1).block();
    let mut base_ms = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let ms = time_verify(&block, &Pool::new(workers), None, reps);
        if workers == 1 {
            base_ms = ms;
        }
        rows.push(Row {
            workers,
            speedup: base_ms / ms,
            ..Row::timed(
                "verify_workers",
                format!("{workers} workers"),
                block_txs,
                ms,
            )
        });
    }

    // Part B: verified-tx cache — wall-time and actual EC-verify counts.
    println!("\nPart B: verified-tx cache\n");
    let pool = Pool::auto();
    let cold_ms = time_verify(&block, &pool, None, reps);
    let cache = SigCache::new(1 << 16);
    let warm_ms = time_verify(&block, &pool, Some(&cache), reps);
    let ratio = cold_ms / warm_ms;
    println!("cold verify {cold_ms:.3} ms, warm verify {warm_ms:.3} ms ({ratio:.3}x)");
    rows.push(Row {
        workers: pool.workers(),
        speedup: 1.0,
        ..Row::timed("warm_cache", "cold (no cache)", block_txs, cold_ms)
    });
    rows.push(Row {
        workers: pool.workers(),
        speedup: ratio,
        hits: block_txs as u64,
        ..Row::timed("warm_cache", "warm (all hits)", block_txs, warm_ms)
    });

    // End-to-end counter check: admission → proposal → import does one EC
    // verification per transaction, total.
    let registry = Registry::new();
    let BlobChain {
        mut store,
        validator,
        txs,
    } = BlobChain::new("e17", block_txs, 1);
    store.set_telemetry(registry.sink());
    let mut mempool = Mempool::new(10_000);
    mempool.set_telemetry(registry.sink());
    mempool.set_sig_cache(store.sig_cache());
    let k = block_txs as u64;
    for tx in txs {
        mempool.insert(tx, store.head_state()).expect("admitted");
    }
    let selected = mempool.select(store.head_state(), block_txs);
    let proposed = store.propose(&validator, 1, selected, &mut NoExecutor);
    store.import(&proposed, &mut NoExecutor).expect("imports");
    let snap = registry.snapshot();
    let hits = snap.counter(HIT_COUNTER).unwrap_or(0);
    let misses = snap.counter(MISS_COUNTER).unwrap_or(0);
    println!("admission→proposal→import of {k} txs: {misses} EC verifies, {hits} cache hits");
    assert_eq!(misses, k, "exactly one EC verification per transaction");
    assert_eq!(hits, 2 * k, "proposal and import both served from cache");
    rows.push(Row {
        workers: pool.workers(),
        hits,
        misses,
        ..Row::timed(
            "sigcache_counters",
            "admission+proposal+import",
            block_txs,
            0.0,
        )
    });

    // Part C: fixed-base window table vs generic ladder for s·G.
    println!("\nPart C: fixed-base generator multiplication\n");
    let muls = if exp.quick { 50 } else { 400 };
    let scalars: Vec<U256> = (0..muls)
        .map(|i| {
            let mut bytes = [0x5au8; 32];
            bytes[0] = 0x7f; // keep below the group order
            bytes[31] = i as u8;
            bytes[30] = (i >> 8) as u8;
            U256::from_be_bytes(&bytes)
        })
        .collect();
    let _ = mul_generator(&scalars[0]); // build the table untimed
    let started = Instant::now();
    for s in &scalars {
        std::hint::black_box(mul_generator(s));
    }
    let window_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let g = Jacobian::from_affine(&GENERATOR);
    let started = Instant::now();
    for s in &scalars {
        std::hint::black_box(g.mul_scalar(s).to_affine());
    }
    let ladder_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let ratio = ladder_ms / window_ms;
    println!("{muls} muls: window {window_ms:.3} ms, ladder {ladder_ms:.3} ms ({ratio:.3}x)");
    // `ms` is per multiplication here, `per_s` multiplications per second.
    for (label, total_ms, speedup) in [
        ("window table", window_ms, ratio),
        ("double-and-add ladder", ladder_ms, 1.0),
    ] {
        rows.push(Row {
            per_s: muls as f64 / (total_ms / 1_000.0),
            speedup,
            ..Row::timed("fixed_base", label, muls, total_ms / muls as f64)
        });
    }

    println!();
    exp.report(
        "E17",
        "Parallel verification pipeline: worker scaling, sigcache hit rates, fixed-base table",
        &rows,
    );
}
