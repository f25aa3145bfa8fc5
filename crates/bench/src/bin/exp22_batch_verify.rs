//! E22: batched Schnorr verification with Pippenger MSM on the cold
//! import path.
//!
//! The verified-tx cache makes warm imports nearly free (a signature
//! admission checked is a cache hit at proposal and import); what remains
//! is the **cold** path — state-sync catch-up, replay after restart, and
//! any block whose transactions never passed through the local mempool.
//! There, every signature pays an elliptic-curve verification. This
//! experiment measures the batch-crypto stack that attacks exactly that
//! cost:
//!
//! - **MSM kernels** (Part A): per-point cost of the shared-pass
//!   multi-scalar multiplication (`tn_crypto::msm`) vs one independent
//!   window multiplication (a one-point Straus) per point, across batch
//!   sizes.
//! - **Single verification** (Part B): the no-inversion two-term form
//!   (`s·G + (−e)·P + (−R) == ∞`, both products out of one GLV-split
//!   doubling chain, identity test free in Jacobian coordinates) vs the
//!   first affine-comparison form (generic ladder for `e·P` plus a field
//!   inversion to normalize).
//! - **Cold import** (Part C): full block structural verification — the
//!   per-tx scan built here (transaction ids, `merkle_root`, the header
//!   checks, then every signature alone, in order, on the calling thread:
//!   the pre-E22 path without its worker pool) vs the import
//!   path's signature pass, `ChainStore::check_run` on a fresh store (one
//!   random-linear-combination equation per 512 signatures, the sigcache
//!   bookkeeping included). The headline gate: batched cold verification
//!   sustains ≥ 2.5× the per-tx scan's txs/s on single-signer blocks (the
//!   repo's own workload shape; the gate was 4× before the per-tx scan
//!   itself got a third cheaper).
//! - **Counters** (Part D): a cold import observed through the
//!   `chain.verify.batch.*` and `chain.sigcache.*` counters — batching
//!   preserves the one-EC-verify-per-tx accounting.
//! - **Admission** (Part E): one 128- and one 256-transaction ingest
//!   batch on a fresh node — per-tx (a `ValidatorNode::submit` loop) vs
//!   batched (`ValidatorNode::submit_batch`), single-signer and
//!   distinct-signer — plus a poisoned batch (one bad signature): its
//!   equation fails, the whole batch is rescanned, and the cost must stay
//!   near the per-tx path's. Every pair is also checked for equal
//!   verdicts, pool contents and sigcache lookups.
//!
//! Run with `--quick` for a CI-sized smoke run.

use std::time::Instant;

use serde::Serialize;

use tn_bench::scenarios::BlobChain;
use tn_bench::{Experiment, Value};
use tn_chain::block::{BATCH_CHUNKS_COUNTER, BATCH_FALLBACK_COUNTER, BATCH_TXS_COUNTER};
use tn_chain::prelude::*;
use tn_chain::sigcache::{HIT_COUNTER, MISS_COUNTER};
use tn_core::platform::PlatformConfig;
use tn_crypto::ec::{mul_generator, Affine, Jacobian};
use tn_crypto::field::{neg_mod, reduce, N};
use tn_crypto::merkle::merkle_root;
use tn_crypto::msm::{glv_halves, msm, signed_window, straus, PIPPENGER_FROM};
use tn_crypto::sha256::tagged_hash;
use tn_crypto::u256::U256;
use tn_crypto::{Hash256, Keypair, Signature};
use tn_node::validator::IngestOutcome;
use tn_node::ValidatorNode;
use tn_telemetry::Registry;

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Row {
    /// Which part of the experiment the row belongs to.
    section: &'static str,
    /// Human-readable configuration label.
    label: String,
    /// Points / signatures / transactions per measured operation.
    n: usize,
    /// Wall-time per operation, milliseconds.
    ms: f64,
    /// Per-item cost, microseconds.
    us_per_item: f64,
    /// Items per second.
    per_s: f64,
    /// Speedup vs the section's baseline row.
    speedup: f64,
}

impl Row {
    /// A row measuring `n` items in `ms` per operation.
    fn timed(
        section: &'static str,
        label: impl Into<String>,
        n: usize,
        ms: f64,
        speedup: f64,
    ) -> Row {
        Row {
            section,
            label: label.into(),
            n,
            ms,
            us_per_item: ms * 1_000.0 / n as f64,
            per_s: n as f64 / (ms / 1_000.0),
            speedup,
        }
    }
}

fn deterministic_pairs(n: usize) -> Vec<(Affine, U256)> {
    (0..n)
        .map(|i| {
            let k = U256::from_be_bytes(
                tagged_hash("e22/scalar", &(i as u64).to_be_bytes()).as_bytes(),
            );
            let p =
                U256::from_be_bytes(tagged_hash("e22/point", &(i as u64).to_be_bytes()).as_bytes());
            (mul_generator(&p), k)
        })
        .collect()
}

/// The per-transaction scan, as block import ran it before the batch
/// equation: every transaction id, the Merkle root over them, the header
/// checks, then each signature alone, in order. No cache.
fn scan(block: &Block) -> bool {
    let ids = block.transactions.iter().map(|tx| tx.id().into_bytes());
    let digest = block.header.digest();
    block.proposer_key.address() == block.header.proposer
        && block.proposer_key.verify(&digest, &block.signature)
        && merkle_root(ids) == block.header.tx_root
        && block.transactions.iter().all(|tx| tx.verify().is_ok())
}

/// Mean wall time (ms) of `run(i)` for `i` in `0..reps`, after one
/// untimed warm-up call `run(reps)`.
fn mean_ms(reps: usize, mut run: impl FnMut(usize)) -> f64 {
    run(reps);
    let started = Instant::now();
    (0..reps).for_each(&mut run);
    started.elapsed().as_secs_f64() * 1_000.0 / reps as f64
}

/// The pre-E22 verification shape: `s·G` from the fixed-base table,
/// `(−e)·P` by the generic double-and-add ladder, then an affine
/// normalization (one field inversion) to compare coordinates.
fn verify_affine_baseline(
    pubkey: &Affine,
    r_x: &U256,
    parity_odd: bool,
    e: &U256,
    s: &U256,
) -> bool {
    let neg_e = neg_mod(&reduce(e, &N), &N);
    let rp = tn_crypto::ec::mul_generator_jacobian(s)
        .add(&Jacobian::from_affine(pubkey).mul_scalar(&neg_e))
        .to_affine();
    match rp {
        Affine::Infinity => false,
        Affine::Point { x, y } => x.to_u256() == *r_x && y.is_odd() == parity_odd,
    }
}

/// What one `submit_batch` left behind, timing aside.
#[derive(Debug, PartialEq)]
struct Admitted {
    outcome: IngestOutcome,
    pool: Vec<Hash256>,
    hits: u64,
    misses: u64,
}

/// `txs` admitted on a fresh default node, with the ids in `cached`
/// already in its sigcache — through `submit_batch` when `batched`, else
/// through a `submit` loop: the fastest of `reps` wall times (ms), what was
/// admitted, and the `chain.verify.batch.{txs,fallback}` counters.
fn admit(
    txs: &[Transaction],
    cached: &[Hash256],
    reps: usize,
    batched: bool,
) -> (f64, Admitted, u64, u64) {
    let mut best: Option<(f64, Admitted, u64, u64)> = None;
    for _ in 0..reps {
        let mut node = ValidatorNode::new(0, &PlatformConfig::default());
        let cache = node.pipeline().store().sig_cache();
        cached.iter().for_each(|id| cache.insert(*id));
        let batch = txs.to_vec();
        let started = Instant::now();
        let outcome = if batched {
            node.submit_batch(batch)
        } else {
            let verdicts = batch.into_iter().map(|tx| node.submit(tx));
            let accepted = verdicts.filter(Result::is_ok).count();
            IngestOutcome {
                accepted,
                rejected: txs.len() - accepted,
            }
        };
        let ms = started.elapsed().as_secs_f64() * 1_000.0;
        let snap = node.metrics_snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        let admitted = Admitted {
            outcome,
            pool: node.mempool().iter().map(Transaction::id).collect(),
            hits: count(HIT_COUNTER),
            misses: count(MISS_COUNTER),
        };
        if best.as_ref().is_none_or(|(b, ..)| ms < *b) {
            let (txs, fallback) = (count(BATCH_TXS_COUNTER), count(BATCH_FALLBACK_COUNTER));
            best = Some((ms, admitted, txs, fallback));
        }
    }
    best.expect("reps >= 1")
}

fn main() {
    let exp = Experiment::start(
        "E22",
        "Batch Schnorr verification: MSM kernels, no-inversion verify, cold import",
    );
    let quick = exp.quick;
    let mut rows: Vec<Row> = Vec::new();

    // Part A: MSM per-point cost vs independent per-point multiplication.
    println!("Part A: multi-scalar multiplication");
    let sizes: &[usize] = if quick {
        &[16, 128]
    } else {
        &[16, 128, 1024, 4096]
    };
    let mut msm_us_per_point = 0.0;
    for &n in sizes {
        let ps = deterministic_pairs(n);
        let reps = if quick { 1 } else { 2.max(512 / n) };
        // Baseline: one window multiplication per point — every point
        // walking its own doubling chain.
        let started = Instant::now();
        for _ in 0..reps {
            let mut acc = Jacobian::infinity();
            for pair in &ps {
                acc = acc.add(&straus(std::slice::from_ref(pair)));
            }
            std::hint::black_box(acc);
        }
        let per_point_ms = started.elapsed().as_secs_f64() * 1_000.0 / reps as f64;
        let started = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(msm(&ps));
        }
        let msm_ms = started.elapsed().as_secs_f64() * 1_000.0 / reps as f64;
        let halves = glv_halves(&ps).len();
        let kernel = if n < PIPPENGER_FROM {
            "straus".to_string()
        } else {
            format!("signed pippenger c={}", signed_window(halves))
        };
        rows.push(Row::timed("msm", "per-point windows", n, per_point_ms, 1.0));
        rows.push(Row::timed("msm", kernel, n, msm_ms, per_point_ms / msm_ms));
        msm_us_per_point = msm_ms * 1_000.0 / n as f64;
    }

    // Part B: single verification — no-inversion two-term form vs the
    // affine-comparison baseline.
    println!("\nPart B: single Schnorr verification\n");
    let kp = Keypair::from_seed(b"e22 single");
    let msg = tn_crypto::sha256::sha256(b"e22 message");
    let sig = kp.sign(&msg);
    let muls = if quick { 40 } else { 300 };
    let started = Instant::now();
    for _ in 0..muls {
        assert!(kp.public().verify(std::hint::black_box(&msg), &sig));
    }
    let new_ms = started.elapsed().as_secs_f64() * 1_000.0;
    // Reconstruct the baseline from the signature's public parts.
    let Signature {
        r_x,
        r_parity_odd,
        s,
    } = sig;
    let (r_x, s_scalar) = (U256::from_be_bytes(&r_x), U256::from_be_bytes(&s));
    let mut compressed = [0u8; 33];
    compressed[0] = if r_parity_odd { 0x03 } else { 0x02 };
    compressed[1..].copy_from_slice(&sig.r_x);
    let r_point = Affine::from_compressed(&compressed).expect("valid R");
    let pk_point = Affine::from_compressed(&kp.public().to_compressed()).expect("valid P");
    // e = H_tag(challenge) — recompute it the way verify does, through a
    // throwaway call; here we only need *a* scalar of full width, and the
    // exact challenge keeps the baseline's work identical.
    let e = {
        let mut data = Vec::with_capacity(98);
        data.extend_from_slice(&sig.r_x);
        data.push(r_parity_odd as u8);
        data.extend_from_slice(&kp.public().to_compressed());
        data.extend_from_slice(msg.as_bytes());
        reduce(
            &U256::from_be_bytes(tagged_hash("TN/challenge", &data).as_bytes()),
            &N,
        )
    };
    // Sanity: the baseline must accept the valid signature before we race it.
    assert!(r_point.y_is_even() != r_parity_odd);
    assert!(verify_affine_baseline(
        &pk_point,
        &r_x,
        r_parity_odd,
        &e,
        &s_scalar
    ));
    let started = Instant::now();
    for _ in 0..muls {
        std::hint::black_box(verify_affine_baseline(
            &pk_point,
            std::hint::black_box(&r_x),
            r_parity_odd,
            &e,
            &s_scalar,
        ));
    }
    let old_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let ratio = old_ms / new_ms;
    println!(
        "{muls} verifications: no-inversion {new_ms:.3} ms, affine baseline {old_ms:.3} ms \
         ({ratio:.3}x)"
    );
    let single_verify_us = new_ms * 1_000.0 / muls as f64;
    // `ms` is per verification here; the per-item figures follow from the
    // totals.
    for (label, total_ms, speedup) in [
        ("affine-comparison baseline", old_ms, 1.0),
        ("no-inversion two-term", new_ms, ratio),
    ] {
        rows.push(Row {
            ms: total_ms / muls as f64,
            ..Row::timed("single_verify", label, muls, total_ms, speedup)
        });
    }

    // Part C: cold import — the headline gate.
    println!("\nPart C: cold block verification (per-tx scan vs the import path's equations)");
    let block_txs = if quick { 96 } else { 1024 };
    let reps = if quick { 1 } else { 3 };
    let mut scan_tps = 0.0;
    let mut batch_tps = 0.0;
    let mut speedup_single = 0.0;
    for (label, signers) in [("single signer", 1usize), ("distinct signers", block_txs)] {
        let chain = BlobChain::new("e22", block_txs, signers);
        // One cold store per batched call, built before the clock starts.
        let (genesis, validator) = (chain.store.head_state().clone(), chain.validator.clone());
        let stores: Vec<ChainStore> = (0..=reps)
            .map(|_| ChainStore::new(genesis.clone(), &validator))
            .collect();
        let block = chain.block();
        let run = std::slice::from_ref(&block);
        let scan_ms = mean_ms(reps, |_| assert!(scan(&block), "valid block"));
        let batch_ms = mean_ms(reps, |i| drop(stores[i].check_run(run)));
        let proved = |store: &ChainStore| store.sig_cache().len() == block_txs + 1;
        assert!(stores.iter().all(proved), "every signature proved");
        let speedup = scan_ms / batch_ms;
        for (mode, ms, sp) in [
            ("per-tx scan", scan_ms, 1.0),
            ("batched", batch_ms, speedup),
        ] {
            let full = format!("{label}, {mode}");
            rows.push(Row::timed("cold_import", full, block_txs, ms, sp));
        }
        if signers == 1 {
            scan_tps = block_txs as f64 / (scan_ms / 1_000.0);
            batch_tps = block_txs as f64 / (batch_ms / 1_000.0);
            speedup_single = speedup;
        }
    }
    if !quick {
        // The gate is a ratio against the per-tx scan. It stood at 4x
        // while a lone verification walked two separate products; the
        // GLV walk made the scan a third cheaper and left the equation's
        // absolute cost where it was (4.06x became 3.2x).
        assert!(
            speedup_single >= 2.5,
            "batched cold verification must be ≥ 2.5x the per-tx scan \
             (measured {speedup_single:.2}x)"
        );
    }

    // Part D: counters through a real import — batching preserves the
    // one-EC-verify-per-tx accounting.
    println!("\nPart D: batch counters through a cold import\n");
    let registry = Registry::new();
    let k = if quick { 64u64 } else { 256 };
    let BlobChain {
        mut store,
        validator,
        txs,
    } = BlobChain::new("e22", k as usize, 1);
    // Proposing warms the cache; import another replica's view cold by
    // clearing it first, and count the import only.
    let block = store.propose(&validator, 1, txs, &mut NoExecutor);
    store.set_sig_cache(SigCache::new(1 << 16));
    store.set_telemetry(registry.sink());
    store.import(&block, &mut NoExecutor).expect("imports");
    let snap = registry.snapshot();
    let batch_txs = snap.counter(BATCH_TXS_COUNTER).unwrap_or(0);
    let chunks = snap.counter(BATCH_CHUNKS_COUNTER).unwrap_or(0);
    println!(
        "cold import of {k} txs: {batch_txs} batch-verified in {chunks} chunk(s), \
         {} misses, {} hits",
        snap.counter(MISS_COUNTER).unwrap_or(0),
        snap.counter(HIT_COUNTER).unwrap_or(0),
    );
    assert_eq!(
        batch_txs, k,
        "every cold tx goes through the batch equation"
    );
    rows.push(Row {
        section: "counters",
        label: format!("{batch_txs} batch txs / {chunks} chunks"),
        n: k as usize,
        ms: 0.0,
        us_per_item: 0.0,
        per_s: 0.0,
        speedup: 0.0,
    });

    // Part E: mempool admission of one ingest batch — the per-tx scan
    // vs the batched equation behind `ValidatorNode::submit_batch`.
    println!("\nPart E: batch admission (submit loop vs submit_batch)\n");
    let reps = if quick { 1 } else { 5 };
    let sizes: &[usize] = if quick { &[32] } else { &[128, 256] };
    let mut admit_scan_us = 0.0;
    let mut admit_batch_us = 0.0;
    for &n in sizes {
        for (label, signers) in [("single signer", 1usize), ("distinct signers", n)] {
            let txs = BlobChain::new("e22 admit", n, signers).txs;
            let (scan_ms, scan, scan_batched, _) = admit(&txs, &[], reps, false);
            let (batch_ms, batched, batch_txs, fallback) = admit(&txs, &[], reps, true);
            assert_eq!(batched, scan, "batched admission differs from the scan");
            assert_eq!(scan.outcome.accepted, n);
            // One lookup per transaction, a miss; every miss through the
            // equation for the batch, none for the loop.
            assert_eq!((scan.hits, scan.misses), (0, n as u64));
            assert_eq!((scan_batched, batch_txs, fallback), (0, n as u64, 0));
            for (mode, ms, sp) in [
                ("per-tx", scan_ms, 1.0),
                ("batched", batch_ms, scan_ms / batch_ms),
            ] {
                let full = format!("{label}, {mode}");
                rows.push(Row::timed("admission", full, n, ms, sp));
            }
            if signers == 1 && n == sizes[0] {
                admit_scan_us = scan_ms * 1_000.0 / n as f64;
                admit_batch_us = batch_ms * 1_000.0 / n as f64;
            }
        }
    }
    // Half the batch already in the sigcache: those are hits beside the
    // equation, the rest go through it — still one lookup each.
    let n = sizes[0];
    let txs = BlobChain::new("e22 admit", n, 1).txs;
    let cached: Vec<Hash256> = txs.iter().step_by(2).map(Transaction::id).collect();
    let (_, scan, ..) = admit(&txs, &cached, 1, false);
    let (_, batched, batch_txs, _) = admit(&txs, &cached, 1, true);
    assert_eq!(batched, scan, "half-cached batch differs from the scan");
    let half = (n / 2) as u64;
    assert_eq!((scan.hits, scan.misses, batch_txs), (half, half, half));
    // A poisoned batch: the equation fails and decides nothing, the scan
    // finds the one bad signature, everything else is admitted.
    let mut poisoned = txs;
    poisoned[n / 2].fee ^= 1;
    let (scan_ms, scan, ..) = admit(&poisoned, &[], reps, false);
    let (poisoned_ms, batched, batch_txs, fallback) = admit(&poisoned, &[], reps, true);
    assert_eq!(batched, scan, "poisoned batch differs from the scan");
    assert_eq!((scan.outcome.accepted, scan.outcome.rejected), (n - 1, 1));
    assert_eq!((batch_txs, fallback, scan.misses), (0, 1, n as u64));
    let fallback_cost = poisoned_ms / scan_ms;
    rows.push(Row::timed(
        "admission",
        "single signer, poisoned batch (fallback)",
        n,
        poisoned_ms,
        1.0 / fallback_cost,
    ));
    println!(
        "poisoned {n}-tx batch: {poisoned_ms:.3} ms batched vs {scan_ms:.3} ms per-tx \
         ({fallback_cost:.3}x)"
    );
    if !quick {
        // A poisoned batch pays its equation and then the whole scan:
        // 1 + equation/scan, and the scan is what got cheaper.
        assert!(
            fallback_cost <= 1.5,
            "a failed equation must cost little more than the scan it falls back to \
             (measured {fallback_cost:.2}x)"
        );
    }

    println!();
    exp.report(
        "E22",
        "Batch Schnorr verification: MSM kernels, no-inversion single verify, cold import speedup",
        &rows,
    );
    // Perf-trajectory snapshot (`BENCH_e22.json`, schema in
    // `docs/BENCHMARKS.md`): cold verification throughput of the per-tx
    // scan and the batched path (txs/s), their ratio (the headline gate,
    // ≥ 2.5 expected on single-signer blocks at full size), per-point MSM
    // cost at the largest swept size and one no-inversion verification
    // (µs), and per-transaction admission cost of one 128-tx single-signer
    // ingest batch, `submit` loop vs `submit_batch` (µs).
    exp.snapshot(
        "e22_batch_verify",
        vec![
            ("scan_txs_per_s", Value::F64(scan_tps)),
            ("batch_txs_per_s", Value::F64(batch_tps)),
            ("cold_import_speedup", Value::F64(speedup_single)),
            ("msm_us_per_point", Value::F64(msm_us_per_point)),
            ("single_verify_us", Value::F64(single_verify_us)),
            ("admit_scan_us_per_tx", Value::F64(admit_scan_us)),
            ("admit_batch_us_per_tx", Value::F64(admit_batch_us)),
        ],
    );
}
