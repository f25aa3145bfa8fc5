//! Isolated micro-runs for the per-layer ledger: one named operation,
//! warm-up, then 2 000 iterations at full size (millisecond-scale
//! operations run a tenth of that), median reported. They are independent
//! of the workload and run once per traced invocation.

use std::time::Instant;

use tn_chain::codec::{Decodable, Encodable};
use tn_chain::prelude::*;
use tn_crypto::merkle::merkle_root;
use tn_crypto::sha256::sha256;
use tn_crypto::{verify_batch, BatchItem, Keypair};
use tn_gateway::Gateway;
use tn_node::ValidatorNode;

use crate::common::{median_us, Outcome};
use crate::inputs::engine_config;
use crate::stats;

/// Signatures per batched-verification equation, and distinct signers.
const BATCH: usize = 512;
const BATCH_SIGNERS: usize = 8;

/// Median µs per call of `f` over `iters` calls after a tenth as many
/// warm-up calls, timing `group` calls per sample so that sub-microsecond
/// operations are not dominated by the clock read.
fn grouped_us(iters: usize, group: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let samples: Vec<f64> = (0..iters.div_ceil(group))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..group {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / group as f64
        })
        .collect();
    stats::median(&samples)
}

/// Runs every micro-run and records its row; `iters` is
/// [`Ctx::micro_iters`](crate::common::Ctx::micro_iters).
pub fn run(out: &mut Outcome, iters: usize) {
    crypto(out, iters);
    codec(out, iters);
    gateway_drain_self(out);
}

fn crypto(out: &mut Outcome, iters: usize) {
    let kp = Keypair::from_seed(b"tn-benchmark/micro");
    let msgs: Vec<_> = (0..64u32).map(|i| sha256(&i.to_le_bytes())).collect();
    let mut i = 0;
    out.layer(
        "crypto.sign_us",
        grouped_us(iters, 1, || {
            i += 1;
            std::hint::black_box(kp.sign(&msgs[i % msgs.len()]));
        }),
    );
    let sigs: Vec<_> = msgs.iter().map(|m| kp.sign(m)).collect();
    let mut all_valid = true;
    out.layer(
        "crypto.verify_us",
        grouped_us(iters, 1, || {
            i += 1;
            let k = i % msgs.len();
            all_valid &= std::hint::black_box(kp.public().verify(&msgs[k], &sigs[k]));
        }),
    );

    let signers: Vec<Keypair> = (0..BATCH_SIGNERS)
        .map(|s| Keypair::from_seed(format!("tn-benchmark/micro/batch/{s}").as_bytes()))
        .collect();
    let items: Vec<BatchItem> = (0..BATCH)
        .map(|j| {
            let signer = &signers[j % BATCH_SIGNERS];
            let msg = sha256(&(j as u64).to_le_bytes());
            (*signer.public(), msg, signer.sign(&msg))
        })
        .collect();
    all_valid &= verify_batch(&items, b"warm-up");
    let per_batch = median_us(iters.div_ceil(BATCH), || {
        all_valid &= verify_batch(&items, b"tn-benchmark");
    });
    out.layer("crypto.verify_batch_us_per_sig", per_batch / BATCH as f64);
    out.check("micro: every signature verifies", all_valid);

    let buf = vec![0xa5u8; 64 * 1024];
    let per_buf = grouped_us(iters / 10, 5, || {
        std::hint::black_box(sha256(std::hint::black_box(&buf)));
    });
    out.layer(
        "crypto.sha256_ns_per_byte",
        per_buf * 1e3 / buf.len() as f64,
    );

    let leaves: Vec<[u8; 32]> = (0..1024u32)
        .map(|j| sha256(&j.to_le_bytes()).into_bytes())
        .collect();
    let per_tree = grouped_us(iters / 10, 5, || {
        std::hint::black_box(merkle_root(leaves.iter()));
    });
    out.layer("crypto.merkle_us_per_leaf", per_tree / leaves.len() as f64);
}

fn codec(out: &mut Outcome, iters: usize) {
    let kp = Keypair::from_seed(b"tn-benchmark/micro/codec");
    let tx = Transaction::signed(
        &kp,
        7,
        1,
        Payload::ContractCall {
            contract: kp.address(),
            input: vec![0x42; 48],
            gas_limit: 10_000,
        },
    );
    let bytes = tx.to_bytes();
    out.layer(
        "chain.tx_encode_ns",
        grouped_us(iters, 50, || {
            std::hint::black_box(std::hint::black_box(&tx).to_bytes());
        }) * 1e3,
    );
    let mut decoded_ok = true;
    out.layer(
        "chain.tx_decode_ns",
        grouped_us(iters, 50, || {
            decoded_ok &= Transaction::from_bytes(std::hint::black_box(&bytes)).is_ok();
        }) * 1e3,
    );
    out.check("micro: transaction codec round-trips", decoded_ok);
}

/// The gateway drain's own cost. Admission runs *inside*
/// `Gateway::drain_into`, so it cannot be subtracted span by span from
/// outside; instead the drain is timed against a node whose mempool
/// already holds every transaction, where each insert returns at the
/// duplicate check before any signature work. What remains is lane pops,
/// batching and bookkeeping.
fn gateway_drain_self(out: &mut Outcome) {
    const N: usize = 512;
    let config = engine_config();
    let kp = Keypair::from_seed(b"tn-benchmark/micro/drain");
    let txs: Vec<Transaction> = (0..N as u64)
        .map(|n| {
            Transaction::signed(
                &kp,
                n,
                0,
                Payload::Transfer {
                    to: kp.address(),
                    amount: 0,
                },
            )
        })
        .collect();
    let mut node = ValidatorNode::new(0, &config);
    let held = node.submit_batch(txs.clone()).accepted;
    let mut gw = Gateway::new(&config.gateway).expect("default gateway config is valid");
    let mut samples = Vec::new();
    let mut all_duplicates = true;
    for round in 0..8u64 {
        for (i, tx) in txs.iter().enumerate() {
            gw.offer(1 + (i % 8) as u64, tx.clone(), round);
        }
        let t = Instant::now();
        let report = gw.drain_into(&mut node);
        samples.push(t.elapsed().as_secs_f64() * 1e6 / N as f64);
        all_duplicates &= report.rejected == N && report.accepted == 0;
    }
    out.layer("gateway.drain_self_us_per_tx", stats::median(&samples));
    out.check(
        "micro: drain probe met only duplicate rejects",
        held == N && all_duplicates,
    );
}
