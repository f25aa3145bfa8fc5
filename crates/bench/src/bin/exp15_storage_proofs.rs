//! E15 (extension) — Storage and proof-size scaling: what the trust
//! machinery costs in bytes as the platform grows.
//!
//! Paper anchor: §VII's scalability worry ("all the global population can
//! be the potential users"). The mechanisms only stay viable if ledger
//! growth is linear in activity and every client-side proof stays
//! logarithmic. This experiment measures: ledger bytes per news item,
//! chain snapshot size, transaction-inclusion proof size, factual-DB
//! inclusion and append-only consistency proof sizes — and, from 10³ to
//! 10⁶ accounts, what the world state costs a block (copy + 128 transfers
//! to new accounts + state root), what each further state the chain store
//! keeps in its window retains, and how large an account proof is.
//!
//! Run: `cargo run -p tn-bench --release --bin exp15_storage_proofs`

use std::time::Instant;

use serde::Serialize;
use tn_bench::scenarios::{StateScale, STATE_SCALE_SIZES};
use tn_bench::Experiment;
use tn_chain::prelude::*;
use tn_crypto::Keypair;
use tn_factdb::corpus::{seeded_database, CorpusConfig};
use tn_supplychain::index::NewsEvent;

#[derive(Debug, Serialize)]
struct ChainRow {
    news_items: usize,
    snapshot_bytes: usize,
    bytes_per_item: f64,
    tx_proof_hashes: usize,
    tx_proof_bytes: usize,
}

#[derive(Debug, Serialize)]
struct DbRow {
    records: usize,
    inclusion_hashes: usize,
    consistency_hashes: usize,
}

#[derive(Debug, Serialize)]
struct StateRow {
    accounts: usize,
    /// Copy the head state, apply the block, take the root: median, µs.
    block_state_us: f64,
    /// The same minus the copy and the root: what applying alone costs.
    apply_only_us: f64,
    /// Heap bytes the post-state holds that its parent state does not.
    window_entry_bytes: usize,
    /// What a full copy of the table would hold: the encoded state.
    full_copy_bytes: usize,
    proof_hashes: usize,
    proof_bytes: usize,
    absence_proof_hashes: usize,
}

fn median_us(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The state-scaling sweep: per-block cost, bytes per window entry and
/// account-proof size against the size of the account table.
fn state_scaling(sizes: &[usize]) -> Vec<StateRow> {
    sizes
        .iter()
        .map(|&accounts| {
            let fixture = StateScale::new(accounts);
            let block_state_us = median_us(15, || {
                std::hint::black_box(fixture.apply_block(fixture.state.clone()).root());
            });
            let apply_only_us = median_us(15, || {
                std::hint::black_box(fixture.apply_block(fixture.state.clone()));
            });
            let next = fixture.apply_block(fixture.state.clone());
            let root = next.root();
            let (present, absent) = fixture.probe_addresses();
            let proof = next.prove(&present);
            assert_eq!(
                proof.verify(&root, &present).expect("proof verifies"),
                Some(next.account(&present))
            );
            let absence = next.prove(&absent);
            assert_eq!(absence.verify(&root, &absent), Ok(None));
            StateRow {
                accounts,
                block_state_us,
                apply_only_us,
                window_entry_bytes: next.unshared_bytes(&fixture.state),
                full_copy_bytes: fixture.state.to_bytes().len(),
                proof_hashes: proof.hashes(),
                proof_bytes: proof.to_bytes().len(),
                absence_proof_hashes: absence.hashes(),
            }
        })
        .collect()
}

fn main() {
    let exp = Experiment::start("E15", "storage and proof-size scaling");

    // ---- chain growth ------------------------------------------------------
    let mut rows = Vec::new();
    for &n_items in &[64usize, 256, 1024] {
        let author = Keypair::from_seed(b"e15 author");
        let validator = Keypair::from_seed(b"e15 validator");
        let genesis = State::genesis([(author.address(), 10_000_000)]);
        let mut store = ChainStore::new(genesis, &validator);
        let mut nonce = 0u64;
        let per_block = 64usize;
        let mut timestamp = 1u64;
        let mut remaining = n_items;
        while remaining > 0 {
            let batch = remaining.min(per_block);
            let txs: Vec<Transaction> = (0..batch)
                .map(|i| {
                    let event = NewsEvent {
                        headline: String::new(),
                        content: format!(
                            "Story {nonce}-{i}: the committee published the quarterly \
                             report and the figures were countersigned by auditors."
                        ),
                        topic: "energy".into(),
                        room: 1,
                        parents: vec![],
                        published_at: timestamp,
                    };
                    let tx = Transaction::signed(&author, nonce, 1, event.into_payload());
                    nonce += 1;
                    tx
                })
                .collect();
            let block = store.propose(&validator, timestamp, txs, &mut NoExecutor);
            store.import(&block, &mut NoExecutor).expect("imports");
            timestamp += 1;
            remaining -= batch;
        }
        let snapshot = store.snapshot();
        let head = store.head();
        let proof = head
            .prove_tx(head.transactions.len() / 2)
            .expect("in range");
        rows.push(ChainRow {
            news_items: n_items,
            snapshot_bytes: snapshot.len(),
            bytes_per_item: snapshot.len() as f64 / n_items as f64,
            tx_proof_hashes: proof.siblings.len(),
            tx_proof_bytes: proof.siblings.len() * 32 + 16,
        });
    }
    exp.report("E15", "chain storage scaling", &rows);

    // ---- factual-DB proof scaling ------------------------------------------
    let mut db_rows = Vec::new();
    for &n in &[64usize, 512, 4096] {
        let db = seeded_database(&CorpusConfig {
            size: n,
            seed: 5,
            start_time: 0,
        });
        let mid = db.iter().nth(n / 2).expect("nonempty").id();
        let (inc, _) = db.prove(&mid).expect("provable");
        // Use a non-power-of-two boundary so the proof shows the general
        // logarithmic case (a 2^k-aligned old tree is a complete subtree
        // and needs only one hash).
        let cons = db.prove_consistency(n / 2 + 3).expect("provable");
        db_rows.push(DbRow {
            records: n,
            inclusion_hashes: inc.siblings.len(),
            consistency_hashes: cons.hashes.len(),
        });
    }
    exp.report("E15b", "factdb proof scaling", &db_rows);

    // ---- world-state scaling -------------------------------------------------
    let sizes = if exp.quick {
        &STATE_SCALE_SIZES[..2]
    } else {
        &STATE_SCALE_SIZES[..]
    };
    let state_rows = state_scaling(sizes);
    exp.report("E15c", "world-state scaling", &state_rows);
    let (small, large) = (&state_rows[0], &state_rows[state_rows.len() - 1]);
    assert!(
        large.window_entry_bytes < 4 * small.window_entry_bytes,
        "a window entry retains what the block wrote, not the table"
    );
    assert!(
        large.proof_hashes <= 16 * 8,
        "account proofs stay logarithmic"
    );
    println!(
        "\nshape check: ledger bytes grow linearly with activity at a stable per-item cost \
         (dominated by signatures + content); every client-side proof — transaction \
         inclusion, factual-record inclusion, append-only consistency — grows \
         logarithmically (~log2(n) hashes of 32 bytes). The trust machinery costs a few \
         hundred bytes per verification regardless of platform size. The world state \
         follows the same law: a thousandfold larger account table costs a block a few \
         times more (one more trie level per factor of 16), a window entry retains the \
         paths the block wrote rather than a copy of the table, and an account proof \
         grows by ~15 hashes per level."
    );
}
