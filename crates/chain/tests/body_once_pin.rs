//! Body-once oracle: everything `ChainStore` answers about a block's body
//! — `block`, `receipts_of`, `snapshot` bytes and what `restore` rebuilds
//! from them — pinned as hashes of transcripts that were recorded while
//! the store still kept a decoded copy of every windowed block. The
//! scripted chain has a fork, a reorg away and a reorg back, a late fork
//! sibling that stays resident, and heights on both sides of the
//! retention bound, and it is probed at three points: with both branches
//! resident and nothing finalized, right after the reorg back, and at the
//! end with most heights finalized.
//!
//! Re-pinned once for the `TN/state/2` state-root format: every section
//! that hashes over a state root or a block id (`bodies`, `shape`, the
//! `snapshot` digest, `restored`) has a new constant; `receipts` and the
//! three snapshot *lengths* are the ones recorded under the old format.
//! Three sections — historical states and the transaction and account
//! lookups — were deleted with the queries they pinned; every constant
//! left is the one recorded before.

use tn_chain::prelude::*;
use tn_crypto::sha256::sha256;
use tn_crypto::{Hash256, Keypair};
use tn_storage::StorageConfig;

fn key(name: &str) -> Keypair {
    Keypair::from_seed(name.as_bytes())
}

fn config() -> StorageConfig {
    StorageConfig {
        retention: 4,
        checkpoint_interval: 8,
        ..StorageConfig::default()
    }
}

fn fresh_store() -> ChainStore {
    let state = State::genesis([
        (key("alice").address(), 10_000),
        (key("bob").address(), 10_000),
    ]);
    ChainStore::with_config(state, &key("proposer"), config()).expect("builds")
}

/// The one line that differs from the version recorded at the parent
/// commit, where `import` took the block by value.
fn import(store: &mut ChainStore, block: &Block) {
    store
        .import(block, &mut NoExecutor)
        .expect("scripted block imports");
}

fn blob(who: &str, nonce: u64) -> Transaction {
    let data = format!("{who} says {nonce}").into_bytes();
    Transaction::signed(&key(who), nonce, 1, Payload::Blob { tag: 1, data })
}

fn transfer(who: &str, nonce: u64, to: &str, amount: u64) -> Transaction {
    let to = key(to).address();
    Transaction::signed(&key(who), nonce, 2, Payload::Transfer { to, amount })
}

fn call(who: &str, nonce: u64) -> Transaction {
    let payload = Payload::ContractCall {
        contract: key("contract").address(),
        input: vec![nonce as u8; 5],
        gas_limit: 1_000,
    };
    Transaction::signed(&key(who), nonce, 3, payload)
}

/// A store that has imported `blocks` and proposes the next one on top.
fn propose_on(blocks: &[Block], proposer: &str, timestamp: u64, txs: Vec<Transaction>) -> Block {
    let mut shadow = fresh_store();
    for b in blocks {
        import(&mut shadow, b);
    }
    let offered = txs.len();
    let block = shadow.propose(&key(proposer), timestamp, txs, &mut NoExecutor);
    assert_eq!(
        block.transactions.len(),
        offered,
        "every scripted tx is valid"
    );
    block
}

struct Script {
    /// b1..b3, a4..a14: the branch that ends up canonical.
    main: Vec<Block>,
    /// r4, r5 on top of b3: wins for a while, then loses.
    rival: Vec<Block>,
    /// A sibling of a13 on top of a12: never wins, stays resident.
    late: Block,
}

fn script() -> Script {
    let mut main: Vec<Block> = Vec::new();
    let (mut a, mut b) = (0u64, 0u64); // next nonces of alice and bob
    for h in 1..=14u64 {
        let mut txs = vec![blob("alice", a), transfer("bob", b, "carol", 10 + h)];
        a += 1;
        b += 1;
        if h % 3 == 0 {
            txs.push(call("alice", a));
            a += 1;
        }
        if h == 7 {
            // Carol has been paid by now; she spends on the main branch only.
            txs.push(transfer("carol", 0, "alice", 5));
        }
        let block = propose_on(&main, "proposer", 100 + h, txs);
        main.push(block);
    }
    // The rival branch shares alice's blob with a4 (one tx, two blocks)
    // and otherwise differs.
    let base = &main[..3];
    let r4 = propose_on(
        base,
        "rival",
        150,
        vec![blob("alice", 4), transfer("bob", 3, "dave", 77)],
    );
    let mut with_r4 = base.to_vec();
    with_r4.push(r4.clone());
    let r5 = propose_on(&with_r4, "rival", 151, vec![call("bob", 4)]);
    let late = propose_on(&main[..12], "rival", 190, vec![blob("bob", 12)]);
    assert_eq!(main[3].transactions[0].id(), r4.transactions[0].id());
    Script {
        main,
        rival: vec![r4, r5],
        late,
    }
}

fn hex(h: Hash256) -> String {
    h.to_hex()
}

fn opt_hash(bytes: Option<Vec<u8>>) -> String {
    bytes.map_or("none".to_string(), |b| hex(sha256(&b)))
}

/// One line per fact the store reports, hashed per section.
fn transcript(store: &ChainStore, s: &Script) -> Vec<(&'static str, String)> {
    let blocks: Vec<&Block> = s
        .main
        .iter()
        .chain(&s.rival)
        .chain(std::iter::once(&s.late))
        .collect();
    let mut ids: Vec<Hash256> = vec![store.genesis_id()];
    ids.extend(blocks.iter().map(|b| b.id()));

    let mut bodies = String::new();
    let mut receipts = String::new();
    for id in &ids {
        bodies += &opt_hash(store.block(id).map(|b| b.to_bytes()));
        receipts += &opt_hash(store.receipts_of(id).map(|rs| {
            let mut enc = Encoder::new();
            rs.iter().for_each(|r| r.encode(&mut enc));
            enc.finish()
        }));
        bodies.push('\n');
        receipts.push('\n');
    }

    let chain: String = store.canonical_chain().into_iter().map(hex).collect();
    let shape = format!(
        "{chain} len={} resident={} height={} head={}",
        store.len(),
        store.resident_blocks(),
        store.height(),
        hex(store.head_id())
    );

    let snapshot = store.snapshot();
    let restored = ChainStore::restore(&snapshot, &mut NoExecutor).expect("restores");
    assert_eq!(restored.head_id(), store.head_id());
    assert_eq!(restored.canonical_chain(), store.canonical_chain());
    assert_eq!(restored.head_state().root(), store.head_state().root());
    assert_eq!(restored.snapshot(), snapshot, "snapshot is a fixed point");
    let restored_digest = format!(
        "{} {} {}",
        hex(restored.head_id()),
        hex(restored.head_state().root()),
        restored.len()
    );

    let digest = |text: String| hex(sha256(text.as_bytes()));
    vec![
        ("bodies", digest(bodies)),
        ("receipts", digest(receipts)),
        ("shape", digest(shape)),
        (
            "snapshot",
            format!("{} {}", snapshot.len(), hex(sha256(&snapshot))),
        ),
        ("restored", digest(restored_digest)),
    ]
}

fn assert_pinned(point: &str, got: Vec<(&'static str, String)>, want: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = got.iter().map(|(k, v)| (*k, v.as_str())).collect();
    assert_eq!(got, want, "at {point}");
}

#[test]
fn body_queries_match_the_window_era_answers() {
    let s = script();
    let mut store = fresh_store();

    // b1..b3, a4, then the rival branch overtakes: both branches resident.
    for b in &s.main[..4] {
        import(&mut store, b);
    }
    for b in &s.rival {
        import(&mut store, b);
    }
    assert_eq!(store.head_id(), s.rival[1].id(), "reorg onto the rival");
    assert_pinned("both branches resident", transcript(&store, &s), &FORKED);

    // a5 ties with r5, a6 wins the chain back.
    import(&mut store, &s.main[4]);
    import(&mut store, &s.main[5]);
    assert_eq!(store.head_id(), s.main[5].id(), "reorg back");
    assert_pinned("after the reorg back", transcript(&store, &s), &REORGED);

    // a7..a14 push heights 1..=10 out of the window; then a losing sibling
    // of a13 arrives and stays resident.
    for b in &s.main[6..] {
        import(&mut store, b);
        store.maybe_checkpoint(Vec::new()).expect("checkpoints");
    }
    import(&mut store, &s.late);
    assert_eq!(store.head_id(), s.main[13].id());
    assert_eq!(store.storage().finalized_height(), 10);
    assert!(store.block(&s.rival[0].id()).is_none(), "dead fork dropped");
    assert_pinned("most heights finalized", transcript(&store, &s), &SETTLED);
}

const FORKED: [(&str, &str); 5] = [
    (
        "bodies",
        "87723a6b4107c7e4b2c819ff5bac2e3e4fb43bf759711fafb560b4d6a3787a5c",
    ),
    (
        "receipts",
        "35365e5be9cbb16c0c58742f96246115a2da1bb9454e5313c505ebf2f3777dd0",
    ),
    (
        "shape",
        "4e94b712f5af89a0890b8ea337eea5e3527660e0873062a4164a15347a2ad820",
    ),
    (
        "snapshot",
        "3979 c21a96c3e64317e0bbe8b75754a74c76c3b2a0198c113a57616a8768955583c9",
    ),
    (
        "restored",
        "6f1e8f77ef3dd93f9e1a0e690e18446db3f86f86498bcdef583bd2b890ada833",
    ),
];

const REORGED: [(&str, &str); 5] = [
    (
        "bodies",
        "27fc9b0e00e20b071eb22948e919119df8f094c8b0264d8e3c5385aafa8e6e51",
    ),
    (
        "receipts",
        "1502118162f6b98c09c9fda29c9e468d3ca91117bd83210fa14648f0da835b65",
    ),
    (
        "shape",
        "e378987cc61fd1bc4d3d44e3646afca3dbbb6ea3a5945e48aeafe8c653fa68dd",
    ),
    (
        "snapshot",
        "5374 659ae8f2e0d4b4b69a846c65098663d01a8f5703ef09f88599bd9d1847c652f6",
    ),
    (
        "restored",
        "9581ff597078627a18dc20a18cf31b99761fe5b6f9369896814b55c2ec280b1e",
    ),
];

const SETTLED: [(&str, &str); 5] = [
    (
        "bodies",
        "a80161fa1b473f151d9c678e0d297fda9d6c14830fff8acc275e0ee30ff7e704",
    ),
    (
        "receipts",
        "d489d881b9048a417c6e5d99bdb4344132b7590ae2014c9963d94c4450d65f37",
    ),
    (
        "shape",
        "6d1b77e1f22794a5386517572f69bdc96a9f8bf6aeddc8ac2251537861822929",
    ),
    (
        "snapshot",
        "10129 f2cf821ebd3177e7f2e7ed7909870cdd69935427b4a1e1c17030324ee61ec43a",
    ),
    (
        "restored",
        "89d9ee34c31c35554e060560d3efa5cc69645323abc352e306a2f3a7682d77fa",
    ),
];
