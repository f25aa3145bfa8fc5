//! Body-once oracle: everything `ChainStore` answers about a block's body
//! — `block`, `receipts_of`, `state_of`, `tx_location`, `account_txs`,
//! `snapshot` bytes and what `restore` rebuilds from them — pinned as
//! hashes of transcripts that were recorded while the store still kept a
//! decoded copy of every windowed block. The scripted chain has a fork, a
//! reorg away and a reorg back, a late fork sibling that stays resident,
//! and heights on both sides of the retention bound, and it is probed at
//! three points: with both branches resident and nothing finalized, right
//! after the reorg back, and at the end with most heights finalized.

use tn_chain::prelude::*;
use tn_crypto::sha256::sha256;
use tn_crypto::{Address, Hash256, Keypair};
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
    let mut states = String::new();
    for id in &ids {
        bodies += &opt_hash(store.block(id).map(|b| b.to_bytes()));
        receipts += &opt_hash(store.receipts_of(id).map(|rs| {
            let mut enc = Encoder::new();
            rs.iter().for_each(|r| r.encode(&mut enc));
            enc.finish()
        }));
        states += &store
            .state_of(id)
            .map_or("none".to_string(), |st| hex(st.root()));
        bodies.push('\n');
        receipts.push('\n');
        states.push('\n');
    }

    let mut locations = String::new();
    for tx in blocks.iter().flat_map(|b| &b.transactions) {
        locations += &match store.tx_location(&tx.id()) {
            Some(loc) => format!("{}:{}\n", loc.height, loc.index),
            None => "none\n".to_string(),
        };
    }

    let mut accounts = String::new();
    for who in ["alice", "bob", "carol", "dave", "contract", "nobody"] {
        let addr: Address = key(who).address();
        for id in store.account_txs(&addr) {
            accounts += &hex(id);
        }
        accounts.push('\n');
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
        ("states", digest(states)),
        ("tx_locations", digest(locations)),
        ("account_txs", digest(accounts)),
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

const FORKED: [(&str, &str); 8] = [
    (
        "bodies",
        "f48a296ae9c20c7a334bc70a9bb15d55505b7ea91d20d1cbe65d0185ef1b4fc4",
    ),
    (
        "receipts",
        "35365e5be9cbb16c0c58742f96246115a2da1bb9454e5313c505ebf2f3777dd0",
    ),
    (
        "states",
        "87a7fba46451f05f1a73646b94f4c39cef6fd38ef1f3ab5f89bb881ce24d2a61",
    ),
    (
        "tx_locations",
        "2073e85cfcf3c0652b89d240b33fb7f54a8cbb42ec065022ba9658f5c41bb417",
    ),
    (
        "account_txs",
        "70ee44ba2b1460fd6d159b438ea5f2f8f9118cad2701e2735bab59584eb7a500",
    ),
    (
        "shape",
        "689ee4996131e6ca61c888f2d87a2afd2a6d0cab1d3937f29556be11a1c8f91e",
    ),
    (
        "snapshot",
        "3979 437080853120edb5535ddd37a3481ec5ce967bf4494de189f5ed192894af5434",
    ),
    (
        "restored",
        "9a784d1594a8e978e5ae3aa817c46793e366ed745f5bbfadc9b3ee7a8d55b519",
    ),
];

const REORGED: [(&str, &str); 8] = [
    (
        "bodies",
        "3b4618ffa7e9a0350887e29c609e56a1cf8c0e53705bc667ca0dd6b256f19ff4",
    ),
    (
        "receipts",
        "1502118162f6b98c09c9fda29c9e468d3ca91117bd83210fa14648f0da835b65",
    ),
    (
        "states",
        "b7e86d37c70175b02b37a6f98d2cd95611996e9831e30e3f739d7d41906bd062",
    ),
    (
        "tx_locations",
        "ce9ec1e07cb560b9b3219a9649e4454642965099934590c101d56485640dac40",
    ),
    (
        "account_txs",
        "d4e6920e5f1b28fa845cdffb8a0b64ca61f19f808bfd98b5cfb6101796ee427e",
    ),
    (
        "shape",
        "56057ade6506f325c6bd587614cfadfb241ae016d3552f25245a73dd62ff175b",
    ),
    (
        "snapshot",
        "5374 7ca501988a08b6a3147496decd191009848bfe839091b32cd4e92dc30bc0c3eb",
    ),
    (
        "restored",
        "f1537ee92b16195738521c43339c8c919eac644be8b21b7313d98a2be07ddc13",
    ),
];

const SETTLED: [(&str, &str); 8] = [
    (
        "bodies",
        "d98e2d0723cc4c9767c911c2ff3ce354482aef5ce5e3f6f11532fd4f680dae1f",
    ),
    (
        "receipts",
        "d489d881b9048a417c6e5d99bdb4344132b7590ae2014c9963d94c4450d65f37",
    ),
    (
        "states",
        "5d6420dedd1890b3a771730fb1e522b01b87bc6f2887b81fa5be33a8844a6b4f",
    ),
    (
        "tx_locations",
        "61f69d7c9afb2bae8b3e29249b38b65764d6e89bcf0ff5049f35639abb17be71",
    ),
    (
        "account_txs",
        "35b5cb8af7e093c250fdfd77fd91278270a2b53e748b1b087c1cd5592a720a13",
    ),
    (
        "shape",
        "ca58523dcfe186fc48df348b8553056b4c613d130ada88df828ab872a7d32f7d",
    ),
    (
        "snapshot",
        "10129 a0522fb48b3e71e863025c9af53b7363d5d880917e98c90f54cfc233a5459bb4",
    ),
    (
        "restored",
        "f9dd495d96127b2209f574fe6f425231d9dd01d7cae82aaf05ead91c5c938b9b",
    ),
];
