//! Fuzz-style property tests over every untrusted-input surface: decoding
//! arbitrary bytes and calling contracts with arbitrary input must never
//! panic — they return errors. A public blockchain platform feeds
//! attacker-controlled bytes into all of these paths.

use proptest::prelude::*;

use tn_chain::block::Block;
use tn_chain::codec::{Decodable, Decoder};
use tn_chain::state::TxExecutor;
use tn_chain::transaction::Transaction;
use tn_contracts::{
    builtin_address, ContractRegistry, FactDbAdmission, IncentiveContract, NewsroomRegistry,
    RankingContract,
};
use tn_core::roles::IdentityRecord;
use tn_crypto::Keypair;
use tn_factdb::record::FactRecord;
use tn_supplychain::index::NewsEvent;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn transaction_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Transaction::from_bytes(&bytes);
    }

    #[test]
    fn block_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Block::from_bytes(&bytes);
    }

    #[test]
    fn news_event_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = NewsEvent::from_bytes(&bytes);
    }

    #[test]
    fn fact_record_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = FactRecord::from_bytes(&bytes);
    }

    #[test]
    fn identity_record_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = IdentityRecord::from_bytes(&bytes);
    }

    #[test]
    fn decoder_primitives_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut d = Decoder::new(&bytes);
        let _ = d.get_varint();
        let _ = d.get_bytes();
        let _ = d.get_str();
        let _ = d.get_hash();
        let _ = d.get_u64();
        let _ = d.get_bool();
    }

    #[test]
    fn contract_calls_never_panic(
        target in 0usize..5,
        input in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Any bytes a `ContractCall` can carry, to each built-in the
        // platform installs and to an address that holds no contract:
        // an output or an error, never a panic.
        let governor = Keypair::from_seed(b"fuzz governor").address();
        let mut registry = ContractRegistry::new();
        let targets = [
            registry.install_builtin(Box::new(NewsroomRegistry::new())),
            registry.install_builtin(Box::new(RankingContract::new(governor))),
            registry.install_builtin(Box::new(IncentiveContract::new(governor))),
            registry.install_builtin(Box::new(FactDbAdmission::new(governor, 2))),
            builtin_address("no such contract"),
        ];
        for caller in [governor, Keypair::from_seed(b"fuzz stranger").address()] {
            let _ = registry.call(&caller, &targets[target], &input, 10_000);
        }
    }

    #[test]
    fn signed_tx_roundtrip_is_total(nonce in any::<u64>(), fee in any::<u64>(),
                                    data in proptest::collection::vec(any::<u8>(), 0..128)) {
        use tn_chain::codec::Encodable;
        use tn_chain::transaction::Payload;
        let kp = Keypair::from_seed(b"fuzz roundtrip");
        let tx = Transaction::signed(&kp, nonce, fee, Payload::Blob { tag: 1, data });
        let decoded = Transaction::from_bytes(&tx.to_bytes()).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &tx);
        prop_assert!(decoded.verify().is_ok());
    }

    #[test]
    fn similarity_is_total_on_arbitrary_text(a in "\\PC{0,200}", b in "\\PC{0,200}") {
        let s = tn_supplychain::text::similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        let m = tn_supplychain::text::modification_degree(&a, &b);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&m));
    }

    #[test]
    fn lexicon_extraction_is_total(text in "\\PC{0,300}") {
        let f = tn_aidetect::lexicon::LexiconFeatures::extract(&text);
        let score = f.heuristic_score();
        prop_assert!((0.0..=1.0).contains(&score));
    }
}

/// `decode(b) == Ok(x)` must imply `encode(x) == b`: a varint has one
/// encoding, the minimal one. Every 1- and 2-byte input is tried.
#[test]
fn varints_decode_only_from_their_canonical_encoding() {
    use tn_chain::codec::Encoder;
    let inputs = (0..=255u8)
        .map(|b| vec![b])
        .chain((0..=u16::MAX).map(|w| w.to_le_bytes().to_vec()));
    for bytes in inputs {
        let mut d = Decoder::new(&bytes);
        let Ok(v) = d.get_varint() else { continue };
        if d.expect_end().is_err() {
            continue;
        }
        let mut e = Encoder::new();
        e.put_varint(v);
        assert_eq!(e.finish(), bytes, "{bytes:02x?} decodes to {v}");
    }
}

/// A block whose transaction count is written `[0x80, 0x00]` instead of
/// `[0x00]` is not the encoding of any block.
#[test]
fn block_with_non_minimal_transaction_count_is_rejected() {
    use tn_chain::codec::Encodable;
    let kp = Keypair::from_seed(b"fuzz canonical block");
    let block = Block::build(
        &kp,
        1,
        Default::default(),
        Default::default(),
        7,
        Vec::new(),
    );
    let mut bytes = block.to_bytes();
    assert_eq!(bytes.pop(), Some(0x00), "an empty block ends in its count");
    bytes.extend_from_slice(&[0x80, 0x00]);
    assert!(
        Block::from_bytes(&bytes).is_err(),
        "non-minimal count decoded"
    );
}
