//! Golden pins for the signature stack: published secp256k1 points, exact
//! signature and key bytes for fixed inputs, the batch coefficients of a
//! fixed batch, and the digests a short scripted [`Platform`] session
//! commits to. Every value here is a function of mathematics and of the
//! wire format only, so any slip in the field, curve or MSM kernels fails
//! this file rather than surfacing as a cross-run digest mismatch.

use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::ec::mul_generator;
use tn_crypto::hex;
use tn_crypto::sha256::sha256;
use tn_crypto::u256::U256;
use tn_crypto::{batch_coefficients, verify_batch, BatchItem, Keypair, PublicKey};
use tn_supplychain::ops::PropagationOp;

const N_HEX: &str = "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141";

fn compressed_hex(k: &U256) -> String {
    hex::encode(&mul_generator(k).to_compressed())
}

#[test]
fn published_generator_multiples() {
    let n = U256::from_hex(N_HEX).expect("hex constant");
    let cases = [
        (
            U256::ONE,
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        ),
        (
            U256::from_u64(2),
            "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
        ),
        (
            U256::from_u64(3),
            "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
        ),
        (
            n.wrapping_sub(&U256::ONE),
            "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        ),
    ];
    for (k, expect) in cases {
        assert_eq!(compressed_hex(&k), expect, "k={}", k.to_hex());
    }
    // n·G is the identity, which encodes as 33 zero bytes.
    assert_eq!(compressed_hex(&n), "00".repeat(33));
}

/// `(seed, message, compressed public key, 65 signature bytes)`.
const SIGNATURES: [(&str, &str, &str, &str); 3] = [
    (
        "crypto pin: publisher",
        "a publication",
        "0202359ed0f31c437d099d982850b4d4768bce32dd1d902b24cbcb97261efcf6d1",
        "1bb158a0469c9ce9ae25157ea2e84141e83753caa33e50ebcdc4e2422f52fd84003878ba9eac055a32462ceaac2da871810ebfe465fc8ae6c2c81029b7e3c5788e",
    ),
    (
        "crypto pin: reader",
        "a rating of 87",
        "03f43c2eb6e5ffb7fedb17afa6411debe6f495f0d0732b6c0bbb4215f731058144",
        "fe23c6ddc7c8185574b6dfddb829964b2f9b7887493e121c516716b8a593e2200088018d5d68849f8141ade23849c093cd55f4e00dd2383ee0680f57464efe50f1",
    ),
    (
        "crypto pin: fact checker",
        "",
        "0356d5a24e031ee22b48fc17b8cf23fe97961026d8b928dfc36b4149b7a808ea22",
        "91524548a78886d426b725c475009dac2aa725243194509167758cf7b85560a101069ed194d7c26c64aaa0852a533b3e97dfeb37726904faa906e6775c43bbd627",
    ),
];

fn pinned_batch() -> Vec<BatchItem> {
    SIGNATURES
        .iter()
        .map(|(seed, message, _, _)| {
            let kp = Keypair::from_seed(seed.as_bytes());
            let msg = sha256(message.as_bytes());
            (*kp.public(), msg, kp.sign(&msg))
        })
        .collect()
}

#[test]
fn signature_and_key_bytes() {
    for ((pubkey, msg, sig), (seed, _, key_hex, sig_hex)) in pinned_batch().iter().zip(SIGNATURES) {
        assert_eq!(hex::encode(&pubkey.to_compressed()), key_hex, "{seed}");
        assert_eq!(hex::encode(&sig.to_bytes()), sig_hex, "{seed}");
        assert!(pubkey.verify(msg, sig), "{seed}");
        // The decoder lifts y from x: the round trip pins the square root.
        let decoded = PublicKey::from_compressed(&pubkey.to_compressed()).expect("valid key");
        assert_eq!(&decoded, pubkey, "{seed}");
    }
}

#[test]
fn batch_coefficients_of_a_fixed_batch() {
    let items = pinned_batch();
    let zs: Vec<String> = batch_coefficients(&items, b"crypto pin")
        .iter()
        .map(U256::to_hex)
        .collect();
    assert_eq!(
        zs,
        [
            "000000000000000000000000000000000c550821bb70ae87f47e348bdb749d92",
            "0000000000000000000000000000000072c0039a5d488e352624ed8eb4eeea95",
            "00000000000000000000000000000000772ac3c3fbe2ad3509c0c384a90384c7"
        ]
    );
    assert!(verify_batch(&items, b"crypto pin"));
}

/// The head id and the execution digest hash over state roots, so they
/// were re-pinned once, for the `TN/state/2` state-root format; the item
/// id (a transaction id) and every key, signature and coefficient above
/// are the values recorded before it.
#[test]
fn scripted_platform_session_digests() {
    let mut p = Platform::new(PlatformConfig::default());
    let publisher = Keypair::from_seed(b"crypto pin: press");
    let journalist = Keypair::from_seed(b"crypto pin: journalist");
    let reader = Keypair::from_seed(b"crypto pin: subscriber");
    p.register_identity(&publisher, "Pin Press", &[Role::Publisher])
        .expect("publisher");
    p.register_identity(&journalist, "Pin Journalist", &[Role::ContentCreator])
        .expect("journalist");
    p.register_identity(&reader, "Pin Reader", &[Role::Consumer])
        .expect("reader");
    p.produce_block().expect("identities");
    p.create_publisher_platform(&publisher, "Pin Press")
        .expect("platform");
    p.produce_block().expect("platform block");
    let pid = p.newsrooms().find_platform("Pin Press").expect("platform");
    p.create_news_room(&publisher, pid, "science")
        .expect("room");
    p.produce_block().expect("room block");
    let room = p.newsrooms().rooms().next().expect("room").0;
    p.authorize_journalist(&publisher, room, &journalist.address())
        .expect("authorization");
    p.produce_block().expect("authorization block");

    let fact = p.factdb().iter().next().expect("seeded fact").clone();
    let item = p
        .publish_news(
            &journalist,
            room,
            &fact.topic,
            &fact.content,
            vec![(fact.id(), PropagationOp::Cite)],
        )
        .expect("publish");
    p.produce_block().expect("publication block");
    p.submit_rating(&reader, &item, 87).expect("rating");
    p.produce_block().expect("rating block");

    assert_eq!(p.height(), 7);
    assert_eq!(
        item.to_hex(),
        "ec02a247e42f8e90cb99103a4451c77ccd696d96a5a0083fa991d869eacdb860"
    );
    assert_eq!(
        p.store().head_id().to_hex(),
        "77c5c47187b989caa3ae8683775832900ca44a0b1574dfcff89b553cf74c454c"
    );
    assert_eq!(
        p.execution_digest().to_hex(),
        "4adad952e1199b521252bfdb87c37ea03a18762e1164758271316fd4ce74791b"
    );
}
