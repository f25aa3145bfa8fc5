//! Digest-for-digest oracle for SHA-256.
//!
//! Every hash in the platform — transaction ids, signing digests,
//! addresses, Schnorr nonces and challenges, batch coefficients, Merkle
//! and trie nodes, header ids — runs through one compression function,
//! which on a CPU with the SHA extensions is the hardware kernel and
//! elsewhere the portable FIPS 180-4 rounds. A kernel that is wrong for
//! some inputs forks every replica built on another CPU, so the public
//! hashing surface ([`sha256`], streaming [`Sha256`] at random split
//! points, [`tagged_hash`]) is held here to a reference that shares no
//! code with the crate: padding by the letter of FIPS 180-4 §5.1.1, the
//! rolling sixteen-word schedule instead of the crate's sixty-four-word
//! one, and the round constants and initial state derived from their
//! definition (§4.2.2, §5.3.3) by exact integer roots instead of typed in.

use tn_crypto::sha256::{sha256, tagged_hash, Sha256};

/// The first `n` primes.
fn primes(n: usize) -> Vec<u128> {
    let mut found = Vec::with_capacity(n);
    let mut candidate = 2u128;
    while found.len() < n {
        if found.iter().all(|p| !candidate.is_multiple_of(*p)) {
            found.push(candidate);
        }
        candidate += 1;
    }
    found
}

/// `⌊∛x⌋` by bisection; exact for every `x` below 2^105.
fn icbrt(x: u128) -> u128 {
    let (mut lo, mut hi) = (0u128, 1u128 << 36);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if mid * mid * mid <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The first 32 bits of the fractional part of √p (for `H0`) or ∛p (for
/// `K`): the integer root of `p · 2^64` or `p · 2^96`, modulo 2^32.
fn constants() -> ([u32; 8], [u32; 64]) {
    let ps = primes(64);
    let h0 = std::array::from_fn(|i| (ps[i] << 64).isqrt() as u32);
    let k = std::array::from_fn(|i| icbrt(ps[i] << 96) as u32);
    (h0, k)
}

/// SHA-256 of `msg` by the letter of the standard.
fn reference(msg: &[u8]) -> [u8; 32] {
    let (mut state, k) = constants();
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    for block in padded.chunks(64) {
        let mut w: Vec<u32> = block
            .chunks(4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let mut v = state;
        for (t, &kt) in k.iter().enumerate() {
            if t >= 16 {
                // W[t] overwrites W[t − 16] in a window of sixteen.
                let at = |back: usize| w[(t - back) % 16];
                let (x, y) = (at(15), at(2));
                let sigma0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
                let sigma1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
                w[t % 16] = at(16)
                    .wrapping_add(sigma0)
                    .wrapping_add(at(7))
                    .wrapping_add(sigma1);
            }
            let [a, b, c, d, e, f, g, h] = v;
            let big_sigma1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let choose = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_sigma1)
                .wrapping_add(choose)
                .wrapping_add(kt)
                .wrapping_add(w[t % 16]);
            let big_sigma0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let majority = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_sigma0.wrapping_add(majority);
            v = [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g];
        }
        for (word, x) in state.iter_mut().zip(v) {
            *word = word.wrapping_add(x);
        }
    }
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// `sha256(sha256(tag) ‖ sha256(tag) ‖ msg)` on the reference.
fn reference_tagged(tag: &str, msg: &[u8]) -> [u8; 32] {
    let t = reference(tag.as_bytes());
    reference(&[&t[..], &t[..], msg].concat())
}

/// SplitMix64: a seeded stream that needs nothing from the crate under test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Streams `msg` into a hasher in pieces cut at up to four random points
/// (empty pieces included).
fn streamed(msg: &[u8], rng: &mut Rng) -> [u8; 32] {
    let mut cuts: Vec<usize> = (0..rng.below(5))
        .map(|_| rng.below(msg.len() + 1))
        .collect();
    cuts.sort_unstable();
    let mut h = Sha256::new();
    let mut from = 0;
    for cut in cuts.into_iter().chain([msg.len()]) {
        h.update(&msg[from..cut]);
        from = cut;
    }
    h.finalize().into_bytes()
}

/// Holds every public hashing path to the reference for `msg`.
fn check(msg: &[u8], rng: &mut Rng, what: &str) {
    let expect = reference(msg);
    assert_eq!(sha256(msg).into_bytes(), expect, "sha256, {what}");
    for _ in 0..3 {
        assert_eq!(streamed(msg, rng), expect, "streamed, {what}");
    }
    let tag = ["TN/txid", "TN/challenge", "", "oracle/tag"][rng.below(4)];
    assert_eq!(
        tagged_hash(tag, msg).into_bytes(),
        reference_tagged(tag, msg),
        "tagged {tag:?}, {what}"
    );
}

#[test]
fn derived_constants_are_the_standards() {
    let (h0, k) = constants();
    assert_eq!(h0[0], 0x6a09e667);
    assert_eq!(h0[7], 0x5be0cd19);
    assert_eq!(k[0], 0x428a2f98);
    assert_eq!(k[63], 0xc67178f2);
}

#[test]
fn nist_vectors_on_both_sides() {
    let million_a = vec![b'a'; 1_000_000];
    let cases: [(&[u8], &str); 5] = [
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    let mut rng = Rng(1);
    for (msg, hex) in cases {
        let expect: Vec<u8> = (0..32)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex digit pair"))
            .collect();
        assert_eq!(
            reference(msg)[..],
            expect[..],
            "reference, {} bytes",
            msg.len()
        );
        check(
            msg,
            &mut rng,
            &format!("NIST vector of {} bytes", msg.len()),
        );
    }
}

#[test]
fn every_length_through_two_blocks_and_a_byte() {
    // 0..=130 puts the 0x80 byte at every offset of a block and the
    // length field on both sides of the 55/56 boundary, twice over.
    let mut rng = Rng(7);
    for len in 0..=130 {
        let msg = rng.bytes(len);
        check(&msg, &mut rng, &format!("length {len}"));
    }
}

#[test]
fn ten_thousand_seeded_random_messages() {
    let mut rng = Rng(21);
    for case in 0..10_000 {
        let len = rng.below(301);
        let msg = rng.bytes(len);
        check(&msg, &mut rng, &format!("case {case}, length {len}"));
    }
}

#[test]
fn every_block_count_through_twenty_at_random_splits() {
    // Runs of 0 to 20 whole blocks, then a tail that leaves the padding in
    // the last block or moves it to one of its own: the compression sees
    // runs of every length, entered from the buffer and from a block
    // boundary, with the padding blocks of both kinds behind them.
    let mut rng = Rng(20);
    for blocks in 0..=20 {
        for tail in [0, 1, 32, 55, 56, 63] {
            let msg = rng.bytes(64 * blocks + tail);
            check(&msg, &mut rng, &format!("{blocks} blocks and {tail} bytes"));
        }
    }
}

#[test]
fn trie_branches_streamed_as_header_and_child_hashes() {
    // An account-trie branch: a 4-byte header, then one 32-byte hash per
    // child (up to sixteen), fed piece by piece as well as whole.
    let mut rng = Rng(516);
    for children in 1..=16 {
        let msg = rng.bytes(4 + 32 * children);
        let (header, hashes) = msg.split_at(4);
        let mut h = Sha256::new();
        h.update(header);
        hashes.chunks(32).for_each(|child| h.update(child));
        assert_eq!(
            h.finalize().into_bytes(),
            reference(&msg),
            "{children} children streamed"
        );
        check(&msg, &mut rng, &format!("{children} children"));
    }
}
