//! SHA-256 from the FIPS 180-4 specification: one-shot [`sha256`], the
//! streaming [`Sha256`] and BIP340-style [`tagged_hash`].
//!
//! Every hash in the platform runs through one compression function over
//! a run of whole blocks: on the x86-64 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`) when run-time CPU detection finds them, the
//! state held in two registers from the run's first block to its last,
//! else block by block on the portable FIPS 180-4 rounds, the reference
//! the tests hold the hardware kernel to. `update` hands the whole blocks
//! of its input over in one call (one more for a block it completes in
//! its buffer) and `finalize` its one or two padding blocks in one, so
//! input handed over in one piece costs two calls.
//!
//! The `sha256` group of `cargo bench -p tn-bench --bench crypto_ops`
//! (1 024 hashes per row; medians of five alternating runs on a 2.1 GHz
//! Xeon with the SHA extensions), per hash, before the multi-block kernel
//! (one call per block, the state moved in and out of registers each
//! time) and after:
//!
//! | input                                   | before  | after   |
//! |-----------------------------------------|---------|---------|
//! | 55 B (one block)                        | 189 ns  | 110 ns  |
//! | 516 B, a full trie branch, in one piece | 1.25 µs | 0.59 µs |
//! | the same branch as 4 + 16 × 32 B pieces | 1.43 µs | 0.93 µs |
//! | 4 KiB                                   | 8.80 µs | 4.02 µs |

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

use crate::hash::Hash256;

/// First 32 bits of the fractional parts of the square roots of the first
/// eight primes (FIPS 180-4 §5.3.3): the initial hash state.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2): the round constants.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use tn_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest, tn_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered waiting for a full 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&[block]);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        self.compress(blocks);
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Pads and returns the final digest, consuming the hasher.
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length in
        // the last eight bytes of a block — the buffered one when its bytes
        // and the 0x80 leave room for it, otherwise one more.
        let mut pad = [[0u8; 64]; 2];
        pad[0][..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[0][self.buf_len] = 0x80;
        let last = usize::from(self.buf_len >= 56);
        pad[last][56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&pad[..=last]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash256::from_bytes(out)
    }

    /// Compresses `blocks` into the state in order: on the SHA extensions,
    /// where the CPU has them, in one call that keeps the state in
    /// registers from the first block to the last.
    fn compress(&mut self, blocks: &[[u8; 64]]) {
        if blocks.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if ni::compress(&mut self.state, blocks) {
            return;
        }
        for block in blocks {
            self.compress_portable(block);
        }
    }

    /// The compression as FIPS 180-4 §6.2.2 writes it: the only kernel on
    /// CPUs without the SHA extensions, and the reference for the one with.
    fn compress_portable(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, var) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(var);
        }
    }
}

/// The compression on the x86-64 SHA extensions (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`), selected at run time by CPU detection alone.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use std::arch::x86_64::*;

    /// Compresses `blocks` into `state`; `false` (and `state` untouched)
    /// without the extensions.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        let detected = is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1");
        if detected {
            // SAFETY: `compress_sha` needs only the `sha` and `sse4.1`
            // features (`sse4.1` includes the `ssse3` `pshufb`; it touches
            // no memory but its arguments), both detected just above.
            unsafe { compress_sha(state, blocks) }
        }
        detected
    }

    #[target_feature(enable = "sha,sse4.1")]
    fn compress_sha(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let quad = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
        // `pshufb` control that turns each little-endian lane big-endian.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // Sixteen message bytes as two 64-bit halves, then byte-swapped:
        // four schedule words, the first in the lowest lane.
        let load = |bytes: &[u8; 16]| {
            let halves = bytes.as_chunks::<8>().0;
            let [lo, hi] = [0, 1].map(|i| i64::from_le_bytes(halves[i]));
            _mm_shuffle_epi8(_mm_set_epi64x(hi, lo), swap)
        };
        // The instructions hold the state as (A, B, E, F), (C, D, G, H),
        // A and C highest; it stays there from the first block to the last.
        let s = *state;
        let mut abef = quad([s[5], s[4], s[1], s[0]]);
        let mut cdgh = quad([s[7], s[6], s[3], s[2]]);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let quads = block.as_chunks::<16>().0;
            // W[t..t+4] for t = 0, 4, 8, 12. Each of the first twelve groups
            // of four rounds derives the next four words of the schedule.
            let [mut m0, mut m1, mut m2, mut m3] = [0, 1, 2, 3].map(|i| load(&quads[i]));
            for (group, k) in super::K.as_chunks::<4>().0.iter().enumerate() {
                let wk = _mm_add_epi32(m0, quad(*k));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                if group < 12 {
                    let sum =
                        _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
                    (m0, m1, m2, m3) = (m1, m2, m3, _mm_sha256msg2_epu32(sum, m3));
                } else {
                    (m0, m1, m2) = (m1, m2, m3);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let lanes = |v: __m128i| {
            [
                _mm_extract_epi32(v, 3),
                _mm_extract_epi32(v, 2),
                _mm_extract_epi32(v, 1),
                _mm_extract_epi32(v, 0),
            ]
            .map(|lane| lane as u32)
        };
        let ([a, b, e, f], [c, d, g, h]) = (lanes(abef), lanes(cdgh));
        *state = [a, b, c, d, e, f, g, h];
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// let d = tn_crypto::sha256::sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Tags whose midstate [`tagged_hasher`] keeps. The platform's tags are a
/// few dozen string literals; the bound only stops a caller that derives
/// tags from data from growing the cache without limit (it still gets the
/// right hash, uncached).
const MAX_CACHED_TAGS: usize = 256;

/// A hasher that has absorbed the 64-byte prefix
/// `sha256(tag) || sha256(tag)` of a [`tagged_hash`] and nothing else.
///
/// The prefix is exactly one block, so its effect is a chaining value
/// that depends on the tag alone; it is computed on a tag's first use
/// and copied from a process-wide table afterwards — two compressions
/// saved per hash.
pub fn tagged_hasher(tag: &str) -> Sha256 {
    static MIDSTATES: RwLock<BTreeMap<Box<str>, Sha256>> = RwLock::new(BTreeMap::new());
    // A poisoned lock still guards a valid map: entries are inserted whole.
    if let Some(h) = MIDSTATES
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(tag)
    {
        return h.clone();
    }
    let t = sha256(tag.as_bytes());
    let mut h = Sha256::new();
    h.update(t.as_bytes());
    h.update(t.as_bytes());
    let mut midstates = MIDSTATES.write().unwrap_or_else(PoisonError::into_inner);
    if midstates.len() < MAX_CACHED_TAGS {
        midstates.insert(tag.into(), h.clone());
    }
    h
}

/// Tagged hash in the BIP340 style: `sha256(sha256(tag) || sha256(tag) || data)`.
///
/// Domain-separates the different hash uses in the platform (signature
/// challenges, transaction ids, address derivation, ...).
pub fn tagged_hash(tag: &str, data: &[u8]) -> Hash256 {
    let mut h = tagged_hasher(tag);
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST FIPS 180-4 example vectors plus RFC-known digests.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
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
        ];
        for (input, expect) in cases {
            assert_eq!(&sha256(input).to_hex(), expect, "input {:?}", input);
        }
    }

    #[test]
    fn million_a() {
        // The classic "one million 'a'" vector, exercised via streaming.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u32).map(|i| (i % 251) as u8).collect();
        let whole = sha256(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding around the 55/56/63/64-byte boundaries.
        for len in [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129,
        ] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn every_padding_length_matches_the_definition() {
        // Message lengths 0..=130 cover every position of the 0x80 byte in
        // a block, both sides of the 55/56 boundary where the length field
        // moves to a block of its own, twice over. The reference pads by
        // the letter of FIPS 180-4 §5.1.1 and calls only `compress_portable`.
        let mut all = Sha256::new();
        for len in 0..=130usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let digest = sha256(&data);
            let mut padded = data;
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(len as u64 * 8).to_be_bytes());
            let mut reference = Sha256::new();
            for block in padded.chunks_exact(64) {
                reference.compress_portable(block.try_into().expect("64 bytes"));
            }
            let words = reference.state.map(u32::to_be_bytes).concat();
            assert_eq!(digest.as_bytes()[..], words[..], "len {len}");
            all.update(digest.as_bytes());
        }
        // Recorded while `finalize` still padded a byte at a time.
        assert_eq!(
            all.finalize().to_hex(),
            "969b9f993f9c27e8424a46288c5b7999eee502a7befa92cad6cfef1034d76c51"
        );
    }

    #[test]
    fn tagged_hash_is_the_prefixed_hash_cached_or_not() {
        let mut tags: Vec<String> = ["", "a", "TN/challenge", "TN/txid"]
            .map(String::from)
            .to_vec();
        // More distinct tags than the midstate table keeps.
        tags.extend((0..MAX_CACHED_TAGS + 8).map(|i| format!("test/overflow/{i}")));
        for data in [&b""[..], b"msg", &[0x5a; 200]] {
            // Twice: the first pass fills the table, the second reads it.
            for tag in tags.iter().chain(tags.iter()) {
                let t = sha256(tag.as_bytes());
                let mut prefixed = Vec::from(t.as_bytes().as_slice());
                prefixed.extend_from_slice(t.as_bytes());
                prefixed.extend_from_slice(data);
                assert_eq!(tagged_hash(tag, data), sha256(&prefixed), "tag {tag:?}");
            }
        }
    }

    #[test]
    fn tagged_hash_domain_separates() {
        assert_ne!(tagged_hash("a", b"msg"), tagged_hash("b", b"msg"));
        assert_ne!(tagged_hash("a", b"msg"), sha256(b"msg"));
    }
}
