//! Microbenchmarks for the cryptographic substrate: hashing, signing,
//! verification and Merkle proofs. These costs dominate chain throughput
//! (every news action is a signed transaction).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tn_crypto::ec::{mul_generator, mul_generator_jacobian, Jacobian};
use tn_crypto::field::Fe;
use tn_crypto::merkle::{leaf_hash, MerkleTree};
use tn_crypto::msm::{double_mul_glv, glv_split, odd_multiples, SignerTables};
use tn_crypto::schnorr::SignerMemo;
use tn_crypto::sha256::{sha256, Sha256};
use tn_crypto::u256::U256;
use tn_crypto::Keypair;

/// SHA-256 by input shape, 1 024 hashes per row (one hash is below what a
/// single timed call resolves): 55 bytes (one block with its padding),
/// one full trie branch (a 4-byte header and sixteen 32-byte child
/// hashes, 516 bytes, nine blocks) in one piece, 4 KiB, and the same
/// branch streamed in seventeen pieces as the trie fed it before.
fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [55usize, 516, 4096] {
        let data = vec![0xabu8; size];
        group.bench_with_input(BenchmarkId::new("x1024", size), &data, |b, d| {
            b.iter(|| {
                for _ in 0..1024 {
                    black_box(sha256(black_box(d)));
                }
            })
        });
    }
    let branch = [0xabu8; 516];
    group.bench_function("x1024/516_streamed_4+16x32", |b| {
        b.iter(|| {
            for _ in 0..1024 {
                let (header, children) = black_box(&branch).split_at(4);
                let mut h = Sha256::new();
                h.update(header);
                children.chunks(32).for_each(|child| h.update(child));
                black_box(h.finalize());
            }
        })
    });
    group.finish();
}

/// `crypto.sign_us` and `crypto.verify_us` in a loop: a signature, a
/// verification by a key its memo has not met (each iteration a new
/// memo), one by a key whose tables the memo holds, and what those tables
/// cost to build — paid once, on a key's second lone verification.
fn bench_schnorr(c: &mut Criterion) {
    let mut group = c.benchmark_group("schnorr");
    let kp = Keypair::from_seed(b"bench signer");
    let msg = sha256(b"benchmark message");
    let sig = kp.sign(&msg);
    group.bench_function("sign", |b| b.iter(|| kp.sign(black_box(&msg))));
    group.bench_function("verify_first_sighting", |b| {
        b.iter(|| assert!(SignerMemo::new().verify(kp.public(), black_box(&msg), &sig)))
    });
    let memo = SignerMemo::new();
    for _ in 0..2 {
        assert!(memo.verify(kp.public(), &msg, &sig));
    }
    group.bench_function("verify_repeat_signer", |b| {
        b.iter(|| assert!(memo.verify(kp.public(), black_box(&msg), black_box(&sig))))
    });
    let point = mul_generator(&U256::from_u64(0x5eed));
    group.bench_function("signer_tables_build", |b| {
        b.iter(|| SignerTables::build(black_box(&point)))
    });
    group.finish();
}

/// The rows beneath `crypto.verify_us`: one field operation, one point
/// operation, one scalar multiplication of each kind.
fn bench_field_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("field_ops");
    let k = U256::from_be_bytes(sha256(b"field_ops scalar").as_bytes());
    let a = Fe::reduce(&U256::from_be_bytes(sha256(b"field_ops a").as_bytes()));
    let b = Fe::reduce(&U256::from_be_bytes(sha256(b"field_ops b").as_bytes()));
    // One multiplication is ~17 ns and one point operation ~0.1–0.25 µs,
    // below what a single timed call can resolve: those rows time
    // dependent chains of 1024 operations.
    group.bench_function("mul_x1024", |g| {
        g.iter(|| (0..1024).fold(black_box(a), |x, _| x * black_box(b)))
    });
    group.bench_function("sqr_x1024", |g| {
        g.iter(|| (0..1024).fold(black_box(a), |x, _| x.sqr()))
    });
    group.bench_function("inv", |g| g.iter(|| black_box(a).inv()));
    group.bench_function("sqrt", |g| g.iter(|| black_box(a).sqr().sqrt()));

    let affine = mul_generator(&U256::from_u64(0x5eed));
    // Two unrelated points with Z ≠ 1, as the kernels meet them.
    let p = mul_generator_jacobian(&k).double();
    let q = mul_generator_jacobian(&U256::from_u64(0xfeed)).double();
    group.bench_function("double_x1024", |g| {
        g.iter(|| (0..1024).fold(black_box(p), |x, _| x.double()))
    });
    group.bench_function("add_affine_x1024", |g| {
        g.iter(|| (0..1024).fold(black_box(p), |x, _| x.add_affine(black_box(&affine))))
    });
    group.bench_function("add_x1024", |g| {
        g.iter(|| (0..1024).fold(black_box(p), |x, _| x.add(black_box(&q))))
    });
    group.bench_function("mul_generator", |g| {
        g.iter(|| mul_generator_jacobian(black_box(&k)))
    });
    // The same product by the generic double-and-add ladder, which the
    // fixed-base table replaced.
    let generator = Jacobian::from_affine(&tn_crypto::ec::GENERATOR);
    group.bench_function("mul_generator_ladder", |g| {
        g.iter(|| black_box(&generator).mul_scalar(black_box(&k)))
    });
    // The lone-verify equation `s·G + k·P` — over a key met for the
    // first time, then over a repeat signer's stored tables — and the
    // first form's two per-call set-up steps: the scalar split and the
    // public key's eight odd multiples.
    let s = U256::from_be_bytes(sha256(b"field_ops s").as_bytes());
    group.bench_function("double_mul_glv", |g| {
        g.iter(|| double_mul_glv(black_box(&s), black_box(&affine), black_box(&k)))
    });
    let tables = SignerTables::build(&affine);
    group.bench_function("double_mul_signer_tables", |g| {
        g.iter(|| tables.double_mul(black_box(&s), black_box(&k)))
    });
    group.bench_function("glv_split_x1024", |g| {
        g.iter(|| (0..1024).fold(black_box(k), |x, _| glv_split(&x)[0].0.wrapping_add(&s)))
    });
    group.bench_function("odd_multiples_table", |g| {
        g.iter(|| odd_multiples(black_box(&affine), 8))
    });
    group.bench_function("to_affine", |g| {
        g.iter(|| Jacobian::to_affine(black_box(&p)))
    });
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    for n in [64usize, 1024] {
        let leaves: Vec<_> = (0..n)
            .map(|i| leaf_hash(&(i as u64).to_le_bytes()))
            .collect();
        group.bench_with_input(BenchmarkId::new("build", n), &leaves, |b, l| {
            b.iter(|| MerkleTree::from_leaves(black_box(l.clone())))
        });
        let tree = MerkleTree::from_leaves(leaves.clone());
        let proof = tree.prove(n / 2).expect("in range");
        let root = tree.root();
        group.bench_with_input(BenchmarkId::new("verify_proof", n), &proof, |b, p| {
            b.iter(|| assert!(p.verify(black_box(&leaves[n / 2]), black_box(&root))))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sha256, bench_schnorr, bench_field_ops, bench_merkle
}
criterion_main!(benches);
