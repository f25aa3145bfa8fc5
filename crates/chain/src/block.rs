//! Blocks and block headers.
//!
//! ## Signatures are settled by the run
//!
//! A block carries one proposer signature and one signature per
//! transaction. The import path does not verify them one at a time, nor
//! block by block: it takes a **run** of blocks about to be imported in
//! order — a peer's catch-up answer, a stretch of a snapshot or of the WAL
//! tail, or a single block, which is the run of one — and folds every
//! signature of the run this process has not seen into batched Schnorr
//! equations ([`tn_crypto::verify_batch`]) of at most
//! [`BatchVerifyPolicy::chunk`] signatures: an equation takes as many
//! consecutive whole blocks as fit, and only a block larger than that is
//! cut into several. The rule:
//!
//! - **What is proved before what is executed.** Signatures depend on no
//!   chain state, so a whole run's are settled before its first block is
//!   executed. Parent, height, timestamp, execution and state root are
//!   still checked block by block, in order, as each block is imported.
//! - **An equation that holds** records its signatures in the sigcache —
//!   a transaction under its id, a proposer signature under a
//!   domain-separated hash of the exact (header digest, key, signature)
//!   triple — and moves the counters (`chain.verify.batch.txs`,
//!   `.headers`, `.chunks`, `chain.sigcache.miss`).
//! - **An equation that fails** records nothing and decides nothing
//!   ([`BATCH_FALLBACK_COUNTER`] counts it). Every block it touched is
//!   checked again on its own — first as a run of one, then, if that
//!   fails too, by the sequential-semantics check: proposer address,
//!   proposer signature, transaction root, transactions in order. So the
//!   first bad block of a run is refused with exactly the error
//!   [`Block::verify_structure`] names, after every block before it was
//!   imported. A block whose transaction root is off is never put into an
//!   equation and goes the same way.
//! - **A run cut short** — block *k* fails to execute, links to nothing,
//!   or claims the wrong state root — leaves the signatures of the blocks
//!   after *k* in the sigcache although those blocks were never imported.
//!   That is harmless: an entry says only "these exact bytes carry a
//!   valid signature", which is true whether or not the block is ever
//!   accepted, and every other check runs again should the block return.
//!
//! Nothing is ever recorded as verified except by a lone verification
//! that passed, an equation that held, or the store having produced the
//! signature itself. Equation boundaries depend only on the policy and
//! the run, and each equation's Fiat–Shamir seed binds the id of the
//! first block in it and the chunk index (the coefficients bind every
//! signature, key and message of the chunk), so replicas proving the same
//! run compute bit-identical equations whatever their worker count. With tracing on,
//! per-transaction spans need per-transaction verification and no
//! equation is formed.

use std::collections::HashSet;

use tn_crypto::merkle::{leaf_hash, merkle_root, merkle_root_of_leaves_par};
use tn_crypto::sha256::tagged_hash;
use tn_crypto::{verify_batch, Address, BatchItem, Hash256, Keypair, PublicKey, Signature};
use tn_par::Pool;
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, TraceId, TraceSink};

use crate::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::error::ChainError;
use crate::sigcache::SigCache;
use crate::transaction::Transaction;

/// Telemetry counter: chunks whose batched signature equation verified.
pub const BATCH_CHUNKS_COUNTER: &str = "chain.verify.batch.chunks";
/// Telemetry counter: transactions verified through the batch equation
/// (cache hits are counted by `chain.sigcache.hit` instead).
pub const BATCH_TXS_COUNTER: &str = "chain.verify.batch.txs";
/// Telemetry counter: block-header (proposer) signatures verified through
/// the batch equation, beside the transactions of their run.
pub const BATCH_HEADERS_COUNTER: &str = "chain.verify.batch.headers";
/// Telemetry counter: batched verifications that failed and fell back to
/// the per-block, then per-transaction, check (only a run holding an
/// invalid block takes this path).
pub const BATCH_FALLBACK_COUNTER: &str = "chain.verify.batch.fallback";

/// Policy for the batched-Schnorr fast path on block verification.
///
/// `chunk` is the number of signatures (a block's proposer signature and
/// its transactions') folded into one batched signature equation. It is a **consensus-visible constant in spirit**:
/// chunk boundaries (and hence the Fiat–Shamir transcripts) depend only on
/// this value, never on the worker count, so replicas with different
/// parallelism compute bit-identical batch equations. Accept/reject
/// outcomes are identical for *any* chunk value — a failing batch falls
/// back to the sequential-semantics per-block check — so the knob only
/// moves performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchVerifyPolicy {
    /// Whether the batch fast path runs at all.
    pub enabled: bool,
    /// Signatures per batched equation (clamped to ≥ 1 at use sites).
    pub chunk: usize,
}

impl BatchVerifyPolicy {
    /// Default signatures per batch equation. Large enough that the
    /// Pippenger bucket MSM amortises well, small enough that several
    /// chunks exist to spread over verify workers at realistic block
    /// sizes.
    pub const DEFAULT_CHUNK: usize = 512;

    /// Batching off: every transaction pays an individual verification.
    pub fn disabled() -> BatchVerifyPolicy {
        BatchVerifyPolicy {
            enabled: false,
            chunk: Self::DEFAULT_CHUNK,
        }
    }
}

impl Default for BatchVerifyPolicy {
    /// Batching on with [`BatchVerifyPolicy::DEFAULT_CHUNK`] signatures
    /// per equation.
    fn default() -> Self {
        BatchVerifyPolicy {
            enabled: true,
            chunk: Self::DEFAULT_CHUNK,
        }
    }
}

/// A block header: the hash-linked, proposer-signed commitment to a batch
/// of transactions and the resulting state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Parent block id ([`Hash256::ZERO`] for genesis).
    pub parent: Hash256,
    /// Merkle root over the block's transaction ids.
    pub tx_root: Hash256,
    /// State commitment after executing this block.
    pub state_root: Hash256,
    /// Logical timestamp (simulation ticks or milliseconds).
    pub timestamp: u64,
    /// Proposer account.
    pub proposer: Address,
}

impl BlockHeader {
    /// The header digest that the proposer signs and that serves as the
    /// block id.
    pub fn digest(&self) -> Hash256 {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        tagged_hash("TN/block", &enc.finish())
    }
}

impl Encodable for BlockHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.height)
            .put_hash(&self.parent)
            .put_hash(&self.tx_root)
            .put_hash(&self.state_root)
            .put_u64(self.timestamp)
            .put_hash(self.proposer.as_hash());
    }
}

impl Decodable for BlockHeader {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            height: dec.get_u64()?,
            parent: dec.get_hash()?,
            tx_root: dec.get_hash()?,
            state_root: dec.get_hash()?,
            timestamp: dec.get_u64()?,
            proposer: Address::from_hash(dec.get_hash()?),
        })
    }
}

/// A full block: header, proposer signature, and transaction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Proposer's public key.
    pub proposer_key: PublicKey,
    /// Proposer's signature over the header digest.
    pub signature: Signature,
    /// Ordered transactions.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Computes the Merkle root of a transaction list (what `tx_root` must
    /// equal).
    pub fn compute_tx_root(txs: &[Transaction]) -> Hash256 {
        merkle_root(txs.iter().map(|t| t.id().into_bytes()))
    }

    /// Every transaction's id and the Merkle root over them, hashing each
    /// transaction once (fanned out over `pool`). The root is
    /// [`Block::compute_tx_root`]'s for every input and worker count.
    fn ids_and_tx_root(txs: &[Transaction], pool: &Pool) -> (Vec<Hash256>, Hash256) {
        let (ids, leaves) = pool
            .map(txs, |t| {
                let id = t.id();
                (id, leaf_hash(id.as_bytes()))
            })
            .into_iter()
            .unzip();
        (ids, merkle_root_of_leaves_par(leaves, pool))
    }

    /// Everything the import path hashes of this block, computed once: the
    /// checks, the signature equations, the receipts and the indexes all
    /// read these.
    pub(crate) fn hashes(&self, pool: &Pool) -> BlockHashes {
        let (tx_ids, tx_root) = Block::ids_and_tx_root(&self.transactions, pool);
        BlockHashes {
            id: self.header.digest(),
            tx_ids,
            tx_root,
        }
    }

    /// Assembles and signs a block.
    pub fn build(
        proposer: &Keypair,
        height: u64,
        parent: Hash256,
        state_root: Hash256,
        timestamp: u64,
        transactions: Vec<Transaction>,
    ) -> Block {
        let ids: Vec<Hash256> = transactions.iter().map(Transaction::id).collect();
        Block::build_identified(
            proposer,
            height,
            parent,
            state_root,
            timestamp,
            transactions,
            &ids,
        )
        .0
    }

    /// [`Block::build`] for a caller that already holds the transactions'
    /// ids (`ids[i]` must be `transactions[i].id()`), so the transaction
    /// root does not hash them again. Hands back, with the block, the
    /// header digest it signed — the block's id.
    pub(crate) fn build_identified(
        proposer: &Keypair,
        height: u64,
        parent: Hash256,
        state_root: Hash256,
        timestamp: u64,
        transactions: Vec<Transaction>,
        ids: &[Hash256],
    ) -> (Block, Hash256) {
        debug_assert_eq!(ids.len(), transactions.len());
        let header = BlockHeader {
            height,
            parent,
            tx_root: merkle_root(ids.iter().map(|id| id.into_bytes())),
            state_root,
            timestamp,
            proposer: proposer.address(),
        };
        let id = header.digest();
        let block = Block {
            header,
            proposer_key: *proposer.public(),
            signature: proposer.sign(&id),
            transactions,
        };
        (block, id)
    }

    /// The block id (header digest).
    pub fn id(&self) -> Hash256 {
        self.header.digest()
    }

    /// Builds a Merkle inclusion proof for the transaction at `index`
    /// against this block's `tx_root`. Returns `None` when out of range.
    ///
    /// Verify with [`Block::verify_tx_proof`] — this is what lets a light
    /// client check "this news event is really on-chain" from the header
    /// alone.
    pub fn prove_tx(&self, index: usize) -> Option<tn_crypto::merkle::MerkleProof> {
        if index >= self.transactions.len() {
            return None;
        }
        let tree = tn_crypto::merkle::MerkleTree::from_leaves(
            self.transactions
                .iter()
                .map(|t| tn_crypto::merkle::leaf_hash(t.id().as_bytes()))
                .collect(),
        );
        tree.prove(index)
    }

    /// Verifies that a transaction with id `tx_id` is committed under
    /// `tx_root` by `proof`.
    pub fn verify_tx_proof(
        tx_id: &Hash256,
        proof: &tn_crypto::merkle::MerkleProof,
        tx_root: &Hash256,
    ) -> bool {
        proof.verify(&tn_crypto::merkle::leaf_hash(tx_id.as_bytes()), tx_root)
    }

    /// Structural validation: proposer address consistency, proposer
    /// signature, tx-root match, and per-transaction signatures.
    ///
    /// This is the reference verifier: one plain loop, no worker pool, no
    /// signature cache, no batch equation. Tests and experiments compare
    /// [`Block::verify_structure_policy`] — the import path's check of a
    /// run of one — against it.
    ///
    /// # Errors
    ///
    /// [`ChainError::AddressMismatch`], [`ChainError::BadSignature`] or
    /// [`ChainError::BadTxRoot`].
    pub fn verify_structure(&self) -> Result<(), ChainError> {
        if self.proposer_key.address() != self.header.proposer {
            return Err(ChainError::AddressMismatch);
        }
        if !self
            .proposer_key
            .verify(&self.header.digest(), &self.signature)
        {
            return Err(ChainError::BadSignature);
        }
        if Block::compute_tx_root(&self.transactions) != self.header.tx_root {
            return Err(ChainError::BadTxRoot);
        }
        self.transactions.iter().try_for_each(Transaction::verify)
    }

    /// [`Block::verify_structure`] as the import path runs it on one
    /// block: the per-transaction work fans out over `pool`, is
    /// short-circuited through a verified-signature `cache` when one is
    /// given (hits bump `chain.sigcache.hit` on `telemetry`, misses bump
    /// `chain.sigcache.miss` and pay the EC verification), and is batched
    /// according to `policy`. With `trace` enabled, one `tx.verify` span
    /// per transaction is recorded under `parent` (the importing replica's
    /// `chain.verify` span), carrying the verify worker that owned the
    /// transaction's chunk (from [`Pool::chunk_bounds`]) and its index.
    ///
    /// The result is byte-identical to the reference for every worker
    /// count, cache state and policy: header checks run in the same order,
    /// and when several transactions are invalid the error reported is
    /// always the one at the **lowest** transaction index (the pool's
    /// `try_check` guarantees first-error semantics).
    ///
    /// With batching enabled (and tracing disabled), this is the run of
    /// one of the [module-level run rule](self): the proposer's signature
    /// and the transactions' are split into fixed-size chunks and each
    /// chunk is folded into one random-linear-combination Schnorr equation
    /// ([`tn_crypto::verify_batch`]). Per chunk, cached signatures are
    /// skipped (a transaction's bumps `chain.sigcache.hit`) and the rest
    /// are batch-verified (bumping `chain.sigcache.miss` and
    /// [`BATCH_TXS_COUNTER`] per transaction, [`BATCH_HEADERS_COUNTER`]
    /// for the header, then populating the cache) — so across admission →
    /// proposal → import each signature still pays at most one EC
    /// verification, exactly like the per-transaction path.
    ///
    /// A valid block is **never** rejected by batching (each term of a
    /// batched equation is the identity precisely when that signature
    /// verifies). When any chunk fails — which implies some signature is
    /// invalid, up to the 2⁻¹²⁸ soundness error — the block is checked
    /// again from the top, one signature at a time, so the reported error
    /// is byte-identical to the sequential scan's for every pool × chunk
    /// configuration ([`BATCH_FALLBACK_COUNTER`] records the failed
    /// equation).
    ///
    /// # Errors
    ///
    /// Same as [`Block::verify_structure`].
    pub fn verify_structure_policy(
        &self,
        pool: &Pool,
        cache: Option<&SigCache>,
        telemetry: &TelemetrySink,
        trace: &TraceSink,
        parent: u64,
        policy: BatchVerifyPolicy,
    ) -> Result<(), ChainError> {
        let hashes = self.hashes(pool);
        if policy.enabled
            && !trace.is_enabled()
            && prove_run(&[(self, &hashes)], pool, cache, telemetry, policy.chunk)[0]
        {
            return Ok(());
        }
        self.verify_hashed(&hashes, pool, cache, telemetry, trace, parent)
    }

    /// The per-block check behind every import that no equation vouched
    /// for: [`Block::verify_structure`]'s checks in its order — proposer
    /// address, proposer signature, transaction root, then every
    /// transaction at the pool's first-error `try_check` — reading
    /// `hashes` (which must be `self.hashes(..)`) instead of hashing
    /// again. A signature found in `cache` is not verified a second time:
    /// a transaction's id is there once it verified anywhere in this
    /// process, a header's [`Block::header_sig_memo`] once this store
    /// signed it or an equation proved it.
    pub(crate) fn verify_hashed(
        &self,
        hashes: &BlockHashes,
        pool: &Pool,
        cache: Option<&SigCache>,
        telemetry: &TelemetrySink,
        trace: &TraceSink,
        parent: u64,
    ) -> Result<(), ChainError> {
        if self.proposer_key.address() != self.header.proposer {
            return Err(ChainError::AddressMismatch);
        }
        let known = cache.is_some_and(|c| c.contains(&self.header_sig_memo(&hashes.id)));
        if !known && !self.proposer_key.verify(&hashes.id, &self.signature) {
            return Err(ChainError::BadSignature);
        }
        if hashes.tx_root != self.header.tx_root {
            return Err(ChainError::BadTxRoot);
        }
        let ids = &hashes.tx_ids;
        let bounds = if trace.is_enabled() {
            pool.chunk_bounds(self.transactions.len())
        } else {
            Vec::new()
        };
        pool.try_check(&self.transactions, |i, tx| {
            let t0 = trace.now_ns();
            let result = match cache {
                Some(cache) => cache.verify_identified(tx, ids[i], telemetry),
                None => tx.verify(),
            };
            if trace.is_enabled() {
                let worker = bounds
                    .iter()
                    .position(|(lo, hi)| (*lo..*hi).contains(&i))
                    .unwrap_or(0) as u64;
                trace.complete(
                    TraceId::from_seed(ids[i].as_bytes()),
                    "tx.verify",
                    parent,
                    lanes::VERIFY,
                    t0,
                    &[("worker", worker), ("index", i as u64)],
                );
            }
            result
        })
        .map_err(|(_, err)| err)
    }

    /// The `cache` key that records "this exact header digest, proposer
    /// key and signature verified in this process": a domain-separated
    /// hash of the three, so it can collide with no transaction id and a
    /// hit can only come from the byte-identical triple. Two things write
    /// it — [`crate::store::ChainStore::propose`], for a header this store
    /// just signed, and an equation of [`prove_run`] that held — and
    /// nothing else: a failed equation records nothing. The lookup is not
    /// a transaction lookup and moves neither `chain.sigcache.hit` nor
    /// `.miss`.
    pub(crate) fn header_sig_memo(&self, digest: &Hash256) -> Hash256 {
        let mut data = [0u8; 32 + 33 + 65];
        data[..32].copy_from_slice(digest.as_bytes());
        data[32..65].copy_from_slice(&self.proposer_key.to_compressed());
        data[65..].copy_from_slice(&self.signature.to_bytes());
        tagged_hash("TN/hdrsig", &data)
    }
}

/// What the import path hashes of a block ([`Block::hashes`]).
#[derive(Debug, Clone)]
pub(crate) struct BlockHashes {
    /// The header digest: the block id, and what the proposer signed.
    pub(crate) id: Hash256,
    /// `transactions[i].id()`, in order.
    pub(crate) tx_ids: Vec<Hash256>,
    /// The Merkle root over `tx_ids` (what `header.tx_root` must equal).
    pub(crate) tx_root: Hash256,
}

/// One signature put to [`batch_verify_chunk`], with the hash that names
/// it in the sigcache.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Claim<'a> {
    /// A transaction's signature; the hash is its id.
    Tx(&'a Transaction, Hash256),
    /// A block's proposer signature; the hash is the header digest.
    Header(&'a Block, Hash256),
}

/// The signature pass of the [module-level run rule](self): proves every
/// proposer and transaction signature of `run` that `cache` has not seen,
/// in equations of at most `chunk` signatures, before any block of the run
/// is executed. `run` pairs each block with its [`Block::hashes`]. Entry
/// `i` of the result is true when block `i` needs no further signature or
/// structure check: its transaction root matched, its signers matched
/// their addresses, and every equation one of its signatures fell into
/// held. A failed equation is counted ([`BATCH_FALLBACK_COUNTER`]) and
/// leaves the blocks it touched unproved; what it leaves in `cache` is
/// nothing.
pub(crate) fn prove_run(
    run: &[(&Block, &BlockHashes)],
    pool: &Pool,
    cache: Option<&SigCache>,
    telemetry: &TelemetrySink,
    chunk: usize,
) -> Vec<bool> {
    let Some((_, first)) = run.first() else {
        return Vec::new();
    };
    let chunk = chunk.max(1); // as `map_chunks` clamps it
    let mut claims = Vec::new();
    let spans: Vec<_> = run
        .iter()
        .map(|(block, hashes)| {
            let start = claims.len();
            if hashes.tx_root == block.header.tx_root {
                claims.push(Claim::Header(block, hashes.id));
                let txs = block.transactions.iter().zip(&hashes.tx_ids);
                claims.extend(txs.map(|(tx, id)| Claim::Tx(tx, *id)));
            }
            start..claims.len()
        })
        .collect();
    let held = pool.map_chunks(&claims, chunk, |ci, share| {
        let mut seed = [0u8; 40];
        seed[..32].copy_from_slice(first.id.as_bytes());
        seed[32..].copy_from_slice(&(ci as u64).to_be_bytes());
        batch_verify_chunk(share.iter().copied(), &seed, cache, telemetry)
    });
    let failed = held.iter().filter(|held| !**held).count();
    if failed > 0 {
        telemetry.add(BATCH_FALLBACK_COUNTER, failed as u64);
    }
    spans
        .into_iter()
        .map(|span| {
            !span.is_empty()
                && held[span.start / chunk..=(span.end - 1) / chunk]
                    .iter()
                    .all(|held| *held)
        })
        .collect()
}

/// The transaction signature pass that mempool admission
/// ([`crate::mempool::Mempool::insert_batch`]) and block proposal
/// ([`crate::store::ChainStore::propose`] / `commit`) share, on the
/// caller's thread. Entry `i` is true when `txs[i]` (a transaction and its
/// id) needs no further signature check. The candidates are, up to `room`
/// of them, each transaction's first copy that `eligible` accepts and that
/// is either in `cache` (a hit, counted and decided with one lookup) or
/// signed by its sender's key; the unseen ones are proved in equations of
/// `policy.chunk` ([`batch_verify_chunk`], seeded by `seed`). A failed
/// equation's share is counted ([`BATCH_FALLBACK_COUNTER`]) and left
/// unproved, like everything else, for the caller's in-order loop.
pub(crate) fn prove_txs(
    txs: &[(Hash256, Transaction)],
    mut eligible: impl FnMut(&Hash256) -> bool,
    room: usize,
    seed: &[u8],
    policy: BatchVerifyPolicy,
    cache: Option<&SigCache>,
    telemetry: &TelemetrySink,
) -> Vec<bool> {
    let mut proved = vec![false; txs.len()];
    if !policy.enabled {
        return proved;
    }
    let (mut in_batch, mut unseen, mut hits) = (HashSet::with_capacity(txs.len()), Vec::new(), 0);
    for (i, (id, tx)) in txs.iter().enumerate() {
        if hits + unseen.len() == room {
            break;
        } else if !in_batch.insert(*id) || !eligible(id) {
            continue;
        } else if cache.is_some_and(|c| c.contains(id)) {
            proved[i] = true;
            hits += 1;
        } else if tx.pubkey.address() == tx.from {
            unseen.push(i);
        }
    }
    if hits > 0 {
        telemetry.add(crate::sigcache::HIT_COUNTER, hits as u64);
    }
    for share in unseen.chunks(policy.chunk.max(1)) {
        let claims = share.iter().map(|&i| Claim::Tx(&txs[i].1, txs[i].0));
        if batch_verify_chunk(claims, seed, cache, telemetry) {
            share.iter().for_each(|&i| proved[i] = true);
        } else {
            telemetry.incr(BATCH_FALLBACK_COUNTER);
        }
    }
    proved
}

/// One batched signature equation over `claims`: the kernel that block
/// import ([`prove_run`]), mempool admission and block proposal
/// ([`prove_txs`]) share.
///
/// Signatures already in `cache` are skipped; the rest must have signer
/// keys matching their addresses and are folded into one [`verify_batch`]
/// equation seeded by `seed`. Returns `true` when the equation holds, i.e.
/// every signature of the chunk is known valid — then, and only then, the
/// counters move (`chain.sigcache.hit` per skipped transaction,
/// `chain.sigcache.miss` and [`BATCH_TXS_COUNTER`] per batched one,
/// [`BATCH_HEADERS_COUNTER`] per batched header, [`BATCH_CHUNKS_COUNTER`]
/// once if an equation was built) and the batched signatures are written
/// to `cache`. Returns `false` on a signer-address mismatch or a failing
/// equation, deciding nothing: the caller rescans its share for the exact
/// error.
pub(crate) fn batch_verify_chunk<'a>(
    claims: impl Iterator<Item = Claim<'a>>,
    seed: &[u8],
    cache: Option<&SigCache>,
    telemetry: &TelemetrySink,
) -> bool {
    let mut items: Vec<BatchItem> = Vec::with_capacity(claims.size_hint().0);
    let mut keys = Vec::with_capacity(claims.size_hint().0);
    let (mut hits, mut headers) = (0u64, 0u64);
    for claim in claims {
        let (key, item) = match claim {
            Claim::Tx(tx, id) => {
                if cache.is_some_and(|c| c.contains(&id)) {
                    hits += 1;
                    continue;
                }
                if tx.pubkey.address() != tx.from {
                    return false;
                }
                let digest = Transaction::signing_digest(&tx.from, tx.nonce, tx.fee, &tx.payload);
                (id, (tx.pubkey, digest, tx.signature))
            }
            Claim::Header(block, digest) => {
                let memo = block.header_sig_memo(&digest);
                if cache.is_some_and(|c| c.contains(&memo)) {
                    continue;
                }
                if block.proposer_key.address() != block.header.proposer {
                    return false;
                }
                headers += 1;
                (memo, (block.proposer_key, digest, block.signature))
            }
        };
        items.push(item);
        keys.push(key);
    }
    if !verify_batch(&items, seed) {
        return false;
    }
    let txs = keys.len() as u64 - headers;
    if cache.is_some() {
        if hits > 0 {
            telemetry.add(crate::sigcache::HIT_COUNTER, hits);
        }
        if txs > 0 {
            telemetry.add(crate::sigcache::MISS_COUNTER, txs);
        }
    }
    if txs > 0 {
        telemetry.add(BATCH_TXS_COUNTER, txs);
    }
    if headers > 0 {
        telemetry.add(BATCH_HEADERS_COUNTER, headers);
    }
    if !keys.is_empty() {
        telemetry.incr(BATCH_CHUNKS_COUNTER);
    }
    if let Some(cache) = cache {
        for key in keys {
            cache.insert(key);
        }
    }
    true
}

impl Encodable for Block {
    fn encode(&self, enc: &mut Encoder) {
        self.header.encode(enc);
        enc.put_bytes(&self.proposer_key.to_compressed());
        enc.put_bytes(&self.signature.to_bytes());
        enc.put_varint(self.transactions.len() as u64);
        for tx in &self.transactions {
            tx.encode(enc);
        }
    }
}

impl Decodable for Block {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let header = BlockHeader::decode(dec)?;
        let pk: [u8; 33] = dec
            .get_bytes()?
            .try_into()
            .map_err(|_| DecodeError::BadLength(33))?;
        let proposer_key = PublicKey::from_compressed(&pk).ok_or(DecodeError::BadTag(0xfe))?;
        let sig: [u8; 65] = dec
            .get_bytes()?
            .try_into()
            .map_err(|_| DecodeError::BadLength(65))?;
        let signature = Signature::from_bytes(&sig).ok_or(DecodeError::BadTag(0xff))?;
        let n = dec.get_varint()?;
        if n > 1_000_000 {
            return Err(DecodeError::BadLength(n));
        }
        let mut transactions = Vec::with_capacity(n as usize);
        for _ in 0..n {
            transactions.push(Transaction::decode(dec)?);
        }
        Ok(Block {
            header,
            proposer_key,
            signature,
            transactions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Payload;

    fn sample_block() -> (Keypair, Block) {
        let proposer = Keypair::from_seed(b"proposer");
        let alice = Keypair::from_seed(b"alice");
        let txs = vec![
            Transaction::signed(
                &alice,
                0,
                1,
                Payload::Blob {
                    tag: 1,
                    data: vec![1],
                },
            ),
            Transaction::signed(
                &alice,
                1,
                1,
                Payload::Blob {
                    tag: 1,
                    data: vec![2],
                },
            ),
        ];
        let block = Block::build(
            &proposer,
            1,
            tn_crypto::sha256::sha256(b"genesis"),
            tn_crypto::sha256::sha256(b"state"),
            1000,
            txs,
        );
        (proposer, block)
    }

    #[test]
    fn built_block_verifies() {
        let (_, block) = sample_block();
        block.verify_structure().expect("valid");
    }

    #[test]
    fn hashes_are_the_digest_the_ids_and_the_root() {
        let (_, block) = sample_block();
        let hashes = block.hashes(&Pool::new(2));
        let ids: Vec<Hash256> = block.transactions.iter().map(Transaction::id).collect();
        assert_eq!(hashes.id, block.id());
        assert_eq!(hashes.tx_ids, ids);
        assert_eq!(hashes.tx_root, block.header.tx_root);
    }

    #[test]
    fn block_round_trips() {
        let (_, block) = sample_block();
        let decoded = Block::from_bytes(&block.to_bytes()).expect("decodes");
        assert_eq!(decoded, block);
        assert_eq!(decoded.id(), block.id());
    }

    #[test]
    fn tampered_tx_list_detected() {
        let (_, mut block) = sample_block();
        block.transactions.pop();
        assert_eq!(block.verify_structure(), Err(ChainError::BadTxRoot));
    }

    #[test]
    fn tampered_header_detected() {
        let (_, mut block) = sample_block();
        block.header.timestamp += 1;
        assert_eq!(block.verify_structure(), Err(ChainError::BadSignature));
    }

    #[test]
    fn forged_proposer_detected() {
        let (_, mut block) = sample_block();
        let eve = Keypair::from_seed(b"eve");
        block.proposer_key = *eve.public();
        assert_eq!(block.verify_structure(), Err(ChainError::AddressMismatch));
    }

    #[test]
    fn empty_block_is_valid() {
        let proposer = Keypair::from_seed(b"p");
        let block = Block::build(&proposer, 0, Hash256::ZERO, Hash256::ZERO, 0, vec![]);
        block.verify_structure().expect("valid");
        assert_eq!(block.header.tx_root, Hash256::ZERO);
    }

    #[test]
    fn tx_inclusion_proofs() {
        let (_, block) = sample_block();
        for (i, tx) in block.transactions.iter().enumerate() {
            let proof = block.prove_tx(i).expect("in range");
            assert!(Block::verify_tx_proof(
                &tx.id(),
                &proof,
                &block.header.tx_root
            ));
            // Wrong tx id fails.
            let other = block.transactions[(i + 1) % block.transactions.len()].id();
            if other != tx.id() {
                assert!(!Block::verify_tx_proof(
                    &other,
                    &proof,
                    &block.header.tx_root
                ));
            }
        }
        assert!(block.prove_tx(99).is_none());
    }

    /// The configurable verifier with batching off, so the pool's
    /// per-transaction `try_check` path is the one under test.
    fn verify_pooled(
        block: &Block,
        pool: &Pool,
        cache: Option<&SigCache>,
    ) -> Result<(), ChainError> {
        block.verify_structure_policy(
            pool,
            cache,
            &TelemetrySink::disabled(),
            &TraceSink::disabled(),
            0,
            BatchVerifyPolicy::disabled(),
        )
    }

    fn block_with_txs(count: usize) -> Block {
        let proposer = Keypair::from_seed(b"proposer");
        let alice = Keypair::from_seed(b"alice");
        let txs = (0..count)
            .map(|i| {
                Transaction::signed(
                    &alice,
                    i as u64,
                    1,
                    Payload::Blob {
                        tag: 1,
                        data: vec![i as u8],
                    },
                )
            })
            .collect();
        Block::build(
            &proposer,
            1,
            tn_crypto::sha256::sha256(b"genesis"),
            tn_crypto::sha256::sha256(b"state"),
            1000,
            txs,
        )
    }

    #[test]
    fn parallel_verify_matches_sequential_on_valid_blocks() {
        for count in [0usize, 1, 2, 7, 33] {
            let block = block_with_txs(count);
            let seq = block.verify_structure();
            for workers in [1usize, 2, 3, 4, 8] {
                let par = verify_pooled(&block, &Pool::new(workers), None);
                assert_eq!(par, seq, "count={count} workers={workers}");
            }
            assert_eq!(
                Block::ids_and_tx_root(&block.transactions, &Pool::new(4)).1,
                Block::compute_tx_root(&block.transactions),
            );
        }
    }

    #[test]
    fn parallel_verify_reports_lowest_index_error() {
        // Corrupt 1..=k signatures at pseudo-random indices and check every
        // worker count reports exactly the sequential first error.
        let mut rng_state = 0x5eed_5eedu64;
        let mut next = move |bound: usize| {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as usize) % bound
        };
        for k in 1..=5usize {
            let mut block = block_with_txs(32);
            let mut corrupted = Vec::new();
            for c in 0..k {
                let mut idx = next(block.transactions.len());
                while corrupted.contains(&idx) {
                    idx = next(block.transactions.len());
                }
                // Alternate corruption kinds so "which index errored first"
                // is visible in the error value itself.
                if c % 2 == 0 {
                    block.transactions[idx].fee ^= 1; // BadSignature
                } else {
                    block.transactions[idx].from = Keypair::from_seed(b"eve").address();
                    // AddressMismatch
                }
                corrupted.push(idx);
            }
            let first_bad = *corrupted.iter().min().expect("k >= 1");
            let expected = block.transactions[first_bad].verify();
            assert!(expected.is_err());
            // Re-root and re-sign so only the tx signatures are invalid.
            let proposer = Keypair::from_seed(b"proposer");
            block.header.tx_root = Block::compute_tx_root(&block.transactions);
            block.signature = proposer.sign(&block.header.digest());
            let seq = block.verify_structure();
            assert_eq!(seq, expected, "sequential reports the lowest-index error");
            for workers in [1usize, 2, 3, 4, 8] {
                let par = verify_pooled(&block, &Pool::new(workers), None);
                assert_eq!(par, seq, "k={k} workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_verify_with_cache_matches_and_hits() {
        let block = block_with_txs(16);
        let cache = SigCache::new(64);
        let pool = Pool::new(4);
        assert_eq!(verify_pooled(&block, &pool, Some(&cache)), Ok(()));
        assert_eq!(cache.len(), 16);
        // Second pass is served entirely from the cache.
        assert_eq!(verify_pooled(&block, &pool, Some(&cache)), Ok(()));
    }

    #[test]
    fn batch_policy_matches_sequential_verdicts() {
        // Valid and corrupted blocks must produce identical results for
        // every worker count × chunk size, batching on or off.
        for corrupt in [false, true] {
            for count in [0usize, 1, 5, 33] {
                let mut block = block_with_txs(count);
                if corrupt && count > 0 {
                    block.transactions[count / 2].fee ^= 1;
                    let proposer = Keypair::from_seed(b"proposer");
                    block.header.tx_root = Block::compute_tx_root(&block.transactions);
                    block.signature = proposer.sign(&block.header.digest());
                }
                let seq = block.verify_structure();
                for workers in [1usize, 3, 8] {
                    for chunk in [1usize, 4, 16, 512] {
                        let got = block.verify_structure_policy(
                            &Pool::new(workers),
                            None,
                            &TelemetrySink::disabled(),
                            &tn_trace::TraceSink::disabled(),
                            0,
                            BatchVerifyPolicy {
                                enabled: true,
                                chunk,
                            },
                        );
                        assert_eq!(
                            got, seq,
                            "corrupt={corrupt} count={count} workers={workers} chunk={chunk}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_verify_populates_cache_and_counters() {
        let block = block_with_txs(16);
        let cache = crate::sigcache::SigCache::new(64);
        let registry = tn_telemetry::Registry::new();
        let sink = registry.sink();
        let pool = Pool::new(4);
        let policy = BatchVerifyPolicy {
            enabled: true,
            chunk: 4,
        };
        let trace = tn_trace::TraceSink::disabled();
        block
            .verify_structure_policy(&pool, Some(&cache), &sink, &trace, 0, policy)
            .expect("valid");
        let snap = registry.snapshot();
        // The proposer's signature leads the run: 17 signatures, 5 chunks.
        assert_eq!(cache.len(), 17, "header and every tx cached");
        assert_eq!(snap.counter(crate::sigcache::MISS_COUNTER), Some(16));
        assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(16));
        assert_eq!(snap.counter(BATCH_HEADERS_COUNTER), Some(1));
        assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(5));
        assert_eq!(snap.counter(crate::sigcache::HIT_COUNTER), None);
        assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), None);
        // Second pass: everything served from the cache, no new misses —
        // and, every chunk found whole in the cache, no equation counted.
        block
            .verify_structure_policy(&pool, Some(&cache), &sink, &trace, 0, policy)
            .expect("valid");
        let snap = registry.snapshot();
        assert_eq!(snap.counter(crate::sigcache::MISS_COUNTER), Some(16));
        assert_eq!(snap.counter(crate::sigcache::HIT_COUNTER), Some(16));
        assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(16));
        assert_eq!(snap.counter(BATCH_HEADERS_COUNTER), Some(1));
        assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(5));
    }

    #[test]
    fn failed_batch_falls_back_and_counts() {
        let mut block = block_with_txs(8);
        block.transactions[3].fee ^= 1;
        let proposer = Keypair::from_seed(b"proposer");
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        block.signature = proposer.sign(&block.header.digest());
        let registry = tn_telemetry::Registry::new();
        let sink = registry.sink();
        let got = block.verify_structure_policy(
            &Pool::new(2),
            None,
            &sink,
            &tn_trace::TraceSink::disabled(),
            0,
            BatchVerifyPolicy::default(),
        );
        assert_eq!(got, block.verify_structure());
        assert!(got.is_err());
        assert_eq!(registry.snapshot().counter(BATCH_FALLBACK_COUNTER), Some(1));
    }

    #[test]
    fn id_commits_to_transactions() {
        let (proposer, block) = sample_block();
        let other = Block::build(
            &proposer,
            block.header.height,
            block.header.parent,
            block.header.state_root,
            block.header.timestamp,
            vec![],
        );
        assert_ne!(block.id(), other.id());
    }
}
