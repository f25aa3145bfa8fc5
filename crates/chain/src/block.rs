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
//! equations ([`tn_crypto::verify_batch`]) of at most [`BATCH_CHUNK`]
//! signatures: an equation takes as many consecutive whole blocks as fit,
//! and only a block larger than that is cut into several. The rule:
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
//! signature itself. Equation boundaries depend only on the run, and each
//! equation's Fiat–Shamir seed binds the id of the first block in it and
//! the chunk index (the coefficients bind every signature, key and
//! message of the chunk), so replicas proving the same run compute
//! bit-identical equations. Tracing never changes how a signature is
//! checked: a `tx.verify` span is recorded by the per-block check alone,
//! the fallback for a block no equation vouched for.

use std::collections::HashSet;

use tn_crypto::merkle::{leaf_hash, merkle_root, merkle_root_of_leaves};
use tn_crypto::sha256::tagged_hash;
use tn_crypto::{verify_batch, Address, BatchItem, Hash256, Keypair, PublicKey, Signature};
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

/// Signatures (a block's proposer signature and its transactions')
/// folded into one batched Schnorr equation: large enough that the
/// Pippenger bucket MSM amortises well. It is a **consensus-visible
/// constant in spirit**: equation boundaries, and hence the Fiat–Shamir
/// transcripts, depend only on it and on the signatures, so replicas
/// compute bit-identical equations. Accept/reject outcomes do not depend
/// on it at all — a failed equation falls back to the sequential-semantics
/// check — so it only moves cost.
pub const BATCH_CHUNK: usize = 512;

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

    /// Everything the import path hashes of this block, computed once: the
    /// checks, the signature equations, the receipts and the indexes all
    /// read these. Each transaction is hashed once; the root is
    /// [`Block::compute_tx_root`]'s.
    pub(crate) fn hashes(&self) -> BlockHashes {
        let (tx_ids, leaves): (Vec<Hash256>, _) = (self.transactions.iter())
            .map(|tx| {
                let id = tx.id();
                (id, leaf_hash(id.as_bytes()))
            })
            .unzip();
        BlockHashes {
            id: self.header.digest(),
            tx_ids,
            tx_root: merkle_root_of_leaves(leaves),
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
        let txs = transactions.into_iter().map(Into::into).collect();
        Block::build_identified(proposer, height, parent, state_root, timestamp, txs).0
    }

    /// [`Block::build`] over transactions paired with their ids (`(tx.id(),
    /// tx)`), so the transaction root does not hash them again. Hands back,
    /// with the block, the header digest it signed — the block's id.
    pub(crate) fn build_identified(
        proposer: &Keypair,
        height: u64,
        parent: Hash256,
        state_root: Hash256,
        timestamp: u64,
        txs: Vec<(Hash256, Transaction)>,
    ) -> (Block, Hash256) {
        let header = BlockHeader {
            height,
            parent,
            tx_root: merkle_root(txs.iter().map(|(id, _)| id.into_bytes())),
            state_root,
            timestamp,
            proposer: proposer.address(),
        };
        let id = header.digest();
        let block = Block {
            header,
            proposer_key: *proposer.public(),
            signature: proposer.sign(&id),
            transactions: txs.into_iter().map(|(_, tx)| tx).collect(),
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
    /// This is the reference verifier: one plain loop, no signature cache,
    /// no batch equation. Tests compare
    /// [`ChainStore::import`](crate::store::ChainStore::import) — the
    /// import path's check of a run of one — against it.
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

    /// The per-block check behind every import that no equation vouched
    /// for: [`Block::verify_structure`]'s checks in its order — proposer
    /// address, proposer signature, transaction root, then every
    /// transaction in order, stopping at the first error — reading
    /// `hashes` (which must be `self.hashes(..)`) instead of hashing
    /// again. A signature found in `cache` is not verified a second time:
    /// a transaction's id is there once it verified anywhere in this
    /// process, a header's [`Block::header_sig_memo`] once this store
    /// signed it or an equation proved it. Each transaction checked
    /// records a `tx.verify` span under `parent` (the importing replica's
    /// `chain.verify` span) with its `index`.
    pub(crate) fn verify_hashed(
        &self,
        hashes: &BlockHashes,
        cache: &SigCache,
        telemetry: &TelemetrySink,
        trace: &TraceSink,
        parent: u64,
    ) -> Result<(), ChainError> {
        if self.proposer_key.address() != self.header.proposer {
            return Err(ChainError::AddressMismatch);
        }
        let known = cache.contains(&self.header_sig_memo(&hashes.id));
        if !known && !self.proposer_key.verify(&hashes.id, &self.signature) {
            return Err(ChainError::BadSignature);
        }
        if hashes.tx_root != self.header.tx_root {
            return Err(ChainError::BadTxRoot);
        }
        let txs = self.transactions.iter().zip(&hashes.tx_ids);
        txs.enumerate().try_for_each(|(i, (tx, id))| {
            let t0 = trace.now_ns();
            let result = cache.verify_identified(tx, *id, telemetry);
            let tx_trace = TraceId::from_seed(id.as_bytes());
            let index = [("index", i as u64)];
            trace.complete(tx_trace, "tx.verify", parent, lanes::VERIFY, t0, &index);
            result
        })
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
    cache: &SigCache,
    telemetry: &TelemetrySink,
    chunk: usize,
) -> Vec<bool> {
    let Some((_, first)) = run.first() else {
        return Vec::new();
    };
    let chunk = chunk.max(1);
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
    let held: Vec<bool> = (claims.chunks(chunk).enumerate())
        .map(|(ci, share)| {
            let mut seed = [0u8; 40];
            seed[..32].copy_from_slice(first.id.as_bytes());
            seed[32..].copy_from_slice(&(ci as u64).to_be_bytes());
            batch_verify_chunk(share.iter().copied(), &seed, cache, telemetry)
        })
        .collect();
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
/// `chunk` signatures ([`batch_verify_chunk`], seeded by `seed`). A failed
/// equation's share is counted ([`BATCH_FALLBACK_COUNTER`]) and left
/// unproved, like everything else, for the caller's in-order loop.
pub(crate) fn prove_txs(
    txs: &[(Hash256, Transaction)],
    mut eligible: impl FnMut(&Hash256) -> bool,
    room: usize,
    seed: &[u8],
    chunk: usize,
    cache: &SigCache,
    telemetry: &TelemetrySink,
) -> Vec<bool> {
    let mut proved = vec![false; txs.len()];
    let (mut in_batch, mut unseen, mut hits) = (HashSet::with_capacity(txs.len()), Vec::new(), 0);
    for (i, (id, tx)) in txs.iter().enumerate() {
        if hits + unseen.len() == room {
            break;
        } else if !in_batch.insert(*id) || !eligible(id) {
            continue;
        } else if cache.contains(id) {
            proved[i] = true;
            hits += 1;
        } else if tx.pubkey.address() == tx.from {
            unseen.push(i);
        }
    }
    if hits > 0 {
        telemetry.add(crate::sigcache::HIT_COUNTER, hits as u64);
    }
    for share in unseen.chunks(chunk.max(1)) {
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
    cache: &SigCache,
    telemetry: &TelemetrySink,
) -> bool {
    let mut items: Vec<BatchItem> = Vec::with_capacity(claims.size_hint().0);
    let mut keys = Vec::with_capacity(claims.size_hint().0);
    let (mut hits, mut headers) = (0u64, 0u64);
    for claim in claims {
        let (key, item) = match claim {
            Claim::Tx(tx, id) => {
                if cache.contains(&id) {
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
                if cache.contains(&memo) {
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
    if hits > 0 {
        telemetry.add(crate::sigcache::HIT_COUNTER, hits);
    }
    if txs > 0 {
        telemetry.add(crate::sigcache::MISS_COUNTER, txs);
        telemetry.add(BATCH_TXS_COUNTER, txs);
    }
    if headers > 0 {
        telemetry.add(BATCH_HEADERS_COUNTER, headers);
    }
    if !keys.is_empty() {
        telemetry.incr(BATCH_CHUNKS_COUNTER);
    }
    for key in keys {
        cache.insert(key);
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
    use tn_crypto::sha256::sha256;

    fn sample_block() -> (Keypair, Block) {
        (Keypair::from_seed(b"proposer"), block_with_txs(2))
    }

    #[test]
    fn built_block_verifies() {
        let (_, block) = sample_block();
        block.verify_structure().expect("valid");
    }

    #[test]
    fn hashes_are_the_digest_the_ids_and_the_root() {
        let (_, block) = sample_block();
        let hashes = block.hashes();
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

    /// `count` blob transactions from three signers in rotation.
    fn rotation(count: usize) -> Vec<Transaction> {
        let keys: Vec<Keypair> = (0..3u8).map(|i| Keypair::from_seed(&[b'k', i])).collect();
        (0..count)
            .map(|i| {
                let data = (i as u32).to_be_bytes().to_vec();
                Transaction::signed(
                    &keys[i % 3],
                    (i / 3) as u64,
                    1,
                    Payload::Blob { tag: 1, data },
                )
            })
            .collect()
    }

    fn block_with_txs(count: usize) -> Block {
        let (proposer, parent) = (Keypair::from_seed(b"proposer"), sha256(b"genesis"));
        Block::build(
            &proposer,
            1,
            parent,
            sha256(b"state"),
            1000,
            rotation(count),
        )
    }

    /// Re-roots and re-signs `block`, so only what was done to its
    /// transactions is wrong with it.
    fn reseal(block: &mut Block) {
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        block.signature = Keypair::from_seed(b"proposer").sign(&block.header.digest());
    }

    /// A deterministic stream of numbers below a bound.
    fn numbers(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |bound| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as usize) % bound.max(1)
        }
    }

    /// The import path's check of a run of one with equations of `chunk`
    /// signatures: the signature pass, then, for a block it did not
    /// prove, the per-block check.
    fn check_one(
        block: &Block,
        cache: &SigCache,
        sink: &TelemetrySink,
        chunk: usize,
    ) -> Result<(), ChainError> {
        let hashes = block.hashes();
        if prove_run(&[(block, &hashes)], cache, sink, chunk)[0] {
            return Ok(());
        }
        block.verify_hashed(&hashes, cache, sink, &TraceSink::disabled(), 0)
    }

    /// `chain.sigcache.{hit,miss}` and `chain.verify.batch.{txs,headers,
    /// chunks,fallback}`, absent as 0.
    fn counts(registry: &tn_telemetry::Registry) -> [u64; 6] {
        let snap = registry.snapshot();
        [
            crate::sigcache::HIT_COUNTER,
            crate::sigcache::MISS_COUNTER,
            BATCH_TXS_COUNTER,
            BATCH_HEADERS_COUNTER,
            BATCH_CHUNKS_COUNTER,
            BATCH_FALLBACK_COUNTER,
        ]
        .map(|name| snap.counter(name).unwrap_or(0))
    }

    // The `parallel_verify_*` and `batch_policy_*` names date from the
    // pooled pass; the pass they check is now one sequential run.
    #[test]
    fn parallel_verify_matches_sequential_on_valid_blocks() {
        let sink = TelemetrySink::disabled();
        for count in [0usize, 1, 2, 7, 33] {
            let block = block_with_txs(count);
            let ids: Vec<Hash256> = block.transactions.iter().map(Transaction::id).collect();
            let hashes = block.hashes();
            assert_eq!(hashes.tx_ids, ids);
            assert_eq!(hashes.tx_root, block.header.tx_root);
            let got = check_one(&block, &SigCache::new(64), &sink, BATCH_CHUNK);
            assert_eq!(got, Ok(()), "count={count}");
        }
    }

    #[test]
    fn parallel_verify_reports_lowest_index_error() {
        // The reference's first error, and in the cache exactly the
        // transactions in front of it.
        let mut next = numbers(0x5eed_5eed);
        for k in 1..=5usize {
            let mut block = block_with_txs(32);
            let corrupted: Vec<usize> = (0..k).map(|c| 6 * c + next(6)).collect();
            for (c, &idx) in corrupted.iter().enumerate() {
                // Alternate kinds so the first error names its index.
                if c % 2 == 0 {
                    block.transactions[idx].fee ^= 1; // BadSignature
                } else {
                    block.transactions[idx].from = Keypair::from_seed(b"eve").address();
                }
            }
            reseal(&mut block);
            let first_bad = *corrupted.iter().min().expect("k >= 1");
            let seq = block.verify_structure();
            assert!(seq.is_err());
            assert_eq!(seq, block.transactions[first_bad].verify());
            let (cache, sink) = (SigCache::new(64), TelemetrySink::disabled());
            let got = check_one(&block, &cache, &sink, BATCH_CHUNK);
            assert_eq!((got, cache.len()), (seq, first_bad), "{k}");
        }
    }

    #[test]
    fn parallel_verify_with_cache_matches_and_hits() {
        let block = block_with_txs(16);
        let (cache, registry) = (SigCache::new(64), tn_telemetry::Registry::new());
        let hashes = block.hashes();
        for _ in 0..2 {
            let trace = TraceSink::disabled();
            let got = block.verify_hashed(&hashes, &cache, &registry.sink(), &trace, 0);
            assert_eq!((got, cache.len()), (Ok(()), 16));
        }
        // The second pass is served entirely from the cache.
        assert_eq!(counts(&registry), [16, 16, 0, 0, 0, 0]);
    }

    #[test]
    fn batch_policy_matches_sequential_verdicts() {
        // Valid and corrupted blocks: the reference's verdict for every
        // chunk size.
        for corrupt in [false, true] {
            for count in [0usize, 1, 5, 33] {
                let mut block = block_with_txs(count);
                if corrupt && count > 0 {
                    block.transactions[count / 2].fee ^= 1;
                    reseal(&mut block);
                }
                let seq = block.verify_structure();
                for chunk in [1usize, 4, 16, BATCH_CHUNK] {
                    let (cache, sink) = (SigCache::new(64), TelemetrySink::disabled());
                    let got = check_one(&block, &cache, &sink, chunk);
                    assert_eq!(got, seq, "{corrupt} {count} {chunk}");
                }
            }
        }
    }

    #[test]
    fn batch_verify_populates_cache_and_counters() {
        let block = block_with_txs(16);
        let (cache, registry) = (SigCache::new(64), tn_telemetry::Registry::new());
        check_one(&block, &cache, &registry.sink(), 4).expect("valid");
        // The proposer's signature leads: 17 signatures, 5 chunks, cached.
        assert_eq!(cache.len(), 17);
        assert_eq!(counts(&registry), [0, 16, 16, 1, 5, 0]);
        // Second pass: every chunk found whole in the cache, no equation.
        check_one(&block, &cache, &registry.sink(), 4).expect("valid");
        assert_eq!(counts(&registry), [16, 16, 16, 1, 5, 0]);
    }

    #[test]
    fn failed_batch_falls_back_and_counts() {
        let mut block = block_with_txs(8);
        block.transactions[3].fee ^= 1;
        reseal(&mut block);
        let registry = tn_telemetry::Registry::new();
        let got = check_one(&block, &SigCache::new(64), &registry.sink(), BATCH_CHUNK);
        assert_eq!(got, block.verify_structure());
        assert!(got.is_err());
        assert_eq!(counts(&registry)[5], 1);
    }

    /// Plants fault `kind` at `txs[at]`: a bad `s`, a flipped `r_x`, a
    /// foreign key (the signer is not `from`), another transaction's
    /// signature, or (4) the transaction before it again.
    fn plant_tx_fault(txs: &mut [Transaction], at: usize, kind: usize) {
        match kind {
            0 => txs[at].signature.s[31] ^= 1,
            1 => txs[at].signature.r_x[5] ^= 0x10,
            2 => {
                let (eve, tx) = (Keypair::from_seed(b"eve"), &txs[at]);
                let digest = Transaction::signing_digest(&tx.from, tx.nonce, tx.fee, &tx.payload);
                (txs[at].signature, txs[at].pubkey) = (eve.sign(&digest), *eve.public());
            }
            3 => txs[at].signature = txs[(at + 3) % txs.len()].signature,
            _ => txs[at] = txs[at.saturating_sub(1)].clone(),
        }
    }

    /// `prove_txs` against its definition: the candidates are, up to
    /// `room`, each id's first copy that is `eligible`; a cached candidate
    /// is a hit; the others whose key is their sender's are cut every
    /// `chunk`, in order, and a share is proved — and cached — exactly
    /// when each of its signatures passes the lone check.
    fn assert_prove_txs(
        txs: &[Transaction],
        cached: usize,
        eligible: fn(usize) -> bool,
        room: usize,
        chunk: usize,
    ) {
        let txs: Vec<(Hash256, Transaction)> = txs.iter().cloned().map(Into::into).collect();
        let valid = |i: usize| txs[i].1.verify().is_ok();
        let cache = SigCache::new(1 << 12);
        let was: HashSet<Hash256> = (0..txs.len())
            .filter(|&i| valid(i))
            .take(cached)
            .map(|i| txs[i].0)
            .collect();
        was.iter().for_each(|id| cache.insert(*id));
        let (mut seen, mut hits, mut unseen) = (HashSet::new(), 0, Vec::new());
        let mut expect = vec![false; txs.len()];
        for (i, (id, tx)) in txs.iter().enumerate() {
            if hits + unseen.len() == room {
                break;
            } else if !seen.insert(*id) || !eligible(i) {
                continue;
            } else if was.contains(id) {
                (expect[i], hits) = (true, hits + 1);
            } else if tx.pubkey.address() == tx.from {
                unseen.push(i);
            }
        }
        let mut counted = [hits as u64, 0, 0, 0, 0, 0];
        let mut expect_cache = was;
        for share in unseen.chunks(chunk) {
            if share.iter().all(|&i| valid(i)) {
                share.iter().for_each(|&i| expect[i] = true);
                expect_cache.extend(share.iter().map(|&i| txs[i].0));
                counted[1] += share.len() as u64;
                counted[2] += share.len() as u64;
                counted[4] += 1;
            } else {
                counted[5] += 1;
            }
        }
        let (registry, ids) = (tn_telemetry::Registry::new(), txs.iter().map(|(id, _)| *id));
        let ids: Vec<Hash256> = ids.collect();
        let is_eligible = |id: &Hash256| ids.iter().position(|i| i == id).is_some_and(eligible);
        let sink = registry.sink();
        let got = prove_txs(&txs, is_eligible, room, b"t", chunk, &cache, &sink);
        let case = format!("n={} cached={cached} room={room} chunk={chunk}", txs.len());
        assert_eq!(got, expect, "{case}");
        let cached_right = ids
            .iter()
            .all(|id| cache.contains(id) == expect_cache.contains(id));
        assert!(cached_right, "{case}");
        assert_eq!(counts(&registry), counted, "{case}");
    }

    #[test]
    fn prove_txs_proves_exactly_the_held_shares_at_every_chunk() {
        let (mut next, clean) = (numbers(0x7e57_c0de), rotation(129));
        for case in 0..48 {
            let count = next(41);
            let mut txs = clean[..count].to_vec();
            for _ in 0..next(4).min(count) {
                plant_tx_fault(&mut txs, next(count), next(5));
            }
            let every_fifth_ineligible: fn(usize) -> bool = |i| i % 5 != 0;
            let eligible = [every_fifth_ineligible, |_| true][usize::from(case % 4 != 0)];
            let room = [next(count + 1), usize::MAX][usize::from(case % 3 != 0)];
            for chunk in [1, 2, 3, 4, 7, 8, 16, 64, 128, BATCH_CHUNK] {
                assert_prove_txs(&txs, next(count + 1), eligible, room, chunk);
            }
        }
        // Both sides of a chunk boundary: clean, and each fault first,
        // last and on the boundary itself.
        for chunk in [64, 128] {
            for count in [chunk - 1, chunk, chunk + 1] {
                assert_prove_txs(&clean[..count], 0, |_| true, usize::MAX, chunk);
                for (kind, at) in
                    (0..5).flat_map(|k| [0, chunk - 1, chunk, count - 1].map(|at| (k, at)))
                {
                    let mut txs = clean[..count].to_vec();
                    plant_tx_fault(&mut txs, at.min(count - 1), kind);
                    assert_prove_txs(&txs, 0, |_| true, usize::MAX, chunk);
                }
            }
        }
    }

    /// `prove_run` against its definition: a block whose transaction root
    /// holds lays out its proposer's signature, then its transactions',
    /// one run of claims cut every `chunk`; an equation over what the cache
    /// lacks holds, and enters the cache, exactly when each of those claims
    /// passes the lone check; a block is proved when it has claims and
    /// every equation holding one held. A later equation meets what an
    /// earlier one cached, and the counters say exactly that.
    fn assert_prove_run(blocks: &[Block], chunk: usize) {
        let mut claims: Vec<(bool, Hash256, bool)> = Vec::new(); // (header, key, valid)
        let spans: Vec<_> = blocks
            .iter()
            .map(|b| {
                let start = claims.len();
                if Block::compute_tx_root(&b.transactions) == b.header.tx_root {
                    let valid = b.proposer_key.address() == b.header.proposer
                        && b.proposer_key.verify(&b.id(), &b.signature);
                    claims.push((true, b.header_sig_memo(&b.id()), valid));
                    let txs = b.transactions.iter();
                    claims.extend(txs.map(|tx| (false, tx.id(), tx.verify().is_ok())));
                }
                start..claims.len()
            })
            .collect();
        let (mut cached, mut held, mut counted) = (HashSet::new(), Vec::new(), [0u64; 6]);
        for share in claims.chunks(chunk) {
            let fresh: Vec<_> = share.iter().filter(|c| !cached.contains(&c.1)).collect();
            held.push(fresh.iter().all(|c| c.2));
            if !held[held.len() - 1] {
                counted[5] += 1;
                continue;
            }
            let headers = fresh.iter().filter(|c| c.0).count() as u64;
            let txs = fresh.len() as u64 - headers;
            counted[0] += share.iter().filter(|c| !c.0).count() as u64 - txs;
            counted[1] += txs;
            counted[2] += txs;
            counted[3] += headers;
            counted[4] += u64::from(!fresh.is_empty());
            cached.extend(fresh.iter().map(|c| c.1));
        }
        let in_held = |s: &std::ops::Range<usize>| {
            !held[s.start / chunk..s.end.div_ceil(chunk)].contains(&false)
        };
        let expect: Vec<bool> = spans.iter().map(|s| !s.is_empty() && in_held(s)).collect();
        let hashes: Vec<BlockHashes> = blocks.iter().map(Block::hashes).collect();
        let run: Vec<(&Block, &BlockHashes)> = blocks.iter().zip(&hashes).collect();
        let (cache, registry) = (SigCache::new(1 << 12), tn_telemetry::Registry::new());
        let got = prove_run(&run, &cache, &registry.sink(), chunk);
        let case = format!("blocks={} chunk={chunk}", blocks.len());
        assert_eq!(got, expect, "{case}");
        assert_eq!(cache.len(), cached.len(), "{case}");
        assert!(cached.iter().all(|key| cache.contains(key)), "{case}");
        assert_eq!(counts(&registry), counted, "{case}");
    }

    /// A run of blocks with `counts[i]` transactions each, and `faults`
    /// planted as (block, kind, transaction): kinds 0–4 a transaction
    /// fault, resealed; 5 a bad proposer signature; 6 a foreign proposer
    /// key; 7 a transaction root that is off; 8 the block twice.
    fn faulty_run(counts: &[usize], faults: &[(usize, usize, usize)]) -> Vec<Block> {
        let (proposer, mut serial) = (Keypair::from_seed(b"proposer"), 0);
        let mut blocks: Vec<Block> = counts
            .iter()
            .zip(1u64..)
            .map(|(&n, h)| {
                let txs = rotation(serial + n).split_off(serial);
                serial += n;
                let parent = sha256(&h.to_be_bytes());
                Block::build(&proposer, h, parent, Hash256::ZERO, 1, txs)
            })
            .collect();
        for &(b, kind, at) in faults {
            let b = b % blocks.len();
            let n = blocks[b].transactions.len();
            match kind {
                0..=4 if n > 0 => {
                    plant_tx_fault(&mut blocks[b].transactions, at % n, kind);
                    reseal(&mut blocks[b]);
                }
                0..=5 => blocks[b].signature.s[31] ^= 1,
                6 => blocks[b].proposer_key = *Keypair::from_seed(b"eve").public(),
                7 => blocks[b].header.tx_root = Hash256::ZERO,
                _ => blocks.insert(b, blocks[b].clone()),
            }
        }
        blocks
    }

    #[test]
    fn prove_run_proves_exactly_the_held_equations_at_every_chunk() {
        let mut next = numbers(0x0dd_ba11);
        for _ in 0..24 {
            let counts: Vec<usize> = (0..1 + next(6)).map(|_| next(7)).collect();
            let faults: Vec<_> = (0..next(3))
                .map(|_| (next(counts.len()), next(9), next(8)))
                .collect();
            for chunk in [1, 2, 3, 4, 5, 7, 16, 64, BATCH_CHUNK] {
                assert_prove_run(&faulty_run(&counts, &faults), chunk);
            }
        }
        // Empty blocks and a block cut in two: 3, 1, 9, 1 and 2
        // signatures in equations of at most 5, each fault on each block.
        for fault in (0..5).flat_map(|b| (0..9).map(move |kind| (b, kind, 1))) {
            assert_prove_run(&faulty_run(&[2, 0, 8, 0, 1], &[fault]), 5);
        }
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
