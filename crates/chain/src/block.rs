//! Blocks and block headers.

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
/// Telemetry counter: batched verifications that failed and fell back to
/// the per-transaction scan (only invalid blocks take this path).
pub const BATCH_FALLBACK_COUNTER: &str = "chain.verify.batch.fallback";

/// Policy for the batched-Schnorr fast path on block verification.
///
/// `chunk` is the number of transactions folded into one batched
/// signature equation. It is a **consensus-visible constant in spirit**:
/// chunk boundaries (and hence the Fiat–Shamir transcripts) depend only on
/// this value, never on the worker count, so replicas with different
/// parallelism compute bit-identical batch equations. Accept/reject
/// outcomes are identical for *any* chunk value — a failing batch falls
/// back to the sequential-semantics per-transaction scan — so the knob
/// only moves performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchVerifyPolicy {
    /// Whether the batch fast path runs at all.
    pub enabled: bool,
    /// Transactions per batched equation (clamped to ≥ 1 at use sites).
    pub chunk: usize,
}

impl BatchVerifyPolicy {
    /// Default transactions per batch equation. Large enough that the
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
    /// Batching on with [`BatchVerifyPolicy::DEFAULT_CHUNK`] transactions
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

    /// [`Block::compute_tx_root`] with transaction hashing and Merkle
    /// reduction fanned out over `pool`. Byte-identical to the sequential
    /// version for every input and worker count.
    pub fn compute_tx_root_par(txs: &[Transaction], pool: &Pool) -> Hash256 {
        Block::ids_and_tx_root(txs, pool).1
    }

    /// Every transaction's id and the Merkle root over them, hashing each
    /// transaction once (fanned out over `pool`).
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
    }

    /// [`Block::build`] for a caller that already holds the transactions'
    /// ids (`ids[i]` must be `transactions[i].id()`), so the transaction
    /// root does not hash them again.
    pub(crate) fn build_identified(
        proposer: &Keypair,
        height: u64,
        parent: Hash256,
        state_root: Hash256,
        timestamp: u64,
        transactions: Vec<Transaction>,
        ids: &[Hash256],
    ) -> Block {
        debug_assert_eq!(ids.len(), transactions.len());
        let header = BlockHeader {
            height,
            parent,
            tx_root: merkle_root(ids.iter().map(|id| id.into_bytes())),
            state_root,
            timestamp,
            proposer: proposer.address(),
        };
        let signature = proposer.sign(&header.digest());
        Block {
            header,
            proposer_key: *proposer.public(),
            signature,
            transactions,
        }
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
    /// [`Block::verify_structure_policy`] against it; block import goes
    /// through that configurable form.
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

    /// [`Block::verify_structure`] as the import path runs it: the
    /// per-transaction work fans out over `pool`, is short-circuited
    /// through a verified-transaction `cache` when one is given (hits bump
    /// `chain.sigcache.hit` on `telemetry`, misses bump
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
    /// `try_check` guarantees first-error semantics). The one header
    /// check a `cache` can shorten is the proposer signature: a block the
    /// owning store proposed itself is recorded there (see
    /// `ChainStore::propose`) and is not verified a second time.
    ///
    /// With batching enabled (and tracing disabled — per-transaction
    /// spans require per-transaction verification), transactions are split
    /// into fixed-size chunks and each chunk's signatures are folded into
    /// one random-linear-combination Schnorr equation seeded by the block
    /// id and chunk index ([`tn_crypto::verify_batch`]). Chunks fan out
    /// over `pool` via [`Pool::map_chunks`], so the equations themselves
    /// are independent of the worker count. Per chunk, cached
    /// transactions are skipped (bumping `chain.sigcache.hit`) and the
    /// rest are batch-verified (bumping `chain.sigcache.miss` and
    /// [`BATCH_TXS_COUNTER`], then populating the cache) — so across
    /// admission → proposal → import each signature still pays at most
    /// one EC verification, exactly like the per-transaction path.
    ///
    /// A valid block is **never** rejected by batching (each term of a
    /// batched equation is the identity precisely when that signature
    /// verifies). When any chunk fails — which implies some transaction
    /// is invalid, up to the 2⁻¹²⁸ soundness error — the whole
    /// transaction list is rescanned with the pool's first-error
    /// `try_check`, so the reported error is byte-identical to the
    /// sequential scan's lowest-index failure for every pool × chunk
    /// configuration ([`BATCH_FALLBACK_COUNTER`] records the rescan).
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
        self.verify_structure_ids(pool, cache, telemetry, trace, parent, policy)
            .map(|_ids| ())
    }

    /// [`Block::verify_structure_policy`], handing back the transaction
    /// ids it computed on the way: the transaction root, the sigcache keys
    /// and the spans all read one hash per transaction, and so can the
    /// caller's receipts and indexes.
    pub(crate) fn verify_structure_ids(
        &self,
        pool: &Pool,
        cache: Option<&SigCache>,
        telemetry: &TelemetrySink,
        trace: &TraceSink,
        parent: u64,
        policy: BatchVerifyPolicy,
    ) -> Result<Vec<Hash256>, ChainError> {
        if self.proposer_key.address() != self.header.proposer {
            return Err(ChainError::AddressMismatch);
        }
        let digest = self.header.digest();
        let signed_here = cache.is_some_and(|c| c.contains(&self.header_sig_memo(&digest)));
        if !signed_here && !self.proposer_key.verify(&digest, &self.signature) {
            return Err(ChainError::BadSignature);
        }
        let (ids, tx_root) = Block::ids_and_tx_root(&self.transactions, pool);
        if tx_root != self.header.tx_root {
            return Err(ChainError::BadTxRoot);
        }
        if policy.enabled
            && !trace.is_enabled()
            && !self.transactions.is_empty()
            && self.batch_verify_txs(&ids, pool, cache, telemetry, policy.chunk)
        {
            return Ok(ids);
        }
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
        .map_err(|(_, err)| err)?;
        Ok(ids)
    }

    /// The `cache` key under which [`crate::store::ChainStore::propose`]
    /// records "this store signed exactly this header": a domain-separated
    /// hash of the header `digest`, the proposer key and the signature, so
    /// it can collide with no transaction id and a hit can only come from
    /// the byte-identical triple the local proposer just produced. Import
    /// of a self-proposed block takes the hit instead of re-verifying its
    /// own signature; blocks from sync, recovery or restore are never
    /// recorded and pay the EC check. The lookup is not a transaction
    /// lookup and moves neither `chain.sigcache.hit` nor `.miss`.
    pub(crate) fn header_sig_memo(&self, digest: &Hash256) -> Hash256 {
        let mut data = [0u8; 32 + 33 + 65];
        data[..32].copy_from_slice(digest.as_bytes());
        data[32..65].copy_from_slice(&self.proposer_key.to_compressed());
        data[65..].copy_from_slice(&self.signature.to_bytes());
        tagged_hash("TN/hdrsig", &data)
    }

    /// Runs the batched signature check over all transactions in
    /// fixed-size chunks fanned out over `pool`. Returns `true` when every
    /// chunk's equation holds — in which case sigcache/batch counters are
    /// bumped and `cache` is populated — and `false` otherwise, deciding
    /// nothing (the caller rescans per-transaction for the exact error).
    ///
    /// Counters are only touched for *successful* chunks, so on the
    /// all-valid path each transaction is counted exactly once (hit or
    /// miss). A failing batch implies an invalid block, where per-import
    /// counter totals are not part of the one-verify-per-tx contract.
    fn batch_verify_txs(
        &self,
        ids: &[Hash256],
        pool: &Pool,
        cache: Option<&SigCache>,
        telemetry: &TelemetrySink,
        chunk: usize,
    ) -> bool {
        let block_id = self.id();
        let chunk = chunk.max(1); // as `map_chunks` clamps it
        let ok = pool
            .map_chunks(&self.transactions, chunk, |ci, txs| {
                // The Fiat–Shamir seed binds the block id and chunk index:
                // replicas chunking the same block derive bit-identical
                // batch coefficients regardless of worker count.
                let mut seed = [0u8; 40];
                seed[..32].copy_from_slice(block_id.as_bytes());
                seed[32..].copy_from_slice(&(ci as u64).to_be_bytes());
                let ids = ids[ci * chunk..].iter().copied();
                batch_verify_chunk(txs.iter().zip(ids), &seed, cache, telemetry)
            })
            .into_iter()
            .all(|chunk_ok| chunk_ok);
        if !ok {
            telemetry.incr(BATCH_FALLBACK_COUNTER);
        }
        ok
    }
}

/// One batched signature equation over `txs` (each paired with its id):
/// the kernel that block import ([`Block::verify_structure_policy`]) and
/// mempool admission ([`crate::mempool::Mempool::insert_batch`]) share.
///
/// Transactions already in `cache` are skipped; the signatures of the
/// rest are folded into one [`verify_batch`] equation seeded by `seed`.
/// Returns `true` when the equation holds, i.e. every transaction of the
/// chunk is known valid — then, and only then, the counters move
/// (`chain.sigcache.hit` per skipped transaction, `chain.sigcache.miss`
/// and [`BATCH_TXS_COUNTER`] per batched one, [`BATCH_CHUNKS_COUNTER`]
/// once) and the batched ids are written to `cache`. Returns `false` on
/// a sender-address mismatch or a failing equation, deciding nothing: the
/// caller rescans its share per transaction for the exact error.
pub(crate) fn batch_verify_chunk<'a>(
    txs: impl Iterator<Item = (&'a Transaction, Hash256)>,
    seed: &[u8],
    cache: Option<&SigCache>,
    telemetry: &TelemetrySink,
) -> bool {
    let mut items: Vec<BatchItem> = Vec::with_capacity(txs.size_hint().0);
    let mut ids = Vec::with_capacity(txs.size_hint().0);
    let mut hits = 0u64;
    for (tx, id) in txs {
        if tx.pubkey.address() != tx.from {
            return false;
        }
        if cache.is_some_and(|c| c.contains(&id)) {
            hits += 1;
            continue;
        }
        let digest = Transaction::signing_digest(&tx.from, tx.nonce, tx.fee, &tx.payload);
        items.push((tx.pubkey, digest, tx.signature));
        ids.push(id);
    }
    if !verify_batch(&items, seed) {
        return false;
    }
    if cache.is_some() {
        if hits > 0 {
            telemetry.add(crate::sigcache::HIT_COUNTER, hits);
        }
        if !ids.is_empty() {
            telemetry.add(crate::sigcache::MISS_COUNTER, ids.len() as u64);
        }
    }
    if !ids.is_empty() {
        telemetry.add(BATCH_TXS_COUNTER, ids.len() as u64);
    }
    telemetry.incr(BATCH_CHUNKS_COUNTER);
    if let Some(cache) = cache {
        for id in ids {
            cache.insert(id);
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
    fn structure_check_hands_back_the_transaction_ids() {
        let (_, block) = sample_block();
        let expect: Vec<Hash256> = block.transactions.iter().map(Transaction::id).collect();
        for policy in [BatchVerifyPolicy::default(), BatchVerifyPolicy::disabled()] {
            let ids = block
                .verify_structure_ids(
                    &Pool::new(2),
                    Some(&SigCache::new(8)),
                    &TelemetrySink::disabled(),
                    &TraceSink::disabled(),
                    0,
                    policy,
                )
                .expect("valid");
            assert_eq!(ids, expect);
        }
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
                Block::compute_tx_root_par(&block.transactions, &Pool::new(4)),
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
        assert_eq!(cache.len(), 16, "every tx cached after batch verify");
        assert_eq!(snap.counter(crate::sigcache::MISS_COUNTER), Some(16));
        assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(16));
        assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(4));
        assert_eq!(snap.counter(crate::sigcache::HIT_COUNTER), None);
        assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), None);
        // Second pass: all txs served from the cache, no new misses.
        block
            .verify_structure_policy(&pool, Some(&cache), &sink, &trace, 0, policy)
            .expect("valid");
        let snap = registry.snapshot();
        assert_eq!(snap.counter(crate::sigcache::MISS_COUNTER), Some(16));
        assert_eq!(snap.counter(crate::sigcache::HIT_COUNTER), Some(16));
        assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(16));
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
