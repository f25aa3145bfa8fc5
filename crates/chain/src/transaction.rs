//! Signed transactions on the news chain.
//!
//! Every action in the platform — publishing a news item, relaying it,
//! voting on its truthfulness, anchoring the factual-database root — is a
//! [`Transaction`] signed by the acting account. The paper's accountability
//! and traceability properties ("each record is signed and easy to track…
//! can't deny that he/she has created this news") come directly from this
//! structure.

use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256, Keypair, PublicKey, Signature};

use crate::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::error::ChainError;

/// The action a transaction performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Moves platform tokens (the incentive currency of §V) to another
    /// account.
    Transfer {
        /// Recipient address.
        to: Address,
        /// Token amount.
        amount: u64,
    },
    /// Carries an opaque domain record (news publication, propagation edge,
    /// rating, …). The `tag` namespaces the record type; the payload
    /// encoding is owned by the upper layer that defines the tag.
    Blob {
        /// Record-type tag (see [`blob_tags`]).
        tag: u16,
        /// Canonical record bytes.
        data: Vec<u8>,
    },
    /// Calls a built-in contract. (Encoding tag 2, once bytecode
    /// deployment, is retired: it decodes as [`DecodeError::BadTag`].)
    ContractCall {
        /// Contract account.
        contract: Address,
        /// ABI-encoded input.
        input: Vec<u8>,
        /// Gas limit the sender is willing to pay for.
        gas_limit: u64,
    },
    /// Anchors an external Merkle root (e.g. the factual database) under a
    /// namespace. Only the namespace owner may update it.
    AnchorRoot {
        /// Namespace, e.g. `"factdb"`.
        namespace: String,
        /// The committed root.
        root: Hash256,
    },
}

/// Well-known blob tags used by the upper layers. Collected here so tag
/// collisions are impossible to introduce silently.
pub mod blob_tags {
    /// News item publication (tn-supplychain).
    pub const NEWS_PUBLISH: u16 = 1;
    /// News propagation edge (tn-supplychain).
    pub const NEWS_PROPAGATE: u16 = 2;
    /// Crowd-sourced truthfulness rating (tn-crowdrank).
    pub const RATING: u16 = 3;
    // 4–6 are unassigned: newsroom registration and fact attestation are
    // contract calls, not blobs.
    /// Identity verification record (tn-core, "identification verified
    /// persons" of §V).
    pub const IDENTITY: u16 = 7;
    /// Fact-record proposal (tn-core): a candidate fact published on
    /// chain, admitted into the factual DB once enough attestations
    /// (calls to the fact-admission contract) accumulate. Putting
    /// proposals on chain makes fact admission a pure function of block
    /// history, so it can live in a replayable projection.
    pub const FACT_PROPOSE: u16 = 8;
}

impl Encodable for Payload {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Payload::Transfer { to, amount } => {
                enc.put_u8(0).put_hash(to.as_hash()).put_u64(*amount);
            }
            Payload::Blob { tag, data } => {
                enc.put_u8(1).put_u32(*tag as u32).put_bytes(data);
            }
            Payload::ContractCall {
                contract,
                input,
                gas_limit,
            } => {
                enc.put_u8(3)
                    .put_hash(contract.as_hash())
                    .put_bytes(input)
                    .put_u64(*gas_limit);
            }
            Payload::AnchorRoot { namespace, root } => {
                enc.put_u8(4).put_str(namespace).put_hash(root);
            }
        }
    }
}

impl Decodable for Payload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(Payload::Transfer {
                to: Address::from_hash(dec.get_hash()?),
                amount: dec.get_u64()?,
            }),
            1 => Ok(Payload::Blob {
                tag: dec.get_u32()? as u16,
                data: dec.get_bytes()?,
            }),
            3 => Ok(Payload::ContractCall {
                contract: Address::from_hash(dec.get_hash()?),
                input: dec.get_bytes()?,
                gas_limit: dec.get_u64()?,
            }),
            4 => Ok(Payload::AnchorRoot {
                namespace: dec.get_str()?,
                root: dec.get_hash()?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A signed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sender account (must match `pubkey`'s address).
    pub from: Address,
    /// Sender's account nonce (strictly sequential).
    pub nonce: u64,
    /// Fee paid to the block proposer.
    pub fee: u64,
    /// The action.
    pub payload: Payload,
    /// Sender public key (needed to verify `signature`).
    pub pubkey: PublicKey,
    /// Schnorr signature over the signing digest.
    pub signature: Signature,
}

impl Transaction {
    /// Builds and signs a transaction in one step.
    pub fn signed(keypair: &Keypair, nonce: u64, fee: u64, payload: Payload) -> Transaction {
        let from = keypair.address();
        let digest = Transaction::signing_digest(&from, nonce, fee, &payload);
        let signature = keypair.sign(&digest);
        Transaction {
            from,
            nonce,
            fee,
            payload,
            pubkey: *keypair.public(),
            signature,
        }
    }

    /// The digest that is signed: a tagged hash over the canonical encoding
    /// of all fields except the signature.
    pub fn signing_digest(from: &Address, nonce: u64, fee: u64, payload: &Payload) -> Hash256 {
        let mut enc = Encoder::new();
        enc.put_hash(from.as_hash()).put_u64(nonce).put_u64(fee);
        payload.encode(&mut enc);
        tagged_hash("TN/tx", &enc.finish())
    }

    /// The transaction id: a tagged hash over the full canonical encoding
    /// (including the signature, so ids commit to the exact on-chain bytes).
    pub fn id(&self) -> Hash256 {
        #[cfg(test)]
        IDS_COMPUTED.with(|count| count.set(count.get() + 1));
        tagged_hash("TN/txid", &self.to_bytes())
    }

    /// Checks signature validity and sender-address consistency.
    ///
    /// # Errors
    ///
    /// [`ChainError::AddressMismatch`] when the public key does not hash to
    /// `from`; [`ChainError::BadSignature`] when verification fails.
    pub fn verify(&self) -> Result<(), ChainError> {
        if self.pubkey.address() != self.from {
            return Err(ChainError::AddressMismatch);
        }
        let digest = Transaction::signing_digest(&self.from, self.nonce, self.fee, &self.payload);
        if !self.pubkey.verify(&digest, &self.signature) {
            return Err(ChainError::BadSignature);
        }
        Ok(())
    }

    /// Total tokens this transaction moves out of the sender's balance
    /// (transfer amount plus fee; other payloads cost only the fee).
    pub fn total_debit(&self) -> u64 {
        let value = match &self.payload {
            Payload::Transfer { amount, .. } => *amount,
            _ => 0,
        };
        value.saturating_add(self.fee)
    }
}

impl Encodable for Transaction {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_hash(self.from.as_hash())
            .put_u64(self.nonce)
            .put_u64(self.fee);
        self.payload.encode(enc);
        enc.put_bytes(&self.pubkey.to_compressed());
        enc.put_bytes(&self.signature.to_bytes());
    }
}

impl Decodable for Transaction {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let from = Address::from_hash(dec.get_hash()?);
        let nonce = dec.get_u64()?;
        let fee = dec.get_u64()?;
        let payload = Payload::decode(dec)?;
        let pk_bytes: [u8; 33] = dec
            .get_bytes()?
            .try_into()
            .map_err(|_| DecodeError::BadLength(33))?;
        let pubkey = PublicKey::from_compressed(&pk_bytes).ok_or(DecodeError::BadTag(0xfe))?;
        let sig_bytes: [u8; 65] = dec
            .get_bytes()?
            .try_into()
            .map_err(|_| DecodeError::BadLength(65))?;
        let signature = Signature::from_bytes(&sig_bytes).ok_or(DecodeError::BadTag(0xff))?;
        Ok(Transaction {
            from,
            nonce,
            fee,
            payload,
            pubkey,
            signature,
        })
    }
}

/// A transaction paired with its id, hashed here once: what block building
/// takes, so that an id kept from admission passes through unhashed.
impl From<Transaction> for (Hash256, Transaction) {
    fn from(tx: Transaction) -> Self {
        (tx.id(), tx)
    }
}

#[cfg(test)]
thread_local! {
    /// [`Transaction::id`] calls on this thread. Tests read it to show that
    /// a path hashes no transaction a second time.
    pub(crate) static IDS_COMPUTED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp() -> Keypair {
        Keypair::from_seed(b"tx tests")
    }

    #[test]
    fn signed_transaction_verifies() {
        let tx = Transaction::signed(
            &kp(),
            0,
            10,
            Payload::Transfer {
                to: Keypair::from_seed(b"bob").address(),
                amount: 5,
            },
        );
        tx.verify().expect("valid");
    }

    #[test]
    fn all_payload_variants_round_trip() {
        let k = kp();
        let payloads = vec![
            Payload::Transfer {
                to: k.address(),
                amount: 42,
            },
            Payload::Blob {
                tag: blob_tags::NEWS_PUBLISH,
                data: vec![1, 2, 3],
            },
            Payload::ContractCall {
                contract: k.address(),
                input: vec![9],
                gas_limit: 1000,
            },
            Payload::AnchorRoot {
                namespace: "factdb".into(),
                root: tn_crypto::sha256::sha256(b"root"),
            },
        ];
        for (i, p) in payloads.into_iter().enumerate() {
            let tx = Transaction::signed(&k, i as u64, 1, p);
            let decoded = Transaction::from_bytes(&tx.to_bytes()).expect("decodes");
            assert_eq!(decoded, tx);
            decoded.verify().expect("still verifies");
        }
    }

    #[test]
    fn tampering_with_fields_breaks_verification() {
        let k = kp();
        let tx = Transaction::signed(
            &k,
            3,
            7,
            Payload::Blob {
                tag: 1,
                data: vec![1],
            },
        );

        let mut t = tx.clone();
        t.nonce = 4;
        assert_eq!(t.verify(), Err(ChainError::BadSignature));

        let mut t = tx.clone();
        t.fee = 8;
        assert_eq!(t.verify(), Err(ChainError::BadSignature));

        let mut t = tx.clone();
        t.payload = Payload::Blob {
            tag: 1,
            data: vec![2],
        };
        assert_eq!(t.verify(), Err(ChainError::BadSignature));

        let mut t = tx;
        t.from = Keypair::from_seed(b"eve").address();
        assert_eq!(t.verify(), Err(ChainError::AddressMismatch));
    }

    #[test]
    fn wrong_pubkey_is_address_mismatch() {
        let k = kp();
        let other = Keypair::from_seed(b"other");
        let mut tx = Transaction::signed(
            &k,
            0,
            0,
            Payload::Blob {
                tag: 1,
                data: vec![],
            },
        );
        tx.pubkey = *other.public();
        assert_eq!(tx.verify(), Err(ChainError::AddressMismatch));
    }

    #[test]
    fn tx_ids_differ_per_content() {
        let k = kp();
        let a = Transaction::signed(
            &k,
            0,
            0,
            Payload::Blob {
                tag: 1,
                data: vec![1],
            },
        );
        let b = Transaction::signed(
            &k,
            1,
            0,
            Payload::Blob {
                tag: 1,
                data: vec![1],
            },
        );
        assert_ne!(a.id(), b.id());
        // id is stable across re-encoding.
        let decoded = Transaction::from_bytes(&a.to_bytes()).expect("decodes");
        assert_eq!(decoded.id(), a.id());
    }

    #[test]
    fn total_debit_includes_fee_and_value() {
        let k = kp();
        let t = Transaction::signed(
            &k,
            0,
            7,
            Payload::Transfer {
                to: k.address(),
                amount: 100,
            },
        );
        assert_eq!(t.total_debit(), 107);
        let b = Transaction::signed(
            &k,
            0,
            7,
            Payload::Blob {
                tag: 1,
                data: vec![],
            },
        );
        assert_eq!(b.total_debit(), 7);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Transaction::from_bytes(&[0u8; 10]).is_err());
        // Valid tx with trailing garbage also rejected.
        let k = kp();
        let tx = Transaction::signed(
            &k,
            0,
            0,
            Payload::Blob {
                tag: 1,
                data: vec![],
            },
        );
        let mut bytes = tx.to_bytes();
        bytes.push(0);
        assert!(Transaction::from_bytes(&bytes).is_err());
        // Payload tag 2 (bytecode deployment, retired) is unknown.
        bytes.pop();
        assert_eq!(bytes[48], 1, "the payload tag follows from, nonce and fee");
        bytes[48] = 2;
        assert_eq!(Transaction::from_bytes(&bytes), Err(DecodeError::BadTag(2)));
    }
}
