//! Ecosystem roles and verified identities.
//!
//! Figure 2's ecosystem "consists of news consumers, content creators,
//! news fact checker, fake news detection AI code developers, and media
//! publishers", and §V requires that "identification verified persons"
//! create content. The identity registry tracks which verified account
//! holds which roles; registrations are recorded on-chain as IDENTITY
//! blobs so they are as auditable as everything else.

use std::collections::{BTreeSet, HashMap};

use tn_chain::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256};

/// A participant role in the trusting-news ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Reads and rates news.
    Consumer,
    /// Writes news items (journalists and individuals).
    ContentCreator,
    /// Attests records into the factual database.
    FactChecker,
    /// Publishes/maintains AI detection models.
    AiDeveloper,
    /// Operates a distribution platform with news rooms.
    Publisher,
}

impl Role {
    /// All roles.
    pub(crate) const ALL: [Role; 5] = [
        Role::Consumer,
        Role::ContentCreator,
        Role::FactChecker,
        Role::AiDeveloper,
        Role::Publisher,
    ];

    /// Stable wire tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Role::Consumer => 0,
            Role::ContentCreator => 1,
            Role::FactChecker => 2,
            Role::AiDeveloper => 3,
            Role::Publisher => 4,
        }
    }

    /// Decodes a wire tag.
    pub(crate) fn from_tag(t: u8) -> Option<Role> {
        Role::ALL.get(t as usize).copied()
    }
}

/// On-chain identity registration record (an IDENTITY blob payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityRecord {
    /// Display name of the verified person/organization.
    pub(crate) name: String,
    /// Roles granted.
    pub(crate) roles: Vec<Role>,
}

impl Encodable for IdentityRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_varint(self.roles.len() as u64);
        for r in &self.roles {
            enc.put_u8(r.tag());
        }
    }
}

impl Decodable for IdentityRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let name = dec.get_str()?;
        let n = dec.get_varint()?;
        if n > 16 {
            return Err(DecodeError::BadLength(n));
        }
        let mut roles = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let t = dec.get_u8()?;
            roles.push(Role::from_tag(t).ok_or(DecodeError::BadTag(t))?);
        }
        Ok(IdentityRecord { name, roles })
    }
}

/// The in-memory identity index (rebuilt from chain state).
#[derive(Debug, Clone, Default)]
pub struct IdentityRegistry {
    entries: HashMap<Address, (String, BTreeSet<Role>)>,
}

impl IdentityRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers (or extends) an identity.
    pub(crate) fn register(&mut self, who: Address, name: &str, roles: &[Role]) {
        let entry = self
            .entries
            .entry(who)
            .or_insert_with(|| (name.to_string(), BTreeSet::new()));
        entry.1.extend(roles.iter().copied());
    }

    /// True when `who` is a verified identity.
    pub(crate) fn is_verified(&self, who: &Address) -> bool {
        self.entries.contains_key(who)
    }

    /// True when `who` holds `role`.
    pub fn has_role(&self, who: &Address, role: Role) -> bool {
        self.entries
            .get(who)
            .is_some_and(|(_, rs)| rs.contains(&role))
    }

    /// Display name of an identity.
    pub fn name(&self, who: &Address) -> Option<&str> {
        self.entries.get(who).map(|(n, _)| n.as_str())
    }

    /// A hash of the full registry state (addresses sorted, names and
    /// role sets included), so replicas can compare registries by hash.
    pub(crate) fn digest(&self) -> Hash256 {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(addr, _)| **addr);
        let mut data = Vec::new();
        for (addr, (name, roles)) in entries {
            data.extend_from_slice(addr.as_hash().as_bytes());
            data.extend_from_slice(&(name.len() as u64).to_le_bytes());
            data.extend_from_slice(name.as_bytes());
            data.extend_from_slice(&(roles.len() as u64).to_le_bytes());
            for r in roles {
                data.push(r.tag());
            }
        }
        tagged_hash("TN/identity-registry", &data)
    }

    /// Serializes the registry (addresses sorted) for a chain checkpoint.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(addr, _)| **addr);
        let mut e = Encoder::new();
        e.put_varint(entries.len() as u64);
        for (addr, (name, roles)) in entries {
            e.put_hash(addr.as_hash())
                .put_str(name)
                .put_varint(roles.len() as u64);
            for r in roles {
                e.put_u8(r.tag());
            }
        }
        e.finish()
    }

    /// Restores a registry from [`IdentityRegistry::to_bytes`] bytes.
    ///
    /// # Errors
    ///
    /// A message when the blob is malformed.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<IdentityRegistry, String> {
        let err = |e: DecodeError| format!("malformed identity registry: {e}");
        let mut dec = Decoder::new(bytes);
        let mut reg = IdentityRegistry::new();
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let who = Address::from_hash(dec.get_hash().map_err(err)?);
            let name = dec.get_str().map_err(err)?;
            let m = dec.get_varint().map_err(err)?;
            let mut roles = Vec::with_capacity((m as usize).min(Role::ALL.len()));
            for _ in 0..m {
                let t = dec.get_u8().map_err(err)?;
                roles.push(Role::from_tag(t).ok_or_else(|| format!("unknown role tag {t}"))?);
            }
            reg.register(who, &name, &roles);
        }
        dec.expect_end().map_err(err)?;
        Ok(reg)
    }

    /// Number of verified identities.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::Keypair;

    fn addr(seed: &[u8]) -> Address {
        Keypair::from_seed(seed).address()
    }

    #[test]
    fn record_round_trip() {
        let r = IdentityRecord {
            name: "Jane Doe".into(),
            roles: vec![Role::ContentCreator, Role::FactChecker],
        };
        let decoded = IdentityRecord::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn bad_role_tag_rejected() {
        let mut enc = Encoder::new();
        enc.put_str("x").put_varint(1).put_u8(99);
        assert!(matches!(
            IdentityRecord::from_bytes(&enc.finish()),
            Err(DecodeError::BadTag(99))
        ));
    }

    #[test]
    fn registry_roles() {
        let mut reg = IdentityRegistry::new();
        let a = addr(b"a");
        reg.register(a, "Alice", &[Role::ContentCreator]);
        assert!(reg.is_verified(&a));
        assert!(reg.has_role(&a, Role::ContentCreator));
        assert!(!reg.has_role(&a, Role::FactChecker));
        assert_eq!(reg.name(&a), Some("Alice"));
        // Extending keeps old roles.
        reg.register(a, "Alice", &[Role::FactChecker]);
        assert!(reg.has_role(&a, Role::ContentCreator));
        assert!(reg.has_role(&a, Role::FactChecker));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn role_tags_round_trip() {
        for r in Role::ALL {
            assert_eq!(Role::from_tag(r.tag()), Some(r));
        }
        assert_eq!(Role::from_tag(200), None);
    }
}
