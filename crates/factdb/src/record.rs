//! Factual records: the ground-truth units of the factual database.

use tn_chain::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use tn_crypto::sha256::tagged_hash;
use tn_crypto::Hash256;

/// The provenance class of a factual record.
///
/// The paper seeds the database with sources "we can take … for granted as
/// fact in nature": legislative speech records, official addresses, and
/// similar public records (§VI). `VerifiedNews` covers records admitted
/// later through the attestation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Library record of a law-maker's speech.
    LegislativeSpeech,
    /// Official address by a head of state or government.
    PresidentialAddress,
    /// On-the-record statement by a public figure.
    PublicFigureStatement,
    /// Court proceedings and judgments.
    CourtRecord,
    /// News verified later via the crowd-sourced attestation pipeline.
    VerifiedNews,
}

impl SourceKind {
    /// All variants, for iteration in generators and tests.
    pub(crate) const ALL: [SourceKind; 5] = [
        SourceKind::LegislativeSpeech,
        SourceKind::PresidentialAddress,
        SourceKind::PublicFigureStatement,
        SourceKind::CourtRecord,
        SourceKind::VerifiedNews,
    ];

    fn tag(self) -> u8 {
        match self {
            SourceKind::LegislativeSpeech => 0,
            SourceKind::PresidentialAddress => 1,
            SourceKind::PublicFigureStatement => 2,
            SourceKind::CourtRecord => 3,
            SourceKind::VerifiedNews => 4,
        }
    }

    fn from_tag(t: u8) -> Option<SourceKind> {
        SourceKind::ALL.get(t as usize).copied()
    }
}

/// A single factual record.
///
/// The paper's definition of "fact": *things actually happened* — the
/// record stores that a statement was made, by whom, about what, and when;
/// it takes no position on whether the statement is "true" (§VI's
/// fact-vs-truth distinction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactRecord {
    /// Provenance class.
    pub source: SourceKind,
    /// Who said/did it.
    pub speaker: String,
    /// Topic label (used for expert identification and news rooms).
    pub topic: String,
    /// The statement text.
    pub content: String,
    /// When it happened (platform logical time).
    pub recorded_at: u64,
}

impl FactRecord {
    /// Content-addressed id: a tagged hash of the canonical encoding.
    pub fn id(&self) -> Hash256 {
        tagged_hash("TN/fact", &self.to_bytes())
    }

    /// The leaf hash committed in the database's Merkle tree.
    pub(crate) fn leaf_hash(&self) -> Hash256 {
        tn_crypto::merkle::leaf_hash(&self.to_bytes())
    }
}

impl Encodable for FactRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.source.tag())
            .put_str(&self.speaker)
            .put_str(&self.topic)
            .put_str(&self.content)
            .put_u64(self.recorded_at);
    }
}

impl Decodable for FactRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let tag = dec.get_u8()?;
        let source = SourceKind::from_tag(tag).ok_or(DecodeError::BadTag(tag))?;
        Ok(FactRecord {
            source,
            speaker: dec.get_str()?,
            topic: dec.get_str()?,
            content: dec.get_str()?,
            recorded_at: dec.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FactRecord {
        FactRecord {
            source: SourceKind::LegislativeSpeech,
            speaker: "Senator Vale".into(),
            topic: "energy".into(),
            content: "The committee approved the solar subsidy amendment.".into(),
            recorded_at: 100,
        }
    }

    #[test]
    fn round_trip() {
        let r = sample();
        let decoded = FactRecord::from_bytes(&r.to_bytes()).expect("decodes");
        assert_eq!(decoded, r);
        assert_eq!(decoded.id(), r.id());
    }

    #[test]
    fn id_changes_with_any_field() {
        let base = sample();
        let mut m = base.clone();
        m.speaker = "Senator Moss".into();
        assert_ne!(m.id(), base.id());
        let mut m = base.clone();
        m.content.push('!');
        assert_ne!(m.id(), base.id());
        let mut m = base.clone();
        m.recorded_at += 1;
        assert_ne!(m.id(), base.id());
        let mut m = base.clone();
        m.source = SourceKind::CourtRecord;
        assert_ne!(m.id(), base.id());
    }

    #[test]
    fn all_source_kinds_round_trip() {
        for kind in SourceKind::ALL {
            let mut r = sample();
            r.source = kind;
            assert_eq!(FactRecord::from_bytes(&r.to_bytes()).unwrap().source, kind);
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 99;
        assert!(matches!(
            FactRecord::from_bytes(&bytes),
            Err(DecodeError::BadTag(99))
        ));
    }
}
