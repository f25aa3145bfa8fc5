//! Property tests for the participant-defense layer (E24's library
//! half): reputation decay is a contraction toward the prior and
//! composes order-independently, stake accounting conserves every token
//! under arbitrary op sequences, and quarantined participants can never
//! move the aggregate decision digest.

use std::collections::BTreeSet;

use proptest::prelude::*;

use tn_crowdrank::defense::{stake_weighted, StakeLedger, MIN_BOND};
use tn_crowdrank::reputation::{Reputation, ReputationLedger};
use tn_crowdrank::Vote;
use tn_crypto::sha256::sha256;
use tn_crypto::{Address, Hash256, Keypair};

fn addr(i: u8) -> Address {
    Keypair::from_seed(&[b'd', b'p', i]).address()
}

fn item(i: u8) -> Hash256 {
    let mut bytes = [0u8; 32];
    bytes[0] = i;
    bytes[31] = 0xe2;
    Hash256::from_bytes(bytes)
}

/// Canonical byte digest of a decision vector: if two aggregations hash
/// identically, every field of every decision (including the float
/// confidence bits) is identical.
fn decision_digest(decisions: &[tn_crowdrank::Decision]) -> Hash256 {
    let mut bytes = Vec::new();
    for d in decisions {
        bytes.extend_from_slice(d.item.as_bytes());
        bytes.push(d.factual as u8);
        bytes.extend_from_slice(&d.confidence.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(d.votes as u64).to_le_bytes());
    }
    sha256(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decay with a factor in (0, 1] never moves the posterior weight
    /// away from the 0.5 prior, and never manufactures evidence.
    #[test]
    fn decay_is_a_contraction_toward_prior(
        outcomes in proptest::collection::vec(any::<bool>(), 0..64),
        factor in 0.01f64..=1.0,
    ) {
        let mut rep = Reputation::default();
        for correct in outcomes {
            rep.record(correct);
        }
        let before_weight = rep.weight();
        let before_evidence = rep.evidence();
        rep.decay(factor).expect("factor in range");
        prop_assert!(
            (rep.weight() - 0.5).abs() <= (before_weight - 0.5).abs() + 1e-12,
            "decay moved weight away from the prior: {before_weight} -> {}",
            rep.weight()
        );
        prop_assert!(rep.evidence() <= before_evidence + 1e-12);
        prop_assert!(rep.alpha >= 1.0 - 1e-12 && rep.beta >= 1.0 - 1e-12);
    }

    /// Decay composes multiplicatively, so the order of decay rounds is
    /// irrelevant: f1 then f2 lands (up to float rounding) exactly where
    /// f2 then f1 and the single combined factor land.
    #[test]
    fn decay_rounds_are_order_independent(
        records in proptest::collection::vec((0u8..6, any::<bool>()), 0..64),
        f1 in 0.05f64..=1.0,
        f2 in 0.05f64..=1.0,
    ) {
        let mut ledger = ReputationLedger::new();
        for (who, correct) in &records {
            ledger.record(&addr(*who), *correct);
        }
        let mut ab = ledger.clone();
        let mut ba = ledger.clone();
        let mut combined = ledger.clone();
        ab.decay_all(f1).expect("f1 in range");
        ab.decay_all(f2).expect("f2 in range");
        ba.decay_all(f2).expect("f2 in range");
        ba.decay_all(f1).expect("f1 in range");
        combined.decay_all(f1 * f2).expect("product in range");
        for i in 0u8..6 {
            let who = addr(i);
            let w_ab = ab.weight(&who);
            let w_ba = ba.weight(&who);
            let w_c = combined.weight(&who);
            prop_assert!((w_ab - w_ba).abs() < 1e-9, "order mattered: {w_ab} vs {w_ba}");
            prop_assert!((w_ab - w_c).abs() < 1e-9, "composition broke: {w_ab} vs {w_c}");
        }
    }

    /// A decay factor outside (0, 1] is a typed error and leaves the
    /// ledger untouched.
    #[test]
    fn bad_decay_factor_is_rejected_without_mutation(
        records in proptest::collection::vec((0u8..4, any::<bool>()), 1..32),
        choice in 0u8..6,
        overshoot in 1.0001f64..1000.0,
    ) {
        let factor = match choice {
            0 => 0.0,
            1 => -1.0,
            2 => 1.0 + 1e-9,
            3 => f64::NAN,
            4 => f64::INFINITY,
            _ => overshoot,
        };
        let mut ledger = ReputationLedger::new();
        for (who, correct) in &records {
            ledger.record(&addr(*who), *correct);
        }
        let before: Vec<f64> = (0u8..4).map(|i| ledger.weight(&addr(i))).collect();
        prop_assert!(ledger.decay_all(factor).is_err());
        let after: Vec<f64> = (0u8..4).map(|i| ledger.weight(&addr(i))).collect();
        prop_assert_eq!(before, after);
    }

    /// Every token granted into the stake system stays in exactly one of
    /// {free, bonded, treasury} through arbitrary grant/bond/slash
    /// sequences — including ops that fail.
    #[test]
    fn stake_is_conserved_under_arbitrary_ops(
        ops in proptest::collection::vec((0u8..3, 0u8..6, 0u64..10_000), 1..128),
    ) {
        let mut ledger = StakeLedger::new();
        for (op, who, amount) in ops {
            let who = addr(who);
            match op {
                0 => {
                    let _ = ledger.grant(&who, amount);
                }
                1 => {
                    let _ = ledger.post_bond(&who, amount);
                }
                _ => {
                    let treasury_before = ledger.treasury();
                    let cut = ledger.slash(&who, (amount % 12_000) as u32);
                    prop_assert_eq!(ledger.treasury(), treasury_before + cut);
                }
            }
            prop_assert!(
                ledger.conserved(),
                "minted {} != circulating {}",
                ledger.minted(),
                ledger.circulating()
            );
        }
    }

    /// The aggregate decision vector — down to the confidence float bits
    /// — is identical whether quarantined participants' votes are zeroed
    /// in place or stripped from the input entirely. Quarantine is a
    /// true no-op on the digest, which is what lets replicas apply it
    /// without re-agreeing on history.
    #[test]
    fn quarantined_votes_never_move_the_aggregate_digest(
        votes in proptest::collection::vec((0u8..8, 0u8..5, any::<bool>()), 1..96),
        quarantine_mask in 0u8..=255,
        history in proptest::collection::vec((0u8..8, any::<bool>()), 0..48),
    ) {
        let mut reputation = ReputationLedger::new();
        for (who, correct) in &history {
            reputation.record(&addr(*who), *correct);
        }
        let mut stakes = StakeLedger::new();
        for i in 0u8..8 {
            stakes.grant(&addr(i), 2 * MIN_BOND).expect("grant");
            stakes.post_bond(&addr(i), MIN_BOND).expect("bond");
        }
        let quarantined: BTreeSet<Address> = (0u8..8)
            .filter(|i| quarantine_mask & (1 << i) != 0)
            .map(addr)
            .collect();
        let all: Vec<Vote> = votes
            .iter()
            .map(|(who, it, factual)| Vote {
                voter: addr(*who),
                item: item(*it),
                factual: *factual,
            })
            .collect();
        let stripped: Vec<Vote> = all
            .iter()
            .filter(|v| !quarantined.contains(&v.voter))
            .cloned()
            .collect();

        let full = stake_weighted(&all, &reputation, &stakes, &quarantined);
        let minus = stake_weighted(&stripped, &reputation, &stakes, &quarantined);

        // Items voted on *only* by quarantined participants still get a
        // (conservative, zero-weight) decision in the full run; restrict
        // the identity to items that survive stripping and pin the
        // orphans to the conservative default.
        let surviving: BTreeSet<Hash256> = stripped.iter().map(|v| v.item).collect();
        let full_surviving: Vec<_> = full
            .iter()
            .filter(|d| surviving.contains(&d.item))
            .cloned()
            .collect();
        prop_assert_eq!(decision_digest(&full_surviving), decision_digest(&minus));
        for orphan in full.iter().filter(|d| !surviving.contains(&d.item)) {
            prop_assert!(!orphan.factual);
            prop_assert_eq!(orphan.votes, 0);
            prop_assert!((orphan.confidence - 0.5).abs() < 1e-12);
        }
    }
}
