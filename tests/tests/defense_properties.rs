//! Property tests for the participant defenses: reputation decay (which
//! E14(c) runs) is a contraction toward the prior and composes
//! order-independently, and E24's on-chain `RankingContract`, driven
//! through `BuiltinContract::call` the way block execution drives it,
//! conserves every granted token under arbitrary op sequences and never
//! lets a quarantined rater move an item's weighted mean.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use tn_contracts::builtin::{
    decode_ranking, ranking_get, ranking_grant_stake, ranking_post_bond, ranking_quarantine,
    ranking_record_outcome, ranking_set_policy, ranking_set_reputation, ranking_submit,
    ranking_unquarantine, BuiltinContract, DefensePolicy, RankingContract,
};
use tn_crowdrank::reputation::{Reputation, ReputationLedger};
use tn_crypto::{Address, Hash256, Keypair};
use tn_gateway::campaign_policy;

fn addr(i: u8) -> Address {
    Keypair::from_seed(&[b'd', b'p', i]).address()
}

fn item(i: u8) -> Hash256 {
    let mut bytes = [0u8; 32];
    bytes[0] = i;
    bytes[31] = 0xe2;
    Hash256::from_bytes(bytes)
}

/// The governor: the only caller allowed to grant, record outcomes and
/// quarantine.
fn governor() -> Address {
    Keypair::from_seed(b"dp-governor").address()
}

/// Stake amounts: half drawn below 10 000, half from all of `u64`, so a
/// run mixes small grants and bonds with grants that would push the
/// total past `u64::MAX`.
fn amount() -> impl Strategy<Value = u64> {
    (any::<bool>(), any::<u64>()).prop_map(|(small, x)| if small { x % 10_000 } else { x })
}

/// Raters `addr(0..RATERS)` the conservation property draws from.
const RATERS: u8 = 6;

/// Σ free + Σ bonded over every rater, plus the treasury.
fn circulating(rk: &RankingContract) -> u128 {
    let held: u128 = (0..RATERS)
        .map(|i| {
            let (free, bonded) = rk.stake(&addr(i));
            free as u128 + bonded as u128
        })
        .sum();
    held + rk.treasury() as u128
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

    /// Every token granted stays in exactly one of {free, bonded,
    /// treasury} through arbitrary grant, bond, rate, record-outcome and
    /// quarantine sequences — refused ops included, among them grants
    /// that would push the total past `u64::MAX` and grants by a
    /// non-governor.
    #[test]
    fn stake_is_conserved_under_arbitrary_ops(
        slash_bps in 0u64..12_000,
        ops in proptest::collection::vec(
            (0u8..7, 0u8..RATERS, amount()),
            1..128,
        ),
    ) {
        let gov = governor();
        let mut rk = RankingContract::new(gov);
        rk.call(&gov, &ranking_set_policy(&DefensePolicy { slash_bps, ..campaign_policy() }))
            .expect("governor sets the policy");
        let mut granted: u128 = 0;
        for (op, who, amount) in ops {
            let rater = addr(who);
            let it = item((amount % 4) as u8);
            match op {
                0 => {
                    if rk.call(&gov, &ranking_grant_stake(&rater, amount)).is_ok() {
                        granted += amount as u128;
                    }
                }
                1 => {
                    prop_assert!(rk.call(&rater, &ranking_grant_stake(&rater, amount)).is_err());
                }
                2 => {
                    let _ = rk.call(&rater, &ranking_post_bond(amount));
                }
                3 => {
                    let _ = rk.call(&rater, &ranking_submit(&it, (amount % 101) as u8));
                }
                4 => {
                    let treasury_before = rk.treasury();
                    let out = rk
                        .call(&gov, &ranking_record_outcome(&it, amount & 4 != 0))
                        .expect("governor records outcomes");
                    let cut = u64::from_le_bytes(out.try_into().expect("u64 output"));
                    prop_assert_eq!(rk.treasury() as u128, treasury_before as u128 + cut as u128);
                }
                5 => {
                    rk.call(&gov, &ranking_quarantine(&rater)).expect("governor quarantines");
                }
                _ => {
                    rk.call(&gov, &ranking_unquarantine(&rater)).expect("governor paroles");
                }
            }
            prop_assert_eq!(circulating(&rk), granted);
        }
    }

    /// Each item's weighted mean is the same whether quarantined raters'
    /// ratings are stored or were never submitted: quarantine weighs a
    /// rating exactly zero, so it needs no history rewritten.
    #[test]
    fn quarantined_votes_never_move_the_aggregate_digest(
        votes in proptest::collection::vec((0u8..8, 0u8..5, 0u8..=100), 1..96),
        quarantine_mask in 0u8..=255,
        bonds in proptest::collection::vec(0u64..=2 * campaign_policy().min_bond, 8),
        reputations in proptest::collection::vec(0u64..=1_000, 8),
    ) {
        let gov = governor();
        let policy = campaign_policy();
        let quarantined: BTreeSet<u8> =
            (0u8..8).filter(|i| quarantine_mask & (1 << i) != 0).collect();
        let build = |keep_quarantined: bool| -> Result<RankingContract, String> {
            let mut rk = RankingContract::new(gov);
            rk.call(&gov, &ranking_set_policy(&policy))?;
            for i in 0u8..8 {
                let rater = addr(i);
                rk.call(&gov, &ranking_grant_stake(&rater, 2 * policy.min_bond))?;
                let bond = bonds[i as usize];
                if bond > 0 {
                    rk.call(&rater, &ranking_post_bond(bond))?;
                }
                rk.call(&gov, &ranking_set_reputation(&rater, reputations[i as usize]))?;
            }
            for (who, it, score) in &votes {
                if keep_quarantined || !quarantined.contains(who) {
                    rk.call(&addr(*who), &ranking_submit(&item(*it), *score))?;
                }
            }
            for who in &quarantined {
                rk.call(&gov, &ranking_quarantine(&addr(*who)))?;
            }
            Ok(rk)
        };
        let mut full = build(true).map_err(TestCaseError::Fail)?;
        let mut stripped = build(false).map_err(TestCaseError::Fail)?;
        for it in 0u8..5 {
            let read = |rk: &mut RankingContract| {
                let out = rk.call(&gov, &ranking_get(&item(it))).expect("read op");
                decode_ranking(&out).expect("8- or 16-byte ranking")
            };
            let (full_count, full_mean) = read(&mut full);
            let (stripped_count, stripped_mean) = read(&mut stripped);
            prop_assert_eq!(full_mean, stripped_mean);
            let raters_of = |keep: bool| {
                votes
                    .iter()
                    .filter(|(who, i, _)| *i == it && (keep || !quarantined.contains(who)))
                    .map(|(who, _, _)| *who)
                    .collect::<BTreeSet<u8>>()
                    .len() as u64
            };
            prop_assert_eq!((full_count, stripped_count), (raters_of(true), raters_of(false)));
        }
    }
}
