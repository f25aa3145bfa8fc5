//! Participant-level defenses against coordinated misinformation
//! campaigns — the library half of E24.
//!
//! Three mechanisms, composable and individually testable:
//!
//! - [`StakeLedger`]: sybil admission cost. A participant must bond stake
//!   before its votes carry weight; bonds are slashed when confirmed
//!   outcomes contradict the vote. Stake is conserved — every token is in
//!   exactly one of {free, bonded, treasury} at all times.
//! - [`stake_weighted`]: vote aggregation that multiplies the
//!   evidence-discounted Beta reputation by a bond gate and zeroes
//!   quarantined participants entirely.
//! - [`CoordinationDetector`]: rate-of-coordination detection over a
//!   sliding window of committed votes. Participants whose *exact* vote
//!   vectors coincide on enough items form a ring; persistent ring
//!   membership produces quarantine verdicts. The per-tick
//!   coordinated/total counts feed the `tn-monitor` campaign burn-rate
//!   rule.
//!
//! Everything here is deterministic (BTree containers, no RNG) because it
//! runs on — or mirrors — the replica path, where all replicas must reach
//! byte-identical conclusions.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use tn_crypto::{Address, Hash256};

use crate::aggregate::{Decision, Vote};
use crate::reputation::ReputationLedger;

/// Evidence-discount constant `k` (how much confirmed history buys full
/// weight) of [`stake_weighted`].
const EVIDENCE_DISCOUNT: f64 = 10.0;
/// Minimum bonded stake for a vote to carry any weight in
/// [`stake_weighted`].
pub const MIN_BOND: u64 = 50;
/// Sliding-window length (ticks) for coordination detection.
const WINDOW: usize = 8;
/// Minimum participants with identical vote vectors to call a ring.
const MIN_RING: usize = 3;
/// Minimum items two vote vectors must share before they are comparable
/// (one shared vote is coincidence, not coordination).
const MIN_SHARED_ITEMS: usize = 2;
/// Consecutive flagged ticks before a quarantine verdict.
const QUARANTINE_STREAK: u32 = 2;

/// Typed stake-accounting failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseError {
    /// Tried to bond more than the free balance.
    InsufficientStake {
        /// Free balance available.
        have: u64,
        /// Amount requested.
        need: u64,
    },
    /// Zero-amount grant or bond.
    ZeroAmount,
}

impl fmt::Display for DefenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseError::InsufficientStake { have, need } => {
                write!(f, "insufficient free stake: have {have}, need {need}")
            }
            DefenseError::ZeroAmount => write!(f, "amount must be positive"),
        }
    }
}

impl std::error::Error for DefenseError {}

/// Conserved stake accounting: every token granted into the system is in
/// exactly one of free balances, bonded balances, or the slash treasury.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StakeLedger {
    free: BTreeMap<Address, u64>,
    bonded: BTreeMap<Address, u64>,
    treasury: u64,
    minted: u64,
}

impl StakeLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints `amount` into `who`'s free balance (the only way stake
    /// enters the system).
    ///
    /// # Errors
    ///
    /// [`DefenseError::ZeroAmount`] when `amount == 0`.
    pub fn grant(&mut self, who: &Address, amount: u64) -> Result<(), DefenseError> {
        if amount == 0 {
            return Err(DefenseError::ZeroAmount);
        }
        *self.free.entry(*who).or_insert(0) += amount;
        self.minted += amount;
        Ok(())
    }

    /// Moves `amount` from `who`'s free balance into its bond.
    ///
    /// # Errors
    ///
    /// [`DefenseError::InsufficientStake`] when the free balance is too
    /// small; [`DefenseError::ZeroAmount`] when `amount == 0`.
    pub fn post_bond(&mut self, who: &Address, amount: u64) -> Result<(), DefenseError> {
        if amount == 0 {
            return Err(DefenseError::ZeroAmount);
        }
        let free = self.free.entry(*who).or_insert(0);
        if *free < amount {
            return Err(DefenseError::InsufficientStake {
                have: *free,
                need: amount,
            });
        }
        *free -= amount;
        *self.bonded.entry(*who).or_insert(0) += amount;
        Ok(())
    }

    /// Slashes `slash_bps` basis points of `who`'s bond into the
    /// treasury; returns the amount slashed. A nonempty bond always loses
    /// at least one token, so repeated contradictions drain it.
    pub fn slash(&mut self, who: &Address, slash_bps: u32) -> u64 {
        let bonded = self.bonded.entry(*who).or_insert(0);
        if *bonded == 0 {
            return 0;
        }
        let cut = ((*bonded as u128 * slash_bps.min(10_000) as u128) / 10_000) as u64;
        let cut = cut.max(1).min(*bonded);
        *bonded -= cut;
        self.treasury += cut;
        cut
    }

    /// `who`'s free balance.
    pub fn free(&self, who: &Address) -> u64 {
        self.free.get(who).copied().unwrap_or(0)
    }

    /// `who`'s bonded balance.
    pub fn bonded(&self, who: &Address) -> u64 {
        self.bonded.get(who).copied().unwrap_or(0)
    }

    /// Accumulated slashed stake.
    pub fn treasury(&self) -> u64 {
        self.treasury
    }

    /// Total stake ever granted.
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// Sum of all free + bonded balances + treasury. Conservation means
    /// this always equals [`StakeLedger::minted`].
    pub fn circulating(&self) -> u64 {
        self.free.values().sum::<u64>() + self.bonded.values().sum::<u64>() + self.treasury
    }

    /// True when the conservation invariant holds (it always must; the
    /// property tests hammer this).
    pub fn conserved(&self) -> bool {
        self.circulating() == self.minted
    }
}

/// Stake- and reputation-weighted aggregation with quarantine: each vote
/// weighs `discounted_weight(voter, k)` if the voter has bonded at least
/// [`MIN_BOND`] and is not quarantined, else exactly zero. Zero-weight
/// items decide *not factual* (conservative), confidence 0.5.
///
/// Quarantined votes contributing weight zero — rather than being
/// filtered before aggregation — is what makes "quarantined votes never
/// affect the aggregate" a checkable identity: the decision vector is
/// byte-identical whether or not their votes are present at all.
pub fn stake_weighted(
    votes: &[Vote],
    reputation: &ReputationLedger,
    stakes: &StakeLedger,
    quarantined: &BTreeSet<Address>,
) -> Vec<Decision> {
    let mut by_item: BTreeMap<Hash256, Vec<&Vote>> = BTreeMap::new();
    for v in votes {
        by_item.entry(v.item).or_default().push(v);
    }
    by_item
        .into_iter()
        .map(|(item, vs)| {
            let mut yes = 0.0;
            let mut total = 0.0;
            let mut counted = 0usize;
            for v in &vs {
                if quarantined.contains(&v.voter) || stakes.bonded(&v.voter) < MIN_BOND {
                    continue;
                }
                counted += 1;
                let w = reputation.discounted_weight(&v.voter, EVIDENCE_DISCOUNT);
                total += w;
                if v.factual {
                    yes += w;
                }
            }
            let factual = yes * 2.0 > total && total > 0.0;
            let winner = if factual { yes } else { total - yes };
            Decision {
                item,
                factual,
                confidence: if total > 0.0 { winner / total } else { 0.5 },
                votes: counted,
            }
        })
        .collect()
}

/// One committed vote as seen by the detector: `(voter, item, score)`.
pub type ObservedVote = (Address, Hash256, u8);

/// Per-tick coordination report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinationReport {
    /// Votes observed this tick.
    pub total_votes: u64,
    /// Votes this tick cast by a participant currently inside a ring.
    pub coordinated_votes: u64,
    /// Detected rings (each sorted, rings sorted by first member).
    pub rings: Vec<Vec<Address>>,
    /// Participants whose ring-membership streak crossed the quarantine
    /// threshold this tick (sorted, deduplicated, emitted once).
    pub quarantine: Vec<Address>,
}

/// Sliding-window exact-vote-vector ring detection.
///
/// Coordinated campaigns betray themselves by *rate and uniformity*:
/// many identities casting identical vote vectors in the same window.
/// Honest rankers agree in direction but differ in exact scores, so their
/// vectors collide only by chance. The detector groups participants by
/// their windowed `(item, score)` vector over the last 8 ticks; groups of
/// at least 3 members sharing at least 2 items are rings. Ring membership
/// for 2 consecutive observed ticks yields a quarantine verdict.
#[derive(Debug, Clone, Default)]
pub struct CoordinationDetector {
    window: VecDeque<(u64, Vec<ObservedVote>)>,
    streaks: BTreeMap<Address, u32>,
    verdicts: BTreeSet<Address>,
}

impl CoordinationDetector {
    /// New detector with an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one tick's committed votes and reports coordination.
    pub fn observe(&mut self, tick: u64, votes: &[ObservedVote]) -> CoordinationReport {
        self.window.push_back((tick, votes.to_vec()));
        while self.window.len() > WINDOW {
            self.window.pop_front();
        }

        // Windowed per-voter vote vector (last write wins per item).
        let mut vectors: BTreeMap<Address, BTreeMap<Hash256, u8>> = BTreeMap::new();
        for (_, vs) in &self.window {
            for (voter, item, score) in vs {
                vectors.entry(*voter).or_default().insert(*item, *score);
            }
        }

        // Group voters by identical vectors covering enough items.
        let mut groups: BTreeMap<Vec<(Hash256, u8)>, Vec<Address>> = BTreeMap::new();
        for (voter, vec) in &vectors {
            if vec.len() < MIN_SHARED_ITEMS {
                continue;
            }
            let signature: Vec<(Hash256, u8)> = vec.iter().map(|(i, s)| (*i, *s)).collect();
            groups.entry(signature).or_default().push(*voter);
        }
        let rings: Vec<Vec<Address>> = groups
            .into_values()
            .filter(|members| members.len() >= MIN_RING)
            .collect();
        let ringed: BTreeSet<Address> = rings.iter().flatten().copied().collect();

        // Streak accounting: anyone not currently inside a ring — quiet
        // participants included — starts over.
        let mut quarantine = Vec::new();
        self.streaks.retain(|who, _| ringed.contains(who));
        for voter in &ringed {
            let streak = self.streaks.entry(*voter).or_insert(0);
            *streak += 1;
            if *streak >= QUARANTINE_STREAK && self.verdicts.insert(*voter) {
                quarantine.push(*voter);
            }
        }

        let coordinated = votes.iter().filter(|(v, _, _)| ringed.contains(v)).count();
        CoordinationReport {
            total_votes: votes.len() as u64,
            coordinated_votes: coordinated as u64,
            rings,
            quarantine,
        }
    }

    /// All quarantine verdicts issued so far (sorted).
    pub fn quarantined(&self) -> Vec<Address> {
        self.verdicts.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    fn addr(i: u64) -> Address {
        Keypair::from_seed(&i.to_le_bytes()).address()
    }

    fn item(i: u8) -> Hash256 {
        sha256(&[i])
    }

    #[test]
    fn stake_is_conserved_through_grant_bond_slash() {
        let mut s = StakeLedger::new();
        s.grant(&addr(1), 100).unwrap();
        s.grant(&addr(2), 250).unwrap();
        assert!(s.conserved());
        s.post_bond(&addr(1), 80).unwrap();
        s.post_bond(&addr(2), 250).unwrap();
        assert!(s.conserved());
        let cut = s.slash(&addr(2), 2_500);
        assert_eq!(cut, 62);
        assert_eq!(s.treasury(), 62);
        assert_eq!(s.bonded(&addr(2)), 188);
        assert!(s.conserved());
        // Draining slashes always bite at least one token.
        while s.bonded(&addr(2)) > 0 {
            assert!(s.slash(&addr(2), 1) >= 1);
        }
        assert!(s.conserved());
        assert_eq!(s.circulating(), 350);
    }

    #[test]
    fn bond_errors_are_typed() {
        let mut s = StakeLedger::new();
        assert_eq!(s.grant(&addr(1), 0), Err(DefenseError::ZeroAmount));
        s.grant(&addr(1), 10).unwrap();
        assert_eq!(
            s.post_bond(&addr(1), 11),
            Err(DefenseError::InsufficientStake { have: 10, need: 11 })
        );
        assert!(s.conserved());
        assert_eq!(s.slash(&addr(9), 10_000), 0);
    }

    #[test]
    fn stake_weighted_gates_on_bond_and_quarantine() {
        let mut reputation = ReputationLedger::new();
        let mut stakes = StakeLedger::new();
        // Two bonded honest voters with history; a swarm of unbonded
        // sybils; one bonded-but-quarantined ring leader.
        for who in [addr(1), addr(2), addr(66)] {
            for _ in 0..20 {
                reputation.record(&who, true);
            }
            stakes.grant(&who, 100).unwrap();
            stakes.post_bond(&who, 100).unwrap();
        }
        let mut votes = vec![
            Vote {
                voter: addr(1),
                item: item(1),
                factual: true,
            },
            Vote {
                voter: addr(2),
                item: item(1),
                factual: true,
            },
            Vote {
                voter: addr(66),
                item: item(1),
                factual: false,
            },
        ];
        for s in 100..140u64 {
            votes.push(Vote {
                voter: addr(s),
                item: item(1),
                factual: false,
            });
        }
        let quarantined: BTreeSet<Address> = [addr(66)].into_iter().collect();
        let d = stake_weighted(&votes, &reputation, &stakes, &quarantined);
        assert_eq!(d.len(), 1);
        assert!(d[0].factual, "unbonded sybils and quarantined must not win");
        assert_eq!(d[0].votes, 2);
        // Identical decision when the gated votes are absent entirely.
        let clean: Vec<Vote> = votes
            .iter()
            .filter(|v| v.voter == addr(1) || v.voter == addr(2))
            .copied()
            .collect();
        let d2 = stake_weighted(&clean, &reputation, &stakes, &quarantined);
        assert_eq!(d, d2);
    }

    #[test]
    fn stake_weighted_zero_weight_is_conservative() {
        let reputation = ReputationLedger::new();
        let stakes = StakeLedger::new(); // nobody bonded
        let votes = [Vote {
            voter: addr(1),
            item: item(1),
            factual: true,
        }];
        let d = stake_weighted(&votes, &reputation, &stakes, &BTreeSet::new());
        assert!(!d[0].factual);
        assert_eq!(d[0].confidence, 0.5);
        assert_eq!(d[0].votes, 0);
    }

    fn ring_votes(members: &[u64], tickseed: u8) -> Vec<ObservedVote> {
        members
            .iter()
            .flat_map(|&m| {
                vec![
                    (addr(m), item(200), 97),
                    (addr(m), item(201), 3),
                    (addr(m), item(tickseed), 50),
                ]
            })
            .collect()
    }

    #[test]
    fn detector_flags_rings_not_honest_noise() {
        let mut det = CoordinationDetector::new();
        // Honest voters: same direction, distinct exact scores.
        let mut votes: Vec<ObservedVote> = (0..10u64)
            .flat_map(|i| {
                vec![
                    (addr(i), item(200), 10 + i as u8),
                    (addr(i), item(201), 80 + i as u8),
                ]
            })
            .collect();
        votes.extend(ring_votes(&[50, 51, 52], 9));
        let r1 = det.observe(1, &votes);
        assert_eq!(r1.rings.len(), 1);
        assert_eq!(r1.rings[0].len(), 3);
        assert_eq!(r1.coordinated_votes, 9);
        assert_eq!(r1.total_votes, votes.len() as u64);
        assert!(r1.quarantine.is_empty(), "streak 1 < threshold 2");
        // Second tick: same ring → quarantine verdicts, exactly the ring.
        let r2 = det.observe(2, &ring_votes(&[50, 51, 52], 9));
        let expected: BTreeSet<Address> = [addr(50), addr(51), addr(52)].into_iter().collect();
        assert_eq!(
            r2.quarantine.iter().copied().collect::<BTreeSet<_>>(),
            expected
        );
        // Verdicts are emitted once.
        let r3 = det.observe(3, &ring_votes(&[50, 51, 52], 9));
        assert!(r3.quarantine.is_empty());
        assert_eq!(det.quarantined().len(), 3);
    }

    #[test]
    fn detector_clean_traffic_never_fires() {
        let mut det = CoordinationDetector::new();
        for tick in 0..20u64 {
            let votes: Vec<ObservedVote> = (0..12u64)
                .map(|i| (addr(i), item((tick % 5) as u8), (17 * i + tick) as u8 % 100))
                .collect();
            let r = det.observe(tick, &votes);
            assert!(r.rings.is_empty(), "tick {tick}: {:?}", r.rings);
            assert_eq!(r.coordinated_votes, 0);
            assert!(r.quarantine.is_empty());
        }
        assert!(det.quarantined().is_empty());
    }

    #[test]
    fn detector_streak_resets_when_ring_disbands() {
        let mut det = CoordinationDetector::new();
        let r1 = det.observe(1, &ring_votes(&[50, 51, 52], 9));
        assert_eq!(r1.rings.len(), 1);
        assert!(r1.quarantine.is_empty(), "streak 1 < threshold 2");
        // The ring disbands for a tick: each member re-scores item 200
        // differently (last write wins), so no two vectors coincide and
        // every streak entry resets.
        let split: Vec<ObservedVote> = [50u64, 51, 52]
            .iter()
            .map(|&m| (addr(m), item(200), m as u8))
            .collect();
        assert!(det.observe(2, &split).rings.is_empty());
        // Back in lockstep: a ring again, but its streak starts over.
        let r = det.observe(3, &ring_votes(&[50, 51, 52], 9));
        assert_eq!(r.rings.len(), 1);
        assert!(r.quarantine.is_empty(), "streak must have reset");
    }
}
