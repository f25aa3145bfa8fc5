//! Coordination detection for crowd ranking — the detector E24 runs
//! beside the on-chain `RankingContract` (`tn-contracts`), which holds
//! the bonds, slashing, decay and quarantine themselves.
//!
//! [`CoordinationDetector`] watches a sliding window of committed votes.
//! Participants whose *exact* vote vectors coincide on enough items form
//! a ring; persistent ring membership produces quarantine verdicts, which
//! the campaign driver submits to the contract as governor transactions.
//! The per-tick coordinated/total counts feed the `tn-monitor` campaign
//! burn-rate rule.
//!
//! Everything here is deterministic (BTree containers, no RNG), so every
//! replica that watches the same blocks reaches byte-identical verdicts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tn_crypto::{Address, Hash256};

/// Sliding-window length (ticks) for coordination detection.
const WINDOW: usize = 8;
/// Minimum participants with identical vote vectors to call a ring.
const MIN_RING: usize = 3;
/// Minimum items two vote vectors must share before they are comparable
/// (one shared vote is coincidence, not coordination).
const MIN_SHARED_ITEMS: usize = 2;
/// Consecutive flagged ticks before a quarantine verdict.
const QUARANTINE_STREAK: u32 = 2;

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
