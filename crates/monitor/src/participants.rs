//! Participant-level verdict state machine.
//!
//! The replica health machine in [`health`](crate::health) answers "can
//! I trust this *replica*?". During a misinformation campaign the
//! platform also needs an online answer to "can I trust this
//! *participant*?" — a crowd ranker whose votes keep landing inside
//! coordination rings. [`ParticipantLedger`] mirrors the replica
//! machine's shape: a monotone escalation ladder
//! (`Trusted → Watched → Quarantined`) driven by per-tick strike
//! observations, with hysteresis in both directions so a single noisy
//! tick neither condemns an honest ranker nor paroles a bot.
//!
//! Participants are identified by opaque strings (typically a hex
//! address) — this crate deliberately knows nothing about keys or
//! addresses, so verdicts stay a pure function of observed behaviour.

use std::collections::BTreeMap;

/// How much the monitoring plane currently trusts one participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParticipantVerdict {
    /// No recent coordination evidence.
    Trusted,
    /// Implicated in at least one coordination ring recently; votes
    /// should be cross-checked but still count.
    Watched,
    /// Persistently coordinated; the enforcement plane should zero this
    /// participant's vote weight until the verdict decays.
    Quarantined,
}

impl ParticipantVerdict {
    /// Short lowercase label (`"trusted"`, `"watched"`, `"quarantined"`).
    pub fn label(&self) -> &'static str {
        match self {
            ParticipantVerdict::Trusted => "trusted",
            ParticipantVerdict::Watched => "watched",
            ParticipantVerdict::Quarantined => "quarantined",
        }
    }
}

/// Consecutive strike ticks before `Trusted → Watched`.
const WATCH_AFTER: u32 = 1;
/// Further consecutive strike ticks before `Watched → Quarantined`.
const QUARANTINE_AFTER: u32 = 2;
/// Consecutive clean ticks before stepping one rung back down.
const CLEAR_AFTER: u32 = 4;

#[derive(Debug, Clone, Copy)]
struct ParticipantRecord {
    verdict: ParticipantVerdict,
    /// Consecutive ticks implicated in a ring.
    strikes: u32,
    /// Consecutive ticks observed clean since the last strike.
    clean: u32,
}

impl ParticipantRecord {
    fn new() -> ParticipantRecord {
        ParticipantRecord {
            verdict: ParticipantVerdict::Trusted,
            strikes: 0,
            clean: 0,
        }
    }
}

/// Tracks a verdict per participant from per-tick strike observations.
///
/// Feed it one [`observe`](ParticipantLedger::observe) call per
/// monitoring tick with the ids implicated in coordination rings that
/// tick; every other known participant is treated as clean for the
/// tick. Verdict changes are returned and also appended to an
/// append-only transition log, mirroring
/// [`ReplicaMonitor::transitions`](crate::health::ReplicaMonitor::transitions).
#[derive(Debug, Default)]
pub struct ParticipantLedger {
    records: BTreeMap<String, ParticipantRecord>,
    /// `(tick, participant, new verdict)`, oldest first.
    transitions: Vec<(u64, String, ParticipantVerdict)>,
}

impl ParticipantLedger {
    /// An empty ledger.
    pub fn new() -> ParticipantLedger {
        ParticipantLedger::default()
    }

    /// Ingests one monitoring tick: `implicated` are the participants
    /// flagged inside a coordination ring this tick; every other known
    /// participant counts as clean. Returns the verdict transitions the
    /// tick produced, in participant order.
    pub fn observe(
        &mut self,
        tick: u64,
        implicated: &[String],
    ) -> Vec<(String, ParticipantVerdict)> {
        for id in implicated {
            self.records
                .entry(id.clone())
                .or_insert_with(ParticipantRecord::new);
        }
        let mut changed = Vec::new();
        for (id, rec) in self.records.iter_mut() {
            let struck = implicated.iter().any(|i| i == id);
            let next = if struck {
                rec.strikes += 1;
                rec.clean = 0;
                match rec.verdict {
                    ParticipantVerdict::Trusted if rec.strikes >= WATCH_AFTER => {
                        // A strike streak long enough for quarantine
                        // skips the intermediate rung.
                        if rec.strikes >= WATCH_AFTER + QUARANTINE_AFTER {
                            ParticipantVerdict::Quarantined
                        } else {
                            ParticipantVerdict::Watched
                        }
                    }
                    ParticipantVerdict::Watched
                        if rec.strikes >= WATCH_AFTER + QUARANTINE_AFTER =>
                    {
                        ParticipantVerdict::Quarantined
                    }
                    v => v,
                }
            } else {
                rec.clean += 1;
                if rec.clean >= CLEAR_AFTER {
                    rec.clean = 0;
                    rec.strikes = 0;
                    match rec.verdict {
                        ParticipantVerdict::Quarantined => ParticipantVerdict::Watched,
                        ParticipantVerdict::Watched | ParticipantVerdict::Trusted => {
                            ParticipantVerdict::Trusted
                        }
                    }
                } else {
                    rec.verdict
                }
            };
            if next != rec.verdict {
                rec.verdict = next;
                changed.push((id.clone(), next));
            }
        }
        for (id, v) in &changed {
            self.transitions.push((tick, id.clone(), *v));
        }
        changed
    }

    /// Current verdict for `id` (`Trusted` when never observed).
    pub fn verdict(&self, id: &str) -> ParticipantVerdict {
        self.records
            .get(id)
            .map(|r| r.verdict)
            .unwrap_or(ParticipantVerdict::Trusted)
    }

    /// Participants currently under quarantine, in id order.
    pub fn quarantined(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|(_, r)| r.verdict == ParticipantVerdict::Quarantined)
            .map(|(id, _)| id.as_str())
            .collect()
    }

    /// Every verdict transition so far, oldest first.
    pub fn transitions(&self) -> &[(u64, String, ParticipantVerdict)] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn escalates_through_watched_to_quarantined_with_hysteresis() {
        let mut ledger = ParticipantLedger::new();
        let bot = ids(&["bot-1"]);
        let t1 = ledger.observe(1, &bot);
        assert_eq!(t1, vec![("bot-1".into(), ParticipantVerdict::Watched)]);
        // Policy default: quarantine needs watch_after + quarantine_after
        // = 3 consecutive strikes.
        assert!(ledger.observe(2, &bot).is_empty());
        let t3 = ledger.observe(3, &bot);
        assert_eq!(t3, vec![("bot-1".into(), ParticipantVerdict::Quarantined)]);
        assert_eq!(ledger.quarantined(), vec!["bot-1"]);
    }

    #[test]
    fn clean_ticks_step_back_down_one_rung_at_a_time() {
        let mut ledger = ParticipantLedger::new();
        let bot = ids(&["bot-1"]);
        for tick in 1..=3 {
            ledger.observe(tick, &bot);
        }
        assert_eq!(ledger.verdict("bot-1"), ParticipantVerdict::Quarantined);
        // clear_after = 4 clean ticks per rung: 4 → Watched, 8 → Trusted.
        for tick in 4..=7 {
            ledger.observe(tick, &[]);
        }
        assert_eq!(ledger.verdict("bot-1"), ParticipantVerdict::Watched);
        for tick in 8..=11 {
            ledger.observe(tick, &[]);
        }
        assert_eq!(ledger.verdict("bot-1"), ParticipantVerdict::Trusted);
        assert!(ledger.quarantined().is_empty());
    }

    #[test]
    fn single_noisy_tick_does_not_quarantine_and_resets_on_clean() {
        let mut ledger = ParticipantLedger::new();
        ledger.observe(1, &ids(&["h-1"]));
        assert_eq!(ledger.verdict("h-1"), ParticipantVerdict::Watched);
        // One strike then clean: strikes reset after clear_after ticks,
        // so a later isolated strike still only reaches Watched.
        for tick in 2..=5 {
            ledger.observe(tick, &[]);
        }
        assert_eq!(ledger.verdict("h-1"), ParticipantVerdict::Trusted);
        ledger.observe(6, &ids(&["h-1"]));
        assert_eq!(ledger.verdict("h-1"), ParticipantVerdict::Watched);
        assert!(ledger.quarantined().is_empty());
    }

    #[test]
    fn unknown_participants_default_to_trusted() {
        let ledger = ParticipantLedger::default();
        assert_eq!(ledger.verdict("nobody"), ParticipantVerdict::Trusted);
        assert!(ledger.quarantined().is_empty());
        assert!(ledger.transitions().is_empty());
    }

    #[test]
    fn transition_log_records_tick_and_order() {
        let mut ledger = ParticipantLedger::new();
        let ring = ids(&["a", "b"]);
        ledger.observe(5, &ring);
        ledger.observe(6, &ring);
        ledger.observe(7, &ring);
        let log = ledger.transitions();
        assert_eq!(log.len(), 4);
        assert_eq!(log[0], (5, "a".into(), ParticipantVerdict::Watched));
        assert_eq!(log[1], (5, "b".into(), ParticipantVerdict::Watched));
        assert_eq!(log[2], (7, "a".into(), ParticipantVerdict::Quarantined));
        assert_eq!(log[3], (7, "b".into(), ParticipantVerdict::Quarantined));
    }
}
