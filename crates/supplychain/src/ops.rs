//! News propagation operations.
//!
//! "The news propagation operation can be either simply relaying the news
//! or the news can go through various types of modifications with
//! different intents including, for examples, mixing, splitting, merging,
//! and inserting" (§VI). This module defines the operation taxonomy and
//! executable text transformations for each, used by the synthetic
//! workload generators.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::text::sentences;

/// The kind of transformation applied when a news item derives from its
/// parent(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropagationOp {
    /// Verbatim forward.
    Relay,
    /// Quoting / citing a factual-database record.
    Cite,
    /// Interleaving content from two parents.
    Mix,
    /// Extracting a part of the parent ("taking the pieces of information
    /// out of context", §I).
    Split,
    /// Concatenating two parents.
    Merge,
    /// Injecting new sentences into the parent (the paper's 72.3 %
    /// modified-factual fake-news pattern).
    Insert,
}

impl PropagationOp {
    /// All operations, for iteration.
    pub(crate) const ALL: [PropagationOp; 6] = [
        PropagationOp::Relay,
        PropagationOp::Cite,
        PropagationOp::Mix,
        PropagationOp::Split,
        PropagationOp::Merge,
        PropagationOp::Insert,
    ];

    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            PropagationOp::Relay => 0,
            PropagationOp::Cite => 1,
            PropagationOp::Mix => 2,
            PropagationOp::Split => 3,
            PropagationOp::Merge => 4,
            PropagationOp::Insert => 5,
        }
    }

    /// Decodes a wire tag.
    pub(crate) fn from_tag(t: u8) -> Option<PropagationOp> {
        PropagationOp::ALL.get(t as usize).copied()
    }
}

/// Verbatim relay.
pub(crate) fn relay(parent: &str) -> String {
    parent.to_string()
}

/// Extracts a random contiguous run of at least half the sentences.
pub(crate) fn split<R: Rng>(parent: &str, rng: &mut R) -> String {
    let sents = sentences(parent);
    if sents.len() <= 1 {
        return parent.to_string();
    }
    let keep = (sents.len() / 2).max(1);
    let start = rng.gen_range(0..=sents.len() - keep);
    sents[start..start + keep].join(". ") + "."
}

/// Interleaves sentences from two parents.
pub(crate) fn mix<R: Rng>(a: &str, b: &str, rng: &mut R) -> String {
    let sa = sentences(a);
    let sb = sentences(b);
    let mut out = Vec::with_capacity(sa.len() + sb.len());
    let mut ia = sa.into_iter();
    let mut ib = sb.into_iter();
    loop {
        let pick_a = rng.gen_bool(0.5);
        let next = if pick_a {
            ia.next().or_else(|| ib.next())
        } else {
            ib.next().or_else(|| ia.next())
        };
        match next {
            Some(s) => out.push(s),
            None => break,
        }
    }
    out.join(". ") + "."
}

/// Concatenates two parents.
pub(crate) fn merge(a: &str, b: &str) -> String {
    let mut out = a.trim_end().to_string();
    if !out.ends_with('.') {
        out.push('.');
    }
    out.push(' ');
    out.push_str(b.trim_start());
    out
}

/// Inserts the given sentences at random positions in the parent.
pub fn insert<R: Rng>(parent: &str, injected: &[&str], rng: &mut R) -> String {
    let mut sents = sentences(parent);
    if sents.is_empty() {
        return injected.join(". ") + ".";
    }
    for inj in injected {
        let pos = rng.gen_range(0..=sents.len());
        sents.insert(pos, inj.to_string());
    }
    sents.join(". ") + "."
}

/// Sentence bank used by fake-news injectors: emotionally loaded,
/// unverifiable claims in the style the paper attributes to fabricated
/// stories ("the content of the news is often easy to carry personal
/// emotions and intentions, using the words of negative emotions", §I).
pub(crate) const FAKE_INJECTIONS: [&str; 10] = [
    "Insiders warn this is a shocking corrupt cover-up",
    "Anonymous sources claim the real numbers are being hidden",
    "This outrageous betrayal will destroy ordinary families",
    "They do not want you to know the terrifying truth",
    "Furious critics call it the worst scandal in history",
    "Leaked memos allegedly reveal a secret deal with lobbyists",
    "Experts everyone trusts say the report is a complete lie",
    "The disgraceful plot was hatched behind closed doors",
    "Share this before it gets deleted by the censors",
    "A whistleblower fears for their life after speaking out",
];

/// Neutral filler used by honest paraphrasers.
pub(crate) const NEUTRAL_INJECTIONS: [&str; 6] = [
    "Officials provided additional context at the briefing",
    "The full document is available in the public record",
    "Analysts noted the measure follows earlier proposals",
    "The vote tally was published the same afternoon",
    "Reporters confirmed the details with two independent sources",
    "A follow-up session is scheduled for next month",
];

/// Applies a random instance of `op` given parent texts, returning the
/// derived text. `parents` must match `op.arity()` (extra parents are
/// ignored; missing second parent falls back to unary behaviour).
pub fn apply<R: Rng>(op: PropagationOp, parents: &[&str], fake: bool, rng: &mut R) -> String {
    let p0 = parents.first().copied().unwrap_or("");
    match op {
        PropagationOp::Relay | PropagationOp::Cite => relay(p0),
        PropagationOp::Split => split(p0, rng),
        PropagationOp::Mix => match parents.get(1) {
            Some(p1) => mix(p0, p1, rng),
            None => split(p0, rng),
        },
        PropagationOp::Merge => match parents.get(1) {
            Some(p1) => merge(p0, p1),
            None => relay(p0),
        },
        PropagationOp::Insert => {
            let bank: &[&str] = if fake {
                &FAKE_INJECTIONS
            } else {
                &NEUTRAL_INJECTIONS
            };
            let count = rng.gen_range(1..=2);
            let picks: Vec<&str> = bank.choose_multiple(rng, count).copied().collect();
            insert(p0, &picks, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{modification_degree, similarity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl PropagationOp {
        /// How many parent items the operation takes.
        fn arity(self) -> usize {
            match self {
                PropagationOp::Mix | PropagationOp::Merge => 2,
                _ => 1,
            }
        }
    }

    const PARENT: &str = "The committee approved the solar subsidy amendment. \
        The vote passed with a clear majority. The minister welcomed the outcome. \
        Industry groups published their initial reactions. A review is planned next year.";

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn tags_round_trip() {
        for op in PropagationOp::ALL {
            assert_eq!(PropagationOp::from_tag(op.tag()), Some(op));
        }
        assert_eq!(PropagationOp::from_tag(200), None);
    }

    #[test]
    fn relay_is_identity() {
        assert_eq!(relay(PARENT), PARENT);
        assert!(modification_degree(PARENT, &relay(PARENT)) < 1e-12);
    }

    #[test]
    fn split_keeps_subset_of_content() {
        let mut r = rng();
        let out = split(PARENT, &mut r);
        assert!(!out.is_empty());
        assert!(out.len() < PARENT.len());
        // Every output sentence comes from the parent.
        for s in crate::text::sentences(&out) {
            assert!(PARENT.contains(&s), "sentence {s:?} not in parent");
        }
    }

    #[test]
    fn insert_increases_modification_more_when_fake() {
        let mut r = rng();
        let honest = apply(PropagationOp::Insert, &[PARENT], false, &mut r);
        let mut r = rng();
        let fake = apply(PropagationOp::Insert, &[PARENT], true, &mut r);
        assert!(modification_degree(PARENT, &honest) > 0.0);
        assert!(modification_degree(PARENT, &fake) > 0.0);
        // Both should still share most content with the parent.
        assert!(similarity(PARENT, &fake) > 0.2);
    }

    #[test]
    fn merge_contains_both_parents() {
        let other = "Parliament debated the fisheries quota. The session ran late.";
        let out = merge(PARENT, other);
        assert!(out.contains("solar subsidy"));
        assert!(out.contains("fisheries quota"));
    }

    #[test]
    fn mix_draws_from_both() {
        let other = "Parliament debated the fisheries quota. The session ran late into the night. Observers counted every vote.";
        let mut r = rng();
        let out = mix(PARENT, other, &mut r);
        let sents = crate::text::sentences(&out);
        assert_eq!(
            sents.len(),
            crate::text::sentences(PARENT).len() + crate::text::sentences(other).len()
        );
    }

    #[test]
    fn apply_handles_missing_second_parent() {
        let mut r = rng();
        let out = apply(PropagationOp::Merge, &[PARENT], false, &mut r);
        assert_eq!(out, PARENT);
        let out = apply(PropagationOp::Mix, &[PARENT], false, &mut r);
        assert!(!out.is_empty());
    }

    #[test]
    fn arity_is_declared() {
        assert_eq!(PropagationOp::Relay.arity(), 1);
        assert_eq!(PropagationOp::Mix.arity(), 2);
        assert_eq!(PropagationOp::Merge.arity(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = apply(
            PropagationOp::Insert,
            &[PARENT],
            true,
            &mut StdRng::seed_from_u64(5),
        );
        let b = apply(
            PropagationOp::Insert,
            &[PARENT],
            true,
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(a, b);
    }
}
