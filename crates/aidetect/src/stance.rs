//! Headline/body stance detection, after the Fake News Challenge \[33\].
//!
//! "Fake News Challenge starts with a stance detection process that
//! examines the perspective of news articles and compares them with other
//! reports. It can detect if the two headlines are consistent or
//! contradictory" (§II). This detector classifies a (headline, body) pair
//! as agree / disagree / discuss / unrelated from lexical overlap and
//! negation/refutation cues.

use std::collections::HashSet;

use crate::features::tokenize;

/// Stance of a body text relative to a headline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stance {
    /// Body supports the headline.
    Agree,
    /// Body contradicts or refutes the headline.
    Disagree,
    /// Body is on-topic but takes no position.
    Discuss,
    /// Body is about something else entirely.
    Unrelated,
}

/// Refutation / negation cue words.
const REFUTATION: [&str; 14] = [
    "not", "no", "never", "false", "fake", "hoax", "denies", "denied", "deny", "debunked",
    "refuted", "wrong", "untrue", "disputed",
];

/// Supporting cue words.
const SUPPORT: [&str; 10] = [
    "confirmed",
    "confirms",
    "verified",
    "official",
    "announced",
    "approved",
    "signed",
    "passed",
    "published",
    "ratified",
];

/// Jaccard overlap below which the pair is `Unrelated`.
const UNRELATED_BELOW: f64 = 0.05;
/// Refutation-cue density (per 100 tokens) at or above which the pair is
/// `Disagree`.
const REFUTE_DENSITY: f64 = 1.0;
/// Support-cue count at or above which the pair is `Agree`.
const SUPPORT_CUES: usize = 1;

/// Token-set Jaccard overlap between headline and body.
pub(crate) fn overlap(headline: &str, body: &str) -> f64 {
    let h: HashSet<String> = tokenize(headline).into_iter().collect();
    let b: HashSet<String> = tokenize(body).into_iter().collect();
    if h.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = h.intersection(&b).count();
    inter as f64 / h.union(&b).count() as f64
}

/// Classifies the stance of `body` toward `headline`.
pub fn detect_stance(headline: &str, body: &str) -> Stance {
    let ov = overlap(headline, body);
    if ov < UNRELATED_BELOW {
        return Stance::Unrelated;
    }
    let body_tokens = tokenize(body);
    let n = body_tokens.len().max(1);
    let refutes = body_tokens
        .iter()
        .filter(|t| REFUTATION.contains(&t.as_str()))
        .count();
    let supports = body_tokens
        .iter()
        .filter(|t| SUPPORT.contains(&t.as_str()))
        .count();
    let refute_density = refutes as f64 * 100.0 / n as f64;
    if refute_density >= REFUTE_DENSITY && refutes > supports {
        Stance::Disagree
    } else if supports >= SUPPORT_CUES {
        Stance::Agree
    } else {
        Stance::Discuss
    }
}

/// A fake-likelihood signal from stance: headlines whose own body
/// disagrees with them, or that are unrelated to their body, are
/// suspicious; corroborated (agree) pairs are not.
pub(crate) fn stance_score(stance: Stance) -> f64 {
    match stance {
        Stance::Agree => 0.15,
        Stance::Discuss => 0.45,
        Stance::Disagree => 0.85,
        Stance::Unrelated => 0.7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADLINE: &str = "Committee approves solar subsidy amendment";

    #[test]
    fn agree_case() {
        let body = "The committee officially approved the solar subsidy amendment; \
                    the result was confirmed and published the same day.";
        assert_eq!(detect_stance(HEADLINE, body), Stance::Agree);
    }

    #[test]
    fn disagree_case() {
        let body = "Reports that the committee approved the solar subsidy amendment are false. \
                    The chair denied the claim and called it a hoax, not a decision.";
        assert_eq!(detect_stance(HEADLINE, body), Stance::Disagree);
    }

    #[test]
    fn unrelated_case() {
        let body = "Penguins waddle across frozen shores while whales sing offshore.";
        assert_eq!(detect_stance(HEADLINE, body), Stance::Unrelated);
    }

    #[test]
    fn discuss_case() {
        let body = "The solar subsidy amendment has been debated by the committee for weeks; \
                    analysts expect a decision on the subsidy question soon.";
        assert_eq!(detect_stance(HEADLINE, body), Stance::Discuss);
    }

    #[test]
    fn overlap_bounds() {
        assert_eq!(overlap("", "anything"), 0.0);
        assert!((overlap("a b c", "a b c") - 1.0).abs() < 1e-12);
        let o = overlap(HEADLINE, "committee subsidy talk");
        assert!(o > 0.0 && o < 1.0);
    }

    #[test]
    fn stance_scores_ordered() {
        assert!(stance_score(Stance::Agree) < stance_score(Stance::Discuss));
        assert!(stance_score(Stance::Discuss) < stance_score(Stance::Unrelated));
        assert!(stance_score(Stance::Unrelated) < stance_score(Stance::Disagree));
    }
}
