//! Differential oracle for `tn_supplychain::text`'s similarity kernel:
//! `shingle_similarity` for every k in 1..=8, `similarity` and
//! `modification_degree` at [`DEFAULT_SHINGLE`], and `tokenize`, against
//! the definition they replaced, compared by `f64::to_bits`.
//!
//! The reference ([`reference`]) is that definition word for word: a text
//! is lowercased into alphanumeric word tokens, a set of `HashSet<String>`
//! shingles joins every run of k tokens with a space (a text of 1..=k
//! tokens is one shingle, the whole text; an empty text has none), and the
//! similarity is the Jaccard index of two such sets (1 for two empty
//! sets). The graph stores `modification_degree` on every parent edge it
//! inserts, and those bits enter `SupplyChainGraph::digest`, the
//! checkpoint bytes and every trace score, so a kernel off by one ulp on
//! one pair forks replicas that run different builds.
//!
//! Inputs are random pairs over a word list chosen where tokenizers go
//! wrong — `İ` (lowercases to two chars), `ß` / `ẞ`, the titlecase `ǅ`,
//! `Σ` (no final-sigma context per char), combining marks (not
//! alphanumeric: they split words), non-ASCII digits, punctuation-only and
//! empty texts, texts of 1..=k tokens and runs repeated inside one text —
//! plus the relay, cite and mix edges `reader_mix`'s generator publishes.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tn_supplychain::text::{
    modification_degree, shingle_similarity, similarity, tokenize, DEFAULT_SHINGLE,
};

// --- the definition -------------------------------------------------------

mod reference {
    use std::collections::HashSet;

    /// Lowercases and splits text into alphanumeric word tokens.
    pub fn tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                cur.extend(ch.to_lowercase());
            } else if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            tokens.push(cur);
        }
        tokens
    }

    /// Builds the set of word `k`-shingles (joined with a separator).
    pub fn shingles(text: &str, k: usize) -> HashSet<String> {
        assert!(k > 0, "shingle size must be positive");
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return HashSet::new();
        }
        if tokens.len() <= k {
            let mut s = HashSet::new();
            s.insert(tokens.join(" "));
            return s;
        }
        tokens.windows(k).map(|w| w.join(" ")).collect()
    }

    /// Jaccard similarity of two sets (1.0 for two empty sets).
    pub fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let inter = a.intersection(b).count();
        let union = a.len() + b.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

const MAX_K: usize = 8;

/// What the generated pairs exercised, so a generator change that stops
/// producing a case fails instead of silently passing.
#[derive(Default)]
struct Coverage {
    pairs: usize,
    both_empty: usize,
    one_empty: usize,
    short_side: usize,
    repeated_shingle: usize,
    partial_overlap: usize,
    disjoint: usize,
    non_ascii_token: usize,
}

/// Holds one pair to the definition at every k, and the k = 3 wrappers.
fn check(a: &str, b: &str, cover: &mut Coverage) {
    assert_eq!(tokenize(a), reference::tokenize(a), "tokenize({a:?})");
    let (ta, tb) = (reference::tokenize(a), reference::tokenize(b));
    for k in 1..=MAX_K {
        let (sa, sb) = (reference::shingles(a, k), reference::shingles(b, k));
        let want = reference::jaccard(&sa, &sb);
        let got = shingle_similarity(a, b, k);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "k={k} a={a:?} b={b:?}: kernel {got}, definition {want}"
        );
        if k == DEFAULT_SHINGLE {
            assert_eq!(similarity(a, b).to_bits(), want.to_bits(), "{a:?} {b:?}");
            assert_eq!(
                modification_degree(a, b).to_bits(),
                (1.0 - want).to_bits(),
                "{a:?} {b:?}"
            );
            let repeats = |tokens: &[String], set: &HashSet<String>| {
                tokens.len() > k && set.len() < tokens.len() + 1 - k
            };
            cover.repeated_shingle += usize::from(repeats(&ta, &sa) || repeats(&tb, &sb));
            cover.partial_overlap += usize::from(want > 0.0 && want < 1.0);
            cover.disjoint += usize::from(want == 0.0 && !(sa.is_empty() || sb.is_empty()));
        }
    }
    cover.pairs += 1;
    cover.both_empty += usize::from(ta.is_empty() && tb.is_empty());
    cover.one_empty += usize::from(ta.is_empty() != tb.is_empty());
    cover.short_side += usize::from((1..=DEFAULT_SHINGLE).contains(&ta.len()));
    cover.non_ascii_token += usize::from(ta.iter().any(|t| !t.is_ascii()));
}

// --- random pairs ---------------------------------------------------------

/// Words picked where lowercasing and splitting are easy to get wrong.
/// Case variants of one word are the same token, so they make shared and
/// repeated shingles.
const WORDS: &[&str] = &[
    "the",
    "The",
    "THE",
    "committee",
    "Committee",
    "approved",
    "amendment",
    "vote",
    "a",
    "b",
    "c",
    "2019",
    "x1",
    "٣٤",
    "İstanbul",
    "İ",
    "i",
    "i\u{307}",
    "straße",
    "STRASSE",
    "ẞ",
    "ß",
    "ǅemal",
    "ǆemal",
    "Ǆ",
    "ΣΟΦΙΑ",
    "σοφια",
    "Σ",
    "ς",
    "σ",
    "café",
    "cafe\u{301}",
    "e\u{301}",
    "ﬁle",
    "Ⅻ",
    "ⅻ",
    "日本",
    "Ωmega",
    "ΑΘΗΝΑ",
    "...",
    "—",
    "-",
];

/// Between words: mostly a space; a few glue two words into one token or
/// split with a lone combining mark.
const SEPARATORS: &[&str] = &[
    " ", " ", " ", " ", ", ", ". ", "—", "\u{301}", "\n", "'", "", "!?", " … ", "\t",
];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

fn random_words(rng: &mut StdRng) -> Vec<&'static str> {
    // Lengths up to 14 cover every k ≤ 8 from both sides of the
    // short-text rule, and the empty and one-word texts.
    let len = rng.gen_range(0..=14usize);
    (0..len).map(|_| pick(rng, WORDS)).collect()
}

/// A derived text: edits that keep most shingles (replace, insert,
/// delete, a repeated run), as relays and citations do.
fn derive(rng: &mut StdRng, words: &[&'static str]) -> Vec<&'static str> {
    let mut out = words.to_vec();
    for _ in 0..rng.gen_range(0..=3usize) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..4u32) {
            0 if at < out.len() => out[at] = pick(rng, WORDS),
            1 => out.insert(at, pick(rng, WORDS)),
            2 if at < out.len() => {
                out.remove(at);
            }
            _ => {
                let end = (at + rng.gen_range(3..=5usize)).min(out.len());
                let run = out[at..end].to_vec();
                for (i, w) in run.into_iter().enumerate() {
                    out.insert(at + i, w);
                }
            }
        }
    }
    out
}

fn render(rng: &mut StdRng, words: &[&str]) -> String {
    let mut text = String::new();
    if rng.gen_bool(0.1) {
        text.push_str(pick(rng, SEPARATORS));
    }
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            text.push_str(pick(rng, SEPARATORS));
        }
        text.push_str(w);
    }
    if rng.gen_bool(0.1) {
        text.push_str(pick(rng, SEPARATORS));
    }
    text
}

#[test]
fn random_pairs_match_the_definition_bit_for_bit_for_every_k() {
    let mut rng = StdRng::seed_from_u64(0x51_a11a);
    let mut cover = Coverage::default();
    for (a, b) in [
        ("", ""),
        ("", "the vote"),
        ("...", "— - !?"),
        ("İ", "i\u{307}"),
        ("İ", "i"),
        ("Σ", "ς"),
        ("ẞ", "ß"),
        ("ǅ", "ǆ"),
        ("e\u{301}", "e"),
        ("a b", "a b c"),
        ("a a a a a", "a a"),
    ] {
        check(a, b, &mut cover);
        check(b, a, &mut cover);
    }
    for _ in 0..100_000 {
        let wa = random_words(&mut rng);
        let wb = if rng.gen_bool(0.25) {
            random_words(&mut rng)
        } else {
            derive(&mut rng, &wa)
        };
        let (a, b) = (render(&mut rng, &wa), render(&mut rng, &wb));
        check(&a, &b, &mut cover);
    }
    assert!(cover.pairs > 100_000);
    for (case, n) in [
        ("both texts empty", cover.both_empty),
        ("one text empty", cover.one_empty),
        ("a text of 1..=k tokens", cover.short_side),
        ("a shingle repeated in one text", cover.repeated_shingle),
        ("similarity strictly between 0 and 1", cover.partial_overlap),
        ("disjoint non-empty shingle sets", cover.disjoint),
        ("a non-ASCII token", cover.non_ascii_token),
    ] {
        assert!(n >= 500, "only {n} pairs with {case}");
    }
}

// --- reader_mix's edges ----------------------------------------------------

/// `reader_mix`'s publish text (`benchmark/src/reader.rs`).
fn report(base: usize, author: usize, i: usize) -> String {
    format!(
        "Report {base} of author {author}: the committee approved the amendment \
         with a clear majority and the minister welcomed it. Update {i}."
    )
}

#[test]
fn reader_mix_relay_cite_and_mix_edges_match_the_definition() {
    // The same genesis corpus the benchmark's platform plants as roots.
    let facts = tn_factdb::corpus::generate_corpus(&tn_factdb::corpus::CorpusConfig {
        size: 50,
        seed: 42,
        start_time: 0,
    });
    // 1 152 ops of the plan's shape: every third op is a rating, authors
    // take turns, a chain restarts from a fact citation past depth 48, and
    // one relay in seven also mixes in a fact record.
    const AUTHORS: usize = 8;
    const MAX_DEPTH: usize = 48;
    let mut heads: [Option<(usize, String)>; AUTHORS] = Default::default();
    let mut depth = [0usize; AUTHORS];
    let mut cover = Coverage::default();
    for (publish, i) in (0..1152).filter(|i| i % 3 != 2).enumerate() {
        let author = publish % AUTHORS;
        let fact = &facts[(i * 7) % facts.len()].content;
        let fresh = depth[author] == 0 || depth[author] >= MAX_DEPTH;
        depth[author] = if fresh { 1 } else { depth[author] + 1 };
        let (base, content) = match (&heads[author], fresh) {
            (Some((base, head)), false) => {
                let content = report(*base, author, i);
                check(head, &content, &mut cover);
                if i % 7 == 0 {
                    check(fact, &content, &mut cover);
                }
                (*base, content)
            }
            _ => {
                let content = report(i, author, i);
                check(fact, &content, &mut cover);
                (i, content)
            }
        };
        heads[author] = Some((base, content));
    }
    assert!(cover.pairs > 768, "{} edges", cover.pairs);
    assert!(cover.partial_overlap > 700);
}
