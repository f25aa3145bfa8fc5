//! The fake-vs-factual propagation race — experiment E5.
//!
//! The paper's thesis: a platform that certifies and broadcasts facts can
//! make "factual-sourced reporting … outpace the spread of fake news on
//! social media" (§I, abstract). This harness releases a fake story and a
//! factual story on the same network and measures reach over time under a
//! chosen platform intervention.

use crate::cascade::{
    assign_accounts, independent_cascade, AccountKind, CascadeConfig, CascadeError, CascadeResult,
};
use crate::network::SocialGraph;

/// Platform intervention applied to the *fake* story.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Intervention {
    /// No platform action — the status quo baseline.
    None,
    /// The story is flagged after `delay` rounds: its reshare probability
    /// drops to `multiplier` (Facebook's cited figure: 0.2).
    Flagging {
        /// Rounds before the flag lands (detection latency).
        delay: usize,
        /// Post-flag share multiplier.
        multiplier: f64,
    },
    /// Identified fake sources (the seed accounts) are blocked after
    /// `delay` rounds — the accountability mechanism in action.
    SourceBlocking {
        /// Rounds before sources are identified and blocked.
        delay: usize,
    },
    /// Platform ranking suppresses the fake story's exposure from the
    /// start (trace-based ranking means it never ranks well).
    RankingSuppression {
        /// Constant share multiplier.
        multiplier: f64,
    },
}

/// Fraction of accounts that are bots (amplifying the fake side, per the
/// paper's citations).
const BOT_FRACTION: f64 = 0.10;
/// Fraction of accounts that are cyborgs.
const CYBORG_FRACTION: f64 = 0.05;
/// Number of seed accounts per story. Fake seeds are the highest-degree
/// nodes (bots buy influence).
const N_SEEDS: usize = 5;
/// Base transmission probability (both stories).
const BASE_PROB: f64 = 0.06;
/// Rounds to simulate.
const ROUNDS: usize = 40;
/// RNG seed.
const SEED: u64 = 99;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct RaceConfig {
    /// Boost applied to the factual story when the platform certifies it
    /// (1.0 = no boost).
    pub factual_boost: f64,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig { factual_boost: 1.0 }
    }
}

/// Outcome of one race.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceResult {
    /// Fake-story reach per round.
    pub fake: CascadeResult,
    /// Factual-story reach per round.
    pub factual: CascadeResult,
    /// factual reach ÷ fake reach (∞-safe: fake floor of 1).
    pub factual_to_fake_ratio: f64,
    /// True when the factual story's final reach beats the fake's.
    pub factual_wins: bool,
}

/// Runs the race on `graph` under `intervention`.
///
/// The fake story spreads with bot amplification (bots are its vector);
/// the factual story spreads among humans only (bots do not amplify
/// facts), optionally boosted by platform certification.
///
/// # Errors
///
/// Propagates [`CascadeError`] from the underlying cascades (impossible
/// for masks built here, but surfaced rather than unwrapped).
pub fn run_race(
    graph: &SocialGraph,
    config: &RaceConfig,
    intervention: Intervention,
) -> Result<RaceResult, CascadeError> {
    let n = graph.len();
    let accounts = assign_accounts(n, BOT_FRACTION, CYBORG_FRACTION, SEED);

    // Seed selection: the fake story starts at the influencers.
    let by_degree = graph.by_degree_desc();
    let fake_seeds: Vec<usize> = by_degree.iter().copied().take(N_SEEDS).collect();
    // Factual seeds: ordinarily mid-range accounts (journalists); when the
    // platform certifies the story (factual_boost > 1) it also *places* it
    // on high-reach feeds — certification changes distribution, not just
    // per-share odds.
    let factual_seeds: Vec<usize> = if config.factual_boost > 1.0 {
        by_degree
            .iter()
            .copied()
            .skip(N_SEEDS)
            .take(N_SEEDS)
            .collect()
    } else {
        by_degree
            .iter()
            .copied()
            .skip(n / 4)
            .take(N_SEEDS)
            .collect()
    };

    // Fake story run, possibly in two phases (pre/post intervention).
    let fake = match intervention {
        Intervention::None => independent_cascade(
            graph,
            &accounts,
            &fake_seeds,
            &[],
            &CascadeConfig {
                base_prob: BASE_PROB,
                share_multiplier: 1.0,
                max_rounds: ROUNDS,
                seed: SEED,
            },
        )?,
        Intervention::RankingSuppression { multiplier } => independent_cascade(
            graph,
            &accounts,
            &fake_seeds,
            &[],
            &CascadeConfig {
                base_prob: BASE_PROB,
                share_multiplier: multiplier,
                max_rounds: ROUNDS,
                seed: SEED,
            },
        )?,
        Intervention::Flagging { delay, multiplier } => two_phase_cascade(
            graph,
            &accounts,
            &fake_seeds,
            delay,
            multiplier,
            /*block_phase2=*/ false,
        ),
        Intervention::SourceBlocking { delay } => two_phase_cascade(
            graph,
            &accounts,
            &fake_seeds,
            delay,
            1.0,
            /*block_phase2=*/ true,
        ),
    };

    // Factual story: humans only (bots do not amplify facts).
    let human_accounts = vec![AccountKind::Human; n];
    let factual = independent_cascade(
        graph,
        &human_accounts,
        &factual_seeds,
        &[],
        &CascadeConfig {
            base_prob: BASE_PROB * config.factual_boost,
            share_multiplier: 1.0,
            max_rounds: ROUNDS,
            seed: SEED ^ 0xFAC7,
        },
    )?;

    let ratio = factual.total_reach as f64 / fake.total_reach.max(1) as f64;
    Ok(RaceResult {
        factual_wins: factual.total_reach > fake.total_reach,
        factual_to_fake_ratio: ratio,
        fake,
        factual,
    })
}

/// Runs a cascade whose parameters change after `delay` rounds: phase 1
/// normal, phase 2 either share-multiplied (flagging) or with the seed
/// sources blocked (accountability).
fn two_phase_cascade(
    graph: &SocialGraph,
    accounts: &[AccountKind],
    seeds: &[usize],
    delay: usize,
    phase2_multiplier: f64,
    block_phase2: bool,
) -> CascadeResult {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut active = vec![false; graph.len()];
    let mut frontier: Vec<usize> = Vec::new();
    for &s in seeds {
        if !active[s] {
            active[s] = true;
            frontier.push(s);
        }
    }
    let mut blocked = vec![false; graph.len()];
    let mut series = vec![frontier.len()];
    let mut total = frontier.len();

    for round in 0..ROUNDS {
        if round == delay && block_phase2 {
            for &s in seeds {
                blocked[s] = true;
            }
            // Blocked accounts also drop out of the frontier.
            frontier.retain(|v| !blocked[*v]);
        }
        if frontier.is_empty() {
            series.push(total);
            continue;
        }
        let multiplier = if round >= delay {
            phase2_multiplier
        } else {
            1.0
        };
        let mut next = Vec::new();
        for &v in &frontier {
            let p = (BASE_PROB * accounts[v].amplification() * multiplier).clamp(0.0, 1.0);
            for &nb in graph.neighbors(v) {
                if !active[nb] && !blocked[nb] && rng.gen_bool(p) {
                    active[nb] = true;
                    next.push(nb);
                }
            }
        }
        total += next.len();
        series.push(total);
        frontier = next;
    }

    let half = total.div_ceil(2);
    let half_reach_round = series
        .iter()
        .position(|&r| r >= half)
        .unwrap_or(series.len().saturating_sub(1));
    CascadeResult {
        reach_over_time: series,
        total_reach: total,
        half_reach_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::barabasi_albert;

    fn graph() -> SocialGraph {
        barabasi_albert(1500, 3, 21)
    }

    #[test]
    fn baseline_fake_outpaces_factual() {
        // Status quo: bot-amplified, influencer-seeded fake news wins.
        let r = run_race(&graph(), &RaceConfig::default(), Intervention::None).unwrap();
        assert!(
            r.fake.total_reach > r.factual.total_reach,
            "fake {} vs factual {}",
            r.fake.total_reach,
            r.factual.total_reach
        );
        assert!(!r.factual_wins);
    }

    #[test]
    fn flagging_cuts_fake_reach() {
        // Graph chosen so the baseline cascade runs long enough for a
        // flag at round 3 to cut 20 %: on most graphs of this size the fake
        // cascade is over by round ~7 and a round-3 flag cuts 5–20 %.
        let g = barabasi_albert(1500, 3, 10);
        let cfg = RaceConfig::default();
        let none = run_race(&g, &cfg, Intervention::None).unwrap();
        let flagged = run_race(
            &g,
            &cfg,
            Intervention::Flagging {
                delay: 3,
                multiplier: 0.2,
            },
        )
        .unwrap();
        assert!(
            (flagged.fake.total_reach as f64) < 0.8 * none.fake.total_reach as f64,
            "flagged {} vs none {}",
            flagged.fake.total_reach,
            none.fake.total_reach
        );
    }

    #[test]
    fn earlier_flagging_is_stronger() {
        let g = graph();
        let early = run_race(
            &g,
            &RaceConfig::default(),
            Intervention::Flagging {
                delay: 1,
                multiplier: 0.2,
            },
        )
        .unwrap();
        let late = run_race(
            &g,
            &RaceConfig::default(),
            Intervention::Flagging {
                delay: 10,
                multiplier: 0.2,
            },
        )
        .unwrap();
        assert!(
            early.fake.total_reach <= late.fake.total_reach,
            "early {} vs late {}",
            early.fake.total_reach,
            late.fake.total_reach
        );
    }

    #[test]
    fn platform_stack_lets_factual_win() {
        // Ranking suppression of the fake + certification boost of the
        // factual story: the paper's end state.
        let g = graph();
        let cfg = RaceConfig { factual_boost: 1.6 };
        let r = run_race(
            &g,
            &cfg,
            Intervention::RankingSuppression { multiplier: 0.25 },
        )
        .unwrap();
        assert!(
            r.factual_wins,
            "factual {} vs fake {}",
            r.factual.total_reach, r.fake.total_reach
        );
        assert!(r.factual_to_fake_ratio > 1.0);
    }

    #[test]
    fn source_blocking_limits_spread() {
        let g = graph();
        let none = run_race(&g, &RaceConfig::default(), Intervention::None).unwrap();
        let blocked = run_race(
            &g,
            &RaceConfig::default(),
            Intervention::SourceBlocking { delay: 2 },
        )
        .unwrap();
        assert!(blocked.fake.total_reach <= none.fake.total_reach);
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let a = run_race(&g, &RaceConfig::default(), Intervention::None).unwrap();
        let b = run_race(&g, &RaceConfig::default(), Intervention::None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn series_lengths_cover_rounds() {
        let g = graph();
        let r = run_race(
            &g,
            &RaceConfig::default(),
            Intervention::Flagging {
                delay: 3,
                multiplier: 0.2,
            },
        )
        .unwrap();
        // Two-phase cascade reports one entry per round plus the seed row.
        assert_eq!(r.fake.reach_over_time.len(), ROUNDS + 1);
    }
}
