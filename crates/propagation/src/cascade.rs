//! News-spreading dynamics: independent cascade with per-node account
//! types and intervention hooks.
//!
//! The model follows the paper's citations: "the spread of fake news is
//! driven substantially by bots and cyborgs" \[36\] — bots reshare far more
//! aggressively than humans — and Facebook's flagging intervention cuts a
//! flagged story's reshare odds by ~80 % \[26, 27\].

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::SocialGraph;

/// Typed cascade-input failure. Cascades run against adversary-shaped
/// inputs on experiment and replica-adjacent paths, so mismatched masks
/// must surface as errors a caller can handle — never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeError {
    /// `accounts` does not cover every graph node.
    AccountsLen {
        /// Number of graph nodes.
        graph: usize,
        /// Number of account entries supplied.
        accounts: usize,
    },
    /// A nonempty `blocked` mask of the wrong size.
    BlockedMaskLen {
        /// Number of graph nodes.
        graph: usize,
        /// Mask length supplied.
        mask: usize,
    },
    /// A nonempty `receptivity` mask of the wrong size.
    ReceptivityMaskLen {
        /// Number of graph nodes.
        graph: usize,
        /// Mask length supplied.
        mask: usize,
    },
}

impl fmt::Display for CascadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CascadeError::AccountsLen { graph, accounts } => {
                write!(
                    f,
                    "accounts must cover the graph: {graph} nodes, {accounts} accounts"
                )
            }
            CascadeError::BlockedMaskLen { graph, mask } => {
                write!(f, "blocked mask size {mask} != graph size {graph}")
            }
            CascadeError::ReceptivityMaskLen { graph, mask } => {
                write!(f, "receptivity mask size {mask} != graph size {graph}")
            }
        }
    }
}

impl std::error::Error for CascadeError {}

/// Account type of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountKind {
    /// An ordinary person.
    Human,
    /// An automated amplifier.
    Bot,
    /// A human account partially driven by automation \[36\].
    Cyborg,
}

impl AccountKind {
    /// Multiplier applied to the base transmission probability when this
    /// account reshares.
    pub fn amplification(self) -> f64 {
        match self {
            AccountKind::Human => 1.0,
            AccountKind::Bot => 3.0,
            AccountKind::Cyborg => 2.0,
        }
    }
}

/// Assigns account kinds: the first `bot_fraction` + `cyborg_fraction` of
/// a seeded shuffle become bots/cyborgs.
pub fn assign_accounts(
    n: usize,
    bot_fraction: f64,
    cyborg_fraction: f64,
    seed: u64,
) -> Vec<AccountKind> {
    use rand::seq::SliceRandom;
    let mut kinds = vec![AccountKind::Human; n];
    let n_bots = ((n as f64) * bot_fraction.clamp(0.0, 1.0)).round() as usize;
    let n_cyborgs = ((n as f64) * cyborg_fraction.clamp(0.0, 1.0)).round() as usize;
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    for &i in idx.iter().take(n_bots) {
        kinds[i] = AccountKind::Bot;
    }
    for &i in idx.iter().skip(n_bots).take(n_cyborgs) {
        kinds[i] = AccountKind::Cyborg;
    }
    kinds
}

/// Cascade parameters for one story.
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Base per-edge transmission probability for a human sharer.
    pub base_prob: f64,
    /// Multiplier applied when the story is flagged by the platform
    /// (Facebook's cited number: flagged content respreads at 20 %).
    pub share_multiplier: f64,
    /// Maximum rounds to simulate.
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            base_prob: 0.08,
            share_multiplier: 1.0,
            max_rounds: 60,
            seed: 1,
        }
    }
}

/// Result of one cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeResult {
    /// Cumulative number of reached (activated) nodes after each round;
    /// index 0 is the seed set size.
    pub reach_over_time: Vec<usize>,
    /// Final reach.
    pub total_reach: usize,
    /// Round at which half of the final reach was achieved.
    pub half_reach_round: usize,
}

/// Runs an independent cascade from `seeds` over `graph`.
///
/// Each newly activated node gets one chance to activate each neighbor
/// with probability `base_prob × sharer-amplification ×
/// share_multiplier`, clamped to `[0, 1]`. `blocked` nodes never activate
/// or share (the source-blocking intervention).
///
/// # Errors
///
/// [`CascadeError`] when `accounts` or a nonempty `blocked` mask does
/// not cover the graph.
pub fn independent_cascade(
    graph: &SocialGraph,
    accounts: &[AccountKind],
    seeds: &[usize],
    blocked: &[bool],
    config: &CascadeConfig,
) -> Result<CascadeResult, CascadeError> {
    independent_cascade_with_receptivity(graph, accounts, seeds, blocked, &[], config)
}

/// [`independent_cascade`] with per-node *receptivity*: the probability
/// that node `nb` adopts is further multiplied by `receptivity[nb]`.
///
/// Receptivity models the paper's §VII observation that "people are
/// asymmetrical updaters" — some accounts are gullible (≥ 1), some
/// skeptical (< 1). An empty slice means uniform receptivity 1.0.
/// Personalized interventions (E12) work by *changing* specific nodes'
/// receptivity rather than throttling the story globally.
///
/// # Errors
///
/// [`CascadeError`] when `accounts` or a nonempty mask does not cover
/// the graph.
pub fn independent_cascade_with_receptivity(
    graph: &SocialGraph,
    accounts: &[AccountKind],
    seeds: &[usize],
    blocked: &[bool],
    receptivity: &[f64],
    config: &CascadeConfig,
) -> Result<CascadeResult, CascadeError> {
    if graph.len() != accounts.len() {
        return Err(CascadeError::AccountsLen {
            graph: graph.len(),
            accounts: accounts.len(),
        });
    }
    if !blocked.is_empty() && blocked.len() != graph.len() {
        return Err(CascadeError::BlockedMaskLen {
            graph: graph.len(),
            mask: blocked.len(),
        });
    }
    if !receptivity.is_empty() && receptivity.len() != graph.len() {
        return Err(CascadeError::ReceptivityMaskLen {
            graph: graph.len(),
            mask: receptivity.len(),
        });
    }
    let is_blocked = |v: usize| !blocked.is_empty() && blocked[v];
    let recept = |v: usize| {
        if receptivity.is_empty() {
            1.0
        } else {
            receptivity[v]
        }
    };

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut active = vec![false; graph.len()];
    let mut frontier: Vec<usize> = Vec::new();
    for &s in seeds {
        if s < graph.len() && !is_blocked(s) && !active[s] {
            active[s] = true;
            frontier.push(s);
        }
    }
    let mut reach_over_time = vec![frontier.len()];
    let mut total = frontier.len();

    for _ in 0..config.max_rounds {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &v in &frontier {
            let share = (config.base_prob * accounts[v].amplification() * config.share_multiplier)
                .clamp(0.0, 1.0);
            for &nb in graph.neighbors(v) {
                let p = (share * recept(nb)).clamp(0.0, 1.0);
                if !active[nb] && !is_blocked(nb) && p > 0.0 && rng.gen_bool(p) {
                    active[nb] = true;
                    next.push(nb);
                }
            }
        }
        total += next.len();
        reach_over_time.push(total);
        frontier = next;
    }

    let half = total.div_ceil(2);
    let half_reach_round = reach_over_time
        .iter()
        .position(|&r| r >= half)
        .unwrap_or(reach_over_time.len().saturating_sub(1));
    Ok(CascadeResult {
        reach_over_time,
        total_reach: total,
        half_reach_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::barabasi_albert;

    fn setup() -> (SocialGraph, Vec<AccountKind>) {
        let g = barabasi_albert(800, 3, 11);
        let accounts = assign_accounts(800, 0.0, 0.0, 11);
        (g, accounts)
    }

    #[test]
    fn cascade_reaches_beyond_seeds() {
        let (g, accounts) = setup();
        let r =
            independent_cascade(&g, &accounts, &[0, 1], &[], &CascadeConfig::default()).unwrap();
        assert!(r.total_reach > 2, "reach {}", r.total_reach);
        assert_eq!(*r.reach_over_time.last().unwrap(), r.total_reach);
        // Monotone non-decreasing series.
        assert!(r.reach_over_time.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn zero_probability_stops_at_seeds() {
        let (g, accounts) = setup();
        let cfg = CascadeConfig {
            base_prob: 0.0,
            ..CascadeConfig::default()
        };
        let r = independent_cascade(&g, &accounts, &[5], &[], &cfg).unwrap();
        assert_eq!(r.total_reach, 1);
    }

    #[test]
    fn bots_amplify_reach() {
        let g = barabasi_albert(800, 3, 11);
        let humans = assign_accounts(800, 0.0, 0.0, 11);
        let bots = assign_accounts(800, 0.25, 0.1, 11);
        let cfg = CascadeConfig {
            base_prob: 0.05,
            ..CascadeConfig::default()
        };
        let seeds: Vec<usize> = (0..5).collect();
        let no_bots = independent_cascade(&g, &humans, &seeds, &[], &cfg).unwrap();
        let with_bots = independent_cascade(&g, &bots, &seeds, &[], &cfg).unwrap();
        assert!(
            with_bots.total_reach as f64 > 1.3 * no_bots.total_reach as f64,
            "bots {} vs humans {}",
            with_bots.total_reach,
            no_bots.total_reach
        );
    }

    #[test]
    fn flagging_multiplier_shrinks_reach() {
        let (g, accounts) = setup();
        let seeds: Vec<usize> = (0..5).collect();
        let normal =
            independent_cascade(&g, &accounts, &seeds, &[], &CascadeConfig::default()).unwrap();
        let flagged = independent_cascade(
            &g,
            &accounts,
            &seeds,
            &[],
            &CascadeConfig {
                share_multiplier: 0.2,
                ..CascadeConfig::default()
            },
        )
        .unwrap();
        assert!(
            (flagged.total_reach as f64) < 0.6 * normal.total_reach as f64,
            "flagged {} vs normal {}",
            flagged.total_reach,
            normal.total_reach
        );
    }

    #[test]
    fn blocking_seeds_kills_cascade() {
        let (g, accounts) = setup();
        let mut blocked = vec![false; g.len()];
        blocked[0] = true;
        blocked[1] = true;
        let r = independent_cascade(&g, &accounts, &[0, 1], &blocked, &CascadeConfig::default())
            .unwrap();
        assert_eq!(r.total_reach, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, accounts) = setup();
        let a = independent_cascade(&g, &accounts, &[0], &[], &CascadeConfig::default()).unwrap();
        let b = independent_cascade(&g, &accounts, &[0], &[], &CascadeConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn account_assignment_fractions() {
        let kinds = assign_accounts(1000, 0.1, 0.05, 3);
        let bots = kinds.iter().filter(|k| **k == AccountKind::Bot).count();
        let cyborgs = kinds.iter().filter(|k| **k == AccountKind::Cyborg).count();
        assert_eq!(bots, 100);
        assert_eq!(cyborgs, 50);
    }

    #[test]
    fn receptivity_scales_adoption() {
        let (g, accounts) = setup();
        let seeds: Vec<usize> = (0..5).collect();
        let uniform =
            independent_cascade(&g, &accounts, &seeds, &[], &CascadeConfig::default()).unwrap();
        // Everyone half as receptive → smaller reach.
        let half = vec![0.5; g.len()];
        let damped = independent_cascade_with_receptivity(
            &g,
            &accounts,
            &seeds,
            &[],
            &half,
            &CascadeConfig::default(),
        )
        .unwrap();
        assert!(damped.total_reach < uniform.total_reach);
        // Zero receptivity stops everything beyond the seeds.
        let zero = vec![0.0; g.len()];
        let dead = independent_cascade_with_receptivity(
            &g,
            &accounts,
            &seeds,
            &[],
            &zero,
            &CascadeConfig::default(),
        )
        .unwrap();
        assert_eq!(dead.total_reach, seeds.len());
        // Empty mask equals uniform 1.0.
        let ones = vec![1.0; g.len()];
        let explicit = independent_cascade_with_receptivity(
            &g,
            &accounts,
            &seeds,
            &[],
            &ones,
            &CascadeConfig::default(),
        )
        .unwrap();
        assert_eq!(explicit, uniform);
    }

    #[test]
    fn mismatched_masks_are_typed_errors() {
        let (g, accounts) = setup();
        let cfg = CascadeConfig::default();
        assert_eq!(
            independent_cascade(&g, &accounts[..10], &[0], &[], &cfg).unwrap_err(),
            CascadeError::AccountsLen {
                graph: 800,
                accounts: 10
            }
        );
        assert_eq!(
            independent_cascade(&g, &accounts, &[0], &[false; 3], &cfg).unwrap_err(),
            CascadeError::BlockedMaskLen {
                graph: 800,
                mask: 3
            }
        );
        assert_eq!(
            independent_cascade_with_receptivity(&g, &accounts, &[0], &[], &[1.0; 7], &cfg)
                .unwrap_err(),
            CascadeError::ReceptivityMaskLen {
                graph: 800,
                mask: 7
            }
        );
    }

    #[test]
    fn half_reach_round_sane() {
        let (g, accounts) = setup();
        let r =
            independent_cascade(&g, &accounts, &[0, 1], &[], &CascadeConfig::default()).unwrap();
        assert!(r.half_reach_round < r.reach_over_time.len());
        let at_half = r.reach_over_time[r.half_reach_round];
        assert!(at_half * 2 >= r.total_reach);
    }
}
