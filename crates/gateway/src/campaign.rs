//! End-to-end misinformation-campaign harness.
//!
//! The open-loop harness measures the platform under *load*; this module
//! measures it under *attack*. A scripted adversarial population — a
//! coordinated bot ring, reputation-farming turncoat sybils, or bribed
//! individual rankers (see [`tn_crowdrank::adversary::CampaignRole`]) —
//! amplifies one fake article and smears one factual article with real
//! signed transactions submitted through the gateway's admission path,
//! interleaved with honest ranker traffic.
//!
//! Detection runs out-of-band exactly like a production health plane: a
//! per-block hook feeds observed votes to a
//! [`tn_crowdrank::defense::CoordinationDetector`], emits
//! `crowdrank.votes.{total,coordinated}` counters, and samples an
//! **external** [`ReplicaMonitor`] whose built-in
//! [`tn_monitor::RULE_CAMPAIGN_BURN`] burn-rate SLO
//! fires when coordinated votes burn the campaign budget. Enforcement is
//! a separate switch ([`CampaignProfile::defense`]): when on, the
//! governor reacts to detector verdicts *on-chain* — quarantine
//! transactions zero the ring's vote weight, and periodic fact-check
//! outcomes decay reputation and slash bonds — so defense efficacy shows
//! up in the committed ledger, not in a side channel.
//!
//! Everything is deterministic: the same profile and config yield
//! byte-identical execution digests across independent replicas, which
//! is what lets `exp24_campaign_matrix` machine-check damage bounds.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tn_chain::prelude::*;
use tn_contracts::builtin::{
    ranking_grant_stake, ranking_post_bond, ranking_quarantine, ranking_record_outcome,
    ranking_set_policy, DefensePolicy, RankingContract,
};
use tn_core::platform::{Platform, PlatformConfig, PlatformError};
use tn_core::roles::Role;
use tn_crowdrank::adversary::{CampaignRole, CampaignTarget};
use tn_crowdrank::{CoordinationDetector, ObservedVote};
use tn_crypto::{Address, Hash256, Keypair};
use tn_monitor::{prometheus_text, MonitorConfig, ReplicaMonitor, Transition, RULE_CAMPAIGN_BURN};
use tn_node::validator::ValidatorNode;
use tn_propagation::cascade::{assign_accounts, independent_cascade_with_receptivity};
use tn_propagation::network::barabasi_albert;
use tn_propagation::CascadeConfig;
use tn_trace::TraceSink;

use crate::loadgen::{split_ledger, Workload};
use crate::openloop::{run_open_loop_on, OpenLoopConfig, OpenLoopReport};
use crate::GatewayError;

/// Rule name recorded on the monitor timeline when the governor
/// quarantines a participant (an enforcement fact, not a replica fault).
pub const RULE_PARTICIPANT_QUARANTINE: &str = "participant-quarantine";

/// Which adversarial population attacks the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// No adversaries: every ranker is honest (the false-positive
    /// control cell).
    Clean,
    /// A bot ring scripting identical amplify/smear scores every round.
    BotRing,
    /// Sybils that farm reputation with honest votes, then flip to the
    /// ring script mid-campaign.
    TurncoatSybils,
    /// Independently bribed rankers: each boosts only the fake item with
    /// its own (distinct) score, deliberately evading ring detection.
    BribedRankers,
}

impl AttackKind {
    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::Clean => "clean",
            AttackKind::BotRing => "bot-ring",
            AttackKind::TurncoatSybils => "turncoat-sybils",
            AttackKind::BribedRankers => "bribed-rankers",
        }
    }

    /// Every attack kind, control cell first.
    pub fn all() -> [AttackKind; 4] {
        [
            AttackKind::Clean,
            AttackKind::BotRing,
            AttackKind::TurncoatSybils,
            AttackKind::BribedRankers,
        ]
    }
}

/// Uncontested background articles honest noise spreads over.
const BACKGROUND_ARTICLES: usize = 4;

/// Master seed for honest vote noise and the reach projection's graph.
const CAMPAIGN_SEED: u64 = 24;

/// One cell of the campaign matrix: an attack population against a
/// defense switch.
#[derive(Debug, Clone)]
pub struct CampaignProfile {
    /// The adversarial population.
    pub attack: AttackKind,
    /// Enforcement on: the defense policy is installed on-chain and the
    /// governor acts on detector verdicts. Detection itself always runs
    /// (turning the fire alarm off is not a defense ablation).
    pub defense: bool,
    /// Honest ranker clients.
    pub honest: usize,
    /// Adversarial ranker clients (ignored for [`AttackKind::Clean`]).
    pub adversaries: usize,
    /// Voting rounds in the scripted campaign.
    pub rounds: usize,
    /// Round at which turncoat sybils flip to the ring script.
    pub flip_round: usize,
}

impl Default for CampaignProfile {
    fn default() -> Self {
        CampaignProfile {
            attack: AttackKind::BotRing,
            defense: true,
            honest: 8,
            adversaries: 6,
            rounds: 10,
            flip_round: 5,
        }
    }
}

/// The defense policy a defended cell installs on the ranking contract.
pub fn campaign_policy() -> DefensePolicy {
    DefensePolicy {
        min_bond: 50,
        decay_bps: 9_000,
        slash_bps: 2_500,
    }
}

/// A materialised campaign: the gateway workload plus everything the
/// verdict layer needs to judge the run.
#[derive(Debug, Clone)]
pub struct CampaignWorkload {
    /// Setup prefix + signed vote stream, in [`Workload`] form.
    pub workload: Workload,
    /// The fake article the campaign amplifies.
    pub fake_item: Hash256,
    /// The factual article the campaign smears.
    pub factual_item: Hash256,
    /// Adversary addresses (ground truth for false-positive checks).
    pub adversary_addrs: Vec<Address>,
    /// Honest ranker addresses.
    pub honest_addrs: Vec<Address>,
}

/// Measured outcome of one campaign cell.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The open-loop load report for the run.
    pub report: OpenLoopReport,
    /// Execution digest after the run (replica-determinism check).
    pub digest: Hash256,
    /// Weighted crowd mean of the fake article, 1e-4 units; `None` when
    /// no rating of it carries weight.
    pub fake_mean_e4: Option<u64>,
    /// Weighted crowd mean of the factual article, 1e-4 units; `None`
    /// when no rating of it carries weight.
    pub factual_mean_e4: Option<u64>,
    /// First block height at which [`RULE_CAMPAIGN_BURN`] fired.
    pub alert_height: Option<u64>,
    /// Participants the on-chain contract holds quarantined at the end.
    pub quarantined_on_chain: Vec<Address>,
    /// Coordinated votes observed across the run.
    pub coordinated_votes: u64,
    /// Total votes observed across the run.
    pub total_votes: u64,
    /// Fake-article reach when the final crowd ranking drives platform
    /// suppression on a synthetic social graph.
    pub fake_reach: usize,
    /// Factual-article reach on the same graph.
    pub factual_reach: usize,
    /// Prometheus exposition of the external monitor after the run.
    pub prometheus: String,
}

/// Builds the campaign workload by running the scripted session —
/// newsroom setup, article publication, defense bootstrap (policy, stake
/// grants, bonds) when defended, then `rounds` of honest + adversarial
/// voting — on a local platform, and extracting the committed ledger
/// into a gateway request stream, exactly like
/// [`build_workload`](crate::loadgen::build_workload).
///
/// The governor grants stake and accepts bonds from *every* verified
/// ranker, adversaries included: the platform cannot distinguish a bot
/// from a human a priori, so damage bounding must come from detection,
/// quarantine and slashing — not from refusing to admit attackers.
pub fn build_campaign_workload(
    config: &PlatformConfig,
    profile: &CampaignProfile,
) -> CampaignWorkload {
    campaign_session(config, profile)
        .expect("the session signs only for accounts it registered with the roles each call needs")
}

/// The session behind [`build_campaign_workload`].
fn campaign_session(
    config: &PlatformConfig,
    profile: &CampaignProfile,
) -> Result<CampaignWorkload, PlatformError> {
    let mut rng = StdRng::seed_from_u64(CAMPAIGN_SEED);
    let mut p = Platform::new(config.clone());

    let adversaries = match profile.attack {
        AttackKind::Clean => 0,
        _ => profile.adversaries,
    };
    let adversary_role = match profile.attack {
        AttackKind::Clean => CampaignRole::HonestRanker,
        AttackKind::BotRing => CampaignRole::RingBot { script_score: 97 },
        AttackKind::TurncoatSybils => CampaignRole::TurncoatSybil {
            flip_round: profile.flip_round,
            script_score: 97,
        },
        AttackKind::BribedRankers => CampaignRole::BribedRanker,
    };

    // --- population -------------------------------------------------------
    let journo = Keypair::from_seed(b"e24-journalist");
    let publisher = Keypair::from_seed(b"e24-publisher");
    let honest_keys: Vec<Keypair> = (0..profile.honest)
        .map(|i| Keypair::from_seed(format!("e24-honest-{i}").as_bytes()))
        .collect();
    let adv_keys: Vec<Keypair> = (0..adversaries)
        .map(|i| Keypair::from_seed(format!("e24-adv-{i}").as_bytes()))
        .collect();

    p.register_identity(&publisher, "Campaign Press", &[Role::Publisher])?;
    p.register_identity(
        &journo,
        "Journalist",
        &[Role::ContentCreator, Role::Consumer],
    )?;
    for (i, k) in honest_keys.iter().enumerate() {
        p.register_identity(k, &format!("Honest {i}"), &[Role::Consumer])?;
    }
    for (i, k) in adv_keys.iter().enumerate() {
        p.register_identity(k, &format!("Ranker {i}"), &[Role::Consumer])?;
    }
    p.produce_block()?;
    let room = p.open_newsroom(
        &publisher,
        "Campaign Press",
        "politics",
        &[journo.address()],
    )?;

    // --- articles ---------------------------------------------------------
    let fake_item = p.publish_news(
        &journo,
        room,
        "politics",
        "BREAKING: fabricated scandal the campaign amplifies.",
        vec![],
    )?;
    let factual_item = p.publish_news(
        &journo,
        room,
        "politics",
        "Verified report the campaign wants buried.",
        vec![],
    )?;
    let mut background = Vec::new();
    for b in 0..BACKGROUND_ARTICLES {
        background.push(p.publish_news(
            &journo,
            room,
            "politics",
            &format!("Background article {b}."),
            vec![],
        )?);
    }
    p.produce_block()?;

    // --- defense bootstrap (setup-side: policy, grants, bonds) ------------
    if profile.defense {
        let ranking = p.pipeline().addrs().ranking;
        let policy = ranking_set_policy(&campaign_policy());
        p.call(None, ranking, policy, 10_000)?;
        for k in honest_keys.iter().chain(&adv_keys) {
            let grant = ranking_grant_stake(&k.address(), 200);
            p.call(None, ranking, grant, 10_000)?;
        }
        p.produce_block()?;
        for k in honest_keys.iter().chain(&adv_keys) {
            p.call(Some(k), ranking, ranking_post_bond(100), 10_000)?;
        }
        p.produce_block()?;
    }
    let setup_height = p.store().height();

    // --- campaign rounds --------------------------------------------------
    for round in 0..profile.rounds {
        for k in &honest_keys {
            let role = CampaignRole::HonestRanker;
            if rng.gen_bool(0.6) {
                let s = role.score(CampaignTarget::FakeItem, round, &mut rng);
                p.submit_rating(k, &fake_item, s)?;
            }
            if rng.gen_bool(0.6) {
                let s = role.score(CampaignTarget::FactualItem, round, &mut rng);
                p.submit_rating(k, &factual_item, s)?;
            }
            let bg = &background[rng.gen_range(0..background.len())];
            let s = role.score(CampaignTarget::Background, round, &mut rng);
            p.submit_rating(k, bg, s)?;
        }
        for k in &adv_keys {
            match adversary_role {
                CampaignRole::BribedRanker => {
                    // Boost only the fake item; behave honestly elsewhere
                    // so the vote vector never matches another briber's.
                    let s = adversary_role.score(CampaignTarget::FakeItem, round, &mut rng);
                    p.submit_rating(k, &fake_item, s)?;
                    let bg = &background[rng.gen_range(0..background.len())];
                    let s = adversary_role.score(CampaignTarget::Background, round, &mut rng);
                    p.submit_rating(k, bg, s)?;
                }
                _ => {
                    let s = adversary_role.score(CampaignTarget::FakeItem, round, &mut rng);
                    p.submit_rating(k, &fake_item, s)?;
                    let s = adversary_role.score(CampaignTarget::FactualItem, round, &mut rng);
                    p.submit_rating(k, &factual_item, s)?;
                }
            }
        }
        p.produce_block()?;
    }
    // A flush block after the last round.
    p.produce_block()?;

    let by_addr: HashMap<Address, u64> = honest_keys
        .iter()
        .chain(&adv_keys)
        .zip(1..)
        .map(|(k, client)| (k.address(), client))
        .collect();
    let (setup, requests) = split_ledger(&p, setup_height, &by_addr);

    Ok(CampaignWorkload {
        workload: Workload {
            setup,
            requests,
            clients: Vec::new(),
            articles: 2 + background.len(),
        },
        fake_item,
        factual_item,
        adversary_addrs: adv_keys.iter().map(|k| k.address()).collect(),
        honest_addrs: honest_keys.iter().map(|k| k.address()).collect(),
    })
}

/// Decodes the ranking-contract vote submissions in `block` as
/// [`ObservedVote`]s (the detector's input: who scored what).
fn votes_in(block: &Block, ranking: &Address) -> Vec<ObservedVote> {
    let mut votes = Vec::new();
    for tx in &block.transactions {
        if let Payload::ContractCall {
            contract, input, ..
        } = &tx.payload
        {
            if contract == ranking && input.len() == 34 && input[0] == 0 {
                let mut item = [0u8; 32];
                item.copy_from_slice(&input[1..33]);
                votes.push((tx.from, Hash256::from_bytes(item), input[33]));
            }
        }
    }
    votes
}

/// Replays a campaign workload through the gateway into a fresh
/// validator, with the live defense plane attached out-of-band:
///
/// 1. every produced block, observed votes feed the
///    [`CoordinationDetector`] and the `crowdrank.votes.*` counters;
/// 2. the **external** [`ReplicaMonitor`] samples the node's registry on
///    the same block tick, so [`RULE_CAMPAIGN_BURN`] fires the moment
///    the coordinated-vote budget burns — deterministically, on the same
///    height, on every replica;
/// 3. with [`CampaignProfile::defense`] on, fresh detector verdicts
///    become governor-signed quarantine transactions injected into the
///    mempool for the next block, and every other block the governor
///    records fact-check outcomes (fake → not factual, factual →
///    factual), driving reputation decay and bond slashing.
///
/// # Errors
///
/// As [`run_open_loop`](crate::openloop::run_open_loop).
pub fn run_campaign(
    config: &PlatformConfig,
    campaign: &CampaignWorkload,
    profile: &CampaignProfile,
    olc: &OpenLoopConfig,
) -> Result<CampaignOutcome, GatewayError> {
    let node = ValidatorNode::new(0, config);
    let telemetry = node.telemetry_sink();
    let ranking = node.pipeline().addrs().ranking;
    let governor = Keypair::from_seed(b"tn-platform-governor");
    let gov_addr = governor.address();

    // The health plane runs *external* to the node (olc.monitor stays
    // None): commit ticks must not double-sample the registry, and the
    // campaign counters have to land before the sample for same-height
    // detection.
    let mut monitor = ReplicaMonitor::new(0, &MonitorConfig::default());
    let mut detector = CoordinationDetector::new();
    let mut alert_height: Option<u64> = None;
    let mut coordinated_votes = 0u64;
    let mut total_votes = 0u64;
    let mut enforced: Vec<Address> = Vec::new();
    let mut blocks_seen = 0u64;
    let defense = profile.defense;

    let mut hook = |node: &mut ValidatorNode| {
        let head = node.pipeline().store().head();
        let height = head.header.height;
        blocks_seen += 1;

        // 1. Observe this block's votes.
        let votes = votes_in(&head, &ranking);
        let report = detector.observe(height, &votes);
        total_votes += report.total_votes;
        coordinated_votes += report.coordinated_votes;
        let sink = node.telemetry_sink();
        sink.add("crowdrank.votes.total", report.total_votes);
        sink.add("crowdrank.votes.coordinated", report.coordinated_votes);

        // 2. Sample the external monitor on the same height.
        let alerts = monitor.sample(height, node.metrics_snapshot());
        if alert_height.is_none()
            && alerts
                .iter()
                .any(|a| a.rule == RULE_CAMPAIGN_BURN && a.transition == Transition::Firing)
        {
            alert_height = Some(height);
        }

        // 3. Enforce on-chain when defended, at the governor's next nonce.
        if defense {
            let mut submit = |input: Vec<u8>, gas_limit: u64| {
                let nonce = node.pipeline().next_nonce(&gov_addr);
                let payload = Payload::ContractCall {
                    contract: ranking,
                    input,
                    gas_limit,
                };
                // A refused call leaves the pool, and so the nonce, as it was.
                let _ = node.submit(Transaction::signed(&governor, nonce, 1, payload));
            };
            for who in &report.quarantine {
                if !enforced.contains(who) {
                    enforced.push(*who);
                    monitor.record_participant_fact(height, RULE_PARTICIPANT_QUARANTINE, 1.0);
                    submit(ranking_quarantine(who), 10_000);
                }
            }
            // Governor fact-check oracle cadence: every other block.
            if blocks_seen.is_multiple_of(2) {
                for (item, factual) in [(campaign.fake_item, false), (campaign.factual_item, true)]
                {
                    submit(ranking_record_outcome(&item, factual), 50_000);
                }
            }
        }
    };

    let run = run_open_loop_on(
        node,
        &config.gateway,
        telemetry,
        TraceSink::disabled(),
        &campaign.workload,
        olc,
        &mut hook,
    )?;

    let contract = run.node.pipeline().builtin::<RankingContract>(ranking);
    let (_, fake_mean_e4) = contract.ranking(&campaign.fake_item);
    let (_, factual_mean_e4) = contract.ranking(&campaign.factual_item);
    let quarantined_on_chain: Vec<Address> = campaign
        .adversary_addrs
        .iter()
        .chain(&campaign.honest_addrs)
        .filter(|a| contract.is_quarantined(a))
        .copied()
        .collect();

    let (fake_reach, factual_reach) = project_reach(
        fake_mean_e4,
        factual_mean_e4,
        &quarantined_on_chain,
        campaign.adversary_addrs.len(),
    );

    Ok(CampaignOutcome {
        report: run.report,
        digest: run.node.execution_digest(),
        fake_mean_e4,
        factual_mean_e4,
        alert_height,
        quarantined_on_chain,
        coordinated_votes,
        total_votes,
        fake_reach,
        factual_reach,
        prometheus: prometheus_text(&monitor),
    })
}

/// Projects the committed crowd ranking onto social-propagation reach:
/// the platform suppresses a story's reshare probability in proportion
/// to how low its crowd score is, and quarantined amplifier accounts are
/// blocked from resharing. Deterministic in its inputs.
fn project_reach(
    fake_mean_e4: Option<u64>,
    factual_mean_e4: Option<u64>,
    quarantined: &[Address],
    adversaries: usize,
) -> (usize, usize) {
    let n = 2_000usize;
    let graph = barabasi_albert(n, 3, CAMPAIGN_SEED);
    let accounts = assign_accounts(n, 0.10, 0.05, CAMPAIGN_SEED);
    let seeds: Vec<usize> = (0..4).collect();
    // A story with crowd score s keeps s/100 of its reshare probability
    // (rank suppression); floor at 0.05 so even a buried story trickles.
    // A story no credible rater scored is unrated: score 50, as
    // `Platform::rank_item` gives it.
    let suppress = |mean_e4: Option<u64>| mean_e4.map_or(0.5, |m| m as f64 / 1_000_000.0).max(0.05);
    // Quarantined amplifiers: block the same fraction of bot nodes as
    // the fraction of the adversary population under quarantine.
    let mut blocked = vec![false; n];
    if adversaries > 0 && !quarantined.is_empty() {
        let frac = quarantined.len().min(adversaries) as f64 / adversaries as f64;
        let mut bot_nodes: Vec<usize> = accounts
            .iter()
            .enumerate()
            .filter(|(_, k)| !matches!(k, tn_propagation::AccountKind::Human))
            .map(|(i, _)| i)
            .collect();
        let cut = ((bot_nodes.len() as f64) * frac).round() as usize;
        bot_nodes.truncate(cut);
        for i in bot_nodes {
            blocked[i] = true;
        }
    }
    let receptivity: Vec<f64> = vec![1.0; n];
    let config = CascadeConfig {
        share_multiplier: suppress(fake_mean_e4),
        seed: CAMPAIGN_SEED,
        ..CascadeConfig::default()
    };
    // The fake story runs flagged (suppressed by its crowd score) with
    // quarantined amplifiers blocked; the factual story runs with its
    // own crowd-score multiplier and no blocks.
    let fake = independent_cascade_with_receptivity(
        &graph,
        &accounts,
        &seeds,
        &blocked,
        &receptivity,
        &CascadeConfig {
            base_prob: CascadeConfig::default().base_prob * suppress(fake_mean_e4),
            ..config.clone()
        },
    )
    .expect("mask lengths match");
    let factual = independent_cascade_with_receptivity(
        &graph,
        &accounts,
        &seeds,
        &[],
        &receptivity,
        &CascadeConfig {
            base_prob: CascadeConfig::default().base_prob * suppress(factual_mean_e4),
            ..config
        },
    )
    .expect("mask lengths match");
    (fake.total_reach, factual.total_reach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::RequestKind;
    use tn_contracts::builtin::ranking_submit;
    use tn_contracts::BuiltinContract;

    fn quick_profile(attack: AttackKind, defense: bool) -> CampaignProfile {
        CampaignProfile {
            attack,
            defense,
            honest: 5,
            adversaries: 4,
            rounds: 6,
            flip_round: 3,
        }
    }

    fn quick_olc() -> OpenLoopConfig {
        OpenLoopConfig {
            offered_tps: 2_000.0,
            ..OpenLoopConfig::default()
        }
    }

    #[test]
    fn campaign_workload_is_valid_signed_traffic() {
        let config = PlatformConfig::default();
        let cw = build_campaign_workload(&config, &quick_profile(AttackKind::BotRing, true));
        assert!(!cw.workload.setup.is_empty());
        assert!(cw.workload.writes() > 0);
        for req in &cw.workload.requests {
            if let RequestKind::Write(tx) = &req.kind {
                assert!(tx.verify().is_ok());
                assert!(
                    tx.from != Keypair::from_seed(b"tn-platform-governor").address(),
                    "governor traffic must not enter the client stream"
                );
            }
        }
    }

    #[test]
    fn defended_ring_is_detected_quarantined_and_bounded() {
        let config = PlatformConfig::default();
        let profile = quick_profile(AttackKind::BotRing, true);
        let cw = build_campaign_workload(&config, &profile);
        let out = run_campaign(&config, &cw, &profile, &quick_olc()).unwrap();
        assert!(out.alert_height.is_some(), "campaign alert must fire");
        assert!(
            !out.quarantined_on_chain.is_empty(),
            "ring must be quarantined on-chain"
        );
        for q in &out.quarantined_on_chain {
            assert!(
                cw.adversary_addrs.contains(q),
                "no honest ranker may be quarantined"
            );
        }
        // With the ring's weight zeroed, the fake article's crowd score
        // collapses toward the honest consensus (low).
        assert!(
            out.fake_mean_e4.is_some_and(|m| m < 50 * 10_000),
            "fake score must be bounded: {:?}",
            out.fake_mean_e4
        );
        assert!(out.factual_mean_e4.is_some_and(|m| m > 50 * 10_000));
        assert!(out.fake_reach < out.factual_reach);
    }

    #[test]
    fn undefended_ring_is_detected_but_not_bounded() {
        let config = PlatformConfig::default();
        let profile = quick_profile(AttackKind::BotRing, false);
        let cw = build_campaign_workload(&config, &profile);
        let out = run_campaign(&config, &cw, &profile, &quick_olc()).unwrap();
        assert!(
            out.alert_height.is_some(),
            "detection stays on without enforcement"
        );
        assert!(out.quarantined_on_chain.is_empty(), "nothing enforced");
        assert!(
            out.fake_mean_e4.is_some_and(|m| m > 50 * 10_000),
            "undefended fake score inflates: {:?}",
            out.fake_mean_e4
        );
    }

    #[test]
    fn clean_cell_raises_no_alert_and_no_verdicts() {
        let config = PlatformConfig::default();
        let profile = quick_profile(AttackKind::Clean, true);
        let cw = build_campaign_workload(&config, &profile);
        let out = run_campaign(&config, &cw, &profile, &quick_olc()).unwrap();
        assert_eq!(out.alert_height, None, "no false-positive campaign alert");
        assert!(out.quarantined_on_chain.is_empty());
        assert_eq!(out.coordinated_votes, 0);
        assert!(out.total_votes > 0);
    }

    /// An item whose every rater is quarantined has no credible crowd
    /// score: it reaches as far as an item nobody rated, and farther than
    /// one a bonded rater called fake.
    #[test]
    fn an_item_only_quarantined_raters_rated_reaches_as_unrated() {
        let key = |seed: &[u8]| Keypair::from_seed(seed).address();
        let (owner, ring, honest) = (key(b"governor"), key(b"ring"), key(b"honest"));
        let mut rk = RankingContract::new(owner);
        let policy = campaign_policy();
        rk.call(&owner, &ranking_set_policy(&policy)).unwrap();
        for who in [ring, honest] {
            rk.call(&owner, &ranking_grant_stake(&who, policy.min_bond))
                .unwrap();
            rk.call(&who, &ranking_post_bond(policy.min_bond)).unwrap();
        }
        let (quarantined_only, fake, unrated) = (
            Hash256::from_bytes([1; 32]),
            Hash256::from_bytes([2; 32]),
            Hash256::from_bytes([3; 32]),
        );
        rk.call(&ring, &ranking_submit(&quarantined_only, 100))
            .unwrap();
        rk.call(&honest, &ranking_submit(&fake, 0)).unwrap();
        rk.call(&owner, &ranking_quarantine(&ring)).unwrap();
        let reach = |item| {
            let mean = rk.ranking(item).1;
            project_reach(mean, mean, &[], 0).0
        };
        assert_eq!(reach(&quarantined_only), reach(&unrated));
        assert!(reach(&quarantined_only) > reach(&fake));
    }

    #[test]
    fn campaign_runs_are_replica_deterministic() {
        let config = PlatformConfig::default();
        let profile = quick_profile(AttackKind::BotRing, true);
        let cw = build_campaign_workload(&config, &profile);
        let a = run_campaign(&config, &cw, &profile, &quick_olc()).unwrap();
        let b = run_campaign(&config, &cw, &profile, &quick_olc()).unwrap();
        assert_eq!(a.digest, b.digest, "replicas must agree byte-for-byte");
        assert_eq!(a.alert_height, b.alert_height, "alert on the same height");
        assert_eq!(a.quarantined_on_chain, b.quarantined_on_chain);
        assert_eq!(a.fake_mean_e4, b.fake_mean_e4);
    }
}
