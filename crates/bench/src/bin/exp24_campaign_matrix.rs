//! E24 — Misinformation-campaign matrix: scripted adversarial
//! populations (bot ring, turncoat sybils, bribed rankers) against the
//! platform's participant defenses (stake bonds, reputation decay,
//! slashing, coordination detection, quarantine), end to end through the
//! gateway's admission path, with machine-checked damage bounds.
//!
//! Paper anchor: §V's governance-by-contract story plus §VII's bot-driven
//! propagation threat. E19 stressed Byzantine *validators*; this is the
//! other half of the threat model — Byzantine *participants* whose
//! transactions are perfectly valid and whose attack lives entirely in
//! the voting content.
//!
//! Every cell runs twice as independent replicas and the harness asserts
//! byte-identical execution digests and identical alert heights — the
//! defense plane is deterministic, so its verdicts are consensus-safe.
//!
//! `--quick` is a CI smoke run: a reduced 4-cell matrix with the same
//! invariants, plus the Prometheus alert artifact, written to the system
//! temp directory, that `scripts/check.sh` lints. Full runs sweep the
//! whole 8-cell matrix and write `results/e24.json`, `BENCH_e24.json` and
//! `results/e24_alerts.prom`.
//!
//! Run: `cargo run -p tn-bench --release --bin exp24_campaign_matrix`

use serde::Serialize;
use tn_bench::table::capture;
use tn_bench::Experiment;
use tn_core::platform::PlatformConfig;
use tn_gateway::campaign::{
    build_campaign_workload, run_campaign, AttackKind, CampaignOutcome, CampaignProfile,
};
use tn_gateway::OpenLoopConfig;
use tn_monitor::lint_prometheus;

#[derive(Debug, Serialize)]
struct Row {
    attack: &'static str,
    defense: bool,
    writes_offered: u64,
    committed: u64,
    blocks: u64,
    total_votes: u64,
    coordinated_votes: u64,
    alert_height: Option<u64>,
    quarantined: usize,
    false_positives: usize,
    fake_crowd_score: f64,
    factual_crowd_score: f64,
    integrity_delta: f64,
    fake_reach: usize,
    factual_reach: usize,
    digest: String,
    replicas_agree: bool,
}

fn profile(attack: AttackKind, defense: bool, quick: bool) -> CampaignProfile {
    if quick {
        CampaignProfile {
            attack,
            defense,
            honest: 5,
            adversaries: 4,
            rounds: 6,
            flip_round: 3,
        }
    } else {
        CampaignProfile {
            attack,
            defense,
            ..CampaignProfile::default()
        }
    }
}

fn run_cell(config: &PlatformConfig, p: &CampaignProfile) -> (Row, CampaignOutcome) {
    let cw = build_campaign_workload(config, p);
    let olc = OpenLoopConfig {
        offered_tps: 2_000.0,
        ..OpenLoopConfig::default()
    };
    // Two independent replicas of the same cell: the defense plane must
    // be consensus-safe, so everything observable has to match.
    let a = run_campaign(config, &cw, p, &olc).expect("campaign run (replica a)");
    let b = run_campaign(config, &cw, p, &olc).expect("campaign run (replica b)");
    let replicas_agree = a.digest == b.digest
        && a.alert_height == b.alert_height
        && a.quarantined_on_chain == b.quarantined_on_chain
        && a.fake_mean_e4 == b.fake_mean_e4;
    let false_positives = a
        .quarantined_on_chain
        .iter()
        .filter(|q| cw.honest_addrs.contains(q))
        .count();
    // An article no rating carries weight for reads as unrated: score 50.
    let score = |mean_e4: Option<u64>| mean_e4.map_or(50.0, |m| m as f64 / 10_000.0);
    let (fake, factual) = (score(a.fake_mean_e4), score(a.factual_mean_e4));
    let row = Row {
        attack: p.attack.label(),
        defense: p.defense,
        writes_offered: a.report.writes_offered,
        committed: a.report.committed,
        blocks: a.report.blocks,
        total_votes: a.total_votes,
        coordinated_votes: a.coordinated_votes,
        alert_height: a.alert_height,
        quarantined: a.quarantined_on_chain.len(),
        false_positives,
        fake_crowd_score: fake,
        factual_crowd_score: factual,
        integrity_delta: factual - fake,
        fake_reach: a.fake_reach,
        factual_reach: a.factual_reach,
        digest: a.digest.to_hex()[..16].into(),
        replicas_agree,
    };
    (row, a)
}

/// Machine-checks one cell's invariants; panics (failing the harness)
/// when a damage bound is violated.
fn check_cell(row: &Row) {
    assert!(row.replicas_agree, "{}: replicas diverged", row.attack);
    assert_eq!(
        row.false_positives, 0,
        "{}: an honest ranker was quarantined",
        row.attack
    );
    let coordinated_attack = matches!(row.attack, "bot-ring" | "turncoat-sybils");
    match (row.attack, row.defense) {
        ("clean", _) => {
            assert_eq!(row.alert_height, None, "clean cell false-fired the alert");
            assert_eq!(row.coordinated_votes, 0, "clean cell flagged coordination");
            assert_eq!(row.quarantined, 0, "clean cell quarantined someone");
        }
        (_, true) if coordinated_attack => {
            assert!(row.alert_height.is_some(), "{}: alert silent", row.attack);
            assert!(row.quarantined > 0, "{}: ring not quarantined", row.attack);
            assert!(
                row.fake_crowd_score < 50.0,
                "{}: fake score unbounded with defenses on ({})",
                row.attack,
                row.fake_crowd_score
            );
            assert!(
                row.integrity_delta > 0.0,
                "{}: factual article not restored above the fake",
                row.attack
            );
            assert!(
                row.fake_reach < row.factual_reach,
                "{}: fake reach not bounded below factual",
                row.attack
            );
        }
        (_, false) if coordinated_attack => {
            // Detection stays on without enforcement: the alert still
            // fires, but nothing bounds the damage.
            assert!(
                row.alert_height.is_some(),
                "{}: detection must fire even undefended",
                row.attack
            );
            assert_eq!(row.quarantined, 0, "{}: nothing enforces", row.attack);
            assert!(
                row.fake_crowd_score > 50.0,
                "{}: undefended fake score should inflate ({})",
                row.attack,
                row.fake_crowd_score
            );
        }
        ("bribed-rankers", true) => {
            // Bribed rankers deliberately evade ring detection — the
            // economic layer (outcome-driven decay + slashing) bounds
            // them instead.
            assert_eq!(row.quarantined, 0, "bribery is not ring-detectable");
            assert!(
                row.fake_crowd_score < 50.0,
                "bribed: slashing must bound the fake score ({})",
                row.fake_crowd_score
            );
            assert!(row.integrity_delta > 0.0);
        }
        ("bribed-rankers", false) => {
            assert_eq!(row.quarantined, 0);
        }
        (other, _) => panic!("unknown cell {other}"),
    }
}

fn main() {
    let exp = Experiment::start(
        "E24",
        "Misinformation-campaign matrix: attacks x defenses through the gateway",
    );
    let config = PlatformConfig::default();

    let cells: Vec<(AttackKind, bool)> = if exp.quick {
        vec![
            (AttackKind::Clean, true),
            (AttackKind::BotRing, true),
            (AttackKind::BotRing, false),
            (AttackKind::BribedRankers, true),
        ]
    } else {
        AttackKind::all()
            .into_iter()
            .flat_map(|a| [(a, true), (a, false)])
            .collect()
    };

    let mut rows = Vec::new();
    let mut ring_prom: Option<String> = None;
    let mut undefended_fake: Option<f64> = None;
    let mut defended_fake: Option<f64> = None;
    for (attack, defense) in cells {
        let p = profile(attack, defense, exp.quick);
        let (row, outcome) = run_cell(&config, &p);
        check_cell(&row);
        if attack == AttackKind::BotRing && defense {
            ring_prom = Some(outcome.prometheus.clone());
            defended_fake = Some(row.fake_crowd_score);
        }
        if attack == AttackKind::BotRing && !defense {
            undefended_fake = Some(row.fake_crowd_score);
        }
        rows.push(row);
    }
    exp.table(&rows);

    // Cross-cell damage bound: defenses must shrink the ring's fake
    // score by a wide margin, not a rounding error.
    if let (Some(on), Some(off)) = (defended_fake, undefended_fake) {
        assert!(
            off - on > 20.0,
            "defense margin too thin: defended {on}, undefended {off}"
        );
    }

    // Prometheus artifact from the defended-ring cell: the campaign
    // burn-rate series and alert must survive the exposition lint (this
    // is the artifact scripts/check.sh greps, so --quick writes it too,
    // to the temp directory).
    let prom = ring_prom.expect("defended ring cell ran");
    lint_prometheus(&prom).expect("exposition lint");
    assert!(
        prom.contains("crowdrank_votes_coordinated") || prom.contains("crowdrank.votes"),
        "campaign series missing from exposition"
    );
    let prom_path = exp.artifact_path("e24_alerts.prom");
    std::fs::write(&prom_path, &prom).expect("write prom artifact");
    println!("\nwrote {} ({} bytes)", prom_path.display(), prom.len());

    println!("\nInvariants held: replicas byte-identical in every cell; zero honest");
    println!("quarantines; clean cell silent; coordinated attacks alerted and (defended)");
    println!("bounded below 50 crowd score; bribery bounded by slashing without detection.");

    // `BENCH_e24.json` is also the single row of `results/e24.json`.
    let snapshot = exp.snapshot("e24_campaign_matrix", vec![("rows", capture(&rows))]);
    exp.write_report(
        "E24",
        "Misinformation-campaign matrix: damage bounds under participant defenses",
        &[snapshot],
    );
}
