//! Pins the engine's fixed settings by their effect: the exact bits of a
//! platform ranking (the trace × AI × crowd weights) and the built-in SLO
//! rule set (thresholds, windows and severities), so that moving one of
//! those values is a visible change to this file.

use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::Keypair;
use tn_monitor::{builtin_rules, Cmp, MonitorConfig, Query, Severity};
use tn_supplychain::ops::PropagationOp;

/// One rule, rendered field by field; the threshold by its bit pattern.
type RenderedRule = (String, Query, Cmp, u64, usize, usize, Severity);

fn sum(counter: &str) -> Query {
    Query::Sum {
        counter: counter.into(),
        windows: 2,
    }
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

#[test]
fn builtin_rule_set_is_pinned() {
    let rendered: Vec<RenderedRule> = builtin_rules(&MonitorConfig::default())
        .into_iter()
        .map(|r| {
            (
                r.name,
                r.query,
                r.cmp,
                r.threshold.to_bits(),
                r.for_windows,
                r.clear_windows,
                r.severity,
            )
        })
        .collect();
    let expected: Vec<(&str, Query, Cmp, f64, usize, usize, Severity)> = vec![
        (
            "commit-latency-p99",
            Query::Quantile {
                histogram: "pipeline.commit_ns".into(),
                q: 0.99,
                windows: 4,
            },
            Cmp::Above,
            250_000_000.0,
            2,
            2,
            Severity::Warn,
        ),
        (
            "gateway-shed-burn",
            Query::BurnRate {
                bad: strings(&["gateway.shed.rate_limit", "gateway.shed.queue_full"]),
                total: strings(&["gateway.offered"]),
                budget: 0.01,
                short_windows: 2,
                long_windows: 8,
            },
            Cmp::Above,
            10.0,
            1,
            2,
            Severity::Warn,
        ),
        (
            "sigcache-collapse",
            Query::Ratio {
                parts: strings(&["chain.sigcache.hit"]),
                total: strings(&["chain.sigcache.hit", "chain.sigcache.miss"]),
                windows: 4,
            },
            Cmp::Below,
            1.0 / 7.0,
            2,
            2,
            Severity::Warn,
        ),
        (
            "wal-replay-spike",
            sum("storage.wal.replays"),
            Cmp::Above,
            0.0,
            1,
            2,
            Severity::Warn,
        ),
        (
            "catchup-active",
            sum("node.catchup.blocks_applied"),
            Cmp::Above,
            0.0,
            1,
            2,
            Severity::Warn,
        ),
        (
            "replica-restarted",
            sum("node.fault.recoveries"),
            Cmp::Above,
            0.0,
            1,
            2,
            Severity::Warn,
        ),
        (
            "consensus-drops",
            sum("sim.msg.dropped"),
            Cmp::Above,
            0.0,
            1,
            2,
            Severity::Warn,
        ),
        (
            "crowdrank-campaign-burn",
            Query::BurnRate {
                bad: strings(&["crowdrank.votes.coordinated"]),
                total: strings(&["crowdrank.votes.total"]),
                budget: 0.05,
                short_windows: 2,
                long_windows: 8,
            },
            Cmp::Above,
            4.0,
            1,
            2,
            Severity::Warn,
        ),
        (
            "undecodable-payloads",
            sum("node.batch.undecodable"),
            Cmp::Above,
            0.0,
            1,
            2,
            Severity::Warn,
        ),
    ];
    let expected: Vec<RenderedRule> = expected
        .into_iter()
        .map(|(name, query, cmp, threshold, fire, clear, severity)| {
            (
                name.to_string(),
                query,
                cmp,
                threshold.to_bits(),
                fire,
                clear,
                severity,
            )
        })
        .collect();
    assert_eq!(rendered, expected);
}

/// `(trace, ai, crowd, rank)` as bit patterns.
fn bits(p: &Platform, item: &tn_crypto::Hash256) -> [u64; 4] {
    let r = p.rank_item(item).expect("ranked");
    [r.trace, r.ai, r.crowd, r.rank].map(f64::to_bits)
}

#[test]
fn rank_item_bits_are_pinned() {
    let mut p = Platform::new(PlatformConfig::default());
    let publisher = Keypair::from_seed(b"pin publisher");
    let journalist = Keypair::from_seed(b"pin journalist");
    let readers: Vec<Keypair> = (0..3)
        .map(|i| Keypair::from_seed(format!("pin reader {i}").as_bytes()))
        .collect();
    p.register_identity(&publisher, "Pin Press", &[Role::Publisher])
        .unwrap();
    p.register_identity(&journalist, "Pin Journalist", &[Role::ContentCreator])
        .unwrap();
    for r in &readers {
        p.register_identity(r, "Pin Reader", &[Role::Consumer])
            .unwrap();
    }
    p.produce_block().unwrap();
    p.create_publisher_platform(&publisher, "Pin Press")
        .unwrap();
    p.produce_block().unwrap();
    let pid = p.newsrooms().find_platform("Pin Press").unwrap();
    p.create_news_room(&publisher, pid, "energy").unwrap();
    p.produce_block().unwrap();
    let room = p.newsrooms().rooms().next().unwrap().0;
    p.authorize_journalist(&publisher, room, &journalist.address())
        .unwrap();
    p.produce_block().unwrap();

    let fact = p.factdb().iter().next().unwrap().clone();
    let cited = p
        .publish_news(
            &journalist,
            room,
            &fact.topic,
            &fact.content,
            vec![(fact.id(), PropagationOp::Cite)],
        )
        .unwrap();
    let relayed = p
        .publish_news(
            &journalist,
            room,
            &fact.topic,
            &format!("{} Officials have not commented.", fact.content),
            vec![(cited, PropagationOp::Insert)],
        )
        .unwrap();
    let unsourced = p
        .publish_news(
            &journalist,
            room,
            "energy",
            "Secret memo reveals it was all a lie.",
            vec![],
        )
        .unwrap();
    p.produce_block().unwrap();
    for (i, r) in readers.iter().enumerate() {
        p.submit_rating(r, &cited, 70 + 10 * i as u8).unwrap();
        p.submit_rating(r, &unsourced, 5 + 7 * i as u8).unwrap();
    }
    p.produce_block().unwrap();

    let untrained = [bits(&p, &cited), bits(&p, &relayed), bits(&p, &unsourced)];
    let corpus =
        tn_aidetect::corpus::generate_news_corpus(&tn_aidetect::corpus::NewsCorpusConfig {
            n_factual: 60,
            n_fake: 60,
            ..Default::default()
        });
    p.train_detector(&corpus);
    let trained = [bits(&p, &cited), bits(&p, &relayed), bits(&p, &unsourced)];

    // Without a detector the AI signal is the neutral 0.5; an unrated
    // item's crowd signal is 0.5 too.
    assert_eq!(
        untrained,
        [
            [
                0x3ff0000000000000,
                0x3fe0000000000000,
                0x3fe999999999999a,
                0x4054a00000000000,
            ],
            [
                0x3fea2e8ba2e8ba2f,
                0x3fe0000000000000,
                0x3fe0000000000000,
                0x40507a2e8ba2e8bb,
            ],
            [
                0x0000000000000000,
                0x3fe0000000000000,
                0x3fbeb851eb851eb8,
                0x402f000000000000,
            ],
        ]
    );
    assert_eq!(
        trained,
        [
            [
                0x3ff0000000000000,
                0x3feb0a5921668121,
                0x3fe999999999999a,
                0x4056c80568860538,
            ],
            [
                0x3fea2e8ba2e8ba2f,
                0x3fea679b4e1de07a,
                0x3fe0000000000000,
                0x4052826ae0e4be92,
            ],
            [
                0x0000000000000000,
                0x3fb64470931cf810,
                0x3fbeb851eb851eb8,
                0x4014b2bbf97750e6,
            ],
        ]
    );
}
