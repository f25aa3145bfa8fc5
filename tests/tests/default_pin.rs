//! Pins the engine's fixed settings by their effect: the exact bits of a
//! platform ranking (the trace × AI × crowd weights) and the built-in SLO
//! rule set (thresholds, windows and severities), so that moving one of
//! those values is a visible change to this file.

use tn_aidetect::corpus::{generate_news_corpus, train_test_split, LabeledDoc, NewsCorpusConfig};
use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::sha256::sha256;
use tn_crypto::{Hash256, Keypair};
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

// --- research models ------------------------------------------------------
//
// The detectors, the crowd-ranking defenses and simulation, the synthetic
// supply chain, the propagation race and the ecosystem run at one
// calibrated setting each. These pins hold that setting by its effect, so
// turning a setting into a constant (or moving one) shows up here.

/// The default seeded corpus, split 80/20.
fn default_split() -> (Vec<LabeledDoc>, Vec<LabeledDoc>) {
    train_test_split(&generate_news_corpus(&NewsCorpusConfig::default()), 0.8)
}

/// Digest of a sequence of `u64`s (bit patterns, counts).
fn words_digest(words: impl IntoIterator<Item = u64>) -> String {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    sha256(&bytes).to_hex()
}

#[test]
fn news_corpus_is_pinned() {
    let docs = generate_news_corpus(&NewsCorpusConfig::default());
    let mut bytes = Vec::new();
    for d in &docs {
        bytes.extend_from_slice(d.text.as_bytes());
        bytes.push(d.fake as u8);
        bytes.extend_from_slice(d.topic.as_bytes());
    }
    let fabricated = docs
        .iter()
        .filter(|d| d.fake && d.text.contains(" tonight. "))
        .count();
    assert_eq!(
        (docs.len(), fabricated, sha256(&bytes).to_hex().as_str()),
        (
            600,
            84,
            "0ecdeafb916ed56207c89890b8650dd464de50a4bae97c7d2d26ed8b515cb19e"
        )
    );
}

#[test]
fn ensemble_probability_bits_are_pinned() {
    let (train, test) = default_split();
    let det = tn_aidetect::ensemble::EnsembleDetector::train(&train);
    let probe: Vec<u64> = test
        .iter()
        .take(6)
        .map(|d| det.prob_fake(&d.text).to_bits())
        .collect();
    let all = words_digest(test.iter().map(|d| det.prob_fake(&d.text).to_bits()));
    let headline = det
        .prob_fake_with_headline("Committee approves amendment", &test[0].text)
        .to_bits();
    assert_eq!(
        (probe, all.as_str(), headline),
        (
            vec![
                4596009669067830874,
                4594664856647476171,
                4606630177888720166,
                4596409748900101474,
                4592017312280367488,
                4594176383397662911,
            ],
            "a77f138577e481e5a102765010a463b1df91d6f3b6378cb06c5204e9d4b05029",
            4599389757948551061
        )
    );
}

#[test]
fn logreg_probability_bits_are_pinned() {
    let (train, test) = default_split();
    let lr = tn_aidetect::logreg::LogisticRegression::train(&train);
    let probe: Vec<u64> = test
        .iter()
        .take(6)
        .map(|d| lr.prob_fake(&d.text).to_bits())
        .collect();
    let all = words_digest(test.iter().map(|d| lr.prob_fake(&d.text).to_bits()));
    assert_eq!(
        (probe, all.as_str()),
        (
            vec![
                4599514703478955935,
                4598801075000025489,
                4605972644352829564,
                4600596790209386666,
                4595429127473374613,
                4598251423009347574,
            ],
            "58fc43d94f28f829ccdaa9bbd196d1e5ccbda7163b0910796b5f0b1d2cbc958b"
        )
    );
}

/// Lexicon feature rows of `docs` (the dense model's inputs).
fn lexicon_rows(docs: &[LabeledDoc]) -> Vec<Vec<f64>> {
    docs.iter()
        .map(|d| {
            let f = tn_aidetect::lexicon::LexiconFeatures::extract(&d.text);
            vec![
                f.negative_rate,
                f.conspiracy_rate,
                f.clickbait_rate,
                f.exclamation_rate,
                f.allcaps_fraction,
                f.tokens as f64,
            ]
        })
        .collect()
}

#[test]
fn dense_probability_bits_are_pinned() {
    let (train, test) = default_split();
    let labels: Vec<bool> = train.iter().map(|d| d.fake).collect();
    let model = tn_aidetect::dense::DenseLogReg::train(&lexicon_rows(&train), &labels);
    let rows = lexicon_rows(&test);
    let probe: Vec<u64> = rows
        .iter()
        .take(6)
        .map(|r| model.predict(r).to_bits())
        .collect();
    let all = words_digest(rows.iter().map(|r| model.predict(r).to_bits()));
    let weights: Vec<u64> = model.weights().iter().map(|w| w.to_bits()).collect();
    assert_eq!(
        (probe, all.as_str(), weights),
        (
            vec![
                4563753532049282199,
                4579090258110772582,
                4607181325581815763,
                4577692892154613006,
                4595602609376773692,
                4576539223194305075,
            ],
            "31b2fb986aa5fb2d1ad8fc57972e328503faefa63c559efffbd2fc11ac84808f",
            vec![
                4614263861100274238,
                4613304805370883925,
                4605518833082004569,
                0,
                0,
                4609346152445725133,
            ]
        )
    );
}

#[test]
fn stance_verdicts_are_pinned() {
    use tn_aidetect::stance::detect_stance;
    let headline = "Committee approves solar subsidy amendment";
    let bodies = [
        "The committee approved the solar subsidy amendment; it was confirmed.",
        "Reports that the committee approved the amendment are false and a hoax.",
        "The committee did not approve the subsidy; officials confirmed the vote failed.",
        "Penguins waddle across frozen shores while whales sing offshore.",
        "The solar subsidy amendment is still being debated by the committee.",
        "Committee subsidy talk continues.",
        "No. The committee never approved any solar subsidy amendment, it was not passed.",
        "Solar panels are cheap this year, committee members say, and the subsidy is popular.",
        "",
    ];
    let verdicts: Vec<String> = bodies
        .iter()
        .map(|b| format!("{:?}", detect_stance(headline, b)))
        .collect();
    assert_eq!(
        verdicts,
        [
            "Agree",
            "Disagree",
            "Agree",
            "Unrelated",
            "Discuss",
            "Discuss",
            "Disagree",
            "Discuss",
            "Unrelated",
        ]
    );
}

fn voter(i: u64) -> tn_crypto::Address {
    Keypair::from_seed(format!("pin voter {i}").as_bytes()).address()
}

fn vote_item(i: u8) -> Hash256 {
    sha256(&[b'v', i])
}

/// Tick, votes, coordinated votes, rings and new quarantines (voter indices).
type TickReport = (u64, u64, u64, Vec<Vec<u64>>, Vec<u64>);

#[test]
fn coordination_verdicts_are_pinned() {
    use tn_crowdrank::defense::{CoordinationDetector, ObservedVote};
    let mut det = CoordinationDetector::new();
    let index = |a: &tn_crypto::Address| (0..40u64).find(|i| voter(*i) == *a).unwrap();
    let mut log = Vec::new();
    for tick in 0..24u64 {
        let mut votes: Vec<ObservedVote> = Vec::new();
        // Honest noise: same direction, distinct exact scores.
        for i in 0..8u64 {
            votes.push((
                voter(i),
                vote_item((tick % 3) as u8),
                (11 * i + tick) as u8 % 40,
            ));
        }
        // A three-member ring at ticks 1 and 2, then silent.
        if (1..=2).contains(&tick) {
            for m in 10..13u64 {
                votes.push((voter(m), vote_item(100), 97));
                votes.push((voter(m), vote_item(101), 3));
            }
        }
        // A pair (below the ring size) voting in lockstep throughout.
        for m in 20..22u64 {
            votes.push((voter(m), vote_item(100), 90));
            votes.push((voter(m), vote_item(101), 9));
        }
        // A four-member ring whose scores differ by one point (not exact).
        if tick.is_multiple_of(5) {
            for m in 30..34u64 {
                votes.push((voter(m), vote_item(102), 80 + (m % 2) as u8));
                votes.push((voter(m), vote_item(103), 20));
            }
        }
        // A four-member ring that votes one item only, then returns with
        // two items after a long silence.
        if tick == 4 {
            for m in 35..39u64 {
                votes.push((voter(m), vote_item(104), 66));
            }
        }
        if tick == 16 || tick == 17 {
            for m in 35..39u64 {
                votes.push((voter(m), vote_item(104), 66));
                votes.push((voter(m), vote_item(105), 33));
            }
        }
        let r = det.observe(tick, &votes);
        let rings: Vec<Vec<u64>> = r
            .rings
            .iter()
            .map(|ring| ring.iter().map(index).collect())
            .collect();
        let quarantine: Vec<u64> = r.quarantine.iter().map(index).collect();
        log.push((tick, r.total_votes, r.coordinated_votes, rings, quarantine));
    }
    let verdicts: Vec<u64> = det.quarantined().iter().map(index).collect();
    // Columns: tick, votes, coordinated votes, rings, new quarantines. A
    // ring stays a ring while its votes are in the window, silent or not.
    let expected: Vec<TickReport> = vec![
        (0, 20, 0, vec![], vec![]),
        (1, 18, 6, vec![vec![12, 10, 11]], vec![]),
        (2, 18, 6, vec![vec![12, 10, 11]], vec![12, 10, 11]),
        (3, 12, 0, vec![vec![12, 10, 11]], vec![]),
        (4, 16, 0, vec![vec![12, 10, 11]], vec![]),
        (5, 20, 0, vec![vec![12, 10, 11]], vec![]),
        (6, 12, 0, vec![vec![12, 10, 11]], vec![]),
        (7, 12, 0, vec![vec![12, 10, 11]], vec![]),
        (8, 12, 0, vec![vec![12, 10, 11]], vec![]),
        (9, 12, 0, vec![vec![12, 10, 11]], vec![]),
        (10, 20, 0, vec![], vec![]),
        (11, 12, 0, vec![], vec![]),
        (12, 12, 0, vec![], vec![]),
        (13, 12, 0, vec![], vec![]),
        (14, 12, 0, vec![], vec![]),
        (15, 20, 0, vec![], vec![]),
        (16, 20, 8, vec![vec![35, 38, 37, 36]], vec![]),
        (17, 20, 8, vec![vec![35, 38, 37, 36]], vec![35, 38, 37, 36]),
        (18, 12, 0, vec![vec![35, 38, 37, 36]], vec![]),
        (19, 12, 0, vec![vec![35, 38, 37, 36]], vec![]),
        (20, 20, 0, vec![vec![35, 38, 37, 36]], vec![]),
        (21, 12, 0, vec![vec![35, 38, 37, 36]], vec![]),
        (22, 12, 0, vec![vec![35, 38, 37, 36]], vec![]),
        (23, 12, 0, vec![vec![35, 38, 37, 36]], vec![]),
    ];
    assert_eq!(log, expected);
    assert_eq!(verdicts, [12, 35, 38, 10, 37, 11, 36]);
}

#[test]
fn crowd_sim_accuracies_are_pinned() {
    use tn_crowdrank::sim::{run, SimConfig, Strategy};
    // The default population, and E2's near-parity row (11 of 24
    // malicious), where the three strategies part ways.
    let near_parity = SimConfig {
        n_honest: 13,
        n_malicious: 11,
        honest_error: 0.12,
        rounds: 25,
        seed: 11,
    };
    let mut got: Vec<(u64, u64, u64, i64, String)> = Vec::new();
    for config in [SimConfig::default(), near_parity] {
        for s in [
            Strategy::Majority,
            Strategy::ReputationWeighted,
            Strategy::TruthDiscovery,
        ] {
            let r = run(&config, s);
            let mut balances: Vec<(tn_crypto::Address, i64)> = r.balances.into_iter().collect();
            balances.sort();
            got.push((
                r.overall_accuracy.to_bits(),
                r.honest_weight.to_bits(),
                r.malicious_weight.to_bits(),
                balances.iter().map(|(_, b)| b.abs()).sum(),
                words_digest(
                    r.accuracy_per_round
                        .iter()
                        .map(|a| a.to_bits())
                        .chain(balances.iter().map(|(_, b)| *b as u64)),
                ),
            ));
        }
    }
    let same = (
        4607182418800017408,
        4606229551931489544,
        4577221629700036845,
        1963,
        "511c25e174fc71f907ae0ab8bf34c1a2dad52eb96f84b425bfcc213ae14d6752",
    );
    let got: Vec<(u64, u64, u64, i64, &str)> = got
        .iter()
        .map(|(a, h, m, b, d)| (*a, *h, *m, *b, d.as_str()))
        .collect();
    assert_eq!(
        got,
        [
            same,
            same,
            same,
            (
                4599328141049883263,
                4605958854907802183,
                4574826770413305969,
                2864,
                "f9652baeb3f37849ab43ddc739f284c4f63e30127478e54ac8f51f049efb671f"
            ),
            (
                4606894188423865696,
                4605958854907802183,
                4574826770413305969,
                2864,
                "bf6f73da736da784ada5a6b3f13da18ce6cbf5288c2e2dba84f700628747a754"
            ),
            (
                4585925428558828667,
                4605958854907802183,
                4574826770413305969,
                2864,
                "877fc11e43e2c059cbbab81d4f71cb9b1d61325457dfc76d56695e3a2a20e528"
            ),
        ]
    );
}

#[test]
fn synth_truth_and_digest_are_pinned() {
    use tn_supplychain::synth::{generate, SynthConfig};
    let s = generate(&SynthConfig::default());
    let fakes = s.truth.values().filter(|t| t.is_fake).count();
    let fabricated = s
        .truth
        .values()
        .filter(|t| t.is_fake && t.generation == 0)
        .count();
    let deepest = s.truth.values().map(|t| t.generation).max().unwrap();
    assert_eq!(
        (
            s.truth.len(),
            fakes,
            fabricated,
            deepest,
            s.graph.digest().to_hex().as_str()
        ),
        (
            300,
            93,
            18,
            8,
            "883f26afaaa1445364778a77d8a3c5a4bf80f65b80b6bf77aaae463034ec255e"
        )
    );
}

#[test]
fn race_reach_is_pinned() {
    use tn_propagation::network::barabasi_albert;
    use tn_propagation::race::{run_race, Intervention, RaceConfig};
    let g = barabasi_albert(1500, 3, 21);
    let certified = RaceConfig { factual_boost: 1.6 };
    let cells = [
        (RaceConfig::default(), Intervention::None),
        (
            RaceConfig::default(),
            Intervention::Flagging {
                delay: 3,
                multiplier: 0.2,
            },
        ),
        (
            RaceConfig::default(),
            Intervention::SourceBlocking { delay: 2 },
        ),
        (
            RaceConfig::default(),
            Intervention::RankingSuppression { multiplier: 0.25 },
        ),
        (
            certified,
            Intervention::RankingSuppression { multiplier: 0.25 },
        ),
    ];
    let got: Vec<(usize, usize, usize, usize)> = cells
        .iter()
        .map(|(config, intervention)| {
            let r = run_race(&g, config, *intervention).unwrap();
            (
                r.fake.total_reach,
                r.factual.total_reach,
                r.fake.half_reach_round,
                r.fake.reach_over_time.len(),
            )
        })
        .collect();
    // (fake reach, factual reach, fake half-reach round, fake series length)
    assert_eq!(
        got,
        [
            (108, 22, 2, 8),
            (100, 22, 2, 41),
            (108, 22, 2, 41),
            (24, 22, 1, 6),
            (24, 122, 1, 6),
        ]
    );
}

#[test]
fn ecosystem_round_stats_are_pinned() {
    use tn_core::ecosystem::{run_ecosystem, EcosystemConfig};
    let r = run_ecosystem(&EcosystemConfig {
        rounds: 2,
        ..EcosystemConfig::default()
    })
    .unwrap();
    let rounds: Vec<String> = r
        .rounds
        .iter()
        .map(|s| {
            format!(
                "{} {} {} {} {:x} {:x} {:x} {} {}",
                s.round,
                s.published,
                s.fake_published,
                s.admitted_facts,
                s.mean_rank_factual.to_bits(),
                s.mean_rank_fake.to_bits(),
                s.mean_consumer_points.to_bits(),
                s.factdb_size,
                s.chain_height
            )
        })
        .collect();
    let fakes = r.truth.iter().filter(|(_, f)| *f).count();
    assert_eq!(
        (rounds, r.truth.len(), fakes, r.final_separation.to_bits()),
        (
            vec![
                "0 5 2 2 4054211111111111 4045cbfbfbfbfbfc 400aaaaaaaaaaaab 51 8".to_string(),
                "1 8 2 2 405202b2b2b2b2b3 40429ea40bd47a89 401faaaaaaaaaaab 52 11".to_string(),
            ],
            13,
            4,
            4630094872530971357
        )
    );
}

/// Length-prefixed canonical bytes of a generated workload, the input of
/// [`generated_workloads_are_pinned`]'s digests.
#[derive(Default)]
struct Encoding(Vec<u8>);

impl Encoding {
    fn word(&mut self, w: u64) {
        self.0.extend_from_slice(&w.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        self.0.extend_from_slice(b);
    }

    fn txs(&mut self, txs: &[tn_chain::transaction::Transaction]) {
        use tn_chain::codec::Encodable;
        self.word(txs.len() as u64);
        for tx in txs {
            self.bytes(&tx.to_bytes());
        }
    }

    fn addresses(&mut self, addrs: &[tn_crypto::Address]) {
        self.word(addrs.len() as u64);
        for a in addrs {
            self.bytes(a.as_hash().as_bytes());
        }
    }

    fn workload(&mut self, wl: &tn_gateway::Workload) {
        use tn_chain::codec::Encodable;
        use tn_gateway::{Persona, RequestKind};
        use tn_propagation::AccountKind;
        self.txs(&wl.setup);
        self.word(wl.requests.len() as u64);
        for req in &wl.requests {
            self.word(req.client);
            match &req.kind {
                RequestKind::Write(tx) => {
                    self.word(0);
                    self.bytes(&tx.to_bytes());
                }
                RequestKind::Read { article } => {
                    self.word(1);
                    self.word(*article as u64);
                }
            }
        }
        self.word(wl.clients.len() as u64);
        for c in &wl.clients {
            self.word(c.id);
            self.word(match c.persona {
                Persona::Submitter => 0,
                Persona::Ranker => 1,
                Persona::Reader => 2,
            });
            self.word(match c.kind {
                AccountKind::Human => 0,
                AccountKind::Bot => 1,
                AccountKind::Cyborg => 2,
            });
        }
        self.word(wl.articles as u64);
    }

    fn digest(&self) -> String {
        sha256(&self.0).to_hex()
    }
}

/// Pins every transaction the four session generators emit — the cluster
/// workload, the open-loop persona stream and all eight campaign cells —
/// byte for byte, with the request order, client ids, read targets and
/// the campaign's item ids and address lists.
#[test]
fn generated_workloads_are_pinned() {
    use tn_gateway::LoadProfile;
    use tn_gateway::{build_campaign_workload, build_workload, AttackKind, CampaignProfile};
    use tn_node::workload::scripted_workload;
    let config = PlatformConfig::default();
    let mut got: Vec<(String, usize, String)> = Vec::new();

    let txs = scripted_workload(&config);
    let mut e = Encoding::default();
    e.txs(&txs);
    got.push(("scripted".into(), txs.len(), e.digest()));

    let profile = LoadProfile {
        submitters: 2,
        rankers: 4,
        readers: 2,
        seed_articles: 18,
        write_events: 70,
        read_events: 12,
        ..LoadProfile::default()
    };
    let wl = build_workload(&config, &profile);
    let mut e = Encoding::default();
    e.workload(&wl);
    got.push(("open-loop".into(), wl.requests.len(), e.digest()));

    for attack in AttackKind::all() {
        for defense in [false, true] {
            let cw = build_campaign_workload(
                &config,
                &CampaignProfile {
                    attack,
                    defense,
                    honest: 4,
                    adversaries: 3,
                    rounds: 4,
                    flip_round: 2,
                },
            );
            let mut e = Encoding::default();
            e.workload(&cw.workload);
            e.bytes(cw.fake_item.as_bytes());
            e.bytes(cw.factual_item.as_bytes());
            e.addresses(&cw.adversary_addrs);
            e.addresses(&cw.honest_addrs);
            let label = format!("{}/{defense}", attack.label());
            got.push((label, cw.workload.requests.len(), e.digest()));
        }
    }

    let got: Vec<(&str, usize, &str)> = got
        .iter()
        .map(|(l, n, d)| (l.as_str(), *n, d.as_str()))
        .collect();
    assert_eq!(
        got,
        [
            (
                "scripted",
                24,
                "782ac0606cf71c7a3ae5cb70bbdb378b97725aa5d53643317e890ebffbb576d0"
            ),
            (
                "open-loop",
                82,
                "3f56601e70ac6ef3739bb20433dae00cb0ea51fcdb3e95fd809f71417ee65dc6"
            ),
            (
                "clean/false",
                35,
                "70d6e1cc45ce956829c56da0a7a1d9b94b55474b95a4dd85f27535625903ffc7"
            ),
            (
                "clean/true",
                35,
                "22096e814da66839533242a7e42a7c98f09cb82390655b4638685aa0b7513f5c"
            ),
            (
                "bot-ring/false",
                59,
                "32e94561bd29e5097ed461aacb3d500743922e76e9158acaa8847d4d770aa776"
            ),
            (
                "bot-ring/true",
                59,
                "23e26378933318d102490ec3fcf2bfee6d80f778f87d0d9a76ad5f16b7e90f6a"
            ),
            (
                "turncoat-sybils/false",
                61,
                "321f46cb4da27d6e82cd154a7dbd8b46f471c50c70696421576045f31980682f"
            ),
            (
                "turncoat-sybils/true",
                61,
                "024346fa62b183445357b9d7d6e6d56a896afc8d3edaef977a82a2cf6cf0be21"
            ),
            (
                "bribed-rankers/false",
                63,
                "223dc888f2f6416cd19eeb27053faa18fe9b252abe2bae17d92b213e09b8e70e"
            ),
            (
                "bribed-rankers/true",
                63,
                "cc6f739452cbd1ca371b9be1fc1216118a2ef98fbe17c4e0a000f9dc89423b6f"
            ),
        ]
    );
}
