//! The full editorial workflow of §V: a publisher sets up a distribution
//! platform and topical news rooms, journalists publish, a story
//! propagates through relays and distortions, consumers rate it, fact
//! checkers attest a fresh record into the factual database, and the
//! platform suggests domain experts from ledger history.
//!
//! Run with: `cargo run -p tn-examples --bin newsroom_workflow`

use tn_core::platform::{Platform, PlatformConfig, PlatformError};
use tn_core::roles::Role;
use tn_crypto::Keypair;
use tn_factdb::record::{FactRecord, SourceKind};
use tn_supplychain::ops::PropagationOp;

fn main() -> Result<(), PlatformError> {
    let mut platform = Platform::new(PlatformConfig::default());

    // --- population --------------------------------------------------------
    let publisher = Keypair::from_seed(b"nw publisher");
    let senior = Keypair::from_seed(b"nw senior journalist");
    let stringer = Keypair::from_seed(b"nw stringer");
    let tabloid = Keypair::from_seed(b"nw tabloid account");
    let checker_a = Keypair::from_seed(b"nw checker a");
    let checker_b = Keypair::from_seed(b"nw checker b");
    let readers: Vec<Keypair> = (0..8)
        .map(|i| Keypair::from_seed(format!("nw reader {i}").as_bytes()))
        .collect();

    platform
        .register_identity(&publisher, "Metro Press", &[Role::Publisher])
        .unwrap();
    platform
        .register_identity(&senior, "A. Senior", &[Role::ContentCreator])
        .unwrap();
    platform
        .register_identity(&stringer, "B. Stringer", &[Role::ContentCreator])
        .unwrap();
    platform
        .register_identity(&tabloid, "C. Tabloid", &[Role::ContentCreator])
        .unwrap();
    platform
        .register_identity(&checker_a, "Check-A", &[Role::FactChecker])
        .unwrap();
    platform
        .register_identity(&checker_b, "Check-B", &[Role::FactChecker])
        .unwrap();
    for (i, r) in readers.iter().enumerate() {
        platform
            .register_identity(r, &format!("Reader {i}"), &[Role::Consumer])
            .unwrap();
    }
    platform.produce_block()?;

    // --- two-layer newsroom setup -------------------------------------------
    let journalists = [&senior, &stringer, &tabloid].map(Keypair::address);
    let room = platform.open_newsroom(&publisher, "Metro Press", "health", &journalists)?;
    let pid = platform.newsrooms().room(room).expect("opened").platform;
    println!("Metro Press (platform #{pid}) opened health room #{room} with 3 journalists");

    // --- fact checkers admit a fresh public record ---------------------------
    let record = FactRecord {
        source: SourceKind::VerifiedNews,
        speaker: "Health Ministry".into(),
        topic: "health".into(),
        content: "The ministry published the hospital staffing report. \
                  Nurse-to-patient ratios improved in 14 of 16 districts. \
                  The full dataset is in the public register."
            .into(),
        recorded_at: 500,
    };
    let record_id = platform.propose_fact(record.clone()).unwrap();
    platform.attest_fact(&checker_a, &record_id)?;
    platform.attest_fact(&checker_b, &record_id)?;
    let summary = platform.produce_block()?;
    println!(
        "fact checkers admitted record {} (factdb now {} records)",
        record_id.short(),
        platform.factdb().len()
    );
    assert_eq!(summary.admitted_facts, vec![record_id]);
    platform.produce_block()?; // re-anchor lands

    // --- the story propagates -------------------------------------------------
    // Senior journalist reports faithfully from the record.
    let report = platform.publish_news(
        &senior,
        room,
        "health",
        &record.content,
        vec![(record_id, PropagationOp::Cite)],
    )?;
    platform.produce_block()?;

    // Stringer relays the senior's piece verbatim.
    let relay = platform.publish_news(
        &stringer,
        room,
        "health",
        &record.content,
        vec![(report, PropagationOp::Relay)],
    )?;
    // Tabloid account distorts it with emotional insertions.
    let distorted_text = format!(
        "{} Insiders warn this is a shocking corrupt cover-up. \
         They do not want you to know the terrifying truth.",
        record.content
    );
    let distorted = platform.publish_news(
        &tabloid,
        room,
        "health",
        &distorted_text,
        vec![(report, PropagationOp::Insert)],
    )?;
    platform.produce_block()?;

    // --- consumers rate ---------------------------------------------------------
    for (i, reader) in readers.iter().enumerate() {
        platform.submit_rating(reader, &relay, 80 + (i as u8 % 3) * 5)?;
        platform.submit_rating(reader, &distorted, 10 + (i as u8 % 3) * 5)?;
    }
    platform.produce_block()?;

    // --- rankings ----------------------------------------------------------------
    for (label, id) in [
        ("report", report),
        ("relay", relay),
        ("distorted", distorted),
    ] {
        let rank = platform.rank_item(&id)?;
        let trace = platform.trace_item(&id)?;
        println!(
            "{label:>9}: rank={:5.1}  trace={:.2}  crowd={:.2}  hops-to-fact={:?}",
            rank.rank, rank.trace, rank.crowd, trace.distance
        );
    }
    let r_relay = platform.rank_item(&relay)?;
    let r_dist = platform.rank_item(&distorted)?;
    assert!(r_relay.rank > r_dist.rank);

    // --- accountability + expert suggestion ---------------------------------------
    let (culprit, degree) = platform
        .distortion_culprit_of(&distorted)?
        .expect("distortion present");
    println!(
        "distortion introduced by {} (modification degree {:.2})",
        platform.identities().name(&culprit).unwrap_or("?"),
        degree
    );
    assert_eq!(culprit, tabloid.address());
    let experts = platform.suggest_experts("health", 3);
    println!("suggested health experts:");
    for e in &experts {
        println!(
            "  {} — {} items, {} rooted, score {:.2}",
            platform.identities().name(&e.author).unwrap_or("?"),
            e.items,
            e.rooted_items,
            e.score
        );
    }
    assert_eq!(experts[0].author, senior.address());

    println!(
        "ledger: {} transactions over {} blocks",
        platform.store().canonical_transactions().len(),
        platform.height()
    );
    Ok(())
}
