//! Quickstart: boot the platform, publish sourced and unsourced news,
//! and watch the trace-based ranking separate them.
//!
//! Run with: `cargo run -p tn-examples --bin quickstart`
//!
//! Pass `--backend disk` to run the same flow on the durable storage
//! engine (segmented block log + CRC-framed WAL in `./quickstart-data`,
//! recreated each run): after the flow, the example reopens the ledger
//! from disk and shows the recovered replica reporting the exact same
//! execution digest.

use tn_core::platform::{Platform, PlatformConfig, PlatformError};
use tn_core::roles::Role;
use tn_crypto::Keypair;
use tn_supplychain::ops::PropagationOp;

fn main() -> Result<(), PlatformError> {
    let args: Vec<String> = std::env::args().collect();
    let disk = args
        .windows(2)
        .any(|w| w[0] == "--backend" && w[1] == "disk");
    let data_dir = std::path::PathBuf::from("quickstart-data");
    let mut config = PlatformConfig::default();
    if disk {
        let _ = std::fs::remove_dir_all(&data_dir);
        config.storage.backend = tn_storage::BackendKind::Disk(data_dir.clone());
        println!("backend: disk ({})", data_dir.display());
    }

    // 1. Boot a platform. This seeds a 50-record factual database (the
    //    paper's "library of speech records") and anchors its Merkle root
    //    on-chain.
    let mut platform = Platform::new(config.clone());
    println!(
        "booted: height={} factdb={} records, anchored root={}",
        platform.height(),
        platform.factdb().len(),
        platform.anchored_fact_root().expect("anchored").short(),
    );

    // 2. Verify identities: a publisher and a journalist.
    let publisher = Keypair::from_seed(b"quickstart publisher");
    let journalist = Keypair::from_seed(b"quickstart journalist");
    platform
        .register_identity(&publisher, "Daily Facts", &[Role::Publisher])
        .unwrap();
    platform
        .register_identity(
            &journalist,
            "Jane Doe",
            &[Role::ContentCreator, Role::Consumer],
        )
        .unwrap();
    platform.produce_block()?;

    // 3. Two-layer governance: distribution platform, then a news room.
    let room =
        platform.open_newsroom(&publisher, "Daily Facts", "energy", &[journalist.address()])?;
    let pid = platform.newsrooms().room(room).expect("opened").platform;
    println!("newsroom ready: platform #{pid}, room #{room}");

    // 4. Publish a sourced story (citing a factual record) and an
    //    unsourced claim.
    let fact = platform.factdb().iter().next().expect("seeded").clone();
    let sourced = platform.publish_news(
        &journalist,
        room,
        &fact.topic,
        &fact.content,
        vec![(fact.id(), PropagationOp::Cite)],
    )?;
    let unsourced = platform.publish_news(
        &journalist,
        room,
        "energy",
        "Anonymous insiders say the real report is being hidden from you.",
        vec![],
    )?;
    platform.produce_block()?;

    // 5. Rank both. The sourced story traces back to the factual database;
    //    the unsourced one cannot.
    let r1 = platform.rank_item(&sourced)?;
    let r2 = platform.rank_item(&unsourced)?;
    println!(
        "sourced  story: rank={:.1} trace={:.2} reaches_root={}",
        r1.rank, r1.trace, r1.reaches_root
    );
    println!(
        "unsourced story: rank={:.1} trace={:.2} reaches_root={}",
        r2.rank, r2.trace, r2.reaches_root
    );
    assert!(r1.rank > r2.rank);

    // 6. Accountability: the chain knows who originated each item.
    let origin = platform.origin_of(&unsourced)?.expect("has origin");
    println!(
        "unsourced story originated from {} ({})",
        origin.short(),
        platform.identities().name(&origin).unwrap_or("?")
    );

    println!("chain height at exit: {}", platform.height());

    // 7. Durability (disk backend only): drop the platform without any
    //    shutdown ceremony, then reopen the ledger from its storage
    //    directory — genesis checkpoint + WAL tail replay — and check it
    //    recovered the exact pre-exit state.
    if disk {
        let height = platform.height();
        let digest = platform.pipeline().execution_digest();
        drop(platform);
        let (bootstrap, replayed) =
            tn_core::pipeline::recover_bootstrap(&config).expect("reopen from disk");
        assert_eq!(bootstrap.pipeline.store().height(), height);
        assert_eq!(bootstrap.pipeline.execution_digest(), digest);
        println!(
            "reopened from {}: height={height}, {replayed} blocks replayed, digest matches",
            data_dir.display()
        );
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    Ok(())
}
