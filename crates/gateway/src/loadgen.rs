//! Persona-driven workload generation and open-loop arrival scheduling.
//!
//! Transactions are not invented here (the same rule as
//! `tn_node::workload`): a local [`Platform`] executes the whole
//! scripted session — client registration, newsroom setup, seed
//! articles, then an event loop of publishes and ratings — and the
//! committed ledger becomes the request stream. That guarantees every
//! request is valid platform traffic (correct nonces, funded fees,
//! role-checked contract calls) while leaving the gateway free to
//! re-batch it into its own blocks.
//!
//! The load model follows the paper's ecosystem: **submitters**
//! (journalists) publish articles, **rankers** (consumers) rate them,
//! **readers** only read. Bot and cyborg accounts (per
//! `tn-propagation`'s [`AccountKind`]) generate proportionally more
//! traffic — a bot emits `amplification()`× the events of a human with
//! the same persona. Which article a ranker rates or a reader fetches is
//! drawn from a [`ZipfSampler`] over the seed-article catalogue, so a
//! few head articles absorb most of the traffic, as article popularity
//! does in the wild.
//!
//! Everything is seeded: the same [`LoadProfile`] always yields the same
//! [`Workload`], and [`schedule`] always yields the same arrival
//! timestamps — the determinism the E21 replay tests rely on.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tn_chain::prelude::*;
use tn_core::platform::{Platform, PlatformConfig, PlatformError};
use tn_core::roles::Role;
use tn_crypto::{Address, Keypair};
use tn_node::workload::post_bootstrap_blocks;
use tn_propagation::{AccountKind, ZipfSampler};
use tn_supplychain::ops::PropagationOp;

/// What a client does on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persona {
    /// A journalist: publishes articles (occasionally citing popular
    /// seed articles).
    Submitter,
    /// A consumer: submits ratings on Zipf-sampled articles.
    Ranker,
    /// A pure reader: fetches articles, never writes to the ledger.
    Reader,
}

/// One load-generating client.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// The gateway-visible client id (stable across runs).
    pub id: u64,
    /// What this client does.
    pub persona: Persona,
    /// Human, bot or cyborg — scales how much traffic the client emits.
    pub kind: AccountKind,
}

/// The body of one request.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// A ledger write (publish or rating), pre-signed with the correct
    /// nonce for its client's session. Boxed so the read variant of a
    /// long load stream doesn't pay a transaction's footprint.
    Write(Box<Transaction>),
    /// A read of the seed article at this catalogue index; reads hit the
    /// gateway's rate limiter but never the ledger.
    Read {
        /// Index into the seed-article catalogue.
        article: usize,
    },
}

/// One client request in the load stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// The submitting client.
    pub client: u64,
    /// What the client asks for.
    pub kind: RequestKind,
}

/// Zipf exponent for article popularity (1.0 ≈ classic web traffic).
const ZIPF_S: f64 = 1.0;

/// Parameters of a generated workload. All fields are part of the seed:
/// two equal profiles produce identical workloads.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Journalist clients publishing articles.
    pub submitters: usize,
    /// Consumer clients submitting ratings.
    pub rankers: usize,
    /// Read-only clients.
    pub readers: usize,
    /// Fraction of clients that are bots (and half as many again are
    /// cyborgs); bots emit 3× and cyborgs 2× a human's event share.
    pub bot_fraction: f64,
    /// Articles published during setup — the Zipf catalogue that ratings
    /// and reads target.
    pub seed_articles: usize,
    /// Ledger-write events (publishes + ratings) in the load stream.
    pub write_events: usize,
    /// Read events interleaved into the stream.
    pub read_events: usize,
    /// Master seed for client kinds, event actors and article targets.
    pub seed: u64,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            submitters: 6,
            rankers: 18,
            readers: 12,
            bot_fraction: 0.2,
            seed_articles: 24,
            write_events: 600,
            read_events: 300,
            seed: 21,
        }
    }
}

/// A fully materialised load: the setup prefix every replica pre-applies,
/// plus the request stream the gateway admits one by one.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Committed setup transactions (registrations, newsroom, seed
    /// articles) in commit order — applied directly to the node before
    /// the open-loop run starts, never rate-limited.
    pub setup: Vec<Transaction>,
    /// The request stream in generation order. Per-client write order is
    /// nonce order and must be preserved; cross-client order is free.
    pub requests: Vec<Request>,
    /// Every load-generating client.
    pub clients: Vec<ClientProfile>,
    /// Size of the seed-article catalogue reads and ratings target.
    pub articles: usize,
}

impl Workload {
    /// Ledger-write requests in the stream.
    pub fn writes(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::Write(_)))
            .count()
    }
}

/// One scheduled arrival: the request at `index` arrives at `at_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Logical arrival timestamp, nanoseconds from run start.
    pub(crate) at_ns: u64,
    /// Index into [`Workload::requests`].
    pub(crate) index: usize,
}

/// Derives a client's account kind from the profile's bot mix.
fn kind_of(r: f64, bot_fraction: f64) -> AccountKind {
    if r < bot_fraction {
        AccountKind::Bot
    } else if r < bot_fraction * 1.5 {
        AccountKind::Cyborg
    } else {
        AccountKind::Human
    }
}

/// Builds the full workload for `profile` by running the scripted
/// session on a local platform built from `config`.
///
/// # Panics
///
/// When the profile has no submitter or no seed article. Every platform
/// call signs for a client the session registered, funded and (for a
/// submitter) authorized itself, so the platform refuses none.
pub fn build_workload(config: &PlatformConfig, profile: &LoadProfile) -> Workload {
    assert!(profile.submitters > 0, "need at least one submitter");
    assert!(
        profile.seed_articles > 0,
        "need a non-empty article catalogue"
    );
    persona_session(config, profile)
        .expect("the session signs only for clients it registered with the roles each call needs")
}

/// The session behind [`build_workload`].
fn persona_session(
    config: &PlatformConfig,
    profile: &LoadProfile,
) -> Result<Workload, PlatformError> {
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let mut p = Platform::new(config.clone());

    // --- clients ---------------------------------------------------------
    let mut clients = Vec::new();
    let mut keys = Vec::new();
    let total = profile.submitters + profile.rankers + profile.readers;
    for i in 0..total {
        let persona = if i < profile.submitters {
            Persona::Submitter
        } else if i < profile.submitters + profile.rankers {
            Persona::Ranker
        } else {
            Persona::Reader
        };
        let kind = kind_of(rng.gen::<f64>(), profile.bot_fraction);
        let id = i as u64 + 1; // 0 is reserved for system traffic
        clients.push(ClientProfile { id, persona, kind });
        keys.push(Keypair::from_seed(format!("e21-client-{i}").as_bytes()));
    }

    // --- setup: registrations, newsroom, seed articles -------------------
    let publisher = Keypair::from_seed(b"e21-publisher");
    p.register_identity(&publisher, "Open Loop Press", &[Role::Publisher])?;
    for (client, key) in clients.iter().zip(&keys) {
        let roles: &[Role] = match client.persona {
            Persona::Submitter => &[Role::ContentCreator, Role::Consumer],
            _ => &[Role::Consumer],
        };
        p.register_identity(key, &format!("Client {}", client.id), roles)?;
    }
    p.produce_block()?;
    let authors: Vec<Address> = keys[..profile.submitters]
        .iter()
        .map(Keypair::address)
        .collect();
    let room = p.open_newsroom(&publisher, "Open Loop Press", "general", &authors)?;

    let mut articles = Vec::new();
    for a in 0..profile.seed_articles {
        let author = a % profile.submitters;
        let id = p.publish_news(
            &keys[author],
            room,
            "general",
            &format!("Seed article {a} from the open-loop catalogue."),
            vec![],
        )?;
        articles.push(id);
        if a % 16 == 15 {
            p.produce_block()?;
        }
    }
    p.produce_block()?;
    let setup_height = p.store().height();

    // --- event loop: the load stream -------------------------------------
    // Writers draw events in proportion to their amplification, so bots
    // dominate traffic the way §VII's propagation model says they do.
    let zipf = ZipfSampler::new(articles.len(), ZIPF_S);
    let mut writer_pool = Vec::new();
    for (i, client) in clients.iter().enumerate() {
        let weight = client.kind.amplification() as usize;
        if matches!(client.persona, Persona::Submitter | Persona::Ranker) {
            writer_pool.extend(std::iter::repeat_n(i, weight));
        }
    }
    for ev in 0..profile.write_events {
        let actor = writer_pool[rng.gen_range(0..writer_pool.len())];
        match clients[actor].persona {
            Persona::Submitter => {
                // Cite a popular seed article a third of the time: the
                // supply-chain graph grows toward the Zipf head.
                let parents = if rng.gen_bool(1.0 / 3.0) {
                    vec![(articles[zipf.sample(&mut rng)], PropagationOp::Cite)]
                } else {
                    vec![]
                };
                p.publish_news(
                    &keys[actor],
                    room,
                    "general",
                    &format!("Stream article at event {ev}."),
                    parents,
                )?;
            }
            Persona::Ranker => {
                let article = &articles[zipf.sample(&mut rng)];
                let score = rng.gen_range(10..100u8);
                p.submit_rating(&keys[actor], article, score)?;
            }
            Persona::Reader => unreachable!("readers are not in the writer pool"),
        }
        if ev % 32 == 31 {
            p.produce_block()?;
        }
    }
    // The last stream block, then a flush block.
    p.produce_block()?;
    p.produce_block()?;

    let by_addr: HashMap<Address, u64> = keys
        .iter()
        .zip(&clients)
        .map(|(k, c)| (k.address(), c.id))
        .collect();
    let (setup, stream) = split_ledger(&p, setup_height, &by_addr);

    // --- interleave reads -------------------------------------------------
    // Readers draw Zipf article targets; reads are spread evenly through
    // the write stream (per-client WRITE order is preserved — only reads
    // are inserted, never writes reordered).
    let reader_pool: Vec<usize> = clients
        .iter()
        .enumerate()
        .filter(|(_, c)| c.persona == Persona::Reader)
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.kind.amplification() as usize))
        .collect();
    let mut requests = Vec::with_capacity(stream.len() + profile.read_events);
    let reads = if reader_pool.is_empty() {
        0
    } else {
        profile.read_events
    };
    let stride = if reads > 0 {
        (stream.len().max(1) as f64 / reads as f64).max(f64::MIN_POSITIVE)
    } else {
        f64::INFINITY
    };
    let mut next_read = stride;
    for (i, req) in stream.into_iter().enumerate() {
        requests.push(req);
        while reads > 0 && (i + 1) as f64 >= next_read {
            let reader = reader_pool[rng.gen_range(0..reader_pool.len())];
            requests.push(Request {
                client: clients[reader].id,
                kind: RequestKind::Read {
                    article: zipf.sample(&mut rng),
                },
            });
            next_read += stride;
        }
    }

    Ok(Workload {
        setup,
        requests,
        clients,
        articles: articles.len(),
    })
}

/// Splits `platform`'s committed ledger above the bootstrap prefix every
/// replica already holds into a setup prefix and a request stream: a
/// transaction signed by a client in `clients` (address → client id) in
/// a block above `setup_height` is that client's write request; all else
/// — setup traffic, and any governor-signed stray in the stream window —
/// is setup, pre-applied and never rate-limited (system transactions are
/// not client load).
pub(crate) fn split_ledger(
    platform: &Platform,
    setup_height: u64,
    clients: &HashMap<Address, u64>,
) -> (Vec<Transaction>, Vec<Request>) {
    let mut setup = Vec::new();
    let mut stream = Vec::new();
    for block in post_bootstrap_blocks(platform) {
        for tx in block.transactions {
            match clients.get(&tx.from) {
                Some(&client) if block.header.height > setup_height => stream.push(Request {
                    client,
                    kind: RequestKind::Write(Box::new(tx)),
                }),
                _ => setup.push(tx),
            }
        }
    }
    (setup, stream)
}

/// Schedules `workload`'s requests as an open-loop Poisson process at
/// `offered_tps` requests per second: exponential interarrival gaps,
/// cumulative logical timestamps. The schedule depends only on
/// `(workload.requests.len(), offered_tps, seed)` — not on how fast the
/// system under test drains it, which is what makes the loop open.
pub fn schedule(workload: &Workload, offered_tps: f64, seed: u64) -> Vec<Arrival> {
    assert!(offered_tps > 0.0, "offered rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_a221);
    let mut t = 0.0f64;
    workload
        .requests
        .iter()
        .enumerate()
        .map(|(index, _)| {
            // Inverse-CDF exponential draw; clamp the uniform away from 0
            // so ln() stays finite.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += -u.ln() / offered_tps;
            Arrival {
                at_ns: (t * 1e9) as u64,
                index,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_profile() -> LoadProfile {
        LoadProfile {
            submitters: 2,
            rankers: 4,
            readers: 2,
            seed_articles: 6,
            write_events: 40,
            read_events: 10,
            ..LoadProfile::default()
        }
    }

    #[test]
    fn workload_is_valid_platform_traffic() {
        let wl = build_workload(&PlatformConfig::default(), &small_profile());
        assert!(!wl.setup.is_empty(), "setup prefix");
        assert_eq!(wl.writes(), 40, "every event became a committed write");
        assert_eq!(wl.requests.len() - wl.writes(), 10, "reads");
        assert_eq!(wl.articles, 6);
        for req in &wl.requests {
            if let RequestKind::Write(tx) = &req.kind {
                assert!(tx.verify().is_ok(), "stream txs carry valid signatures");
                assert!(req.client >= 1);
            }
        }
    }

    #[test]
    fn per_client_write_order_is_nonce_order() {
        let wl = build_workload(&PlatformConfig::default(), &small_profile());
        let mut last: HashMap<u64, u64> = HashMap::new();
        for req in &wl.requests {
            if let RequestKind::Write(tx) = &req.kind {
                if let Some(prev) = last.insert(req.client, tx.nonce) {
                    assert!(tx.nonce > prev, "client {} regressed", req.client);
                }
            }
        }
    }

    #[test]
    fn same_profile_same_workload() {
        let a = build_workload(&PlatformConfig::default(), &small_profile());
        let b = build_workload(&PlatformConfig::default(), &small_profile());
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.client, y.client);
            match (&x.kind, &y.kind) {
                (RequestKind::Write(tx), RequestKind::Write(ty)) => assert_eq!(tx.id(), ty.id()),
                (RequestKind::Read { article: ax }, RequestKind::Read { article: ay }) => {
                    assert_eq!(ax, ay)
                }
                _ => panic!("request kinds diverged"),
            }
        }
    }

    #[test]
    fn schedule_is_monotone_open_loop_and_deterministic() {
        let wl = build_workload(&PlatformConfig::default(), &small_profile());
        let a = schedule(&wl, 500.0, 7);
        let b = schedule(&wl, 500.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), wl.requests.len());
        for w in a.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "arrivals are ordered");
        }
        // Mean interarrival ≈ 2 ms at 500 tps; the whole run of 50
        // requests should land within a loose [50 ms, 500 ms] band.
        let span = a.last().unwrap().at_ns;
        assert!(span > 50_000_000 && span < 500_000_000, "span {span}");
    }

    #[test]
    fn bot_clients_emit_more_traffic() {
        let profile = LoadProfile {
            submitters: 2,
            rankers: 10,
            readers: 0,
            bot_fraction: 0.4,
            write_events: 400,
            read_events: 0,
            ..LoadProfile::default()
        };
        let wl = build_workload(&PlatformConfig::default(), &profile);
        let mut per_client: HashMap<u64, usize> = HashMap::new();
        for req in &wl.requests {
            *per_client.entry(req.client).or_default() += 1;
        }
        let avg = |kind: AccountKind| -> f64 {
            let picked: Vec<_> = wl
                .clients
                .iter()
                .filter(|c| c.kind == kind && c.persona == Persona::Ranker)
                .map(|c| per_client.get(&c.id).copied().unwrap_or(0))
                .collect();
            if picked.is_empty() {
                f64::NAN
            } else {
                picked.iter().sum::<usize>() as f64 / picked.len() as f64
            }
        };
        let (bots, humans) = (avg(AccountKind::Bot), avg(AccountKind::Human));
        if bots.is_finite() && humans.is_finite() && humans > 0.0 {
            assert!(
                bots > humans * 1.5,
                "bots ({bots:.1}) should out-emit humans ({humans:.1})"
            );
        }
    }
}
