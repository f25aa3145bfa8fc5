//! Seeded input generation. Everything the program under test receives
//! is made here from `--seed` and handed over as plain data; nothing is
//! cached on disk.

use tn_chain::prelude::*;
use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Keypair};
use tn_gateway::{build_workload, LoadProfile, Request, RequestKind, Workload};
use tn_node::extract_post_bootstrap;

/// SplitMix64: small, seedable, and good enough to pick actors and items.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; distinct `(seed, stream)` pairs give
    /// independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF on a cumulative
/// table; rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty catalogue");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// `PlatformConfig::default()` with the per-client rate limiter off, so
/// the door never rate-limits an engine-bound run.
pub fn engine_config() -> PlatformConfig {
    let mut config = PlatformConfig::default();
    config.gateway.rate_per_client = 0;
    config
}

/// The persona stream of `tn_gateway::build_workload` (default mix: 6
/// submitters, 18 rankers, 12 readers, 20 % bots, Zipf 1.0 over 24 seed
/// articles) with `writes` ledger writes and `reads` interleaved reads.
pub fn persona(config: &PlatformConfig, seed: u64, writes: usize, reads: usize) -> Workload {
    build_workload(
        config,
        &LoadProfile {
            write_events: writes,
            read_events: reads,
            seed,
            ..LoadProfile::default()
        },
    )
}

/// The ledger writes of a persona stream, in stream order.
pub fn writes_of(requests: &[Request]) -> Vec<Transaction> {
    requests
        .iter()
        .filter_map(|r| match &r.kind {
            RequestKind::Write(tx) => Some((**tx).clone()),
            RequestKind::Read { .. } => None,
        })
        .collect()
}

/// Cuts everything after the first `writes` ledger writes off the stream
/// and returns the writes among what was cut: a spare block, valid against
/// the head the measured stream leaves, for a traced run's probes.
pub fn split_spare(requests: &mut Vec<Request>, writes: usize) -> Vec<Transaction> {
    let mut seen = 0;
    let cut = requests
        .iter()
        .position(|r| {
            seen += usize::from(matches!(r.kind, RequestKind::Write(_)));
            seen > writes
        })
        .unwrap_or(requests.len());
    let spare = writes_of(&requests[cut..]);
    requests.truncate(cut);
    spare
}

/// Inputs of `wide_state`: a setup prefix that funds the signers, then
/// one-token transfers to fresh addresses.
#[derive(Debug)]
pub struct WideInputs {
    /// Platform configuration (`identity_grant` raised to 10 M tokens).
    pub config: PlatformConfig,
    /// Registration and funding transactions, applied before timing.
    pub setup: Vec<Transaction>,
    /// The transfers, round-robin over the signers, nonce-ordered.
    pub transfers: Vec<Transaction>,
    /// Recipient of `transfers[i]`.
    pub recipients: Vec<Address>,
}

/// Number of funded signers in `wide_state`.
pub const WIDE_SIGNERS: usize = 8;

/// Builds the `wide_state` inputs: [`WIDE_SIGNERS`] identities registered
/// through a scripted `Platform` session, then `n` signed transfers.
pub fn wide_state(seed: u64, n: usize) -> WideInputs {
    let mut config = engine_config();
    config.identity_grant = 10_000_000;
    let keys: Vec<Keypair> = (0..WIDE_SIGNERS)
        .map(|i| Keypair::from_seed(format!("tn-benchmark/wide/{seed}/{i}").as_bytes()))
        .collect();
    let mut session = Platform::new(config.clone());
    for (i, key) in keys.iter().enumerate() {
        session
            .register_identity(key, &format!("Wide signer {i}"), &[Role::Consumer])
            .expect("generator-controlled registration");
    }
    session.produce_block().expect("funding block");
    let setup = extract_post_bootstrap(&session);
    let mut nonces: Vec<u64> = keys
        .iter()
        .map(|k| session.store().head_state().nonce(&k.address()))
        .collect();
    let mut transfers = Vec::with_capacity(n);
    let mut recipients = Vec::with_capacity(n);
    for i in 0..n {
        let s = i % WIDE_SIGNERS;
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&seed.to_le_bytes());
        tag[8..].copy_from_slice(&(i as u64).to_le_bytes());
        let to = Address::from_hash(tagged_hash("tn-benchmark/fresh-account", &tag));
        transfers.push(Transaction::signed(
            &keys[s],
            nonces[s],
            config.fee,
            Payload::Transfer { to, amount: 1 },
        ));
        nonces[s] += 1;
        recipients.push(to);
    }
    WideInputs {
        config,
        setup,
        transfers,
        recipients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_zipf_are_deterministic_and_skewed() {
        let mut a = Rng::new(21, 1);
        let mut b = Rng::new(21, 1);
        let mut c = Rng::new(21, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        let zipf = Zipf::new(24, 1.0);
        let mut hits = [0usize; 24];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut a)] += 1;
        }
        assert!(hits[0] > 2 * hits[3] && hits[3] > hits[23], "{hits:?}");
        assert!((0..1000).all(|_| a.below(7) < 7));
    }

    #[test]
    fn persona_stream_is_deterministic_per_seed() {
        let config = engine_config();
        let wl = persona(&config, 5, 40, 13);
        let again = persona(&config, 5, 40, 13);
        assert_eq!(wl.requests.len(), again.requests.len());
        let ids = |w: &Workload| -> Vec<_> {
            writes_of(&w.requests).iter().map(Transaction::id).collect()
        };
        assert_eq!(ids(&wl), ids(&again));
        assert_ne!(ids(&wl), ids(&persona(&config, 6, 40, 13)));
    }

    #[test]
    fn wide_state_inputs_are_valid_and_repeatable() {
        let a = wide_state(3, 20);
        let b = wide_state(3, 20);
        assert_eq!(a.transfers.len(), 20);
        assert!(a.transfers.iter().all(|tx| tx.verify().is_ok()));
        let ids = |w: &WideInputs| -> Vec<_> { w.transfers.iter().map(Transaction::id).collect() };
        assert_eq!(ids(&a), ids(&b));
        assert_ne!(a.recipients, wide_state(4, 20).recipients);
        let distinct: std::collections::HashSet<_> = a.recipients.iter().collect();
        assert_eq!(distinct.len(), 20);
    }
}
