//! Scenario definitions more than one experiment runs: the E19 fault
//! matrix (re-run under the monitor by E23), the E21 open-loop sweep
//! configuration (re-run with the shed SLO attached by E23), the
//! per-item factualness signals E3 ranks by and E14 ablates, the
//! single-chain block fixture of the verification experiments and
//! benches, the state-scaling fixture E15 and the `state_scale` bench
//! share, and the scratch-directory guard of the disk-backed experiments.

use std::path::PathBuf;

use tn_aidetect::corpus::{generate_news_corpus, NewsCorpusConfig};
use tn_aidetect::ensemble::EnsembleDetector;
use tn_aidetect::lexicon::LexiconFeatures;
use tn_chain::prelude::*;
use tn_consensus::fault::{CrashFault, DropWindow, FaultPlan, PartitionFault};
use tn_consensus::pbft::ByzMode;
use tn_consensus::poa::PoaMode;
use tn_core::platform::PlatformConfig;
use tn_crypto::sha256::sha256;
use tn_crypto::{Address, Hash256, Keypair};
use tn_gateway::{build_workload, LoadProfile, OpenLoopConfig, Workload};
use tn_supplychain::graph::TraceResult;
use tn_supplychain::ranking::trace_score;
use tn_supplychain::synth::{generate, SynthChain, SynthConfig};

/// A named fault scenario of the E19 matrix, with per-protocol plans
/// (byzantine modes are protocol-specific; everything else is shared).
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Scenario name (the `scenario` column of E19 and E23).
    pub name: &'static str,
    /// Included in `--quick` smoke runs.
    pub quick: bool,
    /// The plan for a 4-replica PBFT cluster, when the scenario applies.
    pub pbft: Option<FaultPlan>,
    /// The plan for a 4-validator PoA cluster, when the scenario applies.
    pub poa: Option<FaultPlan>,
}

fn crash(replica: usize, at: u64, restart_at: Option<u64>) -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashFault {
            replica,
            at,
            restart_at,
        }],
        ..FaultPlan::default()
    }
}

/// The ten fault scenarios of E19, for a 4-replica cluster (`f = 1`).
pub fn fault_matrix() -> Vec<FaultScenario> {
    let both = |name, quick, plan: FaultPlan| FaultScenario {
        name,
        quick,
        pbft: Some(plan.clone()),
        poa: Some(plan),
    };
    let corrupt_exec = |replicas: &[usize]| FaultPlan {
        byz_modes: replicas
            .iter()
            .map(|&r| (r, ByzMode::CorruptExec))
            .collect(),
        ..FaultPlan::default()
    };
    vec![
        both("baseline", true, FaultPlan::default()),
        // Crash a backup/follower: within f.
        both("crash-backup", true, crash(3, 100, None)),
        // Crash replica 0: the view-0 PBFT primary (forces a view change)
        // and the slot-0 PoA leader (its slots go unfilled).
        both("crash-primary", false, crash(0, 100, None)),
        // Crash then restart: the revived replica goes through snapshot
        // restore + state-sync catch-up at the node layer.
        both("crash-revive", true, crash(2, 100, Some(100_000))),
        // Two-two partition, healed while requests are still pending.
        both(
            "partition-heal",
            false,
            FaultPlan {
                partitions: vec![PartitionFault {
                    at: 50,
                    groups: vec![vec![0, 1], vec![2, 3]],
                    heal_at: Some(2_000),
                }],
                ..FaultPlan::default()
            },
        ),
        // One equivocator: the PBFT primary sends conflicting batches, the
        // PoA leader sends different batches to different followers.
        FaultScenario {
            name: "byz-equivocate",
            quick: false,
            pbft: Some(FaultPlan {
                byz_modes: vec![(0, ByzMode::EquivocatingPrimary)],
                ..FaultPlan::default()
            }),
            poa: Some(FaultPlan {
                poa_modes: vec![(0, PoaMode::EquivocatingLeader)],
                ..FaultPlan::default()
            }),
        },
        // Corrupt execution within f: consensus-level digests agree, but
        // the replica's node-level state forks off the agreed chain.
        FaultScenario {
            name: "corrupt-exec-1",
            quick: true,
            pbft: Some(corrupt_exec(&[3])),
            poa: None,
        },
        // Corrupt execution beyond f: no 2f+1 digest quorum can form — the
        // cluster must *detect* the divergence, not panic.
        FaultScenario {
            name: "corrupt-exec-2",
            quick: true,
            pbft: Some(corrupt_exec(&[2, 3])),
            poa: None,
        },
        // A window of heavy random loss while the workload is in flight.
        // The base NetworkConfig (seeded rng) stays identical across
        // scenarios so every difference is attributable to the fault plan.
        both(
            "drop-window-0.3",
            false,
            FaultPlan {
                drop_windows: vec![DropWindow {
                    from: 100,
                    until: 600,
                    drop_prob: 0.3,
                }],
                ..FaultPlan::default()
            },
        ),
        // Undecodable payloads injected into the request stream: consensus
        // orders them, execution counts and skips them identically
        // everywhere.
        both(
            "corrupt-payloads",
            true,
            FaultPlan {
                corrupt_payloads: 3,
                ..FaultPlan::default()
            },
        ),
    ]
}

/// The platform and persona workload of the E21 open-loop sweep.
///
/// A generous per-client rate so the sweep probes the *door's* saturation
/// behaviour (queue bounds + watermark backpressure), not the per-client
/// token bucket; the bucket still guards against one runaway client. The
/// ingress lanes and mempool watermark are deliberately tight so the
/// overload half of the sweep exercises bounded-queue shedding rather than
/// buffering the whole burst. `quick` shrinks the persona population to a
/// CI-sized stream.
pub fn open_loop_sweep(quick: bool) -> (PlatformConfig, Workload) {
    let mut config = PlatformConfig::default();
    config.gateway.rate_per_client = 5_000;
    config.gateway.burst_per_client = 500;
    config.gateway.queue_capacity = 256;
    config.gateway.mempool_watermark = 1_024;
    let profile = if quick {
        LoadProfile {
            submitters: 2,
            rankers: 4,
            readers: 2,
            seed_articles: 6,
            write_events: 80,
            read_events: 20,
            ..LoadProfile::default()
        }
    } else {
        LoadProfile {
            write_events: 3_000,
            read_events: 1_000,
            ..LoadProfile::default()
        }
    };
    let workload = build_workload(&config, &profile);
    (config, workload)
}

/// The sweep's open-loop parameters at one offered rate: 20 ms block
/// ticks capped at 256 transactions per block give the run a hard
/// *configured* drain ceiling of 12.8k tx/s — a constant of the harness,
/// not a limit of the engine — so the top of the sweep is guaranteed to
/// sit past it and the plateau + shed behaviour is visible in the
/// recorded points.
pub fn sweep_olc(offered_tps: f64) -> OpenLoopConfig {
    OpenLoopConfig {
        offered_tps,
        block_max_txs: 256,
        ..OpenLoopConfig::default()
    }
}

/// The per-item factualness signals of the 600-item synthetic supply
/// chain: what E3 evaluates as rankers and E14(a) re-mixes. All vectors
/// are parallel, one entry per generated item with ground truth.
#[derive(Debug)]
pub struct ProvenanceSignals {
    /// The synthetic chain (graph + ground truth).
    pub synth: SynthChain,
    /// Every item's trace-back result, in graph order.
    pub traces: Vec<(Hash256, TraceResult)>,
    /// Item ids.
    pub ids: Vec<Hash256>,
    /// Ground truth: the item is fake.
    pub is_fake: Vec<bool>,
    /// Provenance signal (trace distance × modification degree).
    pub trace_scores: Vec<f64>,
    /// AI content signal (ensemble detector's probability factual).
    pub ai_scores: Vec<f64>,
    /// The item's *text* looks clean to the lexicon heuristic — fakes
    /// with clean text are the camouflaged ones content-only detection
    /// misses.
    pub text_clean: Vec<bool>,
}

impl ProvenanceSignals {
    /// Generates the chain, trains the detector on the default news
    /// corpus, and scores every item.
    pub fn collect() -> ProvenanceSignals {
        let synth = generate(&SynthConfig {
            n_fact_roots: 60,
            n_honest: 25,
            n_fakers: 6,
            n_items: 600,
            seed: 17,
        });
        let detector = EnsembleDetector::train(&generate_news_corpus(&NewsCorpusConfig::default()));
        let traces = synth.graph.trace_all();
        let (mut ids, mut is_fake) = (Vec::new(), Vec::new());
        let (mut trace_scores, mut ai_scores, mut text_clean) =
            (Vec::new(), Vec::new(), Vec::new());
        for (id, trace) in &traces {
            let Some(truth) = synth.truth.get(id) else {
                continue;
            };
            let content = &synth.graph.get(id).expect("in graph").content;
            ids.push(*id);
            is_fake.push(truth.is_fake);
            trace_scores.push(trace_score(trace));
            ai_scores.push(detector.prob_factual(content));
            text_clean.push(LexiconFeatures::extract(content).heuristic_score() < 0.35);
        }
        ProvenanceSignals {
            synth,
            traces,
            ids,
            is_fake,
            trace_scores,
            ai_scores,
            text_clean,
        }
    }
}

/// A fresh chain whose genesis funds `signers` keys, plus `txs` signed
/// 128-byte news-publish blobs spread round-robin over them — the block
/// shape E17, E22 and the verification benches measure.
#[derive(Debug)]
pub struct BlobChain {
    /// The store, at genesis.
    pub store: ChainStore,
    /// The block proposer.
    pub validator: Keypair,
    /// The signed transactions, in nonce order per signer.
    pub txs: Vec<Transaction>,
}

impl BlobChain {
    /// Keys are derived from `tag`, so experiments do not share signers.
    pub fn new(tag: &str, txs: usize, signers: usize) -> BlobChain {
        let keys: Vec<Keypair> = (0..signers.max(1))
            .map(|i| Keypair::from_seed(format!("{tag} signer {i}").as_bytes()))
            .collect();
        let validator = Keypair::from_seed(format!("{tag} validator").as_bytes());
        let genesis = State::genesis(keys.iter().map(|k| (k.address(), 1_000_000)));
        let txs = (0..txs)
            .map(|i| {
                Transaction::signed(
                    &keys[i % keys.len()],
                    (i / keys.len()) as u64,
                    1,
                    Payload::Blob {
                        tag: blob_tags::NEWS_PUBLISH,
                        data: vec![0u8; 128],
                    },
                )
            })
            .collect();
        BlobChain {
            store: ChainStore::new(genesis, &validator),
            validator,
            txs,
        }
    }

    /// The height-1 block holding every transaction, proposed but not
    /// imported.
    pub fn block(self) -> Block {
        self.store
            .propose(&self.validator, 1, self.txs, &mut NoExecutor)
    }
}

/// Account-table sizes of the state-scaling sweep.
pub const STATE_SCALE_SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// A state of a given size and the block the state-scaling sweep applies
/// to it: the `wide_state` benchmark's block shape (8 signers, 128
/// one-token transfers to accounts that do not exist yet) on a table that
/// is as large as asked from the start.
#[derive(Debug)]
pub struct StateScale {
    /// The table: `accounts` hash-derived addresses holding one token
    /// each, plus the eight funded signers. Its root is already computed,
    /// as a head state's is.
    pub state: State,
    block: Vec<Transaction>,
    proposer: Address,
    page: Vec<Address>,
}

impl StateScale {
    /// Builds the table and signs the block.
    pub fn new(accounts: usize) -> StateScale {
        let holder = |i: usize| Address::from_hash(sha256(format!("holder {i}").as_bytes()));
        let signers: Vec<Keypair> = (0..8)
            .map(|i| Keypair::from_seed(format!("state-scale signer {i}").as_bytes()))
            .collect();
        let state = State::genesis(
            (0..accounts)
                .map(|i| (holder(i), 1))
                .chain(signers.iter().map(|k| (k.address(), 1_000_000))),
        );
        state.root();
        let block = (0..128)
            .map(|i| {
                let to = Address::from_hash(sha256(format!("fresh {i}").as_bytes()));
                let payload = Payload::Transfer { to, amount: 1 };
                Transaction::signed(&signers[i % 8], (i / 8) as u64, 1, payload)
            })
            .collect();
        StateScale {
            state,
            block,
            proposer: Keypair::from_seed(b"state-scale proposer").address(),
            page: (0..16).map(|i| holder(i * (accounts / 16))).collect(),
        }
    }

    /// Applies the block to `state` (a clone of [`StateScale::state`]).
    ///
    /// # Panics
    ///
    /// When `state` is not such a clone and refuses a transfer.
    pub fn apply_block(&self, mut state: State) -> State {
        for tx in &self.block {
            state
                .apply_prechecked(tx, &self.proposer, &mut NoExecutor)
                .expect("scripted transfer applies");
        }
        state
    }

    /// One account page: sixteen balances spread over the table.
    pub fn read_page(&self, state: &State) -> u64 {
        self.page.iter().map(|a| state.balance(a)).sum()
    }

    /// An address the table holds and one it does not.
    pub fn probe_addresses(&self) -> (Address, Address) {
        let absent = Address::from_hash(sha256(b"state-scale: nobody"));
        (self.page[1], absent)
    }
}

/// Scratch directory under the OS temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// A fresh, not-yet-created directory path unique to this process and
    /// `tag`; anything a previous run left there is removed.
    pub fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("tn-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
