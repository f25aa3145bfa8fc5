//! Gateway + open-loop harness integration: the E21 determinism and
//! backpressure contracts, end to end.
//!
//! Two promises from `docs/ARCHITECTURE.md` are pinned here:
//!
//! 1. **Batch-size invariance.** Admission decisions are a pure function
//!    of (gateway config, arrival schedule); the ingest batch size only
//!    chunks the mempool hand-off. Replaying the same seed and schedule
//!    at any `ingest_batch` must yield the identical admit/shed verdict
//!    stream and byte-identical replica digests.
//! 2. **Explicit backpressure.** Bounded ingress lanes shed *new* work
//!    at the door with a verdict; work that was admitted is never
//!    silently dropped — every admitted transaction ends committed or
//!    visibly mempool-rejected, and nothing is left stranded.

use tn_core::platform::PlatformConfig;
use tn_gateway::{build_workload, run_open_loop, run_open_loop_on, LoadProfile, OpenLoopConfig};
use tn_node::validator::ValidatorNode;
use tn_trace::{span_id, TraceId, Tracer};

fn small_profile() -> LoadProfile {
    LoadProfile {
        submitters: 2,
        rankers: 5,
        readers: 2,
        seed_articles: 8,
        write_events: 80,
        read_events: 20,
        ..LoadProfile::default()
    }
}

#[test]
fn verdicts_and_digests_invariant_across_ingest_batch_sizes() {
    let base = PlatformConfig::default();
    let workload = build_workload(&base, &small_profile());
    let olc = OpenLoopConfig {
        offered_tps: 3_000.0,
        ..OpenLoopConfig::default()
    };

    let mut reference = None;
    for ingest_batch in [16usize, 128, 1_024] {
        let mut config = base.clone();
        config.gateway.ingest_batch = ingest_batch;
        let run = run_open_loop(&config, &workload, &olc).expect("run");
        assert!(run.report.committed > 0);
        let fingerprint = (run.verdicts, run.node.execution_digest());
        match &reference {
            None => reference = Some(fingerprint),
            Some(expected) => {
                assert_eq!(
                    expected.0, fingerprint.0,
                    "verdict stream changed at ingest_batch={ingest_batch}"
                );
                assert_eq!(
                    expected.1, fingerprint.1,
                    "replica digest changed at ingest_batch={ingest_batch}"
                );
            }
        }
    }
}

#[test]
fn backpressure_sheds_at_the_door_and_never_drops_admitted_work() {
    // Tight bounds + heavy overload: one lane of 24, a watermark of 8
    // (below the lane bound, so draining throttles while the lane still
    // holds work), the whole stream arriving at 50k requests/second.
    let mut config = PlatformConfig::default();
    config.gateway.workers = 1;
    config.gateway.queue_capacity = 24;
    config.gateway.mempool_watermark = 8;
    config.gateway.rate_per_client = 0; // isolate the queue-bound path
    let workload = build_workload(&config, &small_profile());
    let run = run_open_loop(
        &config,
        &workload,
        &OpenLoopConfig {
            offered_tps: 50_000.0,
            ..OpenLoopConfig::default()
        },
    )
    .expect("run");
    let r = &run.report;
    assert!(
        r.shed_queue_full > 0,
        "overload must hit the lane bound: {r:?}"
    );
    assert_eq!(
        r.writes_offered,
        r.admitted + r.shed_rate_limit + r.shed_queue_full,
        "every offered write gets exactly one verdict"
    );
    assert_eq!(
        r.admitted,
        r.committed + r.mempool_rejected,
        "admitted work is never silently dropped"
    );
    assert_eq!(r.stranded, 0, "shutdown leaves no wedged transactions");
    assert!(r.backpressure_ticks > 0, "watermark must gate draining");
}

#[test]
fn session_abort_keeps_nonce_chains_clean_under_shedding() {
    // Per-client rate limiting tight enough to shed mid-session: the
    // harness must abort those clients' later writes instead of letting
    // nonce holes wedge the mempool.
    let mut config = PlatformConfig::default();
    config.gateway.rate_per_client = 20;
    config.gateway.burst_per_client = 3;
    let workload = build_workload(&config, &small_profile());
    let run = run_open_loop(
        &config,
        &workload,
        &OpenLoopConfig {
            offered_tps: 10_000.0,
            ..OpenLoopConfig::default()
        },
    )
    .expect("run");
    let r = &run.report;
    assert!(r.shed_rate_limit > 0, "the bucket must shed: {r:?}");
    assert!(r.aborted > 0, "sheds mid-session must abort the session");
    assert_eq!(r.stranded, 0, "no nonce holes survive in the mempool");
    assert_eq!(r.admitted, r.committed + r.mempool_rejected);
}

#[test]
fn gateway_spans_link_admission_through_ingest_to_commit() {
    let config = PlatformConfig::default();
    let workload = build_workload(&config, &small_profile());
    let tracer = Tracer::new(1);
    let mut node = ValidatorNode::new(0, &config);
    node.set_trace(tracer.sink(0));
    let telemetry = node.telemetry_sink();
    let run = run_open_loop_on(
        node,
        &config.gateway,
        telemetry,
        tracer.sink(0),
        &workload,
        &OpenLoopConfig {
            offered_tps: 2_000.0,
            ..OpenLoopConfig::default()
        },
        &mut |_| {},
    )
    .expect("run");
    assert!(run.report.committed > 0);

    let trace = tracer.collect();
    let committed_tx = run.node.pipeline().store().head().transactions[0].id();
    let tx_trace = TraceId::from_seed(committed_tx.as_bytes());
    let of = |name: &str| {
        trace
            .spans
            .iter()
            .find(|s| s.trace == tx_trace && s.name == name)
            .unwrap_or_else(|| panic!("missing {name} span for committed tx"))
    };
    let admission = of("gateway.admission");
    assert_eq!(admission.parent, 0, "front-door span is the trace root");
    let ingest = of("gateway.ingest");
    assert_eq!(
        ingest.parent,
        span_id(tx_trace, "gateway.admission"),
        "ingest parents under the admission span by recomputed id"
    );
    let commit = of("tx.commit");
    assert_eq!(commit.trace, tx_trace, "commit joins the same causal trace");
}

#[test]
fn gateway_counters_land_in_the_node_registry() {
    let config = PlatformConfig::default();
    let workload = build_workload(&config, &small_profile());
    let run = run_open_loop(
        &config,
        &workload,
        &OpenLoopConfig {
            offered_tps: 1_000.0,
            ..OpenLoopConfig::default()
        },
    )
    .expect("run");
    let snapshot = run.node.metrics_snapshot();
    assert_eq!(
        snapshot.counter("gateway.offered"),
        Some(run.report.writes_offered),
        "gateway.* metrics share the node's registry"
    );
    assert_eq!(
        snapshot.counter("gateway.admitted"),
        Some(run.report.admitted)
    );
    assert!(
        snapshot.counter("gateway.ingest.batches").unwrap_or(0) > 0,
        "drain ticks count ingest batches"
    );
    assert!(
        snapshot.histogram("gateway.ingest.batch_size").is_some(),
        "batch sizes are observed as a histogram"
    );
}
