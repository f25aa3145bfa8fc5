//! Consensus benchmarks: full PBFT and PoA runs committing a fixed
//! request load on the discrete-event simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tn_consensus::fault::FaultPlan;
use tn_consensus::harness::{order_payloads_pbft_faulted, run_pbft, run_poa, RunStats, Workload};
use tn_consensus::pbft::PbftConfig;
use tn_consensus::sim::NetworkConfig;
use tn_monitor::MonitorConfig;
use tn_node::network::{run_pbft_cluster, ClusterConfig};
use tn_node::workload::scripted_workload;
use tn_telemetry::{Registry, TelemetrySink};
use tn_trace::{TraceSink, Tracer};

/// Full PBFT and PoA runs committing 50 requests at n = 4 and 7.
fn bench_commit(c: &mut Criterion) {
    let workload = Workload {
        n_requests: 50,
        interarrival: 5,
        payload_size: 64,
    };
    type Run = fn(usize, &[usize], &Workload, NetworkConfig, u64) -> RunStats;
    for (name, run) in [
        ("pbft_commit_50", run_pbft as Run),
        ("poa_commit_50", run_poa),
    ] {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        for n in [4usize, 7] {
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| {
                    let stats = run(n, &[], &workload, NetworkConfig::default(), 2_000_000);
                    assert_eq!(stats.committed, 50);
                })
            });
        }
        group.finish();
    }
}

/// The same fault-free 4-replica PBFT ordering run with every sink
/// disabled (the library default: a sink check is one `Option` test, so
/// this must match the uninstrumented baseline above), with per-replica
/// telemetry registries, and with span tracing into per-replica ring
/// buffers behind a shared tracer (should stay within ~10%).
fn bench_instrumentation_overhead(c: &mut Criterion) {
    let payloads: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 64]).collect();
    let n = 4usize;
    let order = |sinks: &[TelemetrySink], traces: &[TraceSink]| {
        let run = order_payloads_pbft_faulted(
            n,
            &payloads,
            5,
            NetworkConfig::default(),
            2_000_000,
            &PbftConfig::default(),
            &FaultPlan::default(),
            sinks,
            traces,
        )
        .expect("default network and empty plan are valid");
        let committed: usize = run.views[0].iter().map(Vec::len).sum();
        assert_eq!(committed, 50);
    };
    let mut group = c.benchmark_group("pbft_order_50_instrumentation");
    group.sample_size(10);
    group.bench_function("disabled", |b| b.iter(|| order(&[], &[])));
    group.bench_function("telemetry", |b| {
        b.iter(|| {
            let registries: Vec<Registry> = (0..n).map(|_| Registry::new()).collect();
            let sinks: Vec<TelemetrySink> = registries.iter().map(Registry::sink).collect();
            order(&sinks, &[]);
            assert_eq!(
                registries[0].snapshot().counter("pbft.requests_committed"),
                Some(50)
            );
        })
    });
    group.bench_function("tracing", |b| {
        // The tracer lives outside the measured loop: steady-state tracing
        // means recording into long-lived ring buffers (old spans evict),
        // not constructing and draining a tracer per consensus run.
        let tracer = Tracer::new(n);
        let traces: Vec<TraceSink> = (0..n).map(|i| tracer.sink(i)).collect();
        b.iter(|| order(&[], &traces));
        let trace = tracer.collect();
        assert!(!trace.named("pbft.commit_phase").is_empty());
    });
    group.finish();
}

/// The full 4-replica cluster run (consensus + per-replica execution)
/// with the health plane disabled and enabled. The monitor samples the
/// registry once per committed block and evaluates the built-in rule
/// set; the acceptance bar is ≤ 5% over the unmonitored run.
fn bench_monitor_overhead(c: &mut Criterion) {
    let disabled = ClusterConfig::default();
    let enabled = ClusterConfig {
        monitor: Some(MonitorConfig::default()),
        ..ClusterConfig::default()
    };
    let txs = scripted_workload(&disabled.platform);
    let mut group = c.benchmark_group("pbft_cluster_monitor");
    group.sample_size(10);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            let run = run_pbft_cluster(&disabled, &txs).expect("cluster");
            assert!(run.health.is_none());
        })
    });
    group.bench_function("enabled", |b| {
        b.iter(|| {
            let run = run_pbft_cluster(&enabled, &txs).expect("cluster");
            let health = run.health.expect("rollup");
            assert_eq!(health.replicas.len(), 4);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_commit, bench_instrumentation_overhead, bench_monitor_overhead
}
criterion_main!(benches);
