//! Pins the ordering harness to exact simulator outcomes.
//!
//! The constants below were captured from the hand-written PBFT and PoA
//! ordering bodies before they were merged into one protocol-generic
//! kernel; any refactor of `tn_consensus::harness` must reproduce them
//! tick for tick (the simulator is seeded, so every value is exact).

use tn_consensus::fault::{CrashFault, FaultPlan};
use tn_consensus::harness::{
    order_payloads_pbft_faulted, order_payloads_poa_faulted, run_pbft, run_poa, OrderingRun,
    Workload,
};
use tn_consensus::pbft::PbftConfig;
use tn_consensus::sim::NetworkConfig;

const N: usize = 4;

/// `(committed on the reference replica, last_commit, delivered, exec digest)`.
type Pin = (usize, u64, u64, &'static str);

fn payloads() -> Vec<Vec<u8>> {
    (0u8..40).map(|i| vec![i; 16]).collect()
}

/// The three pinned fault plans and the replica each is observed on.
fn plans() -> [(&'static str, FaultPlan, usize); 3] {
    [
        ("fault-free", FaultPlan::default(), 0),
        (
            "crash-0@100",
            FaultPlan {
                crashes: vec![CrashFault {
                    replica: 0,
                    at: 100,
                    restart_at: None,
                }],
                ..FaultPlan::default()
            },
            1,
        ),
        (
            "3-corrupt",
            FaultPlan {
                corrupt_payloads: 3,
                ..FaultPlan::default()
            },
            0,
        ),
    ]
}

fn observe(run: &OrderingRun, reference: usize) -> (usize, u64, u64, String) {
    (
        run.views[reference].iter().map(Vec::len).sum(),
        run.last_commit,
        run.delivered,
        run.exec_digests[reference].to_hex(),
    )
}

fn check(protocol: &str, name: &str, got: (usize, u64, u64, String), want: Pin) {
    assert_eq!(
        (got.0, got.1, got.2, got.3.as_str()),
        want,
        "{protocol}/{name} drifted from the pinned run"
    );
}

#[test]
fn pbft_ordering_is_pinned() {
    const PINS: [Pin; 3] = [
        (
            40,
            241,
            1024,
            "c2cb9efc48b245887df9a913621fdac9919c8ee4cbcc2535602bc7c1d924ddbb",
        ),
        (
            38,
            788,
            402,
            "0013ac7f2923a63844a2fa57db3453a4e153aae27568c08872b7fbdc44785760",
        ),
        (
            43,
            256,
            1108,
            "c995187127bd7a9f4df08149fd8da1b1077bedcf481d7eaf9afe2f6ac348d3d0",
        ),
    ];
    for ((name, plan, reference), want) in plans().into_iter().zip(PINS) {
        let run = order_payloads_pbft_faulted(
            N,
            &payloads(),
            5,
            NetworkConfig::default(),
            500_000,
            &PbftConfig::default(),
            &plan,
            &[],
            &[],
        )
        .expect("valid inputs");
        check("pbft", name, observe(&run, reference), want);
    }
}

#[test]
fn poa_ordering_is_pinned() {
    const PINS: [Pin; 3] = [
        (
            40,
            265,
            175,
            "a2026649350aea7df7faeb46bc5f91975d8573104e2afb7494d603ef34c67440",
        ),
        (
            40,
            313,
            149,
            "a2026649350aea7df7faeb46bc5f91975d8573104e2afb7494d603ef34c67440",
        ),
        (
            43,
            265,
            187,
            "9d9bc19df85667a00c37bab9ba8580a8f19d4a609bfbc1a479194eccced5327c",
        ),
    ];
    for ((name, plan, reference), want) in plans().into_iter().zip(PINS) {
        let run = order_payloads_poa_faulted(
            N,
            &payloads(),
            5,
            NetworkConfig::default(),
            500_000,
            &plan,
            &[],
            &[],
        )
        .expect("valid inputs");
        check("poa", name, observe(&run, reference), want);
    }
}

/// `run_pbft` / `run_poa` derive their statistics from the same kernel;
/// pin the tick-domain fields for a crashed-replica run of each.
#[test]
fn run_stats_are_pinned() {
    let load = Workload {
        n_requests: 50,
        interarrival: 5,
        payload_size: 32,
    };
    let pbft = run_pbft(7, &[5, 6], &load, NetworkConfig::default(), 500_000);
    assert_eq!(
        (
            pbft.committed,
            pbft.duration,
            pbft.p50_latency,
            pbft.p95_latency,
            pbft.messages
        ),
        (50, 295, 42, 50, 3110),
        "run_pbft drifted"
    );
    let poa = run_poa(4, &[3], &load, NetworkConfig::default(), 500_000);
    assert_eq!(
        (
            poa.committed,
            poa.duration,
            poa.p50_latency,
            poa.p95_latency,
            poa.messages
        ),
        (50, 315, 35, 85, 160),
        "run_poa drifted"
    );
}
