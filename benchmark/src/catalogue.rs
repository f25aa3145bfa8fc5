//! The metric and workload catalogue: every name the benchmark prints,
//! with its unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` at the repo root carries the same catalogue; a unit
//! test keeps the two in step.

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0 for per-layer
    /// metrics, which carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "door_single",
        "closed loop of full blocks through the gateway on one validator: admission signature checks dominate, state stays tiny",
    ),
    (
        "wide_state",
        "transfers to fresh accounts grow the account table by one per tx: the only workload where O(state)-per-block costs show",
    ),
    (
        "cluster_pbft4",
        "4-replica PBFT over a simulated 10+5-tick network: the only path with ordering, four admissions and four one-tx applies per tx",
    ),
    (
        "reader_mix",
        "Platform facade extending provenance chains to depth 48 with rank/trace/expert reads between blocks: reads beside writes",
    ),
];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them; each timing is the trimmed mean over the
/// run's rounds of the round's own value (for a `p50`, the round's median).
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("commit_tps", "1/s", Higher, 0.25),
    e2e("commit_p50_ms", "ms", Lower, 0.25),
    e2e("block_commit_p50_ms", "ms", Lower, 0.25),
    e2e("sync_tps", "1/s", Higher, 0.25),
    e2e("recover_ms", "ms", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics; layer names are the crates. A traced run reports
/// every one; a metric a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 62] = [
    // gateway
    layer("gateway.offer_ns_per_req", "ns", Lower),
    layer("gateway.drain_self_us_per_tx", "us", Lower),
    layer("gateway.queue_wait_p50_ms", "ms", Lower),
    layer("gateway.shed_share", "ratio", Lower),
    layer("gateway.backpressure_ticks", "count", Lower),
    // chain
    layer("chain.admit_us_per_tx", "us", Lower),
    layer("chain.select_us_per_block", "us", Lower),
    layer("chain.propose_us_per_tx", "us", Lower),
    layer("chain.import_us_per_tx", "us", Lower),
    layer("chain.verify_us_per_tx", "us", Lower),
    layer("chain.state_root_us", "us", Lower),
    layer("chain.state_clone_us", "us", Lower),
    layer("chain.block_commit_growth", "ratio", Lower),
    layer("chain.sigcache_hit_share", "ratio", Higher),
    layer("chain.batch_verified_share", "ratio", Higher),
    layer("chain.tx_encode_ns", "ns", Lower),
    layer("chain.tx_decode_ns", "ns", Lower),
    // crypto
    layer("crypto.sign_us", "us", Lower),
    layer("crypto.verify_us", "us", Lower),
    layer("crypto.verify_batch_us_per_sig", "us", Lower),
    layer("crypto.sha256_ns_per_byte", "ns", Lower),
    layer("crypto.merkle_us_per_leaf", "us", Lower),
    // core
    layer("core.block_commit_us_per_tx", "us", Lower),
    layer("core.projection_us_per_tx.supplychain", "us", Lower),
    layer("core.projection_us_per_tx.factdb", "us", Lower),
    layer("core.projection_us_per_tx.identity", "us", Lower),
    layer("core.projection_us_per_tx.headlines", "us", Lower),
    layer("core.execution_digest_ms", "ms", Lower),
    layer("core.verify_replay_s", "s", Lower),
    layer("core.platform_publish_us", "us", Lower),
    // contracts
    layer("contracts.exec_us_per_call", "us", Lower),
    layer("contracts.gas_per_call", "gas", Lower),
    layer("contracts.call_fail_share", "ratio", Lower),
    // consensus
    layer("consensus.order_wall_s", "s", Lower),
    layer("consensus.msgs_per_commit", "count", Lower),
    layer("consensus.ops_per_batch", "count", Higher),
    layer("consensus.request_latency_p50_ticks", "ticks", Lower),
    layer("consensus.request_latency_p99_ticks", "ticks", Lower),
    layer("consensus.view_changes", "count", Lower),
    layer("consensus.dropped_msgs", "count", Lower),
    layer("consensus.converge_ticks", "ticks", Lower),
    layer("consensus.failover_ticks", "ticks", Lower),
    layer("consensus.failover_extra_ticks", "ticks", Lower),
    // node
    layer("node.admit_all_replicas_s", "s", Lower),
    layer("node.apply_batch_us_per_tx", "us", Lower),
    layer("node.apply_batch_us_per_block", "us", Lower),
    layer("node.snapshot_ms", "ms", Lower),
    layer("node.recover_s", "s", Lower),
    layer("node.catchup_us_per_tx", "us", Lower),
    layer("node.lost_writes", "count", Lower),
    layer("node.commit_p90_ms", "ms", Lower),
    layer("node.block_commit_p90_ms", "ms", Lower),
    layer("node.read_p90_us", "us", Lower),
    // supplychain
    layer("supplychain.rank_item_us_p50.depth8", "us", Lower),
    layer("supplychain.rank_item_us_p50.depth48", "us", Lower),
    layer("supplychain.trace_back_us_p50", "us", Lower),
    layer("supplychain.culprit_us_p50", "us", Lower),
    layer("supplychain.experts_ms", "ms", Lower),
    layer("supplychain.graph_digest_ms", "ms", Lower),
    // driver (the benchmark itself)
    layer("driver.gen_s", "s", Lower),
    layer("driver.ledger_coverage", "ratio", Higher),
    layer("driver.trace_overhead_pct", "%", Lower),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// True when `name` is one of the workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` must list exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((s(got, "name"), s(got, "why")), (name.into(), why.into()));
            assert_eq!(got.as_object().map(<[_]>::len), Some(2));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
            assert_eq!(got.as_object().map(<[_]>::len), Some(4));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.as_str());
            assert_eq!(got.as_object().map(<[_]>::len), Some(3));
        }
        let secs = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("run_seconds");
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        assert_eq!(list("paths"), vec![Value::Str("benchmark".into())]);
        assert!(text.len() <= 64 * 1024);
    }
}
