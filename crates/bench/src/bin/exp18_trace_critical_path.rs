//! E18: distributed tracing — causal per-tx traces across replicas,
//! Perfetto export, and the commit-latency critical path.
//!
//! A 4-replica PBFT cluster runs the scripted platform workload with
//! tracing on. Every replica records spans for the full transaction
//! lifecycle (mempool admission → consensus phases → pipeline commit →
//! verify/execute → per-projection apply) into per-replica ring buffers;
//! the merged trace is exported as Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and reduced to a per-stage breakdown of
//! commit latency plus the slowest causal chain.
//!
//! The experiment validates the three claims the tracing subsystem makes:
//!
//! - **Causality**: spans from ≥3 replicas share trace ids, and parent
//!   links (computed, never communicated) connect admission → commit →
//!   per-replica apply.
//! - **Attribution**: ≥95% of `pipeline.commit` time lands in named
//!   stages, not `(other)` (≥85% in the `--quick` smoke, whose 32
//!   one-transaction commits are ~40 µs each: the three span records
//!   written between `chain.propose` and `chain.import` are 2–4 µs of
//!   that, and one scheduler hiccup in a 1.5 ms window is several
//!   percent).
//! - **Cost**: the traced run's wall-time stays within a small factor of
//!   the untraced run (the criterion bench `consensus_round` measures the
//!   disabled-path overhead properly; this is a sanity bound).
//!
//! Run with `--quick` for a CI-sized smoke run.

use std::fs;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

use tn_bench::Experiment;
use tn_node::network::{run_pbft_cluster, ClusterConfig};
use tn_node::validator::{encode_payloads, ValidatorNode};
use tn_node::workload::scripted_workload;
use tn_trace::{span_id, Trace};

/// One reported measurement.
#[derive(Debug, Serialize)]
struct Row {
    /// Which part of the experiment the row belongs to.
    section: &'static str,
    /// Stage or metric name.
    label: String,
    /// Nanoseconds attributed (stage rows) or measured (timing rows).
    ns: u64,
    /// Share of the section total, `[0, 1]` (0 when not applicable).
    share: f64,
    /// Auxiliary count (spans, replicas, traces — per label).
    count: u64,
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

fn check_string(b: &[u8], i: usize) -> Result<usize, ()> {
    if b.get(i) != Some(&b'"') {
        return Err(());
    }
    let mut i = i + 1;
    while let Some(&c) = b.get(i) {
        match c {
            b'\\' => i += 2,
            b'"' => return Ok(i + 1),
            _ => i += 1,
        }
    }
    Err(())
}

/// Recursive-descent JSON value check; returns the index just past the
/// value. (The vendored `serde_json` is serialize-only, so the export
/// smoke check carries its own parser.)
fn check_value(b: &[u8], i: usize) -> Result<usize, ()> {
    let i = skip_ws(b, i);
    match b.get(i) {
        Some(b'{') => {
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b'}') {
                return Ok(i + 1);
            }
            loop {
                i = check_string(b, skip_ws(b, i))?;
                i = skip_ws(b, i);
                if b.get(i) != Some(&b':') {
                    return Err(());
                }
                i = skip_ws(b, check_value(b, i + 1)?);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return Ok(i + 1),
                    _ => return Err(()),
                }
            }
        }
        Some(b'[') => {
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b']') {
                return Ok(i + 1);
            }
            loop {
                i = skip_ws(b, check_value(b, i)?);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return Ok(i + 1),
                    _ => return Err(()),
                }
            }
        }
        Some(b'"') => check_string(b, i),
        Some(b't') if b[i..].starts_with(b"true") => Ok(i + 4),
        Some(b'f') if b[i..].starts_with(b"false") => Ok(i + 5),
        Some(b'n') if b[i..].starts_with(b"null") => Ok(i + 4),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let mut i = i + 1;
            while matches!(b.get(i), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                i += 1;
            }
            Ok(i)
        }
        _ => Err(()),
    }
}

/// True when `s` is a single well-formed JSON document.
fn json_is_well_formed(s: &str) -> bool {
    let b = s.as_bytes();
    match check_value(b, 0) {
        Ok(i) => skip_ws(b, i) == b.len(),
        Err(()) => false,
    }
}

/// Exports the merged trace and validates the JSON is well-formed,
/// non-empty, and carries spans from at least `min_replicas` replicas.
fn export_and_validate(trace: &Trace, path: &Path, min_replicas: usize) -> (usize, usize) {
    let json = trace.to_chrome_json();
    assert!(
        json_is_well_formed(&json),
        "exported chrome trace JSON must be well-formed"
    );
    let x_events = json.matches("\"ph\":\"X\"").count();
    assert!(x_events > 0, "exported trace must not be empty");
    // Export pids are replica ids; the span set drives both.
    let replicas = trace.replicas().len();
    assert!(
        replicas >= min_replicas,
        "expected spans from >= {min_replicas} replicas, got {replicas}"
    );
    if let Err(e) = fs::write(path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!(
            "[written {} — open in https://ui.perfetto.dev]",
            path.display()
        );
    }
    (x_events, replicas)
}

fn main() {
    let exp = Experiment::start(
        "E18",
        "Distributed tracing: causal cross-replica traces and the commit critical path",
    );

    let config = ClusterConfig {
        tracing: true,
        ..ClusterConfig::default()
    };
    let txs = scripted_workload(&config.platform);
    let workload = if exp.quick {
        &txs[..txs.len().min(12)]
    } else {
        &txs[..]
    };
    println!(
        "running 4-replica PBFT cluster, {} transactions, tracing on\n",
        workload.len()
    );

    // Untraced reference run for the wall-time sanity bound.
    let untraced_cfg = ClusterConfig {
        tracing: false,
        ..config.clone()
    };
    let started = Instant::now();
    let untraced = run_pbft_cluster(&untraced_cfg, workload).expect("untraced cluster");
    let untraced_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let run = run_pbft_cluster(&config, workload).expect("traced cluster");
    let traced_s = started.elapsed().as_secs_f64();

    assert!(run.is_consistent(), "traced replicas diverged");
    assert_eq!(
        run.agreed_digest(),
        untraced.agreed_digest(),
        "tracing must not change execution"
    );
    let trace = run.trace.as_ref().expect("tracing was enabled");
    println!(
        "collected {} spans from replicas {:?} ({} dropped)",
        trace.len(),
        trace.replicas(),
        trace.dropped
    );

    let mut rows: Vec<Row> = Vec::new();

    // Part A: Perfetto export.
    let out = exp.artifact_path("e18_trace.json");
    let (events, replicas) = export_and_validate(trace, &out, 3);
    let cross = trace.cross_replica_traces(3);
    assert!(
        !cross.is_empty(),
        "expected traces linking >= 3 replicas via shared trace ids"
    );
    println!(
        "export: {events} events, {replicas} replica tracks, {} traces span >= 3 replicas\n",
        cross.len()
    );
    rows.push(Row {
        section: "export",
        label: "chrome_trace_events".into(),
        ns: 0,
        share: 0.0,
        count: events as u64,
    });
    rows.push(Row {
        section: "export",
        label: "cross_replica_traces".into(),
        ns: 0,
        share: 0.0,
        count: cross.len() as u64,
    });

    // Causal lifecycle check: each committed tx has its once-per-cluster
    // admission and commit spans, linked, with per-replica applies.
    let applies = trace.named("tx.apply");
    for apply in &applies {
        assert_eq!(apply.parent, span_id(apply.trace, "tx.commit"));
    }
    println!(
        "lifecycle: {} tx.admission, {} tx.commit, {} tx.apply spans (parent links verified)\n",
        trace.named("tx.admission").len(),
        trace.named("tx.commit").len(),
        applies.len()
    );

    // Part B: commit-latency breakdown by stage.
    let breakdown = trace.commit_breakdown("pipeline.commit");
    print!("{}", breakdown.render_text());
    let coverage_floor = if exp.quick { 0.85 } else { 0.95 };
    assert!(
        breakdown.coverage() >= coverage_floor,
        "stage coverage {:.3} below {coverage_floor}",
        breakdown.coverage()
    );
    for (name, ns) in &breakdown.stages {
        rows.push(Row {
            section: "commit_breakdown",
            label: name.clone(),
            ns: *ns,
            share: *ns as f64 / breakdown.total_ns.max(1) as f64,
            count: breakdown.roots as u64,
        });
    }
    rows.push(Row {
        section: "commit_breakdown",
        label: "(other)".into(),
        ns: breakdown.other_ns,
        share: 1.0 - breakdown.coverage(),
        count: breakdown.roots as u64,
    });

    // Part C: the slowest causal chain.
    println!("\n{}", trace.critical_path_text("pipeline.commit"));
    for span in trace.critical_path("pipeline.commit") {
        rows.push(Row {
            section: "critical_path",
            label: format!("{} @r{}", span.name, span.replica),
            ns: span.dur_ns,
            share: 0.0,
            count: 1,
        });
    }

    // Part D: wall-time sanity bound (not a microbenchmark — see the
    // consensus_round criterion bench for the disabled-path overhead).
    let overhead = traced_s / untraced_s;
    println!("wall-time: untraced {untraced_s:.3} s, traced {traced_s:.3} s ({overhead:.3}x)");
    rows.push(Row {
        section: "overhead",
        label: "untraced_run".into(),
        ns: (untraced_s * 1e9) as u64,
        share: 1.0,
        count: workload.len() as u64,
    });
    rows.push(Row {
        section: "overhead",
        label: "traced_run".into(),
        ns: (traced_s * 1e9) as u64,
        share: overhead,
        count: trace.len() as u64,
    });

    // Part E: per-phase metric deltas — the telemetry counterpart of the
    // trace. Snapshot a node before one batch, apply it, and delta: only
    // the metrics that moved in the window remain.
    let mut node = ValidatorNode::new(0, &config.platform);
    for tx in workload {
        let _ = node.submit(tx.clone());
    }
    let baseline = node.metrics_snapshot();
    let batch = encode_payloads(&workload[..workload.len().min(8)]);
    node.apply_committed_batch(&batch).expect("batch applies");
    let delta = node.metrics_snapshot().delta(&baseline);
    println!("\nSnapshot::delta for one committed batch (metrics that moved):");
    for (name, v) in delta.counters.iter().take(10) {
        println!("  {name:<36} {v}");
    }
    assert_eq!(
        delta.counter("chain.blocks_imported"),
        Some(1),
        "the window covered exactly one block import"
    );

    println!();
    exp.report(
        "E18",
        "Distributed tracing: Perfetto export, commit-stage breakdown, critical path",
        &rows,
    );
}
