//! The suite: every workload, several repetitions, each run in a child
//! process of its own (so `peak_rss_mb` is that run's high-water mark and
//! nothing is shared between runs), aggregated to medians and quartiles.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::catalogue::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::stats;
use crate::{Args, RUN_SECONDS};

/// What one child run reported.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    digest: String,
    counts: Vec<(String, f64)>,
    failed_checks: Vec<String>,
}

fn run_child(args: &Args, workload: &str, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&args.scratch)
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result_line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| {
            format!(
                "{workload}: child printed nothing (status {}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?;
    let result = json::parse(result_line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .map(json::parse)
        .transpose()
        .map_err(|e| format!("{workload}: detail line: {e}"))?
        .unwrap_or(Value::Null);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{workload}: result has no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let num = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildRun {
        correct: result
            .get("correct")
            .and_then(Value::as_bool)
            .unwrap_or(false)
            && output.status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
        digest: detail
            .get("digest")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        counts: detail
            .get("counts")
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default(),
        failed_checks: detail
            .get("failed_checks")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Resolved verify-worker count of a default-configured node.
fn verify_workers() -> usize {
    tn_node::ValidatorNode::new(0, &crate::inputs::engine_config())
        .pipeline()
        .store()
        .verify_pool()
        .workers()
}

/// The machine block recorded with every result file.
pub fn machine_block() -> Value {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    Value::object([
        ("os", Value::Str(std::env::consts::OS.into())),
        ("arch", Value::Str(std::env::consts::ARCH.into())),
        ("cpus", Value::Num(cpus as f64)),
        ("verify_workers", Value::Num(verify_workers() as f64)),
        ("load_threads", Value::Num(1.0)),
    ])
}

fn summarise(def: &MetricDef, samples: &[f64]) -> Value {
    let mut members = vec![
        ("unit", Value::Str(def.unit.into())),
        ("better", Value::Str(def.better.as_str().into())),
        ("median", Value::Num(stats::median(samples))),
    ];
    if samples.len() >= 2 {
        let (q1, _, q3) = stats::quartiles(samples);
        members.push(("q1", Value::Num(q1)));
        members.push(("q3", Value::Num(q3)));
        members.push(("spread", Value::Num(stats::spread(samples))));
    }
    if def.bound > 0.0 {
        members.push(("bound", Value::Num(def.bound)));
    }
    members.push((
        "samples",
        Value::Arr(samples.iter().map(|s| Value::Num(*s)).collect()),
    ));
    Value::object(members)
}

/// Runs the suite.
pub fn run(args: &Args) -> ExitCode {
    let started = Instant::now();
    // `--quick` gives every run two seconds and runs each workload once
    // untraced and once traced; every run repeats its stream round after
    // round and compares digests, so the same-seed check still runs.
    let seconds = if args.quick {
        args.seconds.min(RUN_SECONDS / 13.0)
    } else {
        args.seconds
    };
    let reps = if args.quick { 1 } else { args.reps };
    let traced_pass = args.traced_pass || args.quick;
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| args.only.is_empty() || args.only.iter().any(|o| o == w))
        .collect();
    let mut problems: Vec<String> = Vec::new();
    let mut runs: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, ChildRun> = BTreeMap::new();

    // Repetitions alternate the workload order so slow drift of the
    // machine is not booked against whichever workload runs last.
    let mut jobs: Vec<(&str, bool)> = Vec::new();
    for rep in 0..reps {
        let mut order = selected.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        jobs.extend(order.into_iter().map(|w| (w, false)));
    }
    if traced_pass {
        jobs.extend(selected.iter().map(|w| (*w, true)));
    }
    // Timings of a `--quick` run mean nothing (it exists for its checks),
    // so it may use both processors; a measuring run never overlaps runs.
    let lanes = if args.quick { 2 } else { 1 };
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Result<ChildRun, String>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&(w, is_traced)) = jobs.get(i) else {
                    break;
                };
                eprintln!("[suite] {w}{}", if is_traced { " traced" } else { "" });
                let result = run_child(args, w, seconds, is_traced);
                done.lock()
                    .expect("no run panics while holding the lock")
                    .push((i, result));
            });
        }
    });
    let mut done = done
        .into_inner()
        .expect("no run panics while holding the lock");
    done.sort_by_key(|(i, _)| *i);
    for (i, result) in done {
        let (w, is_traced) = jobs[i];
        match result {
            Ok(run) if is_traced => {
                traced.insert(w, run);
            }
            Ok(run) => runs.entry(w).or_default().push(run),
            Err(e) => problems.push(e),
        }
    }

    let mut workloads_json = Vec::new();
    for w in &selected {
        let Some(reps_of) = runs.get(w).filter(|r| !r.is_empty()) else {
            problems.push(format!("{w}: no successful run"));
            continue;
        };
        println!("\n== {w} ({} runs) ==", reps_of.len());
        let mut e2e = Vec::new();
        for def in &END_TO_END {
            let samples: Vec<f64> = reps_of
                .iter()
                .filter_map(|r| r.metrics.get(def.name).copied())
                .collect();
            if samples.len() != reps_of.len() {
                problems.push(format!("{w}: {} missing from a run", def.name));
                continue;
            }
            let spread = if samples.len() >= 2 {
                stats::spread(&samples)
            } else {
                0.0
            };
            println!(
                "  {:<44} {:>16.4} {:<6} spread {:>5.1}%  bound {:>4.1}%",
                def.name,
                stats::median(&samples),
                def.unit,
                spread * 100.0,
                def.bound * 100.0
            );
            e2e.push((def.name, summarise(def, &samples)));
        }
        let first = &reps_of[0];
        for r in reps_of {
            if !r.correct {
                problems.push(format!(
                    "{w}: a run failed its checks: {:?}",
                    r.failed_checks
                ));
            }
            if r.digest != first.digest || r.counts != first.counts {
                problems.push(format!("{w}: same seed gave different digests or counts"));
            }
        }
        let attempted: u64 = reps_of.iter().map(|r| r.attempted).sum();
        let failed: u64 = reps_of.iter().map(|r| r.failed).sum();
        println!(
            "  attempted {attempted}  failed {failed}  digest {}",
            first.digest
        );
        let mut members = vec![
            ("end_to_end", Value::object(e2e)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("digest", Value::Str(first.digest.clone())),
            (
                "counts",
                Value::object(
                    first
                        .counts
                        .iter()
                        .map(|(k, v)| (k.as_str(), Value::Num(*v))),
                ),
            ),
        ];
        if let Some(t) = traced.get(w) {
            if !t.correct {
                problems.push(format!(
                    "{w}: traced run failed its checks: {:?}",
                    t.failed_checks
                ));
            }
            println!("  -- per layer (traced) --");
            let mut layers = Vec::new();
            for def in &PER_LAYER {
                let v = t.metrics.get(def.name).copied().unwrap_or(0.0);
                println!("  {:<44} {:>16.4} {}", def.name, v, def.unit);
                layers.push((def.name, summarise(def, &[v])));
            }
            members.push(("per_layer", Value::object(layers)));
        }
        workloads_json.push((*w, Value::object(members)));
    }

    let doc = Value::object([
        ("schema", Value::Num(1.0)),
        ("machine", machine_block()),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("reps", Value::Num(reps as f64)),
        ("workloads", Value::object(workloads_json)),
    ]);
    match (&args.out, args.quick) {
        (Some(path), false) => match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
        },
        (Some(_), true) => println!("\n--quick writes nothing"),
        (None, _) => {}
    }
    println!("suite took {:.1} s", started.elapsed().as_secs_f64());
    if problems.is_empty() {
        println!("all checks held");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("PROBLEM: {p}");
        }
        ExitCode::FAILURE
    }
}
