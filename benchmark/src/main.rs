//! `tn-benchmark` — the repo's end-to-end benchmark and per-layer cost
//! ledger. It drives the platform only from outside, through public
//! functions of its crates. See `benchmark/README.md`.
//!
//! Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one
//!   workload, one run; the last line of standard output is the result
//!   object the `BENCHMARK.json` contract describes.
//! * no `--workload` — the suite: every workload, `--reps` runs each in a
//!   child process of its own, medians and quartiles, optional `--traced`
//!   pass, result file via `--out`; `--quick` is the smoke version.
//! * `--compare a.json b.json` — two result files against the bounds.

mod catalogue;
mod cluster;
mod common;
mod compare;
mod door;
mod inputs;
mod json;
mod micro;
mod reader;
mod spans;
mod stats;
mod suite;
mod wide;

use std::path::PathBuf;
use std::process::ExitCode;

use catalogue::{END_TO_END, PER_LAYER};
use common::{Ctx, Outcome};
use json::Value;

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 26.0;
/// Default input seed.
pub const DEFAULT_SEED: u64 = 21;

const USAGE: &str = "\
usage:
  tn-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR]
  tn-benchmark [--seed N] [--seconds S] [--reps R] [--traced] [--quick]
               [--only w1,w2] [--out FILE] [--scratch DIR]
  tn-benchmark --compare <a.json> <b.json>
workloads: door_single wide_state cluster_pbft4 reader_mix";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub reps: usize,
    pub traced_pass: bool,
    pub quick: bool,
    pub only: Vec<String>,
    pub out: Option<PathBuf>,
    pub scratch: PathBuf,
    pub compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        reps: 3,
        traced_pass: false,
        quick: false,
        only: Vec::new(),
        out: None,
        scratch: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if !catalogue::is_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| "--seconds takes a number in (0, 600]".to_string())?;
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--reps" => {
                args.reps = value(&mut it, flag)?
                    .parse::<usize>()
                    .ok()
                    .filter(|r| (1..=50).contains(r))
                    .ok_or_else(|| "--reps takes a whole number from 1 to 50".to_string())?;
            }
            "--traced" => args.traced_pass = true,
            "--quick" => args.quick = true,
            "--only" => {
                args.only = value(&mut it, flag)?
                    .split(',')
                    .map(str::to_string)
                    .collect();
                if let Some(bad) = args.only.iter().find(|w| !catalogue::is_workload(w)) {
                    return Err(format!("unknown workload {bad:?}"));
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--scratch" => args.scratch = PathBuf::from(value(&mut it, flag)?),
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((a, b));
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    std::fs::create_dir_all(&ctx.scratch).expect("scratch directory is writable");
    let mut out = match name {
        "door_single" => door::run(ctx),
        "wide_state" => wide::run(ctx),
        "cluster_pbft4" => cluster::run(ctx),
        "reader_mix" => reader::run(ctx),
        other => unreachable!("workload {other} passed validation"),
    };
    if ctx.traced {
        out.layer("node.commit_p90_ms", out.e2e.commit_p90_ms);
        out.layer("node.block_commit_p90_ms", out.e2e.block_commit_p90_ms);
        out.layer("node.read_p90_us", out.e2e.read_p90_us);
        micro::run(&mut out, ctx.micro_iters());
        if let Some(rec) = out.recorder.take() {
            print_ledger(&rec);
            let path = ctx.scratch.join(format!("trace-{name}.json"));
            let written = std::fs::write(&path, rec.to_chrome_trace(name)).is_ok();
            out.check(format!("trace written to {}", path.display()), written);
        }
    }
    out.e2e.peak_rss_mb = common::peak_rss_mb();
    out.check("peak RSS readable", out.e2e.peak_rss_mb > 0.0);
    for (metric, value) in out.e2e.named() {
        out.check(
            format!("{metric} is a positive finite number"),
            value.is_finite() && value > 0.0,
        );
    }
    out
}

/// Prints the cost ledger of a traced run: per span name, how often it
/// ran, its total time and its self time (total minus child spans). The
/// self times add up to the time under the root spans.
fn print_ledger(rec: &spans::Recorder) {
    let root_ns = rec.root_ns().max(1) as f64;
    println!("  -- ledger: span, count, total ms, self ms, self share of traced time --");
    for (name, row) in rec.ledger() {
        println!(
            "  {name:<36} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.self_ns as f64 / root_ns * 100.0
        );
    }
}

/// The result object of the contract: `correct`, `attempted`, `failed`,
/// `metrics` — end-to-end metrics untraced, per-layer metrics traced.
fn result_object(out: &Outcome, traced: bool) -> Value {
    let metric = |value: f64, unit: &str| {
        Value::object([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.into())),
        ])
    };
    let metrics: Vec<(String, Value)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = out.layers.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    metric(if v.is_finite() { v } else { 0.0 }, m.unit),
                )
            })
            .collect()
    } else {
        let by_name: std::collections::HashMap<_, _> = out.e2e.named().into_iter().collect();
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), metric(by_name[m.name], m.unit)))
            .collect()
    };
    Value::object([
        ("correct", Value::Bool(out.correct() && out.failed == 0)),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// What the suite reads back from a child beyond the contract object.
fn detail_object(out: &Outcome) -> Value {
    Value::object([
        ("digest", Value::Str(out.digest.clone())),
        (
            "counts",
            Value::object(out.counts.iter().map(|(k, v)| (*k, Value::Num(*v as f64)))),
        ),
        (
            "failed_checks",
            Value::Arr(
                out.checks
                    .iter()
                    .filter(|(_, ok)| !ok)
                    .map(|(name, _)| Value::Str(name.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn contract_mode(name: &str, args: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        scratch: args.scratch.clone(),
    };
    let out = run_workload(name, &ctx);
    println!(
        "workload {name}  seed {}  seconds {}  trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    let list: Vec<(&str, f64, &str)> = if ctx.traced {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    out.layers.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    } else {
        let named = out.e2e.named();
        END_TO_END
            .iter()
            .zip(named)
            .map(|(m, (_, v))| (m.name, v, m.unit))
            .collect()
    };
    for (metric, value, unit) in list {
        println!("  {metric:<44} {value:>16.4} {unit}");
    }
    for (check, ok) in &out.checks {
        if !ok {
            println!("  CHECK FAILED: {check}");
        }
    }
    println!(
        "  checks {}/{} held, attempted {}, failed {}, digest {}",
        out.checks.iter().filter(|(_, ok)| *ok).count(),
        out.checks.len(),
        out.attempted,
        out.failed,
        &out.digest[..out.digest.len().min(16)]
    );
    println!("#detail {}", detail_object(&out).to_compact());
    println!("{}", result_object(&out, ctx.traced).to_compact());
    if out.correct() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    match &args.workload {
        Some(name) => contract_mode(name, &args),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let a = parse_args(&argv(
            "--workload wide_state --seed 7 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("wide_state"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 5.0, true));
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.reps), (DEFAULT_SEED, RUN_SECONDS, 3));
        assert!(d.workload.is_none() && !d.trace && !d.quick);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--reps 0",
            "--only door_single,nope",
            "--compare a.json",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.layer("crypto.verify_us", 323.25);
        for traced in [false, true] {
            let obj = result_object(&out, traced);
            let keys: Vec<&str> = obj
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = obj.get("metrics").and_then(Value::as_object).unwrap();
            let want = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want);
            assert!(!obj.to_compact().contains('\n'));
        }
        let traced = result_object(&out, true);
        let verify = traced
            .get("metrics")
            .and_then(|m| m.get("crypto.verify_us"))
            .unwrap();
        assert_eq!(verify.get("value").and_then(Value::as_f64), Some(323.25));
        assert_eq!(verify.get("unit").and_then(Value::as_str), Some("us"));
    }
}
