//! `--compare a.json b.json`: two suite result files against the bounds.
//!
//! For every workload and end-to-end metric: how much worse `b`'s median
//! is than `a`'s, next to the metric's bound. A row reads `unresolved`
//! when either set's own spread is wider than the bound — such a
//! difference cannot be told from noise. The comparison is refused when
//! machine block, seed or sizes differ: deltas only mean something within
//! one machine spec and one input.

use std::path::Path;
use std::process::ExitCode;

use crate::catalogue::{Better, END_TO_END};
use crate::json::{self, Value};

/// Verdict on one metric × workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the bound allows.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Within,
    /// A set's spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `b` is worse than `a` (negative when better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one row.
pub fn judge(worse: f64, bound: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Why two result files cannot be compared, if they cannot.
pub fn refusal(a: &Value, b: &Value) -> Option<String> {
    for key in ["schema", "machine", "seed", "seconds"] {
        if a.get(key) != b.get(key) {
            return Some(format!(
                "refusing to compare: `{key}` differs ({} vs {})",
                a.get(key).map_or("absent".into(), Value::to_compact),
                b.get(key).map_or("absent".into(), Value::to_compact),
            ));
        }
    }
    let sizes = |doc: &Value| -> Vec<(String, Option<Value>)> {
        doc.get("workloads")
            .and_then(Value::as_object)
            .map(|ws| {
                ws.iter()
                    .map(|(name, w)| (name.clone(), w.get("counts").cloned()))
                    .collect()
            })
            .unwrap_or_default()
    };
    for ((wa, ca), (wb, cb)) in sizes(a).iter().zip(sizes(b).iter()) {
        // Digests may differ between two commits; the work done may not.
        let size_of = |c: &Option<Value>| c.as_ref().and_then(|c| c.get("committed").cloned());
        if wa != wb || size_of(ca) != size_of(cb) {
            return Some(format!("refusing to compare: sizes of {wa}/{wb} differ"));
        }
    }
    (sizes(a).len() != sizes(b).len()).then(|| "refusing to compare: workload sets differ".into())
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub worse: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// All rows of `a` against `b`.
pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    let Some(workloads) = a.get("workloads").and_then(Value::as_object) else {
        return out;
    };
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        for def in &END_TO_END {
            let pick = |w: &Value, field: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(|m| m.get(field))
                    .and_then(Value::as_f64)
            };
            let (Some(ma), Some(mb)) = (pick(wa, "median"), pick(wb, "median")) else {
                continue;
            };
            let worse = worse_by(ma, mb, def.better);
            let verdict = judge(
                worse,
                def.bound,
                pick(wa, "spread").unwrap_or(0.0),
                pick(wb, "spread").unwrap_or(0.0),
            );
            out.push(Row {
                workload: name.clone(),
                metric: def.name,
                a: ma,
                b: mb,
                worse,
                bound: def.bound,
                verdict,
            });
        }
    }
    out
}

/// Prints the comparison; fails on refusal or any regression.
pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (da, db) = match (load(a), load(b)) {
        (Ok(da), Ok(db)) => (da, db),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refusal(&da, &db) {
        println!("{why}");
        return ExitCode::from(2);
    }
    println!("a = {}\nb = {}", a.display(), b.display());
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let rows = rows(&da, &db);
    for r in &rows {
        println!(
            "{:<14} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} within, {} improved, {} unresolved, {} regressed",
        rows.len(),
        count(Verdict::Within),
        count(Verdict::Improved),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    if count(Verdict::Regressed) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.09, 0.08, 0.01, 0.01), Verdict::Regressed);
        assert_eq!(judge(0.07, 0.08, 0.01, 0.01), Verdict::Within);
        assert_eq!(judge(-0.20, 0.08, 0.01, 0.01), Verdict::Improved);
        assert_eq!(judge(0.30, 0.08, 0.09, 0.01), Verdict::Unresolved);
        assert_eq!(judge(0.00, 0.08, 0.01, 0.50), Verdict::Unresolved);
    }

    fn doc(cpus: f64, seed: f64, committed: f64, tps: f64, spread: f64) -> Value {
        json::parse(&format!(
            "{{\"schema\":1,\"machine\":{{\"cpus\":{cpus}}},\"seed\":{seed},\"seconds\":5,\
             \"workloads\":{{\"door_single\":{{\"counts\":{{\"committed\":{committed}}},\
             \"end_to_end\":{{\"commit_tps\":{{\"median\":{tps},\"spread\":{spread}}}}}}}}}}}"
        ))
        .expect("fixture parses")
    }

    #[test]
    fn refuses_mismatched_machine_seed_or_sizes() {
        let a = doc(2.0, 21.0, 1000.0, 2800.0, 0.01);
        assert!(refusal(&a, &doc(2.0, 21.0, 1000.0, 2500.0, 0.01)).is_none());
        assert!(refusal(&a, &doc(4.0, 21.0, 1000.0, 2800.0, 0.01))
            .is_some_and(|m| m.contains("machine")));
        assert!(
            refusal(&a, &doc(2.0, 22.0, 1000.0, 2800.0, 0.01)).is_some_and(|m| m.contains("seed"))
        );
        assert!(
            refusal(&a, &doc(2.0, 21.0, 900.0, 2800.0, 0.01)).is_some_and(|m| m.contains("sizes"))
        );
    }

    #[test]
    fn rows_apply_bound_and_spread() {
        let a = doc(2.0, 21.0, 1000.0, 2800.0, 0.01);
        let slower = rows(&a, &doc(2.0, 21.0, 1000.0, 1400.0, 0.01));
        assert_eq!(slower.len(), 1);
        assert_eq!(slower[0].verdict, Verdict::Regressed);
        assert!((slower[0].worse - 0.5).abs() < 1e-12);
        let noisy = rows(&a, &doc(2.0, 21.0, 1000.0, 1400.0, 0.30));
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        let same = rows(&a, &a);
        assert_eq!(same[0].verdict, Verdict::Within);
    }
}
