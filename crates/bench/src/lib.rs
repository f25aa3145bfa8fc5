//! The skeleton every experiment binary stands on.
//!
//! Each `expN_*` binary regenerates one experiment from EXPERIMENTS.md. It
//! declares its rows once, as `#[derive(Serialize)]` structs, and the
//! [`Experiment`] handle derives everything else from them: the aligned
//! stdout table ([`table`]), `results/<id>.json`, and — for experiments on
//! the perf trajectory — the repo-root `BENCH_<id>.json` snapshot in the
//! `docs/BENCHMARKS.md` envelope. The command line is parsed in one place:
//! the only flag any experiment takes is `--quick`, a CI-sized smoke run
//! that asserts the experiment's invariants and leaves the committed
//! artifacts untouched. [`scenarios`] holds the scenario definitions more
//! than one experiment runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod scenarios;
pub mod table;

use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

pub use table::Value;

/// The `results/<id>.json` document: a header plus tabular rows.
#[derive(Debug, Serialize)]
struct Report<R: Serialize> {
    id: &'static str,
    title: &'static str,
    rows: R,
}

/// The host a `BENCH_*.json` perf snapshot was measured on.
///
/// Every snapshot in the perf trajectory carries one of these so deltas
/// are only ever read between points taken on a comparable machine (see
/// `docs/BENCHMARKS.md`).
#[derive(Debug, Serialize)]
pub(crate) struct MachineSpec {
    /// Operating system (`std::env::consts::OS`).
    pub(crate) os: &'static str,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub(crate) arch: &'static str,
    /// Logical CPUs visible to the process.
    pub(crate) cpus: usize,
}

impl MachineSpec {
    /// Captures the current host.
    pub(crate) fn current() -> MachineSpec {
        MachineSpec {
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// One running experiment: its id and whether this is a `--quick` run.
#[derive(Debug)]
pub struct Experiment {
    id: &'static str,
    /// True under `--quick`: the binary picks its CI-sized parameters and
    /// no `results/` or `BENCH_` artifact is written.
    pub quick: bool,
}

impl Experiment {
    /// Prints the experiment banner and parses the command line.
    ///
    /// Exits with status 2 on any argument other than `--quick`.
    pub fn start(id: &'static str, title: &str) -> Experiment {
        let mut quick = false;
        for arg in std::env::args().skip(1) {
            if arg == "--quick" {
                quick = true;
            } else {
                eprintln!("{id}: unknown argument {arg:?} (the only flag is --quick)");
                std::process::exit(2);
            }
        }
        println!("=== {id}: {title} ===\n");
        Experiment { id, quick }
    }

    /// Prints `rows` as an aligned table, one column per field.
    pub fn table<R: Serialize>(&self, rows: &[R]) {
        let captured: Vec<Value> = rows.iter().map(table::capture).collect();
        print!("{}", table::render(&captured));
    }

    /// Prints `rows` as a table and writes them to `results/<id>.json`
    /// (`id` lower-cased; sub-reports pass e.g. `"E14b"`).
    pub fn report<R: Serialize>(&self, id: &'static str, title: &'static str, rows: &[R]) {
        self.table(rows);
        self.write_report(id, title, rows);
    }

    /// Writes `rows` to `results/<id>.json` without printing them. Skipped
    /// under `--quick`.
    pub fn write_report<R: Serialize>(&self, id: &'static str, title: &'static str, rows: &[R]) {
        let path = Path::new("results").join(format!("{}.json", id.to_lowercase()));
        self.write_json(&path, &Report { id, title, rows });
    }

    /// Writes the repo-root perf snapshot `BENCH_<id>.json`: the
    /// `docs/BENCHMARKS.md` envelope (`bench`, `schema`, `machine`)
    /// followed by the experiment's `sections`, in order. Returns the
    /// snapshot so experiments whose `results/` row *is* the snapshot can
    /// pass it on to [`Experiment::write_report`]. Skipped under `--quick`.
    pub fn snapshot(&self, bench: &'static str, sections: Vec<(&'static str, Value)>) -> Value {
        let mut fields = vec![
            ("bench", Value::Str(bench.into())),
            ("schema", Value::U64(1)),
            ("machine", table::capture(&MachineSpec::current())),
        ];
        fields.extend(sections);
        let snapshot = Value::Struct(fields);
        let path = format!("BENCH_{}.json", self.id.to_lowercase());
        self.write_json(Path::new(&path), &snapshot);
        snapshot
    }

    /// Where an artifact the binary writes itself goes (`name` is its
    /// file name): `results/` on a full run, the system temp directory
    /// under `--quick`, so a smoke leaves the tree as it found it.
    pub fn artifact_path(&self, name: &str) -> PathBuf {
        let dir = if self.quick {
            std::env::temp_dir()
        } else {
            PathBuf::from("results")
        };
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    /// Pretty-prints `doc` into `path`. Failures warn instead of
    /// panicking — an unwritable artifact must never fail a run whose
    /// assertions held.
    fn write_json<T: Serialize>(&self, path: &Path, doc: &T) {
        if self.quick {
            println!("\n[--quick: {} left untouched]", path.display());
            return;
        }
        let written = serde_json::to_string_pretty(doc)
            .map_err(|e| e.to_string())
            .and_then(|json| {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                }
                fs::write(path, json).map_err(|e| e.to_string())
            });
        match written {
            Ok(()) => println!("\n[written {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
