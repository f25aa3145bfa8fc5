#!/usr/bin/env bash
# Repository gate: formatting, lints, docs, tests. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== size, panic-site, unsafe-site and config-field budget (scripts/budget.txt only ever goes down)"
# Two counts that grew for twenty PRs: lines under crates/*/src, and
# unwrap( / expect( / panic! sites outside tn-bench, comment lines and
# everything from a file's #[cfg(test)] on left out. A third counts the
# word `unsafe` (not `unsafe_code`) in crates/*/src, left out the same
# way: the one site is tn-crypto's call to the SHA-extension compression,
# after CPU detection, and every other crate forbids unsafe code. A fourth
# counts the public fields of top-level `pub struct …Config / …Profile /
# …Policy / …Weights` bodies, left out the same way: a setting no caller
# sets to a second value is a constant, not a field. None may
# exceed the value recorded in scripts/budget.txt; a PR that lowers one
# lowers the recorded value with it, so the next PR cannot give it back.
src_lines=$(find crates/*/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
panic_sites=$(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' -print0 |
  xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
    !test && !/^[[:space:]]*\/\// { n += gsub(/unwrap\(|expect\(|panic!/, "&") }
    END { print n + 0 }')
unsafe_sites=$(find crates/*/src -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
    !test && !/^[[:space:]]*\/\// { n += gsub(/(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/, "&") }
    END { print n + 0 }')
config_fields=$(find crates/*/src -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { test = 0; body = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
    !test && /^pub struct [[:alnum:]_]*(Config|Profile|Policy|Weights) \{/ { body = 1; next }
    body && /^}/ { body = 0 }
    !test && body && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }')
for count in src_lines panic_sites unsafe_sites config_fields; do
  budget=$(awk -v key="$count" '$1 == key { print $2 }' scripts/budget.txt)
  echo "$count ${!count} (budget $budget)"
  [ "${!count}" -le "$budget" ] || { echo "$count over budget"; exit 1; }
done

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "== cargo test -q"
cargo test --workspace --offline -q

echo "== cargo test --release -p tn-crypto (limb arithmetic and signer tables as the benchmark builds them)"
# The workspace run above is a debug build: overflow checks and
# debug_assert!s on. The field and curve kernels are wrapping limb
# arithmetic, so they are also run the way every binary ships them —
# unit tests and tests/verify_oracle.rs, which holds PublicKey::verify
# to the definition-level ladder reference verdict for verdict.
# From a key's second lone verification on, that verdict comes out of
# tables kept in a process-wide memo (the signer's odd multiples, beside
# static ones of G, λG, 2^64·G and 2^64·λG). A wrong table entry, a memo
# that hands one key another's tables, or a walk that mis-cuts a scalar at
# bit 64 raises no error and moves no digest: a valid signature is refused
# or a forged one admitted, and nothing else in the tree would notice. The
# oracle puts every case to a fresh memo at first sighting, at the
# table-building sighting and from the memo, past the memo's capacity and
# from eight threads at once; it is the only guard, so it runs optimized.
# The same run holds tests/sha256_oracle.rs: sha256, streaming Sha256 and
# tagged_hash against a test-local FIPS 180-4 padding and compression, over
# every length 0..=130, 10 000 seeded random messages and the NIST vectors.
# On a CPU with the SHA extensions every hash runs on them, so the oracle
# checks the hardware kernel here optimized, as every binary ships it; the
# unit test every_padding_length_matches_the_definition meets the two
# kernels at every padding position.
cargo test --release --offline -p tn-crypto -q

echo "== cargo test --release -p tn-chain (state trie and run import without debug assertions)"
# The account trie clears a cached hash in every node a write passes and
# relies on it: a stale cell is a wrong state root, silently. The oracle
# tests must hold with debug_assert!s compiled out, as the benchmark and
# every binary run the code. The same run holds tests/run_import_oracle.rs
# — a run of blocks proved in shared equations against the block-by-block
# import loop, verdict for verdict — and tests/propose_batch_oracle.rs — a
# proposal's unseen transactions proved together against a test-local
# proposer that verifies each alone, then applies: same block bytes,
# receipts, state root, dropped set and sigcache hit/miss counts — to the
# optimized build, on both sides of one 512-signature equation; the
# prove_run / prove_txs unit tests sweep the smaller chunk sizes, with
# every counter checked on every run. tests/select_oracle.rs
# holds the mempool's heap selection to the per-pick walk over every
# account that defined it, transaction for transaction and in order, each
# with its own id: the block order is consensus-visible, so it must hold
# in the optimized build too.
cargo test --release --offline -p tn-chain -q

echo "== cargo test --release -p tn-supplychain (stored trace summaries as every binary reads them)"
# Every provenance read — rank, trace, culprit, origin, expert suggestion —
# answers from a summary computed when the item was inserted and never
# again. A summary that is wrong or stale raises no error anywhere: items
# rank on another path's score, the wrong account is named as distorter,
# and no digest moves, because summaries are derived data outside every
# digest. tests/trace_oracle.rs holds them bit for bit to the recursive
# definition over random DAGs, and the visit-count guard in graph.rs holds
# each read to O(answer); both must pass in the optimized build too.
# tests/similarity_oracle.rs guards what every edge is built from: the
# modification degree insert measures from the two texts and stores on the
# edge, which enters the graph digest and the checkpoint bytes. The kernel
# interns tokens to ids and compares id windows instead of joined strings;
# a last-bit difference from the HashSet-of-shingles definition forks
# replicas that run different builds, so the oracle compares f64 bits for
# k = 1..=8 over 100 000 random pairs and reader_mix's edges.
cargo test --release --offline -p tn-supplychain -q

echo "== benchmark package (the public surface benchmark/README.md pins)"
# The repo's benchmark is a package of its own that drives the platform
# through public functions only. Build it against its committed lock file,
# run its unit tests and its two-second smoke, then require that nothing
# under benchmark/ (Cargo.lock included) or BENCHMARK.json moved: a crate
# added, removed or re-wired inside the benchmark's dependency closure
# makes cargo rewrite benchmark/Cargo.lock, and that must fail here rather
# than in the benchmark pipeline.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick
git diff --exit-code -- benchmark BENCHMARK.json

echo "== exp18 smoke (distributed tracing + Perfetto export)"
# The bin itself validates the exported JSON (well-formed, non-empty,
# spans from >= 3 replicas); double-check the artifact landed (--quick
# leaves results/e18.json alone but always exports the trace).
cargo run -q --release --offline -p tn-bench --bin exp18_trace_critical_path -- --quick
test -s results/e18_trace.json || { echo "missing results/e18_trace.json"; exit 1; }

echo "== exp19 smoke (fault-injection matrix)"
# The bin asserts the fault-tolerance invariants itself: ≤f crashes keep a
# quorum on one digest, a revived replica catches up, >f corrupt replicas
# are a detected divergence. --quick runs the core scenarios only and
# leaves results/e19.json untouched.
cargo run -q --release --offline -p tn-bench --bin exp19_fault_matrix -- --quick

echo "== exp20 smoke (durable storage: kill-and-restart recovery)"
# Runs entirely in a temp dir (removed on exit) and writes no artifacts;
# the bin asserts exact digest recovery, tail-bounded replay, and that
# recovery time scales with blocks-since-checkpoint, not chain length.
cargo run -q --release --offline -p tn-bench --bin exp20_durable_storage -- --quick

echo "== exp21 smoke (open-loop gateway sweep)"
# Two sweep points plus the determinism check: the same workload replayed
# twice must yield identical admit/shed verdict streams and byte-identical
# replica digests. Writes no artifacts.
cargo run -q --release --offline -p tn-bench --bin exp21_open_loop -- --quick

echo "== exp22 smoke (batch Schnorr verification: cold import and mempool admission)"
# The bin asserts that the import path's signature pass proves every
# signature of a valid block, the one-EC-verify-per-tx cache contract,
# and that submit_batch through the batched equation admits, rejects and
# counts exactly like a submit loop (clean, half-cached and poisoned
# batches); --quick runs small sizes and writes no artifacts.
cargo run -q --release --offline -p tn-bench --bin exp22_batch_verify -- --quick

echo "== exp23 smoke (health plane: fault detection + monitor overhead)"
# The bin asserts the detection contract itself: the clean baseline stays
# Healthy with zero quarantines, each quick fault cell fires its expected
# alert class on the expected replica, and monitored digests are
# byte-identical to unmonitored runs. --quick runs the core cells and one
# below-knee SLO point, and writes no artifacts.
cargo run -q --release --offline -p tn-bench --bin exp23_health_plane -- --quick

echo "== exp24 smoke (misinformation-campaign matrix: participant defenses)"
# The bin machine-checks the damage bounds itself: clean cell silent,
# defended rings alerted + quarantined with the fake score bounded and
# zero honest quarantines, undefended rings detected but unbounded,
# bribery bounded by slashing alone, and every cell byte-identical
# across two replicas. --quick runs a 4-cell matrix and writes only the
# Prometheus alert artifact, which must contain the campaign series.
cargo run -q --release --offline -p tn-bench --bin exp24_campaign_matrix -- --quick
test -s results/e24_alerts.prom || { echo "missing results/e24_alerts.prom"; exit 1; }
grep -q "crowdrank" results/e24_alerts.prom || {
  echo "campaign series missing from results/e24_alerts.prom"
  exit 1
}

echo "All checks passed."
