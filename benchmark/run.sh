#!/usr/bin/env bash
# The one command: builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh --workload door_single --seed 21 --seconds 26 --trace 0
#   benchmark/run.sh --reps 3 --traced --out benchmark/out/result.json
#   benchmark/run.sh --quick
#   benchmark/run.sh --compare a.json b.json
#
# Run it from anywhere; build output goes to $CARGO_TARGET_DIR when set,
# to benchmark/target otherwise. Trace files go to benchmark/out unless
# --scratch says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/tn-benchmark" --scratch "$here/out" "$@"
