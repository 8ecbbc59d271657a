#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the repository root.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its JSON result
#   benchmark/run.sh [all] [--seed N] [--runs R] [--seconds S] [--workload NAME]
#       every workload: R untraced runs on seeds N, N+1, ... then one traced,
#       into benchmark/out/results-seed<N>.json; --runs 10 is the steadiness
#       check, --seconds 1.5 a smoke run
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to stderr, so stdout holds only what the program prints.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
if [ $# -eq 0 ]; then
    set -- all
fi
exec "$target/release/codb-benchmark" --out "$here/out" "$@"
