#!/usr/bin/env bash
# The repository's end-to-end benchmark. Builds the benchmark package in
# release mode, then either
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       runs one workload once and prints its metrics, the last line being
#       the JSON object BENCHMARK.json's contract asks for; or
#
#   run.sh [--seed N] [--workload W]... [--traced] [--quick] [--runs R]
#          [--vary-seed] [--seconds S] [--clients N] [--label NAME]
#       runs every workload (each run in its own process), prints every
#       metric by name with its unit, and writes out/result-<label>.json
#       for compare.py.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
case "${CARGO_TARGET_DIR:-}" in
    "") target="$root/target/e2e" ;;
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/bfq-e2e"
mkdir -p "$here/out"

for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$bin" "$@" --expected "$here/expected" --out-dir "$here/out"
    fi
done
exec python3 "$here/suite.py" --bin "$bin" "$@"
