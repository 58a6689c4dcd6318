#!/usr/bin/env bash
# The repo benchmark: build it (release, offline, into target/benchmark
# unless CARGO_TARGET_DIR says otherwise) and hand it every argument.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--sets K] [--smoke]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh test          # the harness's own unit tests
#
# Nothing reaches standard output unless the build succeeded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
manifest="$here/Cargo.toml"

if [ "${1:-}" = test ]; then
    exec cargo test --release --offline --manifest-path "$manifest"
fi
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
bin="$CARGO_TARGET_DIR/release/aspen_benchmark"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
exec "$bin" --out-dir "$here/out" "$@"
