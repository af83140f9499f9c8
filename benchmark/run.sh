#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
#
#   bash benchmark/run.sh --workload mem-mixed --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --workload mem-mixed --repeat 10 --out a.json
#   bash benchmark/run.sh --compare a.json b.json
#   bash benchmark/run.sh --smoke
#   bash benchmark/run.sh --self-test
#
# The build goes to $CARGO_TARGET_DIR when that is set (a relative path is
# taken from the current directory), else to benchmark/target. Only the last
# line of standard output is the result; the build talks on standard error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

RQS_BENCH_DIR="$here" exec "$target/release/rqs-benchmark" "$@"
