#!/usr/bin/env bash
# qtpperf: build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       the whole suite: every workload with tracing off, then traced; prints
#       every metric by name and unit, writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is its JSON result
#
# All socket traffic crosses the host's loopback interface, never a real link.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"

# Stamped into results.json; a checkout that is not a git repository says so.
QTPPERF_COMMIT="${QTPPERF_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export QTPPERF_COMMIT

case " $* " in
    *" --workload "* | *" --compare "*) exec "$target/release/qtpperf" "$@" ;;
    *) exec "$target/release/qtpperf" --suite "$@" ;;
esac
