#!/usr/bin/env bash
# Run the whole benchmark twice on the same build and fail unless every
# end-to-end metric of every workload agrees within its bound from
# BENCHMARK.json (counts of the virtual-clock workloads: bit for bit).
# Arguments (--seed N, --seconds S, --quick) go to both runs.
set -euo pipefail
cd "$(dirname "$0")/.."

benchmark/run.sh --out benchmark/out/selfcheck-a "$@"
benchmark/run.sh --out benchmark/out/selfcheck-b "$@"
benchmark/run.sh --compare benchmark/out/selfcheck-a/results.json \
    benchmark/out/selfcheck-b/results.json
