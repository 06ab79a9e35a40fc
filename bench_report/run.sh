#!/usr/bin/env bash
# Builds the harness in release mode and runs all five workloads, each in
# its own process, printing every metric by name with its unit.
#
#   bench_report/run.sh                 untraced: the end-to-end metrics
#   bench_report/run.sh --trace 1       traced: the per-layer metrics, and
#                                       bench_report/out/trace_<workload>.json
#   bench_report/run.sh --selfcheck     the A/A test; writes the ledger entry
#                                       bench_report/out/BENCH.json
#
# Further arguments (--seed N, --seconds N) are passed through.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
bench=(cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" --)

if [[ " $* " == *" --selfcheck "* ]]; then
    exec "${bench[@]}" "$@"
fi
for workload in pps_app_cost live_steady live_saturated live_disordered offline_195k; do
    "${bench[@]}" --workload "$workload" "$@"
done
