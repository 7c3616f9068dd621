#!/usr/bin/env bash
# bench_compare.sh <base-ref> — the CI performance floor. Records five
# alternating base/head pairs of the sim-curve, sim-scale, synth-milp,
# sweep and daemon-cold workloads (3 s each, which is one pass of sweep
# and of sim-scale; sim-scale is the one workload whose simulator state
# misses cache, daemon-cold the end-to-end guard of the simulator on the
# daemon's miss path; the base built from a shared clone of <base-ref>
# in the ignored .bench_build/, where both result sets stay for
# inspection) and hands them to the ledger's own -compare, which applies
# the BENCHMARK.json bounds; its exit status is this script's.
set -euo pipefail
cd "$(dirname "$0")/.."
base_ref="${1:?usage: scripts/bench_compare.sh <base-ref>}"
base_sha="$(git rev-parse --verify "$base_ref^{commit}")"
out="$PWD/.bench_build"
rm -rf "$out"
git clone --quiet --shared --no-checkout . "$out/base"
git -C "$out/base" checkout --quiet --detach "$base_sha"

record() { # record <side> <workload>
  local dir=benchmark
  [ "$1" = base ] && dir="$out/base/benchmark"
  go run -C "$dir" . -workload "$2" -seconds 3 -record "$out/$1.jsonl" >/dev/null
}
for pair in 1 2 3 4 5; do
  for wl in sim-curve sim-scale synth-milp sweep daemon-cold; do
    order="base head"
    ((pair % 2)) || order="head base"
    for side in $order; do record "$side" "$wl"; done
  done
done
go run -C benchmark . -compare "$out/base.jsonl" "$out/head.jsonl"
