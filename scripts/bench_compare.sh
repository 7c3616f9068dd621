#!/usr/bin/env bash
# bench_compare.sh <base-ref> — the CI performance floor. Records five
# alternating base/head pairs of the sim-curve and synth-milp workloads
# (3 s each, the base built from a throw-away worktree of <base-ref>) and
# hands both result sets to the ledger's own -compare, which applies the
# BENCHMARK.json bounds; its exit status is this script's.
set -euo pipefail
cd "$(dirname "$0")/.."
base_ref="${1:?usage: scripts/bench_compare.sh <base-ref>}"
tmp="$(mktemp -d)"
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --detach "$tmp/base" "$base_ref" >/dev/null

record() { # record <side> <workload>
  local dir=benchmark
  [ "$1" = base ] && dir="$tmp/base/benchmark"
  go run -C "$dir" . -workload "$2" -seconds 3 -record "$tmp/$1.jsonl" >/dev/null
}
for pair in 1 2 3 4 5; do
  for wl in sim-curve synth-milp; do
    order="base head"
    ((pair % 2)) || order="head base"
    for side in $order; do record "$side" "$wl"; done
  done
done
go run -C benchmark . -compare "$tmp/base.jsonl" "$tmp/head.jsonl"
