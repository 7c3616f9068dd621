#!/usr/bin/env bash
# bench_sim.sh — run the simulator micro-benchmarks and emit BENCH_sim.json.
#
# Usage:  scripts/bench_sim.sh [output.json]
#   BENCHTIME=5x scripts/bench_sim.sh     # more iterations for stable numbers
#
# The JSON records cycles/sec and flit-hops/sec per benchmarked
# configuration — sequential and sharded-parallel (-wN rows, see
# DESIGN.md §15) — plus the captured seed-core baseline (the pre-refactor
# full-scan core, commit 1e6e2ee, measured on the same 16x16 transpose
# latency curve in the reference container) and the resulting speedup.
# The host CPU count and Go version ride along: parallel rows only show
# speedup with real cores underneath; on a single-core host they measure
# barrier overhead instead. EXPERIMENTS.md quotes these numbers; CI runs
# the same benchmarks with -benchtime=1x and fails if the mesh16x16 or
# mesh64x64 row falls below half the cycles/sec recorded here.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_sim.json}"
BENCHTIME="${BENCHTIME:-2x}"

# Seed-core baseline: cycles/sec of the pre-refactor core on the
# mesh16x16 curve (5 rate points x 12k cycles), captured before the
# data-oriented rewrite (3-iteration go test -bench measurement).
BASELINE_16=13743

raw="$(go test -run '^$' -bench 'BenchmarkSimCycles' -benchtime "$BENCHTIME" .)"
echo "$raw"

echo "$raw" | awk -v out="$OUT" -v base="$BASELINE_16" -v ncpu="$(getconf _NPROCESSORS_ONLN)" -v gover="$(go env GOVERSION)" '
/^BenchmarkSimCycles\// {
    name = $1
    sub(/^BenchmarkSimCycles\//, "", name)
    sub(/-[0-9]+$/, "", name)
    cyc = hops = ""
    for (i = 1; i <= NF; i++) {
        if ($i == "cycles/sec")   cyc  = $(i - 1)
        if ($i == "flithops/sec") hops = $(i - 1)
    }
    if (cyc != "") {
        names[++n] = name
        cycles[name] = cyc
        flithops[name] = hops
    }
}
END {
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkSimCycles (offered-rate curves 2,10,20,40,60 at 2k+10k cycles, 2 VCs; mesh rows: transpose over XY; clos row: rand-perm over SP; -wN rows: N sim workers, byte-identical results)\",\n" >> out
    printf "  \"host_cpus\": %d,\n", ncpu >> out
    printf "  \"go\": \"%s\",\n", gover >> out
    printf "  \"results\": [\n" >> out
    for (i = 1; i <= n; i++) {
        name = names[i]
        printf "    {\"config\": \"%s\", \"cycles_per_sec\": %.0f, \"flit_hops_per_sec\": %.0f}%s\n", \
            name, cycles[name], flithops[name], (i < n ? "," : "") >> out
    }
    printf "  ],\n" >> out
    printf "  \"seed_core_baseline\": {\n" >> out
    printf "    \"topology\": \"mesh16x16\",\n" >> out
    printf "    \"cycles_per_sec\": %d,\n", base >> out
    printf "    \"source\": \"pre-refactor full-scan core (commit 1e6e2ee), same curve, reference container\"\n" >> out
    printf "  },\n" >> out
    if (cycles["mesh16x16"] != "")
        printf "  \"speedup_mesh16x16_vs_seed_core\": %.2f,\n", cycles["mesh16x16"] / base >> out
    else
        printf "  \"speedup_mesh16x16_vs_seed_core\": null,\n" >> out
    if (cycles["mesh16x16"] != "" && cycles["mesh16x16-w4"] != "")
        printf "  \"speedup_mesh16x16_w4_vs_sequential\": %.2f\n", cycles["mesh16x16-w4"] / cycles["mesh16x16"] >> out
    else
        printf "  \"speedup_mesh16x16_w4_vs_sequential\": null\n" >> out
    printf "}\n" >> out
}
'
echo "wrote $OUT"
