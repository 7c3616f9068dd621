#!/usr/bin/env bash
# bench_route.sh — run the route-synthesis benchmarks and emit BENCH_route.json.
#
# Usage:  scripts/bench_route.sh [output.json]
#   BENCHTIME=3x scripts/bench_route.sh     # more iterations for stable numbers
#
# BenchmarkRouteSynthesis times the synthesis jobs of the experiment engine:
# the 8x8 transpose BSOR-MILP table cell on the seed stack (dense-tableau
# LP, serial candidate enumeration, no warm starts — MILPSelector.DenseLP)
# versus the reworked stack (sparse revised simplex, basis-warm-started
# branch and bound, bound propagation, parallel deduplicated enumeration),
# plus the 16x16 mesh/torus BSOR-Heuristic synthesis-scale jobs. The JSON
# records the host's CPU count and Go version, ms per job, the dense/sparse
# speedup, and whether the heuristic meets its sub-second 16x16 budget.
# EXPERIMENTS.md quotes these numbers; CI runs the same benchmarks with
# -benchtime=1x and fails if the 8x8 sparse MILP job takes more than twice
# the time recorded here.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_route.json}"
BENCHTIME="${BENCHTIME:-1x}"

raw="$(go test -run '^$' -bench 'BenchmarkRouteSynthesis' -benchtime "$BENCHTIME" .)"
echo "$raw"

echo "$raw" | awk -v out="$OUT" -v cpus="$(getconf _NPROCESSORS_ONLN)" -v gover="$(go env GOVERSION)" '
/^BenchmarkRouteSynthesis\// {
    name = $1
    sub(/^BenchmarkRouteSynthesis\//, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = mcl = ""
    for (i = 1; i <= NF; i++) {
        if ($i == "ns/op") ns  = $(i - 1)
        if ($i == "MCL")   mcl = $(i - 1)
    }
    if (ns != "") {
        names[++n] = name
        millis[name] = ns / 1e6
        mcls[name] = mcl
    }
}
END {
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkRouteSynthesis (8x8 transpose MILP table cell: seed dense stack vs sparse+warm-start stack; 16x16 heuristic synthesis-scale jobs)\",\n" >> out
    printf "  \"host_cpus\": %d,\n", cpus >> out
    printf "  \"go\": \"%s\",\n", gover >> out
    printf "  \"results\": [\n" >> out
    for (i = 1; i <= n; i++) {
        name = names[i]
        printf "    {\"job\": \"%s\", \"ms_per_job\": %.1f, \"mcl\": %s}%s\n", \
            name, millis[name], (mcls[name] != "" ? mcls[name] : "null"), (i < n ? "," : "") >> out
    }
    printf "  ],\n" >> out
    d = millis["mesh8x8-transpose-milp-dense"]
    s = millis["mesh8x8-transpose-milp-sparse"]
    if (d != "" && s != "" && s > 0)
        printf "  \"speedup_milp_dense_vs_sparse\": %.2f,\n", d / s >> out
    else
        printf "  \"speedup_milp_dense_vs_sparse\": null,\n" >> out
    h = millis["mesh16x16-transpose-heuristic"]
    if (h != "")
        printf "  \"heuristic_mesh16x16_under_1s\": %s\n", (h < 1000 ? "true" : "false") >> out
    else
        printf "  \"heuristic_mesh16x16_under_1s\": null\n" >> out
    printf "}\n" >> out
}
'
echo "wrote $OUT"
