package repro

// One benchmark per table and figure of the thesis' evaluation (chapter
// 6). Each bench regenerates its artifact end to end — route synthesis
// plus, for the figures, cycle-accurate simulation — on reduced cycle
// budgets so the whole suite completes in minutes; cmd/experiments runs
// the same code at the published 20k+100k cycle counts. Custom metrics
// report the headline number of each artifact (best MCL, or saturation
// throughput) so regressions in reproduction quality show up in benchmark
// output, not just in runtime.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func benchMILP() route.Selector {
	return route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 8, Refinements: 2,
		MaxNodes: 40, Gap: 0.01}
}

func benchParams() experiments.SimParams {
	return experiments.SimParams{VCs: 2, WarmupCycles: 2000, MeasureCycles: 10000, Seed: 1}
}

func benchRates() []float64 { return []float64{10, 30, 50} }

// minPositive returns the smallest non-negative MCL of a table row.
func minPositive(vals []float64) float64 {
	best := -1.0
	for _, v := range vals {
		if v >= 0 && (best < 0 || v < best) {
			best = v
		}
	}
	return best
}

// BenchmarkTable61 regenerates Table 6.1: minimum MCL per acyclic CDG
// under BSOR_MILP for all six workloads.
func BenchmarkTable61(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &experiments.Runner{MILP: benchMILP()}
		rows := experiments.CDGRows(r.Run(experiments.TableJobs("table-cdg", experiments.MeshSpec(8, 8),
			"BSOR-MILP", experiments.TableBreakerNames(), 2)))
		for _, r := range rows {
			if r.Workload == "transpose" {
				b.ReportMetric(minPositive(r.MCL), "transposeMCL")
			}
			if r.Workload == "h264" {
				b.ReportMetric(minPositive(r.MCL), "h264MCL")
			}
		}
	}
}

// BenchmarkTable62 regenerates Table 6.2: minimum MCL per acyclic CDG
// under BSOR_Dijkstra.
func BenchmarkTable62(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.CDGRows(experiments.NewRunner().Run(experiments.TableJobs("table-cdg",
			experiments.MeshSpec(8, 8), "BSOR-Dijkstra", experiments.TableBreakerNames(), 2)))
		for _, r := range rows {
			if r.Workload == "transpose" {
				b.ReportMetric(minPositive(r.MCL), "transposeMCL")
			}
		}
	}
}

// BenchmarkTable63 regenerates Table 6.3: MCL of XY, YX, ROMM, Valiant,
// BSOR_MILP and BSOR_Dijkstra on every workload.
func BenchmarkTable63(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &experiments.Runner{MILP: benchMILP()}
		rows := experiments.AlgoRows(r.Run(experiments.AlgoTableJobs("table6.3", experiments.MeshSpec(8, 8),
			experiments.Table63Algorithms(), experiments.TableBreakerNames(), 2)))
		for _, r := range rows {
			if r.Workload == "transpose" {
				// Column order: XY, YX, ROMM, Valiant, BSOR-MILP, BSOR-Dijkstra.
				b.ReportMetric(r.MCL[0], "XY")
				b.ReportMetric(r.MCL[5], "BSORDijkstra")
			}
		}
	}
}

// benchFigure runs one throughput/latency sweep figure and reports the
// BSOR-Dijkstra and XY saturation throughput.
func benchFigure(b *testing.B, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := &experiments.Runner{MILP: benchMILP()}
		results := r.Run(experiments.SweepJobs("figure", experiments.MeshSpec(8, 8), workload,
			experiments.FigureAlgorithms(), experiments.TableBreakerNames(), benchRates(), 0, benchParams()))
		if err := experiments.FirstError(results); err != nil {
			b.Fatal(err)
		}
		for _, s := range experiments.SeriesFrom(results) {
			last := s.Points[len(s.Points)-1]
			switch s.Algorithm {
			case "BSOR-Dijkstra":
				b.ReportMetric(last.Throughput, "bsorSatTput")
			case "XY":
				b.ReportMetric(last.Throughput, "xySatTput")
			}
		}
	}
}

// BenchmarkFig61Transpose regenerates Figure 6-1 (transpose sweep).
func BenchmarkFig61Transpose(b *testing.B) { benchFigure(b, "transpose") }

// BenchmarkFig62BitComplement regenerates Figure 6-2.
func BenchmarkFig62BitComplement(b *testing.B) { benchFigure(b, "bit-complement") }

// BenchmarkFig63Shuffle regenerates Figure 6-3.
func BenchmarkFig63Shuffle(b *testing.B) { benchFigure(b, "shuffle") }

// BenchmarkFig64H264 regenerates Figure 6-4.
func BenchmarkFig64H264(b *testing.B) { benchFigure(b, "h264") }

// BenchmarkFig65PerfModeling regenerates Figure 6-5.
func BenchmarkFig65PerfModeling(b *testing.B) { benchFigure(b, "perf-modeling") }

// BenchmarkFig66Transmitter regenerates Figure 6-6.
func BenchmarkFig66Transmitter(b *testing.B) { benchFigure(b, "transmitter") }

// BenchmarkFig67VCSweep regenerates Figure 6-7: transpose under 1/2/4/8
// virtual channels, reporting the 2-VC and 4-VC saturation throughput
// whose ratio carries the thesis' ~40% head-of-line-blocking finding.
func BenchmarkFig67VCSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.NewRunner().Run(experiments.VCSweepJobs("vcsweep", experiments.MeshSpec(8, 8),
			"transpose", []string{"BSOR-Dijkstra", "XY"}, []int{1, 2, 4, 8}, benchRates(), benchParams()))
		if err := experiments.FirstError(results); err != nil {
			b.Fatal(err)
		}
		out := experiments.SeriesByVC(results)
		for _, vcs := range []int{2, 4} {
			for _, s := range out[vcs] {
				if s.Algorithm == "BSOR-Dijkstra" {
					last := s.Points[len(s.Points)-1]
					if vcs == 2 {
						b.ReportMetric(last.Throughput, "tput2VC")
					} else {
						b.ReportMetric(last.Throughput, "tput4VC")
					}
				}
			}
		}
	}
}

func benchVariation(b *testing.B, percent float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := &experiments.Runner{MILP: benchMILP()}
		results := r.Run(experiments.SweepJobs("variation", experiments.MeshSpec(8, 8), "transpose",
			experiments.FigureAlgorithms(), experiments.TableBreakerNames(), benchRates(), percent, benchParams()))
		if err := experiments.FirstError(results); err != nil {
			b.Fatal(err)
		}
		for _, s := range experiments.SeriesFrom(results) {
			if s.Algorithm == "BSOR-Dijkstra" {
				last := s.Points[len(s.Points)-1]
				b.ReportMetric(last.Throughput, "bsorSatTput")
			}
		}
	}
}

// BenchmarkFig68Variation10 regenerates Figure 6-8 (10% variation).
func BenchmarkFig68Variation10(b *testing.B) { benchVariation(b, 0.10) }

// BenchmarkFig69Variation25 regenerates Figure 6-9 (25% variation).
func BenchmarkFig69Variation25(b *testing.B) { benchVariation(b, 0.25) }

// BenchmarkFig610Variation50 regenerates Figure 6-10 (50% variation).
func BenchmarkFig610Variation50(b *testing.B) { benchVariation(b, 0.50) }

// BenchmarkFig54InjectionTrace regenerates Figure 5-4: the Markov-
// modulated injection-rate trace.
func BenchmarkFig54InjectionTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace := experiments.InjectionTrace(25, 0.25, 120000, 52)
		if len(trace) != 120000 {
			b.Fatal("short trace")
		}
	}
}

// meshTransposeXY builds the transpose-over-XY configuration the sim
// benchmarks sweep — the workload shape that dominates every figure.
func meshTransposeXY(b *testing.B, w, h int) (topology.Topology, *route.Set) {
	b.Helper()
	m := topology.NewMesh(w, h)
	flows, err := traffic.Transpose(m, 10)
	if err != nil {
		b.Fatal(err)
	}
	set, err := route.XY{}.Routes(m, flows)
	if err != nil {
		b.Fatal(err)
	}
	return m, set
}

// closRandPermSP builds a folded-Clos fabric under a seeded random
// permutation routed by deterministic shortest path (the graph-generic
// baseline) — the non-grid benchmark topology.
func closRandPermSP(b *testing.B, spines, leaves int) (topology.Topology, *route.Set) {
	b.Helper()
	g := topology.NewFoldedClos(spines, leaves)
	flows, err := traffic.RandomPermutation(g, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	set, err := route.ShortestPath{VCs: 2}.Routes(g, flows)
	if err != nil {
		b.Fatal(err)
	}
	return g, set
}

// BenchmarkSimCycles measures the raw speed of the cycle-accurate
// simulator core on offered-rate curves and reports simulated cycles per
// second and flit hops per second as custom metrics. scripts/bench_sim.sh
// runs it and records the numbers in BENCH_sim.json next to the captured
// seed-core baseline; CI runs it with -benchtime=1x so the metrics
// cannot silently break.
//
// The 16x16 case is the acceptance benchmark of the data-oriented core
// rewrite: five offered-rate points (deep sub-saturation through
// saturation) at 2k+10k cycles each, XY routes. The seed core sustained
// ~13.8k cycles/sec on this curve in the reference container; the
// active-set core is required to stay >= 3x above that.
//
// The -wN variants drive the same curves through the sharded parallel
// cycle loop (sim.Config.Workers, DESIGN.md §15) and produce identical
// results; on a single-core runner they measure barrier overhead rather
// than speedup. The 64x64 and clos rows exercise table construction and
// shard counts (32 and 18) far beyond the thesis figures.
func BenchmarkSimCycles(b *testing.B) {
	// The -metrics variants attach a live collector: the instrumented and
	// plain runs must stay within the documented <2% overhead budget
	// (DESIGN.md §14) because the simulator flushes counters only at its
	// existing 1024-cycle poll, never per cycle — including the per-shard
	// active-set gauges of a parallel run.
	for _, tc := range []struct {
		name    string
		build   func(*testing.B) (topology.Topology, *route.Set)
		workers int
		metrics bool
	}{
		{"mesh8x8", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 8, 8) }, 0, false},
		{"mesh8x8-metrics", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 8, 8) }, 0, true},
		{"mesh16x16", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 16, 16) }, 0, false},
		{"mesh16x16-metrics", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 16, 16) }, 0, true},
		{"mesh16x16-w4", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 16, 16) }, 4, false},
		{"mesh16x16-w4-metrics", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 16, 16) }, 4, true},
		{"mesh64x64", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 64, 64) }, 0, false},
		{"mesh64x64-w8", func(b *testing.B) (topology.Topology, *route.Set) { return meshTransposeXY(b, 64, 64) }, 8, false},
		{"clos32x256-w8", func(b *testing.B) (topology.Topology, *route.Set) { return closRandPermSP(b, 32, 256) }, 8, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var coll *metrics.Collector
			if tc.metrics {
				coll = metrics.New()
			}
			m, set := tc.build(b)
			rates := []float64{2, 10, 20, 40, 60}
			var cycles, hops int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, rate := range rates {
					s, err := sim.New(sim.Config{
						Mesh: m, Routes: set, VCs: 2, OfferedRate: rate,
						WarmupCycles: 2000, MeasureCycles: 10000, Seed: 1,
						Workers: tc.workers,
						Metrics: coll,
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := s.Run()
					if err != nil {
						b.Fatal(err)
					}
					if res.Deadlocked {
						b.Fatal("benchmark config deadlocked")
					}
					cycles += res.Cycles
					hops += res.FlitHops
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(cycles)/sec, "cycles/sec")
				b.ReportMetric(float64(hops)/sec, "flithops/sec")
			}
		})
	}
}

// BenchmarkSweepEngineSpeedup times the full six-workload x five-breaker
// BSOR_Dijkstra CDG exploration (the Table 6.2 sweep) sequentially
// (Workers=1) and in parallel (Workers=NumCPU) on cold caches, and
// reports the wall-clock ratio as the "speedup" metric. On a 4-core
// runner the parallel sweep is expected to be >= 3x faster; on a single
// core the ratio is ~1 by construction.
func BenchmarkSweepEngineSpeedup(b *testing.B) {
	jobs := experiments.TableJobs("bench-speedup", experiments.MeshSpec(8, 8),
		"BSOR-Dijkstra", experiments.TableBreakerNames(), 2)
	run := func(workers int) (time.Duration, []experiments.Result) {
		r := &experiments.Runner{Workers: workers}
		start := time.Now()
		results := r.Run(jobs)
		return time.Since(start), results
	}
	for i := 0; i < b.N; i++ {
		seqTime, seqResults := run(1)
		parTime, parResults := run(runtime.NumCPU())
		for j := range seqResults {
			if seqResults[j].MCL != parResults[j].MCL {
				b.Fatalf("parallel execution changed job %d: MCL %g vs %g",
					j, parResults[j].MCL, seqResults[j].MCL)
			}
		}
		b.ReportMetric(seqTime.Seconds()/parTime.Seconds(), "speedup")
		b.ReportMetric(float64(runtime.NumCPU()), "cores")
	}
}
