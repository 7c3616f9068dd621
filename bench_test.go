package repro

// One benchmark per table and figure of the thesis' evaluation (chapter
// 6). Each bench regenerates its artifact end to end — route synthesis
// plus, for the figures, cycle-accurate simulation — on reduced cycle
// budgets so the whole suite completes in minutes; cmd/experiments runs
// the same code at the published 20k+100k cycle counts. Custom metrics
// report the headline number of each artifact (best MCL, or saturation
// throughput) so regressions in reproduction quality show up in benchmark
// output, not just in runtime. Speed is not measured here: the benchmark/
// module (BENCHMARK.json, `go run -C benchmark .`) is the one performance
// ledger.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/cdg"
	"repro/internal/experiments"
	"repro/internal/flowgraph"
	"repro/internal/route"
)

func benchMILP() route.Selector {
	return route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 8,
		MaxNodes: 40, Gap: 0.01}
}

func benchParams() experiments.SimParams {
	return experiments.SimParams{VCs: 2, WarmupCycles: 2000, MeasureCycles: 10000, Seed: 1}
}

func benchRates() []float64 { return []float64{10, 30, 50} }

// runJobs runs jobs to completion on r, failing b if the run is cut short.
func runJobs(b *testing.B, r *experiments.Runner, jobs []experiments.Job) []experiments.Result {
	b.Helper()
	results, err := r.RunContext(context.Background(), jobs)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

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
		rows := experiments.CDGRows(runJobs(b, r, experiments.TableJobs("table-cdg", experiments.MeshSpec(8, 8),
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
		rows := experiments.CDGRows(runJobs(b, &experiments.Runner{}, experiments.TableJobs("table-cdg",
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
		rows := experiments.AlgoRows(runJobs(b, r, experiments.AlgoTableJobs("table6.3", experiments.MeshSpec(8, 8),
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
		results := runJobs(b, r, experiments.SweepJobs("figure", experiments.MeshSpec(8, 8), workload,
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
		results := runJobs(b, &experiments.Runner{}, experiments.VCSweepJobs("vcsweep", experiments.MeshSpec(8, 8),
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
		results := runJobs(b, r, experiments.SweepJobs("variation", experiments.MeshSpec(8, 8), "transpose",
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
		results := runJobs(b, r, jobs)
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

// BenchmarkShortestPathClos splits the ShortestPath route build on the
// folded Clos 32x256 into its stages, to show where set-up time on a large
// fabric goes (run with -benchtime 1x; Routes is the whole build, and what
// it takes beyond the four stages is the 288 route searches).
func BenchmarkShortestPathClos(b *testing.B) {
	topo, flows := closRandPerm(b)
	breaker := cdg.UpDownBreaker{Root: 0}
	full := cdg.NewFull(topo, 2)
	dag := breaker.Break(full)
	b.Run("NewFull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			full = cdg.NewFull(topo, 2)
		}
		b.ReportMetric(float64(full.NumEdges()), "edges")
	})
	b.Run("Break", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dag = breaker.Break(full)
		}
		b.ReportMetric(float64(dag.NumEdges()), "edges")
	})
	b.Run("IsAcyclic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !dag.IsAcyclic() {
				b.Fatal("up*/down* left the CDG cyclic")
			}
		}
	})
	b.Run("FlowGraph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flowgraph.New(dag, flows, 1)
		}
	})
	b.Run("Routes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (route.ShortestPath{VCs: 2}).Routes(topo, flows); err != nil {
				b.Fatal(err)
			}
		}
	})
}
