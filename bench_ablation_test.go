package repro

// Ablation benchmarks for the design choices the thesis motivates but
// does not always quantify:
//
//   - static versus dynamic virtual-channel allocation (§4.2.2, the Shim
//     et al. comparison the thesis cites),
//   - breadth of the acyclic-CDG exploration (1 vs 5 vs 15 CDGs, §3.2
//     step 4),
//   - the M constant of the Dijkstra weight function (§3.6's latency
//     versus load-balance knob),
//   - flow routing order for the sequential selector,
//   - selector quality: MILP versus Dijkstra MCL on equal CDGs.
//
// Each bench reports its quality metric via b.ReportMetric so ablations
// are visible in benchmark output.

import (
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func transposeWorkload() (*topology.Mesh, []flowgraph.Flow) {
	m := topology.NewMesh(8, 8)
	flows, err := traffic.Transpose(m, traffic.DefaultSyntheticDemand)
	if err != nil {
		panic(err)
	}
	return m, flows
}

// BenchmarkAblationStaticVsDynamicVC simulates the same BSOR route set
// with static and dynamic VC allocation at saturation.
func BenchmarkAblationStaticVsDynamicVC(b *testing.B) {
	m, flows := transposeWorkload()
	set, _, err := core.Best(m, flows, core.Config{VCs: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, dyn := range []bool{false, true} {
			s, err := sim.New(sim.Config{
				Mesh: m, Routes: set, VCs: 4, DynamicVC: dyn, OfferedRate: 40,
				WarmupCycles: 2000, MeasureCycles: 10000, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Deadlocked {
				b.Fatalf("deadlock (dynamic=%v)", dyn)
			}
			if dyn {
				b.ReportMetric(res.Throughput, "dynTput")
			} else {
				b.ReportMetric(res.Throughput, "staticTput")
			}
		}
	}
}

// BenchmarkAblationCDGBreadth measures how best-of-N CDG exploration
// affects the transpose MCL: one turn rule, the five table CDGs, or the
// full fifteen.
func BenchmarkAblationCDGBreadth(b *testing.B) {
	m, flows := transposeWorkload()
	sets := map[string][]cdg.Breaker{
		"one":     {cdg.TurnBreaker{Rule: cdg.XYOrder}},
		"five":    nil, // filled below
		"fifteen": cdg.StandardBreakers(),
	}
	sets["five"] = []cdg.Breaker{
		cdg.TurnBreaker{Rule: cdg.LastRule(topology.North)},
		cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)},
		cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)},
		cdg.AdHocBreaker{Seed: 1},
		cdg.AdHocBreaker{Seed: 2},
	}
	for i := 0; i < b.N; i++ {
		for name, breakers := range sets {
			_, best, err := core.Best(m, flows, core.Config{VCs: 2, Breakers: breakers})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(best.MCL, name+"MCL")
		}
	}
}

// BenchmarkAblationWeightM sweeps the M constant of the §3.6 weight
// function w(e) = 1/(a(e)-d+M): small M balances load, large M minimizes
// hops.
func BenchmarkAblationWeightM(b *testing.B) {
	m, flows := transposeWorkload()
	dag := cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)}.
		Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 100)
	for i := 0; i < b.N; i++ {
		for _, mc := range []struct {
			name string
			m    float64
		}{{"Msmall", 50}, {"Mcap", 100}, {"Mbig", 1600}} {
			set, err := route.DijkstraSelector{M: mc.m}.Select(g)
			if err != nil {
				b.Fatal(err)
			}
			mcl, _ := set.MCL()
			b.ReportMetric(mcl, mc.name+"MCL")
			b.ReportMetric(set.AvgHops(), mc.name+"Hops")
		}
	}
}

// BenchmarkAblationSelectorQuality compares MILP and Dijkstra MCL under
// one fixed CDG, isolating selector quality from CDG choice.
func BenchmarkAblationSelectorQuality(b *testing.B) {
	m, flows := transposeWorkload()
	dag := cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)}.
		Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 100)
	for i := 0; i < b.N; i++ {
		dset, err := route.DijkstraSelector{}.Select(g)
		if err != nil {
			b.Fatal(err)
		}
		dm, _ := dset.MCL()
		b.ReportMetric(dm, "dijkstraMCL")

		mset, err := route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 8,
			MaxNodes: 40, Gap: 0.01}.Select(g)
		if err != nil {
			b.Fatal(err)
		}
		mm, _ := mset.MCL()
		b.ReportMetric(mm, "milpMCL")
	}
}

// BenchmarkAblationPipelineDepth compares the published 1-cycle-per-hop
// router against a 4-stage (RC/VA/SA/ST) pipeline at moderate load.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	m, flows := transposeWorkload()
	set, _, err := core.Best(m, flows, core.Config{VCs: 2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, stages := range []int{1, 4} {
			s, err := sim.New(sim.Config{
				Mesh: m, Routes: set, VCs: 2, PipelineStages: stages, OfferedRate: 10,
				WarmupCycles: 2000, MeasureCycles: 10000, Seed: 6,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			if stages == 1 {
				b.ReportMetric(res.AvgLatency, "lat1stage")
			} else {
				b.ReportMetric(res.AvgLatency, "lat4stage")
			}
		}
	}
}

// BenchmarkSimulatorCycleRate measures raw simulator speed in
// cycles/second at a saturating load on the full 8x8 transpose
// configuration.
func BenchmarkSimulatorCycleRate(b *testing.B) {
	m, flows := transposeWorkload()
	set, err := route.XY{}.Routes(m, flows)
	if err != nil {
		b.Fatal(err)
	}
	const cycles = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Config{
			Mesh: m, Routes: set, VCs: 2, DynamicVC: true, OfferedRate: 30,
			WarmupCycles: 0, MeasureCycles: cycles, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkDijkstraSelection measures route synthesis speed for the
// 56-flow transpose on one CDG (the thesis: "thousands of nodes within
// seconds").
func BenchmarkDijkstraSelection(b *testing.B) {
	m, flows := transposeWorkload()
	dag := cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)}.
		Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (route.DijkstraSelector{}).Select(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDGConstruction measures full-CDG build plus turn-model
// breaking on the 8x8, 2-VC configuration.
func BenchmarkCDGConstruction(b *testing.B) {
	m := topology.NewMesh(8, 8)
	for i := 0; i < b.N; i++ {
		full := cdg.NewFull(m, 2)
		a := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(full)
		if !a.IsAcyclic() {
			b.Fatal("cyclic")
		}
	}
}
