package repro

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestSmokePipeline exercises the whole stack once: workload -> BSOR
// route synthesis -> deadlock validation -> cycle-accurate simulation,
// and checks the headline reproduction facts hold end to end.
func TestSmokePipeline(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows, err := traffic.Transpose(m, traffic.DefaultSyntheticDemand)
	if err != nil {
		t.Fatal(err)
	}

	bsor, ex, err := core.BestContext(context.Background(), m, flows, core.Config{VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	mcl, _ := bsor.MCL()
	if mcl != 75 {
		t.Errorf("BSOR transpose MCL = %g (via %s), want the thesis' 75", mcl, ex.Breaker)
	}
	xy, err := route.XY{}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	if xyMCL, _ := xy.MCL(); xyMCL != 175 {
		t.Errorf("XY transpose MCL = %g, want the thesis' 175", xyMCL)
	}
	if err := bsor.DeadlockFree(2); err != nil {
		t.Fatal(err)
	}

	throughput := func(set *route.Set, dynamic bool) float64 {
		s, err := sim.New(sim.Config{
			Mesh: m, Routes: set, VCs: 2, DynamicVC: dynamic, OfferedRate: 30,
			WarmupCycles: 2000, MeasureCycles: 8000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatal("deadlock")
		}
		return res.Throughput
	}
	if tb, tx := throughput(bsor, false), throughput(xy, true); tb <= tx {
		t.Errorf("BSOR saturation throughput %.3f <= XY %.3f", tb, tx)
	}
}

// closRandPerm is the large-fabric baseline instance: the folded Clos and
// flow set whose ShortestPath route build the benchmark's sim-scale workload
// times as set-up.
func closRandPerm(tb testing.TB) (topology.Topology, []flowgraph.Flow) {
	tb.Helper()
	topo := topology.NewFoldedClos(32, 256)
	flows, err := traffic.RandomPermutation(topo, 10, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return topo, flows
}

// TestShortestPathClosAllocBudget holds the route build on a 9.4 M-edge CDG
// to an allocation budget (it allocated 1.45 GB when every edge went
// through two hash maps) and to the routes it has always returned.
func TestShortestPathClosAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 9.4 M-edge CDG")
	}
	topo, flows := closRandPerm(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	set, err := route.ShortestPath{VCs: 2}.Routes(topo, flows)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 600 {
		t.Errorf("ShortestPath on clos 32x256 allocated %d MB, budget 600 MB", mb)
	}
	// 228 two-hop routes and 60 one-hop ones (flows with a spine endpoint).
	h := fnv.New64a()
	for _, r := range set.Routes {
		fmt.Fprintln(h, r.Channels, r.VCs)
	}
	if got, want := h.Sum64(), uint64(0xf625e3864ddbee19); len(set.Routes) != 288 || got != want {
		t.Errorf("%d routes with digest %#x, want 288 with %#x", len(set.Routes), got, want)
	}
}
