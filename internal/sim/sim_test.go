package sim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
)

func xyRoutes(t *testing.T, m *topology.Mesh, flows []flowgraph.Flow) *route.Set {
	t.Helper()
	set, err := route.XY{}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil mesh accepted")
	}
	m := topology.NewMesh(2, 2)
	if _, err := New(Config{Mesh: m}); err == nil {
		t.Error("nil routes accepted")
	}
	// Routes referencing VC 1 with a 1-VC config must be rejected.
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 1, Demand: 1}}
	set, _ := route.O1TURN{Seed: 4}.Routes(m, flows)
	set.Routes[0].VCs[0] = 1
	if _, err := New(Config{Mesh: m, Routes: set, VCs: 1}); err == nil {
		t.Error("route VC out of range accepted")
	}
}

// TestRunContextCancel cancels a run mid-measurement, from inside the
// cycle loop (the RateVariation hook runs once per flow per cycle), and
// pins the cancellation contract: the run returns ctx.Err() within 1024
// cycles, yields no Result, and leaves no goroutine behind.
func TestRunContextCancel(t *testing.T) {
	g := topology.NewMesh(8, 8)
	flows := goldenFlows(t, g, "transpose")
	before := runtime.NumGoroutine()
	for _, at := range []int64{1, 1023, 1024, 5000} {
		ctx, cancel := context.WithCancel(context.Background())
		var s *Simulator
		cancelledAt := int64(-1)
		s, err := New(Config{Mesh: g, Routes: xyRoutes(t, g, flows), OfferedRate: 8,
			WarmupCycles: 1000, MeasureCycles: 1 << 40, Seed: 7,
			RateVariation: func(int) float64 {
				if cancelledAt < 0 && s.Cycle() == at {
					cancelledAt = at
					cancel()
				}
				return 10
			}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(ctx)
		cancel()
		if err != context.Canceled || res != nil {
			t.Fatalf("cancel at cycle %d: got (%v, %v), want (nil, context.Canceled)", at, res, err)
		}
		if s.Cycle() <= at || s.Cycle()-at > 1024 {
			t.Errorf("cancel at cycle %d observed at cycle %d, want within 1024 cycles", at, s.Cycle())
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the cancelled runs, %d after", before, after)
	}
}

func TestSinglePacketLatencyDeterministic(t *testing.T) {
	m := topology.NewMesh(4, 1)
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(3, 0), Demand: 1}}
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows),
		VCs: 1, PacketLen: 4, OfferedRate: 0.01,
		WarmupCycles: 1000, MeasureCycles: 20000, Seed: 1,
	})
	if res.PacketsDelivered == 0 {
		t.Fatal("no packets delivered")
	}
	if res.Deadlocked {
		t.Fatal("deadlock reported")
	}
	// Uncongested latency is a constant: hops + pipeline + serialization.
	// 3 hops, 4 flits: head crosses 3 links plus ejection; with the 4x
	// local bandwidth all flits enter the buffer in one cycle and drain
	// one per cycle. The exact constant matters less than its
	// determinism: average equals every packet's latency.
	if res.AvgLatency <= 3 || res.AvgLatency >= 12 {
		t.Errorf("uncongested latency %g outside plausible [4,11]", res.AvgLatency)
	}
	if res.AvgTotalLatency < res.AvgLatency {
		t.Error("total latency below network latency")
	}
}

func TestLowLoadDeliversEverything(t *testing.T) {
	m := topology.NewMesh(4, 4)
	var flows []flowgraph.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i, Name: "f", Src: topology.NodeID(i), Dst: topology.NodeID(15 - i), Demand: 10,
		})
	}
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows),
		VCs: 2, OfferedRate: 0.2,
		WarmupCycles: 2000, MeasureCycles: 30000, Seed: 2,
	})
	if res.Deadlocked {
		t.Fatal("deadlock at low load")
	}
	// Nearly all injected packets should be delivered (a few in flight).
	if float64(res.PacketsDelivered) < 0.98*float64(res.PacketsInjected) {
		t.Errorf("delivered %d of %d injected", res.PacketsDelivered, res.PacketsInjected)
	}
	// Throughput tracks offered rate at low load.
	if math.Abs(res.Throughput-0.2) > 0.02 {
		t.Errorf("throughput %g, offered 0.2", res.Throughput)
	}
	var sum int64
	for _, c := range res.PerFlowDelivered {
		sum += c
	}
	if sum != res.PacketsDelivered {
		t.Errorf("per-flow sum %d != delivered %d", sum, res.PacketsDelivered)
	}
}

func TestSaturationPlateaus(t *testing.T) {
	m := topology.NewMesh(4, 4)
	var flows []flowgraph.Flow
	// All nodes hammer one sink: ejection bandwidth (4 flits/cycle = 0.5
	// packets/cycle at 8 flits) bounds throughput.
	for i := 1; i < 16; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i - 1, Name: "f", Src: topology.NodeID(i), Dst: 0, Demand: 10,
		})
	}
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows),
		VCs: 2, OfferedRate: 4,
		WarmupCycles: 3000, MeasureCycles: 20000, Seed: 3,
	})
	if res.Deadlocked {
		t.Fatal("XY routes deadlocked")
	}
	// Under XY every flow reaches node 0 through one of its two in-links
	// (south column or west row), each carrying 1 flit/cycle: the arrival
	// bound is 2 links / 8 flits = 0.25 packets/cycle.
	if res.Throughput > 0.26 {
		t.Errorf("throughput %g exceeds the 0.25 link-arrival bound", res.Throughput)
	}
	if res.Throughput < 0.15 {
		t.Errorf("throughput %g suspiciously far below the arrival bound", res.Throughput)
	}
}

// The simulator must actually exhibit deadlock when given routes whose
// channel dependences form a cycle — the property the BSOR framework
// exists to prevent.
func TestCyclicRoutesDeadlock(t *testing.T) {
	m := topology.NewMesh(2, 2)
	mk := func(id, sx, sy, mx, my, dx, dy int) route.Route {
		c1 := m.ChannelFromTo(m.NodeAt(sx, sy), m.NodeAt(mx, my))
		c2 := m.ChannelFromTo(m.NodeAt(mx, my), m.NodeAt(dx, dy))
		return route.Route{
			Flow: flowgraph.Flow{ID: id, Name: "cyc",
				Src: m.NodeAt(sx, sy), Dst: m.NodeAt(dx, dy), Demand: 10},
			Channels: []topology.ChannelID{c1, c2},
			VCs:      []int{0, 0},
		}
	}
	set := &route.Set{Topo: m, Routes: []route.Route{
		mk(0, 0, 0, 1, 0, 1, 1),
		mk(1, 1, 0, 1, 1, 0, 1),
		mk(2, 1, 1, 0, 1, 0, 0),
		mk(3, 0, 1, 0, 0, 1, 0),
	}}
	if err := set.DeadlockFree(1); err == nil {
		t.Fatal("test routes should be cyclic")
	}
	res := run(t, Config{
		Mesh: m, Routes: set,
		VCs: 1, BufDepth: 2, PacketLen: 8, OfferedRate: 3.9,
		WarmupCycles: 2000, MeasureCycles: 100000,
		DeadlockCycles: 2000, Seed: 4,
	})
	if !res.Deadlocked {
		t.Fatal("cyclic routes did not deadlock under load")
	}
	// And the same pattern with VC-ascending routes must not deadlock.
	for i := range set.Routes {
		set.Routes[i].VCs = []int{0, 1}
	}
	res = run(t, Config{
		Mesh: m, Routes: set,
		VCs: 2, BufDepth: 2, PacketLen: 8, OfferedRate: 3.9,
		WarmupCycles: 2000, MeasureCycles: 20000,
		DeadlockCycles: 5000, Seed: 4,
	})
	if res.Deadlocked {
		t.Fatal("VC-ascending routes deadlocked")
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("no delivery")
	}
}

func TestDynamicVCAllocation(t *testing.T) {
	m := topology.NewMesh(4, 4)
	var flows []flowgraph.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i, Name: "f", Src: topology.NodeID(i), Dst: topology.NodeID(15 - i), Demand: 10,
		})
	}
	for _, dyn := range []bool{false, true} {
		res := run(t, Config{
			Mesh: m, Routes: xyRoutes(t, m, flows),
			VCs: 4, OfferedRate: 0.5, DynamicVC: dyn,
			WarmupCycles: 2000, MeasureCycles: 20000, Seed: 5,
		})
		if res.Deadlocked {
			t.Fatalf("dynamic=%v deadlocked", dyn)
		}
		if res.PacketsDelivered == 0 {
			t.Fatalf("dynamic=%v delivered nothing", dyn)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: 0, Dst: 15, Demand: 5},
		{ID: 1, Name: "b", Src: 3, Dst: 12, Demand: 5},
	}
	// Low offered rate: deep saturation is legitimately deterministic
	// (continuous streaming), so seed sensitivity only shows under light,
	// genuinely stochastic load.
	cfg := Config{
		Mesh: m, Routes: xyRoutes(t, m, flows),
		VCs: 2, OfferedRate: 0.1,
		WarmupCycles: 1000, MeasureCycles: 10000, Seed: 77,
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.PacketsDelivered != b.PacketsDelivered || a.AvgLatency != b.AvgLatency {
		t.Error("same seed produced different results")
	}
	cfg.Seed = 78
	c := run(t, cfg)
	if a.PacketsDelivered == c.PacketsDelivered && a.AvgLatency == c.AvgLatency {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestRateVariationHook(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 15, Demand: 10}}
	calls := 0
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows),
		VCs: 2, OfferedRate: 0.3,
		WarmupCycles: 100, MeasureCycles: 2000, Seed: 9,
		RateVariation: func(flow int) float64 {
			calls++
			return 10 // constant, same as base demand
		},
	})
	if calls == 0 {
		t.Fatal("rate variation hook never called")
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("no packets delivered with variation hook")
	}
}

// BSOR routes must beat XY on transpose throughput at high load — the
// headline claim of the thesis, checked end to end on a reduced cycle
// budget.
func TestBSORBeatsXYOnTranspose(t *testing.T) {
	m := topology.NewMesh(8, 8)
	var flows []flowgraph.Flow
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if x == y {
				continue
			}
			flows = append(flows, flowgraph.Flow{ID: len(flows), Name: "t",
				Src: m.NodeAt(x, y), Dst: m.NodeAt(y, x), Demand: 25})
		}
	}
	dag := cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)}.
		Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 100)
	bsor, err := route.DijkstraSelector{}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	xy := xyRoutes(t, m, flows)

	throughput := func(set *route.Set, dyn bool) float64 {
		res := run(t, Config{
			Mesh: m, Routes: set, VCs: 2, OfferedRate: 30, DynamicVC: dyn,
			WarmupCycles: 4000, MeasureCycles: 20000, Seed: 11,
		})
		if res.Deadlocked {
			t.Fatal("deadlock")
		}
		return res.Throughput
	}
	tBSOR := throughput(bsor, false)
	tXY := throughput(xy, true)
	if tBSOR <= tXY {
		t.Errorf("BSOR throughput %.3f <= XY %.3f at saturation", tBSOR, tXY)
	}
}
