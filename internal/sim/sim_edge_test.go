package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
)

// TestConfigRejectsBadSizes pins the size validation of withDefaults:
// zero selects the default, but a negative size (a panic in make, a
// transfer that never completes, a run of no cycles) and a PacketLen the
// int16 flit position cannot hold are errors naming the field.
func TestConfigRejectsBadSizes(t *testing.T) {
	m := topology.NewMesh(2, 2)
	set := xyRoutes(t, m, []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 3, Demand: 1}})
	for _, tc := range []struct {
		field string // "" means New must accept
		mut   func(*Config)
	}{
		{"VCs", func(c *Config) { c.VCs = -1 }},
		{"BufDepth", func(c *Config) { c.BufDepth = -16 }},
		{"PacketLen", func(c *Config) { c.PacketLen = -8 }},
		{"LocalBandwidth", func(c *Config) { c.LocalBandwidth = -4 }},
		{"WarmupCycles", func(c *Config) { c.WarmupCycles = -1 }},
		{"MeasureCycles", func(c *Config) { c.MeasureCycles = -100 }},
		{"PacketLen", func(c *Config) { c.PacketLen = math.MaxInt16 + 1 }},
		{"", func(c *Config) { c.PacketLen = math.MaxInt16 }},
		{"", func(c *Config) {}},
	} {
		cfg := Config{Mesh: m, Routes: set, OfferedRate: 0.1}
		tc.mut(&cfg)
		_, err := New(cfg)
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("valid config %+v rejected: %v", cfg, err)
		case tc.field != "" && err == nil:
			t.Errorf("bad %s accepted", tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field):
			t.Errorf("bad %s: error %q does not name the field", tc.field, err)
		}
	}
}

// drawSource is a rand.Source whose every Float64 is 0.5 and which calls
// onDraw first. With invLogQ[fi] = -(g-0.5)/ln 2, flow fi's geometric gap
// is then exactly g cycles.
type drawSource struct{ onDraw func() }

func (d drawSource) Int63() int64 { d.onDraw(); return 1 << 62 }
func (drawSource) Seed(int64)     {}

// TestArrivalWheelLapEdge schedules flows with gaps on both sides of the
// wheel's lap — 1, 63, 64, 65, 128 and 4096 cycles, several due in one
// cycle, some sharing a slot on different laps, some past the first word
// — and requires generate to fire them in (cycle, flow) order, once per
// due cycle. A gap of 64 re-sets the bit of the slot being drained, so a
// drain that cleared the bit after rescheduling would lose the flow.
func TestArrivalWheelLapEdge(t *testing.T) {
	m := topology.NewMesh(4, 4)
	var flows []flowgraph.Flow
	for src := topology.NodeID(0); src < 16; src++ {
		for dst := topology.NodeID(0); dst < 16; dst++ {
			if src != dst {
				flows = append(flows, flowgraph.Flow{ID: len(flows), Name: "f", Src: src, Dst: dst, Demand: 1})
			}
		}
	}
	s, err := New(Config{Mesh: m, Routes: xyRoutes(t, m, flows), OfferedRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 5000 // the gap-1 flow's queue stays below maxSourceQueue
	sched := []struct {
		fi      int32
		at, gap int64
	}{
		{3, 5, 64}, {5, 5, 1}, {64, 5, 63}, {70, 6, 65},
		{130, 69, 128}, {200, 5, 4096}, {239, 69, 64},
	}
	clear(s.wheel)
	var want [][2]int64 // (cycle, flow), sorted
	for _, f := range sched {
		s.invLogQ[f.fi] = -(float64(f.gap) - 0.5) / math.Ln2
		s.schedule(f.fi, f.at)
		for c := f.at; c < horizon; c += f.gap {
			want = append(want, [2]int64{c, int64(f.fi)})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		return want[i][0] < want[j][0] || want[i][0] == want[j][0] && want[i][1] < want[j][1]
	})

	// emit pushes the creation cycle before the gap is drawn, so at each
	// draw exactly one source queue has grown: the flow that just fired.
	var got [][2]int64
	queued := make([]int, len(flows))
	s.rng = rand.New(drawSource{onDraw: func() {
		for fi := range s.srcQueue {
			if n := s.srcQueue[fi].len(); n != queued[fi] {
				queued[fi] = n
				got = append(got, [2]int64{s.cycle, int64(fi)})
			}
		}
	}})
	for ; s.cycle < horizon; s.cycle++ {
		s.generate()
	}
	fired := make(map[[2]int64]bool, len(got))
	for _, f := range got {
		if fired[f] {
			t.Fatalf("flow %d fired twice in cycle %d", f[1], f[0])
		}
		fired[f] = true
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("fire %d is (cycle, flow) %v, want %v (%d fires, want %d)", i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%d fires, want %d", len(got), len(want))
	}
}

func TestZeroOfferedRate(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 15, Demand: 10}}
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows), VCs: 2,
		OfferedRate: 0, WarmupCycles: 100, MeasureCycles: 1000, Seed: 1,
	})
	if res.PacketsInjected != 0 || res.PacketsDelivered != 0 {
		t.Error("packets moved at zero rate")
	}
	if res.AvgLatency != 0 || res.Throughput != 0 {
		t.Error("nonzero statistics at zero rate")
	}
	if res.Deadlocked {
		t.Error("idle network reported deadlock")
	}
}

func TestSingleFlitPackets(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 15, Demand: 10}}
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows), VCs: 1, PacketLen: 1,
		OfferedRate: 0.3, WarmupCycles: 500, MeasureCycles: 5000, Seed: 2,
	})
	if res.PacketsDelivered == 0 {
		t.Fatal("no single-flit packets delivered")
	}
	if res.Deadlocked {
		t.Fatal("deadlock with single-flit packets")
	}
}

func TestMinimalBuffers(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: 0, Dst: 15, Demand: 10},
		{ID: 1, Name: "b", Src: 15, Dst: 0, Demand: 10},
	}
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows), VCs: 1, BufDepth: 1,
		OfferedRate: 2, WarmupCycles: 1000, MeasureCycles: 10000, Seed: 3,
	})
	if res.PacketsDelivered == 0 {
		t.Fatal("no delivery with 1-flit buffers")
	}
	if res.Deadlocked {
		t.Fatal("XY deadlocked with 1-flit buffers")
	}
}

func TestLatencyPercentilesOrdered(t *testing.T) {
	m := topology.NewMesh(8, 8)
	var flows []flowgraph.Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i, Name: "f", Src: topology.NodeID(i), Dst: topology.NodeID(63 - i), Demand: 10,
		})
	}
	res := run(t, Config{
		Mesh: m, Routes: xyRoutes(t, m, flows), VCs: 2,
		OfferedRate: 4, WarmupCycles: 2000, MeasureCycles: 20000, Seed: 4,
	})
	if res.PacketsDelivered == 0 {
		t.Fatal("no delivery")
	}
	if !(res.LatencyP50 <= res.LatencyP95 && res.LatencyP95 <= res.LatencyP99) {
		t.Errorf("percentiles unordered: %g %g %g",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	if res.AvgLatency > res.LatencyP99 {
		t.Errorf("mean %g above p99 %g", res.AvgLatency, res.LatencyP99)
	}
	// Per-flow latencies populated for flows that delivered.
	for i, d := range res.PerFlowDelivered {
		if d > 0 && res.PerFlowLatency[i] <= 0 {
			t.Errorf("flow %d delivered %d but latency 0", i, d)
		}
	}
}

func TestMoreVCsNeverHurtThroughputMuch(t *testing.T) {
	m := topology.NewMesh(8, 8)
	var flows []flowgraph.Flow
	for i := 0; i < 32; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i, Name: "f", Src: topology.NodeID(i), Dst: topology.NodeID(63 - i), Demand: 10,
		})
	}
	set := xyRoutes(t, m, flows)
	tput := map[int]float64{}
	for _, vcs := range []int{1, 4} {
		res := run(t, Config{
			Mesh: m, Routes: set, VCs: vcs, DynamicVC: true,
			OfferedRate: 20, WarmupCycles: 2000, MeasureCycles: 15000, Seed: 5,
		})
		if res.Deadlocked {
			t.Fatalf("%d VCs deadlocked", vcs)
		}
		tput[vcs] = res.Throughput
	}
	// Head-of-line blocking relief: 4 VCs should not be meaningfully
	// worse than 1, and typically better on this congested pattern.
	if tput[4] < 0.95*tput[1] {
		t.Errorf("4 VCs (%.3f) much worse than 1 VC (%.3f)", tput[4], tput[1])
	}
}

func TestO1TURNStaticVCsSimulate(t *testing.T) {
	m := topology.NewMesh(8, 8)
	var flows []flowgraph.Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i, Name: "f", Src: topology.NodeID(i * 3), Dst: topology.NodeID(63 - i*2), Demand: 10,
		})
	}
	set, err := route.O1TURN{Seed: 9}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{
		Mesh: m, Routes: set, VCs: 2,
		OfferedRate: 8, WarmupCycles: 2000, MeasureCycles: 15000, Seed: 6,
	})
	if res.Deadlocked {
		t.Fatal("O1TURN deadlocked with per-order VCs")
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("no delivery")
	}
}

func TestROMMAndValiantSimulate(t *testing.T) {
	m := topology.NewMesh(8, 8)
	var flows []flowgraph.Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i, Name: "f", Src: topology.NodeID(i * 2), Dst: topology.NodeID(63 - i*3), Demand: 10,
		})
	}
	for _, alg := range []route.Algorithm{route.ROMM{Seed: 4}, route.Valiant{Seed: 4}} {
		set, err := alg.Routes(m, flows)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, Config{
			Mesh: m, Routes: set, VCs: 2,
			OfferedRate: 8, WarmupCycles: 2000, MeasureCycles: 15000, Seed: 7,
		})
		if res.Deadlocked {
			t.Fatalf("%s deadlocked", alg.Name())
		}
		if res.PacketsDelivered == 0 {
			t.Fatalf("%s delivered nothing", alg.Name())
		}
	}
}

func TestThroughputMonotoneBelowSaturation(t *testing.T) {
	m := topology.NewMesh(8, 8)
	var flows []flowgraph.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, flowgraph.Flow{
			ID: i, Name: "f", Src: topology.NodeID(i), Dst: topology.NodeID(56 + i), Demand: 10,
		})
	}
	set := xyRoutes(t, m, flows)
	prev := 0.0
	for _, rate := range []float64{0.1, 0.4, 0.8} {
		res := run(t, Config{
			Mesh: m, Routes: set, VCs: 2, DynamicVC: true,
			OfferedRate: rate, WarmupCycles: 2000, MeasureCycles: 20000, Seed: 8,
		})
		if res.Throughput < prev-0.02 {
			t.Errorf("throughput fell from %.3f to %.3f at offered %.1f",
				prev, res.Throughput, rate)
		}
		prev = res.Throughput
	}
}
