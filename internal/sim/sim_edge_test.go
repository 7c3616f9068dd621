package sim

import (
	"math"
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
