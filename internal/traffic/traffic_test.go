package traffic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/flowgraph"
	"repro/internal/topology"
)

func mesh8() *topology.Mesh { return topology.NewMesh(8, 8) }

// mustFlows unwraps a synthetic-pattern result in tests whose topologies
// are known-good.
func mustFlows(t *testing.T) func([]flowgraph.Flow, error) []flowgraph.Flow {
	return func(flows []flowgraph.Flow, err error) []flowgraph.Flow {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return flows
	}
}

func TestTransposePattern(t *testing.T) {
	m := mesh8()
	flows := mustFlows(t)(Transpose(m, 25))
	// 64 nodes minus the 8 diagonal self-pairs.
	if len(flows) != 56 {
		t.Fatalf("transpose flow count = %d, want 56", len(flows))
	}
	for _, f := range flows {
		sx, sy := m.XY(f.Src)
		dx, dy := m.XY(f.Dst)
		if dx != sy || dy != sx {
			t.Fatalf("flow %s: (%d,%d)->(%d,%d) is not a transpose", f.Name, sx, sy, dx, dy)
		}
		if f.Demand != 25 {
			t.Fatalf("flow %s demand = %g", f.Name, f.Demand)
		}
	}
}

func TestBitComplementPattern(t *testing.T) {
	m := mesh8()
	flows := mustFlows(t)(BitComplement(m, 25))
	if len(flows) != 64 {
		t.Fatalf("bit-complement flow count = %d, want 64 (no fixed points)", len(flows))
	}
	for _, f := range flows {
		sx, sy := m.XY(f.Src)
		dx, dy := m.XY(f.Dst)
		if dx != 7-sx || dy != 7-sy {
			t.Fatalf("flow %s: not a complement", f.Name)
		}
	}
}

func TestShufflePattern(t *testing.T) {
	m := mesh8()
	flows := mustFlows(t)(Shuffle(m, 25))
	// Fixed points of rotate-left on 6 bits: 000000 and 111111.
	if len(flows) != 62 {
		t.Fatalf("shuffle flow count = %d, want 62", len(flows))
	}
	for _, f := range flows {
		s, d := int(f.Src), int(f.Dst)
		want := (s<<1 | s>>5) & 63
		if d != want {
			t.Fatalf("shuffle(%d) = %d, want %d", s, d, want)
		}
	}
}

func TestPatternsArePermutationLike(t *testing.T) {
	m := mesh8()
	for _, gen := range []func(topology.Topology, float64) ([]flowgraph.Flow, error){
		Transpose, BitComplement, Shuffle,
	} {
		flows := mustFlows(t)(gen(m, 1))
		srcSeen := map[topology.NodeID]bool{}
		dstSeen := map[topology.NodeID]bool{}
		for _, f := range flows {
			if srcSeen[f.Src] || dstSeen[f.Dst] {
				t.Fatal("pattern is not a partial permutation")
			}
			srcSeen[f.Src] = true
			dstSeen[f.Dst] = true
			if f.Src == f.Dst {
				t.Fatal("self flow emitted")
			}
		}
	}
}

func TestSyntheticRequiresPowerOfTwo(t *testing.T) {
	for _, gen := range []func(topology.Topology, float64) ([]flowgraph.Flow, error){
		Transpose, BitComplement, Shuffle,
	} {
		_, err := gen(topology.NewMesh(3, 3), 1)
		var npot *NonPowerOfTwoError
		if !errors.As(err, &npot) {
			t.Fatalf("9-node mesh: got %v, want *NonPowerOfTwoError", err)
		}
		if npot.Nodes != 9 {
			t.Errorf("error reports %d nodes, want 9", npot.Nodes)
		}
	}
	// The typed error also fires on non-grid topologies.
	if _, err := Shuffle(topology.NewRing(12), 1); err == nil {
		t.Error("12-node ring accepted for a bit pattern")
	}
}

func TestTransposeRequiresEvenBits(t *testing.T) {
	_, err := Transpose(topology.NewMesh(8, 4), 1) // 32 nodes, 5 bits
	var oaw *OddAddressWidthError
	if !errors.As(err, &oaw) {
		t.Fatalf("got %v, want *OddAddressWidthError", err)
	}
	if oaw.Nodes != 32 || oaw.Bits != 5 {
		t.Errorf("error reports %d nodes / %d bits, want 32 / 5", oaw.Nodes, oaw.Bits)
	}
}

func TestRandomPermutationAnyTopology(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh(8, 8), topology.NewRing(7), topology.NewFullMesh(5),
		topology.NewFoldedClos(3, 6),
	}
	for _, topo := range topos {
		flows, err := RandomPermutation(topo, 10, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(flows) != topo.NumNodes() {
			t.Fatalf("%d flows on %d nodes", len(flows), topo.NumNodes())
		}
		srcSeen := map[topology.NodeID]bool{}
		dstSeen := map[topology.NodeID]bool{}
		for _, f := range flows {
			if f.Src == f.Dst {
				t.Fatal("self flow emitted")
			}
			if srcSeen[f.Src] || dstSeen[f.Dst] {
				t.Fatal("not a permutation")
			}
			srcSeen[f.Src], dstSeen[f.Dst] = true, true
			if f.Demand != 10 {
				t.Fatalf("demand %g", f.Demand)
			}
		}
	}
}

func TestRandomPermutationDeterministicPerSeed(t *testing.T) {
	topo := topology.NewRing(9)
	a, err := RandomPermutation(topo, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPermutation(topo, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
	c, err := RandomPermutation(topo, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Dst != c[i].Dst {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 3 and 4 produced the same permutation")
	}
}

func TestPlacedAppOnIrregularTopology(t *testing.T) {
	ring := topology.NewRing(8)
	placement := map[string]topology.NodeID{
		"Fetch": 0, "Imem": 1, "Decode": 2, "Dmem": 3, "RegFile": 4, "Execute": 5,
	}
	app, err := PlacedApp(ring, "perfmodel", placement)
	if err != nil {
		t.Fatal(err)
	}
	checkApp(t, app, 11, 62.73)
	if _, err := PlacedApp(ring, "nonsense", placement); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := PlacedApp(ring, "perfmodel", map[string]topology.NodeID{"Fetch": 99}); err == nil {
		t.Error("out-of-range placement accepted")
	}
	if _, err := PlacedApp(ring, "perfmodel", map[string]topology.NodeID{"Fetch": 0}); err == nil {
		t.Error("incomplete placement accepted")
	}
	clash := map[string]topology.NodeID{
		"Fetch": 0, "Imem": 0, "Decode": 2, "Dmem": 3, "RegFile": 4, "Execute": 5,
	}
	if _, err := PlacedApp(ring, "perfmodel", clash); err == nil {
		t.Error("clashing placement accepted")
	}
}

func checkApp(t *testing.T, app *App, wantFlows int, wantMax float64) {
	t.Helper()
	if len(app.Flows) != wantFlows {
		t.Fatalf("%s flow count = %d, want %d", app.Name, len(app.Flows), wantFlows)
	}
	max := 0.0
	for _, f := range app.Flows {
		if f.Src == f.Dst {
			t.Fatalf("%s flow %s is a self loop", app.Name, f.Name)
		}
		if f.Demand <= 0 {
			t.Fatalf("%s flow %s demand = %g", app.Name, f.Name, f.Demand)
		}
		if f.Demand > max {
			max = f.Demand
		}
	}
	if math.Abs(max-wantMax) > 1e-9 {
		t.Errorf("%s max demand = %g, want %g", app.Name, max, wantMax)
	}
}

func TestH264Decoder(t *testing.T) {
	app, err := H264Decoder(mesh8())
	if err != nil {
		t.Fatal(err)
	}
	checkApp(t, app, 15, 120.4)
	if len(app.Modules) != 9 {
		t.Errorf("H.264 module count = %d, want 9", len(app.Modules))
	}
	// Published rates from Fig. 5-1 that anchor the evaluation.
	byName := map[string]float64{}
	for _, f := range app.Flows {
		byName[f.Name] = f.Demand
	}
	for name, want := range map[string]float64{
		"f7": 120.4, "f14": 41.47, "f15": 0.473, "f1": 39.7,
	} {
		if got := byName[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("H.264 %s demand = %g, want %g", name, got, want)
		}
	}
}

func TestPerfModeling(t *testing.T) {
	app, err := PerfModeling(mesh8())
	if err != nil {
		t.Fatal(err)
	}
	checkApp(t, app, 11, 62.73)
	if len(app.Modules) != 6 {
		t.Errorf("perf modeling module count = %d, want 6", len(app.Modules))
	}
}

func TestTransmitter80211(t *testing.T) {
	app, err := Transmitter80211(mesh8())
	if err != nil {
		t.Fatal(err)
	}
	checkApp(t, app, 20, 58.72/8)
	if len(app.Modules) != 17 {
		t.Errorf("transmitter module count = %d, want 17", len(app.Modules))
	}
	// Table 5.2 spot checks, converted to MB/s.
	byName := map[string]float64{}
	for _, f := range app.Flows {
		byName[f.Name] = f.Demand
	}
	if math.Abs(byName["f9"]-7.34) > 1e-9 {
		t.Errorf("f9 = %g MB/s, want 7.34", byName["f9"])
	}
	if math.Abs(byName["f4"]-6.0) > 1e-9 {
		t.Errorf("f4 = %g MB/s, want 6.0", byName["f4"])
	}
}

func TestAppPlacementsDistinct(t *testing.T) {
	m := mesh8()
	for _, build := range []func(topology.Grid) (*App, error){H264Decoder, PerfModeling, Transmitter80211} {
		app, err := build(m)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[topology.NodeID]string{}
		for mod, n := range app.Modules {
			if prev, ok := seen[n]; ok {
				t.Errorf("%s: modules %s and %s share a node", app.Name, prev, mod)
			}
			seen[n] = mod
		}
	}
}

func TestMMPStaysWithinBand(t *testing.T) {
	mmp := NewMMP(100, 0.25, 50, 1)
	for i := 0; i < 20000; i++ {
		r := mmp.Advance()
		if r < 75-1e-9 || r > 125+1e-9 {
			t.Fatalf("cycle %d: rate %g outside [75,125]", i, r)
		}
	}
	if mmp.Base() != 100 {
		t.Error("Base changed")
	}
}

func TestMMPActuallyVaries(t *testing.T) {
	mmp := NewMMP(100, 0.25, 20, 2)
	lo, hi := math.Inf(1), math.Inf(-1)
	changes := 0
	prev := mmp.Advance()
	for i := 0; i < 10000; i++ {
		r := mmp.Advance()
		if r != prev {
			changes++
		}
		prev = r
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if changes < 50 {
		t.Errorf("only %d rate changes in 10000 cycles", changes)
	}
	if hi <= 100 || lo >= 100 {
		t.Errorf("rates never crossed the base: [%g, %g]", lo, hi)
	}
}

func TestMMPHoldsRates(t *testing.T) {
	mmp := NewMMP(100, 0.5, 100, 3)
	// Consecutive cycles mostly share a rate (piecewise constant).
	same := 0
	prev := mmp.Advance()
	for i := 0; i < 5000; i++ {
		r := mmp.Advance()
		if r == prev {
			same++
		}
		prev = r
	}
	if same < 4500 {
		t.Errorf("rate held on only %d/5000 transitions; not piecewise constant", same)
	}
}

func TestMMPDeterministicPerSeed(t *testing.T) {
	a := NewMMP(10, 0.1, 30, 7)
	b := NewMMP(10, 0.1, 30, 7)
	for i := 0; i < 1000; i++ {
		if a.Advance() != b.Advance() {
			t.Fatal("MMP not deterministic for equal seeds")
		}
	}
}

// Property: MMP rates always within the band for arbitrary parameters.
func TestMMPProperty(t *testing.T) {
	f := func(seed int64, pctByte uint8) bool {
		pct := float64(pctByte%51) / 100 // 0..0.5
		mmp := NewMMP(40, pct, 25, seed)
		for i := 0; i < 500; i++ {
			r := mmp.Advance()
			if r < 40*(1-pct)-1e-9 || r > 40*(1+pct)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPlacementErrorTyped pins the typed error the profiled-application
// constructors return when their documented placements do not fit the
// grid, so API boundaries can errors.As it. The blamed module is
// deterministic (sorted module order) because the experiment engine's
// JSON output embeds the message.
func TestPlacementErrorTyped(t *testing.T) {
	small := topology.NewMesh(4, 4)
	for _, tc := range []struct {
		name  string
		build func(topology.Grid) (*App, error)
		mod   string
	}{
		{"h264", H264Decoder, "M3"},
		{"perfmodel", PerfModeling, "Decode"},
		{"wifi-tx", Transmitter80211, "DAC"},
	} {
		_, err := tc.build(small)
		var pe *PlacementError
		if !errors.As(err, &pe) {
			t.Errorf("%s on 4x4: err = %v (%T), want *PlacementError", tc.name, err, err)
			continue
		}
		if pe.App != tc.name || pe.Module != tc.mod {
			t.Errorf("%s: error blames %s/%s, want module %s", tc.name, pe.App, pe.Module, tc.mod)
		}
	}
	// PlacedApp shares the same typed error for bad explicit placements.
	_, err := PlacedApp(topology.NewRing(4), "perfmodel", map[string]topology.NodeID{
		"Fetch": 0, "Imem": 1, "Decode": 2, "Dmem": 3, "RegFile": 9, "Execute": 5,
	})
	var pe *PlacementError
	if !errors.As(err, &pe) {
		t.Errorf("PlacedApp out-of-range: err = %v (%T), want *PlacementError", err, err)
	}
}

// TestTooFewNodesErrorTyped pins the typed error RandomPermutation
// returns on degenerate topologies.
func TestTooFewNodesErrorTyped(t *testing.T) {
	_, err := RandomPermutation(topology.NewMesh(1, 1), 1, 1)
	var tf *TooFewNodesError
	if !errors.As(err, &tf) {
		t.Fatalf("err = %v (%T), want *TooFewNodesError", err, err)
	}
	if tf.Nodes != 1 {
		t.Errorf("error reports %d nodes, want 1", tf.Nodes)
	}
}
