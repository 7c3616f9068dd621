package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestExploreCoversAllBreakers(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows, err := traffic.Transpose(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ExploreContext(context.Background(), m, flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 15 {
		t.Fatalf("explored %d CDGs, want the thesis' 15", len(results))
	}
	okCount := 0
	for _, ex := range results {
		if ex.Err == nil {
			okCount++
			if ex.MCL <= 0 {
				t.Errorf("%s: MCL %g", ex.Breaker, ex.MCL)
			}
			if err := ex.Set.DeadlockFree(2); err != nil {
				t.Errorf("%s: %v", ex.Breaker, err)
			}
		}
	}
	if okCount < 12 {
		t.Errorf("only %d/15 CDGs admitted routes", okCount)
	}
}

// Table 6.2's headline: exploring CDGs with BSOR_Dijkstra reaches MCL 75 on
// 8x8 transpose; every DOR baseline sits at 175.
func TestBestTransposeDijkstraReaches75(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows, err := traffic.Transpose(m, traffic.DefaultSyntheticDemand)
	if err != nil {
		t.Fatal(err)
	}
	set, ex, err := BestContext(context.Background(), m, flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mcl, _ := set.MCL()
	if mcl != 75 {
		t.Errorf("best transpose MCL = %g (via %s), want 75", mcl, ex.Breaker)
	}
	if err := set.DeadlockFree(2); err != nil {
		t.Fatal(err)
	}
}

// Bit-complement is symmetric: BSOR cannot beat DOR (both reach 100 with
// demand 25, per Table 6.3).
func TestBestBitComplementMatchesDOR(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows, err := traffic.BitComplement(m, traffic.DefaultSyntheticDemand)
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := BestContext(context.Background(), m, flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mcl, _ := set.MCL()
	xySet, err := route.XY{}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	xyMCL, _ := xySet.MCL()
	if mcl > xyMCL {
		t.Errorf("BSOR bit-complement MCL %g worse than XY %g", mcl, xyMCL)
	}
}

func TestBestValidatesAndIsolatesHeaviestH264Flow(t *testing.T) {
	m := topology.NewMesh(8, 8)
	app, err := traffic.H264Decoder(m)
	if err != nil {
		t.Fatal(err)
	}
	set, ex, err := BestContext(context.Background(), m, app.Flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mcl, _ := set.MCL()
	// The 120.4 MB/s memory-controller flow lower-bounds the MCL; the
	// thesis' best CDG achieves it exactly (Table 6.1), i.e. routing
	// isolates f7.
	if mcl != 120.4 {
		t.Errorf("H.264 best MCL = %g (via %s), want 120.4", mcl, ex.Breaker)
	}
}

func TestBSORAlgorithmAdapter(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows, err := traffic.Transpose(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	alg := BSOR{Label: "BSOR-Dijkstra"}
	if alg.Name() != "BSOR-Dijkstra" {
		t.Errorf("Name = %q", alg.Name())
	}
	set, err := alg.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Routes) != len(flows) {
		t.Fatalf("routes %d != flows %d", len(set.Routes), len(flows))
	}
	if (BSOR{}).Name() != "BSOR" {
		t.Errorf("default Name = %q", (BSOR{}).Name())
	}
	named := BSOR{Config: Config{Selector: route.DijkstraSelector{}}}
	if named.Name() != "BSOR-Dijkstra" {
		t.Errorf("selector-derived Name = %q", named.Name())
	}
}

func TestBestWithMILPSelectorSmall(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows, err := traffic.Transpose(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Selector: route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 48},
		Breakers: []cdg.Breaker{
			cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)},
			cdg.TurnBreaker{Rule: cdg.WestFirst},
		},
	}
	set, ex, err := BestContext(context.Background(), m, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	milpMCL, _ := set.MCL()

	dijkstraSet, _, err := BestContext(context.Background(), m, flows, Config{Breakers: cfg.Breakers})
	if err != nil {
		t.Fatal(err)
	}
	dMCL, _ := dijkstraSet.MCL()
	// Thesis: MILP solutions always have MCL <= Dijkstra's.
	if milpMCL > dMCL+1e-9 {
		t.Errorf("MILP MCL %g (via %s) worse than Dijkstra %g", milpMCL, ex.Breaker, dMCL)
	}
}

func TestBestErrorsWhenNoCDGWorks(t *testing.T) {
	m := topology.NewMesh(3, 3)
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 8, Demand: 1}}
	// A breaker that deletes every dependence disconnects all multi-hop
	// flows.
	empty := emptyBreaker{}
	_, _, err := BestContext(context.Background(), m, flows, Config{Breakers: []cdg.Breaker{empty}})
	if err == nil || !strings.Contains(err.Error(), "no acyclic CDG") {
		t.Fatalf("err = %v, want no-CDG error", err)
	}
}

type emptyBreaker struct{}

func (emptyBreaker) Name() string { return "empty" }
func (emptyBreaker) Break(full *cdg.Graph) *cdg.Graph {
	return full.Filter(func(u, v cdg.VertexID) bool { return false })
}

func TestConfigDefaultCapacityScalesWithDemand(t *testing.T) {
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 1, Demand: 30}}
	cfg := Config{}.withDefaults(flows)
	if cfg.ChannelCapacity != 120 {
		t.Errorf("default capacity = %g, want 4x30", cfg.ChannelCapacity)
	}
	if cfg.VCs != 2 || len(cfg.Breakers) != 15 || cfg.Selector == nil {
		t.Error("defaults not applied")
	}
}
