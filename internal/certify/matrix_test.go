package certify

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// matrixTopology pairs a topology with the breaker set registered for it:
// the standard fifteen on a mesh, the twelve dateline rules on a torus,
// and the graph-generic up*/down* family everywhere else — the same
// defaults experiments.ResolveBreakers installs.
type matrixTopology struct {
	topo     topology.Topology
	breakers []cdg.Breaker
}

func matrixTopologies(t *testing.T) []matrixTopology {
	t.Helper()
	faulted, err := topology.Faulted(topology.NewMesh(4, 4), 1, 2)
	if err != nil {
		t.Fatalf("Faulted: %v", err)
	}
	dateline := make([]cdg.Breaker, 0, 12)
	for _, r := range cdg.TwelveTurnRules() {
		dateline = append(dateline, cdg.DatelineBreaker{Rule: r})
	}
	return []matrixTopology{
		{topology.NewMesh(4, 4), cdg.StandardBreakers()},
		{topology.NewTorus(4, 4), dateline},
		{topology.NewRing(8), cdg.GraphBreakers(8)},
		{topology.NewFullMesh(6), cdg.GraphBreakers(6)},
		{topology.NewFoldedClos(3, 4), cdg.GraphBreakers(7)},
		{faulted, cdg.GraphBreakers(faulted.NumNodes())},
	}
}

func matrixFlows(t *testing.T, g topology.Topology) []flowgraph.Flow {
	t.Helper()
	flows, err := traffic.RandomPermutation(g, 25, 7)
	if err != nil {
		t.Fatalf("%s: RandomPermutation: %v", topoLabel(g), err)
	}
	return flows
}

// matrixSets synthesizes the route sets of the three selectors of the
// acceptance matrix under one breaker: BSOR-MILP (fast budget),
// BSOR-Heuristic, and the SP baseline forced onto the same CDG.
func matrixSets(t *testing.T, g topology.Topology, flows []flowgraph.Flow, b cdg.Breaker) map[string]*route.Set {
	t.Helper()
	selectors := []struct {
		name string
		sel  route.Selector
	}{
		{"BSOR-MILP", route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 8, MaxNodes: 30, Gap: 0.01}},
		{"BSOR-Heuristic", route.BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 16}},
	}
	sets := make(map[string]*route.Set, 3)
	for _, sc := range selectors {
		cfg := core.Config{VCs: 2, Breakers: []cdg.Breaker{b}, Selector: sc.sel}
		set, _, err := core.BestContext(context.Background(), g, flows, cfg)
		if errors.Is(err, core.ErrInfeasible) {
			// A breaker that cannot route this workload is a legitimate n/a
			// cell of the exploration table, not a checker failure.
			t.Logf("%s via %s: %s infeasible, cell skipped", topoLabel(g), b.Name(), sc.name)
			continue
		}
		if err != nil {
			t.Fatalf("%s via %s: %s: %v", topoLabel(g), b.Name(), sc.name, err)
		}
		sets[sc.name] = set
	}
	set, err := route.ShortestPath{VCs: 2, Breaker: b}.Routes(g, flows)
	if err == nil {
		sets["SP"] = set
	} else {
		t.Logf("%s via %s: SP infeasible, cell skipped: %v", topoLabel(g), b.Name(), err)
	}
	return sets
}

// TestCertifyMatrix is the acceptance matrix of the checker: every
// registered breaker x {mesh, torus, ring, full mesh, folded Clos,
// faulted mesh} x {BSOR-MILP, BSOR-Heuristic, SP} must produce a
// certificate that Check re-verifies.
func TestCertifyMatrix(t *testing.T) {
	certified := 0
	for _, mt := range matrixTopologies(t) {
		flows := matrixFlows(t, mt.topo)
		for _, b := range mt.breakers {
			dag := b.Break(cdg.NewFull(mt.topo, 2))
			for name, set := range matrixSets(t, mt.topo, flows, b) {
				in := Instance{Topo: mt.topo, CDG: dag, Routes: set, VCs: 2}
				cert, err := Certify(in)
				if err != nil {
					t.Fatalf("%s via %s, %s: Certify: %v", topoLabel(mt.topo), b.Name(), name, err)
				}
				if err := cert.Check(in); err != nil {
					t.Fatalf("%s via %s, %s: Check: %v", topoLabel(mt.topo), b.Name(), name, err)
				}
				certified++
			}
		}
	}
	// 6 topologies x {15, 12, 6, 6, 6, 6} breakers x 3 selectors = 153
	// cells; allow a small number of legitimately infeasible cells.
	if certified < 140 {
		t.Fatalf("only %d matrix cells certified, want >= 140", certified)
	}
	t.Logf("certified %d matrix cells", certified)
}

// TestCertifyMatrixRejectsMutants flips one CDG edge of a certified
// instance on every matrix topology — the reverse of an edge the acyclic
// CDG contains — and requires a concrete counterexample cycle whose every
// step is a real edge of the mutant.
func TestCertifyMatrixRejectsMutants(t *testing.T) {
	for _, mt := range matrixTopologies(t) {
		flows := matrixFlows(t, mt.topo)
		b := mt.breakers[0]
		set, err := route.ShortestPath{VCs: 2, Breaker: b}.Routes(mt.topo, flows)
		if err != nil {
			t.Fatalf("%s: SP: %v", topoLabel(mt.topo), err)
		}
		dag := b.Break(cdg.NewFull(mt.topo, 2))
		// Deterministically pick the first edge and flip it.
		var u, v cdg.VertexID = -1, -1 // -1: no edge found yet
		for x := 0; x < dag.NumVertices() && u < 0; x++ {
			if out := dag.Out(cdg.VertexID(x)); len(out) > 0 {
				u, v = cdg.VertexID(x), out[0]
			}
		}
		if u < 0 {
			t.Fatalf("%s: broken CDG has no edges", topoLabel(mt.topo))
		}
		mutant := dag.WithEdge(v, u)
		in := Instance{Topo: mt.topo, CDG: mutant, Routes: set, VCs: 2}
		_, err = Certify(in)
		var ce *Counterexample
		if !errors.As(err, &ce) || ce.Kind != KindCycle {
			t.Fatalf("%s: flipped-edge mutant not refuted with a cycle: %v", topoLabel(mt.topo), err)
		}
		if len(ce.Cycle)-1 != 2 {
			t.Fatalf("%s: minimal counterexample has length %d, want the 2-cycle", topoLabel(mt.topo), len(ce.Cycle)-1)
		}
		for i := 0; i+1 < len(ce.Cycle); i++ {
			a := mutant.Vertex(ce.Cycle[i].Channel, ce.Cycle[i].VC)
			c := mutant.Vertex(ce.Cycle[i+1].Channel, ce.Cycle[i+1].VC)
			if !mutant.HasEdge(a, c) {
				t.Fatalf("%s: counterexample step %d is not a mutant edge", topoLabel(mt.topo), i)
			}
		}
	}
}
