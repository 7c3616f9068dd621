package route

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// TestNotGridErrorTyped pins the typed error every grid-only baseline
// returns on a non-grid topology, so API boundaries can errors.As it.
func TestNotGridErrorTyped(t *testing.T) {
	ring := topology.NewRing(8)
	flows := []flowgraph.Flow{{ID: 0, Name: "f0", Src: 0, Dst: 3, Demand: 1}}
	for _, alg := range []Algorithm{XY{}, YX{}, ROMM{Seed: 1}, Valiant{Seed: 1}, O1TURN{Seed: 1}} {
		_, err := alg.Routes(ring, flows)
		var ng *NotGridError
		if !errors.As(err, &ng) {
			t.Errorf("%s on ring: err = %v (%T), want *NotGridError", alg.Name(), err, err)
			continue
		}
		if ng.Algorithm != alg.Name() {
			t.Errorf("%s: error blames %q", alg.Name(), ng.Algorithm)
		}
	}
}

// TestEqualEndpointsErrorTyped pins the typed error for degenerate
// flows.
func TestEqualEndpointsErrorTyped(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{{ID: 0, Name: "loop", Src: 5, Dst: 5, Demand: 1}}
	for _, alg := range []Algorithm{XY{}, YX{}, ROMM{Seed: 1}, Valiant{Seed: 1}, O1TURN{Seed: 1}} {
		_, err := alg.Routes(m, flows)
		var ee *EqualEndpointsError
		if !errors.As(err, &ee) {
			t.Errorf("%s: err = %v (%T), want *EqualEndpointsError", alg.Name(), err, err)
			continue
		}
		if ee.Flow != "loop" {
			t.Errorf("%s: error blames flow %q", alg.Name(), ee.Flow)
		}
	}
}

// TestNoPathErrorTyped pins the typed error selectors return when a flow
// has no conforming path: budget-bounded (MILP enumeration) and
// unbounded (Dijkstra on a CDG that disconnects the flow).
func TestNoPathErrorTyped(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{{ID: 0, Name: "far", Src: m.NodeAt(0, 0), Dst: m.NodeAt(3, 3), Demand: 1}}
	dag := cdg.TurnBreaker{Rule: cdg.LastRule(topology.North)}.Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 100)

	// A hop budget below the minimal distance leaves no candidates.
	sel := MILPSelector{HopSlack: -4, MaxPathsPerFlow: 4}
	_, err := sel.SelectContext(context.Background(), g)
	var np *NoPathError
	if !errors.As(err, &np) {
		t.Fatalf("budget-starved MILP: err = %v (%T), want *NoPathError", err, err)
	}
	if np.Flow != "far" || np.Budget <= 0 {
		t.Errorf("NoPathError = %+v, want flow far with a positive budget", np)
	}
}
