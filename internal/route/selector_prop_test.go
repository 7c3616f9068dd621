package route

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// Property tests: every selector and baseline, on randomized topologies and
// flow sets, must produce routes that are connected source-to-destination,
// stay inside the VC range, and induce an acyclic channel dependence graph
// (deadlock freedom). BSOR selectors must additionally conform to the CDG
// they were given, and BSORHeuristic's max channel load must bracket the
// MILP optimum: never better (sanity), never worse than the documented
// heuristicSlack factor.

// heuristicSlack documents the approximation quality the property tests
// hold BSORHeuristic to: on the randomized instances of the test suite its
// maximum channel load stays within this factor of the BSOR-MILP optimum.
// The greedy carries no worst-case guarantee — a bad routing order can cost
// more on adversarial inputs — but the bound has held with margin across
// the randomized topologies, CDGs, and flow sets exercised in CI.
const heuristicSlack = 2.0

// randomFlows draws nf distinct-endpoint flows with random demands.
func randomFlows(rng *rand.Rand, g topology.Grid, nf int) []flowgraph.Flow {
	flows := make([]flowgraph.Flow, 0, nf)
	for len(flows) < nf {
		src := topology.NodeID(rng.Intn(g.NumNodes()))
		dst := topology.NodeID(rng.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		flows = append(flows, flowgraph.Flow{
			ID: len(flows), Name: fmt.Sprintf("f%d", len(flows)),
			Src: src, Dst: dst, Demand: float64(5 + rng.Intn(40)),
		})
	}
	return flows
}

// propInstance is one randomized topology + CDG + flow set.
type propInstance struct {
	name  string
	grid  topology.Grid
	vcs   int
	flows []flowgraph.Flow
	dag   *cdg.Graph
}

func propInstances(t *testing.T, trials int) []propInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	rules := []cdg.TurnRule{cdg.WestFirst, cdg.NorthLast, cdg.XYOrder,
		cdg.NegativeFirstRule(topology.West, topology.North)}
	var out []propInstance
	for i := 0; i < trials; i++ {
		w, h := 3+rng.Intn(3), 3+rng.Intn(3)
		grid := topology.Grid(topology.NewMesh(w, h))
		vcs := 1 + rng.Intn(3)
		rule := rules[rng.Intn(len(rules))]
		var dag *cdg.Graph
		if rng.Intn(4) == 0 && vcs >= 2 {
			dag = cdg.VCEscalationBreaker{Rule: rule}.Break(cdg.NewFull(grid, vcs))
		} else {
			dag = cdg.TurnBreaker{Rule: rule}.Break(cdg.NewFull(grid, vcs))
		}
		out = append(out, propInstance{
			name:  fmt.Sprintf("mesh%dx%d-vc%d-%s-%d", w, h, vcs, rule.Name(), i),
			grid:  grid,
			vcs:   vcs,
			flows: randomFlows(rng, grid, 2+rng.Intn(6)),
			dag:   dag,
		})
	}
	return out
}

// checkSet runs the shared structural properties on a selected route set.
func checkSet(t *testing.T, set *Set, vcs int) {
	t.Helper()
	if err := set.Validate(vcs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := set.DeadlockFree(vcs); err != nil {
		t.Fatalf("DeadlockFree: %v", err)
	}
}

func TestPropertyBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		w, h := 3+rng.Intn(4), 3+rng.Intn(4)
		m := topology.NewMesh(w, h)
		flows := randomFlows(rng, m, 3+rng.Intn(8))
		algs := []Algorithm{XY{}, YX{}, ROMM{Seed: int64(trial)},
			Valiant{Seed: int64(trial)}, O1TURN{Seed: int64(trial)}}
		for _, alg := range algs {
			set, err := alg.Routes(m, flows)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.Name(), err)
			}
			checkSet(t, set, 2)
		}
	}
}

func TestPropertyBSORSelectors(t *testing.T) {
	for _, inst := range propInstances(t, 10) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			g := flowgraph.New(inst.dag, inst.flows, 1000)
			selectors := []Selector{
				DijkstraSelector{},
				MILPSelector{HopSlack: 2, MaxPathsPerFlow: 16, MaxNodes: 60},
				BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 16},
			}
			for _, sel := range selectors {
				set, err := sel.SelectContext(context.Background(), g)
				if err != nil {
					t.Fatalf("%s: %v", sel.Name(), err)
				}
				checkSet(t, set, inst.vcs)
				if err := set.Conforms(inst.dag); err != nil {
					t.Fatalf("%s: Conforms: %v", sel.Name(), err)
				}
			}
		})
	}
}

// TestPropertyHeuristicBracketsMILP asserts the approximation contract: on
// every random instance, the heuristic's MCL is no better than the MILP
// optimum (the MILP would have found anything better) and no worse than
// heuristicSlack times it.
func TestPropertyHeuristicBracketsMILP(t *testing.T) {
	for _, inst := range propInstances(t, 10) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			g := flowgraph.New(inst.dag, inst.flows, 1000)
			// Shared candidate budget: the bound is only meaningful when
			// the heuristic chooses from the same pool the MILP optimizes
			// over (the MILP additionally pools three Dijkstra route sets,
			// which can only help it).
			milp := MILPSelector{HopSlack: 2, MaxPathsPerFlow: 24}
			heur := BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 24}
			mset, err := milp.SelectContext(context.Background(), g)
			if err != nil {
				t.Fatalf("MILP: %v", err)
			}
			hset, err := heur.SelectContext(context.Background(), g)
			if err != nil {
				t.Fatalf("heuristic: %v", err)
			}
			mMCL, _ := mset.MCL()
			hMCL, _ := hset.MCL()
			if hMCL < mMCL-1e-6 {
				t.Fatalf("heuristic MCL %g beats MILP optimum %g: MILP not optimal over its pool", hMCL, mMCL)
			}
			if hMCL > heuristicSlack*mMCL+1e-6 {
				t.Fatalf("heuristic MCL %g exceeds %gx the MILP optimum %g", hMCL, heuristicSlack, mMCL)
			}
		})
	}
}

// TestPropertyTorusDateline runs the selector properties on tori under
// dateline CDGs, where wraparound rings are the deadlock hazard.
func TestPropertyTorusDateline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rules := cdg.TwelveTurnRules()
	for trial := 0; trial < 6; trial++ {
		w, h := 4+rng.Intn(2), 4+rng.Intn(2)
		tor := topology.NewTorus(w, h)
		vcs := 2
		dag := cdg.DatelineBreaker{Rule: rules[rng.Intn(len(rules))]}.Break(cdg.NewFull(tor, vcs))
		if !dag.IsAcyclic() {
			t.Fatalf("trial %d: dateline CDG cyclic", trial)
		}
		flows := randomFlows(rng, tor, 3+rng.Intn(5))
		g := flowgraph.New(dag, flows, 1000)
		for _, sel := range []Selector{DijkstraSelector{}, BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 16}} {
			set, err := sel.SelectContext(context.Background(), g)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sel.Name(), err)
			}
			checkSet(t, set, vcs)
			if err := set.Conforms(dag); err != nil {
				t.Fatalf("trial %d %s: %v", trial, sel.Name(), err)
			}
		}
	}
}
