package route

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// referenceDeadlockFree is the map-based Dally–Seitz check DeadlockFree
// replaced: nested maps of used (channel, VC) dependences and Kahn's
// algorithm over them. DeadlockFree must return its verdict and its error
// text on every route set whose hops lie in channel×VCs.
func referenceDeadlockFree(s *Set) error {
	type vertex struct {
		ch topology.ChannelID
		vc int
	}
	adj := make(map[vertex]map[vertex]bool)
	for _, r := range s.Routes {
		for i := 0; i+1 < len(r.Channels); i++ {
			u := vertex{r.Channels[i], r.VCs[i]}
			v := vertex{r.Channels[i+1], r.VCs[i+1]}
			if adj[u] == nil {
				adj[u] = make(map[vertex]bool)
			}
			adj[u][v] = true
		}
	}
	indeg := make(map[vertex]int)
	for u, succ := range adj {
		if _, ok := indeg[u]; !ok {
			indeg[u] = 0
		}
		for v := range succ {
			indeg[v]++
		}
	}
	queue := make([]vertex, 0, len(indeg))
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	removed := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if removed != len(indeg) {
		return fmt.Errorf("route: channel dependence cycle among %d (channel,vc) vertices: routes are not deadlock-free",
			len(indeg)-removed)
	}
	return nil
}

// TestDeadlockFreeMatchesReference compares DeadlockFree with the map
// version on valid route sets (baselines and Dijkstra selections) and on
// known-cyclic mutants of them: every VC forced to 0, and XY merged with
// YX on one VC.
func TestDeadlockFreeMatchesReference(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cyclic, checked := 0, 0
	check := func(what string, set *Set, vcs int) {
		t.Helper()
		want, got := referenceDeadlockFree(set), set.DeadlockFree(vcs)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s (vcs %d): DeadlockFree = %v, reference %v", what, vcs, got, want)
		}
		checked++
		if want != nil {
			cyclic++
		}
	}
	zeroVCs := func(set *Set) *Set {
		out := &Set{Topo: set.Topo, Routes: make([]Route, len(set.Routes))}
		for i, r := range set.Routes {
			r.VCs = make([]int, len(r.Channels))
			out.Routes[i] = r
		}
		return out
	}
	dag := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, 2))
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := make([]flowgraph.Flow, 6+rng.Intn(30))
		for i := range flows {
			src := rng.Intn(m.NumNodes())
			dst := rng.Intn(m.NumNodes() - 1)
			if dst >= src {
				dst++
			}
			flows[i] = flowgraph.Flow{ID: i, Name: fmt.Sprintf("f%d", i),
				Src: topology.NodeID(src), Dst: topology.NodeID(dst), Demand: float64(1 + rng.Intn(40))}
		}
		sets := map[string]*Set{}
		for _, a := range []Algorithm{XY{}, YX{}, ROMM{Seed: seed}, Valiant{Seed: seed}, O1TURN{Seed: seed}} {
			set, err := a.Routes(m, flows)
			if err != nil {
				t.Fatal(err)
			}
			sets[a.Name()] = set
		}
		dset, err := DijkstraSelector{}.SelectContext(context.Background(), flowgraph.New(dag, flows, 100))
		if err != nil {
			t.Fatal(err)
		}
		sets["dijkstra"] = dset
		for name, set := range sets {
			what := fmt.Sprintf("seed %d %s", seed, name)
			check(what, set, 2)
			check(what, set, 4)
			check(what+" on VC 0", zeroVCs(set), 1)
		}
		merged := &Set{Topo: m, Routes: append(append([]Route(nil), sets["XY"].Routes...), sets["YX"].Routes...)}
		check(fmt.Sprintf("seed %d XY+YX", seed), merged, 1)
	}
	if cyclic < 8 || cyclic == checked {
		t.Fatalf("%d of %d sets cyclic; the mutants no longer exercise both verdicts", cyclic, checked)
	}
}

// TestDeadlockFreeRejectsHopOutsideVCs: a dependence on a VC the check was
// not given names no vertex of channel×VCs and is an error, not a panic.
func TestDeadlockFreeRejectsHopOutsideVCs(t *testing.T) {
	m := topology.NewMesh(3, 3)
	set, err := XY{}.Routes(m, []flowgraph.Flow{{Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	set.Routes[0].VCs[1] = 1
	if err := set.DeadlockFree(2); err != nil {
		t.Fatalf("VC 1 of 2 rejected: %v", err)
	}
	if err := set.DeadlockFree(1); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("VC 1 of 1 accepted or misreported: %v", err)
	}
}
