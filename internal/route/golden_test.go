package route

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// Golden determinism tests for route synthesis, mirroring
// internal/sim/golden_test.go: the full synthesis output (every route's
// channel/VC sequence plus the max channel load) must be byte-identical
// across candidate-enumeration worker counts (1/4/8) and across repeated
// runs for a fixed seed. Any change that perturbs the candidate merge
// order, the LP constraint order, or a solver tie-break fails loudly and
// must consciously regenerate the table (run with ROUTE_GOLDEN_PRINT=1).

// serializeSet renders a route set into a canonical string.
func serializeSet(set *Set) string {
	var b strings.Builder
	mcl, ch := set.MCL()
	fmt.Fprintf(&b, "mcl=%.9g@%d\n", mcl, ch)
	for i, r := range set.Routes {
		fmt.Fprintf(&b, "%d:", i)
		for k, c := range r.Channels {
			fmt.Fprintf(&b, " %d/%d", c, r.VCs[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func setDigest(set *Set) string {
	h := fnv.New64a()
	h.Write([]byte(serializeSet(set)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenGraph is the fixed synthesis instance: 6x6 transpose on the
// negative-first CDG with 2 VCs.
func goldenGraph(t *testing.T) *flowgraph.Graph {
	t.Helper()
	m := topology.NewMesh(6, 6)
	flows := transposeFlows(m, 25)
	rule := cdg.NegativeFirstRule(topology.West, topology.North)
	dag := cdg.TurnBreaker{Rule: rule}.Break(cdg.NewFull(m, 2))
	return flowgraph.New(dag, flows, 100)
}

type goldenSelector struct {
	name   string
	sel    Selector
	digest string
	mcl    float64
}

func goldenSelectors() []goldenSelector {
	return []goldenSelector{
		{
			name: "milp",
			sel: MILPSelector{HopSlack: 2, MaxPathsPerFlow: 8,
				MaxNodes: 40, Gap: 0.01, Seed: 1},
			digest: "37ab015ea6e5193a",
			mcl:    50,
		},
		{
			name:   "heuristic",
			sel:    BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 16},
			digest: "32105d4743db4013",
			mcl:    75,
		},
		{
			name:   "dijkstra",
			sel:    DijkstraSelector{},
			digest: "37ab015ea6e5193a",
			mcl:    50,
		},
	}
}

func TestGoldenSynthesisDeterminism(t *testing.T) {
	print := os.Getenv("ROUTE_GOLDEN_PRINT") != ""
	g := goldenGraph(t)
	for _, gc := range goldenSelectors() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			var first string
			var firstSet *Set
			// Repeated runs must serialize byte-identically; enumeration
			// width is pinned by TestGoldenEnumerationDeterminism.
			for run := 0; run < 3; run++ {
				set, err := gc.sel.SelectContext(context.Background(), g)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				s := serializeSet(set)
				if first == "" {
					first, firstSet = s, set
					continue
				}
				if s != first {
					t.Fatalf("run %d synthesis output differs from run 0", run)
				}
			}
			digest := setDigest(firstSet)
			mcl, _ := firstSet.MCL()
			if print {
				fmt.Printf("%s: digest: %q, mcl: %v\n", gc.name, digest, mcl)
				return
			}
			if digest != gc.digest {
				t.Errorf("digest %s, golden %s (ROUTE_GOLDEN_PRINT=1 to regenerate)", digest, gc.digest)
			}
			if mcl != gc.mcl {
				t.Errorf("MCL %v, golden %v", mcl, gc.mcl)
			}
		})
	}
}

// goldenIrregularGraph is the irregular synthesis instance: a fault-
// degraded 5x5 mesh (4 failed links, seed 2) under the graph-generic
// up*/down* escape breaker, with a deterministic permutation flow set
// addressed by node id.
func goldenIrregularGraph(t *testing.T) *flowgraph.Graph {
	t.Helper()
	f, err := topology.Faulted(topology.NewMesh(5, 5), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := f.NumNodes()
	var flows []flowgraph.Flow
	for s := 0; s < n; s++ {
		d := (s*7 + 3) % n
		if d == s {
			continue
		}
		flows = append(flows, flowgraph.Flow{
			ID: len(flows), Name: "p", Src: topology.NodeID(s), Dst: topology.NodeID(d),
			Demand: float64(10 * (1 + s%3)),
		})
	}
	dag := cdg.UpDownEscapeBreaker{Root: 0}.Break(cdg.NewFull(f, 2))
	return flowgraph.New(dag, flows, 200)
}

// TestGoldenSynthesisDeterminismIrregular mirrors the grid golden test on
// the irregular instance: every selector's output must be byte-identical
// across repeated runs.
func TestGoldenSynthesisDeterminismIrregular(t *testing.T) {
	print := os.Getenv("ROUTE_GOLDEN_PRINT") != ""
	g := goldenIrregularGraph(t)
	golden := map[string]struct {
		digest string
		mcl    float64
	}{
		"milp":      {"9981c73452ab3814", 40},
		"heuristic": {"767b32fdc596eb39", 40},
		"dijkstra":  {"16a3b903615d1245", 60},
	}
	for _, gc := range goldenSelectors() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			var first string
			var firstSet *Set
			for run := 0; run < 2; run++ {
				set, err := gc.sel.SelectContext(context.Background(), g)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if err := set.Validate(2); err != nil {
					t.Fatal(err)
				}
				if err := set.DeadlockFree(2); err != nil {
					t.Fatal(err)
				}
				s := serializeSet(set)
				if first == "" {
					first, firstSet = s, set
					continue
				}
				if s != first {
					t.Fatalf("run %d synthesis output differs from run 0", run)
				}
			}
			digest := setDigest(firstSet)
			mcl, _ := firstSet.MCL()
			if print {
				fmt.Printf("irregular %s: digest %q, mcl: %v\n", gc.name, digest, mcl)
				return
			}
			want := golden[gc.name]
			if digest != want.digest {
				t.Errorf("digest %s, golden %s (ROUTE_GOLDEN_PRINT=1 to regenerate)", digest, want.digest)
			}
			if mcl != want.mcl {
				t.Errorf("MCL %v, golden %v", mcl, want.mcl)
			}
		})
	}
}

// TestGoldenEnumerationDeterminism pins the parallel candidate enumeration
// directly: per-flow path lists are identical for any worker count.
func TestGoldenEnumerationDeterminism(t *testing.T) {
	g := goldenGraph(t)
	budgets := make([]int, len(g.Flows()))
	for i := range budgets {
		budgets[i] = 14
	}
	base, _ := g.EnumerateAllContext(context.Background(), budgets, 12, 1)
	for _, workers := range []int{2, 4, 8} {
		got, _ := g.EnumerateAllContext(context.Background(), budgets, 12, workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d flows, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if len(got[i]) != len(base[i]) {
				t.Fatalf("workers=%d flow %d: %d paths, want %d", workers, i, len(got[i]), len(base[i]))
			}
			for k := range base[i] {
				if len(got[i][k]) != len(base[i][k]) {
					t.Fatalf("workers=%d flow %d path %d: length differs", workers, i, k)
				}
				for x := range base[i][k] {
					if got[i][k][x] != base[i][k][x] {
						t.Fatalf("workers=%d flow %d path %d: vertex %d differs", workers, i, k, x)
					}
				}
			}
		}
	}
}

// TestMILPSolvesOneMaster pins the shape of a selection: one candidate
// pool, one branch-and-bound search. The 8x8 transpose cell of Table 6.1
// under negative-first(WN) at the -fast budget runs into MaxNodes, so a
// second master over a regenerated pool (what SelectContext did until
// PR 21: 80 nodes here) shows as a node count past the budget. The digest
// is that two-master selection's answer.
func TestMILPSolvesOneMaster(t *testing.T) {
	m := topology.NewMesh(8, 8)
	rule := cdg.NegativeFirstRule(topology.West, topology.North)
	dag := cdg.TurnBreaker{Rule: rule}.Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, transposeFlows(m, 25), 100)
	mc := metrics.New()
	ms := MILPSelector{HopSlack: 2, MaxPathsPerFlow: 8, MaxNodes: 40, Gap: 0.01, Metrics: mc}
	set, err := ms.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if n := mc.Counter("lp_bb_nodes_total").Value(); n > int64(ms.MaxNodes) {
		t.Errorf("one selection explored %d branch-and-bound nodes, budget %d", n, ms.MaxNodes)
	}
	if d, want := setDigest(set), "b4eb8300c978a937"; d != want {
		t.Errorf("digest %s, want %s", d, want)
	}
	if mcl, _ := set.MCL(); mcl != 75 {
		t.Errorf("MCL %v, want 75", mcl)
	}
}
