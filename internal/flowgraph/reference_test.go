package flowgraph

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cdg"
	"repro/internal/topology"
)

// terminalNetwork is G_A with its terminals stored, as the flow network
// once held it: a copy of every CDG row, each followed by the sink
// terminal of every flow that ends at the row channel's destination node,
// then a source and a sink terminal row per flow, numbered after the CDG
// vertices. Only the references walk it.
type terminalNetwork struct {
	nCDG int
	out  [][]cdg.VertexID
}

func newTerminalNetwork(g *Graph) *terminalNetwork {
	dag, topo := g.dag, g.dag.Topology()
	t := &terminalNetwork{nCDG: dag.NumVertices(), out: make([][]cdg.VertexID, dag.NumVertices()+2*len(g.flows))}
	for v := range t.nCDG {
		t.out[v] = slices.Clone(dag.Out(cdg.VertexID(v)))
	}
	for i, f := range g.flows {
		for _, ch := range topo.OutChannels(f.Src) {
			for vc := range dag.VCs() {
				t.out[t.src(i)] = append(t.out[t.src(i)], dag.Vertex(ch, vc))
			}
		}
		for _, ch := range topo.InChannels(f.Dst) {
			for vc := range dag.VCs() {
				v := dag.Vertex(ch, vc)
				t.out[v] = append(t.out[v], t.sink(i))
			}
		}
	}
	return t
}

func (t *terminalNetwork) src(i int) cdg.VertexID         { return cdg.VertexID(t.nCDG + 2*i) }
func (t *terminalNetwork) sink(i int) cdg.VertexID        { return cdg.VertexID(t.nCDG + 2*i + 1) }
func (t *terminalNetwork) isTerminal(v cdg.VertexID) bool { return int(v) >= t.nCDG }

// referenceEnumerate is the map-based channel-space enumerator the
// production one replaced: a recursive DFS over G_A with its terminals
// stored that builds a fresh sink distance array, a successor map per
// expansion and a sorted slice per node. It defines the paths, and their
// order, that enumerate must return.
func referenceEnumerate(g *Graph, i int, maxHops, maxPaths int) []Path {
	ga := newTerminalNetwork(g)
	rev := make([][]cdg.VertexID, len(ga.out))
	for v, succ := range ga.out {
		for _, w := range succ {
			rev[w] = append(rev[w], cdg.VertexID(v))
		}
	}
	dist := make([]int32, len(ga.out))
	for j := range dist {
		dist[j] = -1
	}
	snk := ga.sink(i)
	var queue []cdg.VertexID
	for _, v := range rev[snk] {
		if dist[v] < 0 {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range rev[v] {
			if ga.isTerminal(u) || dist[u] >= 0 {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}

	dag := g.dag
	nVCs := dag.VCs()
	liveMask := func(ch topology.ChannelID, mask uint32) (uint32, int32) {
		out, best := uint32(0), int32(-1)
		for vc := 0; vc < nVCs; vc++ {
			if mask&(1<<vc) == 0 {
				continue
			}
			d := dist[dag.Vertex(ch, vc)]
			if d < 0 {
				continue
			}
			out |= 1 << vc
			if best < 0 || d < best {
				best = d
			}
		}
		return out, best
	}
	sortedNexts := func(acc map[topology.ChannelID]uint32) []next {
		nexts := make([]next, 0, len(acc))
		for ch, m := range acc {
			nexts = append(nexts, next{ch, m})
		}
		sort.Slice(nexts, func(a, b int) bool { return nexts[a].ch < nexts[b].ch })
		return nexts
	}
	succ := func(ch topology.ChannelID, mask uint32) (nexts []next, done bool) {
		acc := make(map[topology.ChannelID]uint32)
		for vc := 0; vc < nVCs; vc++ {
			if mask&(1<<vc) == 0 {
				continue
			}
			v := dag.Vertex(ch, vc)
			for _, w := range ga.out[v] {
				if ga.isTerminal(w) {
					if w == snk {
						done = true
					}
					continue
				}
				ch2, vc2 := dag.ChannelVC(w)
				acc[ch2] |= 1 << vc2
			}
		}
		return sortedNexts(acc), done
	}
	reconstruct := func(chs []topology.ChannelID, masks []uint32) Path {
		n := len(chs)
		p := make(Path, n)
		last := -1
		for vc := 0; vc < nVCs; vc++ {
			if masks[n-1]&(1<<vc) == 0 {
				continue
			}
			v := dag.Vertex(chs[n-1], vc)
			for _, w := range ga.out[v] {
				if w == snk {
					last = vc
					break
				}
			}
			if last >= 0 {
				break
			}
		}
		p[n-1] = dag.Vertex(chs[n-1], last)
		for k := n - 2; k >= 0; k-- {
			for vc := 0; vc < nVCs; vc++ {
				if masks[k]&(1<<vc) == 0 {
					continue
				}
				if dag.HasEdge(dag.Vertex(chs[k], vc), p[k+1]) {
					p[k] = dag.Vertex(chs[k], vc)
					break
				}
			}
		}
		return p
	}

	var (
		paths []Path
		chs   []topology.ChannelID
		masks []uint32
	)
	var dfs func(ch topology.ChannelID, mask uint32) bool
	dfs = func(ch topology.ChannelID, mask uint32) bool {
		chs = append(chs, ch)
		masks = append(masks, mask)
		defer func() {
			chs = chs[:len(chs)-1]
			masks = masks[:len(masks)-1]
		}()
		nexts, done := succ(ch, mask)
		if done {
			paths = append(paths, reconstruct(chs, masks))
			if maxPaths > 0 && len(paths) >= maxPaths {
				return false
			}
		}
		for _, nx := range nexts {
			live, d := liveMask(nx.ch, nx.mask)
			if live == 0 {
				continue
			}
			if maxHops > 0 && len(chs)+1+int(d) > maxHops {
				continue
			}
			if !dfs(nx.ch, live) {
				return false
			}
		}
		return true
	}
	acc := make(map[topology.ChannelID]uint32)
	for _, w := range ga.out[ga.src(i)] {
		if ga.isTerminal(w) {
			continue
		}
		ch, vc := dag.ChannelVC(w)
		acc[ch] |= 1 << vc
	}
	for _, f := range sortedNexts(acc) {
		live, d := liveMask(f.ch, f.mask)
		if live == 0 {
			continue
		}
		if maxHops > 0 && 1+int(d) > maxHops {
			continue
		}
		if !dfs(f.ch, live) {
			break
		}
	}
	return paths
}

// enumCase is one acyclic CDG the enumerator is checked on.
type enumCase struct {
	name string
	dag  *cdg.Graph
}

// enumCases spans the row shapes the enumerator meets: ascending turn-rule
// rows, AdHocBreaker's shuffled rows, a torus dateline (VC masks that must
// climb), graph topologies under up*/down*, and a Clos whose rows have
// hundreds of successors — at 1, 2 and 4 virtual channels.
func enumCases(t testing.TB) []enumCase {
	t.Helper()
	mesh := topology.NewMesh(4, 4)
	faulted, err := topology.Faulted(topology.NewMesh(4, 4), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ring := topology.NewRing(7)
	clos := topology.NewFoldedClos(3, 64)
	var cases []enumCase
	add := func(name string, topo topology.Topology, vcs int, b cdg.Breaker) {
		dag := b.Break(cdg.NewFull(topo, vcs))
		cases = append(cases, enumCase{fmt.Sprintf("%s/%s/vcs%d", name, b.Name(), vcs), dag})
	}
	for _, vcs := range []int{1, 2, 4} {
		add("mesh4x4", mesh, vcs, cdg.TurnBreaker{Rule: cdg.WestFirst})
		add("mesh4x4", mesh, vcs, cdg.AdHocBreaker{Seed: 5})
		add("faulted-mesh4x4", faulted, vcs, cdg.UpDownBreaker{Root: 5})
		add("ring7", ring, vcs, cdg.UpDownBreaker{Root: 0})
		add("clos3x64", clos, vcs, cdg.UpDownBreaker{Root: 64})
		if vcs > 1 {
			add("torus4x4", topology.NewTorus(4, 4), vcs, cdg.DatelineBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.South)})
			add("faulted-mesh4x4", faulted, vcs, cdg.UpDownEscapeBreaker{Root: 0})
		}
	}
	return cases
}

// caseFlows draws n distinct-endpoint flows over the first span nodes.
func caseFlows(n, span int, seed int64) []Flow {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]Flow, n)
	for i := range flows {
		src := rng.Intn(span)
		dst := rng.Intn(span - 1)
		if dst >= src {
			dst++
		}
		flows[i] = Flow{ID: i, Name: "f", Src: topology.NodeID(src), Dst: topology.NodeID(dst), Demand: 1}
	}
	return flows
}

func equalPaths(a, b []Path) bool {
	return slices.EqualFunc(a, b, func(p, q Path) bool { return slices.Equal(p, q) })
}

// TestEnumerateMatchesReference holds the scratch enumerator to the
// reference path for path, in order, over budgets with and without caps
// that cut the DFS off midway. One scratch serves every graph in turn, so
// a call that leaves dist or acc dirty shows up in the next case.
func TestEnumerateMatchesReference(t *testing.T) {
	var s enumScratch
	compared := 0
	for ci, c := range enumCases(t) {
		span := c.dag.Topology().NumNodes()
		if span > 64 {
			span = 64 // the Clos leaves
		}
		g := New(c.dag, caseFlows(6, span, int64(ci)), 1)
		for _, budget := range []int{2, 3, 4, 6, 9, 0} {
			for _, maxPaths := range []int{0, 1, 5, 17} {
				if budget == 0 && maxPaths == 0 {
					continue // an unbounded walk of the Clos is too large to list
				}
				budgets := make([]int, len(g.Flows()))
				for i := range budgets {
					budgets[i] = budget
				}
				all, err := g.EnumerateAllContext(context.Background(), budgets, maxPaths, 3)
				if err != nil {
					t.Fatal(err)
				}
				for i := range g.Flows() {
					want := referenceEnumerate(g, i, budget, maxPaths)
					if got := g.enumerate(&s, i, budget, maxPaths); !equalPaths(got, want) {
						t.Fatalf("%s flow %d budget %d cap %d: %d paths %v, reference %d paths %v",
							c.name, i, budget, maxPaths, len(got), got, len(want), want)
					}
					if !equalPaths(all[i], want) {
						t.Fatalf("%s flow %d budget %d cap %d: EnumerateAllContext differs from the reference",
							c.name, i, budget, maxPaths)
					}
					compared += len(want)
				}
			}
		}
	}
	if compared < 10000 {
		t.Fatalf("only %d reference paths compared; the cases lost their reach", compared)
	}
}

// TestEnumerationAllocatesOnlyItsPaths pins the enumerator's memory: on a
// warmed scratch a call allocates each path it returns and the slice that
// holds them, nothing else.
func TestEnumerationAllocatesOnlyItsPaths(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := []Flow{{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(7, 7), Demand: 1}}
	for _, tc := range []struct {
		name     string
		dag      *cdg.Graph
		budget   int
		maxPaths int
	}{
		{"west-first/vcs2", cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, 2)), 16, 64},
		{"ad-hoc/vcs1", cdg.AdHocBreaker{Seed: 1}.Break(cdg.NewFull(m, 1)), 16, 40},
	} {
		g := New(tc.dag, flows, 1)
		var s enumScratch
		paths := g.enumerate(&s, 0, tc.budget, tc.maxPaths) // grows the scratch
		if len(paths) < 2 {
			t.Fatalf("%s: %d paths; the case enumerates too little to pin", tc.name, len(paths))
		}
		allocs := testing.AllocsPerRun(10, func() { paths = g.enumerate(&s, 0, tc.budget, tc.maxPaths) })
		if want := float64(len(paths) + 1); allocs != want {
			t.Errorf("%s: %v allocations, want %v (%d paths and their slice)", tc.name, allocs, want, len(paths))
		}
	}
}

// FuzzEnumerate checks the enumerator against the reference on a seeded
// topology, breaker, flow, hop budget and path cap.
func FuzzEnumerate(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(1), uint8(0), uint16(0), uint16(15), uint8(8), uint8(0))
	f.Add(uint8(1), int64(2), uint8(2), uint8(3), uint16(3), uint16(9), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, vcs uint8, brk uint8, src, dst uint16, budget, maxPaths uint8) {
		nVCs := 1 + int(vcs%4)
		var (
			topo topology.Topology
			b    cdg.Breaker
		)
		rules := cdg.TwelveTurnRules()
		switch kind % 5 {
		case 0:
			m := topology.NewMesh(2+int(uint64(seed)%3), 2+int(uint64(seed)/3%3))
			topo = m
			switch r := int(brk) % 14; {
			case r < 12:
				b = cdg.TurnBreaker{Rule: rules[r]}
			case r == 12:
				b = cdg.AdHocBreaker{Seed: seed}
			default:
				b = cdg.UpDownBreaker{Root: topology.NodeID(uint64(seed) % uint64(m.NumNodes()))}
			}
		case 1:
			topo = topology.NewTorus(3+int(uint64(seed)%2), 3)
			if nVCs < 2 {
				nVCs = 2
			}
			b = cdg.DatelineBreaker{Rule: rules[int(brk)%12]}
		case 2:
			topo = topology.NewRing(3 + int(uint64(seed)%6))
			b = cdg.UpDownBreaker{Root: topology.NodeID(int(brk) % topo.NumNodes())}
		case 3:
			ft, err := topology.Faulted(topology.NewMesh(4, 4), seed, 1+int(brk)%3)
			if err != nil {
				t.Skip(err)
			}
			topo = ft
			if nVCs > 1 && brk%2 == 1 {
				b = cdg.UpDownEscapeBreaker{Root: topology.NodeID(int(brk) % topo.NumNodes())}
			} else {
				b = cdg.UpDownBreaker{Root: topology.NodeID(int(brk) % topo.NumNodes())}
			}
		default:
			topo = topology.NewFoldedClos(1+int(uint64(seed)%3), 2+int(uint64(seed)/3%10))
			b = cdg.UpDownBreaker{Root: topology.NodeID(int(brk) % topo.NumNodes())}
		}
		n := topo.NumNodes()
		s, d := int(src)%n, int(dst)%(n-1)
		if d >= s {
			d++
		}
		hops, cap := int(budget%12), int(maxPaths%32)
		if hops == 0 && cap == 0 {
			cap = 32 // keep an unbounded walk listable
		}
		g := New(b.Break(cdg.NewFull(topo, nVCs)),
			[]Flow{{Name: "f", Src: topology.NodeID(s), Dst: topology.NodeID(d), Demand: 1}}, 1)
		want := referenceEnumerate(g, 0, hops, cap)
		var sc enumScratch
		for round := 0; round < 2; round++ { // a fresh scratch, then a reused one
			if got := g.enumerate(&sc, 0, hops, cap); !equalPaths(got, want) {
				t.Fatalf("%T/%s vcs %d %d->%d budget %d cap %d round %d: got %v, reference %v",
					topo, b.Name(), nVCs, s, d, hops, cap, round, got, want)
			}
		}
	})
}
