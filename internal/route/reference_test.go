package route

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// terminalNetwork is G_A with its terminals stored, as the flow network
// once held it: a copy of every CDG row, each followed by the sink
// terminal of every flow that ends at the row channel's destination node,
// then a source and a sink terminal row per flow, numbered after the CDG
// vertices. Only the reference searches walk it; its methods are the ones
// the flow network had, so the references read as they were written.
type terminalNetwork struct {
	g    *flowgraph.Graph
	nCDG int
	out  [][]cdg.VertexID
}

func newTerminalNetwork(g *flowgraph.Graph) *terminalNetwork {
	dag := g.CDG()
	topo := dag.Topology()
	t := &terminalNetwork{g: g, nCDG: dag.NumVertices(), out: make([][]cdg.VertexID, dag.NumVertices()+2*len(g.Flows()))}
	for v := range t.nCDG {
		t.out[v] = slices.Clone(dag.Out(cdg.VertexID(v)))
	}
	for i, f := range g.Flows() {
		for _, ch := range topo.OutChannels(f.Src) {
			for vc := range dag.VCs() {
				t.out[t.SrcTerminal(i)] = append(t.out[t.SrcTerminal(i)], dag.Vertex(ch, vc))
			}
		}
		for _, ch := range topo.InChannels(f.Dst) {
			for vc := range dag.VCs() {
				v := dag.Vertex(ch, vc)
				t.out[v] = append(t.out[v], t.SinkTerminal(i))
			}
		}
	}
	return t
}

func (t *terminalNetwork) NumVertices() int                  { return len(t.out) }
func (t *terminalNetwork) SrcTerminal(i int) cdg.VertexID    { return cdg.VertexID(t.nCDG + 2*i) }
func (t *terminalNetwork) SinkTerminal(i int) cdg.VertexID   { return cdg.VertexID(t.nCDG + 2*i + 1) }
func (t *terminalNetwork) IsTerminal(v cdg.VertexID) bool    { return int(v) >= t.nCDG }
func (t *terminalNetwork) Out(v cdg.VertexID) []cdg.VertexID { return t.out[v] }
func (t *terminalNetwork) Flows() []flowgraph.Flow           { return t.g.Flows() }
func (t *terminalNetwork) Topology() topology.Topology       { return t.g.CDG().Topology() }

// referenceShortestPathGA is the search shortestPathGA replaced, kept
// verbatim. It runs Dijkstra from flow i's source terminal to its sink
// terminal over G_A. The weight of an edge is the weight of the channel
// vertex it enters (edges into the sink terminal weigh zero), matching the
// thesis' convention that capacities live on links, which are vertices of
// G_A.
func referenceShortestPathGA(s *dijkstraScratch, g *terminalNetwork, i int,
	vertexWeight func(v cdg.VertexID) float64) (flowgraph.Path, error) {

	s.reset(g.NumVertices())
	dist, prev, done := s.dist, s.prev, s.done
	src, snk := g.SrcTerminal(i), g.SinkTerminal(i)
	s.reach(int(src), 0, -1)
	pq := &s.heap
	pq.items = pq.items[:0]
	pq.push(src, 0)
	for len(pq.items) > 0 {
		it := pq.pop()
		if done[it.st] {
			continue
		}
		if it.st == snk {
			break
		}
		done[it.st] = true
		for _, w := range g.Out(it.st) {
			if g.IsTerminal(w) && w != snk {
				continue // another flow's terminal
			}
			var edgeW float64
			if w != snk {
				edgeW = vertexWeight(w)
			}
			nd := it.d + edgeW
			if nd < dist[w] {
				s.reach(int(w), nd, int(it.st))
				pq.push(w, nd)
			}
		}
	}
	if math.IsInf(dist[snk], 1) {
		f := g.Flows()[i]
		return nil, &NoPathError{Flow: f.Name,
			Src: g.Topology().NodeName(f.Src), Dst: g.Topology().NodeName(f.Dst)}
	}
	// Count the channels, then fill the path back to front.
	n := 0
	for v := prev[snk]; v != int32(src) && v != -1; v = prev[v] {
		n++
	}
	p := make(flowgraph.Path, n)
	for v := prev[snk]; n > 0; v = prev[v] {
		n--
		p[n] = cdg.VertexID(v)
	}
	return p, nil
}

// referenceShortestPathGABounded is the search shortestPathGABounded
// replaced, kept verbatim: referenceShortestPathGA with a hard hop budget.
// The search state is (vertex, hops used), so the cheapest path with at
// most maxHops channels is found. Setting maxHops to the flow's minimal hop
// count forces a minimal route (latency-critical flows, §7.2).
func referenceShortestPathGABounded(s *dijkstraScratch, g *terminalNetwork, i int, maxHops int,
	vertexWeight func(v cdg.VertexID) float64) (flowgraph.Path, error) {

	idx := func(st hopState) int { return int(st.v)*(maxHops+1) + st.hops }
	s.reset(g.NumVertices() * (maxHops + 1))
	dist, prev := s.dist, s.prev
	src, snk := g.SrcTerminal(i), g.SinkTerminal(i)
	start := hopState{src, 0}
	s.reach(idx(start), 0, -1)
	pq := &s.boundedHeap
	pq.items = pq.items[:0]
	pq.push(start, 0)
	var goal = -1
	for len(pq.items) > 0 {
		it := pq.pop()
		k := idx(it.st)
		if it.d > dist[k] {
			continue
		}
		if it.st.v == snk {
			goal = k
			break
		}
		for _, w := range g.Out(it.st.v) {
			if g.IsTerminal(w) && w != snk {
				continue
			}
			next := it.st
			var edgeW float64
			if w != snk {
				next = hopState{w, it.st.hops + 1}
				if next.hops > maxHops {
					continue
				}
				edgeW = vertexWeight(w)
			} else {
				next = hopState{w, it.st.hops}
			}
			nk := idx(next)
			if nd := it.d + edgeW; nd < dist[nk] {
				s.reach(nk, nd, k)
				pq.push(next, nd)
			}
		}
	}
	if goal < 0 {
		f := g.Flows()[i]
		return nil, &NoPathError{Flow: f.Name,
			Src:    g.Topology().NodeName(f.Src),
			Dst:    g.Topology().NodeName(f.Dst),
			Budget: maxHops}
	}
	n := 0
	for k := int(prev[goal]); k >= 0 && cdg.VertexID(k/(maxHops+1)) != src; k = int(prev[k]) {
		n++
	}
	p := make(flowgraph.Path, n)
	for k := int(prev[goal]); n > 0; k = int(prev[k]) {
		n--
		p[n] = cdg.VertexID(k / (maxHops + 1))
	}
	return p, nil
}

// searchCase is one acyclic CDG the searches are checked on.
type searchCase struct {
	name string
	dag  *cdg.Graph
}

// searchCases spans mesh turn-rule and ad-hoc rows, a torus dateline, a
// ring, a faulted mesh and a Clos under up*/down*, at 1, 2 and 4 virtual
// channels (the dateline needs at least 2).
func searchCases(t *testing.T) []searchCase {
	t.Helper()
	mesh := topology.NewMesh(4, 4)
	faulted, err := topology.Faulted(topology.NewMesh(4, 4), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	var cases []searchCase
	add := func(name string, topo topology.Topology, vcs int, b cdg.Breaker) {
		cases = append(cases, searchCase{fmt.Sprintf("%s/%s/vcs%d", name, b.Name(), vcs), b.Break(cdg.NewFull(topo, vcs))})
	}
	for _, vcs := range []int{1, 2, 4} {
		add("mesh4x4", mesh, vcs, cdg.TurnBreaker{Rule: cdg.WestFirst})
		add("mesh4x4", mesh, vcs, cdg.AdHocBreaker{Seed: 5})
		add("ring7", topology.NewRing(7), vcs, cdg.UpDownBreaker{Root: 0})
		add("faulted-mesh4x4", faulted, vcs, cdg.UpDownBreaker{Root: 5})
		add("clos3x16", topology.NewFoldedClos(3, 16), vcs, cdg.UpDownBreaker{Root: 16})
		if vcs > 1 {
			add("torus4x4", topology.NewTorus(4, 4), vcs,
				cdg.DatelineBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.South)})
		}
	}
	return cases
}

// TestSearchesMatchReference holds shortestPathGA and shortestPathGABounded
// to the terminal-based searches they replaced, path for path and error for
// error: under unit weights, where every edge is a tie and only the push
// order decides, and under seeded random weights, at every hop budget from
// the minimum to four above it and unbounded. One scratch serves every
// production search, so a search that leaves state dirty shows up later.
func TestSearchesMatchReference(t *testing.T) {
	var s, rs dijkstraScratch
	var hs hopScratch
	compared := 0
	for ci, c := range searchCases(t) {
		topo := c.dag.Topology()
		rng := rand.New(rand.NewSource(int64(ci)))
		flows := make([]flowgraph.Flow, 8)
		for i := range flows {
			src := rng.Intn(topo.NumNodes())
			dst := rng.Intn(topo.NumNodes() - 1)
			if dst >= src {
				dst++
			}
			flows[i] = flowgraph.Flow{ID: i, Name: fmt.Sprintf("f%d", i),
				Src: topology.NodeID(src), Dst: topology.NodeID(dst), Demand: 1}
		}
		g := flowgraph.New(c.dag, flows, 1)
		ga := newTerminalNetwork(g)
		random := make([]float64, c.dag.NumVertices())
		for v := range random {
			random[v] = rng.Float64()
		}
		for _, w := range []struct {
			name   string
			weight func(cdg.VertexID) float64
		}{
			{"unit", func(cdg.VertexID) float64 { return 1 }},
			{"random", func(v cdg.VertexID) float64 { return random[v] }},
		} {
			for i, f := range flows {
				min := minimalHops(&hs, topo, f.Src, f.Dst)
				for budget := min; budget <= min+5; budget++ {
					var got, want flowgraph.Path
					var gotErr, wantErr error
					if budget == min+5 { // unbounded
						got, gotErr = shortestPathGA(&s, g, i, w.weight)
						want, wantErr = referenceShortestPathGA(&rs, ga, i, w.weight)
					} else {
						got, gotErr = shortestPathGABounded(&s, g, i, budget, w.weight)
						want, wantErr = referenceShortestPathGABounded(&rs, ga, i, budget, w.weight)
					}
					if !slices.Equal(got, want) || !sameError(gotErr, wantErr) {
						t.Fatalf("%s %s weights flow %d budget %d: got %v (%v), reference %v (%v)",
							c.name, w.name, i, budget, got, gotErr, want, wantErr)
					}
					compared++
				}
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d searches compared", compared)
	}
}

// sameError reports whether two search errors are both nil or both the
// same NoPathError.
func sameError(a, b error) bool {
	var pa, pb *NoPathError
	if errors.As(a, &pa) && errors.As(b, &pb) {
		return *pa == *pb
	}
	return a == nil && b == nil
}
