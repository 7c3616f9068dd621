package cdg

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"repro/internal/topology"
)

// refGraph is the representation Graph had before it became rows over one
// array: a separately grown row per vertex in each direction and a hash set
// of edges, built one edge at a time. Tests hold the flat construction to
// it; it has no other use.
type refGraph struct {
	out, in [][]VertexID
	set     map[[2]VertexID]bool
}

func newRef(n int) *refGraph {
	return &refGraph{out: make([][]VertexID, n), in: make([][]VertexID, n), set: map[[2]VertexID]bool{}}
}

func (r *refGraph) add(u, v VertexID) {
	if r.set[[2]VertexID{u, v}] {
		return
	}
	r.set[[2]VertexID{u, v}] = true
	r.out[u] = append(r.out[u], v)
	r.in[v] = append(r.in[v], u)
}

func refFull(topo topology.Topology, vcs int) *refGraph {
	r := newRef(topo.NumChannels() * vcs)
	for c1 := topology.ChannelID(0); c1 < topology.ChannelID(topo.NumChannels()); c1++ {
		ch1 := topo.Channel(c1)
		for _, c2 := range topo.OutChannels(ch1.Dst) {
			if topo.Channel(c2).Dst == ch1.Src {
				continue
			}
			for vc1 := 0; vc1 < vcs; vc1++ {
				for vc2 := 0; vc2 < vcs; vc2++ {
					r.add(VertexID(int(c1)*vcs+vc1), VertexID(int(c2)*vcs+vc2))
				}
			}
		}
	}
	return r
}

func (r *refGraph) filter(keep func(u, v VertexID) bool) *refGraph {
	nr := newRef(len(r.out))
	for u, succ := range r.out {
		for _, v := range succ {
			if keep(VertexID(u), v) {
				nr.add(VertexID(u), v)
			}
		}
	}
	return nr
}

// acyclic is Kahn's algorithm seeded from the stored predecessor lists.
func (r *refGraph) acyclic() bool {
	indeg := make([]int, len(r.out))
	var stack []VertexID
	removed := 0
	for v := range indeg {
		if indeg[v] = len(r.in[v]); indeg[v] == 0 {
			stack = append(stack, VertexID(v))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		removed++
		for _, w := range r.out[v] {
			if indeg[w]--; indeg[w] == 0 {
				stack = append(stack, w)
			}
		}
	}
	return removed == len(r.out)
}

// membersOf reads g's edge set off its rows, without going through HasEdge.
func membersOf(g *Graph) map[[2]VertexID]bool {
	set := map[[2]VertexID]bool{}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(VertexID(u)) {
			set[[2]VertexID{VertexID(u), v}] = true
		}
	}
	return set
}

// sameGraph holds got to want: rows element for element, edge count,
// HasEdge against membership (over every edge of full, and over all vertex
// pairs plus out-of-range ids on small graphs) and acyclicity.
func sameGraph(t *testing.T, what string, got *Graph, want, full *refGraph) {
	t.Helper()
	if got.NumVertices() != len(want.out) {
		t.Fatalf("%s: %d vertices, want %d", what, got.NumVertices(), len(want.out))
	}
	if got.NumEdges() != len(want.set) {
		t.Errorf("%s: NumEdges = %d, want %d", what, got.NumEdges(), len(want.set))
	}
	n := VertexID(got.NumVertices())
	for u := VertexID(0); u < n; u++ {
		if !slices.Equal(got.Out(u), want.out[u]) {
			t.Fatalf("%s: Out(%d) = %v, want %v", what, u, got.Out(u), want.out[u])
		}
		if !slices.Equal(got.In(u), want.in[u]) {
			t.Fatalf("%s: In(%d) = %v, want %v", what, u, got.In(u), want.in[u])
		}
		for _, v := range full.out[u] {
			if got.HasEdge(u, v) != want.set[[2]VertexID{u, v}] {
				t.Fatalf("%s: HasEdge(%d,%d) = %v", what, u, v, got.HasEdge(u, v))
			}
		}
	}
	if n <= 200 {
		for u := VertexID(-1); u <= n; u++ {
			for v := VertexID(-1); v <= n; v++ {
				if got.HasEdge(u, v) != want.set[[2]VertexID{u, v}] {
					t.Fatalf("%s: HasEdge(%d,%d) = %v", what, u, v, got.HasEdge(u, v))
				}
			}
		}
	}
	if got.IsAcyclic() != want.acyclic() {
		t.Errorf("%s: IsAcyclic = %v, reference acyclic %v", what, got.IsAcyclic(), want.acyclic())
	}
}

// TestRowsMatchReference: the flat construction yields the graph the
// append-per-edge construction yields, on every topology family, VC count
// and breaker. The reference for a broken CDG is the reference full CDG
// filtered in its own row order; up*/down* is filtered by the rule as
// written per edge (two endpoint lookups), every other breaker by the edge
// set read off its result. The ad-hoc breaker's rows are in its own
// insertion order, which TestAdHocBreakerDigest pins instead.
func TestRowsMatchReference(t *testing.T) {
	faulted, err := topology.Faulted(topology.NewMesh(6, 6), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	type instance struct {
		topo     topology.Topology
		breakers func(vcs int) []Breaker
	}
	meshBreakers := func(int) []Breaker { return StandardBreakers() }
	none := func(int) []Breaker { return nil }
	instances := map[string]instance{
		"mesh4x4": {topology.NewMesh(4, 4), meshBreakers},
		"mesh8x8": {topology.NewMesh(8, 8), meshBreakers},
		"torus4x4": {topology.NewTorus(4, 4), func(vcs int) []Breaker {
			if vcs < 2 {
				return nil // a dateline needs a VC to ascend to
			}
			var bs []Breaker
			for _, rule := range TwelveTurnRules() {
				bs = append(bs, DatelineBreaker{Rule: rule})
			}
			return bs
		}},
		"ring8":      {topology.NewRing(8), none},
		"fullmesh6":  {topology.NewFullMesh(6), none},
		"clos3x4":    {topology.NewFoldedClos(3, 4), none},
		"faulted6x6": {faulted, none},
	}
	for seed := int64(1); seed <= 3; seed++ {
		instances[fmt.Sprintf("rand12-s%d", seed)] = instance{topology.NewRandomConnected(12, 6, seed), none}
	}
	for name, inst := range instances {
		topo := inst.topo
		for _, vcs := range []int{1, 2, 4} {
			full := NewFull(topo, vcs)
			ref := refFull(topo, vcs)
			sameGraph(t, fmt.Sprintf("%s vcs=%d full", name, vcs), full, ref, ref)
			for _, b := range append(inst.breakers(vcs), GraphBreakers(topo.NumNodes())...) {
				what := fmt.Sprintf("%s vcs=%d %s", name, vcs, b.Name())
				got := b.Break(full)
				members := membersOf(got)
				keep := func(u, v VertexID) bool { return members[[2]VertexID{u, v}] }
				switch b := b.(type) {
				case AdHocBreaker:
					if got.NumEdges() != len(members) {
						t.Errorf("%s: NumEdges = %d, rows hold %d", what, got.NumEdges(), len(members))
					}
					continue
				case UpDownBreaker:
					keep = refUpDown(topo, b.Root, vcs, false)
				case UpDownEscapeBreaker:
					keep = refUpDown(topo, b.Root, vcs, true)
				}
				sameGraph(t, what, got, ref.filter(keep), ref)
			}
		}
	}
}

// refUpDown is the up*/down* rule evaluated per edge from the channel
// endpoints, as the breakers did before they classified channels once.
func refUpDown(topo topology.Topology, root topology.NodeID, vcs int, escape bool) func(u, v VertexID) bool {
	order := upDownOrder(topo, root)
	up := func(v VertexID) bool {
		c := topo.Channel(topology.ChannelID(int(v) / vcs))
		return order[c.Dst] < order[c.Src]
	}
	return func(u, v VertexID) bool {
		if vcu, vcv := int(u)%vcs, int(v)%vcs; escape && vcu != vcv {
			return vcv > vcu
		}
		return !(!up(u) && up(v))
	}
}

// TestHasEdgeOutOfRange: HasEdge answers false, never panics, for ids that
// are not vertices of the graph — route sets come from outside and may have
// been computed for a larger fabric.
func TestHasEdgeOutOfRange(t *testing.T) {
	full := NewFull(topology.NewMesh(3, 3), 2)
	n := VertexID(full.NumVertices())
	for _, g := range []*Graph{full, TurnBreaker{Rule: WestFirst}.Break(full), AdHocBreaker{Seed: 1}.Break(full)} {
		for _, e := range [][2]VertexID{
			{-1, 0}, {0, -1}, {-1, -1},
			{n, 0}, {0, n}, {n + 1000, n + 1000},
		} {
			if g.HasEdge(e[0], e[1]) {
				t.Errorf("HasEdge(%d,%d) = true on a %d-vertex graph", e[0], e[1], n)
			}
		}
	}
}

// TestWithEdgeDoesNotAlias: adding an edge to a copy of a filtered graph
// writes into no row of either graph but the one it extends, although all
// rows of a graph share a backing array.
func TestWithEdgeDoesNotAlias(t *testing.T) {
	full := NewFull(topology.NewMesh(4, 4), 2)
	dag := TurnBreaker{Rule: WestFirst}.Break(full)
	before := edgeRows(dag)
	for u := VertexID(0); u < VertexID(dag.NumVertices()); u++ {
		// A removed edge of full, or failing that an edge to vertex 0.
		v := VertexID(0)
		for _, w := range full.Out(u) {
			if !dag.HasEdge(u, w) {
				v = w
				break
			}
		}
		if dag.HasEdge(u, v) {
			continue
		}
		mutant := dag.WithEdge(u, v)
		if !slices.EqualFunc(edgeRows(dag), before, slices.Equal[[]VertexID]) {
			t.Fatalf("WithEdge(%d,%d) changed the graph it copied", u, v)
		}
		want := edgeRows(dag)
		want[u] = append(want[u], v)
		if !slices.EqualFunc(edgeRows(mutant), want, slices.Equal[[]VertexID]) {
			t.Fatalf("WithEdge(%d,%d): mutant differs from the original beyond row %d", u, v, u)
		}
		if mutant.NumEdges() != dag.NumEdges()+1 || !mutant.HasEdge(u, v) {
			t.Fatalf("WithEdge(%d,%d): edge not recorded", u, v)
		}
		if again := mutant.WithEdge(u, v); again.NumEdges() != mutant.NumEdges() {
			t.Fatalf("WithEdge(%d,%d) twice added a duplicate", u, v)
		}
	}
}

// edgeRows copies every row out of g.
func edgeRows(g *Graph) [][]VertexID {
	rows := make([][]VertexID, g.NumVertices())
	for u := range rows {
		rows[u] = slices.Clone(g.Out(VertexID(u)))
	}
	return rows
}

// rowsDigest is an FNV-1a digest of every row, in order.
func rowsDigest(g *Graph) uint64 {
	h := fnv.New64a()
	for u := 0; u < g.NumVertices(); u++ {
		fmt.Fprintln(h, g.Out(VertexID(u)))
	}
	return h.Sum64()
}

// TestAdHocBreakerDigest pins the ad-hoc breaker's rows, insertion order
// included, to digests recorded from the map-backed representation.
func TestAdHocBreakerDigest(t *testing.T) {
	full := NewFull(topology.NewMesh(8, 8), 2)
	want := map[int64]uint64{1: 0x9f3331ebc57bb07f, 2: 0xb278f2811302d0c3, 3: 0xc0c9a1e87570742d}
	for seed, digest := range want {
		if got := rowsDigest(AdHocBreaker{Seed: seed}.Break(full)); got != digest {
			t.Errorf("ad-hoc-%d rows digest = %#x, want %#x", seed, got, digest)
		}
	}
}

// TestSharedGraphConcurrentUse: a built graph is read from many goroutines
// while breakers derive new graphs from it. Run under -race: nothing but
// the once-only build of the reverse rows may write to a graph after its
// constructor returned, and the readers race to trigger that build.
func TestSharedGraphConcurrentUse(t *testing.T) {
	full := NewFull(topology.NewMesh(6, 6), 2)
	dag := TurnBreaker{Rule: NorthLast}.Break(full)
	wantDigest := rowsDigest(AdHocBreaker{Seed: 7}.Break(full))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if got := rowsDigest(AdHocBreaker{Seed: 7}.Break(full)); got != wantDigest {
				t.Errorf("concurrent ad-hoc break digest = %#x, want %#x", got, wantDigest)
			}
		}()
		go func() {
			defer wg.Done()
			for u := VertexID(0); u < VertexID(dag.NumVertices()); u++ {
				for _, v := range full.Out(u) {
					if dag.HasEdge(u, v) != slices.Contains(dag.Out(u), v) {
						t.Errorf("HasEdge(%d,%d) disagrees with Out", u, v)
					}
					if dag.HasEdge(u, v) != slices.Contains(dag.In(v), u) {
						t.Errorf("In(%d) disagrees with HasEdge(%d,%d)", v, u, v)
					}
				}
			}
			if !dag.IsAcyclic() {
				t.Error("IsAcyclic changed under concurrent use")
			}
		}()
	}
	wg.Wait()
}
