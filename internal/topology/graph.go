package topology

import (
	"fmt"
	"math/rand"
)

// DirNone marks a channel of a general graph topology, where orthogonal
// directions do not exist. Turn-model breakers are meaningless on such
// channels (their rules treat every DirNone pair as a straight move, which
// leaves the CDG cyclic and is rejected by the acyclicity check); the
// graph-generic breakers in internal/cdg key on endpoints instead.
const DirNone Direction = -1

// Graph is a general directed network: any set of named nodes joined by
// directed channels. It is the topology substrate for the irregular
// fabrics the BSOR pipeline is formulated for but the grid types cannot
// express — rings, full meshes, folded-Clos fabrics, and fault-degraded
// grids — and implements the same Topology contract the CDG,
// route-selection, and simulator layers consume. Mesh and Torus are
// coordinate views over one.
//
// Build one with a Builder, or with the NewRing / NewFullMesh /
// NewFoldedClos / Faulted constructors.
type Graph struct {
	name      string
	nodeNames []string
	channels  []Channel
	out       [][]ChannelID
	in        [][]ChannelID
}

// Builder assembles a Graph from named nodes and directed channels.
// The zero value is not ready; use NewBuilder.
type Builder struct {
	name      string
	nodeNames []string
	channels  []Channel
}

// NewBuilder starts an empty graph with a diagnostic name (used by
// Graph.Name, e.g. "ring16").
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Node adds a node with the given diagnostic name and returns its id.
// Nodes are numbered densely in insertion order.
func (b *Builder) Node(name string) NodeID {
	id := NodeID(len(b.nodeNames))
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	b.nodeNames = append(b.nodeNames, name)
	return id
}

// Channel adds a directed channel from src to dst with no orthogonal
// direction (DirNone) and returns its id.
func (b *Builder) Channel(src, dst NodeID) ChannelID {
	return b.ChannelDir(src, dst, DirNone)
}

// ChannelDir adds a directed channel carrying an explicit direction tag.
// Faulted uses it to preserve the grid directions of surviving channels so
// that turn-model breakers remain applicable to fault-degraded grids.
func (b *Builder) ChannelDir(src, dst NodeID, dir Direction) ChannelID {
	id := ChannelID(len(b.channels))
	b.channels = append(b.channels, Channel{ID: id, Src: src, Dst: dst, Dir: dir})
	return id
}

// Link adds the channel pair a->b and b->a (one physical bidirectional
// link).
func (b *Builder) Link(x, y NodeID) {
	b.Channel(x, y)
	b.Channel(y, x)
}

// Build finalizes the graph and verifies the structural invariants via
// Validate; endpoint errors (out-of-range nodes, self-loop channels)
// surface here rather than as downstream panics.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.nodeNames)
	g := &Graph{
		name:      b.name,
		nodeNames: b.nodeNames,
		channels:  b.channels,
		out:       make([][]ChannelID, n),
		in:        make([][]ChannelID, n),
	}
	for _, c := range g.channels {
		if c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n {
			return nil, fmt.Errorf("topology: channel %d endpoints (%d,%d) outside [0,%d)",
				c.ID, c.Src, c.Dst, n)
		}
		if c.Src == c.Dst {
			return nil, fmt.Errorf("topology: channel %d is a self loop at node %d", c.ID, c.Src)
		}
		g.out[c.Src] = append(g.out[c.Src], c.ID)
		g.in[c.Dst] = append(g.in[c.Dst], c.ID)
	}
	if err := Validate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// mustBuild is the constructor-internal Build: the shipped families are
// correct by construction, so an error is a programming bug.
func (b *Builder) mustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the diagnostic name of the graph (e.g. "fullmesh8").
func (g *Graph) Name() string { return g.name }

// NumNodes implements Topology.
func (g *Graph) NumNodes() int { return len(g.nodeNames) }

// NumChannels implements Topology.
func (g *Graph) NumChannels() int { return len(g.channels) }

// Channel implements Topology.
func (g *Graph) Channel(id ChannelID) Channel { return g.channels[id] }

// ChannelFromTo implements Topology. When parallel channels join the same
// pair (a 2-wide torus wrap, say), the lowest id wins.
func (g *Graph) ChannelFromTo(src, dst NodeID) ChannelID {
	for _, id := range g.out[src] {
		if g.channels[id].Dst == dst {
			return id
		}
	}
	return InvalidChannel
}

// OutChannels implements Topology.
func (g *Graph) OutChannels(n NodeID) []ChannelID { return g.out[n] }

// InChannels implements Topology.
func (g *Graph) InChannels(n NodeID) []ChannelID { return g.in[n] }

// NodeName implements Topology.
func (g *Graph) NodeName(n NodeID) string { return g.nodeNames[n] }

// NewRing builds a bidirectional ring of n >= 3 nodes: node i links to
// (i+1) mod n in both directions.
func NewRing(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("topology: invalid ring size %d (min 3)", n))
	}
	b := NewBuilder(fmt.Sprintf("ring%d", n))
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < n; i++ {
		b.Link(NodeID(i), NodeID((i+1)%n))
	}
	return b.mustBuild()
}

// NewFullMesh builds the complete directed graph on n >= 2 nodes: one
// channel for every ordered node pair. Dense non-grid fabrics of this
// shape are the subject of the HOTI 2025 full-mesh deadlock-freedom work
// cited in PAPERS.md.
func NewFullMesh(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("topology: invalid full mesh size %d (min 2)", n))
	}
	b := NewBuilder(fmt.Sprintf("fullmesh%d", n))
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("m%d", i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.Channel(NodeID(i), NodeID(j))
			}
		}
	}
	return b.mustBuild()
}

// NewFoldedClos builds a two-level folded-Clos (fat-tree) fabric: leaves
// leaf nodes (ids 0..leaves-1, where endpoints normally attach) each
// linked bidirectionally to every one of spines spine nodes (ids
// leaves..leaves+spines-1). Every leaf pair is joined through any spine,
// giving the path diversity BSOR's load balancing exploits.
func NewFoldedClos(spines, leaves int) *Graph {
	if spines < 1 || leaves < 2 {
		panic(fmt.Sprintf("topology: invalid folded Clos %d spines x %d leaves (min 1x2)",
			spines, leaves))
	}
	b := NewBuilder(fmt.Sprintf("clos%dx%d", spines, leaves))
	for i := 0; i < leaves; i++ {
		b.Node(fmt.Sprintf("l%d", i))
	}
	for i := 0; i < spines; i++ {
		b.Node(fmt.Sprintf("s%d", i))
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			b.Link(NodeID(l), NodeID(leaves+s))
		}
	}
	return b.mustBuild()
}

// Faulted derives a fault-degraded topology from a grid: nFaults physical
// links (bidirectional channel pairs), chosen by the seeded shuffle, are
// removed under a strong-connectivity guarantee — a removal that would
// disconnect the network is skipped and the next candidate tried. Channel
// ids are re-densified; surviving channels keep their grid direction, so
// turn-model breakers stay applicable alongside the graph-generic ones.
//
// Faulted returns an error when fewer than nFaults links can be removed
// without disconnecting the network.
func Faulted(g Grid, seed int64, nFaults int) (*Graph, error) {
	if nFaults < 0 {
		return nil, fmt.Errorf("topology: negative fault count %d", nFaults)
	}
	links, unpaired := RemovableLinks(g, seed, nFaults)
	if unpaired != InvalidChannel {
		c := g.Channel(unpaired)
		return nil, fmt.Errorf("topology: channel %d (%s) has no reverse; Faulted requires a bidirectional grid",
			unpaired, g.NodeName(c.Src)+"->"+g.NodeName(c.Dst))
	}
	if len(links) < nFaults {
		return nil, &TooManyFaultsError{
			Requested: nFaults, Removable: len(links),
			Width: g.Width(), Height: g.Height(),
		}
	}
	removed := make([]bool, g.NumChannels())
	for _, l := range links {
		removed[l[0]], removed[l[1]] = true, true
	}

	b := NewBuilder(fmt.Sprintf("faulted-%dx%d-f%d-s%d", g.Width(), g.Height(), nFaults, seed))
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		b.Node(g.NodeName(n))
	}
	for id := ChannelID(0); id < ChannelID(g.NumChannels()); id++ {
		if removed[id] {
			continue
		}
		c := g.Channel(id)
		b.ChannelDir(c.Src, c.Dst, c.Dir)
	}
	return b.Build()
}

// RemovableLinks is the one seeded link picker behind Faulted and
// churn.RandomSchedule: it pairs every channel of t with its reverse,
// shuffles the pairs (listed once each, in ascending lower-id order) with
// rand.NewSource(seed), and walks them removing up to n links, skipping
// any whose cumulative removal would leave t not strongly connected. It
// returns the removed links in pick order; fewer than n means no more are
// removable. unpaired is the lowest channel without a reverse, which is
// left out of the pairing, or InvalidChannel.
//
// A channel's reverse runs dst->src in the opposite direction. The
// direction match matters on a 2-wide torus, where two parallel links join
// one node pair — pairing East with the opposite West keeps wrap with wrap
// and non-wrap with non-wrap, so each link is exactly one channel pair and
// one fault removes exactly one physical link even in the degenerate
// multigraph.
func RemovableLinks(t Topology, seed int64, n int) (links [][2]ChannelID, unpaired ChannelID) {
	unpaired = InvalidChannel
	var pairs [][2]ChannelID
	for id := ChannelID(0); id < ChannelID(t.NumChannels()); id++ {
		c := t.Channel(id)
		rev := InvalidChannel
		for _, back := range t.OutChannels(c.Dst) {
			if bc := t.Channel(back); bc.Dst == c.Src && bc.Dir == c.Dir.Opposite() {
				rev = back
				break
			}
		}
		if rev == InvalidChannel && unpaired == InvalidChannel {
			unpaired = id
		}
		if rev > id { // record each pair once, from its lower id
			pairs = append(pairs, [2]ChannelID{id, rev})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	removed := make([]bool, t.NumChannels())
	alive := func(id ChannelID) bool { return !removed[id] }
	for _, p := range pairs {
		if len(links) >= n {
			break
		}
		removed[p[0]], removed[p[1]] = true, true
		if stronglyConnectedSubset(t, alive) {
			links = append(links, p)
			continue
		}
		removed[p[0]], removed[p[1]] = false, false
	}
	return links, unpaired
}

// stronglyConnectedSubset reports whether the subgraph of t restricted to
// channels with alive(id) true is strongly connected.
func stronglyConnectedSubset(t Topology, alive func(ChannelID) bool) bool {
	n := t.NumNodes()
	if n == 0 {
		return false
	}
	reach := func(forward bool) int {
		seen := make([]bool, n)
		seen[0] = true
		stack := []NodeID{0}
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			chans := t.OutChannels(u)
			if !forward {
				chans = t.InChannels(u)
			}
			for _, id := range chans {
				if !alive(id) {
					continue
				}
				v := t.Channel(id).Dst
				if !forward {
					v = t.Channel(id).Src
				}
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		return count
	}
	return reach(true) == n && reach(false) == n
}
