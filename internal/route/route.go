// Package route implements BSOR route selection and the oblivious baseline
// routing algorithms the thesis evaluates against.
//
// A selector chooses one path per application flow. The BSOR selectors
// (Dijkstra-based and MILP-based, thesis §3.5–3.6) operate on a flow
// network derived from an acyclic channel dependence graph and therefore
// produce deadlock-free route sets by construction; the baselines (XY, YX,
// ROMM, Valiant, O1TURN) implement the classic algorithms directly. The
// central figure of merit is the maximum channel load (MCL): the largest
// total bandwidth demand crossing any one physical link.
package route

import (
	"context"
	"fmt"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// Route is the static path assigned to one flow: the channels crossed in
// order, with the statically allocated virtual channel for each. Selectors
// that do not allocate VCs statically set every VC to zero and the
// simulator allocates dynamically.
type Route struct {
	Flow     flowgraph.Flow
	Channels []topology.ChannelID
	VCs      []int
}

// Hops returns the route length in links.
func (r *Route) Hops() int { return len(r.Channels) }

// Set is a complete route assignment for a flow set on one topology.
type Set struct {
	Topo   topology.Topology
	Routes []Route
}

// Loads returns the total demand crossing each physical channel.
func (s *Set) Loads() []float64 {
	loads := make([]float64, s.Topo.NumChannels())
	for _, r := range s.Routes {
		for _, ch := range r.Channels {
			loads[ch] += r.Flow.Demand
		}
	}
	return loads
}

// MCL returns the maximum channel load and the bottleneck channel
// (thesis Definition 3). An empty set has MCL 0.
func (s *Set) MCL() (float64, topology.ChannelID) {
	loads := s.Loads()
	best, arg := 0.0, topology.InvalidChannel
	for ch, l := range loads {
		if l > best {
			best, arg = l, topology.ChannelID(ch)
		}
	}
	return best, arg
}

// AvgHops returns the mean route length across flows; 0 for an empty set.
func (s *Set) AvgHops() float64 {
	if len(s.Routes) == 0 {
		return 0
	}
	total := 0
	for _, r := range s.Routes {
		total += r.Hops()
	}
	return float64(total) / float64(len(s.Routes))
}

// Validate checks structural integrity: each route is a contiguous simple
// channel walk from its flow's source to its sink, over channels in
// [0, NumChannels()) with VC indices in [0, vcs). An out-of-range channel
// is an error, never a lookup.
func (s *Set) Validate(vcs int) error {
	nCh := s.Topo.NumChannels()
	// seen[ch] == ri+1 once route ri has crossed ch: earlier routes' stamps
	// need no clearing.
	seen := make([]int32, nCh)
	for ri, r := range s.Routes {
		if len(r.Channels) == 0 {
			return fmt.Errorf("route: flow %s has an empty route", r.Flow.Name)
		}
		if len(r.VCs) != len(r.Channels) {
			return fmt.Errorf("route: flow %s has %d VCs for %d channels",
				r.Flow.Name, len(r.VCs), len(r.Channels))
		}
		for i, ch := range r.Channels {
			if ch < 0 || int(ch) >= nCh {
				return fmt.Errorf("route: flow %s hop %d uses channel %d outside [0,%d)",
					r.Flow.Name, i, ch, nCh)
			}
		}
		first := s.Topo.Channel(r.Channels[0])
		if first.Src != r.Flow.Src {
			return fmt.Errorf("route: flow %s starts at %s, want %s", r.Flow.Name,
				s.Topo.NodeName(first.Src), s.Topo.NodeName(r.Flow.Src))
		}
		last := s.Topo.Channel(r.Channels[len(r.Channels)-1])
		if last.Dst != r.Flow.Dst {
			return fmt.Errorf("route: flow %s ends at %s, want %s", r.Flow.Name,
				s.Topo.NodeName(last.Dst), s.Topo.NodeName(r.Flow.Dst))
		}
		stamp := int32(ri + 1)
		for i, ch := range r.Channels {
			if seen[ch] == stamp {
				return fmt.Errorf("route: flow %s crosses channel %d twice", r.Flow.Name, ch)
			}
			seen[ch] = stamp
			if r.VCs[i] < 0 || r.VCs[i] >= vcs {
				return fmt.Errorf("route: flow %s uses VC %d outside [0,%d)",
					r.Flow.Name, r.VCs[i], vcs)
			}
			if i > 0 {
				prev := s.Topo.Channel(r.Channels[i-1])
				cur := s.Topo.Channel(ch)
				if prev.Dst != cur.Src {
					return fmt.Errorf("route: flow %s is not contiguous at hop %d", r.Flow.Name, i)
				}
				if cur.Dst == prev.Src {
					return fmt.Errorf("route: flow %s makes a 180-degree turn at hop %d",
						r.Flow.Name, i)
				}
			}
		}
	}
	return nil
}

// DeadlockFree checks the Dally–Seitz condition (thesis Lemma 1): the
// channel dependences actually used by the route set, at (channel, VC)
// granularity, must form an acyclic graph. Returns an error describing one
// offending cycle otherwise. A dependence whose hop lies outside the
// topology's channels or [0, vcs) is an error too: it names no vertex.
func (s *Set) DeadlockFree(vcs int) error {
	nCh := s.Topo.NumChannels()
	n := nCh * vcs
	// Vertex ch*vcs+vc. The used dependences in compressed rows:
	// out-degrees, prefix sums, then a fill that leaves start[u] at the end
	// of u's row until the final shift.
	start := make([]int32, n+1)
	for _, r := range s.Routes {
		if len(r.Channels) < 2 {
			continue // a one-hop route uses no dependence
		}
		for k, ch := range r.Channels {
			if vc := r.VCs[k]; ch < 0 || int(ch) >= nCh || vc < 0 || vc >= vcs {
				return fmt.Errorf("route: flow %s hop %d (channel %d, VC %d) is outside %d channels x %d VCs",
					r.Flow.Name, k, ch, vc, nCh, vcs)
			}
		}
		for i := 0; i+1 < len(r.Channels); i++ {
			start[int(r.Channels[i])*vcs+r.VCs[i]+1]++
		}
	}
	for u := 1; u <= n; u++ {
		start[u] += start[u-1]
	}
	adj := make([]int32, start[n])
	indeg := make([]int32, n)
	for _, r := range s.Routes {
		for i := 0; i+1 < len(r.Channels); i++ {
			u := int(r.Channels[i])*vcs + r.VCs[i]
			v := int(r.Channels[i+1])*vcs + r.VCs[i+1]
			adj[start[u]] = int32(v)
			start[u]++
			indeg[v]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	// Kahn's algorithm over the vertices some used dependence touches. A
	// dependence used by several routes is a repeated entry, counted in
	// indeg as often as the fill visits it, so the vertices left over are
	// exactly those on or behind a cycle.
	var stack []int32
	vertices := 0
	for u := 0; u < n; u++ {
		if start[u+1] > start[u] || indeg[u] > 0 {
			vertices++
			if indeg[u] == 0 {
				stack = append(stack, int32(u))
			}
		}
	}
	removed := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		removed++
		for _, v := range adj[start[u]:start[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				stack = append(stack, v)
			}
		}
	}
	if removed != vertices {
		return fmt.Errorf("route: channel dependence cycle among %d (channel,vc) vertices: routes are not deadlock-free",
			vertices-removed)
	}
	return nil
}

// Conforms verifies that every consecutive (channel, VC) pair of every
// route is a dependence edge of the given CDG. Routes selected on a flow
// network derived from an acyclic CDG satisfy this by construction; the
// check is the independent safety net for externally supplied route sets.
func (s *Set) Conforms(dag *cdg.Graph) error {
	for _, r := range s.Routes {
		for i := 0; i+1 < len(r.Channels); i++ {
			u := dag.Vertex(r.Channels[i], r.VCs[i])
			v := dag.Vertex(r.Channels[i+1], r.VCs[i+1])
			if !dag.HasEdge(u, v) {
				return fmt.Errorf("route: flow %s hop %d uses dependence absent from the CDG",
					r.Flow.Name, i)
			}
		}
	}
	return nil
}

// Selector chooses deadlock-free routes on a flow network G_A derived from
// an acyclic CDG (the BSOR family).
type Selector interface {
	Name() string
	// SelectContext returns one route per flow of g, in flow order, or
	// ctx.Err() (no route set) once ctx is done, polling at least once
	// per flow.
	SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error)
}

// routeFromPath converts a G_A path into a Route.
func routeFromPath(g *flowgraph.Graph, i int, p flowgraph.Path) Route {
	f := g.Flows()[i]
	r := Route{Flow: f,
		Channels: make([]topology.ChannelID, len(p)),
		VCs:      make([]int, len(p)),
	}
	for k, v := range p {
		r.Channels[k], r.VCs[k] = g.CDG().ChannelVC(v)
	}
	return r
}

// hopScratch is the working memory of repeated minimalHops searches: a
// per-node distance (-1 unreached, the state between searches) and the
// queue, which afterwards lists the entries to clear.
type hopScratch struct {
	dist  []int32
	queue []topology.NodeID
}

// minimalHops returns the minimal path length between a flow's endpoints,
// measured on the actual topology via breadth-first search so it works for
// any Topology implementation; -1 when dst is unreachable.
func minimalHops(s *hopScratch, t topology.Topology, src, dst topology.NodeID) int {
	if src == dst {
		return 0
	}
	if n := t.NumNodes(); len(s.dist) < n {
		s.dist = make([]int32, n)
		for i := range s.dist {
			s.dist[i] = -1
		}
	}
	s.dist[src] = 0
	q := append(s.queue[:0], src)
	hops := -1
search:
	for h := 0; h < len(q); h++ {
		n := q[h]
		for _, ch := range t.OutChannels(n) {
			next := t.Channel(ch).Dst
			if s.dist[next] < 0 {
				s.dist[next] = s.dist[n] + 1
				q = append(q, next)
				if next == dst {
					hops = int(s.dist[next])
					break search
				}
			}
		}
	}
	for _, n := range q {
		s.dist[n] = -1
	}
	s.queue = q
	return hops
}
