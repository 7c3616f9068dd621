// Package certify is the independent deadlock-freedom certificate
// checker for the BSOR pipeline.
//
// Every layer upstream *claims* correctness: a Breaker claims its CDG is
// acyclic, a Selector claims its routes conform to that CDG, and the
// Dally–Seitz re-check in internal/route only inspects the dependences a
// route set happens to use. This package closes the loop with a checker
// that trusts none of those claims. Given any Topology, a claimed-acyclic
// channel dependence graph, and a synthesized route set, Certify either
//
//   - produces a Certificate: a layered ranking over the (channel, VC)
//     vertices under which every dependence edge strictly ascends —
//     a machine-checkable witness of acyclicity (re-verifiable by a
//     single linear scan, see Certificate.Check) — together with
//     re-derived per-flow route validity (connectivity, VC-transition
//     legality against the CDG, capacity respect), or
//
//   - returns a *Counterexample: a minimal dependence cycle, or the
//     exact flow/hop of the first route violation.
//
// The checker is graph-generic: it keys only on channel endpoints, never
// on grid directions, so it certifies rings, full meshes, folded-Clos
// fabrics, and fault-degraded grids exactly as it certifies meshes
// (Mendlovic–Matias frame deadlock-free routing this way for arbitrary
// networks). It deliberately re-implements its own ranking, cycle
// search, and route walks rather than calling the checked code's
// helpers, so a bug upstream cannot vouch for itself.
package certify

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cdg"
	"repro/internal/route"
	"repro/internal/topology"
)

// loadTolerance absorbs float accumulation error in capacity and MCL
// comparisons.
const loadTolerance = 1e-6

// Instance bundles one claimed-deadlock-free routing outcome for
// certification.
type Instance struct {
	// Topo is the network the routes run on.
	Topo topology.Topology
	// CDG is the claimed-acyclic channel dependence graph the routes were
	// selected under. Nil certifies the route set alone: the ranking then
	// witnesses acyclicity of the used-dependence graph (the Dally–Seitz
	// condition for baseline algorithms, which select no CDG).
	CDG *cdg.Graph
	// Routes is the synthesized route set.
	Routes *route.Set
	// VCs is the virtual channel count the routes were synthesized for.
	VCs int
	// Capacity, when positive, additionally requires every channel's
	// total demand to stay within it.
	Capacity float64
}

// Certificate is a machine-checkable deadlock-freedom witness. Its heart
// is Rank: a layered ranking of the (channel, VC) vertices (vertex =
// channel*VCs + vc) under which every dependence edge strictly ascends.
// Any cycle would need a rank strictly less than itself, so the ranking
// proves acyclicity by a linear edge scan — no graph search required —
// which is what makes the certificate independently re-checkable.
type Certificate struct {
	// Topology labels the certified network (diagnostics only).
	Topology string `json:"topology,omitempty"`
	// Nodes, Channels, and VCs pin the instance dimensions the ranking
	// was built for.
	Nodes    int `json:"nodes"`
	Channels int `json:"channels"`
	VCs      int `json:"vcs"`
	// Flows is the number of routed flows whose validity was established.
	Flows int `json:"flows"`
	// Rank assigns each (channel, VC) vertex its layer; every dependence
	// edge u->v of the certified graph has Rank[u] < Rank[v]. Vertices
	// touched by no dependence carry rank 0.
	Rank []int `json:"rank"`
	// Levels is 1 + the maximum rank: the depth of the layering.
	Levels int `json:"levels"`
	// UsedOnly reports that no CDG was supplied and the ranking covers
	// only the dependences the routes actually use.
	UsedOnly bool `json:"used_only,omitempty"`
	// MCL is the re-derived maximum channel load of the route set.
	MCL float64 `json:"mcl"`
	// Capacity echoes the capacity bound the loads were checked against
	// (0 = not checked).
	Capacity float64 `json:"capacity,omitempty"`
}

// Certify checks an instance from first principles and returns its
// certificate, or an error. A rejection is a *Counterexample (test with
// errors.As); a structurally malformed instance (nil fields, dimension
// mismatches) is a plain error.
func Certify(in Instance) (*Certificate, error) {
	if err := checkInstance(in); err != nil {
		return nil, err
	}
	n := in.Topo.NumChannels() * in.VCs

	// Route validity first: every hop re-walked against the raw topology,
	// every transition checked against the CDG. A certificate over a
	// pristine CDG is worthless if the routes never conform to it.
	if ce := walkRoutes(in, nil); ce != nil {
		return nil, ce
	}

	// Rank the dependence graph: the full CDG when one is claimed (the
	// witness then covers every route set conforming to it), otherwise
	// exactly the dependences the routes use.
	edges := dependenceEdges(in)
	rank, acyclic := layerRanks(n, edges)
	if !acyclic {
		return nil, cycleCounterexample(in, n, edges)
	}
	levels := 1
	for _, r := range rank {
		if r+1 > levels {
			levels = r + 1
		}
	}

	mcl, ce := checkLoads(in)
	if ce != nil {
		return nil, ce
	}

	return &Certificate{
		Topology: topoLabel(in.Topo),
		Nodes:    in.Topo.NumNodes(),
		Channels: in.Topo.NumChannels(),
		VCs:      in.VCs,
		Flows:    len(in.Routes.Routes),
		Rank:     rank,
		Levels:   levels,
		UsedOnly: in.CDG == nil,
		MCL:      mcl,
		Capacity: in.Capacity,
	}, nil
}

// Issue certifies an instance and then re-checks the issued certificate
// against it: the one way a route set earns a certificate before it
// leaves the engine or is swapped into a running simulation. A failed
// re-check is a checker bug, reported as a plain error.
func Issue(in Instance) (*Certificate, error) {
	cert, err := Certify(in)
	if err != nil {
		return nil, err
	}
	if err := cert.Check(in); err != nil {
		return nil, fmt.Errorf("certify: issued certificate fails its re-check: %w", err)
	}
	return cert, nil
}

// Check re-verifies a certificate against an instance without re-running
// any of Certify's graph algorithms: the ranking is validated by a linear
// scan over the dependence edges, and the route facts are re-derived by
// plain walks. A nil error means the certificate is a genuine witness
// that this exact instance is deadlock-free.
func (c *Certificate) Check(in Instance) error {
	if err := checkInstance(in); err != nil {
		return err
	}
	if c == nil {
		return fmt.Errorf("certify: nil certificate")
	}
	n := in.Topo.NumChannels() * in.VCs
	switch {
	case c.Channels != in.Topo.NumChannels() || c.VCs != in.VCs:
		return fmt.Errorf("certify: certificate is for %d channels x %d VCs, instance has %d x %d",
			c.Channels, c.VCs, in.Topo.NumChannels(), in.VCs)
	case c.Nodes != in.Topo.NumNodes():
		return fmt.Errorf("certify: certificate is for %d nodes, instance has %d", c.Nodes, in.Topo.NumNodes())
	case len(c.Rank) != n:
		return fmt.Errorf("certify: rank covers %d vertices, instance has %d", len(c.Rank), n)
	case c.UsedOnly != (in.CDG == nil):
		return fmt.Errorf("certify: certificate used_only=%v but instance CDG present=%v", c.UsedOnly, in.CDG != nil)
	case c.Flows != len(in.Routes.Routes):
		return fmt.Errorf("certify: certificate covers %d flows, instance has %d", c.Flows, len(in.Routes.Routes))
	}
	for v, r := range c.Rank {
		if r < 0 || r >= c.Levels {
			return fmt.Errorf("certify: vertex %d rank %d outside [0,%d)", v, r, c.Levels)
		}
	}
	// The acyclicity witness: every dependence edge must strictly ascend
	// the ranking. One linear scan — no search, no recursion, no trust.
	for _, e := range dependenceEdges(in) {
		if c.Rank[e.u] >= c.Rank[e.v] {
			return fmt.Errorf("certify: dependence %s -> %s does not ascend the ranking (rank %d >= %d)",
				vertexLabel(in, e.u), vertexLabel(in, e.v), c.Rank[e.u], c.Rank[e.v])
		}
	}
	if ce := walkRoutes(in, nil); ce != nil {
		return ce
	}
	mcl, ce := checkLoads(in)
	if ce != nil {
		return ce
	}
	if math.Abs(mcl-c.MCL) > loadTolerance {
		return fmt.Errorf("certify: certificate MCL %g does not match re-derived %g", c.MCL, mcl)
	}
	return nil
}

// checkInstance rejects structurally malformed instances with plain
// errors (these are caller bugs, not counterexamples).
func checkInstance(in Instance) error {
	switch {
	case in.Topo == nil:
		return fmt.Errorf("certify: nil topology")
	case in.Routes == nil:
		return fmt.Errorf("certify: nil route set")
	case in.VCs < 1:
		return fmt.Errorf("certify: invalid VC count %d", in.VCs)
	case in.CDG != nil && in.CDG.VCs() != in.VCs:
		return fmt.Errorf("certify: CDG has %d VCs, instance declares %d", in.CDG.VCs(), in.VCs)
	case in.CDG != nil && in.CDG.NumVertices() != in.Topo.NumChannels()*in.VCs:
		return fmt.Errorf("certify: CDG has %d vertices, topology x VCs gives %d",
			in.CDG.NumVertices(), in.Topo.NumChannels()*in.VCs)
	case in.Capacity < 0:
		return fmt.Errorf("certify: negative capacity %g", in.Capacity)
	}
	return nil
}

// walkRoutes re-validates every route hop by hop against the raw
// topology and (when a CDG is claimed) checks each transition's legality
// against it. onUse, when non-nil, observes every used dependence edge.
// Returns the first violation as a counterexample, or nil.
func walkRoutes(in Instance, onUse func(u, v int32)) *Counterexample {
	t := in.Topo
	nch := t.NumChannels()
	seen := make([]int, nch) // seen[ch] == fi+1: route fi already crossed ch
	for fi := range in.Routes.Routes {
		r := &in.Routes.Routes[fi]
		bad := func(hop int, reason string, args ...any) *Counterexample {
			return &Counterexample{
				Kind: KindRoute, Flow: r.Flow.Name, FlowIndex: fi, Hop: hop,
				Reason: fmt.Sprintf(reason, args...),
			}
		}
		if len(r.Channels) == 0 {
			return bad(0, "empty route")
		}
		if len(r.VCs) != len(r.Channels) {
			return bad(0, "%d VCs for %d channels", len(r.VCs), len(r.Channels))
		}
		for i, ch := range r.Channels {
			if ch < 0 || int(ch) >= nch {
				return bad(i, "channel %d outside [0,%d)", ch, nch)
			}
			if r.VCs[i] < 0 || r.VCs[i] >= in.VCs {
				return bad(i, "VC %d outside [0,%d)", r.VCs[i], in.VCs)
			}
			if seen[ch] == fi+1 {
				return bad(i, "revisits channel %s", topology.ChannelName(t, ch))
			}
			seen[ch] = fi + 1
			cur := t.Channel(ch)
			if i == 0 {
				if cur.Src != r.Flow.Src {
					return bad(i, "starts at %s, flow source is %s",
						t.NodeName(cur.Src), t.NodeName(r.Flow.Src))
				}
				continue
			}
			prev := t.Channel(r.Channels[i-1])
			if prev.Dst != cur.Src {
				return bad(i, "not contiguous: hop %d ends at %s, hop %d starts at %s",
					i-1, t.NodeName(prev.Dst), i, t.NodeName(cur.Src))
			}
			if cur.Dst == prev.Src {
				return bad(i, "180-degree turn at %s", t.NodeName(cur.Src))
			}
			u := int32(int(r.Channels[i-1])*in.VCs + r.VCs[i-1])
			v := int32(int(ch)*in.VCs + r.VCs[i])
			if in.CDG != nil && !in.CDG.HasEdge(cdg.VertexID(u), cdg.VertexID(v)) {
				return &Counterexample{
					Kind: KindTransition, Flow: r.Flow.Name, FlowIndex: fi, Hop: i,
					Reason: fmt.Sprintf("dependence %s -> %s is not an edge of the claimed CDG",
						vertexLabel(in, u), vertexLabel(in, v)),
				}
			}
			if onUse != nil {
				onUse(u, v)
			}
		}
		last := t.Channel(r.Channels[len(r.Channels)-1])
		if last.Dst != r.Flow.Dst {
			return bad(len(r.Channels)-1, "ends at %s, flow sink is %s",
				t.NodeName(last.Dst), t.NodeName(r.Flow.Dst))
		}
	}
	return nil
}

// edge is one dependence u -> v in dense vertex numbering.
type edge struct{ u, v int32 }

// dependenceEdges collects the dependence graph the ranking must cover:
// every edge of the claimed CDG, or (with no CDG) the deduplicated
// dependences the routes use. Deterministic order: ascending (u, v).
func dependenceEdges(in Instance) []edge {
	if in.CDG != nil {
		edges := make([]edge, 0, in.CDG.NumEdges())
		for u := 0; u < in.CDG.NumVertices(); u++ {
			for _, v := range in.CDG.Out(cdg.VertexID(u)) {
				edges = append(edges, edge{int32(u), int32(v)})
			}
		}
		return edges
	}
	used := make(map[edge]bool)
	walkRoutes(in, func(u, v int32) { used[edge{u, v}] = true })
	edges := make([]edge, 0, len(used))
	for e := range used {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	return edges
}

// checkLoads re-derives per-channel loads, returning the MCL and a
// capacity counterexample when a channel exceeds the bound.
func checkLoads(in Instance) (float64, *Counterexample) {
	loads := make([]float64, in.Topo.NumChannels())
	for i := range in.Routes.Routes {
		r := &in.Routes.Routes[i]
		for _, ch := range r.Channels {
			loads[ch] += r.Flow.Demand
		}
	}
	mcl := 0.0
	for ch, l := range loads {
		if l > mcl {
			mcl = l
		}
		if in.Capacity > 0 && l > in.Capacity+loadTolerance {
			return 0, &Counterexample{
				Kind: KindCapacity, Hop: -1,
				Reason: fmt.Sprintf("channel %s carries %g, capacity %g",
					topology.ChannelName(in.Topo, topology.ChannelID(ch)), l, in.Capacity),
			}
		}
	}
	return mcl, nil
}

// topoLabel names a topology for diagnostics when it can name itself.
func topoLabel(t topology.Topology) string {
	if n, ok := t.(interface{ Name() string }); ok {
		return n.Name()
	}
	return fmt.Sprintf("%dnodes", t.NumNodes())
}

// vertexLabel names a dense (channel, VC) vertex, e.g. "n0->n1/vc1".
func vertexLabel(in Instance, v int32) string {
	ch := topology.ChannelID(int(v) / in.VCs)
	return fmt.Sprintf("%s/vc%d", topology.ChannelName(in.Topo, ch), int(v)%in.VCs)
}
