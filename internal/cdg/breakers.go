package cdg

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/topology"
)

// TurnRule decides which turns are permitted; every rule must make the
// channel-level dependence graph of a mesh acyclic.
type TurnRule interface {
	Name() string
	// Allows reports whether travel in direction from may be followed by
	// travel in direction to.
	Allows(from, to topology.Direction) bool
}

// Name implements TurnRule for the canonical models.
func (tm TurnModel) Name() string { return tm.String() }

// firstRule is the "<dir>-first" family: the two turns into dir are
// prohibited, so travel toward dir must happen before any other dimension.
// WestFirst is firstRule{West}.
type firstRule struct{ dir topology.Direction }

// FirstRule returns the turn rule that prohibits the two turns into dir.
func FirstRule(dir topology.Direction) TurnRule { return firstRule{dir} }

func (r firstRule) Name() string { return r.dir.String() + "-first" }

func (r firstRule) Allows(from, to topology.Direction) bool {
	if from == to {
		return true
	}
	if to == from.Opposite() {
		return false
	}
	return to != r.dir
}

// lastRule is the "<dir>-last" family: the two turns out of dir are
// prohibited, so travel toward dir must happen last. NorthLast is
// lastRule{North}.
type lastRule struct{ dir topology.Direction }

// LastRule returns the turn rule that prohibits the two turns out of dir.
func LastRule(dir topology.Direction) TurnRule { return lastRule{dir} }

func (r lastRule) Name() string { return r.dir.String() + "-last" }

func (r lastRule) Allows(from, to topology.Direction) bool {
	if from == to {
		return true
	}
	if to == from.Opposite() {
		return false
	}
	return from != r.dir
}

// negFirstRule generalizes negative-first: directions negX and negY form
// the "negative" set, and turns from a positive direction into a negative
// one are prohibited. NegativeFirst is negFirstRule{West, South}.
type negFirstRule struct{ negX, negY topology.Direction }

// NegativeFirstRule returns the negative-first rule with the given negative
// direction per axis. negX must be East or West; negY must be North or
// South.
func NegativeFirstRule(negX, negY topology.Direction) TurnRule {
	if negX != topology.East && negX != topology.West {
		panic(fmt.Sprintf("cdg: negX must be E or W, got %v", negX))
	}
	if negY != topology.North && negY != topology.South {
		panic(fmt.Sprintf("cdg: negY must be N or S, got %v", negY))
	}
	return negFirstRule{negX, negY}
}

func (r negFirstRule) Name() string {
	return "negative-first(" + r.negX.String() + r.negY.String() + ")"
}

func (r negFirstRule) Allows(from, to topology.Direction) bool {
	if from == to {
		return true
	}
	if to == from.Opposite() {
		return false
	}
	neg := func(d topology.Direction) bool { return d == r.negX || d == r.negY }
	return !(!neg(from) && neg(to))
}

// TwelveTurnRules returns the twelve systematic turn-model rules used in
// the thesis' CDG exploration (§6.2): the four rotations of each of the
// *-first, *-last, and negative-first families.
func TwelveTurnRules() []TurnRule {
	rules := make([]TurnRule, 0, 12)
	for _, d := range []topology.Direction{topology.East, topology.West, topology.North, topology.South} {
		rules = append(rules, FirstRule(d))
	}
	for _, d := range []topology.Direction{topology.East, topology.West, topology.North, topology.South} {
		rules = append(rules, LastRule(d))
	}
	for _, nx := range []topology.Direction{topology.West, topology.East} {
		for _, ny := range []topology.Direction{topology.South, topology.North} {
			rules = append(rules, NegativeFirstRule(nx, ny))
		}
	}
	return rules
}

// A Breaker derives a deadlock-free (acyclic) CDG from the full CDG.
type Breaker interface {
	Name() string
	// Break returns an acyclic subgraph of full. Implementations must not
	// modify full.
	Break(full *Graph) *Graph
}

// TurnBreaker removes every CDG edge whose turn the rule prohibits,
// uniformly across virtual channels. The result is acyclic because any
// cycle would project onto a channel-level cycle, which the turn rule
// excludes.
type TurnBreaker struct {
	Rule TurnRule
}

// Name implements Breaker.
func (b TurnBreaker) Name() string { return b.Rule.Name() }

// Break implements Breaker.
func (b TurnBreaker) Break(full *Graph) *Graph {
	topo := full.Topology()
	return full.Filter(func(u, v VertexID) bool {
		cu, _ := full.ChannelVC(u)
		cv, _ := full.ChannelVC(v)
		return b.Rule.Allows(topo.Channel(cu).Dir, topo.Channel(cv).Dir)
	})
}

// VCEscalationBreaker keeps an edge when it strictly ascends virtual
// channels (any turn is then permitted, per the ad-hoc acyclic CDG of
// Fig. 3-6(c)) or when it stays on the same virtual channel and the turn
// rule allows the turn. Acyclic: the VC index never decreases along an
// edge, so a cycle would have to stay within one VC, where the turn rule
// applies.
type VCEscalationBreaker struct {
	Rule TurnRule
}

// Name implements Breaker.
func (b VCEscalationBreaker) Name() string { return "vc-escalation/" + b.Rule.Name() }

// Break implements Breaker.
func (b VCEscalationBreaker) Break(full *Graph) *Graph {
	topo := full.Topology()
	return full.Filter(func(u, v VertexID) bool {
		cu, vcu := full.ChannelVC(u)
		cv, vcv := full.ChannelVC(v)
		if vcv > vcu {
			return true
		}
		if vcv < vcu {
			return false
		}
		return b.Rule.Allows(topo.Channel(cu).Dir, topo.Channel(cv).Dir)
	})
}

// VirtualNetworksBreaker partitions the virtual channels into independent
// virtual networks (§3.7, Fig. 3-7): routes never switch VCs, and each VC
// layer is made acyclic by its own turn rule. Rules[i] governs VC i; len
// must equal the CDG's VC count.
type VirtualNetworksBreaker struct {
	Rules []TurnRule
}

// Name implements Breaker.
func (b VirtualNetworksBreaker) Name() string {
	s := "virtual-networks("
	for i, r := range b.Rules {
		if i > 0 {
			s += ","
		}
		s += r.Name()
	}
	return s + ")"
}

// Break implements Breaker.
func (b VirtualNetworksBreaker) Break(full *Graph) *Graph {
	if len(b.Rules) != full.VCs() {
		panic(fmt.Sprintf("cdg: VirtualNetworksBreaker has %d rules for %d VCs",
			len(b.Rules), full.VCs()))
	}
	topo := full.Topology()
	return full.Filter(func(u, v VertexID) bool {
		cu, vcu := full.ChannelVC(u)
		cv, vcv := full.ChannelVC(v)
		if vcu != vcv {
			return false
		}
		return b.Rules[vcu].Allows(topo.Channel(cu).Dir, topo.Channel(cv).Dir)
	})
}

// AdHocBreaker breaks cycles in a seeded pseudo-random fashion (§3.3,
// Fig. 3-4): starting from a routable turn-rule base (picked by the seed,
// so every source-destination pair keeps at least its dimension-order-like
// paths), the remaining edges are considered in a shuffled order and kept
// greedily as long as they do not close a directed cycle, yielding a
// maximal acyclic subgraph. Different seeds explore different acyclic
// CDGs; a larger number of dependences is typically removed than under a
// pure turn model, but route selection under the resulting CDG is
// sometimes better.
type AdHocBreaker struct {
	Seed int64
}

// Name implements Breaker.
func (b AdHocBreaker) Name() string { return fmt.Sprintf("ad-hoc-%d", b.Seed) }

// Break implements Breaker.
func (b AdHocBreaker) Break(full *Graph) *Graph {
	type edge struct{ u, v VertexID }
	topo := full.Topology()
	rng := rand.New(rand.NewSource(b.Seed))
	// Routable base: a seed-chosen turn rule. Its edges are admitted
	// first (they are mutually acyclic), guaranteeing every node pair
	// retains the rule's paths.
	rules := TwelveTurnRules()
	base := rules[rng.Intn(len(rules))]

	var baseEdges, extraEdges []edge
	for u := 0; u < full.NumVertices(); u++ {
		for _, v := range full.Out(VertexID(u)) {
			cu, _ := full.ChannelVC(VertexID(u))
			cv, _ := full.ChannelVC(v)
			e := edge{VertexID(u), v}
			if base.Allows(topo.Channel(cu).Dir, topo.Channel(cv).Dir) {
				baseEdges = append(baseEdges, e)
			} else {
				extraEdges = append(extraEdges, e)
			}
		}
	}
	// Canonical order first so the shuffle is reproducible regardless of
	// map iteration order upstream.
	canonical := func(edges []edge) {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].u != edges[j].u {
				return edges[i].u < edges[j].u
			}
			return edges[i].v < edges[j].v
		})
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	}
	canonical(baseEdges)
	canonical(extraEdges)

	ng := newRows(full)
	for _, e := range baseEdges {
		ng.addEdge(e.u, e.v) // turn-rule base is acyclic by construction
	}
	var scratch reachScratch
	for _, e := range extraEdges {
		if !ng.reachable(e.v, e.u, &scratch) {
			ng.addEdge(e.u, e.v)
		}
	}
	return ng
}

// StandardBreakers returns the fifteen acyclic-CDG strategies explored in
// the thesis' evaluation (§6.2): the twelve turn-model rules plus three
// ad-hoc cycle breakings.
func StandardBreakers() []Breaker {
	bs := make([]Breaker, 0, 15)
	for _, r := range TwelveTurnRules() {
		bs = append(bs, TurnBreaker{Rule: r})
	}
	for seed := int64(1); seed <= 3; seed++ {
		bs = append(bs, AdHocBreaker{Seed: seed})
	}
	return bs
}
