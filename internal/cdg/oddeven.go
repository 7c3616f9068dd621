package cdg

import "repro/internal/topology"

// OddEvenBreaker applies Chiu's odd-even turn model (cited in thesis
// §2.4): turn legality depends on the column of the turning node rather
// than on direction alone —
//
//	rule 1: no east-to-north turn in an even column,
//	        no north-to-west turn in an odd column;
//	rule 2: no east-to-south turn in an even column,
//	        no south-to-west turn in an odd column.
//
// Unlike the *-first/*-last families, the restriction is distributed
// evenly across the mesh, which is why adaptive routers favor it; here it
// serves as one more acyclic CDG for the BSOR exploration. Requires a
// mesh topology (column parity is undefined elsewhere).
type OddEvenBreaker struct{}

// Name implements Breaker.
func (OddEvenBreaker) Name() string { return "odd-even" }

// Break implements Breaker.
func (OddEvenBreaker) Break(full *Graph) *Graph {
	m, ok := full.Topology().(*topology.Mesh)
	if !ok {
		panic("cdg: OddEvenBreaker requires a mesh topology")
	}
	return full.Filter(func(u, v VertexID) bool {
		cu, _ := full.ChannelVC(u)
		cv, _ := full.ChannelVC(v)
		from := m.Channel(cu).Dir
		to := m.Channel(cv).Dir
		if to == from.Opposite() {
			return false
		}
		x, _ := m.XY(m.Channel(cv).Src) // the turning node
		even := x%2 == 0
		switch {
		case from == topology.East && to == topology.North:
			return !even
		case from == topology.North && to == topology.West:
			return even
		case from == topology.East && to == topology.South:
			return !even
		case from == topology.South && to == topology.West:
			return even
		}
		return true
	})
}

// init-time sanity: the odd-even model must break all cycles; verified by
// tests on several mesh sizes rather than at runtime.
var _ Breaker = OddEvenBreaker{}

// ExtendedBreakers returns StandardBreakers plus the odd-even model — the
// wider exploration set used by the ablation benchmarks.
func ExtendedBreakers() []Breaker {
	return append(StandardBreakers(), OddEvenBreaker{})
}
