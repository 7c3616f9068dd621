package cdg

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Graph-generic cycle breaking. The turn-model and dateline breakers key
// on grid directions and torus datelines, so they cannot break the CDGs of
// arbitrary networks (rings, full meshes, folded-Clos fabrics, fault-
// degraded grids). The two breakers here need only the channel endpoints:
//
//   - UpDownBreaker is the classic up*/down* scheme: a BFS spanning order
//     rooted at a chosen node classifies every channel as up (toward the
//     root) or down (away from it), and the dependence down->up is
//     prohibited. Routes climb toward the root, then descend — always
//     possible on a network whose links are bidirectional.
//
//   - UpDownEscapeBreaker layers up*/down* under VC escalation: moves that
//     ascend to a higher virtual channel may take any turn, moves within a
//     VC obey up*/down*. Each VC buys one otherwise-forbidden down->up
//     transition, recovering much of the path diversity the plain scheme
//     removes while remaining acyclic.
//
// Both apply to any strongly connected Topology, grids included.

// upDownOrder assigns every node its BFS visit index from the root over
// the undirected link structure: the root gets 0, and every other node's
// order exceeds its tree parent's. Deterministic: neighbor sets are
// visited in ascending node id.
func upDownOrder(t topology.Topology, root topology.NodeID) []int {
	n := t.NumNodes()
	if root < 0 || int(root) >= n {
		panic(fmt.Sprintf("cdg: up*/down* root %d outside [0,%d)", root, n))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	order[root] = 0
	next := 1
	queue := []topology.NodeID{root}
	neighbors := make([]topology.NodeID, 0, 8)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		neighbors = neighbors[:0]
		for _, ch := range t.OutChannels(u) {
			neighbors = append(neighbors, t.Channel(ch).Dst)
		}
		for _, ch := range t.InChannels(u) {
			neighbors = append(neighbors, t.Channel(ch).Src)
		}
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
		for _, v := range neighbors {
			if order[v] < 0 {
				order[v] = next
				next++
				queue = append(queue, v)
			}
		}
	}
	for node, o := range order {
		if o < 0 {
			panic(fmt.Sprintf("cdg: node %d unreachable from up*/down* root %d", node, root))
		}
	}
	return order
}

// upChannels classifies every channel once: up[ch] is true when ch travels
// up (toward the root) in the BFS order from root. Endpoints always differ,
// so every channel is strictly up or strictly down.
func upChannels(t topology.Topology, root topology.NodeID) []bool {
	order := upDownOrder(t, root)
	up := make([]bool, t.NumChannels())
	for ch := range up {
		c := t.Channel(topology.ChannelID(ch))
		up[ch] = order[c.Dst] < order[c.Src]
	}
	return up
}

// UpDownBreaker is the graph-generic up*/down* strategy: dependence edges
// whose first channel travels down and whose second travels up are
// removed, uniformly across virtual channels.
//
// Acyclicity: a channel-level cycle of up channels would strictly descend
// the node order forever; once a cycle takes a down channel it can never
// go up again, so it would strictly ascend forever; both are impossible,
// and a (channel, VC) cycle would project onto a channel-level one.
type UpDownBreaker struct {
	// Root anchors the BFS spanning order. Different roots yield different
	// acyclic CDGs, so exploring several roots mirrors the thesis' breaker
	// exploration on grids.
	Root topology.NodeID
}

// Name implements Breaker.
func (b UpDownBreaker) Name() string { return fmt.Sprintf("updown@%d", b.Root) }

// Break implements Breaker.
func (b UpDownBreaker) Break(full *Graph) *Graph {
	up := upChannels(full.Topology(), b.Root)
	return full.Filter(func(u, v VertexID) bool {
		cu, _ := full.ChannelVC(u)
		cv, _ := full.ChannelVC(v)
		return !(!up[cu] && up[cv])
	})
}

// UpDownEscapeBreaker keeps an edge when it strictly ascends virtual
// channels (any turn permitted) or stays on one virtual channel and obeys
// the up*/down* rule. Acyclic for the same reason as VCEscalationBreaker:
// the VC index never decreases along a kept edge, so a cycle would have to
// stay within one VC, where up*/down* applies.
type UpDownEscapeBreaker struct {
	// Root anchors the BFS spanning order, as in UpDownBreaker.
	Root topology.NodeID
}

// Name implements Breaker.
func (b UpDownEscapeBreaker) Name() string { return fmt.Sprintf("updown-escape@%d", b.Root) }

// Break implements Breaker.
func (b UpDownEscapeBreaker) Break(full *Graph) *Graph {
	up := upChannels(full.Topology(), b.Root)
	return full.Filter(func(u, v VertexID) bool {
		cu, vcu := full.ChannelVC(u)
		cv, vcv := full.ChannelVC(v)
		if vcv > vcu {
			return true
		}
		if vcv < vcu {
			return false
		}
		return !(!up[cu] && up[cv])
	})
}

// GraphBreakers returns the default exploration set for an arbitrary
// topology with numNodes nodes: the up*/down* and escape-layered variants
// rooted at three spread-out nodes (first, middle, last), mirroring how
// StandardBreakers explores many acyclic CDGs on a mesh.
func GraphBreakers(numNodes int) []Breaker {
	roots := graphBreakerRoots(numNodes)
	bs := make([]Breaker, 0, 2*len(roots))
	for _, r := range roots {
		bs = append(bs, UpDownBreaker{Root: r})
	}
	for _, r := range roots {
		bs = append(bs, UpDownEscapeBreaker{Root: r})
	}
	return bs
}

func graphBreakerRoots(numNodes int) []topology.NodeID {
	if numNodes < 1 {
		panic(fmt.Sprintf("cdg: invalid node count %d", numNodes))
	}
	set := []topology.NodeID{0, topology.NodeID(numNodes / 2), topology.NodeID(numNodes - 1)}
	roots := set[:0]
	seen := map[topology.NodeID]bool{}
	for _, r := range set {
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
	}
	return roots
}
