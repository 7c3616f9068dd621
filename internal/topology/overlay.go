package topology

import "fmt"

// FaultOverlay is a mutable fault mask over a base topology. Unlike
// Faulted, which rebuilds the graph with re-densified channel ids, the
// overlay keeps the base numbering stable: NumChannels and Channel answer
// for every base channel (dead or alive), while the adjacency accessors
// (OutChannels, InChannels, ChannelFromTo) hide dead channels. Stable ids
// are what make online churn workable — a CDG or route set built over the
// overlay indexes the same channels as the running simulator's flat
// buffer arena, so a repaired route set can be swapped in without
// renumbering anything.
//
// The overlay is for synthesis-side use (CDG construction, route
// selection, certification); the simulator keeps the base topology and
// tracks dead channels itself.
//
// Not safe for concurrent mutation; Disable must not race with readers.
// The intended discipline is the churn supervisor's: mutate at a cycle
// barrier, then hand the overlay to background synthesis read-only.
type FaultOverlay struct {
	base Topology
	dead []bool
	out  [][]ChannelID
	in   [][]ChannelID
}

// NewFaultOverlay wraps base with an all-alive fault mask.
func NewFaultOverlay(base Topology) *FaultOverlay {
	o := &FaultOverlay{
		base: base,
		dead: make([]bool, base.NumChannels()),
		out:  make([][]ChannelID, base.NumNodes()),
		in:   make([][]ChannelID, base.NumNodes()),
	}
	for n := NodeID(0); n < NodeID(base.NumNodes()); n++ {
		o.out[n] = append([]ChannelID(nil), base.OutChannels(n)...)
		o.in[n] = append([]ChannelID(nil), base.InChannels(n)...)
	}
	return o
}

// Base returns the wrapped topology.
func (o *FaultOverlay) Base() Topology { return o.base }

// NumNodes implements Topology.
func (o *FaultOverlay) NumNodes() int { return o.base.NumNodes() }

// NumChannels reports the base channel count; dead channels keep their
// ids and stay addressable through Channel.
func (o *FaultOverlay) NumChannels() int { return o.base.NumChannels() }

// Channel implements Topology over the base numbering, dead or alive.
func (o *FaultOverlay) Channel(id ChannelID) Channel { return o.base.Channel(id) }

// NodeName implements Topology.
func (o *FaultOverlay) NodeName(n NodeID) string { return o.base.NodeName(n) }

// OutChannels returns the alive channels leaving n. The returned slice
// must not be modified.
func (o *FaultOverlay) OutChannels(n NodeID) []ChannelID { return o.out[n] }

// InChannels returns the alive channels entering n. The returned slice
// must not be modified.
func (o *FaultOverlay) InChannels(n NodeID) []ChannelID { return o.in[n] }

// ChannelFromTo returns the alive channel from src to dst, or
// InvalidChannel when none exists (including when the only such channel
// is dead).
func (o *FaultOverlay) ChannelFromTo(src, dst NodeID) ChannelID {
	for _, id := range o.out[src] {
		if o.base.Channel(id).Dst == dst {
			return id
		}
	}
	return InvalidChannel
}

// Dead returns the currently disabled channels in ascending id order.
func (o *FaultOverlay) Dead() []ChannelID {
	var ids []ChannelID
	for id, d := range o.dead {
		if d {
			ids = append(ids, ChannelID(id))
		}
	}
	return ids
}

// Disable marks the given channels dead and rebuilds the adjacency
// filters. Disabling an already-dead channel is a no-op.
func (o *FaultOverlay) Disable(ids ...ChannelID) {
	touched := make(map[NodeID]bool, 2*len(ids))
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(o.dead) {
			panic(fmt.Sprintf("topology: overlay channel %d out of range [0,%d)", id, len(o.dead)))
		}
		if o.dead[id] {
			continue
		}
		o.dead[id] = true
		c := o.base.Channel(id)
		touched[c.Src] = true
		touched[c.Dst] = true
	}
	// Rebuild the touched nodes' filtered adjacency in base creation order,
	// so iteration order is deterministic and independent of the order
	// channels were disabled in.
	for n := range touched {
		o.out[n] = filterAlive(o.out[n][:0], o.base.OutChannels(n), o.dead)
		o.in[n] = filterAlive(o.in[n][:0], o.base.InChannels(n), o.dead)
	}
}

func filterAlive(dst, src []ChannelID, dead []bool) []ChannelID {
	for _, id := range src {
		if !dead[id] {
			dst = append(dst, id)
		}
	}
	return dst
}

// Connected reports whether the alive subgraph is strongly connected —
// the precondition for any route synthesis over the overlay to cover
// every flow.
func (o *FaultOverlay) Connected() bool {
	return stronglyConnectedSubset(o.base, func(id ChannelID) bool { return !o.dead[id] })
}
