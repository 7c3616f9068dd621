// Package topology defines the on-chip network graphs that the BSOR routing
// framework operates on.
//
// A topology is a set of nodes (switch + attached processing element) joined
// by directed channels (unidirectional physical links). The thesis adopts a
// two-dimensional mesh for illustration, and so does the bulk of this
// repository, but everything downstream of this package (channel dependence
// graphs, flow networks, route selectors, the simulator) consumes only the
// Topology interface and is therefore topology independent, as the paper
// claims for the algorithm itself.
package topology

import "fmt"

// NodeID identifies a network node (switch plus its attached resource).
// Nodes are numbered densely from 0 to NumNodes-1.
type NodeID int

// ChannelID identifies a directed physical channel between two adjacent
// nodes. Channels are numbered densely from 0 to NumChannels-1.
type ChannelID int

// Invalid is returned by lookups that have no answer, such as asking for the
// neighbor beyond a mesh edge.
const (
	InvalidNode    NodeID    = -1
	InvalidChannel ChannelID = -1
)

// Direction is a displacement along one dimension of an orthogonal topology.
type Direction int

// The four mesh directions. East increases X, North increases Y.
const (
	East Direction = iota
	West
	North
	South
	numDirections
)

// Opposite returns the 180-degree reverse of d.
func (d Direction) Opposite() Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	panic(fmt.Sprintf("topology: invalid direction %d", int(d)))
}

func (d Direction) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Channel is a directed physical link from Src to Dst.
type Channel struct {
	ID  ChannelID
	Src NodeID
	Dst NodeID
	// Dir is the direction of travel Src -> Dst in an orthogonal topology.
	Dir Direction
}

// Topology is the read-only view of a network that the routing layers need.
type Topology interface {
	// NumNodes reports the number of nodes.
	NumNodes() int
	// NumChannels reports the number of directed channels.
	NumChannels() int
	// Channel returns the channel with the given id.
	Channel(id ChannelID) Channel
	// ChannelFromTo returns the channel from src to dst, or InvalidChannel
	// if the nodes are not adjacent.
	ChannelFromTo(src, dst NodeID) ChannelID
	// OutChannels returns the ids of channels leaving n.
	OutChannels(n NodeID) []ChannelID
	// InChannels returns the ids of channels entering n.
	InChannels(n NodeID) []ChannelID
	// NodeName returns a short human-readable name for a node, used in
	// diagnostics and route dumps.
	NodeName(n NodeID) string
}

// ChannelName labels a channel "src->dst" with node names, and
// InvalidChannel "-". It is the one channel label of every diagnostic,
// counterexample and route dump.
func ChannelName(t Topology, id ChannelID) string {
	if id == InvalidChannel {
		return "-"
	}
	c := t.Channel(id)
	return t.NodeName(c.Src) + "->" + t.NodeName(c.Dst)
}
