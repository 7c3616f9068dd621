package cdg

import (
	"fmt"

	"repro/internal/topology"
)

// TurnModel is a systematic rule set (Glass & Ni) restricting which turns a
// route may take in a 2-D mesh. Each model prohibits just enough turns to
// make the channel dependence graph acyclic. The thesis uses turn models
// offline, to derive acyclic CDGs that drive oblivious route selection
// (§3.3), rather than for adaptive routing as originally proposed.
type TurnModel int

const (
	// WestFirst prohibits turning to the west (N->W and S->W): any westward
	// travel must happen first.
	WestFirst TurnModel = iota
	// NorthLast prohibits turning out of north (N->E and N->W): northward
	// travel must happen last.
	NorthLast
	// NegativeFirst prohibits turning from a positive direction (E, N) to a
	// negative one (W, S): N->W and E->S.
	NegativeFirst
	// XYOrder prohibits every Y-to-X turn, which restricts routes to
	// X-dimension travel followed by Y-dimension travel (dimension order).
	XYOrder
	// YXOrder prohibits every X-to-Y turn (Y first, then X).
	YXOrder
)

func (tm TurnModel) String() string {
	switch tm {
	case WestFirst:
		return "west-first"
	case NorthLast:
		return "north-last"
	case NegativeFirst:
		return "negative-first"
	case XYOrder:
		return "xy-order"
	case YXOrder:
		return "yx-order"
	}
	return fmt.Sprintf("TurnModel(%d)", int(tm))
}

// Allows reports whether a packet traveling in direction from may continue
// in direction to under this model. Straight-through movement is always
// allowed; 180-degree reversals are never allowed (they are excluded from
// CDGs before turn models apply, but Allows rejects them for safety).
func (tm TurnModel) Allows(from, to topology.Direction) bool {
	if from == to {
		return true
	}
	if to == from.Opposite() {
		return false
	}
	prohibited := func(a, b topology.Direction) bool { return from == a && to == b }
	switch tm {
	case WestFirst:
		return !prohibited(topology.North, topology.West) &&
			!prohibited(topology.South, topology.West)
	case NorthLast:
		return !prohibited(topology.North, topology.East) &&
			!prohibited(topology.North, topology.West)
	case NegativeFirst:
		return !prohibited(topology.North, topology.West) &&
			!prohibited(topology.East, topology.South)
	case XYOrder:
		return !(from == topology.North || from == topology.South)
	case YXOrder:
		return !(from == topology.East || from == topology.West)
	}
	panic(fmt.Sprintf("cdg: invalid turn model %d", int(tm)))
}
