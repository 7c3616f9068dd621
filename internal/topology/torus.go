package topology

import "fmt"

// Torus is a two-dimensional k-ary torus: like Mesh but with wraparound
// channels closing each row and column into rings. The thesis presents
// BSOR as topology independent; the torus exercises that claim — route
// selection works unchanged, with deadlock freedom restored by the
// dateline cycle-breaking strategy in the cdg package (wraparound rings
// introduce turn-free channel cycles that no turn model alone can break).
type Torus struct{ grid }

// NewTorus constructs a Width x Height torus. Both dimensions must be at
// least 2. Below 3 a channel's reverse coincides with its wraparound, so a
// 2-wide dimension yields two parallel channels between each node pair
// (one wrapping) — a degenerate but valid multigraph that Validate and the
// dateline breaker handle; dimensions of 3 and up have distinct reverses.
func NewTorus(width, height int) *Torus {
	if width < 2 || height < 2 {
		panic(fmt.Sprintf("topology: invalid torus %dx%d (min 2x2)", width, height))
	}
	return &Torus{newGrid("torus", width, height, true)}
}

// ChannelFromTo implements Topology. On a 2-wide dimension two parallel
// channels join the same node pair (one wrapping); the non-wrapping one
// is preferred.
func (t *Torus) ChannelFromTo(src, dst NodeID) ChannelID {
	found := InvalidChannel
	for _, id := range t.out[src] {
		if t.channels[id].Dst != dst {
			continue
		}
		if !t.Wraparound(id) {
			return id
		}
		found = id
	}
	return found
}

// Wraparound reports whether a channel crosses the dateline of its
// dimension, which sits between the last and first row or column.
func (t *Torus) Wraparound(id ChannelID) bool {
	c := t.channels[id]
	x, y := t.XY(c.Src)
	switch c.Dir {
	case East:
		return x == t.width-1
	case West:
		return x == 0
	case North:
		return y == t.height-1
	}
	return y == 0 // South
}
