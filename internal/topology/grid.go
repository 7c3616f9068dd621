package topology

import "fmt"

// Grid is the orthogonal-grid view shared by *Mesh and *Torus: a Topology
// whose nodes sit on a Width x Height lattice addressable by (x, y)
// coordinates, with one channel per direction where the topology provides
// it. The traffic patterns, the baseline routing algorithms, and the
// experiment engine consume this interface so that every workload and
// sweep runs unchanged on either topology.
type Grid interface {
	Topology
	// Width reports the X dimension.
	Width() int
	// Height reports the Y dimension.
	Height() int
	// NodeAt returns the node at (x, y), or InvalidNode when the
	// coordinates fall outside the grid.
	NodeAt(x, y int) NodeID
	// XY returns the coordinates of n.
	XY(n NodeID) (x, y int)
	// Neighbor returns the node adjacent to n in direction dir
	// (InvalidNode beyond a mesh edge; wrapped on a torus).
	Neighbor(n NodeID, dir Direction) NodeID
	// ChannelAt returns the outgoing channel of n in direction dir, or
	// InvalidChannel where the topology has none.
	ChannelAt(n NodeID, dir Direction) ChannelID
}

var (
	_ Grid = (*Mesh)(nil)
	_ Grid = (*Torus)(nil)
)

// grid is the coordinate view Mesh and Torus share over one Graph: node
// (x, y) has id y*width + x and is named "(x,y)", and wrap closes every
// row and column into a ring.
type grid struct {
	*Graph
	width, height int
	wrap          bool
	// chanAt[node][dir] is the channel leaving node in direction dir.
	chanAt [][numDirections]ChannelID
}

// newGrid builds the Graph of a width x height grid named kind{W}x{H}.
// Channels are numbered node by node in East, West, North, South order.
// The Graph's fields are filled directly, without Builder.Build: a grid
// is valid by construction, and Validate would double the build cost.
func newGrid(kind string, width, height int, wrap bool) grid {
	n := width * height
	g := grid{
		Graph: &Graph{
			name:      fmt.Sprintf("%s%dx%d", kind, width, height),
			nodeNames: make([]string, n),
			channels:  make([]Channel, 0, int(numDirections)*n),
			out:       make([][]ChannelID, n),
			in:        make([][]ChannelID, n),
		},
		width: width, height: height, wrap: wrap,
		chanAt: make([][numDirections]ChannelID, n),
	}
	for src := NodeID(0); src < NodeID(n); src++ {
		x, y := g.XY(src)
		g.nodeNames[src] = fmt.Sprintf("(%d,%d)", x, y)
		for dir := East; dir < numDirections; dir++ {
			dst := g.Neighbor(src, dir)
			if dst == InvalidNode {
				g.chanAt[src][dir] = InvalidChannel
				continue
			}
			id := ChannelID(len(g.channels))
			g.channels = append(g.channels, Channel{ID: id, Src: src, Dst: dst, Dir: dir})
			g.chanAt[src][dir] = id
			g.out[src] = append(g.out[src], id)
			g.in[dst] = append(g.in[dst], id)
		}
	}
	return g
}

// Width reports the X dimension.
func (g *grid) Width() int { return g.width }

// Height reports the Y dimension.
func (g *grid) Height() int { return g.height }

// NodeAt returns the node at (x, y): InvalidNode off a mesh, taken modulo
// the dimensions on a torus.
func (g *grid) NodeAt(x, y int) NodeID {
	if g.wrap {
		x = ((x % g.width) + g.width) % g.width
		y = ((y % g.height) + g.height) % g.height
	}
	if x < 0 || x >= g.width || y < 0 || y >= g.height {
		return InvalidNode
	}
	return NodeID(y*g.width + x)
}

// XY returns the coordinates of node n.
func (g *grid) XY(n NodeID) (x, y int) {
	return int(n) % g.width, int(n) / g.width
}

// Neighbor returns the node adjacent to n in direction dir: InvalidNode
// at a mesh boundary, always valid on a torus.
func (g *grid) Neighbor(n NodeID, dir Direction) NodeID {
	x, y := g.XY(n)
	switch dir {
	case East:
		x++
	case West:
		x--
	case North:
		y++
	case South:
		y--
	}
	return g.NodeAt(x, y)
}

// ChannelAt returns the channel leaving n in direction dir, or
// InvalidChannel at a mesh boundary.
func (g *grid) ChannelAt(n NodeID, dir Direction) ChannelID { return g.chanAt[n][dir] }

// MinimalHops returns the minimal path length in hops between two nodes:
// the Manhattan distance on a mesh, its modular form on a torus.
func (g *grid) MinimalHops(a, b NodeID) int {
	ax, ay := g.XY(a)
	bx, by := g.XY(b)
	dx, dy := abs(ax-bx), abs(ay-by)
	if g.wrap {
		dx = min(dx, g.width-dx)
		dy = min(dy, g.height-dy)
	}
	return dx + dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
