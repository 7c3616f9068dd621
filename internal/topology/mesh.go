package topology

import "fmt"

// Mesh is a two-dimensional mesh: Width x Height nodes, with a pair of
// directed channels between every two adjacent nodes. Node (x, y) has id
// y*Width + x; (0, 0) is the south-west corner. It is a Graph named
// mesh{W}x{H} with coordinates.
type Mesh struct{ grid }

// NewMesh constructs a Width x Height mesh. Both dimensions must be at
// least 1; a mesh with a dimension of 1 degenerates to a line.
func NewMesh(width, height int) *Mesh {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", width, height))
	}
	return &Mesh{newGrid("mesh", width, height, false)}
}
