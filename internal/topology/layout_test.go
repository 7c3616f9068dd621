package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// gridLayoutDigest is the sha256 of writeGridLayout over every shape in
// TestGridLayoutPinned. Every downstream golden (CDG rows, route sets,
// simulator buffer numbering, channel labels) hangs off this layout, so
// a change to it is a change to every output; do not re-record it.
const gridLayoutDigest = "d43ed204b9ef564b5c41887f8725b0c13349ab0c90ede26f3d2029806269d710"

// TestGridLayoutPinned pins everything a grid answers — channel
// numbering, adjacency order, names, coordinates, neighbours, distances,
// pair lookups and torus wrap flags — as one digest over meshes and tori
// of every degenerate and ordinary shape.
func TestGridLayoutPinned(t *testing.T) {
	h := sha256.New()
	for _, d := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 2}, {5, 3}, {8, 8}, {16, 16}} {
		writeGridLayout(h, "mesh", NewMesh(d[0], d[1]))
	}
	for _, d := range [][2]int{{2, 2}, {2, 5}, {5, 2}, {3, 3}, {8, 8}, {16, 16}} {
		writeGridLayout(h, "torus", NewTorus(d[0], d[1]))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != gridLayoutDigest {
		t.Errorf("grid layout digest = %s, want %s", got, gridLayoutDigest)
	}
}

func writeGridLayout(w io.Writer, kind string, g Grid) {
	n, nc := g.NumNodes(), g.NumChannels()
	fmt.Fprintf(w, "%s %dx%d nodes=%d channels=%d\n", kind, g.Width(), g.Height(), n, nc)
	for id := ChannelID(0); id < ChannelID(nc); id++ {
		c := g.Channel(id)
		fmt.Fprintf(w, "c %d %d %d %d", c.ID, c.Src, c.Dst, c.Dir)
		if tr, ok := g.(*Torus); ok {
			fmt.Fprintf(w, " wrap=%t", tr.Wraparound(id))
		}
		fmt.Fprintln(w)
	}
	for u := NodeID(0); u < NodeID(n); u++ {
		x, y := g.XY(u)
		fmt.Fprintf(w, "n %d %q xy=%d,%d out=%v in=%v", u, g.NodeName(u), x, y, g.OutChannels(u), g.InChannels(u))
		for dir := East; dir < numDirections; dir++ {
			fmt.Fprintf(w, " %v=%d/%d", dir, g.ChannelAt(u, dir), g.Neighbor(u, dir))
		}
		fmt.Fprintln(w)
	}
	for y := -g.Height() - 1; y <= 2*g.Height(); y++ {
		for x := -g.Width() - 1; x <= 2*g.Width(); x++ {
			fmt.Fprintf(w, "%d ", g.NodeAt(x, y))
		}
		fmt.Fprintln(w)
	}
	hops := g.(interface{ MinimalHops(a, b NodeID) int })
	for a := NodeID(0); a < NodeID(n); a++ {
		for b := NodeID(0); b < NodeID(n); b++ {
			if n <= 64 {
				fmt.Fprintf(w, "%d/", hops.MinimalHops(a, b))
			}
			fmt.Fprintf(w, "%d ", g.ChannelFromTo(a, b))
		}
		fmt.Fprintln(w)
	}
}
