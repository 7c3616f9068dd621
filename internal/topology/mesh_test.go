package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshDimensions(t *testing.T) {
	cases := []struct {
		w, h         int
		nodes, chans int
	}{
		{1, 1, 1, 0},
		{2, 1, 2, 2},
		{1, 2, 2, 2},
		{2, 2, 4, 8},
		{3, 3, 9, 24},
		{8, 8, 64, 224},
		{4, 2, 8, 20},
	}
	for _, c := range cases {
		m := NewMesh(c.w, c.h)
		if got := m.NumNodes(); got != c.nodes {
			t.Errorf("%dx%d NumNodes = %d, want %d", c.w, c.h, got, c.nodes)
		}
		if got := m.NumChannels(); got != c.chans {
			t.Errorf("%dx%d NumChannels = %d, want %d", c.w, c.h, got, c.chans)
		}
	}
}

func TestMeshInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMesh(0, 3) did not panic")
		}
	}()
	NewMesh(0, 3)
}

func TestNodeAtXYRoundTrip(t *testing.T) {
	m := NewMesh(5, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 5; x++ {
			n := m.NodeAt(x, y)
			gx, gy := m.XY(n)
			if gx != x || gy != y {
				t.Errorf("XY(NodeAt(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	if m.NodeAt(-1, 0) != InvalidNode || m.NodeAt(5, 0) != InvalidNode ||
		m.NodeAt(0, 3) != InvalidNode {
		t.Error("out-of-range NodeAt did not return InvalidNode")
	}
}

func TestNeighbor(t *testing.T) {
	m := NewMesh(3, 3)
	center := m.NodeAt(1, 1)
	if m.Neighbor(center, East) != m.NodeAt(2, 1) {
		t.Error("East neighbor wrong")
	}
	if m.Neighbor(center, West) != m.NodeAt(0, 1) {
		t.Error("West neighbor wrong")
	}
	if m.Neighbor(center, North) != m.NodeAt(1, 2) {
		t.Error("North neighbor wrong")
	}
	if m.Neighbor(center, South) != m.NodeAt(1, 0) {
		t.Error("South neighbor wrong")
	}
	corner := m.NodeAt(0, 0)
	if m.Neighbor(corner, West) != InvalidNode || m.Neighbor(corner, South) != InvalidNode {
		t.Error("boundary neighbor should be InvalidNode")
	}
}

func TestChannelsConsistent(t *testing.T) {
	m := NewMesh(4, 4)
	for id := ChannelID(0); id < ChannelID(m.NumChannels()); id++ {
		c := m.Channel(id)
		if c.ID != id {
			t.Fatalf("channel %d stores ID %d", id, c.ID)
		}
		if m.Neighbor(c.Src, c.Dir) != c.Dst {
			t.Errorf("channel %s: Dir inconsistent", ChannelName(m, id))
		}
		if m.ChannelFromTo(c.Src, c.Dst) != id {
			t.Errorf("ChannelFromTo(%v,%v) != %d", c.Src, c.Dst, id)
		}
		if m.ChannelAt(c.Src, c.Dir) != id {
			t.Errorf("ChannelAt(%v,%v) != %d", c.Src, c.Dir, id)
		}
	}
	if m.ChannelFromTo(m.NodeAt(0, 0), m.NodeAt(2, 0)) != InvalidChannel {
		t.Error("non-adjacent ChannelFromTo should be InvalidChannel")
	}
	if m.ChannelFromTo(m.NodeAt(0, 0), m.NodeAt(0, 0)) != InvalidChannel {
		t.Error("self ChannelFromTo should be InvalidChannel")
	}
}

func TestOutInChannels(t *testing.T) {
	m := NewMesh(3, 3)
	wantDegree := func(n NodeID) int {
		x, y := m.XY(n)
		d := 0
		if x > 0 {
			d++
		}
		if x < 2 {
			d++
		}
		if y > 0 {
			d++
		}
		if y < 2 {
			d++
		}
		return d
	}
	for n := NodeID(0); n < 9; n++ {
		if got := len(m.OutChannels(n)); got != wantDegree(n) {
			t.Errorf("node %v out-degree = %d, want %d", n, got, wantDegree(n))
		}
		if got := len(m.InChannels(n)); got != wantDegree(n) {
			t.Errorf("node %v in-degree = %d, want %d", n, got, wantDegree(n))
		}
		for _, id := range m.OutChannels(n) {
			if m.Channel(id).Src != n {
				t.Errorf("out channel %d of node %v has Src %v", id, n, m.Channel(id).Src)
			}
		}
		for _, id := range m.InChannels(n) {
			if m.Channel(id).Dst != n {
				t.Errorf("in channel %d of node %v has Dst %v", id, n, m.Channel(id).Dst)
			}
		}
	}
}

func TestDirectionOpposite(t *testing.T) {
	for d := East; d < numDirections; d++ {
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite not involutive for %v", d)
		}
		if d.Opposite() == d {
			t.Errorf("Opposite(%v) == %v", d, d)
		}
	}
}

func TestDirectionStrings(t *testing.T) {
	names := map[Direction]string{East: "E", West: "W", North: "N", South: "S"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}

func TestMinimalHops(t *testing.T) {
	m := NewMesh(8, 8)
	if got := m.MinimalHops(m.NodeAt(0, 0), m.NodeAt(7, 7)); got != 14 {
		t.Errorf("MinimalHops corner-to-corner = %d, want 14", got)
	}
	if got := m.MinimalHops(m.NodeAt(3, 4), m.NodeAt(3, 4)); got != 0 {
		t.Errorf("MinimalHops self = %d, want 0", got)
	}
}

// Property: every channel has a reverse channel, and the mesh channel count
// equals 2*(w*(h-1) + h*(w-1)).
func TestMeshProperties(t *testing.T) {
	f := func(w8, h8 uint8) bool {
		w := int(w8%7) + 1
		h := int(h8%7) + 1
		m := NewMesh(w, h)
		want := 2 * (w*(h-1) + h*(w-1))
		if m.NumChannels() != want {
			return false
		}
		for id := ChannelID(0); id < ChannelID(m.NumChannels()); id++ {
			c := m.Channel(id)
			if m.ChannelFromTo(c.Dst, c.Src) == InvalidChannel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Manhattan distance is a metric (symmetry + triangle inequality).
func TestMinimalHopsMetric(t *testing.T) {
	m := NewMesh(8, 8)
	f := func(a, b, c uint8) bool {
		na, nb, nc := NodeID(a%64), NodeID(b%64), NodeID(c%64)
		if m.MinimalHops(na, nb) != m.MinimalHops(nb, na) {
			return false
		}
		return m.MinimalHops(na, nc) <= m.MinimalHops(na, nb)+m.MinimalHops(nb, nc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A grid is a Graph named after its kind and shape, whose channels are
// labelled by the coordinates of their ends.
func TestGridNames(t *testing.T) {
	m, tr := NewMesh(5, 3), NewTorus(4, 2)
	if m.Name() != "mesh5x3" || tr.Name() != "torus4x2" {
		t.Errorf("names %q, %q; want mesh5x3, torus4x2", m.Name(), tr.Name())
	}
	if got := ChannelName(m, m.ChannelAt(m.NodeAt(4, 2), South)); got != "(4,2)->(4,1)" {
		t.Errorf("mesh channel label %q", got)
	}
	if got := ChannelName(tr, tr.ChannelAt(tr.NodeAt(3, 0), East)); got != "(3,0)->(0,0)" {
		t.Errorf("torus wrap channel label %q", got)
	}
	if got := ChannelName(m, InvalidChannel); got != "-" {
		t.Errorf("invalid channel label %q, want -", got)
	}
}
