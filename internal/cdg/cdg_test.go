package cdg

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestFullCDGVertexEdgeCounts(t *testing.T) {
	m := topology.NewMesh(3, 3)
	g := NewFull(m, 1)
	if got := g.NumVertices(); got != 24 {
		t.Errorf("3x3 1-VC CDG vertices = %d, want 24", got)
	}
	// Edges = sum over nodes of indeg*(outdeg-1): 180-degree turns excluded.
	// 3x3: 4 corners (deg 2) -> 8, 4 edge-mids (deg 3) -> 24, center -> 12.
	if got := g.NumEdges(); got != 44 {
		t.Errorf("3x3 1-VC CDG edges = %d, want 44", got)
	}
	if g.IsAcyclic() {
		t.Error("full 3x3 CDG must be cyclic")
	}
}

func TestFullCDGMultiVC(t *testing.T) {
	m := topology.NewMesh(3, 3)
	g1 := NewFull(m, 1)
	g2 := NewFull(m, 2)
	if got, want := g2.NumVertices(), 2*g1.NumVertices(); got != want {
		t.Errorf("2-VC vertices = %d, want %d", got, want)
	}
	if got, want := g2.NumEdges(), 4*g1.NumEdges(); got != want {
		t.Errorf("2-VC edges = %d, want %d (z^2 expansion)", got, want)
	}
}

func TestVertexChannelVCRoundTrip(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := NewFull(m, 4)
	for ch := topology.ChannelID(0); ch < topology.ChannelID(m.NumChannels()); ch++ {
		for vc := 0; vc < 4; vc++ {
			v := g.Vertex(ch, vc)
			gc, gvc := g.ChannelVC(v)
			if gc != ch || gvc != vc {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", ch, vc, v, gc, gvc)
			}
		}
	}
}

func TestVertexRangePanics(t *testing.T) {
	m := topology.NewMesh(2, 2)
	g := NewFull(m, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Vertex with out-of-range vc did not panic")
		}
	}()
	g.Vertex(0, 2)
}

func TestNo180DegreeTurns(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := NewFull(m, 2)
	for u := 0; u < g.NumVertices(); u++ {
		cu, _ := g.ChannelVC(VertexID(u))
		for _, v := range g.Out(VertexID(u)) {
			cv, _ := g.ChannelVC(v)
			chu, chv := m.Channel(cu), m.Channel(cv)
			if chu.Src == chv.Dst && chu.Dst == chv.Src {
				t.Fatalf("180-degree turn present: %s then %s",
					topology.ChannelName(m, cu), topology.ChannelName(m, cv))
			}
			if chu.Dst != chv.Src {
				t.Fatalf("non-consecutive CDG edge: %s then %s",
					topology.ChannelName(m, cu), topology.ChannelName(m, cv))
			}
		}
	}
}

func TestTurnModelProhibitions(t *testing.T) {
	type turn struct{ from, to topology.Direction }
	cases := []struct {
		model      TurnModel
		prohibited []turn
	}{
		{WestFirst, []turn{{topology.North, topology.West}, {topology.South, topology.West}}},
		{NorthLast, []turn{{topology.North, topology.East}, {topology.North, topology.West}}},
		{NegativeFirst, []turn{{topology.North, topology.West}, {topology.East, topology.South}}},
	}
	for _, c := range cases {
		count := 0
		for _, from := range []topology.Direction{topology.East, topology.West, topology.North, topology.South} {
			for _, to := range []topology.Direction{topology.East, topology.West, topology.North, topology.South} {
				if to == from.Opposite() {
					if c.model.Allows(from, to) {
						t.Errorf("%v allows 180-degree %v->%v", c.model, from, to)
					}
					continue
				}
				if !c.model.Allows(from, to) {
					count++
					found := false
					for _, p := range c.prohibited {
						if p.from == from && p.to == to {
							found = true
						}
					}
					if !found {
						t.Errorf("%v unexpectedly prohibits %v->%v", c.model, from, to)
					}
				}
			}
		}
		if count != len(c.prohibited) {
			t.Errorf("%v prohibits %d turns, want %d", c.model, count, len(c.prohibited))
		}
	}
}

func TestDimensionOrderModels(t *testing.T) {
	// XY prohibits all four Y-to-X turns; YX all four X-to-Y turns.
	yToX := 0
	for _, from := range []topology.Direction{topology.North, topology.South} {
		for _, to := range []topology.Direction{topology.East, topology.West} {
			if !XYOrder.Allows(from, to) {
				yToX++
			}
			if !YXOrder.Allows(to, from) {
				yToX++
			}
		}
	}
	if yToX != 8 {
		t.Errorf("XY/YX prohibited turn count = %d, want 8", yToX)
	}
	if !XYOrder.Allows(topology.East, topology.North) {
		t.Error("XY must allow X-to-Y turns")
	}
	if !YXOrder.Allows(topology.North, topology.East) {
		t.Error("YX must allow Y-to-X turns")
	}
}

// The thesis (§3.3) notes that the turn model removes 8 edges from the 3x3
// CDG, versus 12 for its ad hoc examples.
func TestTurnBreakerRemovesEightEdgesOn3x3(t *testing.T) {
	m := topology.NewMesh(3, 3)
	full := NewFull(m, 1)
	for _, rule := range []TurnRule{NorthLast, WestFirst, NegativeFirst} {
		a := TurnBreaker{Rule: rule}.Break(full)
		removed := full.NumEdges() - a.NumEdges()
		if removed != 8 {
			t.Errorf("%s removed %d edges on 3x3, want 8", rule.Name(), removed)
		}
		if !a.IsAcyclic() {
			t.Errorf("%s CDG is cyclic", rule.Name())
		}
	}
}

func TestAllTurnRulesAcyclic(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 4}, {8, 8}, {5, 2}} {
		m := topology.NewMesh(dims[0], dims[1])
		for _, vcs := range []int{1, 2} {
			full := NewFull(m, vcs)
			rules := append(TwelveTurnRules(), XYOrder, YXOrder)
			for _, r := range rules {
				a := TurnBreaker{Rule: r}.Break(full)
				if !a.IsAcyclic() {
					t.Errorf("%dx%d vcs=%d rule %s: cyclic CDG",
						dims[0], dims[1], vcs, r.Name())
				}
			}
		}
	}
}

func TestCanonicalModelsMatchFamilies(t *testing.T) {
	dirs := []topology.Direction{topology.East, topology.West, topology.North, topology.South}
	for _, from := range dirs {
		for _, to := range dirs {
			if WestFirst.Allows(from, to) != FirstRule(topology.West).Allows(from, to) {
				t.Errorf("WestFirst != FirstRule(West) on %v->%v", from, to)
			}
			if NorthLast.Allows(from, to) != LastRule(topology.North).Allows(from, to) {
				t.Errorf("NorthLast != LastRule(North) on %v->%v", from, to)
			}
			if NegativeFirst.Allows(from, to) !=
				NegativeFirstRule(topology.West, topology.South).Allows(from, to) {
				t.Errorf("NegativeFirst != NegativeFirstRule(W,S) on %v->%v", from, to)
			}
		}
	}
}

func TestAdHocBreaker(t *testing.T) {
	m := topology.NewMesh(3, 3)
	full := NewFull(m, 1)
	a1 := AdHocBreaker{Seed: 1}.Break(full)
	if !a1.IsAcyclic() {
		t.Fatal("ad hoc CDG cyclic")
	}
	// Deterministic per seed.
	b1 := AdHocBreaker{Seed: 1}.Break(full)
	if a1.NumEdges() != b1.NumEdges() {
		t.Error("ad hoc breaker not deterministic")
	}
	for u := 0; u < a1.NumVertices(); u++ {
		for _, v := range a1.Out(VertexID(u)) {
			if !b1.HasEdge(VertexID(u), v) {
				t.Fatal("ad hoc breaker not deterministic (edge set differs)")
			}
		}
	}
	// Maximal: every removed edge closes a cycle if re-added.
	var scratch reachScratch
	for u := 0; u < full.NumVertices(); u++ {
		for _, v := range full.Out(VertexID(u)) {
			if !a1.HasEdge(VertexID(u), v) && !a1.reachable(v, VertexID(u), &scratch) {
				t.Fatalf("edge %d->%d removed but would not close a cycle", u, v)
			}
		}
	}
}

func TestAdHocBreakerSeedsDiffer(t *testing.T) {
	m := topology.NewMesh(4, 4)
	full := NewFull(m, 1)
	a := AdHocBreaker{Seed: 1}.Break(full)
	b := AdHocBreaker{Seed: 2}.Break(full)
	same := true
	for u := 0; u < a.NumVertices() && same; u++ {
		for _, v := range a.Out(VertexID(u)) {
			if !b.HasEdge(VertexID(u), v) {
				same = false
				break
			}
		}
	}
	if same && a.NumEdges() == b.NumEdges() {
		t.Error("different seeds produced identical ad hoc CDGs")
	}
}

func TestAdHocBreakerPropertyAcyclic(t *testing.T) {
	m := topology.NewMesh(4, 4)
	full := NewFull(m, 1)
	f := func(seed int64) bool {
		return AdHocBreaker{Seed: seed}.Break(full).IsAcyclic()
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVCEscalationBreaker(t *testing.T) {
	m := topology.NewMesh(4, 4)
	full := NewFull(m, 2)
	a := VCEscalationBreaker{Rule: XYOrder}.Break(full)
	if !a.IsAcyclic() {
		t.Fatal("VC-escalation CDG cyclic")
	}
	// Must never descend VCs.
	for u := 0; u < a.NumVertices(); u++ {
		_, vcu := a.ChannelVC(VertexID(u))
		for _, v := range a.Out(VertexID(u)) {
			_, vcv := a.ChannelVC(v)
			if vcv < vcu {
				t.Fatalf("VC-descending edge vc%d -> vc%d", vcu, vcv)
			}
		}
	}
	// All turns must be available somewhere (via VC ascent), including ones
	// the rule prohibits in-VC: check a Y-to-X edge exists with vc ascent.
	found := false
	for u := 0; u < a.NumVertices() && !found; u++ {
		cu, vcu := a.ChannelVC(VertexID(u))
		if m.Channel(cu).Dir != topology.North {
			continue
		}
		for _, v := range a.Out(VertexID(u)) {
			cv, vcv := a.ChannelVC(v)
			if m.Channel(cv).Dir == topology.East && vcv > vcu {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("VC escalation should permit prohibited turns on VC ascent")
	}
}

func TestVirtualNetworksBreaker(t *testing.T) {
	m := topology.NewMesh(4, 4)
	full := NewFull(m, 2)
	b := VirtualNetworksBreaker{Rules: []TurnRule{XYOrder, YXOrder}}
	a := b.Break(full)
	if !a.IsAcyclic() {
		t.Fatal("virtual-networks CDG cyclic")
	}
	for u := 0; u < a.NumVertices(); u++ {
		_, vcu := a.ChannelVC(VertexID(u))
		for _, v := range a.Out(VertexID(u)) {
			_, vcv := a.ChannelVC(v)
			if vcu != vcv {
				t.Fatal("virtual networks must not switch VCs")
			}
		}
	}
}

func TestVirtualNetworksBreakerWrongArity(t *testing.T) {
	m := topology.NewMesh(2, 2)
	full := NewFull(m, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched rule count did not panic")
		}
	}()
	VirtualNetworksBreaker{Rules: []TurnRule{XYOrder}}.Break(full)
}

func TestStandardBreakers(t *testing.T) {
	bs := StandardBreakers()
	if len(bs) != 15 {
		t.Fatalf("StandardBreakers returned %d, want 15", len(bs))
	}
	m := topology.NewMesh(4, 4)
	full := NewFull(m, 1)
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name()] {
			t.Errorf("duplicate breaker name %q", b.Name())
		}
		seen[b.Name()] = true
		if !b.Break(full).IsAcyclic() {
			t.Errorf("breaker %s produced cyclic CDG", b.Name())
		}
	}
}
