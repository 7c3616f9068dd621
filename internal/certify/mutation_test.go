package certify

import (
	"errors"
	"testing"

	"repro/internal/cdg"
	"repro/internal/topology"
)

// TestMutationFlippedCDGEdge flips exactly one dependence of a certified
// instance — adding the reverse of an edge the acyclic CDG contains — and
// requires the checker to pinpoint the minimal 2-cycle through that very
// edge, not merely fail.
func TestMutationFlippedCDGEdge(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	if _, err := Certify(in); err != nil {
		t.Fatalf("unmutated instance must certify: %v", err)
	}
	var u, v cdg.VertexID = -1, -1 // -1: no edge found yet
	for x := 0; x < in.CDG.NumVertices() && u < 0; x++ {
		if out := in.CDG.Out(cdg.VertexID(x)); len(out) > 0 {
			u, v = cdg.VertexID(x), out[0]
		}
	}
	in.CDG = in.CDG.WithEdge(v, u)

	_, err := Certify(in)
	var ce *Counterexample
	if !errors.As(err, &ce) {
		t.Fatalf("want *Counterexample, got %v", err)
	}
	if ce.Kind != KindCycle || len(ce.Cycle)-1 != 2 {
		t.Fatalf("want a 2-cycle counterexample, got kind %q cycle %v", ce.Kind, ce.Labels)
	}
	// The reported cycle must be u <-> v itself, in either rotation.
	a := in.CDG.Vertex(ce.Cycle[0].Channel, ce.Cycle[0].VC)
	b := in.CDG.Vertex(ce.Cycle[1].Channel, ce.Cycle[1].VC)
	if !(a == u && b == v || a == v && b == u) {
		t.Fatalf("counterexample cycle %v does not pass through the flipped edge (%d, %d)", ce.Labels, u, v)
	}
}

// TestMutationFlippedRouteHop rewrites exactly one hop of one route to a
// channel that does not continue the path and requires the checker to
// name that flow and that hop.
func TestMutationFlippedRouteHop(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	if _, err := Certify(in); err != nil {
		t.Fatalf("unmutated instance must certify: %v", err)
	}
	victim := -1
	for i := range in.Routes.Routes {
		if len(in.Routes.Routes[i].Channels) >= 3 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no route with >= 3 hops to mutate")
	}
	r := &in.Routes.Routes[victim]
	hop := len(r.Channels) / 2
	prev := in.Topo.Channel(r.Channels[hop-1])
	replacement := topology.InvalidChannel
	for c := topology.ChannelID(0); c < topology.ChannelID(in.Topo.NumChannels()); c++ {
		if in.Topo.Channel(c).Src != prev.Dst {
			replacement = c
			break
		}
	}
	if replacement == topology.InvalidChannel {
		t.Fatal("no non-contiguous replacement channel")
	}
	r.Channels[hop] = replacement

	_, err := Certify(in)
	var ce *Counterexample
	if !errors.As(err, &ce) {
		t.Fatalf("want *Counterexample, got %v", err)
	}
	if ce.Kind != KindRoute {
		t.Fatalf("kind = %q, want %q (%v)", ce.Kind, KindRoute, ce)
	}
	if ce.Flow != r.Flow.Name || ce.Hop != hop {
		t.Fatalf("counterexample blames flow %q hop %d, want flow %q hop %d",
			ce.Flow, ce.Hop, r.Flow.Name, hop)
	}
}
