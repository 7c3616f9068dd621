package certify

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// meshInstance synthesizes a small BSOR instance under one breaker and
// returns everything the checker needs.
func meshInstance(t *testing.T, breaker cdg.Breaker) Instance {
	t.Helper()
	m := topology.NewMesh(4, 4)
	flows, err := traffic.Transpose(m, 25)
	if err != nil {
		t.Fatalf("Transpose: %v", err)
	}
	cfg := core.Config{VCs: 2, Breakers: []cdg.Breaker{breaker}}
	set, _, err := core.BestContext(context.Background(), m, flows, cfg)
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	dag := breaker.Break(cdg.NewFull(m, 2))
	return Instance{Topo: m, CDG: dag, Routes: set, VCs: 2}
}

func TestCertifyMeshInstance(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	cert, err := Certify(in)
	if err != nil {
		t.Fatalf("Certify rejected a valid instance: %v", err)
	}
	if cert.UsedOnly {
		t.Fatal("certificate marked used-only despite a claimed CDG")
	}
	if cert.Flows != len(in.Routes.Routes) || cert.Channels != in.Topo.NumChannels() {
		t.Fatalf("certificate dimensions %d flows / %d channels, want %d / %d",
			cert.Flows, cert.Channels, len(in.Routes.Routes), in.Topo.NumChannels())
	}
	if cert.Levels < 2 {
		t.Fatalf("layering depth %d is implausibly shallow", cert.Levels)
	}
	if err := cert.Check(in); err != nil {
		t.Fatalf("Check rejected Certify's own certificate: %v", err)
	}
}

func TestCertifyUsedOnlyBaseline(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows, err := traffic.Transpose(m, 25)
	if err != nil {
		t.Fatalf("Transpose: %v", err)
	}
	set, err := route.XY{}.Routes(m, flows)
	if err != nil {
		t.Fatalf("XY: %v", err)
	}
	in := Instance{Topo: m, Routes: set, VCs: 2}
	cert, err := Certify(in)
	if err != nil {
		t.Fatalf("Certify rejected XY routes: %v", err)
	}
	if !cert.UsedOnly {
		t.Fatal("certificate without a CDG must be marked used-only")
	}
	if err := cert.Check(in); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestCertifyRejectsCyclicCDG(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	// The full CDG of any mesh with cycles is cyclic: the canonical
	// known-cyclic mutant.
	in.CDG = cdg.NewFull(in.Topo, in.VCs)
	_, err := Certify(in)
	var ce *Counterexample
	if !errors.As(err, &ce) {
		t.Fatalf("want *Counterexample, got %v", err)
	}
	if ce.Kind != KindCycle {
		t.Fatalf("kind = %q, want %q (%v)", ce.Kind, KindCycle, ce)
	}
	if len(ce.Cycle) < 3 || ce.Cycle[0] != ce.Cycle[len(ce.Cycle)-1] {
		t.Fatalf("counterexample cycle %v is not a closed walk", ce.Labels)
	}
	// The cycle must be real: every consecutive pair an edge of the CDG.
	for i := 0; i+1 < len(ce.Cycle); i++ {
		u := in.CDG.Vertex(ce.Cycle[i].Channel, ce.Cycle[i].VC)
		v := in.CDG.Vertex(ce.Cycle[i+1].Channel, ce.Cycle[i+1].VC)
		if !in.CDG.HasEdge(u, v) {
			t.Fatalf("counterexample step %d (%s -> %s) is not a CDG edge",
				i, ce.Labels[i], ce.Labels[i+1])
		}
	}
}

func TestCertifyRejectsDisconnectedRoute(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	// Truncate the longest route: it no longer reaches its sink.
	longest := 0
	for i := range in.Routes.Routes {
		if len(in.Routes.Routes[i].Channels) > len(in.Routes.Routes[longest].Channels) {
			longest = i
		}
	}
	r := &in.Routes.Routes[longest]
	if len(r.Channels) < 2 {
		t.Skip("no multi-hop route to truncate")
	}
	r.Channels = r.Channels[:len(r.Channels)-1]
	r.VCs = r.VCs[:len(r.VCs)-1]

	_, err := Certify(in)
	var ce *Counterexample
	if !errors.As(err, &ce) {
		t.Fatalf("want *Counterexample, got %v", err)
	}
	if ce.Kind != KindRoute || ce.Flow != r.Flow.Name {
		t.Fatalf("counterexample %v does not blame flow %s", ce, r.Flow.Name)
	}
}

func TestCertifyRejectsIllegalVCTransition(t *testing.T) {
	// Under up*/down*-escape the VC index may never decrease along a
	// route; forcing a descent on a multi-hop route is an illegal
	// transition the CDG does not contain.
	g := topology.NewRing(8)
	flows, err := traffic.RandomPermutation(g, 25, 1)
	if err != nil {
		t.Fatalf("RandomPermutation: %v", err)
	}
	breaker := cdg.UpDownEscapeBreaker{Root: 0}
	cfg := core.Config{VCs: 2, Breakers: []cdg.Breaker{breaker}}
	set, _, err := core.BestContext(context.Background(), g, flows, cfg)
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	dag := breaker.Break(cdg.NewFull(g, 2))
	in := Instance{Topo: g, CDG: dag, Routes: set, VCs: 2}
	if _, err := Certify(in); err != nil {
		t.Fatalf("Certify rejected the unmutated instance: %v", err)
	}
	mutated := false
	for i := range in.Routes.Routes {
		r := &in.Routes.Routes[i]
		if len(r.Channels) >= 2 {
			r.VCs[0] = 1
			for k := 1; k < len(r.VCs); k++ {
				r.VCs[k] = 0
			}
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no multi-hop route to mutate")
	}
	_, err = Certify(in)
	var ce *Counterexample
	if !errors.As(err, &ce) {
		t.Fatalf("want *Counterexample, got %v", err)
	}
	if ce.Kind != KindTransition {
		t.Fatalf("kind = %q, want %q (%v)", ce.Kind, KindTransition, ce)
	}
}

func TestCertifyCapacity(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	cert, err := Certify(in)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	// A generous bound passes; a bound below the MCL is refuted.
	in.Capacity = cert.MCL + 1
	if _, err := Certify(in); err != nil {
		t.Fatalf("capacity above MCL must pass: %v", err)
	}
	in.Capacity = cert.MCL / 2
	_, err = Certify(in)
	var ce *Counterexample
	if !errors.As(err, &ce) || ce.Kind != KindCapacity {
		t.Fatalf("want capacity counterexample, got %v", err)
	}
}

func TestCheckRejectsDoctoredCertificate(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	cert, err := Certify(in)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	// Tamper with one rank: lift a vertex with an outgoing dependence to
	// the top layer, so that edge no longer ascends. The linear edge scan
	// must notice.
	tampered := false
	for u := 0; u < in.CDG.NumVertices() && !tampered; u++ {
		if len(in.CDG.Out(cdg.VertexID(u))) > 0 {
			cert.Rank[u] = cert.Levels - 1
			tampered = true
		}
	}
	if !tampered {
		t.Fatal("no vertex with outgoing edges")
	}
	if err := cert.Check(in); err == nil {
		t.Fatal("Check accepted a doctored ranking")
	}
}

func TestCheckRejectsInstanceMismatch(t *testing.T) {
	in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
	cert, err := Certify(in)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	other := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.East)})
	other.Topo = topology.NewMesh(5, 4)
	if err := cert.Check(other); err == nil {
		t.Fatal("Check accepted a certificate for a different topology")
	}
}

func TestMinimalCycleFindsShortest(t *testing.T) {
	// Two cycles share vertex 0: a long one 0->1->2->3->0 and a short one
	// 4->5->4 elsewhere; the reported counterexample must be the 2-cycle.
	cycle := func(edges []edge) []int32 {
		d := edgeDeps(6, edges)
		_, left := peel(&d)
		if acyclic(left) {
			t.Fatalf("peel accepted the cyclic edge set %v", edges)
		}
		return minimalCycle(&d, left)
	}
	cyc := cycle([]edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 4}})
	if len(cyc)-1 != 2 {
		t.Fatalf("minimal cycle length %d, want 2 (%v)", len(cyc)-1, cyc)
	}
	// Remove the 2-cycle's back edge: the 4-cycle is now minimal.
	cyc = cycle([]edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}})
	if len(cyc)-1 != 4 {
		t.Fatalf("minimal cycle length %d, want 4 (%v)", len(cyc)-1, cyc)
	}
}

func TestCertifyDeterministicCounterexample(t *testing.T) {
	// Same mutant, same counterexample — byte for byte.
	mk := func() string {
		in := meshInstance(t, cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)})
		in.CDG = cdg.NewFull(in.Topo, in.VCs)
		_, err := Certify(in)
		var ce *Counterexample
		if !errors.As(err, &ce) {
			t.Fatalf("want counterexample, got %v", err)
		}
		return ce.Error()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("counterexample not deterministic:\n%s\n%s", a, b)
	}
}

func TestCertifyRandomGraphInstances(t *testing.T) {
	// Seeded random graphs x random demands, certified under both
	// up*/down* variants — the core of the randomized harness.
	for seed := int64(1); seed <= 8; seed++ {
		g := topology.NewRandomConnected(6+int(seed), int(seed)%5, seed)
		flows, err := traffic.RandomFlows(g, 2*g.NumNodes(), 40, seed)
		if err != nil {
			t.Fatalf("seed %d: RandomFlows: %v", seed, err)
		}
		for _, b := range cdg.GraphBreakers(g.NumNodes()) {
			cfg := core.Config{VCs: 2, Breakers: []cdg.Breaker{b}}
			set, _, err := core.BestContext(context.Background(), g, flows, cfg)
			if err != nil {
				t.Fatalf("seed %d breaker %s: Best: %v", seed, b.Name(), err)
			}
			in := Instance{Topo: g, CDG: b.Break(cdg.NewFull(g, 2)), Routes: set, VCs: 2}
			cert, err := Certify(in)
			if err != nil {
				t.Fatalf("seed %d breaker %s: Certify: %v", seed, b.Name(), err)
			}
			if err := cert.Check(in); err != nil {
				t.Fatalf("seed %d breaker %s: Check: %v", seed, b.Name(), err)
			}
		}
	}
}
