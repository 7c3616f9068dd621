package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
)

// churnSetup builds a 4x4 mesh with crossing flows and two route sets:
// the initial up*/down* set and, lazily, whatever a caller re-routes.
func churnSetup(t *testing.T) (topology.Grid, []flowgraph.Flow, *route.Set) {
	t.Helper()
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f0", Src: 0, Dst: 15, Demand: 4},
		{ID: 1, Name: "f1", Src: 15, Dst: 0, Demand: 4},
		{ID: 2, Name: "f2", Src: 3, Dst: 12, Demand: 2},
		{ID: 3, Name: "f3", Src: 12, Dst: 3, Demand: 2},
	}
	set, err := route.ShortestPath{VCs: 2}.Routes(m, flows)
	if err != nil {
		t.Fatalf("initial routes: %v", err)
	}
	return m, flows, set
}

// escapeOn synthesizes a dead-avoiding escape set over the overlay.
func escapeOn(t *testing.T, overlay *topology.FaultOverlay, flows []flowgraph.Flow) *route.Set {
	t.Helper()
	sp := route.ShortestPath{VCs: 2, Breaker: cdg.UpDownEscapeBreaker{Root: 0}}
	set, err := sp.Routes(overlay, flows)
	if err != nil {
		t.Fatalf("escape routes: %v", err)
	}
	return set
}

// linkPairOf returns ch and its direction-opposite reverse.
func linkPairOf(t *testing.T, m topology.Topology, ch topology.ChannelID) []topology.ChannelID {
	t.Helper()
	c := m.Channel(ch)
	for _, back := range m.OutChannels(c.Dst) {
		if bc := m.Channel(back); bc.Dst == c.Src && bc.Dir == c.Dir.Opposite() {
			return []topology.ChannelID{ch, back}
		}
	}
	t.Fatalf("channel %d has no reverse", ch)
	return nil
}

// runChurnOnce drives a fault through the purge + swap protocol with the
// full-scan invariant checker on every cycle, under either purge policy.
func runChurnOnce(t *testing.T, requeue bool) *Result {
	t.Helper()
	m, flows, set := churnSetup(t)
	s, err := New(Config{
		Mesh: m, Routes: set, VCs: 2,
		OfferedRate:  0.5,
		WarmupCycles: 1000, MeasureCycles: 5000,
		Seed: 7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.checkEvery = 1 // every cycle: the purge must leave a consistent state

	ctx := context.Background()
	if dead, err := s.Advance(ctx, 2000); err != nil || dead {
		t.Fatalf("warm advance: dead=%v err=%v", dead, err)
	}

	// Fail the first link of flow 0's route (both directions).
	pair := linkPairOf(t, m, set.Routes[0].Channels[0])
	overlay := topology.NewFaultOverlay(m)
	overlay.Disable(pair...)
	stats := s.DisableChannels(requeue, pair...)
	if requeue {
		if stats.Packets != 0 {
			t.Fatalf("requeue policy dropped %d packets", stats.Packets)
		}
	} else if stats.Requeued != 0 {
		t.Fatalf("drop policy requeued %d packets", stats.Requeued)
	}
	if err := s.SwapRoutes(escapeOn(t, overlay, flows)); err != nil {
		t.Fatalf("SwapRoutes: %v", err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch %d after swap, want 1", s.Epoch())
	}

	dead, err := s.Advance(ctx, 6000)
	if err != nil {
		t.Fatalf("post-fault advance: %v", err)
	}
	if dead {
		t.Fatalf("deadlocked on the escape layer")
	}
	return s.Finish(false)
}

func TestChurnPurgeInvariantsDrop(t *testing.T) {
	res := runChurnOnce(t, false)
	if res.DroppedFlits == 0 {
		t.Errorf("no flits dropped by the fault; the purge path was not exercised")
	}
	if res.PacketsDelivered == 0 {
		t.Errorf("nothing delivered after the fault")
	}
	if res.RequeuedPackets != 0 {
		t.Errorf("drop policy requeued %d packets", res.RequeuedPackets)
	}
}

func TestChurnPurgeInvariantsRequeue(t *testing.T) {
	res := runChurnOnce(t, true)
	if res.RequeuedPackets == 0 {
		t.Errorf("no packets requeued by the fault; the requeue path was not exercised")
	}
	if res.DroppedPackets != 0 {
		t.Errorf("requeue policy dropped %d packets", res.DroppedPackets)
	}
}

// TestChurnRequeueKeepsCreationCycle follows one packet through a purge
// under the requeue policy. Its record is retired and it goes back to
// its source queue as nothing but its creation cycle; when it is
// launched again and delivered, its total latency must still count from
// that original cycle, while its network latency counts from the second
// launch only.
func TestChurnRequeueKeepsCreationCycle(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{{ID: 0, Name: "f", Src: 0, Dst: 15, Demand: 1}}
	set, err := route.ShortestPath{VCs: 2}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Mesh: m, Routes: set, VCs: 2, OfferedRate: 0.02, WarmupCycles: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.checkEvery = 1
	ctx := context.Background()
	step := func() {
		t.Helper()
		if dead, err := s.Advance(ctx, s.Cycle()+1); err != nil || dead {
			t.Fatalf("cycle %d: deadlocked=%v err=%v", s.Cycle(), dead, err)
		}
	}
	for s.inFlight == 0 {
		step()
	}
	for i := 0; i < 3; i++ { // header a few hops in
		step()
	}
	pkt := int32(-1)
	for bi := range s.bufs {
		if s.bufs[bi].owner >= 0 {
			pkt = s.bufs[bi].owner
		}
	}
	if pkt < 0 || s.delivered != 0 {
		t.Fatalf("want the first packet mid-route, got packet %d, %d delivered", pkt, s.delivered)
	}
	createT, firstEnterT := s.packets[pkt].createT, s.packets[pkt].enterT

	route0 := set.Routes[0].Channels
	pair := linkPairOf(t, m, route0[len(route0)-1]) // a link the packet has not reached
	overlay := topology.NewFaultOverlay(m)
	overlay.Disable(pair...)
	q := &s.srcQueue[0]
	if q.len() != 0 {
		t.Fatalf("test assumes an empty source queue at the fault, got %d queued", q.len())
	}
	if ps := s.DisableChannels(true, pair...); ps.Requeued != 1 || ps.Packets != 0 || ps.Flits == 0 {
		t.Fatalf("purge %+v, want exactly the one packet requeued", ps)
	}
	if s.inFlight != 0 || s.transfer[0].pkt >= 0 {
		t.Fatalf("purged packet still in the network: inFlight=%d transfer=%d", s.inFlight, s.transfer[0].pkt)
	}
	if err := s.checkInvariants(); err != nil { // the record went back to the free list
		t.Fatal(err)
	}
	// Pop the one entry to read it and push it back: the queue holds the
	// same creation cycle either way.
	if n := q.len(); n != 1 {
		t.Fatalf("source queue after requeue holds %d entries, want only creation cycle %d", n, createT)
	}
	if got := q.pop(&s.chunks); got != createT {
		t.Fatalf("requeued creation cycle %d, want %d", got, createT)
	}
	q.push(&s.chunks, createT)
	if err := s.SwapRoutes(escapeOn(t, overlay, flows)); err != nil {
		t.Fatal(err)
	}
	for s.delivered == 0 {
		step()
	}
	doneT := s.Cycle() - 1 // the cycle the tail ejected in
	if got, want := s.mTotalLatSum, doneT-createT; got != want {
		t.Errorf("total latency %d, want %d: cycle %d minus the original creation cycle %d", got, want, doneT, createT)
	}
	if s.mLatencySum >= doneT-firstEnterT {
		t.Errorf("network latency %d counts from the first launch (cycle %d), want from the relaunch", s.mLatencySum, firstEnterT)
	}
}

// TestChurnRequeueIntoFullQueue purges packets back into source queues
// that generation has already pinned at maxSourceQueue: the requeue
// overshoots the bound by the purged packets while the flow stays
// paused, a valid state the checker must accept across the purge.
func TestChurnRequeueIntoFullQueue(t *testing.T) {
	m, flows, set := churnSetup(t)
	s, err := New(Config{Mesh: m, Routes: set, VCs: 2, OfferedRate: 8, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if dead, err := s.Advance(ctx, 12000); err != nil || dead {
		t.Fatalf("warm advance: dead=%v err=%v", dead, err)
	}
	s.checkEvery = 1
	pair := linkPairOf(t, m, set.Routes[0].Channels[0])
	overlay := topology.NewFaultOverlay(m)
	overlay.Disable(pair...)
	if ps := s.DisableChannels(true, pair...); ps.Requeued == 0 {
		t.Fatalf("purge %+v requeued nothing", ps)
	}
	if !s.flowPaused[0] || s.srcQueue[0].len() <= maxSourceQueue {
		t.Fatalf("test assumes flow 0 paused past the bound after the requeue, got paused=%v with %d queued",
			s.flowPaused[0], s.srcQueue[0].len())
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapRoutes(escapeOn(t, overlay, flows)); err != nil {
		t.Fatalf("SwapRoutes: %v", err)
	}
	if dead, err := s.Advance(ctx, 12500); err != nil || dead {
		t.Fatalf("post-fault advance: dead=%v err=%v", dead, err)
	}
}

// TestChurnSwapRejectsBadSets pins the SwapRoutes validation surface.
func TestChurnSwapRejectsBadSets(t *testing.T) {
	m, flows, set := churnSetup(t)
	s, err := New(Config{Mesh: m, Routes: set, VCs: 2, OfferedRate: 0.2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Wrong flow count.
	if err := s.SwapRoutes(&route.Set{Topo: m, Routes: set.Routes[:2]}); err == nil {
		t.Errorf("swap with missing flows accepted")
	}

	// Route crossing a dead channel.
	pair := linkPairOf(t, m, set.Routes[0].Channels[0])
	s.DisableChannels(false, pair...)
	if err := s.SwapRoutes(set); err == nil {
		t.Errorf("swap crossing a dead channel accepted")
	}

	// A valid escape set is accepted.
	overlay := topology.NewFaultOverlay(m)
	overlay.Disable(pair...)
	if err := s.SwapRoutes(escapeOn(t, overlay, flows)); err != nil {
		t.Errorf("valid escape set rejected: %v", err)
	}
	if s.Epoch() != 1 {
		t.Errorf("epoch %d, want 1 after the one accepted swap", s.Epoch())
	}
}

// TestChurnDeterministicAcrossRuns pins byte-level determinism of the
// full churn path: two identical runs must agree on every counter.
func TestChurnDeterministicAcrossRuns(t *testing.T) {
	a := runChurnOnce(t, false)
	b := runChurnOnce(t, false)
	if !reflect.DeepEqual(a, b) {
		t.Logf("a=%+v", a)
		t.Logf("b=%+v", b)
		t.Fatalf("identical churn runs diverged")
	}
}
