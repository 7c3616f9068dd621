package churn

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestChurnScheduleDeterministic(t *testing.T) {
	m := topology.NewMesh(6, 6)
	a, err := RandomSchedule(m, 7, 4, 1000, 5000)
	if err != nil {
		t.Fatalf("RandomSchedule: %v", err)
	}
	b, err := RandomSchedule(m, 7, 4, 1000, 5000)
	if err != nil {
		t.Fatalf("RandomSchedule: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	// Cumulative faults must keep the network strongly connected, and each
	// event must kill a full bidirectional link.
	overlay := topology.NewFaultOverlay(m)
	for i, ev := range a {
		if len(ev.Fail) != 2 {
			t.Fatalf("event %d fails %d channels, want a 2-channel link pair", i, len(ev.Fail))
		}
		c0, c1 := m.Channel(ev.Fail[0]), m.Channel(ev.Fail[1])
		if c0.Src != c1.Dst || c0.Dst != c1.Src {
			t.Fatalf("event %d channels %v are not a reverse pair", i, ev.Fail)
		}
		overlay.Disable(ev.Fail...)
		if !overlay.Connected() {
			t.Fatalf("after event %d the alive graph is disconnected", i)
		}
	}
}

// TestFaultedAndScheduleAgree pins that a static fault set and a live
// fault schedule with the same seed are the same links: the channels
// topology.Faulted removed are the union of RandomSchedule's Fail lists.
func TestFaultedAndScheduleAgree(t *testing.T) {
	type link struct {
		src, dst topology.NodeID
		dir      topology.Direction
	}
	grids := map[string]topology.Grid{
		"mesh6x6":  topology.NewMesh(6, 6),
		"torus4x4": topology.NewTorus(4, 4),
	}
	for name, g := range grids {
		for seed := int64(1); seed <= 5; seed++ {
			for _, n := range []int{0, 2, 4} {
				faulted, err := topology.Faulted(g, seed, n)
				if err != nil {
					t.Fatalf("%s seed %d n %d: Faulted: %v", name, seed, n, err)
				}
				schedule, err := RandomSchedule(g, seed, n, 1000, 1000)
				if err != nil {
					t.Fatalf("%s seed %d n %d: RandomSchedule: %v", name, seed, n, err)
				}
				// Faulted re-densifies channel ids, so compare channels by
				// what they join: the grid's channels minus the survivors.
				removed := map[link]bool{}
				for id := 0; id < g.NumChannels(); id++ {
					c := g.Channel(topology.ChannelID(id))
					removed[link{c.Src, c.Dst, c.Dir}] = true
				}
				for id := 0; id < faulted.NumChannels(); id++ {
					c := faulted.Channel(topology.ChannelID(id))
					delete(removed, link{c.Src, c.Dst, c.Dir})
				}
				failed := map[link]bool{}
				for _, ev := range schedule {
					for _, id := range ev.Fail {
						c := g.Channel(id)
						failed[link{c.Src, c.Dst, c.Dir}] = true
					}
				}
				if len(removed) != 2*n || !reflect.DeepEqual(removed, failed) {
					t.Errorf("%s seed %d n %d: Faulted removed %v, schedule fails %v", name, seed, n, removed, failed)
				}
			}
		}
	}
}

// churnFixture builds a 6x6 mesh, crossing flows, an initial heuristic
// route set, a simulator, and a supervisor over them.
func churnFixture(t *testing.T, resynth route.Selector, schedule []Event, requeue bool) (*Supervisor, int64) {
	t.Helper()
	m := topology.NewMesh(6, 6)
	overlay := topology.NewFaultOverlay(m)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f0", Src: 0, Dst: 35, Demand: 4},
		{ID: 1, Name: "f1", Src: 35, Dst: 0, Demand: 4},
		{ID: 2, Name: "f2", Src: 5, Dst: 30, Demand: 4},
		{ID: 3, Name: "f3", Src: 30, Dst: 5, Demand: 4},
		{ID: 4, Name: "f4", Src: 14, Dst: 21, Demand: 2},
		{ID: 5, Name: "f5", Src: 21, Dst: 14, Demand: 2},
	}
	g := FlowGraph(overlay, flows, 2)
	initial, err := route.BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 16}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatalf("initial synthesis: %v", err)
	}
	const total = 24000
	s, err := sim.New(sim.Config{
		Mesh: m, Routes: initial, VCs: 2,
		OfferedRate:  0.6,
		WarmupCycles: 4000, MeasureCycles: total - 4000,
		Seed: 42,
	})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return &Supervisor{
		Sim: s, Overlay: overlay, Flows: flows, VCs: 2,
		Resynth:        resynth,
		Schedule:       schedule,
		RecoveryWindow: 2048,
		Requeue:        requeue,
	}, total
}

func heuristicResynth() route.Selector {
	return route.FallbackSelector{
		Primary:  route.BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 16},
		Fallback: route.BSORHeuristic{HopSlack: 4, MaxPathsPerFlow: 32},
	}
}

func TestChurnSupervisorRunsSchedule(t *testing.T) {
	m := topology.NewMesh(6, 6)
	schedule, err := RandomSchedule(m, 3, 2, 6000, 8000)
	if err != nil {
		t.Fatalf("RandomSchedule: %v", err)
	}
	run := func() (*sim.Result, []EventReport) {
		sv, total := churnFixture(t, heuristicResynth(), schedule, false)
		res, reports, err := sv.Run(context.Background(), int64(total))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, reports
	}
	res, reports := run()
	if res.Deadlocked {
		t.Fatalf("run deadlocked")
	}
	if res.PacketsDelivered == 0 {
		t.Fatalf("nothing delivered")
	}
	if len(reports) != 2 {
		t.Fatalf("got %d event reports, want 2", len(reports))
	}
	var dropped int64
	for i, rep := range reports {
		if rep.EscapeEpoch == 0 {
			t.Errorf("event %d: no escape swap recorded", i)
		}
		if rep.CommitEpoch <= rep.EscapeEpoch {
			t.Errorf("event %d: commit epoch %d not after escape epoch %d", i, rep.CommitEpoch, rep.EscapeEpoch)
		}
		if rep.CommitCycle != rep.Cycle+2048 {
			t.Errorf("event %d: commit at cycle %d, want deterministic barrier %d", i, rep.CommitCycle, rep.Cycle+2048)
		}
		dropped += rep.DroppedFlits
	}
	if res.DroppedFlits != dropped {
		t.Errorf("result drops %d != summed event drops %d", res.DroppedFlits, dropped)
	}

	// Same fixture, same schedule: the metrics JSON must be byte-identical.
	res2, reports2 := run()
	j1, _ := json.Marshal(struct {
		R *sim.Result
		E []EventReport
	}{res, reports})
	j2, _ := json.Marshal(struct {
		R *sim.Result
		E []EventReport
	}{res2, reports2})
	if string(j1) != string(j2) {
		t.Fatalf("repeated run diverged:\n%s\n%s", j1, j2)
	}
}

func TestChurnRequeuePolicy(t *testing.T) {
	m := topology.NewMesh(6, 6)
	schedule, err := RandomSchedule(m, 3, 2, 6000, 8000)
	if err != nil {
		t.Fatalf("RandomSchedule: %v", err)
	}
	sv, total := churnFixture(t, heuristicResynth(), schedule, true)
	res, reports, err := sv.Run(context.Background(), int64(total))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DroppedPackets != 0 {
		t.Errorf("requeue policy dropped %d packets", res.DroppedPackets)
	}
	var requeued int64
	for _, rep := range reports {
		requeued += rep.RequeuedPackets
	}
	if requeued == 0 {
		t.Errorf("requeue policy requeued nothing across %d events", len(reports))
	}
	if res.RequeuedPackets != requeued {
		t.Errorf("result requeues %d != summed event requeues %d", res.RequeuedPackets, requeued)
	}
}

// blockSelector parks until its context is cancelled, simulating a
// re-synthesis that never finishes.
type blockSelector struct{ started chan struct{} }

func (b blockSelector) Name() string { return "block" }

func (b blockSelector) SelectContext(ctx context.Context, g *flowgraph.Graph) (*route.Set, error) {
	if b.started != nil {
		close(b.started)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestChurnCancellationMidChurn is the leak-and-swap regression test for
// cancellation between a fault barrier and its commit barrier: the
// background solver must be cancelled (no goroutine leak), and no route
// swap may land after the cancellation.
func TestChurnCancellationMidChurn(t *testing.T) {
	m := topology.NewMesh(6, 6)
	schedule, err := RandomSchedule(m, 3, 1, 6000, 8000)
	if err != nil {
		t.Fatalf("RandomSchedule: %v", err)
	}
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	sv, total := churnFixture(t, blockSelector{started: started}, schedule, false)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := sv.Run(ctx, int64(total))
		done <- err
	}()
	<-started // the background solver is parked on its context
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("Run did not return after cancellation")
	}
	// Epoch 1 is the escape swap at the fault barrier; the repaired set
	// (epoch 2) must never land after cancellation.
	if got := sv.Sim.Epoch(); got != 1 {
		t.Fatalf("epoch %d after cancellation, want 1 (escape only, no post-cancel swap)", got)
	}
	// The solver goroutine must exit; poll briefly for the count to drop.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, now)
	}
}

func TestChurnOverlappingEventsRejected(t *testing.T) {
	sv, total := churnFixture(t, heuristicResynth(), []Event{
		{Cycle: 6000, Fail: []topology.ChannelID{0, 1}},
		{Cycle: 6500, Fail: []topology.ChannelID{2, 3}},
	}, false)
	if _, _, err := sv.Run(context.Background(), int64(total)); err == nil {
		t.Fatalf("overlapping events accepted; want an error")
	}
}
