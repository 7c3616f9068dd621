package route_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cdg"
	"repro/internal/certify"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/topology"
)

// retryGraph builds a small flow network for the fallback tests: a 3x3
// mesh, two VCs, an up*/down* CDG, and three crossing flows.
func retryGraph(t *testing.T) (*flowgraph.Graph, *cdg.Graph) {
	t.Helper()
	m := topology.NewMesh(3, 3)
	dag := cdg.UpDownBreaker{Root: 0}.Break(cdg.NewFull(m, 2))
	if !dag.IsAcyclic() {
		t.Fatalf("up*/down* CDG is cyclic")
	}
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f0", Src: 0, Dst: 8, Demand: 4},
		{ID: 1, Name: "f1", Src: 8, Dst: 0, Demand: 2},
		{ID: 2, Name: "f2", Src: 2, Dst: 6, Demand: 1},
	}
	return flowgraph.New(dag, flows, 16), dag
}

// errFake is the primary failure the fallback tests inject.
var errFake = errors.New("fake: solver failure")

// fakeSelector counts its calls. With err set every call fails with it,
// after running cancel when that is non-nil (an outer cancellation landing
// mid-solve); otherwise it delegates to the heuristic.
type fakeSelector struct {
	err    error
	cancel context.CancelFunc
	calls  *int
}

func (f fakeSelector) Name() string { return "fake" }

func (f fakeSelector) SelectContext(ctx context.Context, g *flowgraph.Graph) (*route.Set, error) {
	*f.calls++
	if f.err != nil {
		if f.cancel != nil {
			f.cancel()
		}
		return nil, f.err
	}
	return route.BSORHeuristic{}.SelectContext(ctx, g)
}

// TestFallbackSelectorFallsBackAndCertifies: a failing primary is solved
// exactly once, the fallback answers without any wait in between, the
// consultation is counted, and the answer certifies like any swapped-in
// set.
func TestFallbackSelectorFallsBackAndCertifies(t *testing.T) {
	g, dag := retryGraph(t)
	var set *route.Set
	// The retry loop this replaced slept 10 ms before a second attempt.
	// The fastest of a few runs is far below that unless something waits.
	fastest := time.Hour
	for run := 0; run < 5; run++ {
		calls := 0
		m := metrics.New()
		fs := route.FallbackSelector{
			Primary:  fakeSelector{err: errFake, calls: &calls},
			Fallback: route.BSORHeuristic{},
			Metrics:  m,
		}
		start := time.Now()
		var err error
		set, err = fs.SelectContext(context.Background(), g)
		fastest = min(fastest, time.Since(start))
		if err != nil {
			t.Fatalf("SelectContext: %v", err)
		}
		if calls != 1 {
			t.Fatalf("primary called %d times, want exactly 1", calls)
		}
		if got := m.Counter("route_retry_fallbacks_total").Value(); got != 1 {
			t.Fatalf("route_retry_fallbacks_total = %d, want 1", got)
		}
	}
	if fastest > 5*time.Millisecond {
		t.Fatalf("fastest fallback took %v; the selector waits between primary and fallback", fastest)
	}
	in := certify.Instance{Topo: g.CDG().Topology(), CDG: dag, Routes: set, VCs: 2, Capacity: 16}
	cert, err := certify.Certify(in)
	if err != nil {
		t.Fatalf("fallback set failed certification: %v", err)
	}
	if err := cert.Check(in); err != nil {
		t.Fatalf("certificate re-check: %v", err)
	}
}

// TestFallbackSelectorErrors pins what comes back when there is no answer:
// the primary's own error without a fallback, both errors when the
// fallback fails too.
func TestFallbackSelectorErrors(t *testing.T) {
	g, _ := retryGraph(t)
	calls := 0
	fs := route.FallbackSelector{Primary: fakeSelector{err: errFake, calls: &calls}}
	if _, err := fs.SelectContext(context.Background(), g); err != errFake {
		t.Fatalf("nil Fallback: err = %v, want the primary's error", err)
	}
	if calls != 1 {
		t.Fatalf("primary called %d times, want 1", calls)
	}

	errFallback := errors.New("fake: fallback failure")
	fs.Fallback = fakeSelector{err: errFallback, calls: new(int)}
	_, err := fs.SelectContext(context.Background(), g)
	if !errors.Is(err, errFallback) || !strings.Contains(err.Error(), errFake.Error()) {
		t.Fatalf("both failed: err = %v, want the fallback's error wrapped and the primary's quoted", err)
	}
}

func TestFallbackSelectorOuterCancellation(t *testing.T) {
	g, _ := retryGraph(t)
	calls := 0
	fallbackCalls := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := route.FallbackSelector{
		Primary:  fakeSelector{err: errFake, cancel: cancel, calls: &calls},
		Fallback: fakeSelector{calls: &fallbackCalls},
	}
	_, err := fs.SelectContext(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("primary called %d times, want 1", calls)
	}
	if fallbackCalls != 0 {
		t.Fatalf("fallback consulted %d times after cancellation, want 0", fallbackCalls)
	}
}

// TestMILPSolvesDegradedOverlay drives one selector value through a fault:
// solve, kill a link the solution uses on the FaultOverlay, solve the
// degraded graph — the second set is valid, deadlock-free and avoids the
// dead channel.
func TestMILPSolvesDegradedOverlay(t *testing.T) {
	m := topology.NewMesh(4, 4)
	overlay := topology.NewFaultOverlay(m)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f0", Src: 0, Dst: 15, Demand: 4},
		{ID: 1, Name: "f1", Src: 15, Dst: 0, Demand: 4},
		{ID: 2, Name: "f2", Src: 3, Dst: 12, Demand: 2},
		{ID: 3, Name: "f3", Src: 12, Dst: 3, Demand: 2},
	}
	build := func() *flowgraph.Graph {
		dag := cdg.UpDownBreaker{Root: 0}.Break(cdg.NewFull(overlay, 2))
		return flowgraph.New(dag, flows, 16)
	}
	ms := route.MILPSelector{HopSlack: 4, MaxPathsPerFlow: 32, MaxNodes: 200}

	first, err := ms.SelectContext(context.Background(), build())
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	// Kill a link the first solution uses — both directions, like a
	// physical fault — so at least one of its routes is stale. (Killing a
	// single directed channel can strand up*/down* reachability: the down
	// path into a subtree may need exactly that channel.)
	dead := first.Routes[0].Channels[0]
	c := m.Channel(dead)
	rev := topology.InvalidChannel
	for _, back := range m.OutChannels(c.Dst) {
		if bc := m.Channel(back); bc.Dst == c.Src && bc.Dir == c.Dir.Opposite() {
			rev = back
			break
		}
	}
	if rev == topology.InvalidChannel {
		t.Fatalf("channel %d has no reverse", dead)
	}
	overlay.Disable(dead, rev)
	if !overlay.Connected() {
		t.Fatalf("test fault disconnected the overlay")
	}
	second, err := ms.SelectContext(context.Background(), build())
	if err != nil {
		t.Fatalf("re-solve: %v", err)
	}
	if err := second.Validate(2); err != nil {
		t.Fatalf("re-solved set invalid: %v", err)
	}
	if err := second.DeadlockFree(2); err != nil {
		t.Fatalf("re-solved set: %v", err)
	}
	for _, r := range second.Routes {
		for _, ch := range r.Channels {
			if ch == dead {
				t.Fatalf("re-solved route for %s still crosses dead channel %d", r.Flow.Name, dead)
			}
		}
	}
}

// cancellingBreaker cancels the request while it "breaks" and hands the
// full, still cyclic CDG back: whatever the caller does next shows whether
// it looked at the context first.
type cancellingBreaker struct {
	cancel context.CancelFunc
	calls  *int
}

func (b cancellingBreaker) Name() string { return "cancelling" }

func (b cancellingBreaker) Break(full *cdg.Graph) *cdg.Graph {
	*b.calls++
	b.cancel()
	return full
}

// TestShortestPathCancellationBetweenStages pins that SP honours its
// context between the CDG stages, which on a large fabric are where its
// time goes, and not only once per routed flow.
func TestShortestPathCancellationBetweenStages(t *testing.T) {
	m := topology.NewMesh(3, 3)
	flows := []flowgraph.Flow{{ID: 0, Name: "f0", Src: 0, Dst: 8, Demand: 1}}

	// Cancelled before the call: the breaker never runs, no flow is routed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	sp := route.ShortestPath{Breaker: cancellingBreaker{cancel: func() {}, calls: &calls}}
	if _, err := sp.RoutesContext(ctx, m, flows); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("pre-cancelled: breaker ran %d times, want 0", calls)
	}

	// Cancelled during Break: reported as cancellation, ahead of the
	// acyclicity verdict on the graph the breaker returned.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	sp = route.ShortestPath{Breaker: cancellingBreaker{cancel: cancel, calls: &calls}}
	if _, err := sp.RoutesContext(ctx, m, flows); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled in Break: err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("cancelled in Break: breaker ran %d times, want 1", calls)
	}
}
