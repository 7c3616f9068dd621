package route_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cdg"
	"repro/internal/certify"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/topology"
)

// retryGraph builds a small flow network for the wrapper tests: a 3x3
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

// fakeSelector fails its first failures calls deterministically, then
// delegates to the heuristic. With block set it instead parks on the
// attempt context, simulating a solver that overruns its timeout.
type fakeSelector struct {
	failures int
	block    bool
	calls    *int
}

func (f fakeSelector) Name() string { return "fake" }

func (f fakeSelector) Select(g *flowgraph.Graph) (*route.Set, error) {
	return f.SelectContext(context.Background(), g)
}

func (f fakeSelector) SelectContext(ctx context.Context, g *flowgraph.Graph) (*route.Set, error) {
	*f.calls++
	if f.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if *f.calls <= f.failures {
		return nil, errors.New("fake: transient failure")
	}
	return route.BSORHeuristic{}.SelectContext(ctx, g)
}

func TestRetrySelectorRetriesWithBackoff(t *testing.T) {
	g, _ := retryGraph(t)
	calls := 0
	var sleeps []time.Duration
	var attemptErrs []error
	rs := route.RetrySelector{
		Primary:     fakeSelector{failures: 2, calls: &calls},
		Fallback:    route.BSORHeuristic{},
		MaxAttempts: 5,
		Backoff:     10 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
		OnAttempt: func(attempt int, err error) { attemptErrs = append(attemptErrs, err) },
	}
	set, err := rs.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatalf("SelectContext: %v", err)
	}
	if calls != 3 {
		t.Fatalf("primary called %d times, want 3 (2 failures + 1 success)", calls)
	}
	if len(attemptErrs) != 2 {
		t.Fatalf("OnAttempt observed %d failures, want 2", len(attemptErrs))
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("backoff sleeps %v, want %v (exponential doubling)", sleeps, want)
	}
	if err := set.Validate(2); err != nil {
		t.Fatalf("returned set invalid: %v", err)
	}
}

func TestRetrySelectorFallsBackAndCertifies(t *testing.T) {
	g, dag := retryGraph(t)
	calls := 0
	rs := route.RetrySelector{
		Primary:     fakeSelector{failures: 1 << 30, calls: &calls},
		Fallback:    route.BSORHeuristic{},
		MaxAttempts: 4,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	set, err := rs.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatalf("SelectContext: %v", err)
	}
	if calls != 4 {
		t.Fatalf("primary called %d times, want exactly MaxAttempts=4", calls)
	}
	// The fallback's answer must be certifiable like any swapped-in set.
	cert, err := certify.Certify(certify.Instance{
		Topo: g.Topology(), CDG: dag, Routes: set, VCs: 2, Capacity: 16,
	})
	if err != nil {
		t.Fatalf("fallback set failed certification: %v", err)
	}
	if err := cert.Check(certify.Instance{
		Topo: g.Topology(), CDG: dag, Routes: set, VCs: 2, Capacity: 16,
	}); err != nil {
		t.Fatalf("certificate re-check: %v", err)
	}
}

func TestRetrySelectorAttemptTimeout(t *testing.T) {
	g, _ := retryGraph(t)
	calls := 0
	var attemptErrs []error
	rs := route.RetrySelector{
		Primary:        fakeSelector{block: true, calls: &calls},
		Fallback:       route.BSORHeuristic{},
		AttemptTimeout: 5 * time.Millisecond,
		MaxAttempts:    2,
		Sleep:          func(context.Context, time.Duration) error { return nil },
		OnAttempt:      func(_ int, err error) { attemptErrs = append(attemptErrs, err) },
	}
	set, err := rs.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatalf("SelectContext: %v", err)
	}
	if set == nil || calls != 2 {
		t.Fatalf("set=%v calls=%d, want fallback set after 2 timed-out attempts", set, calls)
	}
	for _, e := range attemptErrs {
		if !errors.Is(e, context.DeadlineExceeded) {
			t.Fatalf("attempt error %v, want context.DeadlineExceeded", e)
		}
	}
}

func TestRetrySelectorOuterCancellation(t *testing.T) {
	g, _ := retryGraph(t)
	calls := 0
	fallbackCalls := 0
	ctx, cancel := context.WithCancel(context.Background())
	rs := route.RetrySelector{
		Primary:     fakeSelector{failures: 1 << 30, calls: &calls},
		Fallback:    fakeSelector{calls: &fallbackCalls},
		MaxAttempts: 10,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // cancellation lands during the first backoff
			return ctx.Err()
		},
	}
	_, err := rs.SelectContext(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("primary called %d times after cancellation, want 1", calls)
	}
	if fallbackCalls != 0 {
		t.Fatalf("fallback consulted %d times after cancellation, want 0", fallbackCalls)
	}
}

// TestRetrySelectorRealSleepCancellation exercises the default
// (non-hooked) backoff sleep: with a backoff far longer than the test,
// cancelling mid-backoff must return promptly with context.Canceled —
// the timer select, not the timer expiry, must win.
func TestRetrySelectorRealSleepCancellation(t *testing.T) {
	g, _ := retryGraph(t)
	calls := 0
	fallbackCalls := 0
	ctx, cancel := context.WithCancel(context.Background())
	rs := route.RetrySelector{
		Primary:     fakeSelector{failures: 1 << 30, calls: &calls},
		Fallback:    fakeSelector{calls: &fallbackCalls},
		MaxAttempts: 10,
		Backoff:     time.Hour, // Sleep nil: the real timer path
		OnAttempt: func(int, error) {
			go cancel() // cancellation lands while the backoff timer runs
		},
	}
	start := time.Now()
	_, err := rs.SelectContext(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep did not honor ctx", elapsed)
	}
	if calls != 1 {
		t.Fatalf("primary called %d times after cancellation, want 1", calls)
	}
	if fallbackCalls != 0 {
		t.Fatalf("fallback consulted %d times after cancellation, want 0", fallbackCalls)
	}
}

// TestRetrySelectorMetrics checks the retry counters: attempts, backoff
// waits, and the fallback consultation — and that policy is unchanged by
// observation (same call counts as the uninstrumented tests).
func TestRetrySelectorMetrics(t *testing.T) {
	g, _ := retryGraph(t)
	calls := 0
	m := metrics.New()
	rs := route.RetrySelector{
		Primary:     fakeSelector{failures: 1 << 30, calls: &calls},
		Fallback:    route.BSORHeuristic{},
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
		Metrics:     m,
	}
	if _, err := rs.SelectContext(context.Background(), g); err != nil {
		t.Fatalf("SelectContext: %v", err)
	}
	want := map[string]int64{
		"route_retry_attempts_total":  3,
		"route_retry_backoffs_total":  2,
		"route_retry_fallbacks_total": 1,
	}
	for name, n := range want {
		if got := m.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// TestMILPWarmStartResumable drives the resumable warm-start context
// through a fault: the second solve starts from the first solve's
// incumbent and basis, drops the routes a dead channel invalidated, and
// still produces a valid set on the degraded overlay.
func TestMILPWarmStartResumable(t *testing.T) {
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
	warm := &route.WarmStart{}
	ms := route.MILPSelector{HopSlack: 4, MaxPathsPerFlow: 32, Refinements: 2,
		MaxNodes: 200, Warm: warm}

	first, err := ms.SelectContext(context.Background(), build())
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if warm.Incumbent == nil {
		t.Fatalf("warm context not updated after first solve")
	}
	// Kill a link the first solution uses — both directions, like a
	// physical fault — so at least one incumbent route is stale. (Killing a
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
		t.Fatalf("warm re-solve: %v", err)
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
	if warm.Incumbent != second {
		t.Fatalf("warm context incumbent not updated by the re-solve")
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
