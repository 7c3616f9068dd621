package bsor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// probeWorkloads numbers the workloads cancelProbe registers: a name
// registers once per process, and a test may run several times.
var probeWorkloads atomic.Int32

// cancelProbe registers a fresh workload that calls cancel on its k-th
// resolution and returns one spec per demand in 1..n on it. Each spec has
// its own demand and so its own synthesis, which resolves the workload
// once: the cancel lands at the same job of the sweep on every run.
func cancelProbe(t *testing.T, k, n int32, cancel context.CancelFunc) []Spec {
	t.Helper()
	name := fmt.Sprintf("cancel-probe-%d", probeWorkloads.Add(1))
	var calls atomic.Int32
	err := RegisterWorkload(name, func(ti TopoInfo, demand float64) ([]Flow, error) {
		if calls.Add(1) == k {
			cancel()
		}
		flows := make([]Flow, ti.Nodes)
		for i := range flows {
			flows[i] = Flow{Src: i, Dst: (i + 5) % ti.Nodes, Demand: demand}
		}
		return flows, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Topo: Mesh(4, 4), Workload: name, Algorithm: "XY", Demand: float64(i + 1),
			Sim: &SimSpec{Rates: []float64{0.1}, Warmup: 200, Measure: 1000, Seed: 1}}
	}
	return specs
}

// TestCancelMidSweepCleanShutdown is the façade's cancellation contract
// under -race: a context cancelled while a multi-worker sweep is in
// flight stops RunAll within one job boundary, which returns ctx.Err()
// and only the results of jobs that started; the Engine stays usable;
// and no goroutine outlives the pipeline.
func TestCancelMidSweepCleanShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := cancelProbe(t, 3, 24, cancel)
	e := NewEngine(WithWorkers(4))
	p, err := e.NewPipeline(specs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.RunAll(ctx)
	if !errors.Is(err, context.Canceled) || !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("RunAll returned %v with ctx.Err() %v, want context.Canceled", err, ctx.Err())
	}
	if len(results) == 0 || len(results) >= len(specs) {
		t.Errorf("RunAll returned %d of %d results after cancellation", len(results), len(specs))
	}
	for _, res := range results {
		if res.Workload != specs[0].Workload || res.Algorithm != "XY" {
			t.Errorf("RunAll returned a result for no job: %+v", res)
		}
	}

	// The cancellation is not retained: the same Engine reruns a spec.
	p, err = e.NewPipeline(specs[:1])
	if err != nil {
		t.Fatal(err)
	}
	results, err = p.RunAll(context.Background())
	if err != nil || len(results) != 1 || results[0].Err != nil || results[0].Point == nil {
		t.Fatalf("post-cancel rerun: %v, %+v", err, results)
	}

	// No goroutine may outlive its pipeline: poll until the count settles
	// back to the baseline (the runtime needs a moment to unwind).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelineRunAllReturnsEveryResult checks the happy path: RunAll
// returns every unit of work once, in spec order.
func TestPipelineRunAllReturnsEveryResult(t *testing.T) {
	specs := []Spec{
		{Name: "a", Topo: Mesh(4, 4), Workload: "transpose"},
		{Name: "b", Topo: Mesh(4, 4), Workload: "shuffle", Algorithm: "XY"},
		{Name: "c", Topo: Mesh(4, 4), Workload: "bit-complement", Explore: true},
	}
	p, err := NewPipeline(specs, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := 1 + 1 + len(DefaultBreakers(Mesh(4, 4)))
	results, err := p.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != wantJobs {
		t.Fatalf("RunAll returned %d results, want %d", len(results), wantJobs)
	}
	last := -1
	for _, res := range results {
		if res.Spec < last {
			t.Fatalf("RunAll results out of spec order")
		}
		last = res.Spec
		if res.Err != nil {
			t.Errorf("spec %d (%s): %v", res.Spec, res.Name, res.Err)
		}
	}
	// The explore spec reports one labeled breaker per result.
	for _, res := range results[2:] {
		if res.Breaker == "" {
			t.Errorf("explore result without a breaker label")
		}
	}
	if err := FirstError(results); err != nil {
		t.Errorf("FirstError = %v", err)
	}
}

// TestFirstErrorExemptsOnlyInfeasibleCells: an Explore cell whose breaker
// admits no routes is an n/a table cell, but a spec no breaker can run at
// all fails, as Synthesize on it does.
func TestFirstErrorExemptsOnlyInfeasibleCells(t *testing.T) {
	ctx := context.Background()
	runAll := func(spec Spec) []Result {
		t.Helper()
		p, err := NewPipeline([]Spec{spec})
		if err != nil {
			t.Fatal(err)
		}
		results, err := p.RunAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	torus := Spec{Topo: Torus(4, 4), Workload: "transpose", Explore: true,
		Breakers: []string{"E-first", DefaultBreakers(Torus(4, 4))[0]}}
	results := runAll(torus)
	if !errors.Is(results[0].Err, ErrInfeasible) || results[1].Err != nil {
		t.Fatalf("torus cells: %v / %v, want ErrInfeasible / nil", results[0].Err, results[1].Err)
	}
	if err := FirstError(results); err != nil {
		t.Errorf("FirstError with an infeasible cell = %v, want nil", err)
	}

	ring := Spec{Topo: Ring(16), Workload: "h264", Explore: true}
	if err := FirstError(runAll(ring)); !errors.Is(err, ErrNotGrid) {
		t.Errorf("FirstError on h264 over a ring = %v, want ErrNotGrid", err)
	}
	if _, err := Synthesize(ctx, ring); !errors.Is(err, ErrNotGrid) {
		t.Errorf("Synthesize on h264 over a ring = %v, want ErrNotGrid", err)
	}
}

// TestPipelineTypedErrors checks the sentinel mapping at the boundary:
// a grid-only baseline on a ring surfaces ErrNotGrid, and a BSOR spec
// whose only breaker cannot make the torus CDG acyclic surfaces
// ErrInfeasible.
func TestPipelineTypedErrors(t *testing.T) {
	p, err := NewPipeline([]Spec{
		{Name: "xy-on-ring", Topo: Ring(8), Workload: "rand-perm", Algorithm: "XY"},
		{Name: "mesh-rule-on-torus", Topo: Torus(4, 4), Workload: "transpose",
			Breakers: []string{"E-first"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrNotGrid) {
		t.Errorf("XY on ring: err = %v, want ErrNotGrid", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrInfeasible) {
		t.Errorf("mesh turn rule on torus: err = %v, want ErrInfeasible", results[1].Err)
	}
}

// TestSynthesizeTypedErrors covers the one-off synthesis path.
func TestSynthesizeTypedErrors(t *testing.T) {
	ctx := context.Background()
	_, err := Synthesize(ctx, Spec{Topo: Ring(8), Workload: "rand-perm", Algorithm: "ROMM"})
	if !errors.Is(err, ErrNotGrid) {
		t.Errorf("ROMM on ring: %v, want ErrNotGrid", err)
	}
	_, err = Synthesize(ctx, Spec{Topo: Torus(4, 4), Workload: "transpose",
		Breakers: []string{"E-first"}})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("mesh rule on torus: %v, want ErrInfeasible", err)
	}
	_, err = Synthesize(ctx, Spec{Topo: Mesh(4, 4), Workload: "h264"})
	var se *SpecError
	if !errors.As(err, &se) {
		t.Errorf("h264 on 4x4: %v, want *SpecError (placement does not fit)", err)
	}
	_, err = Explore(ctx, Spec{Topo: Mesh(4, 4), Workload: "transpose", Algorithm: "XY"})
	if !errors.As(err, &se) {
		t.Errorf("Explore with baseline: %v, want *SpecError", err)
	}
}

// TestPipelineDefaultAlgorithmConstraints pins that Explore/Breakers
// constraints are enforced against the *effective* algorithm: a baseline
// named by the spec rejects both, while the empty algorithm means
// BSOR-Dijkstra and so accepts an Explore spec.
func TestPipelineDefaultAlgorithmConstraints(t *testing.T) {
	var se *SpecError
	_, err := NewPipeline([]Spec{{Workload: "transpose", Algorithm: "XY", Explore: true}})
	if !errors.As(err, &se) || se.Field != "explore" {
		t.Errorf("Explore with XY: err = %v, want *SpecError on explore", err)
	}
	_, err = NewPipeline([]Spec{{Workload: "transpose", Algorithm: "XY", Breakers: []string{"E-first"}}})
	if !errors.As(err, &se) || se.Field != "breakers" {
		t.Errorf("Breakers with XY: err = %v, want *SpecError on breakers", err)
	}
	p, err := NewPipeline([]Spec{{Workload: "transpose", Explore: true}})
	if err != nil {
		t.Fatalf("Explore with the empty algorithm: %v", err)
	}
	if got := p.specs[0].Algorithm; got != "BSOR-Dijkstra" {
		t.Errorf("empty algorithm canonicalised to %q, want BSOR-Dijkstra", got)
	}
	if want := len(DefaultBreakers(Mesh(8, 8))); len(p.jobs) != want {
		t.Errorf("Explore expanded to %d jobs, want one per default breaker (%d)", len(p.jobs), want)
	}
}
