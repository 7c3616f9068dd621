package bsor

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// simSweepSpecs builds a multi-point sim sweep cheap enough for tests
// but long enough that cancellation lands mid-sweep.
func simSweepSpecs(points int) []Spec {
	rates := make([]float64, points)
	for i := range rates {
		rates[i] = float64(i + 1)
	}
	return []Spec{{
		Topo: Mesh(8, 8), Workload: "transpose",
		Sim: &SimSpec{Rates: rates, Warmup: 2000, Measure: 10000, Seed: 1},
	}}
}

// TestCancelMidSweepCleanShutdown is the façade's cancellation contract
// under -race: cancelling a running multi-worker sweep closes the result
// channel within one job boundary, surfaces ctx.Err(), and leaks no
// goroutines.
func TestCancelMidSweepCleanShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	p, err := NewPipeline(simSweepSpecs(24), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range ch {
		seen++
		if seen == 2 {
			cancel()
		}
	}
	if errors.Is(ctx.Err(), context.Canceled) == false {
		t.Fatalf("ctx.Err() = %v, want context.Canceled", ctx.Err())
	}
	if seen >= p.NumJobs() {
		t.Errorf("all %d jobs delivered despite cancellation", seen)
	}

	// RunAll on a fresh context must surface ctx.Err() and return only
	// completed results.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := 0
	p2, err := NewPipeline(simSweepSpecs(24), WithWorkers(4),
		WithProgress(func(d, total int) {
			done = d
			if d == 2 {
				cancel2()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	results, err := p2.RunAll(ctx2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll returned %v, want context.Canceled", err)
	}
	if len(results) == 0 || len(results) >= p2.NumJobs() {
		t.Errorf("RunAll returned %d of %d results after cancellation", len(results), p2.NumJobs())
	}
	if done != len(results) {
		t.Errorf("progress reported %d done, RunAll returned %d results", done, len(results))
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

// TestPipelineStreamsEveryResult checks the happy path: every unit of
// work arrives exactly once on the stream, and RunAll orders results by
// spec.
func TestPipelineStreamsEveryResult(t *testing.T) {
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
	if p.NumJobs() != wantJobs {
		t.Fatalf("NumJobs = %d, want %d", p.NumJobs(), wantJobs)
	}
	ch, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	perSpec := map[int]int{}
	for res := range ch {
		perSpec[res.Spec]++
		if res.Err != nil {
			t.Errorf("spec %d (%s): %v", res.Spec, res.Name, res.Err)
		}
	}
	if perSpec[0] != 1 || perSpec[1] != 1 || perSpec[2] != len(DefaultBreakers(Mesh(4, 4))) {
		t.Errorf("per-spec result counts = %v", perSpec)
	}

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
	if want := len(DefaultBreakers(Mesh(8, 8))); p.NumJobs() != want {
		t.Errorf("Explore expanded to %d jobs, want one per default breaker (%d)", p.NumJobs(), want)
	}
}
