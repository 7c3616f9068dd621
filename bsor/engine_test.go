package bsor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// TestEngineRendersOneSynthesis: every question asked of one spec on one
// Engine — table, route set, certificate, simulation sweep — is answered
// from a single synthesis, and the answers agree with each other.
func TestEngineRendersOneSynthesis(t *testing.T) {
	ctx := context.Background()
	m := NewMetrics()
	e := NewEngine(WithMetrics(m), WithWorkers(2))
	spec := Spec{Name: "one", Topo: Mesh(4, 4), Workload: "transpose"}

	rows, err := e.Explore(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Synthesize(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := e.Verify(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Sim = &SimSpec{Rates: []float64{2, 4}, Warmup: 500, Measure: 2000, Seed: 1}
	p, err := e.NewPipeline([]Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.RunAll(ctx)
	if err != nil || FirstError(results) != nil {
		t.Fatalf("RunAll: %v / %v", err, FirstError(results))
	}

	best := -1.0
	for _, row := range rows {
		if row.Err == nil && (best < 0 || row.MCL < best) {
			best = row.MCL
		}
	}
	if rs.MCL() != best || cert.MCL != best || results[0].MCL != best || cert.Breaker != rs.Breaker() {
		t.Errorf("renderings disagree: table best %g, route set %g via %s, certificate %g via %s, sim %g",
			best, rs.MCL(), rs.Breaker(), cert.MCL, cert.Breaker, results[0].MCL)
	}
	snap := m.Snapshot()
	if snap["engine_synth_cache_misses_total"] != 1 || snap["engine_synth_cache_hits_total"] != 4 {
		t.Errorf("misses %g hits %g, want 1 synthesis and 4 memo hits (synthesize, verify, two rates)",
			snap["engine_synth_cache_misses_total"], snap["engine_synth_cache_hits_total"])
	}

	// The package-level calls are the same path on a throwaway Engine.
	alone, err := Synthesize(ctx, spec)
	if err != nil || alone.MCL() != rs.MCL() || alone.Breaker() != rs.Breaker() {
		t.Errorf("package-level Synthesize = %v, %v; engine gave %g via %s", alone, err, rs.MCL(), rs.Breaker())
	}
}

// TestEngineKeepsInfeasibleTable: the table of a spec whose every breaker
// fails still renders; only the route set is refused.
func TestEngineKeepsInfeasibleTable(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	spec := Spec{Topo: Torus(4, 4), Workload: "transpose", Breakers: []string{"E-first", "N-last"}}
	rows, err := e.Explore(ctx, spec)
	if err != nil || len(rows) != 2 {
		t.Fatalf("Explore = %d rows, %v; want the 2-row table", len(rows), err)
	}
	for _, row := range rows {
		if row.Err == nil || row.MCL != -1 {
			t.Errorf("row %s: MCL %g err %v, want a failed row", row.Breaker, row.MCL, row.Err)
		}
	}
	if _, err := e.Synthesize(ctx, spec); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Synthesize = %v, want ErrInfeasible", err)
	}
	if _, err := e.Verify(ctx, spec); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Verify = %v, want ErrInfeasible", err)
	}
}

// TestEngineOneArtifactPerSpelling: the engine runs the canonical form, so
// a sparse spec and its own Canonical() — asked for as a route set, a
// table or a simulation — are one artifact key and one synthesis.
func TestEngineOneArtifactPerSpelling(t *testing.T) {
	ctx := context.Background()
	m := NewMetrics()
	e := NewEngine(WithMetrics(m), WithWorkers(2))
	sparse := Spec{Topo: Torus(4, 4), Workload: "transpose"}
	spelled, err := sparse.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{sparse, spelled} {
		rs, err := e.Synthesize(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Explore(ctx, spec); err != nil {
			t.Fatal(err)
		}
		spec.Sim = &SimSpec{Rates: []float64{2}, Warmup: 200, Measure: 1000, Seed: 1}
		p, err := e.NewPipeline([]Spec{spec})
		if err != nil {
			t.Fatal(err)
		}
		results, err := p.RunAll(ctx)
		if err != nil || FirstError(results) != nil {
			t.Fatalf("RunAll: %v / %v", err, FirstError(results))
		}
		if results[0].MCL != rs.MCL() || results[0].Breaker != rs.Breaker() {
			t.Errorf("pipeline ran MCL %g via %s, Synthesize gave %g via %s",
				results[0].MCL, results[0].Breaker, rs.MCL(), rs.Breaker())
		}
	}
	if n := m.Snapshot()["engine_synth_cache_misses_total"]; n != 1 {
		t.Errorf("%g syntheses for one spec in two spellings, want 1", n)
	}
}

// TestWithWorkersSizesOnlyTheJobPool: candidate enumeration picks its own
// width, so the job-pool size cannot reach a route set — an Engine at the
// default width and one at WithWorkers(3) select byte-identical routes.
func TestWithWorkersSizesOnlyTheJobPool(t *testing.T) {
	ctx := context.Background()
	for _, alg := range []string{"BSOR-Heuristic", "BSOR-MILP"} {
		if alg == "BSOR-MILP" && testing.Short() {
			continue // two 8x8 MILP solves: half a minute under -race
		}
		// One breaker: what is compared is the selector's candidate pool,
		// which every breaker's solve fills the same way.
		spec := Spec{Topo: Mesh(8, 8), Workload: "transpose", Algorithm: alg,
			Breakers: []string{"negative-first(WN)"}}
		var want []byte
		for _, opts := range [][]Option{nil, {WithWorkers(3)}} {
			e := NewEngine(append(opts, WithMILPBudget(FastMILPBudget()))...)
			rs, err := e.Synthesize(ctx, spec)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			got, err := json.Marshal(rs.Routes())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: WithWorkers(3) selected different routes than the default engine", alg)
			}
		}
	}
}
