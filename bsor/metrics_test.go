package bsor

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestMetricsOutOfBand is the collector's core guarantee, end to end:
// the marshaled results of a pipeline are byte-identical with metrics
// off (one worker) and metrics on (four workers), while the collector
// itself reports non-zero simplex pivots, synthesis-cache hits, and
// simulated cycles.
func TestMetricsOutOfBand(t *testing.T) {
	specs := []Spec{
		{Name: "milp", Topo: Mesh(4, 4), Workload: "transpose", Algorithm: "BSOR-MILP"},
		{Name: "sweep", Topo: Mesh(4, 4), Workload: "shuffle",
			Sim: &SimSpec{Rates: []float64{0.05, 0.1, 0.15}, Warmup: 500, Measure: 2000, Seed: 7}},
	}
	run := func(opts ...Option) []byte {
		t.Helper()
		opts = append(opts, WithMILPBudget(FastMILPBudget()))
		p, err := NewPipeline(specs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		results, err := p.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("spec %s: %v", r.Name, r.Err)
			}
		}
		j, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	plain := run(WithWorkers(1))
	m := NewMetrics()
	instrumented := run(WithWorkers(4), WithMetrics(m))
	if !bytes.Equal(plain, instrumented) {
		t.Errorf("results differ with metrics on:\noff: %s\non:  %s", plain, instrumented)
	}

	snap := m.Snapshot()
	// The LP instruments are wired when branch and bound counts its nodes;
	// pivots may be zero, since a master can be optimal at its crash basis.
	for _, name := range []string{
		"engine_jobs_total",
		"engine_synth_cache_hits_total",
		"lp_bb_nodes_total",
		"sim_cycles_total",
		"route_paths_kept_total",
	} {
		if snap[name] <= 0 {
			t.Errorf("%s = %g, want > 0 (snapshot: %v)", name, snap[name], snap)
		}
	}
	// Three sim points share one synthesis: exactly two cache hits.
	if hits := snap["engine_synth_cache_hits_total"]; hits != 2 {
		t.Errorf("cache hits = %g, want 2 (three points, one synthesis)", hits)
	}
	if snap["engine_job_errors_total"] != 0 {
		t.Errorf("job errors = %g, want 0", snap["engine_job_errors_total"])
	}
}

// TestNilMetricsSafe pins the nil-receiver contract of the public
// wrapper: a nil *Metrics is inert everywhere WithMetrics and the
// accessors accept one.
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	if m.Snapshot() != nil {
		t.Error("nil Snapshot not nil")
	}
	if err := m.WritePrometheus(nil); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if err := m.PublishExpvar("unused"); err != nil {
		t.Errorf("nil PublishExpvar: %v", err)
	}
	p, err := NewPipeline([]Spec{{Topo: Mesh(4, 4), Workload: "transpose"}}, WithMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
}
