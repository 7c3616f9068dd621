package bsor

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestChurnSpecJSONRoundTrip(t *testing.T) {
	specs := []ChurnSpec{
		{Topo: Mesh(6, 6), Workload: "rand-perm", Rate: 0.3, Faults: 2},
		{Name: "churn-16", Topo: Mesh(16, 16), Workload: "transpose", Rate: 0.4,
			Warmup: 4000, Measure: 40000, Seed: 11,
			Faults: 4, FaultSeed: 7, FaultStart: 6048, FaultSpacing: 8192,
			RecoveryWindow: 2048, Requeue: true, Resynth: "milp"},
	}
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		var back ChurnSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("spec %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("spec %d did not round-trip:\n%+v\n%+v", i, s, back)
		}
	}
}

// TestChurnSpecValidation is the table-driven rejection surface of
// ChurnSpec.Validate: each bad spec must yield a *SpecError naming the
// offending field.
func TestChurnSpecValidation(t *testing.T) {
	good := ChurnSpec{Topo: Mesh(6, 6), Workload: "rand-perm", Rate: 0.3, Faults: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(*ChurnSpec)
		field string
	}{
		{"unknown topo kind", func(s *ChurnSpec) { s.Topo.Kind = "hypercube" }, "topo"},
		{"negative topo param", func(s *ChurnSpec) { s.Topo.Width = -1 }, "topo"},
		{"two-node ring", func(s *ChurnSpec) { s.Topo = Ring(2) }, "topo"},
		{"one-node fullmesh", func(s *ChurnSpec) { s.Topo = FullMesh(1) }, "topo"},
		{"one-leaf clos", func(s *ChurnSpec) { s.Topo = FoldedClos(1, 1) }, "topo"},
		{"one-wide torus", func(s *ChurnSpec) { s.Topo = Torus(1, 5) }, "topo"},
		{"one-wide faulted torus", func(s *ChurnSpec) { s.Topo = FaultedTorus(1, 4, 0, 1) }, "topo"},
		{"missing workload", func(s *ChurnSpec) { s.Workload = "" }, "workload"},
		{"unknown workload", func(s *ChurnSpec) { s.Workload = "nonesuch" }, "workload"},
		{"bad vcs", func(s *ChurnSpec) { s.VCs = 64 }, "vcs"},
		{"negative demand", func(s *ChurnSpec) { s.Demand = -1 }, "demand"},
		{"zero rate", func(s *ChurnSpec) { s.Rate = 0 }, "rate"},
		{"negative cycles", func(s *ChurnSpec) { s.Measure = -1 }, "sim"},
		{"negative faults", func(s *ChurnSpec) { s.Faults = -1 }, "faults"},
		{"negative spacing", func(s *ChurnSpec) { s.FaultSpacing = -1 }, "faults"},
		{"unknown resynth", func(s *ChurnSpec) { s.Resynth = "annealing" }, "resynth"},
	}
	for _, tc := range cases {
		s := good
		tc.mut(&s)
		err := s.Validate()
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: got %v (%T), want *SpecError", tc.name, err, err)
			continue
		}
		if se.Field != tc.field {
			t.Errorf("%s: field %q, want %q (%v)", tc.name, se.Field, tc.field, err)
		}
	}
}

// TestTooManyFaultsSurfaced pins how an over-budget fault count on a
// faulted topology surfaces through the façade: labels parse fine (the
// budget depends on connectivity, not syntax), and at run time the typed
// topology.TooManyFaultsError arrives wrapped in a *SpecError on the
// "topo" field — from the pipeline and from RunChurn alike.
func TestTooManyFaultsSurfaced(t *testing.T) {
	cases := []struct {
		label   string
		tooMany bool
	}{
		{"faulted-mesh4x4-f3-s1", false},
		{"faulted-mesh4x4-f50-s1", true},
		{"faulted-torus4x4-f99-s2", true},
	}
	for _, tc := range cases {
		topo, err := ParseTopology(tc.label)
		if err != nil {
			t.Fatalf("%s: ParseTopology: %v", tc.label, err)
		}

		check := func(op string, err error) {
			t.Helper()
			if !tc.tooMany {
				if err != nil {
					t.Errorf("%s: %s: unexpected error %v", tc.label, op, err)
				}
				return
			}
			var se *SpecError
			if !errors.As(err, &se) || se.Field != "topo" {
				t.Errorf("%s: %s: got %v (%T), want *SpecError on field topo", tc.label, op, err, err)
				return
			}
			var tooMany *topology.TooManyFaultsError
			if !errors.As(err, &tooMany) {
				t.Errorf("%s: %s: *SpecError does not wrap *TooManyFaultsError: %v", tc.label, op, err)
			} else if tooMany.Requested == 0 || tooMany.Removable >= tooMany.Requested {
				t.Errorf("%s: %s: implausible TooManyFaultsError %+v", tc.label, op, *tooMany)
			}
		}

		// Through the synthesis pipeline.
		_, err = Synthesize(context.Background(), Spec{Topo: topo, Workload: "rand-perm"})
		check("Synthesize", err)

		// Through a churn run (per-result error).
		results, err := RunChurn(context.Background(), []ChurnSpec{{
			Topo: topo, Workload: "rand-perm", Rate: 0.2, Faults: 1,
			Measure: 12000,
		}})
		if err != nil {
			t.Fatalf("%s: RunChurn: %v", tc.label, err)
		}
		check("RunChurn", results[0].Err)
	}
}

// TestRunChurnFacade runs one small churn spec end to end through the
// public surface.
func TestRunChurnFacade(t *testing.T) {
	results, err := RunChurn(context.Background(), []ChurnSpec{{
		Name: "smoke", Topo: Mesh(6, 6), Workload: "rand-perm",
		Rate: 0.3, Seed: 11, Faults: 2, FaultSeed: 3,
	}}, WithWorkers(2))
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	res := results[0]
	if res.Err != nil {
		t.Fatalf("spec failed: %v", res.Err)
	}
	if res.MCL <= 0 {
		t.Errorf("MCL %v, want positive", res.MCL)
	}
	if res.Point == nil || res.Point.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", res.Point)
	}
	if len(res.Events) != 2 {
		t.Fatalf("%d events, want 2", len(res.Events))
	}
	for i, ev := range res.Events {
		if ev.EscapeEpoch == 0 || ev.CommitEpoch <= ev.EscapeEpoch {
			t.Errorf("event %d: epochs escape=%d commit=%d", i, ev.EscapeEpoch, ev.CommitEpoch)
		}
		if ev.ResynthWall <= 0 {
			t.Errorf("event %d: no resynth wall time", i)
		}
	}
	// The point's churn aggregates summarize the worst event.
	var worstDip float64
	for _, ev := range res.Events {
		if ev.ThroughputDip > worstDip {
			worstDip = ev.ThroughputDip
		}
	}
	if res.Point.ThroughputDip != worstDip {
		t.Errorf("point dip %v != worst event dip %v", res.Point.ThroughputDip, worstDip)
	}
	// Wall clocks must never leak into the metrics JSON.
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if s := string(b); strings.Contains(s, "Wall") || strings.Contains(s, "wall") {
		t.Errorf("wall-clock field leaked into JSON: %s", s)
	}
}

func TestRunChurnRejectsInvalidSpec(t *testing.T) {
	_, err := RunChurn(context.Background(), []ChurnSpec{{Topo: Mesh(4, 4), Workload: "rand-perm"}})
	var se *SpecError
	if !errors.As(err, &se) || se.Field != "rate" {
		t.Fatalf("got %v, want *SpecError on rate", err)
	}
	if _, err := RunChurn(context.Background(), nil); err == nil {
		t.Fatalf("empty spec list accepted")
	}
}
