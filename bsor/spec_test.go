package bsor

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{Topo: Mesh(8, 8), Workload: "transpose"},
		{Name: "fig6-1", Topo: Torus(4, 4), Workload: "h264", Algorithm: "BSOR-MILP",
			Breakers: []string{"E-first"}, VCs: 4, Demand: 10, Capacity: 500,
			Sim: &SimSpec{Rates: []float64{2, 5, 10}, Warmup: 100, Measure: 1000, Seed: 7, Variation: 0.25}},
		{Topo: FaultedMesh(8, 8, 4, 1), Workload: "rand-perm", Algorithm: "SP"},
		{Topo: Ring(9), Workload: "rand-perm", Explore: true},
		{Topo: FoldedClos(4, 8), Workload: "rand-perm"},
	}
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("spec %d did not round-trip:\n  in:  %+v\n  out: %+v", i, s, back)
		}
	}
}

func TestParseTopologyRoundTrip(t *testing.T) {
	topos := []Topology{
		Mesh(8, 8), Torus(4, 4), Ring(8), FullMesh(5), FoldedClos(4, 8),
		FaultedMesh(8, 8, 4, 1), FaultedTorus(6, 6, 2, 9),
	}
	for _, topo := range topos {
		back, err := ParseTopology(topo.String())
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if back.String() != topo.String() {
			t.Errorf("%s round-tripped to %s", topo, back)
		}
	}
	if _, err := ParseTopology("hypercube4"); err == nil {
		t.Error("garbage topology accepted")
	} else {
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("ParseTopology error is %T, want *SpecError", err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string
	}{
		{"unknown workload", Spec{Workload: "no-such"}, "workload"},
		{"empty workload", Spec{}, "workload"},
		{"unknown algorithm", Spec{Workload: "transpose", Algorithm: "dor"}, "algorithm"},
		{"unknown topo kind", Spec{Topo: Topology{Kind: "hypercube"}, Workload: "transpose"}, "topo"},
		{"unknown breaker", Spec{Workload: "transpose", Breakers: []string{"no-such"}}, "breakers"},
		{"breakers on baseline", Spec{Workload: "transpose", Algorithm: "XY", Breakers: []string{"E-first"}}, "breakers"},
		{"explore on baseline", Spec{Workload: "transpose", Algorithm: "XY", Explore: true}, "explore"},
		{"explore with sim", Spec{Workload: "transpose", Explore: true, Sim: &SimSpec{Rates: []float64{1}}}, "explore"},
		{"sim without rates", Spec{Workload: "transpose", Sim: &SimSpec{}}, "sim"},
		{"negative rate", Spec{Workload: "transpose", Sim: &SimSpec{Rates: []float64{-1}}}, "sim"},
		{"NaN rate", Spec{Workload: "transpose", Sim: &SimSpec{Rates: []float64{math.NaN()}}}, "sim"},
		{"infinite rate", Spec{Workload: "transpose", Sim: &SimSpec{Rates: []float64{5, math.Inf(1)}}}, "sim"},
		{"negative demand", Spec{Workload: "transpose", Demand: -1}, "demand"},
		{"absurd vcs", Spec{Workload: "transpose", VCs: 64}, "vcs"},
		// Parameters the topology constructors panic on, and a breaker
		// rooted outside the topology.
		{"two-node ring", Spec{Topo: Ring(2), Workload: "rand-perm"}, "topo"},
		{"one-node fullmesh", Spec{Topo: FullMesh(1), Workload: "rand-perm"}, "topo"},
		{"one-leaf clos", Spec{Topo: FoldedClos(1, 1), Workload: "rand-perm"}, "topo"},
		{"breaker root off the mesh", Spec{Topo: Mesh(4, 4), Workload: "transpose",
			Breakers: []string{"updown@99"}}, "breakers"},
		{"escape breaker root off the ring", Spec{Topo: Ring(8), Workload: "rand-perm",
			Breakers: []string{"updown-escape@8"}}, "breakers"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error is %T, want *SpecError", tc.name, err)
			continue
		}
		if se.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, se.Field, tc.field)
		}
	}
	for _, good := range []Spec{
		{Topo: Torus(4, 4), Workload: "shuffle", Algorithm: "bsor-milp", Sim: &SimSpec{Rates: []float64{5}}},
		// An explicit zero still means the kind's default size.
		{Topo: Ring(0), Workload: "rand-perm", Breakers: []string{"updown@7"}},
		{Topo: Topology{Kind: "clos"}, Workload: "rand-perm"},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", good, err)
		}
	}
}

func TestNormalizeAlgorithm(t *testing.T) {
	for in, want := range map[string]string{
		"xy": "XY", "bsor-milp": "BSOR-MILP", "BSOR-Dijkstra": "BSOR-Dijkstra",
		"o1turn": "O1TURN", "sp": "SP",
	} {
		got, err := NormalizeAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("NormalizeAlgorithm(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := NormalizeAlgorithm("dor"); err == nil {
		t.Error("unknown algorithm normalized")
	}
}

func TestRegistries(t *testing.T) {
	if len(Algorithms()) != 9 {
		t.Errorf("Algorithms() = %v, want 9 names", Algorithms())
	}
	names := Workloads()
	want := map[string]bool{"transpose": true, "h264": true, "rand-perm": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) > 0 {
		t.Errorf("Workloads() = %v is missing %v", names, want)
	}
	for _, topo := range []Topology{Mesh(8, 8), Torus(8, 8), Ring(8)} {
		breakers := DefaultBreakers(topo)
		if len(breakers) == 0 {
			t.Fatalf("no default breakers for %s", topo)
		}
		for _, b := range breakers {
			if !KnownBreaker(b) {
				t.Errorf("default breaker %q of %s unknown to the registry", b, topo)
			}
		}
	}
	if err := RegisterWorkload("transpose", func(TopoInfo, float64) ([]Flow, error) { return nil, nil }); err == nil {
		t.Error("built-in workload name re-registered")
	}
}
