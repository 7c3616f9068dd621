package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/topology"
)

// TestTopoSpecJSONRoundTrip pins the declarative topology contract: every
// kind marshals to JSON and back without losing the parameters that
// determine the built network, so a job list written by -jobs re-runs
// identically.
func TestTopoSpecJSONRoundTrip(t *testing.T) {
	specs := []TopoSpec{
		MeshSpec(8, 8),
		TorusSpec(4, 6),
		TopoSpec{Kind: "ring", Nodes: 16},
		TopoSpec{Kind: "fullmesh", Nodes: 6},
		TopoSpec{Kind: "clos", Spines: 3, Leaves: 9},
		TopoSpec{Kind: "faulted-mesh", Width: 8, Height: 8, Faults: 6, FaultSeed: 3},
		TopoSpec{Kind: "faulted-torus", Width: 6, Height: 6, Faults: 4, FaultSeed: 7},
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back TopoSpec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back != spec {
				t.Fatalf("round trip changed the spec: %+v -> %s -> %+v", spec, data, back)
			}
			topo, err := back.Build()
			if err != nil {
				t.Fatal(err)
			}
			if topo.NumNodes() != spec.NumNodes() {
				t.Errorf("built %d nodes, spec reports %d", topo.NumNodes(), spec.NumNodes())
			}
			if err := topology.Validate(topo); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTopoSpecUnknownKindFailsLoudly: a misspelled kind must error at
// Build — never fall back to a zero-value mesh — and a job carrying it
// must produce an error result.
func TestTopoSpecUnknownKindFailsLoudly(t *testing.T) {
	var spec TopoSpec
	if err := json.Unmarshal([]byte(`{"kind":"hypercube","width":8}`), &spec); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(); err == nil {
		t.Fatal("unknown kind built a topology")
	}
	res := runJobs(t, &Runner{Workers: 1}, []Job{{
		Experiment: "bad", Kind: KindMCL, Topo: spec,
		Workload: "transpose", Algorithm: "SP", VCs: 2,
	}})[0]
	if res.Err == "" || res.MCL >= 0 {
		t.Errorf("unknown-kind job did not fail loudly: mcl=%g err=%q", res.MCL, res.Err)
	}
}

// TestUnknownWorkloadOnIrregularTopology: a typo'd workload name on a
// non-grid topology must be reported as unknown, not misdiagnosed as a
// grid requirement.
func TestUnknownWorkloadOnIrregularTopology(t *testing.T) {
	ring := topology.NewRing(8)
	if _, err := WorkloadFlows(ring, "perfmodel", 0); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("got %v, want unknown-workload error", err)
	}
	if _, err := WorkloadFlows(ring, "h264", 0); err == nil ||
		!strings.Contains(err.Error(), "grid topology") {
		t.Errorf("got %v, want grid-requirement error", err)
	}
}

// TestGraphBreakerNames pins the parametric name form the registry
// resolves for arbitrary topologies.
func TestGraphBreakerNames(t *testing.T) {
	for _, name := range GraphBreakerNames(64) {
		b, err := BreakerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name {
			t.Errorf("BreakerByName(%q).Name() = %q", name, b.Name())
		}
	}
	for _, bad := range []string{"updown@", "updown@-3", "updown@x", "updown-escape@1.5"} {
		if _, err := BreakerByName(bad); err == nil {
			t.Errorf("malformed breaker name %q accepted", bad)
		}
	}
}

// TestPipelineOnIrregularTopologies is the end-to-end acceptance check:
// the full enumerate -> break CDG -> select -> simulate pipeline runs on a
// ring, a full mesh, and a faulted 8x8 mesh, for both the graph-generic
// baseline and the BSOR selector, and every simulated point is healthy.
func TestPipelineOnIrregularTopologies(t *testing.T) {
	p := fastParams()
	var jobs []Job
	for _, tc := range []struct {
		spec     TopoSpec
		workload string
	}{
		{TopoSpec{Kind: "ring", Nodes: 16}, "transpose"},
		{TopoSpec{Kind: "fullmesh", Nodes: 8}, "rand-perm"},
		{TopoSpec{Kind: "faulted-mesh", Width: 8, Height: 8, Faults: 8, FaultSeed: 1}, "transpose"},
	} {
		for _, alg := range FaultSweepAlgorithms() {
			j := Job{
				Experiment: "irregular", Kind: KindSim, Topo: tc.spec,
				Workload: tc.workload, Algorithm: alg, VCs: 2,
				Rate: 2, Warmup: p.WarmupCycles, Measure: p.MeasureCycles, Seed: 1,
			}
			jobs = append(jobs, j)
		}
	}
	results := runJobs(t, &Runner{Workers: 4}, jobs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.MCL <= 0 {
			t.Errorf("%s/%s on %s: MCL %g", res.Job.Workload, res.Job.Algorithm,
				res.Job.Topo, res.MCL)
		}
		if res.Point == nil || res.Point.Deadlocked || res.Point.Throughput <= 0 {
			t.Errorf("%s/%s on %s: unhealthy point %+v", res.Job.Workload,
				res.Job.Algorithm, res.Job.Topo, res.Point)
		}
	}
}

// TestIrregularRoutesDeadlockFree verifies the Dally–Seitz condition
// directly on the irregular families: the used-dependence graph of every
// synthesized route set is acyclic, for the SP baseline and for the best
// BSOR set under the graph-generic breakers.
func TestIrregularRoutesDeadlockFree(t *testing.T) {
	for _, tc := range []struct {
		spec     TopoSpec
		workload string
	}{
		{TopoSpec{Kind: "ring", Nodes: 16}, "transpose"},
		{TopoSpec{Kind: "fullmesh", Nodes: 8}, "rand-perm"},
		{TopoSpec{Kind: "clos", Spines: 3, Leaves: 9}, "rand-perm"},
		{TopoSpec{Kind: "faulted-mesh", Width: 8, Height: 8, Faults: 8, FaultSeed: 1}, "transpose"},
		{TopoSpec{Kind: "faulted-torus", Width: 6, Height: 6, Faults: 6, FaultSeed: 2}, "rand-perm"},
	} {
		topo, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		flows, err := WorkloadFlows(topo, tc.workload, 0)
		if err != nil {
			t.Fatal(err)
		}
		spSet, err := route.ShortestPath{VCs: 2}.Routes(topo, flows)
		if err != nil {
			t.Fatalf("%s SP: %v", tc.spec, err)
		}
		if err := spSet.Validate(2); err != nil {
			t.Errorf("%s SP: %v", tc.spec, err)
		}
		if err := spSet.DeadlockFree(2); err != nil {
			t.Errorf("%s SP: %v", tc.spec, err)
		}
		breakers, err := ResolveBreakers(Job{Topo: tc.spec})
		if err != nil {
			t.Fatal(err)
		}
		bsorSet, ex, err := core.BestContext(context.Background(), topo, flows, core.Config{VCs: 2, Breakers: breakers})
		if err != nil {
			t.Fatalf("%s BSOR: %v", tc.spec, err)
		}
		if err := bsorSet.DeadlockFree(2); err != nil {
			t.Errorf("%s BSOR via %s: %v", tc.spec, ex.Breaker, err)
		}
		spMCL, _ := spSet.MCL()
		bsorMCL, _ := bsorSet.MCL()
		if bsorMCL > spMCL+1e-9 {
			t.Errorf("%s: BSOR MCL %g worse than SP baseline %g", tc.spec, bsorMCL, spMCL)
		}
	}
}

// TestFaultSweepDeterministic pins the fault-sweep scenario: identical
// JSON across worker counts, healthy points, and a first block that
// matches the zero-fault fabric.
func TestFaultSweepDeterministic(t *testing.T) {
	p := fastParams()
	jobs := FaultSweepJobs("fault-sweep", MeshSpec(4, 4), 1, []int{0, 2, 4},
		FaultSweepAlgorithms(), "transpose", []float64{2}, p)
	if len(jobs) != 3*2*1 {
		t.Fatalf("%d jobs, want 6", len(jobs))
	}
	var outs [][]byte
	for _, workers := range []int{1, 4} {
		r := &Runner{Workers: workers}
		results := runJobs(t, r, jobs)
		if err := FirstError(results); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("fault sweep differs between 1 and 4 workers")
	}
	groups := GroupResults(runJobs(t, &Runner{Workers: 2}, jobs), ByTopo)
	if len(groups) != 3 {
		t.Fatalf("%d topology groups, want 3", len(groups))
	}
	for _, g := range groups {
		for _, res := range g.Results {
			if res.Point == nil || res.Point.Deadlocked || res.Point.Throughput <= 0 {
				t.Errorf("%s %s: unhealthy %+v", g.Key, res.Job.Algorithm, res.Point)
			}
		}
	}
}
