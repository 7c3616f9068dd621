package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/churn"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/topology"
)

// churnTestSpecs are two small, fast specs exercising both purge policies.
func churnTestSpecs() []ChurnSpec {
	return []ChurnSpec{
		{
			Name: "drop", Topo: TopoSpec{Kind: "mesh", Width: 6, Height: 6},
			Workload: "rand-perm", Rate: 0.3, Seed: 11,
			Faults: 2, FaultSeed: 3,
		},
		{
			Name: "requeue", Topo: TopoSpec{Kind: "mesh", Width: 6, Height: 6},
			Workload: "rand-perm", Rate: 0.3, Seed: 11,
			Faults: 2, FaultSeed: 5, Requeue: true,
		},
	}
}

// TestRunChurnDeterministicAcrossWorkers pins the acceptance property:
// the churn metrics JSON is byte-identical across repeated runs and
// across worker counts.
func TestRunChurnDeterministicAcrossWorkers(t *testing.T) {
	specs := churnTestSpecs()
	runWith := func(workers int) []byte {
		r := &Runner{Workers: workers}
		results, err := r.RunChurn(context.Background(), specs)
		if err != nil {
			t.Fatalf("RunChurn(workers=%d): %v", workers, err)
		}
		for i, res := range results {
			if res.Err != "" {
				t.Fatalf("spec %d (%s) failed: %s", i, specs[i].Name, res.Err)
			}
			if res.Point == nil || res.Point.Delivered == 0 {
				t.Fatalf("spec %d (%s): nothing delivered", i, specs[i].Name)
			}
			if len(res.Events) != specs[i].Faults {
				t.Fatalf("spec %d: %d event reports, want %d", i, len(res.Events), specs[i].Faults)
			}
		}
		j, err := json.Marshal(results)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return j
	}
	one := runWith(1)
	four := runWith(4)
	if string(one) != string(four) {
		t.Fatalf("workers=1 and workers=4 diverged:\n%s\n%s", one, four)
	}
	if again := runWith(1); string(one) != string(again) {
		t.Fatalf("repeated run diverged:\n%s\n%s", one, again)
	}
}

// TestRunChurnPolicies checks the per-policy accounting surfaced through
// the aggregate point.
func TestRunChurnPolicies(t *testing.T) {
	r := &Runner{Workers: 2}
	results, err := r.RunChurn(context.Background(), churnTestSpecs())
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	drop, requeue := results[0], results[1]
	if drop.Err != "" || requeue.Err != "" {
		t.Fatalf("specs failed: %q / %q", drop.Err, requeue.Err)
	}
	if drop.Point.RequeuedPackets != 0 {
		t.Errorf("drop policy requeued %d packets", drop.Point.RequeuedPackets)
	}
	if requeue.Point.DroppedPackets != 0 {
		t.Errorf("requeue policy dropped %d packets", requeue.Point.DroppedPackets)
	}
	for i, res := range results {
		if res.MCL <= 0 {
			t.Errorf("result %d: MCL %v, want positive", i, res.MCL)
		}
		for j, ev := range res.Events {
			if ev.EscapeEpoch == 0 {
				t.Errorf("result %d event %d: no escape swap", i, j)
			}
			if ev.CommitEpoch <= ev.EscapeEpoch {
				t.Errorf("result %d event %d: commit epoch %d not after escape %d",
					i, j, ev.CommitEpoch, ev.EscapeEpoch)
			}
		}
	}
}

// TestRunChurnMILP runs the MILP resynth and checks every event's repair
// was timed and committed.
func TestRunChurnMILP(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP churn run in -short mode")
	}
	spec := ChurnSpec{
		Name: "milp", Topo: TopoSpec{Kind: "mesh", Width: 6, Height: 6},
		Workload: "rand-perm", Rate: 0.3, Seed: 11,
		Faults: 1, FaultSeed: 3,
		Resynth: "milp",
	}
	r := &Runner{}
	results, err := r.RunChurn(context.Background(), []ChurnSpec{spec})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	res := results[0]
	if res.Err != "" {
		t.Fatalf("spec failed: %s", res.Err)
	}
	for i, ev := range res.Events {
		if ev.ResynthWall <= 0 {
			t.Errorf("event %d: resynth wall %v, want positive", i, ev.ResynthWall)
		}
		if ev.CommitCycle == 0 || ev.CommitEpoch <= ev.EscapeEpoch {
			t.Errorf("event %d: no commit (cycle %d, epoch %d after escape %d)",
				i, ev.CommitCycle, ev.CommitEpoch, ev.EscapeEpoch)
		}
	}
}

// TestRepairIsHistoryFree pins that a repair is a function of the degraded
// graph alone: walked the way execChurn walks a schedule — fault-free,
// then one link dead, then two — one selector value that solved the first
// two graphs returns on the third exactly what a fresh one returns there.
// The schedule is churn-milp's s5; the cross-event warm start this
// replaced committed MCL 75 on its last graph where a solve from scratch
// finds 50.
func TestRepairIsHistoryFree(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP solves in -short mode")
	}
	r := &Runner{}
	topo, err := r.topo(context.Background(), MeshSpec(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	flows, err := r.workloadFlows(topo, Job{Workload: "rand-perm"})
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := churn.RandomSchedule(topo, 5, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// graphs[k] has the schedule's first k links dead, each on its own
	// overlay, as the supervisor snapshots every degraded topology.
	var graphs []*flowgraph.Graph
	for k := 0; k <= 2; k++ {
		snap := topology.NewFaultOverlay(topo)
		for _, ev := range schedule[:k] {
			snap.Disable(ev.Fail...)
		}
		graphs = append(graphs, churn.FlowGraph(snap, flows, 2))
	}
	for _, name := range ChurnResynthNames() {
		// The fresh solve goes first, so that it is the one with no history
		// whatever a selector may come to hold.
		fresh, err := churnResynths[name].SelectContext(context.Background(), graphs[2])
		if err != nil {
			t.Fatalf("%s: fresh solve: %v", name, err)
		}
		walked := churnResynths[name]
		var last *route.Set
		for k, g := range graphs {
			if last, err = walked.SelectContext(context.Background(), g); err != nil {
				t.Fatalf("%s: graph %d: %v", name, k, err)
			}
		}
		if !reflect.DeepEqual(last.Routes, fresh.Routes) {
			lm, _ := last.MCL()
			fm, _ := fresh.MCL()
			t.Errorf("%s: the third solve of one selector (MCL %v) differs from a fresh selector's (MCL %v): the repair depends on history",
				name, lm, fm)
		}
		if mcl, _ := last.MCL(); name == "milp" && mcl != 50 {
			t.Errorf("milp: MCL %v on the two-fault graph, want 50", mcl)
		}
	}
}

// TestRunChurnMetrics pins the churn instrumentation: fault events,
// escape swaps, commits, and background re-syntheses are all counted,
// purge totals match the result's own accounting, and the churn metrics
// JSON stays byte-identical to an uninstrumented run.
func TestRunChurnMetrics(t *testing.T) {
	specs := churnTestSpecs()
	plain := &Runner{Workers: 2}
	base, err := plain.RunChurn(context.Background(), specs)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	m := metrics.New()
	r := &Runner{Workers: 2, Metrics: m}
	results, err := r.RunChurn(context.Background(), specs)
	if err != nil {
		t.Fatalf("RunChurn with metrics: %v", err)
	}
	bj, _ := json.Marshal(base)
	rj, _ := json.Marshal(results)
	if string(bj) != string(rj) {
		t.Errorf("metrics changed churn results:\noff: %s\non:  %s", bj, rj)
	}

	wantFaults := int64(specs[0].Faults + specs[1].Faults)
	for _, name := range []string{
		"churn_fault_events_total",
		"churn_escape_swaps_total",
		"churn_commits_total",
		"churn_resynth_total",
	} {
		if got := m.Counter(name).Value(); got != wantFaults {
			t.Errorf("%s = %d, want %d", name, got, wantFaults)
		}
	}
	if got := m.Counter("engine_churn_runs_total").Value(); got != int64(len(specs)) {
		t.Errorf("engine_churn_runs_total = %d, want %d", got, len(specs))
	}
	var flits, requeued int64
	for _, res := range results {
		flits += res.Point.DroppedFlits
		requeued += res.Point.RequeuedPackets
	}
	if got := m.Counter("sim_purged_flits_total").Value(); got != flits {
		t.Errorf("sim_purged_flits_total = %d, want %d (result accounting)", got, flits)
	}
	if got := m.Counter("sim_requeued_packets_total").Value(); got != requeued {
		t.Errorf("sim_requeued_packets_total = %d, want %d (result accounting)", got, requeued)
	}
	if got := m.Counter("sim_cycles_total").Value(); got <= 0 {
		t.Errorf("sim_cycles_total = %d, want > 0", got)
	}
}

func TestRunChurnUnknownResynth(t *testing.T) {
	r := &Runner{}
	results, err := r.RunChurn(context.Background(), []ChurnSpec{{
		Topo:     TopoSpec{Kind: "mesh", Width: 4, Height: 4},
		Workload: "rand-perm", Rate: 0.2, Faults: 1, Resynth: "annealing",
	}})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if results[0].Err == "" {
		t.Fatalf("unknown resynth accepted")
	}
}
