package experiments

import (
	"testing"

	"repro/internal/route"
	"repro/internal/topology"
)

func fastParams() SimParams {
	return SimParams{VCs: 2, WarmupCycles: 500, MeasureCycles: 3000, Seed: 1}
}

func TestWorkloadsComplete(t *testing.T) {
	m := topology.NewMesh(8, 8)
	want := map[string]int{
		"transpose": 56, "bit-complement": 64, "shuffle": 62,
		"h264": 15, "perf-modeling": 11, "transmitter": 20,
	}
	names := WorkloadNames()
	if len(names) != len(want) {
		t.Fatalf("%d workloads, want %d", len(names), len(want))
	}
	for _, name := range names {
		flows, err := WorkloadFlows(m, name, 0)
		if err != nil || want[name] != len(flows) {
			t.Errorf("%s: %d flows (%v), want %d", name, len(flows), err, want[name])
		}
	}
}

func TestTableBreakersAreFive(t *testing.T) {
	bs := TableBreakers()
	if len(bs) != 5 {
		t.Fatalf("%d table breakers, want 5 (the thesis' table columns)", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name()] = true
	}
	for _, want := range []string{"N-last", "W-first", "negative-first(WN)", "ad-hoc-1", "ad-hoc-2"} {
		if !names[want] {
			t.Errorf("missing breaker %q in %v", want, names)
		}
	}
}

// Table 6.2 reproduction: the Dijkstra exploration must reach the thesis'
// headline values — transpose negative-first 75, and applications bounded
// below by their heaviest flow.
func TestTable62Shape(t *testing.T) {
	r := &Runner{}
	rows := CDGRows(runJobs(t, r, TableJobs("table-cdg", MeshSpec(8, 8), "BSOR-Dijkstra", TableBreakerNames(), 2)))
	byName := map[string]CDGRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	tr := byName["transpose"]
	found75 := false
	for i, b := range tr.Breakers {
		if b == "negative-first(WN)" && tr.MCL[i] == 75 {
			found75 = true
		}
	}
	if !found75 {
		t.Errorf("transpose negative-first MCL != 75: %v %v", tr.Breakers, tr.MCL)
	}
	for _, wl := range []string{"h264", "perf-modeling", "transmitter"} {
		lower := map[string]float64{"h264": 120.4, "perf-modeling": 62.73, "transmitter": 7.34}[wl]
		for i, v := range byName[wl].MCL {
			if v >= 0 && v < lower-1e-9 {
				t.Errorf("%s under %s: MCL %g below the heaviest-flow bound %g",
					wl, byName[wl].Breakers[i], v, lower)
			}
		}
	}
}

func TestTable63Shape(t *testing.T) {
	// Keep the test cheap: a light MILP budget and only two CDGs. The
	// MILP candidate pool is seeded with the Dijkstra solution, so even
	// this budget preserves the BSOR <= DOR invariant being checked.
	milp := route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 4,
		MaxNodes: 20, Gap: 0.01}
	r := &Runner{MILP: milp}
	rows := AlgoRows(runJobs(t, r, AlgoTableJobs("table6.3", MeshSpec(8, 8), Table63Algorithms(),
		TableBreakerNames()[:3], 2)))
	for _, r := range rows {
		if len(r.MCL) != 6 {
			t.Fatalf("%s: %d algorithms", r.Workload, len(r.MCL))
		}
		xy, bsorM, bsorD := r.MCL[0], r.MCL[4], r.MCL[5]
		if bsorD < 0 || bsorM < 0 {
			t.Errorf("%s: BSOR failed (%g, %g)", r.Workload, bsorM, bsorD)
			continue
		}
		// The thesis' central claim: BSOR never loses to DOR on MCL.
		if bsorD > xy+1e-9 {
			t.Errorf("%s: BSOR-Dijkstra MCL %g worse than XY %g", r.Workload, bsorD, xy)
		}
		if bsorM > xy+1e-9 {
			t.Errorf("%s: BSOR-MILP MCL %g worse than XY %g", r.Workload, bsorM, xy)
		}
	}
}

func TestFigureSweepProducesMonotoneOfferedAxis(t *testing.T) {
	results := runJobs(t, &Runner{}, SweepJobs("figure", MeshSpec(8, 8), "perf-modeling",
		[]string{"XY", "YX"}, nil, []float64{2, 8}, 0, fastParams()))
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	series := SeriesFrom(results)
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points", s.Algorithm, len(s.Points))
		}
		if s.Points[0].Deadlocked || s.Points[1].Deadlocked {
			t.Errorf("%s deadlocked", s.Algorithm)
		}
		if s.Points[0].Throughput <= 0 {
			t.Errorf("%s: zero throughput at offered 2", s.Algorithm)
		}
		// Throughput cannot decrease drastically when offered load rises
		// in a stable network; allow saturation noise.
		if s.Points[1].Throughput < 0.5*s.Points[0].Throughput {
			t.Errorf("%s: unstable throughput %v", s.Algorithm, s.Points)
		}
	}
}

func TestVCSweepRuns(t *testing.T) {
	results := runJobs(t, &Runner{}, VCSweepJobs("vcsweep", MeshSpec(8, 8), "transmitter",
		[]string{"BSOR-Dijkstra", "XY"}, []int{1, 2}, []float64{5}, fastParams()))
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	out := SeriesByVC(results)
	if len(out[1]) == 0 || len(out[2]) == 0 {
		t.Fatal("missing VC series")
	}
}

func TestVariationSweepRuns(t *testing.T) {
	results := runJobs(t, &Runner{}, SweepJobs("variation", MeshSpec(8, 8), "perf-modeling",
		[]string{"XY"}, nil, []float64{5}, 0.25, fastParams()))
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	series := SeriesFrom(results)
	if len(series) != 1 || len(series[0].Points) != 1 {
		t.Fatal("wrong shape")
	}
	if series[0].Points[0].Throughput <= 0 {
		t.Error("no throughput under variation")
	}
}

func TestInjectionTrace(t *testing.T) {
	trace := InjectionTrace(25, 0.25, 5000, 52)
	if len(trace) != 5000 {
		t.Fatalf("trace length %d", len(trace))
	}
	lo, hi := trace[0], trace[0]
	for _, v := range trace {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < 25*0.75-1e-9 || hi > 25*1.25+1e-9 {
		t.Errorf("trace range [%g, %g] outside 25%% band", lo, hi)
	}
	if hi == lo {
		t.Error("trace is constant")
	}
}

func TestDynamicVCPolicy(t *testing.T) {
	for name, want := range map[string]bool{
		"XY": true, "YX": true, "ROMM": false, "Valiant": false, "SP": false,
		"BSOR-MILP": false, "BSOR-Dijkstra": false, "BSOR-Heuristic": false,
	} {
		if got := algorithmOf(name).dynamicVC; got != want {
			t.Errorf("dynamicVC(%s) = %v", name, got)
		}
	}
}

// TestSynthScaleJobs pins the synthesis-scale job builder: synthetic
// workloads only, breakers attached to BSOR variants (including the
// heuristic) and to nothing else.
func TestSynthScaleJobs(t *testing.T) {
	jobs := SynthScaleJobs("synth16-mesh", MeshSpec(16, 16), SynthScaleAlgorithms(),
		TableBreakerNames(), 2)
	wantJobs := len(SyntheticWorkloadNames()) * len(SynthScaleAlgorithms())
	if len(jobs) != wantJobs {
		t.Fatalf("%d jobs, want %d", len(jobs), wantJobs)
	}
	for _, j := range jobs {
		if j.Kind != KindMCL {
			t.Errorf("%s/%s: kind %s", j.Workload, j.Algorithm, j.Kind)
		}
		wantBreakers := IsBSOR(j.Algorithm)
		if (len(j.Breakers) > 0) != wantBreakers {
			t.Errorf("%s: breakers %v", j.Algorithm, j.Breakers)
		}
	}
}

// TestHeuristicJobRuns executes a BSOR-Heuristic MCL job end to end on the
// engine and checks it lands in the same league as BSOR-Dijkstra.
func TestHeuristicJobRuns(t *testing.T) {
	r := &Runner{}
	jobs := []Job{
		{Experiment: "t", Kind: KindMCL, Topo: MeshSpec(8, 8), Workload: "transpose",
			Algorithm: "BSOR-Heuristic", Breakers: TableBreakerNames()[:2], VCs: 2},
		{Experiment: "t", Kind: KindMCL, Topo: MeshSpec(8, 8), Workload: "transpose",
			Algorithm: "XY", VCs: 2},
	}
	results := runJobs(t, r, jobs)
	heur, xy := results[0], results[1]
	if heur.Err != "" {
		t.Fatalf("heuristic job failed: %s", heur.Err)
	}
	if heur.MCL <= 0 {
		t.Fatalf("heuristic MCL %g", heur.MCL)
	}
	if heur.MCL > xy.MCL+1e-9 {
		t.Errorf("BSOR-Heuristic MCL %g worse than XY %g", heur.MCL, xy.MCL)
	}
	if heur.Breaker == "" {
		t.Error("heuristic result lost its winning breaker")
	}
}
