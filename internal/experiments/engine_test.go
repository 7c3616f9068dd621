package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// runJobs runs jobs to completion on r, failing t if the run is cut short.
func runJobs(t *testing.T, r *Runner, jobs []Job) []Result {
	t.Helper()
	results, err := r.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// detJobs is a small mixed job list (MCL cells + sim points) used by the
// determinism tests.
func detJobs() []Job {
	p := fastParams()
	jobs := TableJobs("det-table", MeshSpec(8, 8), "BSOR-Dijkstra",
		TableBreakerNames(), 2)
	jobs = append(jobs, SweepJobs("det-sweep", MeshSpec(8, 8), "perf-modeling",
		[]string{"BSOR-Dijkstra", "XY"}, TableBreakerNames(), []float64{2, 8}, 0, p)...)
	jobs = append(jobs, SweepJobs("det-var", MeshSpec(8, 8), "transmitter",
		[]string{"XY"}, nil, []float64{5}, 0.25, p)...)
	return jobs
}

// TestRunDeterministicAcrossWorkers pins the engine's core guarantee:
// the same jobs produce byte-identical JSON whether executed by one
// worker or many, because results are ordered by job and every random
// stream is seeded from the job itself. CI reruns the package under
// -cpu 1,4 -race.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := detJobs()
	var outs [][]byte
	for _, workers := range []int{1, 4} {
		r := &Runner{Workers: workers}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, runJobs(t, r, jobs)); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("results differ between 1 and 4 workers:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s",
			outs[0], outs[1])
	}
}

// TestSynthesisCachedOncePerKey pins the memoization contract: a sweep of
// A algorithms across R rates synthesizes routes exactly A times, and
// re-running the same jobs on the same Runner synthesizes nothing new.
func TestSynthesisCachedOncePerKey(t *testing.T) {
	r := &Runner{Workers: 4, Metrics: metrics.New()}
	jobs := SweepJobs("cache", MeshSpec(8, 8), "transmitter",
		[]string{"BSOR-Dijkstra", "XY", "YX"}, TableBreakerNames(),
		[]float64{2, 5, 8}, 0, fastParams())
	results := runJobs(t, r, jobs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if got := synthMisses(r); got != 3 {
		t.Errorf("synthesis ran %d times for 3 algorithms x 3 rates, want 3", got)
	}
	runJobs(t, r, jobs)
	if got := synthMisses(r); got != 3 {
		t.Errorf("re-run recomputed synthesis: count %d, want 3", got)
	}
	// A different VC count is a different key.
	p := fastParams()
	p.VCs = 4
	runJobs(t, r, SweepJobs("cache", MeshSpec(8, 8), "transmitter",
		[]string{"XY"}, nil, []float64{2}, 0, p))
	if got := synthMisses(r); got != 4 {
		t.Errorf("distinct key not recomputed: count %d, want 4", got)
	}
}

// synthMisses reads how many route syntheses r's cache has computed (not
// served): every memo leader, a cancelled one included, is one miss.
func synthMisses(r *Runner) int64 {
	return r.Metrics.Counter("engine_synth_cache_misses_total").Value()
}

// TestEngineMatchesSequentialExploration checks the engine's table path
// against a direct sequential core.ExploreContext over the same breakers:
// the concurrent refactor must not change a single MCL.
func TestEngineMatchesSequentialExploration(t *testing.T) {
	m := topology.NewMesh(8, 8)
	rows := CDGRows(runJobs(t, &Runner{}, TableJobs("table-cdg", MeshSpec(8, 8), "BSOR-Dijkstra", TableBreakerNames(), 2)))
	byName := map[string]CDGRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	for _, wl := range []string{"transmitter", "h264"} {
		flows, err := WorkloadFlows(m, wl, 0)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := core.ExploreContext(context.Background(), m, flows, core.Config{VCs: 2, Breakers: TableBreakers()})
		if err != nil {
			t.Fatal(err)
		}
		row := byName[wl]
		if len(row.MCL) != len(seq) {
			t.Fatalf("%s: %d cells, want %d", wl, len(row.MCL), len(seq))
		}
		for i, ex := range seq {
			want := ex.MCL
			if ex.Err != nil {
				want = -1
			}
			if row.MCL[i] != want {
				t.Errorf("%s under %s: engine MCL %g, sequential %g",
					wl, row.Breakers[i], row.MCL[i], want)
			}
		}
	}
}

// TestTorusJobs exercises the torus axis of the sweep space: dateline
// CDGs admit deadlock-free routes for a bit-permutation workload, and the
// route set simulates without deadlocking.
func TestTorusJobs(t *testing.T) {
	p := fastParams()
	breakers := DatelineBreakerNames()[:2]
	jobs := TableJobs("torus-table", TorusSpec(4, 4), "BSOR-Dijkstra", breakers, 2)
	jobs = append(jobs, SweepJobs("torus-sweep", TorusSpec(4, 4), "transpose",
		[]string{"BSOR-Dijkstra"}, breakers, []float64{2}, 0, p)...)
	results := runJobs(t, &Runner{Workers: 4}, jobs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Job.Kind == KindMCL && res.Err == "" && res.MCL <= 0 {
			t.Errorf("torus %s/%s: MCL %g", res.Job.Workload, res.Job.Breakers, res.MCL)
		}
	}
	series := SeriesFrom(results)
	if len(series) != 1 || len(series[0].Points) != 1 {
		t.Fatalf("torus sweep shape: %+v", series)
	}
	if pt := series[0].Points[0]; pt.Deadlocked || pt.Throughput <= 0 {
		t.Errorf("torus simulation unhealthy: %+v", pt)
	}
}

// TestTorusSweepDefaultBreakers pins that a sweep naming no breakers
// explores the dateline set on a torus instead of the mesh turn rules
// (which cannot break wraparound ring cycles).
func TestTorusSweepDefaultBreakers(t *testing.T) {
	r := &Runner{Workers: 4}
	results := runJobs(t, r, SweepJobs("figure", TorusSpec(4, 4), "transpose",
		[]string{"BSOR-Dijkstra", "XY"}, nil, []float64{2}, 0, fastParams()))
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	series := SeriesFrom(results)
	if len(series) != 2 {
		t.Fatalf("%d series, want 2", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 1 || s.Points[0].Deadlocked || s.Points[0].Throughput <= 0 {
			t.Errorf("%s on torus: %+v", s.Algorithm, s.Points)
		}
	}
}

// TestDefaultMILPRoutesDegenerateMasters pins three cells whose restricted
// master at DefaultMILP() (m ≈ 312, n ≈ 1 214) is degenerate enough that a
// simplex started from slacks and artificials spends 17-20 s in phase 1,
// stops at the iteration limit and reports the cell infeasible. Crashed
// from the start route set, each reaches its FastMILP() answer in seconds.
func TestDefaultMILPRoutesDegenerateMasters(t *testing.T) {
	if testing.Short() {
		t.Skip("three default-budget MILP selections")
	}
	faulted := TopoSpec{Kind: "faulted-mesh", Width: 8, Height: 8, Faults: 4, FaultSeed: 1}
	cells := []struct {
		topo              TopoSpec
		workload, breaker string
		mcl               float64
	}{
		{TorusSpec(8, 8), "shuffle", "dateline/E-first", 50},
		{TorusSpec(8, 8), "shuffle", "dateline/negative-first(WS)", 50},
		{faulted, "bit-complement", "updown-escape@63", 100},
	}
	var jobs []Job
	for _, c := range cells {
		jobs = append(jobs, Job{Experiment: "degenerate-masters", Kind: KindMCL, Topo: c.topo,
			Workload: c.workload, Algorithm: "BSOR-MILP", Breakers: []string{c.breaker}, VCs: 2})
	}
	for i, res := range runJobs(t, &Runner{}, jobs) {
		c := cells[i]
		if res.Err != "" || res.MCL != c.mcl {
			t.Errorf("%s %s under %s: MCL %g, error %q; want MCL %g", c.topo, c.workload, c.breaker, res.MCL, res.Err, c.mcl)
		}
	}
}

// TestExploreReportsCyclicCDG pins the core-level guard: a mesh turn
// rule applied to a torus is reported as a per-breaker error, not a
// panic or a silent MCL.
func TestExploreReportsCyclicCDG(t *testing.T) {
	jobs := TableJobs("cyclic", TorusSpec(4, 4), "BSOR-Dijkstra",
		TableBreakerNames()[:1], 2) // N-last cannot break torus rings
	for _, res := range runJobs(t, &Runner{Workers: 1}, jobs) {
		if res.Err == "" || res.MCL >= 0 {
			t.Errorf("%s: cyclic CDG not reported: mcl=%g err=%q",
				res.Job.Workload, res.MCL, res.Err)
		}
	}
}

// TestSmallSweepRace runs a mixed concurrent sweep purely for the race
// detector (CI runs this package under -race): table cells, figure
// points, and a variation point all share the cache and grids.
func TestSmallSweepRace(t *testing.T) {
	r := &Runner{Workers: 8}
	results := runJobs(t, r, detJobs())
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(detJobs()) {
		t.Fatalf("%d results for %d jobs", len(results), len(detJobs()))
	}
}

// TestBreakerRegistry pins name resolution for every standard and
// dateline breaker, plus the unknown-name error path.
func TestBreakerRegistry(t *testing.T) {
	for _, name := range append(TableBreakerNames(), DatelineBreakerNames()...) {
		b, err := BreakerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name {
			t.Errorf("BreakerByName(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := BreakerByName("no-such-breaker"); err == nil {
		t.Error("unknown breaker accepted")
	}
}

// TestUnknownJobFields verifies that bad workload/algorithm/topology
// names surface as per-job errors, not panics.
func TestUnknownJobFields(t *testing.T) {
	r := &Runner{Workers: 2}
	jobs := []Job{
		{Experiment: "bad", Kind: KindMCL, Workload: "no-such-workload", Algorithm: "XY", VCs: 2},
		{Experiment: "bad", Kind: KindMCL, Workload: "transpose", Algorithm: "no-such-algorithm", VCs: 2},
		{Experiment: "bad", Kind: KindMCL, Topo: TopoSpec{Kind: "hypercube"}, Workload: "transpose", Algorithm: "XY", VCs: 2},
	}
	for i, res := range runJobs(t, r, jobs) {
		if res.Err == "" {
			t.Errorf("job %d: expected an error result", i)
		}
		if res.MCL >= 0 {
			t.Errorf("job %d: MCL %g for a failed job", i, res.MCL)
		}
	}
}

// TestRunContextCancelMidSweep pins the cancellation contract at the
// engine level: a context cancelled while a multi-worker sweep is in
// flight stops the run within one job boundary, surfaces ctx.Err(), and
// leaves the jobs that never started as zero-value results. The cancel
// fires from the workload resolver on its third call; every job has its
// own demand and so its own synthesis, so it lands at the same job of
// the sweep on every run.
func TestRunContextCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	r := &Runner{Workers: 4, WorkloadFn: func(g topology.Topology, _ string, demand float64) ([]flowgraph.Flow, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		return WorkloadFlows(g, "transpose", demand)
	}}
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{Experiment: "cancel", Kind: KindSim, Topo: MeshSpec(4, 4), Workload: "probe",
			Algorithm: "XY", VCs: 2, Demand: float64(i + 1), Rate: 0.1, Warmup: 200, Measure: 1000, Seed: 1}
	}
	results, err := r.RunContext(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	started := 0
	for _, res := range results {
		if res.Job.Experiment != "" {
			started++
		}
	}
	if started < 3 || started == len(jobs) {
		t.Errorf("%d of %d jobs started; want the 3 that resolved the workload, and not all", started, len(jobs))
	}
	// The same Runner stays usable after a cancelled run: the synthesis
	// cache must not have recorded the cancellation.
	res, err := r.RunContext(context.Background(), jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != "" || res[0].Point == nil {
		t.Fatalf("post-cancel rerun failed: %s", res[0].Err)
	}
}

// TestSynthesizeOneArtifactPerKey pins the artifact contract behind every
// consumer: one key, one artifact, shared by pointer; a deterministic
// failure lives inside the artifact (with the exploration table that led
// to it) and is retained like a success; a cancellation is returned, not
// retained; and the artifact is published with its certificate, a refuted
// route set failing the synthesis unless only an explicit capacity is
// exceeded.
func TestSynthesizeOneArtifactPerKey(t *testing.T) {
	ctx := context.Background()
	r := &Runner{Metrics: metrics.New()}
	job := Job{Kind: KindMCL, Topo: MeshSpec(4, 4), Workload: "transpose",
		Algorithm: "BSOR-Dijkstra", Breakers: TableBreakerNames(), VCs: 2}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.Synthesize(cancelled, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Synthesize returned %v, want context.Canceled", err)
	}
	art, err := r.Synthesize(ctx, job)
	if err != nil || art.Err != nil {
		t.Fatalf("Synthesize after a cancelled attempt: %v / %v", err, art.Err)
	}
	if len(art.Explored) != 5 || art.Breaker == "" || art.MCL <= 0 || art.Set == nil {
		t.Fatalf("artifact incomplete: %d rows, breaker %q, MCL %g", len(art.Explored), art.Breaker, art.MCL)
	}
	again, _ := r.Synthesize(ctx, job)
	if again != art {
		t.Error("second Synthesize of the same key built a second artifact")
	}
	cert, err := art.Certificate()
	if err != nil || cert.MCL != art.MCL {
		t.Fatalf("Certificate: %v (cert %+v)", err, cert)
	}

	// Under-capacity: the routes stand, only their certificate is refused.
	tight := job
	tight.Capacity = art.MCL / 2
	tightArt, err := r.Synthesize(ctx, tight)
	if err != nil || tightArt.Err != nil {
		t.Fatalf("under-capacity synthesis failed outright: %v / %v", err, tightArt.Err)
	}
	var ce *certify.Counterexample
	if _, err := tightArt.Certificate(); !errors.As(err, &ce) || ce.Kind != certify.KindCapacity {
		t.Errorf("under-capacity Certificate returned %v, want a capacity counterexample", err)
	}

	// The two-phase baselines ride VC 1: at one VC the set is refuted, and
	// the counterexample is the artifact's failure with no flag set.
	invalid := Job{Kind: KindMCL, Topo: MeshSpec(4, 4), Workload: "transpose", Algorithm: "Valiant", VCs: 1}
	invalidArt, err := r.Synthesize(ctx, invalid)
	if err != nil || !errors.As(invalidArt.Err, &ce) || ce.Kind != certify.KindRoute {
		t.Fatalf("1-VC Valiant: %v / artifact error %v, want a route counterexample", err, invalidArt.Err)
	}
	if cert, err := invalidArt.Certificate(); cert != nil || err != invalidArt.Err {
		t.Errorf("rejected artifact's Certificate() = %v, %v, want nil and the artifact's error", cert, err)
	}

	// A mesh turn rule cannot break a torus: every breaker infeasible.
	bad := Job{Kind: KindMCL, Topo: TorusSpec(4, 4), Workload: "transpose",
		Algorithm: "BSOR-Dijkstra", Breakers: TableBreakerNames()[:1], VCs: 2}
	before := synthMisses(r)
	for range 2 {
		badArt, err := r.Synthesize(ctx, bad)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(badArt.Err, core.ErrInfeasible) || len(badArt.Explored) != 1 || badArt.Explored[0].Err == nil {
			t.Fatalf("infeasible artifact: err %v, rows %+v", badArt.Err, badArt.Explored)
		}
	}
	if got := synthMisses(r) - before; got != 1 {
		t.Errorf("infeasible key synthesized %d times, want 1 (deterministic failures are retained)", got)
	}
	if got := synthMisses(r); got != 5 {
		t.Errorf("%d syntheses, want 5 (cancelled, ok, tight, invalid, infeasible)", got)
	}
}

// TestRunnerHasNoSwitches: what a Runner computes for a job is not
// configurable by flag — in particular certification cannot be turned off.
func TestRunnerHasNoSwitches(t *testing.T) {
	typ := reflect.TypeOf(Runner{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() && f.Type.Kind() == reflect.Bool {
			t.Errorf("Runner.%s is an exported bool", f.Name)
		}
	}
}

// TestQueueDepthAdditive pins engine_queue_depth under overlapping sweeps
// on one Runner (the daemon's concurrent /v1/sim pipelines and churn
// runs): the gauge reads the sum of every call's outstanding units, a
// cancelled call gives back exactly the units it never fed, and one call
// returning leaves the other's count standing.
func TestQueueDepthAdditive(t *testing.T) {
	m := metrics.New()
	r := &Runner{Workers: 2, Metrics: m}
	depth := m.Gauge("engine_queue_depth")

	started := make(chan struct{}, 3+5) // one slot per unit, so no unit blocks announcing itself
	hold := func(release chan struct{}) func(int) {
		return func(int) {
			started <- struct{}{}
			<-release
		}
	}
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	retA, retB := make(chan error, 1), make(chan error, 1)
	go func() { retA <- r.each(context.Background(), 3, hold(releaseA)) }()
	go func() { retB <- r.each(ctxB, 5, hold(releaseB)) }()

	// Each call has two units in flight and its feeder blocked on the third.
	for range 4 {
		<-started
	}
	if got := depth.Value(); got != 8 {
		t.Fatalf("two overlapping calls of 3 and 5 units: gauge %d, want 8", got)
	}

	cancelB()
	close(releaseB)
	if err := <-retB; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call returned %v", err)
	}
	if got := depth.Value(); got != 3 {
		t.Errorf("after the cancelled call returned: gauge %d, want the other call's 3", got)
	}

	close(releaseA)
	if err := <-retA; err != nil {
		t.Errorf("uncancelled call returned %v", err)
	}
	if got := depth.Value(); got != 0 {
		t.Errorf("after both calls returned: gauge %d, want 0", got)
	}
}
