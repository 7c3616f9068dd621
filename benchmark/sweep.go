package main

import (
	"context"
	"fmt"

	"repro/bsor"
	"repro/internal/experiments"
)

// sweep: what cmd/experiments does, through the facade. One pipeline runs
// a figure-style sim sweep, a fault sweep and six Explore table rows on
// the host's workers, sharing each synthesis across its rates; then
// bsor.RunChurn runs the live-fault scenarios. It loads the experiments
// engine end to end — job scheduling, the synthesis memo, the simulator
// under job-level parallelism — and the simulator's churn entry points.

// sweepSpecs is the pipeline's spec list: 214 jobs at full scale.
func sweepSpecs(short bool) []bsor.Spec {
	mesh := bsor.Mesh(8, 8)
	workloads := []string{"transpose", "h264", "shuffle"}
	algorithms := []string{"BSOR-Dijkstra", "XY", "YX", "ROMM", "Valiant", "O1TURN"}
	rates := []float64{5, 15, 25, 35, 45, 60}
	faults := []int{0, 2, 4, 6}
	faultRates := []float64{10, 30}
	explore := experiments.WorkloadNames()
	sim := func(r []float64) *bsor.SimSpec {
		return &bsor.SimSpec{Rates: r, Warmup: 2000, Measure: 10000, Seed: 1}
	}
	if short {
		mesh = bsor.Mesh(4, 4)
		workloads, algorithms = []string{"transpose"}, []string{"BSOR-Dijkstra", "XY"}
		rates, faults, faultRates = []float64{10, 30}, []int{0, 2}, []float64{10}
		explore = []string{"transpose"}
		sim = func(r []float64) *bsor.SimSpec {
			return &bsor.SimSpec{Rates: r, Warmup: 100, Measure: 400, Seed: 1}
		}
	}
	var specs []bsor.Spec
	for _, w := range workloads {
		for _, a := range algorithms {
			specs = append(specs, bsor.Spec{Topo: mesh, Workload: w, Algorithm: a, Sim: sim(rates)})
		}
	}
	for _, f := range faults {
		for _, a := range []string{"BSOR-Dijkstra", "SP"} {
			specs = append(specs, bsor.Spec{
				Topo:     bsor.FaultedMesh(mesh.Width, mesh.Height, f, 1),
				Workload: "transpose", Algorithm: a, Sim: sim(faultRates)})
		}
	}
	for _, w := range explore {
		specs = append(specs, bsor.Spec{Topo: mesh, Workload: w, Algorithm: "BSOR-Dijkstra", Explore: true})
	}
	return specs
}

// churnSpecs are cmd/experiments' churn-16 and churn-smoke scenarios.
func churnSpecs(short bool) []bsor.ChurnSpec {
	if short {
		return []bsor.ChurnSpec{{Name: "drop", Topo: bsor.Mesh(4, 4), Workload: "rand-perm",
			Rate: 0.3, Seed: 11, Warmup: 500, Measure: 3000, Faults: 1, FaultSeed: 3, RecoveryWindow: 512}}
	}
	return []bsor.ChurnSpec{
		{Name: "churn-16", Topo: bsor.Mesh(16, 16), Workload: "transpose", Rate: 0.4, Seed: 11,
			Warmup: 4000, Measure: 40000, Faults: 4, FaultSeed: 7, FaultSpacing: 8192},
		{Name: "drop", Topo: bsor.Mesh(6, 6), Workload: "rand-perm", Rate: 0.3, Seed: 11,
			Faults: 2, FaultSeed: 3},
		{Name: "requeue", Topo: bsor.Mesh(6, 6), Workload: "rand-perm", Rate: 0.3, Seed: 11,
			Faults: 2, FaultSeed: 5, Requeue: true},
	}
}

type sweepInst struct {
	cfg   config
	specs []bsor.Spec
	churn []bsor.ChurnSpec
	// The collectors of the last traced pass.
	pipeMetrics, churnMetrics *bsor.Metrics
	churnEvents               int
}

func setupSweep(cfg config, tr *tracer) (instance, error) {
	s := &sweepInst{cfg: cfg, specs: sweepSpecs(cfg.short), churn: churnSpecs(cfg.short)}
	// Warm-up: the smoke-scale sweep once.
	warm := &sweepInst{cfg: cfg, specs: sweepSpecs(true), churn: churnSpecs(true)}
	warm.cfg.golden = nil // outputs unchecked: a full-scale run pins no smoke-scale keys
	if st := warm.pass(nil); st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", st.failed, st.attempted)
	}
	return s, nil
}

func (s *sweepInst) prepare() error { return nil } // each pass builds its own pipeline
func (s *sweepInst) close()         {}

func (s *sweepInst) pass(tr *tracer) passStats {
	ctx := context.Background()
	var st passStats
	pipeOpts := []bsor.Option{bsor.WithWorkers(s.cfg.clients)}
	churnOpts := []bsor.Option{bsor.WithWorkers(s.cfg.clients)}
	if tr != nil {
		s.pipeMetrics, s.churnMetrics = bsor.NewMetrics(), bsor.NewMetrics()
		pipeOpts = append(pipeOpts, bsor.WithMetrics(s.pipeMetrics))
		churnOpts = append(churnOpts, bsor.WithMetrics(s.churnMetrics))
	}
	prefix := s.cfg.scale() + "/sweep/"

	id := tr.begin("bsor.pipeline", noSpan, 0)
	p, err := bsor.NewPipeline(s.specs, pipeOpts...)
	var results []bsor.Result
	if err == nil {
		results, err = p.RunAll(ctx)
	}
	tr.end(id)
	if err != nil {
		logf("sweep pipeline: %v", err)
		return passStats{attempted: 1, failed: 1}
	}
	for i, res := range results {
		st.attempted++
		// A breaker that cannot route a flow is a legitimate n/a cell of
		// an Explore row (see bsor.FirstError); anything else failed.
		exploreCell := res.Point == nil && res.MCL < 0 && res.Breaker != ""
		if res.Err != nil && !exploreCell {
			logf("sweep job %d: %v", i, res.Err)
			st.failed++
			continue
		}
		if res.MCL > 0 {
			st.mclSum += res.MCL
		}
		if !s.cfg.golden.check(fmt.Sprintf("%sjob%03d", prefix, i), digest(res)) {
			st.failed++
		}
	}

	id = tr.begin("churn.run", noSpan, 1)
	churned, err := bsor.RunChurn(ctx, s.churn, churnOpts...)
	tr.end(id)
	if err != nil {
		logf("sweep churn: %v", err)
		st.attempted++
		st.failed++
		return st
	}
	s.churnEvents = 0
	for i, res := range churned {
		st.attempted++
		s.churnEvents += len(res.Events)
		if res.Err != nil {
			logf("sweep churn %s: %v", s.churn[i].Name, res.Err)
			st.failed++
			continue
		}
		st.mclSum += res.MCL
		if !s.cfg.golden.check(prefix+"churn-"+s.churn[i].Name, digest(res)) {
			st.failed++
		}
	}
	return st
}

func (s *sweepInst) inspect(tr *tracer, tracedFrom int, traced passStats, lm layers) passStats {
	spans := tr.snapshot()[tracedFrom:]
	pipeWalls := durationsOf(spans, "bsor.pipeline")
	lm["route.mcl_sum"] = traced.mclSum / float64(traced.passes)
	lm["churn.events"] = float64(s.churnEvents)

	m := s.pipeMetrics.Snapshot()
	lm["experiments.jobs"] = m["engine_jobs_total"]
	lm["experiments.job_s_sum"] = m["engine_job_seconds_seconds_total"]
	lm["experiments.synth_cache_hits"] = m["engine_synth_cache_hits_total"]
	lm["experiments.synth_cache_misses"] = m["engine_synth_cache_misses_total"]
	if wall := pipeWalls[len(pipeWalls)-1] / 1000; wall > 0 {
		lm["experiments.worker_util"] = lm["experiments.job_s_sum"] / (wall * float64(s.cfg.clients))
	}
	// The engine times sim.Run itself: its cycles/s gauge is cycles over
	// the summed wall time inside Run, across workers.
	lm["sim.cycles"] = m["sim_cycles_total"]
	lm["sim.cycles_per_s"] = m["sim_cycles_per_sec"]
	if rate := m["sim_cycles_per_sec"]; rate > 0 {
		lm["sim.run_ms"] = m["sim_cycles_total"] / rate * 1000
	}
	return passStats{}
}
