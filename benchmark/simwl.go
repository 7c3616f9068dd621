package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The two simulator workloads call sim.New + Run directly on prebuilt
// route sets, so the synthesis layers idle.
//
// sim-curve is the BENCH_sim.json curve (history stays comparable): mesh
// 16x16, transpose over XY, five offered rates from deep sub-saturation,
// where active-set scheduling decides the cost, to saturation, where the
// per-hop table lookup does; sequential core.
//
// sim-scale uses the simulator differently: a 64x64 mesh whose arena
// misses the cache, and a 32x256 folded Clos under shortest-path routes,
// with the table build (sim.New) inside the timed region. A 16x16 gain
// bought at 64x64's expense shows here.

// simDemand is the per-flow demand of the simulated workloads (only the
// ratios matter to the simulator).
const simDemand = 10

// fabric is a network with a route set to simulate.
type fabric struct {
	name   string
	topo   topology.Topology
	routes *route.Set
}

// simPoint is one op: one fabric simulated at one offered rate.
type simPoint struct {
	fabric          *fabric
	rate            float64
	warmup, measure int64
	// row is the per-layer cycles/s row this point feeds.
	row string
}

func (p simPoint) key() string { return fmt.Sprintf("%s/r%g", p.fabric.name, p.rate) }

func (p simPoint) config(workers int) sim.Config {
	return sim.Config{Mesh: p.fabric.topo, Routes: p.fabric.routes, VCs: 2,
		OfferedRate: p.rate, WarmupCycles: p.warmup, MeasureCycles: p.measure,
		Seed: 1, Workers: workers}
}

// buildFabric constructs a topology, its flows and its routes, with a
// span around each.
func buildFabric(tr *tracer, name string, build func() topology.Topology,
	flowsOf func(topology.Topology) ([]flowgraph.Flow, error), alg route.Algorithm) (*fabric, error) {

	id := tr.begin("topology.build", noSpan, 0)
	t := build()
	tr.end(id)
	id = tr.begin("traffic.flows", noSpan, 0)
	flows, err := flowsOf(t)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("route.baseline", noSpan, 0)
	set, err := alg.Routes(t, flows)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &fabric{name, t, set}, nil
}

func meshTransposeXY(tr *tracer, n int) (*fabric, error) {
	return buildFabric(tr, fmt.Sprintf("mesh%d", n),
		func() topology.Topology { return topology.NewMesh(n, n) },
		func(t topology.Topology) ([]flowgraph.Flow, error) { return traffic.Transpose(t, simDemand) },
		route.XY{})
}

func closRandPermSP(tr *tracer, spines, leaves int) (*fabric, error) {
	return buildFabric(tr, "clos",
		func() topology.Topology { return topology.NewFoldedClos(spines, leaves) },
		func(t topology.Topology) ([]flowgraph.Flow, error) { return traffic.RandomPermutation(t, simDemand, 1) },
		route.ShortestPath{VCs: 2})
}

type simInst struct {
	cfg      config
	workload string
	points   []simPoint
}

func setupSimCurve(cfg config, tr *tracer) (instance, error) {
	size, warmup, measure := 16, int64(2000), int64(10000)
	rates := []float64{2, 10, 20, 40, 60}
	if cfg.short {
		size, warmup, measure = 8, 100, 400
		rates = []float64{2, 40}
	}
	f, err := meshTransposeXY(tr, size)
	if err != nil {
		return nil, err
	}
	s := &simInst{cfg: cfg, workload: "sim-curve"}
	for _, r := range rates {
		s.points = append(s.points, simPoint{f, r, warmup, measure,
			fmt.Sprintf("sim.mesh16_r%g_cycles_per_s", r)})
	}
	// Warm-up: one unmeasured repetition of the curve.
	if st := s.pass(nil); st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d points failed", st.failed, st.attempted)
	}
	return s, nil
}

func setupSimScale(cfg config, tr *tracer) (instance, error) {
	meshSize, spines, leaves := 64, 32, 256
	meshCycles, closCycles := [2]int64{1000, 4000}, [2]int64{2000, 10000}
	if cfg.short {
		meshSize, spines, leaves = 16, 4, 8
		meshCycles, closCycles = [2]int64{100, 400}, [2]int64{100, 400}
	}
	mesh, err := meshTransposeXY(tr, meshSize)
	if err != nil {
		return nil, err
	}
	clos, err := closRandPermSP(tr, spines, leaves)
	if err != nil {
		return nil, err
	}
	s := &simInst{cfg: cfg, workload: "sim-scale", points: []simPoint{
		{mesh, 40, meshCycles[0], meshCycles[1], "sim.mesh64_cycles_per_s"},
		{clos, 10, closCycles[0], closCycles[1], "sim.clos_cycles_per_s"},
		{clos, 40, closCycles[0], closCycles[1], "sim.clos_cycles_per_s"},
	}}
	// Warm-up: each fabric for a few hundred cycles, which faults its
	// arena in; the op list itself takes several seconds a pass.
	for _, p := range []simPoint{s.points[0], s.points[1]} {
		p.warmup, p.measure = 100, 200
		if _, _, err := runPoint(nil, 0, p, 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runPoint simulates one point: table build, then the cycle loop.
func runPoint(tr *tracer, op int, p simPoint, workers int) (*sim.Result, time.Duration, error) {
	id := tr.begin("sim.new", noSpan, op)
	s, err := sim.New(p.config(workers))
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin("sim.run", noSpan, op)
	start := time.Now()
	res, err := s.Run()
	took := time.Since(start)
	tr.end(id)
	return res, took, err
}

func (s *simInst) prepare() error { return nil }
func (s *simInst) close()         {}

func (s *simInst) pass(tr *tracer) passStats {
	var st passStats
	for i, p := range s.points {
		st.attempted++
		res, took, err := runPoint(tr, i, p, 0)
		if err != nil || res.Deadlocked {
			logf("%s %s: err %v", s.workload, p.key(), err)
			st.failed++
			continue
		}
		st.simCycles += res.Cycles
		st.flitHops += res.FlitHops
		st.simSeconds += took.Seconds()
		// A simulator speed-up must leave every simulated statistic
		// identical: the digest covers the whole Result.
		if !s.cfg.golden.check(s.cfg.scale()+"/"+s.workload+"/"+p.key(), digest(res)) {
			st.failed++
		}
	}
	return st
}

func (s *simInst) inspect(tr *tracer, tracedFrom int, traced passStats, lm layers) passStats {
	var st passStats
	spans := tr.snapshot()[tracedFrom:]
	passes := float64(traced.passes)
	lm["sim.cycles"] = float64(traced.simCycles) / passes
	lm["sim.flit_hops"] = float64(traced.flitHops) / passes
	lm["sim.cycles_per_s"] = float64(traced.simCycles) / traced.simSeconds
	lm["sim.flit_hops_per_s"] = float64(traced.flitHops) / traced.simSeconds

	// Per-row speeds: simulated cycles over host seconds inside Run.
	rowCycles, rowSeconds := map[string]float64{}, map[string]float64{}
	for _, sp := range spans {
		if sp.Name == "sim.run" {
			p := s.points[sp.Op]
			rowCycles[p.row] += float64(p.warmup + p.measure)
			rowSeconds[p.row] += sp.dur().Seconds()
		}
	}
	for row, cycles := range rowCycles {
		lm[row] = cycles / rowSeconds[row]
	}

	// Replay: the same points once more with the allocator watched
	// around Run alone, which the timed passes must not pay for.
	var bytes, mallocs, cycles float64
	for i, p := range s.points {
		st.attempted++
		sm, err := sim.New(p.config(0))
		if err != nil {
			st.failed++
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id := tr.begin("op.sim_alloc", noSpan, i)
		res, err := sm.Run()
		tr.end(id)
		runtime.ReadMemStats(&after)
		if err != nil {
			st.failed++
			continue
		}
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
		mallocs += float64(after.Mallocs - before.Mallocs)
		cycles += float64(res.Cycles)
	}
	if cycles > 0 {
		lm["sim.alloc_bytes_per_cycle"] = bytes / cycles
		lm["sim.mallocs_per_kcycle"] = mallocs / cycles * 1000
	}

	// The parallel cycle loop's keep-or-delete row: the 64x64 point with
	// one worker per host CPU, read against sim.mesh64_cycles_per_s.
	if s.workload == "sim-scale" {
		st.attempted++
		p := s.points[0]
		res, took, err := runPoint(nil, 0, p, runtime.NumCPU())
		switch {
		case err != nil:
			st.failed++
		case !s.cfg.golden.check(s.cfg.scale()+"/"+s.workload+"/"+p.key(), digest(res)):
			st.failed++ // byte-identical at any worker count
		default:
			lm["sim.mesh64_wmax_cycles_per_s"] = float64(res.Cycles) / took.Seconds()
		}
	}
	return st
}
