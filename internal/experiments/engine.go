package experiments

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdg"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// JobKind classifies what a Job measures.
type JobKind string

// The two job kinds: KindMCL jobs stop after route synthesis and report
// the maximum channel load; KindSim jobs additionally run the
// cycle-accurate simulator at one offered-rate point.
const (
	KindMCL JobKind = "mcl"
	KindSim JobKind = "sim"
)

// Job is one point of an experiment sweep: a workload routed by one
// algorithm on one topology, optionally simulated at one offered-rate
// point. Jobs are plain data — they name their topology, workload,
// algorithm, and CDG breakers rather than holding the objects — so a job
// list can be printed, filtered, diffed, and re-run (cmd/experiments
// -jobs / -json / -filter).
type Job struct {
	// Experiment tags the job with the table or figure it belongs to
	// (e.g. "table6.2", "fig6-1").
	Experiment string `json:"experiment"`
	// Kind selects MCL-only or simulated execution.
	Kind JobKind `json:"kind"`
	// Topo declares the network.
	Topo TopoSpec `json:"topo"`
	// Workload names one of the six evaluation workloads.
	Workload string `json:"workload"`
	// Algorithm names the routing algorithm (see AlgorithmNames).
	Algorithm string `json:"algorithm"`
	// Breakers lists the acyclic-CDG strategies a BSOR algorithm explores,
	// by name. Empty means the topology's default set
	// (DefaultBreakerNames). Baselines ignore it.
	Breakers []string `json:"breakers,omitempty"`
	// VCs is the virtual channel count for synthesis and simulation.
	VCs int `json:"vcs"`
	// Demand overrides the per-flow bandwidth (MB/s) of a synthetic
	// workload; 0 means DefaultDemand. The profiled applications carry
	// fixed published rates and ignore it.
	Demand float64 `json:"demand,omitempty"`
	// Capacity overrides the channel capacity (MB/s) a BSOR synthesis
	// prices residual bandwidth against; 0 means the core default of 4x
	// the largest flow demand. Baselines ignore it.
	Capacity float64 `json:"capacity,omitempty"`
	// Rate is the offered injection rate (packets/cycle) of a KindSim job.
	Rate float64 `json:"rate,omitempty"`
	// Variation enables the ±percent Markov-modulated bandwidth variation
	// of §5.3 for a KindSim job (0.10, 0.25, 0.50 in the thesis).
	Variation float64 `json:"variation,omitempty"`
	// Warmup and Measure are the simulated cycle counts of a KindSim job.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// Seed is the base random seed. The simulator seed is derived as
	// Seed + int64(Rate*1000) — the same per-point derivation the
	// sequential generators used — so results are identical no matter how
	// jobs are scheduled across workers.
	Seed int64 `json:"seed"`
}

// synthKey identifies the route-synthesis work a job needs; jobs sharing
// a key share one cached synthesis. Demand and capacity overrides extend
// the key only when set, so default-jobs keep their pre-override keys.
func (j Job) synthKey() string {
	key := j.Topo.String() + "|" + j.Workload + "|" + j.Algorithm + "|" + fmt.Sprint(j.VCs)
	for _, b := range j.Breakers {
		key += "|" + b
	}
	if j.Demand != 0 {
		key += "|d=" + fmt.Sprint(j.Demand)
	}
	if j.Capacity != 0 {
		key += "|cap=" + fmt.Sprint(j.Capacity)
	}
	return key
}

// Result is the outcome of one Job. Results carry only deterministic
// values (no timestamps or durations), so a result list marshals to
// byte-identical JSON regardless of worker count.
type Result struct {
	// Job echoes the job that produced this result.
	Job Job `json:"job"`
	// MCL is the maximum channel load of the synthesized route set, in the
	// demand unit (MB/s); -1 when synthesis failed.
	MCL float64 `json:"mcl"`
	// AvgHops is the mean route length of the synthesized set.
	AvgHops float64 `json:"avg_hops,omitempty"`
	// Breaker names the acyclic CDG behind the chosen route set (the
	// winning one when several were explored).
	Breaker string `json:"breaker,omitempty"`
	// Point holds the simulation sample of a KindSim job.
	Point *SweepPoint `json:"point,omitempty"`
	// Err describes why the job produced no measurement (e.g. an ad hoc
	// CDG disconnected a flow). A string, so results marshal
	// deterministically; Cause retains the typed error.
	Err string `json:"err,omitempty"`
	// cause is the typed error behind Err, for errors.Is/As at API
	// boundaries. Never marshaled; nil after a JSON round trip.
	cause error
}

// Cause returns the typed error behind Result.Err, or nil for a
// successful job. Results decoded from JSON lose the typed value and
// return nil; callers holding such results fall back to the Err string.
func (r Result) Cause() error { return r.cause }

// WriteJSON writes a result, job or churn-result list as indented JSON
// (cmd/experiments -json and -jobs); a nil list is written as []. The
// output is deterministic: same jobs and seeds produce byte-identical
// bytes however many workers executed them.
func WriteJSON[T Result | Job | ChurnResult](w io.Writer, list []T) error {
	if list == nil {
		list = []T{} // marshal as [], not null
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(list)
}

// Artifact is the one certified outcome of a job's route synthesis: what
// every consumer — job results, the façade's Synthesize / Explore / Verify,
// the daemon's four endpoints — renders. Artifacts are immutable once
// returned by Runner.Synthesize and shared by every caller of their key.
type Artifact struct {
	// Job is the synthesis part of the job that produced the artifact
	// (its rate, seed and other rendering fields are whichever caller
	// came first); Topo is its built network.
	Job  Job
	Topo topology.Topology
	// Set is the selected route set with its figures of merit; Breaker
	// names the winning acyclic CDG ("" for baselines, which explore none).
	Set          *route.Set
	MCL, AvgHops float64
	Breaker      string
	// Explored is the per-breaker table of a BSOR synthesis, in breaker
	// order; nil for baselines. Rows only: their route sets are dropped.
	Explored []core.Explored
	// Err is a deterministic synthesis failure (a workload that does not
	// fit the topology, every breaker infeasible, a route set the
	// certificate checker refutes, a captured panic). It is part of the
	// artifact — and memoized with it — so the exploration table of an
	// infeasible or rejected spec still renders; Set, MCL, AvgHops and
	// Breaker are meaningless when it is set. Cancellations are never
	// stored here.
	Err error

	// cert is the certificate synthesize issued for Set. A valid,
	// deadlock-free Set whose load exceeds the job's explicit Capacity
	// stands without one: certErr is then the capacity counterexample.
	cert    *certify.Certificate
	certErr error
}

// Certificate returns the independent deadlock-freedom certificate of the
// artifact's route set (loads checked against the job's Capacity when
// set), or the failure that withheld it.
func (a *Artifact) Certificate() (*certify.Certificate, error) {
	if a.Err != nil {
		return nil, a.Err
	}
	return a.cert, a.certErr
}

// Memo bounds. Eviction only ever costs a recomputation; the bounds keep
// a long-lived Runner (the daemon's) from growing without limit.
const (
	artifactMemoEntries = 1024
	topoMemoEntries     = 64
)

// Runner executes job lists on a worker pool. The zero value is ready to
// use; a Runner may execute any number of RunContext and Synthesize calls
// and shares its artifact memo across all of them, so e.g. the table jobs
// warm it for the figure sweeps. All exported fields must be set before
// the first call.
type Runner struct {
	// Workers is the worker-pool size; 0 means runtime.NumCPU().
	Workers int
	// MILP is the selector behind "BSOR-MILP" jobs; nil means DefaultMILP.
	MILP route.Selector
	// WorkloadFn, when non-nil, resolves workload names the built-in set
	// does not know (WorkloadFlows returned *UnknownWorkloadError). The
	// public façade installs its workload registry here so jobs can name
	// caller-defined flow sets.
	WorkloadFn func(t topology.Topology, name string, demand float64) ([]flowgraph.Flow, error)
	// Metrics, when non-nil, receives out-of-band instruments from the
	// whole stack: engine job/cache/queue counters, the LP core's
	// pivot/refactorization/node counters (selectors are instrumented on
	// resolve), sim cycle counters, and churn counters. Metrics never
	// influence scheduling or results — golden JSON stays byte-identical
	// with metrics on or off at any worker count (pinned by tests).
	Metrics *metrics.Collector

	// instOnce guards the one-time registration of derived gauges
	// (sim_cycles_per_sec) on Metrics.
	instOnce sync.Once

	// Artifacts are memoized per Job.synthKey and built topologies per
	// TopoSpec.String, so concurrent jobs share one synthesis and one
	// immutable network. memos allocates both on first use.
	memoOnce sync.Once
	arts     *memo.Memo[*Artifact]
	topos    *memo.Memo[topology.Topology]

	// Aggregate simulation-work counters (SimStats): simulated cycles,
	// flit hops, and wall time spent inside sim.Run across all jobs.
	// Reporting only — results stay free of timing so JSON output is
	// deterministic.
	simCycles   atomic.Int64
	simFlitHops atomic.Int64
	simWallNs   atomic.Int64
}

// Selector aliases the route-selection interface so engine clients (the
// cmd tools) can hold selector values without importing internal/route.
type Selector = route.Selector

// DefaultMILP is the MILP budget used when Runner.MILP is nil: the
// published-quality setting of cmd/experiments.
func DefaultMILP() route.MILPSelector {
	return route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 16, MaxNodes: 120, Gap: 0.01}
}

// DefaultHeuristic is the greedy approximation behind "BSOR-Heuristic"
// jobs: the synthesis-scale setting behind the 16x16 scenarios.
func DefaultHeuristic() route.BSORHeuristic {
	return route.BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 32}
}

// FastMILP is the reduced branch-and-bound budget of cmd/experiments
// -fast: enough to smoke-test every MILP code path in seconds, not enough
// to reproduce the published MCL values.
func FastMILP() route.MILPSelector {
	return route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 8, MaxNodes: 40, Gap: 0.01}
}

// SimStats reports the aggregate cycle-accurate simulation work done by
// this Runner: total simulated cycles, total flit hops, and the summed
// wall time spent inside sim.Run (across workers, so it can exceed real
// elapsed time). cmd/experiments prints the derived cycles/sec after a
// sweep; the numbers never enter Results, which stay deterministic.
func (r *Runner) SimStats() (cycles, flitHops int64, wall time.Duration) {
	return r.simCycles.Load(), r.simFlitHops.Load(), time.Duration(r.simWallNs.Load())
}

// bindMetrics registers the Runner's derived gauges on Metrics, once.
// Called from each, which every sweep entry point runs on, so a Runner
// configured after construction still binds.
func (r *Runner) bindMetrics() {
	if r.Metrics == nil {
		return
	}
	r.instOnce.Do(func() {
		r.Metrics.GaugeFunc("sim_cycles_per_sec", func() float64 {
			cycles, _, wall := r.SimStats()
			if wall <= 0 {
				return 0
			}
			return float64(cycles) / wall.Seconds()
		})
	})
}

// RunContext executes jobs on the worker pool and returns one Result per
// job, in job order — the ordering is independent of scheduling and
// completion order, and every random stream is derived from the job
// itself, so a run's numbers never depend on the worker count. Each
// worker writes only the result slots of the jobs it runs.
//
// Once ctx is done no further job starts, the in-flight jobs return at
// their next internal poll point (synthesis enumeration, branch and
// bound, the sim cycle loop), and the call returns ctx.Err(). Results of
// jobs that never ran are zero values (empty Job); completed jobs keep
// their results, so a cancelled sweep is a prefix sample, not garbage.
func (r *Runner) RunContext(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	err := r.each(ctx, len(jobs), func(i int) { results[i] = r.exec(ctx, jobs[i]) })
	return results, err
}

// each calls do(i) for every i in [0, n) on the Runner's worker pool —
// the one scheduling loop behind job sweeps and churn runs. Once ctx is
// done no further index is fed; calls already in flight finish. Returns
// ctx.Err().
func (r *Runner) each(ctx context.Context, n int, do func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	r.bindMetrics()
	// queueDepth tracks units not yet completed (queued + in flight),
	// summed over every sweep running on this Runner's collector: each
	// call adds its own n, takes one off per completed unit, and a
	// cancelled call gives back the units it never fed.
	queueDepth := r.Metrics.Gauge("engine_queue_depth")
	queueDepth.Add(int64(n))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
				queueDepth.Add(-1)
			}
		}()
	}
	fed := 0
feed:
	for ; fed < n && ctx.Err() == nil; fed++ {
		select {
		case idx <- fed:
		case <-ctx.Done():
			break feed
		}
	}
	queueDepth.Add(int64(fed - n))
	close(idx)
	wg.Wait()
	return ctx.Err()
}

// memos allocates the Runner's two memo instances on first use (the zero
// Runner is ready to use) and returns the Runner for chaining.
func (r *Runner) memos() *Runner {
	r.memoOnce.Do(func() {
		r.arts = memo.New[*Artifact](artifactMemoEntries)
		r.topos = memo.New[topology.Topology](topoMemoEntries)
	})
	return r
}

// topo returns the (memoized) topology instance of a spec, so concurrent
// jobs on the same topology share one immutable network.
func (r *Runner) topo(ctx context.Context, spec TopoSpec) (topology.Topology, error) {
	g, _, err := r.memos().topos.Do(ctx, spec.String(), spec.Build)
	return g, err
}

// Synthesize returns the job's synthesis artifact — the one path from a
// job to a route set. The artifact is computed at most once per
// Job.synthKey (the expensive BSOR exploration runs once per unique
// topology, workload, algorithm, VCs, breakers combination) and shared,
// concurrently, by every caller that needs it: the first computes, the
// others wait on that entry or leave on their own ctx. Deterministic
// failures come back inside the artifact (Artifact.Err) and are retained
// like successes; the returned error is only ever a cancellation, which
// is never retained — a waiter whose own ctx is still live recomputes.
func (r *Runner) Synthesize(ctx context.Context, j Job) (*Artifact, error) {
	art, computed, err := r.memos().arts.Do(ctx, j.synthKey(), func() (*Artifact, error) {
		art := &Artifact{Job: j}
		if art.Err = r.synthesize(ctx, art); memo.Cancelled(art.Err) {
			return nil, art.Err
		}
		return art, nil
	})
	// Waiters served an in-flight or finished entry count as hits.
	if computed {
		r.Metrics.Counter("engine_synth_cache_misses_total").Inc()
	} else {
		r.Metrics.Counter("engine_synth_cache_hits_total").Inc()
	}
	return art, err
}

// synthesize fills in a fresh artifact — routes, figures of merit and, as
// its last step, the certificate — and returns its failure, if any. Panics
// from incompatible job parameters are converted into errors here, so the
// memoized artifact records the failure instead of a half-built value and
// no caller's goroutine dies.
func (r *Runner) synthesize(ctx context.Context, art *Artifact) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: synthesis panic: %v", p)
		}
	}()
	j := art.Job
	if art.Topo, err = r.topo(ctx, j.Topo); err != nil {
		return err
	}
	flows, err := r.workloadFlows(art.Topo, j)
	if err != nil {
		return err
	}
	alg, err := r.ResolveAlgorithm(j)
	if err != nil {
		return err
	}
	if bsor, ok := alg.(core.BSOR); ok {
		explored, err := core.ExploreContext(ctx, art.Topo, flows, bsor.Config)
		if err != nil {
			return err
		}
		best, err := core.Winner(explored, flows, bsor.Config)
		for i := range explored {
			explored[i].Set = nil // best holds the one set worth keeping
		}
		art.Explored = explored
		if err != nil {
			return err
		}
		art.Set, art.Breaker = best.Set, best.Breaker
	} else if art.Set, err = route.RoutesWithContext(ctx, alg, art.Topo, flows); err != nil {
		return err
	}
	art.MCL, _ = art.Set.MCL()
	art.AvgHops = art.Set.AvgHops()
	art.cert, err = certifySet(art.Topo, j, art.Set, art.Breaker)
	var ce *certify.Counterexample
	if errors.As(err, &ce) && ce.Kind == certify.KindCapacity {
		// The set is valid and deadlock-free (Certify checks loads last);
		// it only overshoots the capacity the job asked it to be priced
		// against. The routes stand, only their certificate is refused.
		art.certErr, err = err, nil
	}
	return err
}

// exec runs one job end to end. Panics outside synthesis (the simulator
// rejecting job parameters) are captured as per-job error results so one
// bad job cannot take down a sweep.
func (r *Runner) exec(ctx context.Context, j Job) (res Result) {
	// Registered before the recover defer so it runs after it (LIFO) and
	// sees the panic-patched result.
	start := time.Now()
	defer func() {
		r.Metrics.Counter("engine_jobs_total").Inc()
		if res.Err != "" {
			r.Metrics.Counter("engine_job_errors_total").Inc()
		}
		r.Metrics.Timer("engine_job_seconds").Observe(time.Since(start))
	}()
	defer func() {
		if p := recover(); p != nil {
			res = Result{Job: j, MCL: -1, Err: fmt.Sprint(p), cause: fmt.Errorf("experiments: %v", p)}
		}
	}()
	res = Result{Job: j, MCL: -1}
	fail := func(err error) Result {
		res.Err = err.Error()
		res.cause = err
		return res
	}
	art, err := r.Synthesize(ctx, j)
	if err == nil {
		err = art.Err
	}
	if err != nil {
		return fail(err)
	}
	res.MCL, res.AvgHops, res.Breaker = art.MCL, art.AvgHops, art.Breaker
	if j.Kind != KindSim {
		return res
	}
	point, err := r.simulate(ctx, art.Topo, art.Set, j)
	if err != nil {
		return fail(err)
	}
	res.Point = point
	return res
}

// workloadFlows resolves a job's workload: the built-in set first, then
// the WorkloadFn hook for names the built-ins do not know.
func (r *Runner) workloadFlows(g topology.Topology, j Job) ([]flowgraph.Flow, error) {
	flows, err := WorkloadFlows(g, j.Workload, j.Demand)
	var unknown *UnknownWorkloadError
	if err != nil && errors.As(err, &unknown) && r.WorkloadFn != nil {
		return r.WorkloadFn(g, j.Workload, j.Demand)
	}
	return flows, err
}

// certifySet issues the independent certificate of a synthesized route
// set: the claimed CDG is rebuilt from the winning breaker's name
// (baselines, which select no CDG, are certified on their
// used-dependence graph alone) and the whole instance re-proved.
func certifySet(g topology.Topology, j Job, set *route.Set, breaker string) (*certify.Certificate, error) {
	vcs := j.VCs
	if vcs < 1 {
		vcs = 1
	}
	in := certify.Instance{Topo: g, Routes: set, VCs: vcs, Capacity: j.Capacity}
	if breaker != "" {
		b, err := BreakerByName(breaker)
		if err != nil {
			return nil, fmt.Errorf("experiments: cannot rebuild CDG for certification: %w", err)
		}
		in.CDG = b.Break(cdg.NewFull(g, vcs))
	}
	cert, err := certify.Issue(in)
	if err != nil {
		return nil, fmt.Errorf("experiments: independent certification rejected the %s route set: %w", j.synthKey(), err)
	}
	return cert, nil
}

// algorithm is one row of the algorithm vocabulary, in the order
// AlgorithmNames lists them. bsor marks the variants that explore a
// breaker list: ResolveAlgorithm wraps their selector in a core.BSOR and
// takes every other row's baseline as is. dynamicVC marks the routes that
// are simulated with dynamic VC allocation — DOR routes are deadlock free
// under arbitrary VC mixing, while the two-phase and BSOR route sets rely
// on their static VC assignment (§4.2.2).
type algorithm struct {
	name            string
	bsor, dynamicVC bool
	selector        func(*Runner) route.Selector
	baseline        func(Job) route.Algorithm
}

var algorithms = []algorithm{
	{name: "BSOR-Dijkstra", bsor: true, selector: func(*Runner) route.Selector { return route.DijkstraSelector{} }},
	{name: "BSOR-MILP", bsor: true, selector: func(r *Runner) route.Selector { return cmp.Or(r.MILP, route.Selector(DefaultMILP())) }},
	{name: "BSOR-Heuristic", bsor: true, selector: func(*Runner) route.Selector { return DefaultHeuristic() }},
	{name: "XY", dynamicVC: true, baseline: func(Job) route.Algorithm { return route.XY{} }},
	{name: "YX", dynamicVC: true, baseline: func(Job) route.Algorithm { return route.YX{} }},
	{name: "ROMM", baseline: func(Job) route.Algorithm { return route.ROMM{Seed: 1} }},
	{name: "Valiant", baseline: func(Job) route.Algorithm { return route.Valiant{Seed: 1} }},
	{name: "O1TURN", baseline: func(Job) route.Algorithm { return route.O1TURN{Seed: 1} }},
	{name: "SP", baseline: func(j Job) route.Algorithm { return route.ShortestPath{VCs: j.VCs} }},
}

// algorithmOf looks an algorithm up by its canonical name; unknown names
// get the zero row.
func algorithmOf(name string) algorithm {
	for _, a := range algorithms {
		if a.name == name {
			return a
		}
	}
	return algorithm{}
}

// AlgorithmNames lists the routing algorithms a job may name: the BSOR
// variants (which explore acyclic CDGs and take a breaker list), the
// grid-only oblivious baselines, and the graph-generic shortest path
// (deterministic, over an up*/down*-broken CDG).
func AlgorithmNames() []string {
	return namesOf(algorithms, func(a algorithm) string { return a.name })
}

// CanonicalAlgorithm resolves an algorithm name, in any letter case, to the
// table's spelling of it.
func CanonicalAlgorithm(name string) (string, bool) {
	for _, a := range algorithms {
		if strings.EqualFold(a.name, name) {
			return a.name, true
		}
	}
	return "", false
}

// IsBSOR reports whether a canonical algorithm name is a BSOR variant
// (and thus takes a breaker list).
func IsBSOR(name string) bool { return algorithmOf(name).bsor }

// ResolveAlgorithm resolves a job's algorithm name to a runnable
// route.Algorithm, honoring the Runner's selector overrides and the job's
// breaker, VC, and capacity settings. Unknown names yield an
// *UnknownAlgorithmError.
func (r *Runner) ResolveAlgorithm(j Job) (route.Algorithm, error) {
	a := algorithmOf(j.Algorithm)
	if a.name == "" {
		return nil, &UnknownAlgorithmError{Name: j.Algorithm}
	}
	if !a.bsor {
		return a.baseline(j), nil
	}
	breakers, err := ResolveBreakers(j)
	if err != nil {
		return nil, err
	}
	return core.BSOR{Label: j.Algorithm, Config: core.Config{
		VCs: j.VCs, Selector: route.InstrumentSelector(a.selector(r), r.Metrics), Breakers: breakers,
		ChannelCapacity: j.Capacity,
	}}, nil
}

// simulate runs the cycle-accurate simulator for one KindSim job.
func (r *Runner) simulate(ctx context.Context, g topology.Topology, set *route.Set, j Job) (*SweepPoint, error) {
	var variation func(flow int) float64
	if j.Variation > 0 {
		mmps := make([]*traffic.MMP, len(set.Routes))
		for i, rt := range set.Routes {
			mmps[i] = traffic.NewMMP(rt.Flow.Demand, j.Variation, 500, j.Seed+int64(i))
		}
		variation = func(flow int) float64 { return mmps[flow].Advance() }
	}
	s, err := sim.New(sim.Config{
		Mesh: g, Routes: set, VCs: j.VCs,
		DynamicVC:     algorithmOf(j.Algorithm).dynamicVC,
		OfferedRate:   j.Rate,
		WarmupCycles:  j.Warmup,
		MeasureCycles: j.Measure,
		Seed:          j.Seed + int64(j.Rate*1000),
		RateVariation: variation,
		Metrics:       r.Metrics,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	r.simWallNs.Add(int64(time.Since(start)))
	r.simCycles.Add(res.Cycles)
	r.simFlitHops.Add(res.FlitHops)
	return &SweepPoint{
		Offered: j.Rate, Throughput: res.Throughput,
		AvgLatency: res.AvgLatency, AvgTotalLatency: res.AvgTotalLatency,
		LatencyStd: res.LatencyStd, LatencyP99: res.LatencyP99,
		Injected: res.PacketsInjected, Delivered: res.PacketsDelivered,
		Deadlocked: res.Deadlocked,
	}, nil
}

// breaker registry ------------------------------------------------------

var breakerRegistry = sync.OnceValue(func() map[string]cdg.Breaker {
	reg := make(map[string]cdg.Breaker)
	for _, b := range cdg.StandardBreakers() {
		reg[b.Name()] = b
	}
	for _, rule := range cdg.TwelveTurnRules() {
		b := cdg.DatelineBreaker{Rule: rule}
		reg[b.Name()] = b
	}
	return reg
})

// BreakerByName resolves an acyclic-CDG strategy name (as reported by
// Breaker.Name) to its implementation: the standard fifteen mesh breakers,
// the twelve dateline rules for tori, and the parametric graph-generic
// families "updown@<root>" and "updown-escape@<root>" for arbitrary
// topologies.
func BreakerByName(name string) (cdg.Breaker, error) {
	if b, ok := breakerRegistry()[name]; ok {
		return b, nil
	}
	if root, ok := parseRoot(name, "updown@"); ok {
		return cdg.UpDownBreaker{Root: root}, nil
	}
	if root, ok := parseRoot(name, "updown-escape@"); ok {
		return cdg.UpDownEscapeBreaker{Root: root}, nil
	}
	return nil, fmt.Errorf("experiments: unknown breaker %q", name)
}

// parseRoot extracts the non-negative root node id of a parametric
// graph-breaker name.
func parseRoot(name, prefix string) (topology.NodeID, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	root, err := strconv.Atoi(name[len(prefix):])
	if err != nil || root < 0 {
		return 0, false
	}
	return topology.NodeID(root), true
}

// GraphBreakerNames returns the names of the default graph-generic breaker
// exploration set (cdg.GraphBreakers) for a topology with numNodes nodes.
func GraphBreakerNames(numNodes int) []string {
	return BreakerNames(cdg.GraphBreakers(numNodes))
}

// BreakerNames returns the names of a breaker list, for building jobs.
func BreakerNames(bs []cdg.Breaker) []string {
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name()
	}
	return names
}

// DatelineBreakerNames returns the names of the twelve dateline breakers
// (one per systematic turn rule) that make torus CDGs acyclic.
func DatelineBreakerNames() []string {
	rules := cdg.TwelveTurnRules()
	names := make([]string, len(rules))
	for i, rule := range rules {
		names[i] = cdg.DatelineBreaker{Rule: rule}.Name()
	}
	return names
}

// ResolveBreakers maps a job's breaker names to implementations; an empty
// list selects the topology's default set (DefaultBreakerNames).
func ResolveBreakers(j Job) ([]cdg.Breaker, error) {
	names := j.Breakers
	if len(names) == 0 {
		names = DefaultBreakerNames(j.Topo)
	}
	bs := make([]cdg.Breaker, len(names))
	for i, n := range names {
		b, err := BreakerByName(n)
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}
