package experiments

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/churn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ChurnSpec declares one online-resilience run: a workload simulated on a
// topology while a seeded fault schedule kills links live, with the
// supervisor degrading broken flows onto the up*/down* escape layer and
// committing a re-synthesized route set a recovery window later
// (DESIGN.md §13). Every field is plain data; the run is a deterministic
// function of the spec (byte-identical metrics JSON across repeats and
// worker counts).
type ChurnSpec struct {
	// Name labels the run in reports (e.g. "churn-smoke").
	Name string `json:"name,omitempty"`
	// Topo declares the network; zero value means the thesis' 8x8 mesh.
	Topo TopoSpec `json:"topo"`
	// Workload names the flow set (see WorkloadFlows); Demand scales it.
	Workload string  `json:"workload"`
	Demand   float64 `json:"demand,omitempty"`
	// VCs is the virtual channel count (default 2).
	VCs int `json:"vcs,omitempty"`
	// Rate is the offered injection rate in packets/node/cycle.
	Rate float64 `json:"rate"`
	// Warmup precedes measurement; Measure is the measured window
	// (defaults 4000 / 20000 — churn runs sample recovery, not the long
	// steady-state sweeps).
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// Seed is the simulation seed (per-rate seeds derive from it).
	Seed int64 `json:"seed,omitempty"`

	// Faults is how many bidirectional links fail, one per event; the
	// schedule is drawn by FaultSeed, starts at FaultStart (default
	// Warmup + RecoveryWindow), and spaces events FaultSpacing cycles
	// apart (default 4x RecoveryWindow).
	Faults       int   `json:"faults"`
	FaultSeed    int64 `json:"fault_seed,omitempty"`
	FaultStart   int64 `json:"fault_start,omitempty"`
	FaultSpacing int64 `json:"fault_spacing,omitempty"`
	// RecoveryWindow is the cycle count between a fault barrier and its
	// commit barrier (default 2048).
	RecoveryWindow int64 `json:"recovery_window,omitempty"`
	// Requeue re-injects purged in-flight packets at their sources
	// instead of dropping them.
	Requeue bool `json:"requeue,omitempty"`

	// Resynth picks the background repair solver: "heuristic" (default)
	// is BSORHeuristic with a wider fallback; "milp" is the default-budget
	// MILP, falling back to the heuristic. Either solves each degraded
	// graph from scratch.
	Resynth string `json:"resynth,omitempty"`
}

func (c ChurnSpec) withDefaults() ChurnSpec {
	if c.VCs == 0 {
		c.VCs = 2
	}
	if c.Warmup == 0 {
		c.Warmup = 4000
	}
	if c.Measure == 0 {
		c.Measure = 20000
	}
	if c.RecoveryWindow == 0 {
		c.RecoveryWindow = 2048
	}
	if c.FaultStart == 0 {
		c.FaultStart = c.Warmup + c.RecoveryWindow
	}
	if c.FaultSpacing == 0 {
		c.FaultSpacing = 4 * c.RecoveryWindow
	}
	if c.Resynth == "" {
		c.Resynth = "heuristic"
	}
	return c
}

// ChurnResult is the outcome of one ChurnSpec: the initial route set's
// MCL, the drawn schedule, the aggregate simulation point, and one report
// per fault event. Failed specs carry Err (and a typed cause via Cause)
// with everything else zero.
type ChurnResult struct {
	// Spec echoes the spec (with defaults applied) that produced this.
	Spec ChurnSpec `json:"spec"`
	// MCL is the maximum channel load of the initial route set.
	MCL float64 `json:"mcl"`
	// Schedule is the drawn fault schedule.
	Schedule []churn.Event `json:"schedule,omitempty"`
	// Point aggregates the run; its churn fields (drops, worst recovery
	// time, worst throughput dip) summarize Events.
	Point *SweepPoint `json:"point,omitempty"`
	// Events reports each fault barrier. The wall-clock solve times ride
	// along in Go (EventReport.ResynthWall) but are excluded from JSON,
	// keeping the metrics deterministic.
	Events []churn.EventReport `json:"events,omitempty"`
	// Err is the failure, if any.
	Err   string `json:"err,omitempty"`
	cause error
}

// Cause returns the underlying typed error of a failed churn run, for
// errors.As dispatch (mirrors Result.Cause).
func (r ChurnResult) Cause() error { return r.cause }

// RunChurn executes the churn specs on the Runner's worker pool. Results
// are indexed like specs; each result depends only on its spec, so worker
// count never changes the output. Per-spec failures are recorded in the
// result, not returned; the error is only ctx's.
func (r *Runner) RunChurn(ctx context.Context, specs []ChurnSpec) ([]ChurnResult, error) {
	results := make([]ChurnResult, len(specs))
	err := r.each(ctx, len(specs), func(i int) { results[i] = r.execChurn(ctx, specs[i]) })
	return results, err
}

// execChurn runs one spec end to end: draw the schedule, synthesize and
// certify the initial route set, then hand the simulation to the churn
// supervisor.
func (r *Runner) execChurn(ctx context.Context, spec ChurnSpec) (res ChurnResult) {
	spec = spec.withDefaults()
	defer func() {
		if p := recover(); p != nil {
			res = ChurnResult{Spec: spec, MCL: -1, Err: fmt.Sprint(p),
				cause: fmt.Errorf("experiments: %v", p)}
		}
	}()
	res = ChurnResult{Spec: spec, MCL: -1}
	r.Metrics.Counter("engine_churn_runs_total").Inc()
	fail := func(err error) ChurnResult {
		res.Err = err.Error()
		res.cause = err
		return res
	}

	g, err := r.topo(ctx, spec.Topo)
	if err != nil {
		return fail(err)
	}
	flows, err := r.workloadFlows(g, Job{Workload: spec.Workload, Demand: spec.Demand})
	if err != nil {
		return fail(err)
	}
	schedule, err := churn.RandomSchedule(g, spec.FaultSeed, spec.Faults, spec.FaultStart, spec.FaultSpacing)
	if err != nil {
		return fail(err)
	}
	res.Schedule = schedule

	// The synthesis stack lives on the escape-capable CDG from the start,
	// so the initial set, the escape layer, and every repair share one
	// deadlock-freedom argument.
	overlay := topology.NewFaultOverlay(g)
	fg := churn.FlowGraph(overlay, flows, spec.VCs)

	resynth, ok := churnResynths[spec.Resynth]
	if !ok {
		return fail(fmt.Errorf("experiments: unknown churn resynth %q (want %s)",
			spec.Resynth, strings.Join(ChurnResynthNames(), " or ")))
	}
	resynth = route.InstrumentSelector(resynth, r.Metrics)
	initial, err := resynth.SelectContext(ctx, fg)
	if err != nil {
		return fail(fmt.Errorf("experiments: initial churn synthesis: %w", err))
	}
	// On the still fault-free overlay; the supervisor certifies every
	// later swap itself.
	if err := churn.CertifySet(overlay, fg.CDG(), initial, spec.VCs, "the initial churn route set"); err != nil {
		return fail(fmt.Errorf("experiments: %w", err))
	}
	res.MCL, _ = initial.MCL()

	s, err := sim.New(sim.Config{
		Mesh: g, Routes: initial, VCs: spec.VCs,
		OfferedRate:   spec.Rate,
		WarmupCycles:  spec.Warmup,
		MeasureCycles: spec.Measure,
		Seed:          spec.Seed + int64(spec.Rate*1000),
		Metrics:       r.Metrics,
	})
	if err != nil {
		return fail(err)
	}
	sv := &churn.Supervisor{
		Sim: s, Overlay: overlay, Flows: flows, VCs: spec.VCs,
		Resynth:        resynth,
		Schedule:       schedule,
		RecoveryWindow: spec.RecoveryWindow,
		Requeue:        spec.Requeue,
		Metrics:        r.Metrics,
	}
	start := time.Now()
	simRes, events, err := sv.Run(ctx, spec.Warmup+spec.Measure)
	if err != nil {
		return fail(err)
	}
	// The wall figure includes the time blocked at commit barriers, which
	// is part of what the churn path costs.
	r.simWallNs.Add(int64(time.Since(start)))
	r.simCycles.Add(simRes.Cycles)
	r.simFlitHops.Add(simRes.FlitHops)

	res.Events = events
	res.Point = churnPoint(spec, simRes, events)
	return res
}

// churnPoint aggregates a churn run into a SweepPoint: the usual sweep
// metrics plus the purge counters and the worst recovery time and
// throughput dip across the events.
func churnPoint(spec ChurnSpec, simRes *sim.Result, events []churn.EventReport) *SweepPoint {
	p := &SweepPoint{
		Offered: spec.Rate, Throughput: simRes.Throughput,
		AvgLatency: simRes.AvgLatency, AvgTotalLatency: simRes.AvgTotalLatency,
		LatencyStd: simRes.LatencyStd, LatencyP99: simRes.LatencyP99,
		Injected: simRes.PacketsInjected, Delivered: simRes.PacketsDelivered,
		Deadlocked:   simRes.Deadlocked,
		DroppedFlits: simRes.DroppedFlits, DroppedPackets: simRes.DroppedPackets,
		RequeuedPackets: simRes.RequeuedPackets,
	}
	for _, ev := range events {
		if ev.RecoveryCycles < 0 {
			p.RecoveryCycles = -1 // some event never recovered: worst of all
		} else if p.RecoveryCycles >= 0 && ev.RecoveryCycles > p.RecoveryCycles {
			p.RecoveryCycles = ev.RecoveryCycles
		}
		if ev.ThroughputDip > p.ThroughputDip {
			p.ThroughputDip = ev.ThroughputDip
		}
	}
	return p
}

// churnResynths is the repair-solver vocabulary of ChurnSpec.Resynth.
// "heuristic" is the BSOR heuristic, widened on fallback; "milp" is the
// default-budget MILP with a heuristic fallback. Neither carries a
// wall-clock timeout: it would make the committed route set — and thus the
// metrics JSON — machine-dependent.
var churnResynths = map[string]route.Selector{
	"heuristic": route.FallbackSelector{
		Primary:  route.BSORHeuristic{HopSlack: 2, MaxPathsPerFlow: 16},
		Fallback: route.BSORHeuristic{HopSlack: 4, MaxPathsPerFlow: 32},
	},
	"milp": route.FallbackSelector{Primary: DefaultMILP(), Fallback: DefaultHeuristic()},
}

// ChurnResynthNames lists the repair solvers a ChurnSpec may name.
func ChurnResynthNames() []string { return slices.Sorted(maps.Keys(churnResynths)) }

// FirstChurnError returns the first failed churn result's typed error,
// or nil.
func FirstChurnError(results []ChurnResult) error {
	for _, res := range results {
		if res.Err != "" {
			if res.cause != nil {
				return res.cause
			}
			return errors.New(res.Err)
		}
	}
	return nil
}
