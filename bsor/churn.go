package bsor

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// ChurnSpec declares one online-resilience run: the workload's routes are
// synthesized, certified, and simulated while a seeded schedule of link
// faults fires live. At each fault the affected in-flight traffic is
// purged (dropped, or requeued with Requeue), broken flows degrade onto
// an up*/down* escape layer, and a background re-synthesis commits a
// certified repaired route set one recovery window later.
//
// Specs are plain data and round-trip through JSON. A run is a
// deterministic function of its spec: the metrics JSON is byte-identical
// across repeats and worker counts (wall-clock solve times are reported
// out of band and never marshaled).
type ChurnSpec struct {
	// Name labels the spec in results and diagnostics. Optional.
	Name string `json:"name,omitempty"`
	// Topo declares the network. The zero value is the thesis' 8x8 mesh.
	Topo Topology `json:"topo"`
	// Workload names a built-in or registered workload (see Workloads);
	// Demand overrides synthetic per-flow bandwidth (0 means 25 MB/s).
	Workload string  `json:"workload"`
	Demand   float64 `json:"demand,omitempty"`
	// VCs is the virtual channel count; 0 means 2.
	VCs int `json:"vcs,omitempty"`
	// Rate is the offered injection rate in packets/node/cycle.
	Rate float64 `json:"rate"`
	// Warmup and Measure are the simulated cycle counts; 0 means the
	// churn defaults 4000 / 20000.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// Seed is the simulation random seed.
	Seed int64 `json:"seed,omitempty"`
	// Faults is how many bidirectional links fail, one per event, drawn
	// by FaultSeed; connectivity is always preserved. FaultStart and
	// FaultSpacing place the events (0 means right after warmup, spaced
	// four recovery windows apart).
	Faults       int   `json:"faults"`
	FaultSeed    int64 `json:"fault_seed,omitempty"`
	FaultStart   int64 `json:"fault_start,omitempty"`
	FaultSpacing int64 `json:"fault_spacing,omitempty"`
	// RecoveryWindow is the cycle count between a fault and the repaired
	// set's commit barrier; 0 means 2048.
	RecoveryWindow int64 `json:"recovery_window,omitempty"`
	// Requeue re-injects purged packets at their sources instead of
	// dropping them.
	Requeue bool `json:"requeue,omitempty"`
	// Resynth names the background repair solver: "heuristic" (the
	// default when empty) or "milp" (the default-budget MILP with a
	// heuristic fallback).
	Resynth string `json:"resynth,omitempty"`
}

// validate checks the spec and returns a *SpecError for the first
// problem, or nil. label identifies the spec ("" uses Name).
func (s ChurnSpec) validate(label string) error {
	if label == "" {
		label = s.Name
	}
	fail := func(field, reason string, args ...any) error {
		return &SpecError{Spec: label, Field: field, Reason: fmt.Sprintf(reason, args...)}
	}
	if field, reason := validateShared(s.Topo, s.Workload, s.VCs, s.Demand); field != "" {
		return fail(field, "%s", reason)
	}
	if s.Rate <= 0 {
		return fail("rate", "offered rate %g must be positive", s.Rate)
	}
	if s.Warmup < 0 || s.Measure < 0 {
		return fail("sim", "negative cycle counts")
	}
	if s.Faults < 0 {
		return fail("faults", "negative fault count %d", s.Faults)
	}
	if s.FaultStart < 0 || s.FaultSpacing < 0 || s.RecoveryWindow < 0 {
		return fail("faults", "negative fault timing")
	}
	if names := experiments.ChurnResynthNames(); s.Resynth != "" && !slices.Contains(names, s.Resynth) {
		return fail("resynth", "unknown resynth %q (want %s)", s.Resynth, strings.Join(names, " or "))
	}
	return nil
}

// Validate checks the spec against the registries. Returns a *SpecError
// describing the first problem, or nil.
func (s ChurnSpec) Validate() error { return s.validate("") }

// spec converts to the engine's churn declaration.
func (s ChurnSpec) spec() experiments.ChurnSpec {
	return experiments.ChurnSpec{
		Name: s.Name, Topo: s.Topo.spec(),
		Workload: s.Workload, Demand: s.Demand, VCs: s.VCs,
		Rate: s.Rate, Warmup: s.Warmup, Measure: s.Measure, Seed: s.Seed,
		Faults: s.Faults, FaultSeed: s.FaultSeed,
		FaultStart: s.FaultStart, FaultSpacing: s.FaultSpacing,
		RecoveryWindow: s.RecoveryWindow,
		Requeue:        s.Requeue,
		Resynth:        s.Resynth,
	}
}

// ChurnEvent reports one fault barrier of a churn run: what failed, what
// the purge cost, when the escape layer and the repaired route set took
// over, and how delivery recovered.
type ChurnEvent struct {
	// Cycle is the fault barrier; Failed lists the channel ids it took
	// down.
	Cycle  int64 `json:"cycle"`
	Failed []int `json:"failed,omitempty"`
	// DroppedFlits / DroppedPackets / RequeuedPackets count the purged
	// in-flight state.
	DroppedFlits    int64 `json:"dropped_flits,omitempty"`
	DroppedPackets  int64 `json:"dropped_packets,omitempty"`
	RequeuedPackets int64 `json:"requeued_packets,omitempty"`
	// EscapeEpoch is the routing-table epoch of the escape layer;
	// CommitCycle / CommitEpoch locate the repaired set's swap.
	EscapeEpoch int   `json:"escape_epoch,omitempty"`
	CommitCycle int64 `json:"commit_cycle,omitempty"`
	CommitEpoch int   `json:"commit_epoch,omitempty"`
	// RecoveryCycles is the cycle count until the delivery rate regained
	// 95% of its pre-fault level (-1: never within the horizon);
	// ThroughputDip is the worst relative delivery-rate loss (0..1).
	RecoveryCycles int64   `json:"recovery_cycles"`
	ThroughputDip  float64 `json:"throughput_dip"`
	// ResynthWall is the wall-clock time of the committed re-synthesis.
	// Never marshaled: wall clocks are machine-dependent, the metrics
	// JSON is not.
	ResynthWall time.Duration `json:"-"`
}

// ChurnResult is the outcome of one ChurnSpec: the initial route set's
// maximum channel load, the aggregate simulation point (whose churn
// fields summarize the worst event), and one ChurnEvent per fault.
type ChurnResult struct {
	// Spec indexes the producing ChurnSpec; Name echoes its label.
	Spec int    `json:"spec"`
	Name string `json:"name,omitempty"`
	// Topo and Workload echo the work done.
	Topo     Topology `json:"topo"`
	Workload string   `json:"workload"`
	// MCL is the maximum channel load of the initial route set (-1 on
	// failure).
	MCL float64 `json:"mcl"`
	// Point aggregates the run (nil on failure).
	Point *Point `json:"point,omitempty"`
	// Events reports each fault barrier.
	Events []ChurnEvent `json:"events,omitempty"`
	// Err reports why this spec produced no measurement. Typed: test
	// with errors.As(*SpecError) etc. Never marshaled.
	Err error `json:"-"`
}

// RunChurn validates and executes the churn specs on a throwaway Engine.
// Of the options only WithWorkers and WithMetrics apply.
func RunChurn(ctx context.Context, specs []ChurnSpec, opts ...Option) ([]ChurnResult, error) {
	return NewEngine(opts...).RunChurn(ctx, specs)
}

// RunChurn validates and executes the churn specs. Results are indexed
// like specs and deterministic for any worker count. Invalid specs fail
// the whole call with a *SpecError; runtime failures are reported per
// result.
func (e *Engine) RunChurn(ctx context.Context, specs []ChurnSpec) ([]ChurnResult, error) {
	if len(specs) == 0 {
		return nil, &SpecError{Reason: "at least one churn spec is required"}
	}
	engineSpecs := make([]experiments.ChurnSpec, len(specs))
	for i, s := range specs {
		if err := s.validate(fmt.Sprintf("%s[%d]", orSpec(s.Name), i)); err != nil {
			return nil, err
		}
		engineSpecs[i] = s.spec()
	}
	raw, err := e.runner.RunChurn(ctx, engineSpecs)
	if err != nil {
		return nil, err
	}
	results := make([]ChurnResult, len(raw))
	for i, res := range raw {
		results[i] = churnFromEngine(i, specs[i], res)
	}
	return results, nil
}

// churnFromEngine translates one engine churn result into the façade's
// shape.
func churnFromEngine(specIdx int, spec ChurnSpec, res experiments.ChurnResult) ChurnResult {
	out := ChurnResult{
		Spec: specIdx, Name: spec.Name,
		Topo: spec.Topo, Workload: spec.Workload,
		MCL: res.MCL,
	}
	if res.Err != "" {
		if cause := res.Cause(); cause != nil {
			out.Err = classify(cause)
		} else {
			out.Err = errors.New(res.Err)
		}
		return out
	}
	if res.Point != nil {
		point := Point(*res.Point)
		out.Point = &point
	}
	out.Events = make([]ChurnEvent, len(res.Events))
	for i, ev := range res.Events {
		e := ChurnEvent{
			Cycle:           ev.Cycle,
			DroppedFlits:    ev.DroppedFlits,
			DroppedPackets:  ev.DroppedPackets,
			RequeuedPackets: ev.RequeuedPackets,
			EscapeEpoch:     int(ev.EscapeEpoch),
			CommitCycle:     ev.CommitCycle,
			CommitEpoch:     int(ev.CommitEpoch),
			RecoveryCycles:  ev.RecoveryCycles,
			ThroughputDip:   ev.ThroughputDip,
			ResynthWall:     ev.ResynthWall,
		}
		for _, ch := range ev.Failed {
			e.Failed = append(e.Failed, int(ch))
		}
		out.Events[i] = e
	}
	return out
}
