// Package experiments regenerates every table and figure of the thesis'
// evaluation (chapter 6) on a concurrent sweep engine.
//
// Each experiment is a declarative list of Jobs — (workload, topology,
// algorithm, CDG breakers, VC count, offered-rate point) tuples — executed
// by a worker-pool Runner. Route synthesis, the expensive step, is
// memoized per unique (topology, workload, algorithm, VCs, breakers) key
// and shared across every simulation point that reuses it, and every
// random stream is seeded from the job itself, so results are
// deterministic and identical for any worker count. jobs.go holds the
// job-list builders and result assemblers of every table and figure;
// cmd/experiments drives them with -jobs, -json, and -filter for
// machine-readable sweeps.
//
// DESIGN.md carries the experiment index and the engine's design;
// EXPERIMENTS.md records paper-versus-measured values.
package experiments

import (
	"fmt"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// workload is one row of the built-in workload vocabulary. A synthetic
// pattern runs on any topology at the job's per-flow demand; a profiled
// application carries fixed published rates and an 8x8-or-larger grid
// placement. thesis marks the six workloads of the evaluation, in its
// order; "rand-perm" is the one built-in outside them.
type workload struct {
	name    string
	thesis  bool
	pattern func(t topology.Topology, demand float64) ([]flowgraph.Flow, error)
	app     func(g topology.Grid) (*traffic.App, error)
}

var workloads = []workload{
	{name: "transpose", thesis: true, pattern: traffic.Transpose},
	{name: "bit-complement", thesis: true, pattern: traffic.BitComplement},
	{name: "shuffle", thesis: true, pattern: traffic.Shuffle},
	{name: "h264", thesis: true, app: traffic.H264Decoder},
	{name: "perf-modeling", thesis: true, app: traffic.PerfModeling},
	{name: "transmitter", thesis: true, app: traffic.Transmitter80211},
	{name: "rand-perm", pattern: func(t topology.Topology, demand float64) ([]flowgraph.Flow, error) {
		return traffic.RandomPermutation(t, demand, RandPermSeed)
	}},
}

// workloadNames lists the built-ins that pass keep, in table order.
func workloadNames(keep func(workload) bool) []string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if keep(w) {
			names = append(names, w.name)
		}
	}
	return names
}

// BuiltinWorkloadNames lists every workload WorkloadFlows resolves: the
// thesis' six, then the seeded random permutation.
func BuiltinWorkloadNames() []string {
	return workloadNames(func(workload) bool { return true })
}

// WorkloadNames lists the six workloads in the thesis' order.
func WorkloadNames() []string {
	return workloadNames(func(w workload) bool { return w.thesis })
}

// SyntheticWorkloadNames lists the thesis' three synthetic patterns.
// Unlike the profiled applications, which carry fixed 8x8 placements,
// these scale to any grid size and parameterize the synthesis-scale
// (16x16) scenarios.
func SyntheticWorkloadNames() []string {
	return workloadNames(func(w workload) bool { return w.thesis && w.pattern != nil })
}

// RandPermSeed fixes the permutation of the "rand-perm" workload. The
// workload must be a pure function of the topology (route syntheses are
// memoized per (topology, workload, ...) key), so the seed is a package
// constant rather than a job parameter.
const RandPermSeed = 1

// DefaultDemand is the per-flow bandwidth (MB/s) of the synthetic
// workloads when a job does not override it — traffic's published
// 25 MB/s.
const DefaultDemand = traffic.DefaultSyntheticDemand

// UnknownWorkloadError reports a workload name no built-in pattern or
// application matches. The façade's workload registry hooks in behind it
// (Runner.WorkloadFn); other callers detect it with errors.As.
type UnknownWorkloadError struct {
	// Name is the unresolved workload name.
	Name string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("experiments: unknown workload %q", e.Name)
}

// UnknownAlgorithmError reports an algorithm name outside the supported
// set (see Job.Algorithm).
type UnknownAlgorithmError struct {
	// Name is the unresolved algorithm name.
	Name string
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("experiments: unknown algorithm %q", e.Name)
}

// GridWorkloadError reports a profiled-application workload (fixed grid
// placements) requested on a topology without grid coordinates. Use
// traffic.PlacedApp with an explicit placement instead.
type GridWorkloadError struct {
	// Workload names the application workload; Topo the topology's Go type.
	Workload, Topo string
}

func (e *GridWorkloadError) Error() string {
	return fmt.Sprintf("experiments: workload %q requires a grid topology, got %s (use traffic.PlacedApp for explicit placements)",
		e.Workload, e.Topo)
}

// WorkloadFlows builds one named workload on t — only the one asked for,
// since the applications require a grid large enough for their placements
// and must not be constructed for jobs that never use them. The synthetic
// patterns run on any topology (the bit permutations report a typed error
// on non-power-of-two node counts; "rand-perm" runs everywhere) and take
// demand as their per-flow bandwidth (0 means DefaultDemand); the
// profiled applications carry fixed published rates (demand is ignored)
// and grid placements, erroring on non-grid kinds and on grids too small
// for their placement (*traffic.PlacementError). Unresolved names yield
// an *UnknownWorkloadError.
func WorkloadFlows(t topology.Topology, name string, demand float64) ([]flowgraph.Flow, error) {
	if demand == 0 {
		demand = DefaultDemand
	}
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if w.pattern != nil {
			return w.pattern(t, demand)
		}
		g, ok := t.(topology.Grid)
		if !ok {
			return nil, &GridWorkloadError{Workload: name, Topo: fmt.Sprintf("%T", t)}
		}
		app, err := w.app(g)
		if err != nil {
			return nil, err
		}
		return app.Flows, nil
	}
	return nil, &UnknownWorkloadError{Name: name}
}

// TableBreakers are the five acyclic-CDG columns of Tables 6.1 and 6.2.
// "negative-first" is the (W,N) rotation under our axis convention (see
// DESIGN.md).
func TableBreakers() []cdg.Breaker {
	return []cdg.Breaker{
		cdg.TurnBreaker{Rule: cdg.LastRule(topology.North)},
		cdg.TurnBreaker{Rule: cdg.FirstRule(topology.West)},
		cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)},
		cdg.AdHocBreaker{Seed: 1},
		cdg.AdHocBreaker{Seed: 2},
	}
}

// TableBreakerNames returns the names of TableBreakers, for building jobs.
func TableBreakerNames() []string { return BreakerNames(TableBreakers()) }

// CDGRow is one row of Table 6.1 / 6.2: the MCL found under each explored
// acyclic CDG for one workload. Failed CDGs (disconnected flows) are
// reported as negative entries.
type CDGRow struct {
	// Workload names the row.
	Workload string `json:"workload"`
	// Breakers are the column labels (one acyclic CDG each).
	Breakers []string `json:"breakers"`
	// MCL holds one maximum channel load per breaker; negative = failed.
	MCL []float64 `json:"mcl"`
}

// AlgoMCL is one row of Table 6.3: the MCL of each routing algorithm on
// one workload.
type AlgoMCL struct {
	// Workload names the row.
	Workload string `json:"workload"`
	// Algorithms are the column labels.
	Algorithms []string `json:"algorithms"`
	// MCL holds one maximum channel load per algorithm; negative = failed.
	MCL []float64 `json:"mcl"`
}

// SweepPoint is one (offered rate, throughput, latency) sample of a
// figure's load sweep.
type SweepPoint struct {
	// Offered is the total offered injection rate in packets/cycle.
	Offered float64 `json:"offered"`
	// Throughput is the delivered packets/cycle over the measured window.
	Throughput float64 `json:"throughput"`
	// AvgLatency is the mean network latency in cycles.
	AvgLatency float64 `json:"avg_latency"`
	// AvgTotalLatency additionally includes source-queue waiting.
	AvgTotalLatency float64 `json:"avg_total_latency,omitempty"`
	// LatencyStd is the standard deviation of network latency.
	LatencyStd float64 `json:"latency_std,omitempty"`
	// LatencyP99 is the 99th-percentile network latency upper bound.
	LatencyP99 float64 `json:"latency_p99,omitempty"`
	// Injected and Delivered count packets over the measurement window.
	Injected  int64 `json:"injected,omitempty"`
	Delivered int64 `json:"delivered,omitempty"`
	// Deadlocked reports that the watchdog aborted the run.
	Deadlocked bool `json:"deadlocked,omitempty"`
	// DroppedFlits / DroppedPackets / RequeuedPackets count in-flight
	// state purged by live faults; all zero (and omitted) outside churn
	// runs.
	DroppedFlits    int64 `json:"dropped_flits,omitempty"`
	DroppedPackets  int64 `json:"dropped_packets,omitempty"`
	RequeuedPackets int64 `json:"requeued_packets,omitempty"`
	// RecoveryCycles is the worst per-event recovery time of a churn run
	// (-1 when some event never regained the pre-fault delivery rate);
	// ThroughputDip is the worst per-event relative delivery-rate loss.
	RecoveryCycles int64   `json:"recovery_cycles,omitempty"`
	ThroughputDip  float64 `json:"throughput_dip,omitempty"`
}

// Series is one curve of a figure.
type Series struct {
	// Algorithm labels the curve.
	Algorithm string `json:"algorithm"`
	// Points are the samples in offered-rate order.
	Points []SweepPoint `json:"points"`
}

// SimParams bundles the simulation settings of a figure, defaulting to
// the thesis' published parameters. Reduced cycle counts are used by the
// benchmarks to keep regeneration tractable; the cmd tool exposes flags.
type SimParams struct {
	// VCs is the virtual channel count (default 2).
	VCs int
	// WarmupCycles precede measurement (default 20000).
	WarmupCycles int64
	// MeasureCycles are measured after warmup (default 100000).
	MeasureCycles int64
	// Seed is the base random seed; per-point seeds derive from it.
	Seed int64
}

func (p SimParams) withDefaults() SimParams {
	if p.VCs == 0 {
		p.VCs = 2
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = 20000
	}
	if p.MeasureCycles == 0 {
		p.MeasureCycles = 100000
	}
	return p
}

// InjectionTrace reproduces Figure 5-4: the piecewise-constant injection
// rate of one node under Markov-modulated variation.
func InjectionTrace(base, percent float64, cycles int, seed int64) []float64 {
	mmp := traffic.NewMMP(base, percent, 500, seed)
	out := make([]float64, cycles)
	for i := range out {
		out[i] = mmp.Advance()
	}
	return out
}
