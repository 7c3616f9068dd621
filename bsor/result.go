package bsor

import (
	"errors"

	"repro/internal/experiments"
)

// Point is one simulation sample: the synthesized routes driven at one
// offered rate on the cycle-accurate wormhole model.
type Point struct {
	// Offered is the total offered injection rate (packets/cycle).
	Offered float64 `json:"offered"`
	// Throughput is the delivered packets/cycle over the measured window.
	Throughput float64 `json:"throughput"`
	// AvgLatency is the mean network latency in cycles (header enters the
	// source router to tail arrives at the destination); AvgTotalLatency
	// additionally includes source-queue waiting.
	AvgLatency      float64 `json:"avg_latency"`
	AvgTotalLatency float64 `json:"avg_total_latency,omitempty"`
	// LatencyStd and LatencyP99 describe the network-latency spread.
	LatencyStd float64 `json:"latency_std,omitempty"`
	LatencyP99 float64 `json:"latency_p99,omitempty"`
	// Injected and Delivered count packets over the measured window.
	Injected  int64 `json:"injected,omitempty"`
	Delivered int64 `json:"delivered,omitempty"`
	// Deadlocked reports that the deadlock watchdog aborted the run (the
	// BSOR route sets are deadlock-free by construction; baselines under
	// dynamic VC misconfiguration are not).
	Deadlocked bool `json:"deadlocked,omitempty"`
	// DroppedFlits / DroppedPackets / RequeuedPackets count in-flight
	// state purged by live faults; zero (and omitted) outside churn runs
	// (see RunChurn).
	DroppedFlits    int64 `json:"dropped_flits,omitempty"`
	DroppedPackets  int64 `json:"dropped_packets,omitempty"`
	RequeuedPackets int64 `json:"requeued_packets,omitempty"`
	// RecoveryCycles and ThroughputDip are the worst-event recovery
	// metrics of a churn run (RecoveryCycles -1: some event never
	// regained the pre-fault delivery rate).
	RecoveryCycles int64   `json:"recovery_cycles,omitempty"`
	ThroughputDip  float64 `json:"throughput_dip,omitempty"`
}

// Result is the outcome of one unit of pipeline work: the synthesis of
// one spec (or one of its explored breakers), plus one simulation point
// when the spec declares a sweep.
type Result struct {
	// Spec indexes the producing Spec in the pipeline's list; Name echoes
	// its label.
	Spec int    `json:"spec"`
	Name string `json:"name,omitempty"`
	// Topo, Workload, Algorithm, and VCs echo the work done.
	Topo      Topology `json:"topo"`
	Workload  string   `json:"workload"`
	Algorithm string   `json:"algorithm"`
	VCs       int      `json:"vcs"`
	// Breaker names the acyclic CDG behind the route set: the winning one
	// normally, the explored one under Spec.Explore.
	Breaker string `json:"breaker,omitempty"`
	// MCL is the maximum channel load of the synthesized route set (MB/s);
	// -1 when synthesis failed.
	MCL float64 `json:"mcl"`
	// AvgHops is the mean route length of the synthesized set.
	AvgHops float64 `json:"avg_hops,omitempty"`
	// Point holds the simulation sample of a sim spec (nil for MCL-only
	// work and failures).
	Point *Point `json:"point,omitempty"`
	// Err reports why this unit produced no measurement. Typed: test with
	// errors.Is(ErrInfeasible / ErrNotGrid) and errors.As(*SpecError).
	// Never marshaled; a JSON-round-tripped Result loses it.
	Err error `json:"-"`
}

// fromEngine translates one engine result into the façade's shape.
func fromEngine(specIdx int, spec Spec, res experiments.Result) Result {
	out := Result{
		Spec:      specIdx,
		Name:      spec.Name,
		Topo:      spec.Topo,
		Workload:  res.Job.Workload,
		Algorithm: res.Job.Algorithm,
		VCs:       res.Job.VCs,
		Breaker:   res.Breaker,
		MCL:       res.MCL,
		AvgHops:   res.AvgHops,
	}
	if spec.Explore && len(res.Job.Breakers) == 1 {
		out.Breaker = res.Job.Breakers[0]
	}
	if res.Err != "" {
		if cause := res.Cause(); cause != nil {
			out.Err = classify(cause)
		} else {
			out.Err = errors.New(res.Err)
		}
	}
	if res.Point != nil {
		point := Point(*res.Point) // same fields, façade-owned type
		out.Point = &point
	}
	return out
}

// FirstError returns the first failed result's typed error, or nil.
// Infeasible cells of an Explore spec are exempt: a breaker that admits
// no routes is a legitimate n/a table cell, reported per Result. Any
// other failure of an explored cell (a spec no breaker can run, such as
// a grid workload on a ring) is returned like every other.
func FirstError(results []Result) error {
	for _, res := range results {
		if res.Err == nil || (res.Breaker != "" && errors.Is(res.Err, ErrInfeasible)) {
			continue
		}
		return res.Err
	}
	return nil
}
