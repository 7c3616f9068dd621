// Package sim is a cycle-accurate simulator for wormhole-switched
// virtual-channel networks-on-chip, modeling the router microarchitecture
// of thesis chapter 4: table-based routing (the one modification BSOR
// requires over a standard VC router), per-input-port virtual channels
// with credit-based flow control, and either static or dynamic VC
// allocation.
//
// The published simulation parameters are the defaults: 16-flit VC
// buffers, one cycle per hop, 20k warmup + 100k measured cycles, and
// resource-to-switch links four times the bandwidth of switch-to-switch
// links (modeled as up to four flit injections/ejections per node per
// cycle).
//
// # Performance model
//
// The core is data-oriented (see sim.go and buffers.go): all VC buffers
// share one flat index, each holding a run of its owner packet's flits
// as a (head, count) pair rather than the flits themselves. That pair
// sits in a dense 12-byte occupancy record, apart from the buffer's
// 32-byte routing record, so the switch and commit loops read only the
// counts. Every pipeline stage consumes an incrementally maintained
// active set rather than scanning the network; an injection port whose
// visit changed nothing sleeps until a pop, a purge or a first queued
// packet wakes it. Packet generation samples geometric inter-arrival
// gaps (one RNG draw per packet) onto a 64-slot timing wheel of per-flow
// bits (generate.go). A packet that waits in its flow's source queue is
// one byte there: the gap since the packet queued before it (buffers.go).
// Per-cycle cost is proportional to in-flight
// activity that can change state, not to topology size, which is what
// makes 16x16+ sweeps affordable (EXPERIMENTS.md records the measured
// speedup).
//
// # Concurrency
//
// The package holds no mutable package-level state: every Simulator owns
// its network buffers, RNG, and statistics, so New followed by Run is
// safe to call from any number of concurrent goroutines as long as each
// goroutine uses its own Simulator. The Config inputs (Mesh, Routes) are
// treated strictly read-only and may be shared between concurrent runs;
// a RateVariation callback, however, is invoked from the simulation loop
// and must not be shared across simulators unless it is itself
// synchronized. The experiment engine (internal/experiments) relies on
// these guarantees for its parallel sweeps.
package sim

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/topology"
)

// Config parameterizes one simulation run.
type Config struct {
	// Mesh is the network: any topology (mesh, torus, ...) whose channel
	// ids the route set references. Required.
	Mesh topology.Topology
	// Routes assigns a static route (and, for static VC allocation, the
	// per-hop VCs) to every flow. Required.
	Routes *route.Set
	// VCs is the number of virtual channels per input port (1, 2, 4, or 8
	// in the thesis' experiments). Default 2.
	VCs int
	// BufDepth is the flit capacity of each VC buffer. Default 16.
	BufDepth int
	// PacketLen is the flits per packet, at most math.MaxInt16. Default 8.
	PacketLen int
	// DynamicVC selects dynamic VC allocation: the route's static VC
	// assignment is ignored and any free VC at the next hop is taken.
	// Only safe when the routes are deadlock free under arbitrary VC
	// mixing (e.g. dimension-order routes); the BSOR route sets use
	// static allocation (§4.2.2).
	DynamicVC bool
	// OfferedRate is the total offered injection rate for the whole
	// network in packets per cycle, distributed over flows proportionally
	// to their bandwidth demands.
	OfferedRate float64
	// WarmupCycles run before statistics are collected. Default 20000.
	WarmupCycles int64
	// MeasureCycles are simulated after warmup. Default 100000.
	MeasureCycles int64
	// LocalBandwidth is the number of flits per cycle a node may inject
	// into (and eject from) its router, modeling the 4x resource-to-
	// switch links. Default 4.
	LocalBandwidth int
	// PipelineStages models the router pipeline depth for header flits
	// (Fig. 4-1: RC, VA, SA, ST). The default 1 is the thesis' published
	// 1-cycle-per-hop configuration; 4 adds three cycles of per-hop
	// header latency, as in an unbypassed four-stage router. Body flits
	// stream behind the header unaffected.
	PipelineStages int
	// Seed drives packet generation. Results are deterministic per seed;
	// each flow is a Bernoulli process at its share of OfferedRate,
	// sampled by geometric inter-arrival inversion (one draw per packet).
	Seed int64
	// RateVariation, when non-nil, supplies a per-flow multiplicative
	// rate factor each cycle (the §5.3 Markov-modulated variation).
	// It is called once per flow per cycle with the flow index and must
	// return the current demand in the same unit as the flow demands.
	RateVariation func(flow int) float64
	// DeadlockCycles is the watchdog: if no flit moves for this many
	// consecutive cycles while packets are in flight, the run aborts and
	// Result.Deadlocked is set. Default 10000.
	DeadlockCycles int64
	// Workers has no effect: the cycle loop is one sequential pass and
	// starts no goroutine. A negative value is still rejected. The field
	// remains only so existing callers compile; it is slated for removal
	// (DESIGN.md §15).
	Workers int
	// Metrics, when non-nil, receives out-of-band instruments: simulated
	// cycles (sim_cycles_total, flushed at the 1024-cycle poll point so
	// the hot loop stays untouched), the live active-set size
	// (sim_active_set_size; of the injection nodes it counts the awake
	// ones only, not those asleep on owned VCs or full buffers), and
	// churn purge counters
	// (sim_purged_flits_total, sim_purged_packets_total,
	// sim_requeued_packets_total). Metrics never influence simulation
	// and never appear in Result.
	Metrics *metrics.Collector
}

func (c Config) withDefaults() (Config, error) {
	if c.Mesh == nil {
		return c, fmt.Errorf("sim: Config.Mesh is required")
	}
	if c.Routes == nil {
		return c, fmt.Errorf("sim: Config.Routes is required")
	}
	// Zero selects a default below; a negative size would panic in make,
	// never finish a transfer, or run no cycles at all.
	sizes := [...]int64{int64(c.VCs), int64(c.BufDepth), int64(c.PacketLen), int64(c.LocalBandwidth), c.WarmupCycles, c.MeasureCycles}
	for i, name := range [...]string{"VCs", "BufDepth", "PacketLen", "LocalBandwidth", "WarmupCycles", "MeasureCycles"} {
		if sizes[i] < 0 {
			return c, fmt.Errorf("sim: negative %s (%d)", name, sizes[i])
		}
	}
	if c.PacketLen > math.MaxInt16 { // flit positions are int16 (injTransfer.nextIdx)
		return c, fmt.Errorf("sim: PacketLen %d exceeds %d", c.PacketLen, math.MaxInt16)
	}
	if c.VCs == 0 {
		c.VCs = 2
	}
	if c.BufDepth == 0 {
		c.BufDepth = 16
	}
	if c.PacketLen == 0 {
		c.PacketLen = 8
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 20000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 100000
	}
	if c.LocalBandwidth == 0 {
		c.LocalBandwidth = 4
	}
	if c.PipelineStages == 0 {
		c.PipelineStages = 1
	}
	if c.PipelineStages < 1 {
		return c, fmt.Errorf("sim: PipelineStages must be >= 1")
	}
	if c.DeadlockCycles == 0 {
		c.DeadlockCycles = 10000
	}
	if c.OfferedRate < 0 {
		return c, fmt.Errorf("sim: negative offered rate")
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("sim: negative Workers")
	}
	if err := c.Routes.Validate(c.VCs); err != nil {
		return c, fmt.Errorf("sim: %w", err)
	}
	return c, nil
}

// Result summarizes one simulation run.
type Result struct {
	// Cycles actually simulated (warmup + measurement, or fewer if the
	// deadlock watchdog fired).
	Cycles int64
	// PacketsInjected / PacketsDelivered during the measurement window.
	PacketsInjected  int64
	PacketsDelivered int64
	// Throughput is delivered packets per cycle over the measurement
	// window (the thesis' "average delivery rate").
	Throughput float64
	// AvgLatency is the mean network latency in cycles per delivered
	// packet: from the header flit entering the router at the source to
	// the tail flit arriving at the destination (thesis §6.1).
	AvgLatency float64
	// AvgTotalLatency additionally includes source-queue waiting.
	AvgTotalLatency float64
	// PerFlowDelivered counts delivered packets per flow.
	PerFlowDelivered []int64
	// PerFlowLatency is the mean network latency per flow (0 for flows
	// that delivered nothing).
	PerFlowLatency []float64
	// LatencyP50/P95/P99 are network-latency percentile upper bounds from
	// a 256-bucket histogram.
	LatencyP50 float64
	LatencyP95 float64
	LatencyP99 float64
	// LatencyStd is the sample standard deviation of network latency,
	// obtained by merging the per-flow Welford summaries.
	LatencyStd float64
	// FlitHops counts flit movements across the whole run (warmup
	// included): every switch traversal and every ejection is one hop.
	// Benchmarks report it as work done per wall-clock second.
	FlitHops int64
	// Deadlocked is set when the watchdog aborted the run.
	Deadlocked bool
	// DroppedFlits / DroppedPackets count in-flight state purged by
	// DisableChannels under the drop policy; RequeuedPackets counts
	// packets pushed back to their source queues under the requeue
	// policy. All zero in a fault-free run.
	DroppedFlits    int64
	DroppedPackets  int64
	RequeuedPackets int64
}
