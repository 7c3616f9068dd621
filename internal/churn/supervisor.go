package churn

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cdg"
	"repro/internal/certify"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
)

// EventReport is the measured outcome of one schedule event. All
// JSON-visible fields are deterministic functions of the simulation
// (byte-identical across runs and worker counts); the wall-clock solve
// times are excluded from marshaling and reported separately.
type EventReport struct {
	// Cycle echoes the event's fault barrier.
	Cycle int64 `json:"cycle"`
	// Failed echoes the channels the event took down.
	Failed []topology.ChannelID `json:"failed,omitempty"`
	// DroppedFlits / DroppedPackets / RequeuedPackets count the in-flight
	// state the fault purged (sim.PurgeStats).
	DroppedFlits    int64 `json:"dropped_flits,omitempty"`
	DroppedPackets  int64 `json:"dropped_packets,omitempty"`
	RequeuedPackets int64 `json:"requeued_packets,omitempty"`
	// EscapeEpoch is the routing-table epoch of the escape layer swapped
	// in at the fault barrier (0 when no routes broke).
	EscapeEpoch int32 `json:"escape_epoch,omitempty"`
	// CommitCycle / CommitEpoch locate the repaired route set's swap.
	CommitCycle int64 `json:"commit_cycle,omitempty"`
	CommitEpoch int32 `json:"commit_epoch,omitempty"`
	// RecoveryCycles is the cycle count from the fault barrier until the
	// first full sample window whose delivery rate regained recoveryFrac
	// of the pre-fault rate; -1 when it never did within the horizon
	// (the next event, or the end of the run).
	RecoveryCycles int64 `json:"recovery_cycles"`
	// ThroughputDip is the worst relative delivery-rate loss over the
	// post-fault windows up to recovery (0..1).
	ThroughputDip float64 `json:"throughput_dip"`
	// ResynthWall is the wall-clock time of the committed background
	// re-synthesis. Wall times never enter the metrics JSON.
	ResynthWall time.Duration `json:"-"`
}

// Supervisor interleaves a simulation with a fault schedule. Every field
// up to Schedule is required.
type Supervisor struct {
	// Sim is the running simulation, built over the overlay's base
	// topology with the initial route set.
	Sim *sim.Simulator
	// Overlay is the mutable fault mask over the simulation's topology.
	// The supervisor owns it during Run: it is mutated at cycle barriers
	// and snapshotted for background synthesis.
	Overlay *topology.FaultOverlay
	// Flows are the routed flows, in the same order as the sim's routes.
	Flows []flowgraph.Flow
	// VCs is the virtual channel count of routes and CDGs.
	VCs int
	// Resynth produces the repaired route set on the degraded topology —
	// typically a route.FallbackSelector: the MILP with a heuristic
	// fallback. It runs on a background goroutine.
	Resynth route.Selector
	// Schedule lists the fault events in ascending cycle order.
	Schedule []Event

	// RecoveryWindow is the cycle count between a fault barrier and the
	// repaired set's commit barrier. Default 2048.
	RecoveryWindow int64
	// Requeue selects the purge policy for in-flight packets of broken
	// flows: requeue at the source instead of dropping.
	Requeue bool
	// Metrics, when non-nil, counts churn activity out-of-band: fault
	// events applied (churn_fault_events_total), escape-layer swaps
	// (churn_escape_swaps_total), repaired-set commits
	// (churn_commits_total), and background re-syntheses started
	// (churn_resynth_total). Metrics never influence the schedule or the
	// reports. Wire the same collector into Sim's Config and the Resynth
	// selector (route.InstrumentSelector) for the full picture.
	Metrics *metrics.Collector
}

// escapeBreaker is the one up*/down* spanning order behind a churn run's
// deadlock-freedom argument: the initial route set, the escape layer and
// every repaired set are routed and certified on the CDG it leaves. Never
// reassigned.
var escapeBreaker = cdg.UpDownEscapeBreaker{Root: 0}

// escapeCDG returns the acyclic CDG of a churn run on t (the fault
// overlay, or a snapshot of it).
func escapeCDG(t topology.Topology, vcs int) *cdg.Graph {
	return escapeBreaker.Break(cdg.NewFull(t, vcs))
}

// FlowGraph returns the synthesis flow graph of a churn run on t: flows
// over escapeCDG(t, vcs), at the core default capacity of 4x the largest
// demand. The caller synthesizes the initial route set on it (and
// certifies against its CDG); the supervisor builds every repair's graph
// the same way.
func FlowGraph(t topology.Topology, flows []flowgraph.Flow, vcs int) *flowgraph.Graph {
	var capacity float64
	for _, f := range flows {
		if 4*f.Demand > capacity {
			capacity = 4 * f.Demand
		}
	}
	return flowgraph.New(escapeCDG(t, vcs), flows, capacity)
}

// resynthResult carries one background solve back to the barrier.
type resynthResult struct {
	set  *route.Set
	err  error
	wall time.Duration
}

// Run drives the simulation to total cycles through the schedule and
// returns the final simulation result plus one report per event. On
// context cancellation the background solver is cancelled, no further
// route set is swapped in, and ctx.Err() is returned.
func (sv *Supervisor) Run(ctx context.Context, total int64) (*sim.Result, []EventReport, error) {
	if sv.Sim == nil || sv.Overlay == nil || sv.Resynth == nil {
		return nil, nil, fmt.Errorf("churn: Supervisor needs Sim, Overlay, and Resynth")
	}
	recovery := sv.RecoveryWindow
	if recovery == 0 {
		recovery = 2048
	}
	events := append([]Event(nil), sv.Schedule...)
	sort.Slice(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	for i, ev := range events {
		if ev.Cycle < sv.Sim.Cycle() {
			return nil, nil, fmt.Errorf("churn: event %d at cycle %d is in the past (cycle %d)", i, ev.Cycle, sv.Sim.Cycle())
		}
		if i > 0 && events[i-1].Cycle+recovery > ev.Cycle {
			return nil, nil, fmt.Errorf("churn: event %d at cycle %d lands before event %d commits (cycle %d)",
				i, ev.Cycle, i-1, events[i-1].Cycle+recovery)
		}
		if ev.Cycle+recovery > total {
			return nil, nil, fmt.Errorf("churn: event %d at cycle %d commits after the run ends (%d > %d)",
				i, ev.Cycle, ev.Cycle+recovery, total)
		}
	}

	samples := &sampler{s: sv.Sim}
	reports := make([]EventReport, 0, len(events))
	deadlocked := false
	for _, ev := range events {
		var err error
		deadlocked, err = samples.advance(ctx, ev.Cycle)
		if err != nil {
			return nil, nil, err
		}
		if deadlocked {
			break
		}
		rep, err := sv.applyEvent(ctx, ev, recovery, samples)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, rep)
	}
	if !deadlocked {
		var err error
		deadlocked, err = samples.advance(ctx, total)
		if err != nil {
			return nil, nil, err
		}
	}
	samples.finishRecovery(&reports, events, total)
	return sv.Sim.Finish(deadlocked), reports, nil
}

// applyEvent executes one fault barrier: fail+purge, escape swap,
// background re-synthesis, and the commit barrier a recovery window
// later.
func (sv *Supervisor) applyEvent(ctx context.Context, ev Event, recovery int64, samples *sampler) (EventReport, error) {
	rep := EventReport{Cycle: ev.Cycle, Failed: ev.Fail, RecoveryCycles: -1}
	sv.Metrics.Counter("churn_fault_events_total").Inc()
	if len(ev.Fail) > 0 {
		sv.Overlay.Disable(ev.Fail...)
		if !sv.Overlay.Connected() {
			return rep, fmt.Errorf("churn: fault at cycle %d disconnects the network", ev.Cycle)
		}
		stats := sv.Sim.DisableChannels(sv.Requeue, ev.Fail...)
		rep.DroppedFlits, rep.DroppedPackets, rep.RequeuedPackets = stats.Flits, stats.Packets, stats.Requeued

		// Degrade onto the escape layer immediately: the current table may
		// route flows into the dead channels, so a dead-avoiding set must
		// be installed before the next cycle runs (see sim/churn.go). The
		// swap is unconditional — whether any route actually crossed the
		// dead link costs a table scan to learn and one epoch to ignore.
		escape, err := sv.escapeSet(ctx)
		if err != nil {
			return rep, fmt.Errorf("churn: escape synthesis at cycle %d: %w", ev.Cycle, err)
		}
		if err := sv.Sim.SwapRoutes(escape); err != nil {
			return rep, fmt.Errorf("churn: escape swap at cycle %d: %w", ev.Cycle, err)
		}
		rep.EscapeEpoch = sv.Sim.Epoch()
		sv.Metrics.Counter("churn_escape_swaps_total").Inc()
	}

	// Background re-synthesis on a snapshot of the degraded topology; the
	// simulation keeps advancing on the escape layer meanwhile and blocks
	// at the commit barrier.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan resynthResult, 1)
	sv.Metrics.Counter("churn_resynth_total").Inc()
	go sv.resynthesize(sctx, results)

	deadlocked, err := samples.advance(ctx, ev.Cycle+recovery)
	if err != nil {
		return rep, err
	}
	if deadlocked {
		// The escape layer itself wedged (watchdog); commit nothing.
		return rep, nil
	}
	select {
	case <-ctx.Done():
		return rep, ctx.Err()
	case r := <-results:
		if r.err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			return rep, fmt.Errorf("churn: re-synthesis for cycle %d: %w", ev.Cycle, r.err)
		}
		rep.ResynthWall = r.wall
		if err := sv.Sim.SwapRoutes(r.set); err != nil {
			return rep, fmt.Errorf("churn: repaired swap at cycle %d: %w", ev.Cycle, err)
		}
		rep.CommitCycle = sv.Sim.Cycle()
		rep.CommitEpoch = sv.Sim.Epoch()
		sv.Metrics.Counter("churn_commits_total").Inc()
	}
	return rep, nil
}

// escapeSet synthesizes the up*/down* escape-layer route set on the
// current overlay and certifies it before it may be swapped in.
func (sv *Supervisor) escapeSet(ctx context.Context) (*route.Set, error) {
	sp := route.ShortestPath{VCs: sv.VCs, Breaker: escapeBreaker}
	set, err := sp.RoutesContext(ctx, sv.Overlay, sv.Flows)
	if err != nil {
		return nil, err
	}
	if err := CertifySet(sv.Overlay, escapeCDG(sv.Overlay, sv.VCs), set, sv.VCs, "the escape set"); err != nil {
		return nil, err
	}
	return set, nil
}

// CertifySet issues the independent certificate (certify.Issue) of set,
// routed on t under dag. Every route set a churn run starts from or swaps
// in passes it; what names the set in a rejection.
func CertifySet(t topology.Topology, dag *cdg.Graph, set *route.Set, vcs int, what string) error {
	if _, err := certify.Issue(certify.Instance{Topo: t, CDG: dag, Routes: set, VCs: vcs}); err != nil {
		return fmt.Errorf("certification rejected %s: %w", what, err)
	}
	return nil
}

// resynthesize runs the repair solve on a read-only snapshot of the
// degraded topology and delivers the certified result. It owns no
// simulator state, so it races with nothing.
func (sv *Supervisor) resynthesize(ctx context.Context, out chan<- resynthResult) {
	snap := topology.NewFaultOverlay(sv.Overlay.Base())
	snap.Disable(sv.Overlay.Dead()...)
	g := FlowGraph(snap, sv.Flows, sv.VCs)

	start := time.Now()
	set, err := sv.Resynth.SelectContext(ctx, g)
	wall := time.Since(start)
	if err == nil {
		// Against the snapshot the set was synthesized on: the live
		// overlay may have advanced past it.
		err = CertifySet(snap, g.CDG(), set, sv.VCs, "the repaired set")
	}
	out <- resynthResult{set: set, err: err, wall: wall}
}
