package bsor

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/topology"
	"repro/internal/viz"
)

// RouteInfo is one flow's assigned route, for inspection and dumps.
type RouteInfo struct {
	// Flow echoes the routed flow (public node ids).
	Flow Flow
	// Hops lists the route's channel/VC steps as human-readable labels,
	// e.g. "e(0,0)/vc0".
	Hops []string
}

// RouteSet is a synthesized deadlock-free route assignment: the
// read-only views callers need of one successful synthesis artifact.
type RouteSet struct {
	art *experiments.Artifact
}

// MCL returns the maximum channel load (MB/s) — the figure of merit BSOR
// minimizes.
func (rs *RouteSet) MCL() float64 { return rs.art.MCL }

// Bottleneck names the channel carrying the maximum load.
func (rs *RouteSet) Bottleneck() string {
	_, ch := rs.art.Set.MCL()
	return topology.ChannelName(rs.art.Topo, ch)
}

// AvgHops returns the mean route length across flows.
func (rs *RouteSet) AvgHops() float64 { return rs.art.AvgHops }

// Breaker names the acyclic-CDG strategy behind the winning route set
// ("" for baseline algorithms, which do not explore CDGs).
func (rs *RouteSet) Breaker() string { return rs.art.Breaker }

// VCs reports the virtual channel count the set was synthesized for.
func (rs *RouteSet) VCs() int { return rs.art.Job.VCs }

// Routes lists every flow's assigned route in flow order.
func (rs *RouteSet) Routes() []RouteInfo {
	topo, set := rs.art.Topo, rs.art.Set
	out := make([]RouteInfo, len(set.Routes))
	for i, r := range set.Routes {
		info := RouteInfo{Flow: Flow{
			Name: r.Flow.Name, Src: int(r.Flow.Src), Dst: int(r.Flow.Dst),
			Demand: r.Flow.Demand,
		}}
		for k, ch := range r.Channels {
			info.Hops = append(info.Hops,
				fmt.Sprintf("%s/vc%d", topology.ChannelName(topo, ch), r.VCs[k]))
		}
		out[i] = info
	}
	return out
}

// Heatmap renders the per-link load as an ASCII heatmap. Only meshes
// have the printable planar embedding; other topologies return "".
func (rs *RouteSet) Heatmap() string {
	if m, ok := rs.art.Topo.(*topology.Mesh); ok {
		return viz.LoadHeatmap(m, rs.art.Set.Loads())
	}
	return ""
}

// Exploration is the outcome of route selection under one acyclic CDG:
// one row of the Explore report.
type Exploration struct {
	// Breaker names the cycle-breaking strategy.
	Breaker string
	// MCL and AvgHops describe the selected routes (MCL -1 when Err set).
	MCL     float64
	AvgHops float64
	// Err reports why this CDG produced no routes (e.g. it disconnected a
	// flow); other CDGs may still succeed.
	Err error
}

// Synthesize runs one spec's route synthesis and returns the selected
// route set: BSOR variants explore the spec's breakers and keep the best
// MCL, baselines route directly. The spec's Sim field is ignored.
// A route set the independent checker refutes is never returned: the
// error is its *Counterexample. Accepts the Options that apply to a single
// synthesis (WithMILPBudget, WithMetrics). It runs on a throwaway Engine;
// callers asking several questions of one spec share the work by holding
// an Engine.
func Synthesize(ctx context.Context, spec Spec, opts ...Option) (*RouteSet, error) {
	return NewEngine(opts...).Synthesize(ctx, spec)
}

// Explore runs one spec's BSOR synthesis under every breaker of its
// exploration set and reports the maximum channel load found under each,
// in breaker order (see Engine.Explore). The spec's algorithm must be a
// BSOR variant.
func Explore(ctx context.Context, spec Spec, opts ...Option) ([]Exploration, error) {
	return NewEngine(opts...).Explore(ctx, spec)
}
