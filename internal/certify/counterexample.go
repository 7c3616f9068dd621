package certify

import (
	"fmt"
	"strings"

	"repro/internal/topology"
)

// Counterexample kinds.
const (
	// KindCycle: the dependence graph contains a directed cycle; Cycle
	// holds a minimal one.
	KindCycle = "cycle"
	// KindRoute: a route is structurally invalid (disconnected, wrong
	// endpoints, out-of-range channel or VC, revisited channel, 180-degree
	// turn).
	KindRoute = "route"
	// KindTransition: a route hop uses a (channel,VC) dependence absent
	// from the claimed CDG.
	KindTransition = "vc-transition"
	// KindCapacity: a channel's total demand exceeds the capacity bound.
	KindCapacity = "capacity"
)

// Vertex is one (channel, virtual channel) node of a counterexample
// cycle.
type Vertex struct {
	Channel topology.ChannelID `json:"channel"`
	VC      int                `json:"vc"`
}

// Counterexample is a concrete, checkable refutation of deadlock
// freedom (or of route validity): not just "rejected" but the exact
// cycle or the exact flow and hop at fault. It implements error, so
// Certify's rejection is recovered with errors.As.
type Counterexample struct {
	// Kind classifies the refutation; see the Kind constants.
	Kind string `json:"kind"`
	// Cycle is a minimal dependence cycle (first vertex repeated last)
	// for KindCycle; Labels carries the human-readable form.
	Cycle  []Vertex `json:"cycle,omitempty"`
	Labels []string `json:"labels,omitempty"`
	// Flow and FlowIndex identify the offending route, Hop the offending
	// step, for the route-level kinds (Hop -1 when not applicable).
	Flow      string `json:"flow,omitempty"`
	FlowIndex int    `json:"flow_index,omitempty"`
	Hop       int    `json:"hop,omitempty"`
	// Reason says what is wrong.
	Reason string `json:"reason"`
}

// Error implements error.
func (ce *Counterexample) Error() string {
	switch ce.Kind {
	case KindCycle:
		return fmt.Sprintf("certify: dependence cycle of length %d: %s",
			len(ce.Cycle)-1, strings.Join(ce.Labels, " -> "))
	case KindRoute:
		return fmt.Sprintf("certify: flow %s hop %d: %s", ce.Flow, ce.Hop, ce.Reason)
	case KindTransition:
		return fmt.Sprintf("certify: flow %s hop %d: %s", ce.Flow, ce.Hop, ce.Reason)
	case KindCapacity:
		return "certify: " + ce.Reason
	}
	return "certify: " + ce.Reason
}

// cycleCounterexample builds the KindCycle refutation from a cyclic
// dependence graph and its peel residue: a minimal cycle, labeled.
func cycleCounterexample(in Instance, d *deps, left []int32) *Counterexample {
	cyc := minimalCycle(d, left)
	ce := &Counterexample{Kind: KindCycle, Hop: -1}
	for _, v := range cyc {
		ce.Cycle = append(ce.Cycle, Vertex{
			Channel: topology.ChannelID(int(v) / in.VCs), VC: int(v) % in.VCs,
		})
		ce.Labels = append(ce.Labels, vertexLabel(in, v))
	}
	graph := "the claimed CDG"
	if in.CDG == nil {
		graph = "the used-dependence graph"
	}
	ce.Reason = fmt.Sprintf("%s contains a directed dependence cycle of length %d",
		graph, len(cyc)-1)
	return ce
}
