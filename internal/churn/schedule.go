// Package churn drives a running simulation through a live fault
// schedule: at each fault barrier it purges the affected in-flight
// traffic, degrades the broken flows onto an up*/down* escape layer, and
// launches a background re-synthesis whose repaired route set —
// certificate-checked — is committed at a deterministic barrier a fixed
// recovery window later. DESIGN.md §13 documents the protocol.
package churn

import (
	"fmt"

	"repro/internal/topology"
)

// Event is one entry of a fault schedule: at Cycle, the channels in Fail
// die. Physical faults always take a link's both directions (see
// topology.RemovableLinks): killing one direction of a grid link can
// strand up*/down* reachability even though the graph stays weakly
// connected.
type Event struct {
	// Cycle is the simulation cycle the event applies at.
	Cycle int64 `json:"cycle"`
	// Fail lists the channels that die at Cycle.
	Fail []topology.ChannelID `json:"fail,omitempty"`
}

// RandomSchedule builds a seeded, connectivity-preserving fault schedule:
// faults bidirectional links fail one per event, the first at start and
// each subsequent one spacing cycles later, chosen by a seeded shuffle of
// the topology's link pairs (topology.RemovableLinks, the picker behind
// topology.Faulted: the same seed fails the same links). Links whose
// cumulative removal would disconnect the network are skipped, as are
// channels without a reverse (none exist in the built-in topologies); if
// fewer than faults links are removable the schedule errors.
//
// The schedule is a pure function of (t, seed, faults, start, spacing) —
// the determinism the byte-identical churn goldens pin.
func RandomSchedule(t topology.Topology, seed int64, faults int, start, spacing int64) ([]Event, error) {
	if faults <= 0 {
		return nil, nil
	}
	links, _ := topology.RemovableLinks(t, seed, faults)
	if len(links) < faults {
		return nil, fmt.Errorf("churn: only %d of %d links removable without disconnecting the network",
			len(links), faults)
	}
	events := make([]Event, len(links))
	for i, l := range links {
		events[i] = Event{Cycle: start + int64(i)*spacing, Fail: []topology.ChannelID{l[0], l[1]}}
	}
	return events, nil
}
