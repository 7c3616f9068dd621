package sim

import (
	"fmt"

	"repro/internal/route"
	"repro/internal/topology"
)

// tableEntry is one routing decision: the output channel to take and the
// statically allocated VC there.
type tableEntry struct {
	next topology.ChannelID
	vc   int32
}

// routingTable is the programmable routing state of one epoch. It makes
// the decisions of the thesis' node-table architecture (§4.2.1) but is
// laid out the way source routing carries a route: each flow's row is its
// route in hop order — one entry per channel, in one shared arena, never
// flows x channels (half a gigabyte for a 64x64 transpose) — and a packet
// addresses the row with its own cursor, packet.hop. Entry h is the
// decision for a header that has crossed h channels (0 at the injection
// port); a cursor at the row's end means eject. RC is one indexed load
// per packet per hop with no key to search, and nothing in it checks that
// the cursor agrees with the buffer the header sits in; the invariant
// checker does (invariants.go, 7).
type routingTable struct {
	// off[f]..off[f+1] bounds flow f's row in ents.
	off  []int32
	ents []tableEntry
}

func buildTable(set *route.Set) (*routingTable, error) {
	total := 0
	for _, r := range set.Routes {
		total += len(r.Channels)
	}
	t := &routingTable{
		off:  make([]int32, len(set.Routes)+1),
		ents: make([]tableEntry, 0, total),
	}
	for i, r := range set.Routes {
		if len(r.Channels) == 0 {
			return nil, fmt.Errorf("sim: flow %s has no route", r.Flow.Name)
		}
		for h, ch := range r.Channels {
			t.ents = append(t.ents, tableEntry{next: ch, vc: int32(r.VCs[h])})
		}
		t.off[i+1] = int32(len(t.ents))
	}
	return t, nil
}

// row returns flow f's route-order entries.
func (t *routingTable) row(f int32) []tableEntry {
	return t.ents[t.off[f]:t.off[f+1]]
}

// crossesDead reports whether flow f's route references any channel
// marked in dead — the churn purge predicate.
func (t *routingTable) crossesDead(f int, dead []bool) bool {
	for _, e := range t.row(int32(f)) {
		if dead[e.next] {
			return true
		}
	}
	return false
}
