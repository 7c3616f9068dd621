package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// arena is every slice one Simulator needs, plus its RNG and the slabs
// of its chunk pool: all the memory a run's size decides. A released
// arena waits (see lastArena) for the next New, which resizes each slice to
// its own config in place, so a sweep of runs pays for its largest
// network and deepest backlog once, not once a run.
//
// An arena is owned by one Simulator from New to the end of its run
// (RunContext returning, or Finish): putArena hands it back and leaves
// the Simulator holding none of it. Nothing of an arena outlives the
// run in a Result.
type arena struct {
	occ     []occupancy // per buffer: head, count, deferred pops
	bufs    []vcBuf     // per buffer: route, wait-list links, flags
	bufNode []int32     // per buffer: the node it sits at

	packets  []packet // launched packets only; see packet in buffers.go
	freePkts []int32  // retired records, reused by the next launches

	// Per-flow injection state.
	injectProb []float64     // packets/cycle at OfferedRate (base demands)
	invLogQ    []float64     // 1/ln(1-p) per flow, 0 when p >= 1 (gap is 1)
	arrivalAt  []int64       // per flow: cycle of the next arrival (while on the wheel)
	wheel      []uint64      // wheelSlots rows of flowWords: slot c%wheelSlots's flows
	srcQueue   []sourceQueue // per flow: creation cycles of queued packets
	chunks     chunkPool     // backs every source queue
	transfer   []injTransfer
	flowNode   []int32 // source node per flow
	flowPaused []bool  // arrival due but source queue full; resumed on pop

	// Active sets.
	routePending []int32 // buffers with an unrouted header at their head
	vaRetry      []int32 // channels flagged for the next VA pass
	activeChans  []int32 // channels with routed waiters
	activeEject  []int32 // nodes with ejecting waiters
	activeInj    []int32 // awake nodes with injection work (see wakeInj)
	scratch      []int32 // arbitration candidates

	// Effects deferred to commit.
	pops     []int32 // buffers dequeued this cycle (dups allowed)
	arrivals []int32 // buffers receiving a flit this cycle (dups allowed)
	resumed  []int32 // flows whose arrival process restarts this cycle

	vaWait      []int32 // per channel: head of VA-stalled wait list, -1 empty
	vaFlagged   []bool  // per channel: queued in vaRetry
	chanWait    []int32 // per channel: head of routed-VC wait list, -1 empty
	ejectWait   []int32 // per node: head of ejecting-VC wait list, -1 empty
	chanQueued  []bool
	ejectQueued []bool
	injQueued   []bool
	flowWork    []bool  // flow has queued packets or an active transfer
	nodeWork    []int32 // number of flows with work per node

	// Round-robin pointers.
	rrOut  []int // per channel: switch-allocation priority
	rrEjct []int // per node
	rrInj  []int // per node: flow service order

	// nodeFlows[node] lists flow indices sourced at node.
	nodeFlows [][]int32

	// measurement accumulators
	perFlow    []int64
	perFlowLat []stats.Summary

	// tables holds one flat routing table per epoch; SwapRoutes appends.
	// Every table is retained for the lifetime of the run: in-flight
	// packets look up the epoch they were launched under, and with a
	// bounded number of swaps (one escape + one repair per fault event)
	// the retained set stays small. tables[0] is table, the one the
	// arena keeps; a swapped-in table is the run's own.
	tables []*routingTable
	table  routingTable

	// ownRNG is re-seeded by every New; Simulator.rng points at it.
	ownRNG *rand.Rand
}

// Released arenas wait for any goroutine's next New in two places. The
// newest is in lastArena, which the collector leaves alone, so a
// sequential caller — one run after another on one goroutine — always
// gets it back. Older ones are in arenas, for concurrent callers, and
// the collector may drop them. The pool alone is not enough: it keeps an
// arena in a per-P slot that a collection moves to a victim slot only
// the same P reads, so a goroutine that comes back from a collection on
// another P misses it and rebuilds the whole arena (EXPERIMENTS.md, "A
// simulation allocates only its answer").
var (
	lastArena atomic.Pointer[arena]
	arenas    = sync.Pool{New: func() any { return new(arena) }}
)

// resized returns s with length n and every element zero, reusing its
// backing array when that is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// emptied returns s with length 0 and capacity at least n.
func emptied[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// takeArena claims a released arena, or a zero one, for a run seeded
// with seed. The slices keep their contents until New resizes them; the
// RNG is ready.
func (s *Simulator) takeArena(seed int64) {
	if s.box = lastArena.Swap(nil); s.box == nil {
		s.box = arenas.Get().(*arena)
	}
	s.arena = *s.box
	if s.ownRNG == nil {
		s.ownRNG = rand.New(rand.NewSource(seed))
	} else {
		s.ownRNG.Seed(seed) // the stream of rand.New(rand.NewSource(seed))
	}
	s.rng = s.ownRNG
}

// putArena releases s's arena for the next New and leaves s finished:
// every method that would touch the arena checks finished first.
func (s *Simulator) putArena() {
	clear(s.tables) // swapped-in tables and the pointer into s
	s.tables = s.tables[:0]
	s.chunks = s.chunks.recycled()
	*s.box = s.arena
	if older := lastArena.Swap(s.box); older != nil {
		arenas.Put(older)
	}
	s.arena, s.box, s.rng = arena{}, nil, nil
}

// finished reports whether s's run has ended and its arena gone back.
func (s *Simulator) finished() bool { return s.box == nil }
