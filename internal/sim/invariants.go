package sim

import (
	"fmt"

	"repro/internal/topology"
)

// Full-scan cross-check of the active-set scheduler. The production loop
// never scans the whole network; this checker does exactly that — using
// the topology's precomputed destination-ordered input index — and
// verifies that the incrementally maintained sets describe the same
// state. Tests enable it via checkEvery; it is never run on the hot
// path.
//
// Invariants checked (DESIGN.md §8):
//
//  1. Every inactive non-empty buffer is queued in routePending, and
//     every routePending member is inactive, non-empty, and flagged.
//  2. Every active non-eject buffer is linked on chanWait[outCh], every
//     active eject buffer on ejectWait[node], and the lists contain
//     nothing else. Non-empty lists are registered in the active sets.
//  3. A buffer holds at most depth flits, and a non-empty one holds
//     positions [head, head+count) of its owner: count > 0 implies
//     owner >= 0 and head+count <= PacketLen.
//  4. inFlight equals the total buffered flit count.
//  5. flowWork matches queue/transfer state and nodeWork counts the
//     flows with work. A node with work is in activeInj or asleep:
//     no flow there can launch (no idle flow with a queued packet while
//     an injection VC is free), and every active transfer's buffer holds
//     depth flits. A source queue's chunk run holds exactly the encoded
//     bytes of its entries (sourceQueue.check), an empty queue holds no
//     chunk, and the queues and the pool's free list together hold every
//     chunk the pool allocated.
//  6. The active sets hold each member once and only while flagged, and
//     the deferred effects (pops, occ popCnt, arrivals, resumes) are
//     fully drained between cycles.
//  7. Packet records: every index of the arena is either in freePkts or
//     live — the owner of at least one buffer, so the arena holds at most
//     len(bufs) records — and an active transfer streams a live packet
//     of its own flow. The hop cursor, which RC trusts blindly, agrees
//     with the network: a channel buffer whose head flit is a header of
//     packet p is the channel (under static allocation, also the VC) of
//     entry p.hop-1 of p's table row, and an injection buffer holds
//     headers at hop 0.
func (s *Simulator) checkInvariants() error {
	nc := s.mesh.NumChannels()
	nn := s.mesh.NumNodes()

	// Collect wait-list membership by walking every list once.
	onChan := make(map[int32]int32, len(s.bufs)) // buf -> channel
	for ch := 0; ch < nc; ch++ {
		prev := int32(-1)
		for bi := s.chanWait[ch]; bi >= 0; bi = s.bufs[bi].next {
			if s.bufs[bi].prev != prev {
				return fmt.Errorf("cycle %d: chanWait[%d] broken prev link at buf %d", s.cycle, ch, bi)
			}
			if _, dup := onChan[bi]; dup {
				return fmt.Errorf("cycle %d: buf %d linked twice", s.cycle, bi)
			}
			onChan[bi] = int32(ch)
			prev = bi
		}
		if s.chanWait[ch] >= 0 && !s.chanQueued[ch] {
			return fmt.Errorf("cycle %d: channel %d has waiters but is not active", s.cycle, ch)
		}
	}
	onEject := make(map[int32]int32, 64) // buf -> node
	for n := 0; n < nn; n++ {
		prev := int32(-1)
		for bi := s.ejectWait[n]; bi >= 0; bi = s.bufs[bi].next {
			if s.bufs[bi].prev != prev {
				return fmt.Errorf("cycle %d: ejectWait[%d] broken prev link at buf %d", s.cycle, n, bi)
			}
			if _, dup := onEject[bi]; dup {
				return fmt.Errorf("cycle %d: buf %d eject-linked twice", s.cycle, bi)
			}
			onEject[bi] = int32(n)
			prev = bi
		}
		if s.ejectWait[n] >= 0 && !s.ejectQueued[n] {
			return fmt.Errorf("cycle %d: node %d has eject waiters but is not active", s.cycle, n)
		}
	}
	pending := make(map[int32]bool, 64)
	for _, bi := range s.routePending {
		b := &s.bufs[bi]
		if !b.pending || b.active || s.occ[bi].count == 0 {
			return fmt.Errorf("cycle %d: routePending buf %d in state pending=%v active=%v count=%d",
				s.cycle, bi, b.pending, b.active, s.occ[bi].count)
		}
		if pending[bi] {
			return fmt.Errorf("cycle %d: buf %d in routePending twice", s.cycle, bi)
		}
		pending[bi] = true
	}
	for ch := 0; ch < nc; ch++ {
		prev := int32(-1)
		for bi := s.vaWait[ch]; bi >= 0; bi = s.bufs[bi].next {
			b := &s.bufs[bi]
			if b.prev != prev {
				return fmt.Errorf("cycle %d: vaWait[%d] broken prev link at buf %d", s.cycle, ch, bi)
			}
			if !b.pending || b.active || s.occ[bi].count == 0 || b.outCh != int32(ch) {
				return fmt.Errorf("cycle %d: vaWait[%d] buf %d in state pending=%v active=%v count=%d outCh=%d",
					s.cycle, ch, bi, b.pending, b.active, s.occ[bi].count, b.outCh)
			}
			if pending[bi] {
				return fmt.Errorf("cycle %d: buf %d both in routePending and vaWait", s.cycle, bi)
			}
			pending[bi] = true
			prev = bi
		}
		// Missed-wake check: a free VC that some waiter could claim means
		// the channel must be flagged for the next VA pass.
		if s.vaWait[ch] >= 0 && !s.vaFlagged[ch] {
			for v := int32(0); v < s.nVCs; v++ {
				if s.bufs[int32(ch)*s.nVCs+v].owner >= 0 {
					continue
				}
				for bi := s.vaWait[ch]; bi >= 0; bi = s.bufs[bi].next {
					if s.cfg.DynamicVC || s.bufs[bi].outVC == v {
						return fmt.Errorf("cycle %d: channel %d VC %d free with eligible waiter %d but not flagged",
							s.cycle, ch, v, bi)
					}
				}
			}
		}
	}

	// Full scan over every buffer, iterating nodes and their input
	// channels.
	var totalFlits int64
	scan := func(bi int32, node topology.NodeID) error {
		b, o := &s.bufs[bi], &s.occ[bi]
		if s.bufNode[bi] != int32(node) {
			return fmt.Errorf("buf %d: node %d, expected %d", bi, s.bufNode[bi], node)
		}
		if o.count < 0 || o.count > s.depth || o.head < 0 ||
			o.count > 0 && (b.owner < 0 || int(o.head+o.count) > s.cfg.PacketLen) {
			return fmt.Errorf("buf %d: owner %d holds flits [%d, %d+%d) of a %d-flit packet in a %d-flit buffer",
				bi, b.owner, o.head, o.head, o.count, s.cfg.PacketLen, s.depth)
		}
		totalFlits += int64(o.count)
		if o.count > 0 && o.head == 0 {
			p := &s.packets[b.owner]
			row := s.tables[p.epoch].row(p.flow)
			if bi >= s.injBase {
				if p.hop != 0 {
					return fmt.Errorf("buf %d: header of packet %d at its injection port with hop %d", bi, b.owner, p.hop)
				}
			} else if p.hop < 1 || int(p.hop) > len(row) || int32(row[p.hop-1].next) != bi/s.nVCs ||
				(!s.cfg.DynamicVC && row[p.hop-1].vc != bi%s.nVCs) {
				return fmt.Errorf("buf %d (channel %d vc %d): header of packet %d (flow %d, epoch %d) with hop %d of %d-hop row",
					bi, bi/s.nVCs, bi%s.nVCs, b.owner, p.flow, p.epoch, p.hop, len(row))
			}
		}
		switch {
		case b.active && b.eject:
			if n, ok := onEject[bi]; !ok || n != s.bufNode[bi] || b.pending {
				return fmt.Errorf("buf %d: active eject buffer not on its node's eject list", bi)
			}
		case b.active:
			if ch, ok := onChan[bi]; !ok || ch != b.outCh {
				return fmt.Errorf("buf %d: active buffer not on chanWait[%d]", bi, b.outCh)
			}
			if b.pending {
				return fmt.Errorf("buf %d: active buffer still pending", bi)
			}
		default:
			if _, ok := onChan[bi]; ok {
				return fmt.Errorf("buf %d: inactive buffer on a channel wait list", bi)
			}
			if _, ok := onEject[bi]; ok {
				return fmt.Errorf("buf %d: inactive buffer on an eject list", bi)
			}
			if o.count > 0 && !pending[bi] {
				return fmt.Errorf("buf %d: unrouted header not in routePending", bi)
			}
			if o.count == 0 && b.pending {
				return fmt.Errorf("buf %d: empty buffer marked pending", bi)
			}
		}
		return nil
	}
	for n := 0; n < nn; n++ {
		for _, ch := range s.mesh.InChannels(topology.NodeID(n)) {
			base := int32(ch) * s.nVCs
			for vc := int32(0); vc < s.nVCs; vc++ {
				if err := scan(base+vc, topology.NodeID(n)); err != nil {
					return fmt.Errorf("cycle %d: %w", s.cycle, err)
				}
			}
		}
		base := s.injBase + int32(n)*s.nVCs
		for vc := int32(0); vc < s.nVCs; vc++ {
			if err := scan(base+vc, topology.NodeID(n)); err != nil {
				return fmt.Errorf("cycle %d: %w", s.cycle, err)
			}
		}
	}
	if totalFlits != s.inFlight {
		return fmt.Errorf("cycle %d: %d buffered flits but inFlight=%d", s.cycle, totalFlits, s.inFlight)
	}

	// Dead channels (DisableChannels) must be fully quiesced: no buffered
	// flits, no claimed VCs, and no waiter routed toward them. A violation
	// means a route set crossing a dead channel stayed installed past the
	// fault barrier (see the SwapRoutes contract in churn.go).
	for ch := int32(0); int(ch) < nc && s.deadChan != nil; ch++ {
		if !s.deadChan[ch] {
			continue
		}
		if s.chanWait[ch] >= 0 {
			return fmt.Errorf("cycle %d: dead channel %d has switch-allocation waiters", s.cycle, ch)
		}
		if s.vaWait[ch] >= 0 {
			return fmt.Errorf("cycle %d: dead channel %d has VA waiters", s.cycle, ch)
		}
		for v := int32(0); v < s.nVCs; v++ {
			if bi := ch*s.nVCs + v; s.bufs[bi].owner >= 0 || s.occ[bi].count > 0 {
				return fmt.Errorf("cycle %d: dead channel %d VC %d not quiesced (owner=%d count=%d)",
					s.cycle, ch, v, s.bufs[bi].owner, s.occ[bi].count)
			}
		}
	}

	// Arrival bookkeeping (geometric mode only): every positive-rate flow
	// is either on the wheel — one bit, in the slot of its next arrival,
	// which lies ahead — or paused on a full source queue. A requeue may
	// push a paused flow's queue past the bound, never below it.
	if s.cfg.RateVariation == nil {
		for fi, p := range s.injectProb {
			at := s.arrivalAt[fi]
			set, home := 0, false
			for slot := 0; slot < wheelSlots; slot++ {
				if s.wheel[slot*s.flowWords+fi>>6]&(1<<(fi&63)) != 0 {
					set++
					home = int64(slot) == at&(wheelSlots-1)
				}
			}
			switch {
			case p <= 0:
				if set != 0 || s.flowPaused[fi] {
					return fmt.Errorf("cycle %d: zero-rate flow %d scheduled", s.cycle, fi)
				}
			case s.flowPaused[fi]:
				if set != 0 {
					return fmt.Errorf("cycle %d: paused flow %d still on the arrival wheel", s.cycle, fi)
				}
				if s.srcQueue[fi].len() < maxSourceQueue {
					return fmt.Errorf("cycle %d: flow %d paused with %d queued", s.cycle, fi, s.srcQueue[fi].len())
				}
			case set != 1 || !home || at <= s.cycle:
				return fmt.Errorf("cycle %d: flow %d has %d wheel bits (in slot %d: %v) for its arrival at cycle %d",
					s.cycle, fi, set, at&(wheelSlots-1), home, at)
			}
		}
	}

	// Packet records (7): freePkts and the buffer owners partition the
	// arena.
	free := make([]bool, len(s.packets))
	for _, pkt := range s.freePkts {
		if pkt < 0 || int(pkt) >= len(free) || free[pkt] {
			return fmt.Errorf("cycle %d: freePkts holds packet %d: outside the %d-record arena, or twice",
				s.cycle, pkt, len(free))
		}
		free[pkt] = true
	}
	live := make([]bool, len(s.packets))
	for bi := range s.bufs {
		if pkt := s.bufs[bi].owner; pkt >= 0 {
			if int(pkt) >= len(free) || free[pkt] {
				return fmt.Errorf("cycle %d: buf %d owned by packet %d, which is free or outside the arena", s.cycle, bi, pkt)
			}
			live[pkt] = true
		}
	}
	for pkt := range live {
		if !live[pkt] && !free[pkt] {
			return fmt.Errorf("cycle %d: packet record %d leaked: not free or owner of any buffer", s.cycle, pkt)
		}
	}
	if len(s.packets) > len(s.bufs) {
		return fmt.Errorf("cycle %d: %d packet records for %d buffers", s.cycle, len(s.packets), len(s.bufs))
	}
	for fi := range s.transfer {
		if tr := &s.transfer[fi]; tr.pkt >= 0 && (s.bufs[tr.buf].owner != tr.pkt || s.packets[tr.pkt].flow != int32(fi)) {
			return fmt.Errorf("cycle %d: flow %d streams packet %d (flow %d) into buf %d owned by %d",
				s.cycle, fi, tr.pkt, s.packets[tr.pkt].flow, tr.buf, s.bufs[tr.buf].owner)
		}
	}

	// Injection work accounting.
	workPerNode := make([]int32, nn)
	for fi := range s.srcQueue {
		want := s.srcQueue[fi].len() > 0 || s.transfer[fi].pkt >= 0
		if s.flowWork[fi] != want {
			return fmt.Errorf("cycle %d: flow %d work flag %v, state says %v", s.cycle, fi, s.flowWork[fi], want)
		}
		if want {
			workPerNode[s.flowNode[fi]]++
		}
	}
	for n := 0; n < nn; n++ {
		if s.nodeWork[n] != workPerNode[n] {
			return fmt.Errorf("cycle %d: node %d work count %d, expected %d", s.cycle, n, s.nodeWork[n], workPerNode[n])
		}
		if s.nodeWork[n] > 0 && !s.injQueued[n] {
			if err := s.checkAsleep(int32(n)); err != nil {
				return fmt.Errorf("cycle %d: node %d has work, is not in activeInj, and %w", s.cycle, n, err)
			}
		}
	}

	// Source-queue chunks (5).
	chunks := 0
	for c := s.chunks.free; c != nil; c = c.next {
		chunks++
	}
	for fi := range s.srcQueue {
		k, err := s.srcQueue[fi].check()
		if err != nil {
			return fmt.Errorf("cycle %d: flow %d: %w", s.cycle, fi, err)
		}
		chunks += k
	}
	if chunks != s.chunks.total {
		return fmt.Errorf("cycle %d: queues and free list hold %d chunks, the pool allocated %d", s.cycle, chunks, s.chunks.total)
	}

	// Active sets and deferred effects (6).
	onList := make(map[int32]bool, 16)
	sets := [...]struct {
		name    string
		members []int32
		flagged []bool
	}{
		{"vaRetry", s.vaRetry, s.vaFlagged},
		{"activeChans", s.activeChans, s.chanQueued},
		{"activeEject", s.activeEject, s.ejectQueued},
		{"activeInj", s.activeInj, s.injQueued},
	}
	for _, set := range sets {
		clear(onList)
		for _, x := range set.members {
			if !set.flagged[x] || onList[x] {
				return fmt.Errorf("cycle %d: %d in %s unflagged or twice", s.cycle, x, set.name)
			}
			onList[x] = true
		}
		for x, f := range set.flagged {
			if f && !onList[int32(x)] {
				return fmt.Errorf("cycle %d: %d flagged but not in %s", s.cycle, x, set.name)
			}
		}
	}
	if len(s.pops) != 0 || len(s.arrivals) != 0 || len(s.resumed) != 0 {
		return fmt.Errorf("cycle %d: undrained effects (pops=%d arrivals=%d resumed=%d)",
			s.cycle, len(s.pops), len(s.arrivals), len(s.resumed))
	}
	for bi := range s.occ {
		if s.occ[bi].popCnt != 0 {
			return fmt.Errorf("cycle %d: buf %d popCnt %d between cycles", s.cycle, bi, s.occ[bi].popCnt)
		}
	}
	return nil
}

// check decodes a source queue from its pop reference and returns the
// number of chunks it holds. The chunk run must hold exactly the encoded
// bytes of the queue's entries: n entries, each a delta byte when its
// difference fits one and an escape otherwise, ending at the tail offset
// on the push reference. An empty queue holds no chunk, and its two
// references are equal.
func (q *sourceQueue) check() (int, error) {
	if q.n == 0 {
		if q.head != nil || q.tail != nil || q.hi != 0 || q.ti != 0 || q.pushed != q.popped {
			return 0, fmt.Errorf("empty queue holds a chunk or offsets (%d, %d), or references %d pushed, %d popped",
				q.hi, q.ti, q.pushed, q.popped)
		}
		return 0, nil
	}
	if q.head == nil || q.tail == nil || q.tail.next != nil ||
		q.hi < 0 || q.hi >= chunkBytes || q.ti < 1 || q.ti > chunkBytes {
		return 0, fmt.Errorf("%d queued in a malformed chunk run (offsets %d, %d)", q.n, q.hi, q.ti)
	}
	c, i, chunks := q.head, q.hi, 1
	read := func() (byte, bool) {
		if c == q.tail && i == q.ti {
			return 0, false
		}
		if i == chunkBytes {
			if c = c.next; c == nil {
				return 0, false
			}
			i, chunks = 0, chunks+1
		}
		i++
		return c.b[i-1], true
	}
	ref := q.popped
	for e := int32(0); e < q.n; e++ {
		b, ok := read()
		if !ok {
			return 0, fmt.Errorf("%d queued, but the bytes end after %d entries", q.n, e)
		}
		if b != escape {
			ref += int64(b)
			continue
		}
		var u uint64
		for sh := 0; sh < 64; sh += 8 {
			if b, ok = read(); !ok {
				return 0, fmt.Errorf("entry %d of %d: escape cut short", e, q.n)
			}
			u |= uint64(b) << sh
		}
		if d := uint64(int64(u) - ref); d < escape {
			return 0, fmt.Errorf("entry %d of %d: escape for %d, a delta of %d", e, q.n, int64(u), d)
		}
		ref = int64(u)
	}
	if c != q.tail || i != q.ti {
		return 0, fmt.Errorf("%d entries decoded before the tail offset", q.n)
	}
	if ref != q.pushed {
		return 0, fmt.Errorf("entries decode to %d, the last push was %d", ref, q.pushed)
	}
	return chunks, nil
}

// checkAsleep reports why node n could make progress if visited: a flow
// there could launch into a free injection VC, or an active transfer has
// room in its buffer. Nil means the node is rightly asleep.
func (s *Simulator) checkAsleep(n int32) error {
	freeVC := s.freeInjVC(n) >= 0
	for _, fi := range s.nodeFlows[n] {
		tr := &s.transfer[fi]
		switch {
		case tr.pkt < 0 && s.srcQueue[fi].len() > 0 && freeVC:
			return fmt.Errorf("flow %d could launch into a free injection VC", fi)
		case tr.pkt >= 0 && s.occ[tr.buf].count < s.depth:
			return fmt.Errorf("flow %d streams into buf %d holding %d of %d flits", fi, tr.buf, s.occ[tr.buf].count, s.depth)
		}
	}
	return nil
}
