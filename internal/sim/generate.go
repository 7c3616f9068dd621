package sim

import "math"

// Packet generation. Without a RateVariation hook, each flow is an
// independent Bernoulli(p) process exactly as before, but sampled by
// geometric inter-arrival inversion: one RNG draw per *packet* instead of
// one per flow per cycle, with the next arrival of every flow kept in a
// (cycle, flow)-ordered binary min-heap that generate() drains up to the
// current cycle. A 16x16 mesh at low load thus costs a couple of heap
// peeks per cycle instead of hundreds of uniform draws. Generating a
// packet pushes its creation cycle onto the flow's source queue and
// replaces the flow's heap entry in place; no record exists until launch
// (buffers.go), so a saturated flow's backlog costs one int64 a packet.
//
// The arrival processes are distribution-identical to the per-cycle
// Bernoulli draws — including while a full source queue suppresses
// generation, where resumption is memoryless (see injectNode) — but the
// RNG stream is consumed in a different order, so per-seed results
// differ numerically from the pre-refactor core while remaining
// statistically equivalent (pinned by the golden tests, see
// golden_test.go and DESIGN.md §8).
//
// With RateVariation set, p changes every cycle and inter-arrival
// inversion does not apply; generateVariation keeps the per-cycle
// Bernoulli draw but hoists the OfferedRate/demandSum division out of
// the flow loop. The hook is still called exactly once per flow per
// cycle — Markov-modulated processes advance their state per call and
// must observe every cycle.

// arrival schedules flow's next packet at cycle at.
type arrival struct {
	at   int64
	flow int32
}

// arrivalHeap is a hand-rolled binary min-heap ordered by (at, flow);
// the flow tiebreak makes the drain order — and therefore the RNG
// stream — deterministic for a fixed seed.
type arrivalHeap []arrival

func (h arrivalHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].flow < h[j].flow)
}

func (h *arrivalHeap) push(a arrival) {
	*h = append(*h, a)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !hh.less(i, p) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
}

func (h *arrivalHeap) pop() arrival {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	*h = hh[:n]
	hh[:n].siftDown()
	return top
}

// replaceTop overwrites the minimum with a: one sift-down where pop +
// push pays two sifts, and the same drain order (heap layout is not
// observable, only the (at, flow) order is).
func (h arrivalHeap) replaceTop(a arrival) {
	h[0] = a
	h.siftDown()
}

// siftDown restores heap order after h[0] changed.
func (h arrivalHeap) siftDown() {
	n := len(h)
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// geomGap samples the number of cycles until flow's next Bernoulli
// success (geometric distribution, support >= 1) by inversion: one
// uniform draw and one log per packet, against the flow's precomputed
// 1/ln(1-p).
func (s *Simulator) geomGap(flow int32) int64 {
	inv := s.invLogQ[flow]
	if inv == 0 {
		return 1 // p >= 1: a success every cycle
	}
	u := s.rng.Float64()
	g := 1 + int64(math.Log1p(-u)*inv)
	if g < 1 {
		g = 1
	}
	return g
}

// initArrivals seeds the heap with every flow's first arrival, in flow
// order. The first success of a Bernoulli(p) process starting at cycle 0
// lands after geomGap-1 failures.
func (s *Simulator) initArrivals() {
	for i, p := range s.injectProb {
		if p <= 0 {
			continue
		}
		s.arrivals.push(arrival{at: s.geomGap(int32(i)) - 1, flow: int32(i)})
	}
}

// generate creates the packets due this cycle.
func (s *Simulator) generate() {
	if s.cfg.RateVariation != nil {
		s.generateVariation()
		return
	}
	for len(s.arrivals) > 0 && s.arrivals[0].at <= s.cycle {
		fi := s.arrivals[0].flow
		if s.srcQueue[fi].len() >= maxSourceQueue {
			// Source queue full: open-loop generation pauses, dropping
			// the due arrival just as the seed core suppressed Bernoulli
			// trials while full. The flow leaves the heap entirely
			// (saturated flows would otherwise churn it every cycle);
			// injectNode restarts the process when a slot frees.
			s.flowPaused[fi] = true
			s.arrivals.pop()
			continue
		}
		s.emit(fi)
		s.arrivals.replaceTop(arrival{at: s.cycle + s.geomGap(fi), flow: fi})
	}
}

// generateVariation is the per-cycle Bernoulli path used when a
// RateVariation hook supplies time-varying demands. The hook runs once
// per flow per cycle (its Markov state must advance every cycle), and
// the offered-rate normalization is hoisted out of the loop.
func (s *Simulator) generateVariation() {
	scale := 0.0
	if s.demandSum > 0 {
		scale = s.cfg.OfferedRate / s.demandSum
	}
	hook := s.cfg.RateVariation
	for i := range s.injectProb {
		p := scale * hook(i)
		if p <= 0 || s.srcQueue[i].len() >= maxSourceQueue {
			continue
		}
		if p < 1 && s.rng.Float64() >= p {
			continue
		}
		s.emit(int32(i))
	}
}

// emit generates one packet on flow fi; until launch it is only its
// creation cycle in the source queue (injectNode makes the record).
func (s *Simulator) emit(fi int32) {
	if s.cycle >= s.cfg.WarmupCycles {
		s.mInjected++
	}
	s.enqueue(fi, s.cycle)
}

// enqueue puts a packet created at createT at the back of flow fi's
// source queue and flags its node for injection work. Sequential only
// (generation, churn requeue).
func (s *Simulator) enqueue(fi int32, createT int64) {
	s.srcQueue[fi].push(createT)
	if !s.flowWork[fi] {
		s.flowWork[fi] = true
		n := s.flowNode[fi]
		s.nodeWork[n]++
		if !s.injQueued[n] {
			s.injQueued[n] = true
			sh := &s.shards[s.shardOfNode[n]]
			sh.activeInj = append(sh.activeInj, n)
		}
	}
}
