package sim

import (
	"math"
	"math/bits"
)

// Packet generation. Without a RateVariation hook, each flow is an
// independent Bernoulli(p) process exactly as before, but sampled by
// geometric inter-arrival inversion: one RNG draw per *packet* instead of
// one per flow per cycle. A flow's next arrival cycle sits in arrivalAt
// and its bit in slot arrivalAt mod wheelSlots of a timing wheel (one
// bitset over flows per slot), which generate() drains every cycle: a
// cycle costs one word per 64 flows plus one draw per packet due, and no
// ordering structure is kept per packet. Generating a packet pushes its
// creation cycle onto the flow's source queue and reschedules the flow;
// no record exists until launch (buffers.go), so a saturated flow's
// backlog costs one byte a packet (the gap since the packet before it).
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

// wheelSlots is the timing wheel's lap, a power of two so that a cycle's
// slot is a mask. A flow due further ahead keeps its bit in its slot and
// is skipped once per lap until its cycle comes.
const wheelSlots = 64

// schedule sets flow fi's next arrival to cycle at.
func (s *Simulator) schedule(fi int32, at int64) {
	s.arrivalAt[fi] = at
	s.wheel[int(at&(wheelSlots-1))*s.flowWords+int(fi>>6)] |= 1 << (fi & 63)
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

// initArrivals builds the wheel and schedules every flow's first
// arrival, drawing in flow order. The first success of a Bernoulli(p)
// process starting at cycle 0 lands after geomGap-1 failures.
func (s *Simulator) initArrivals() {
	s.flowWords = (len(s.injectProb) + 63) / 64
	s.wheel = make([]uint64, wheelSlots*s.flowWords)
	s.arrivalAt = make([]int64, len(s.injectProb))
	for i, p := range s.injectProb {
		if p > 0 {
			s.schedule(int32(i), s.geomGap(int32(i))-1)
		}
	}
}

// generate creates the packets due this cycle. Every gap is at least one
// cycle and generate runs every cycle, so the flows due now are exactly
// those with arrivalAt == cycle, and draining the slot in ascending flow
// order visits them in (cycle, flow) order: the order the RNG stream is
// pinned to.
func (s *Simulator) generate() {
	if s.cfg.RateVariation != nil {
		s.generateVariation()
		return
	}
	slot := s.wheel[int(s.cycle&(wheelSlots-1))*s.flowWords:][:s.flowWords]
	for w, word := range slot {
		for ; word != 0; word &= word - 1 {
			fi := int32(w<<6 | bits.TrailingZeros64(word))
			if s.arrivalAt[fi] != s.cycle {
				continue // due on a later lap
			}
			// Clear before rescheduling: a gap that is a multiple of
			// wheelSlots lands back in this slot.
			slot[w] &^= 1 << (fi & 63)
			if s.srcQueue[fi].len() >= maxSourceQueue {
				// Source queue full: open-loop generation pauses, dropping
				// the due arrival just as the seed core suppressed Bernoulli
				// trials while full. The flow leaves the wheel (saturated
				// flows would otherwise fire every cycle); injectNode
				// restarts the process when a slot frees.
				s.flowPaused[fi] = true
				continue
			}
			s.emit(fi)
			s.schedule(fi, s.cycle+s.geomGap(fi))
		}
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
// source queue and, when the flow had no work, wakes its node: the
// packet may claim a VC the node's other flows left free. A packet
// behind others of its flow changes nothing a sleeping node waits on.
// Sequential only (generation, churn requeue).
func (s *Simulator) enqueue(fi int32, createT int64) {
	s.srcQueue[fi].push(&s.chunks, createT)
	if !s.flowWork[fi] {
		s.flowWork[fi] = true
		n := s.flowNode[fi]
		s.nodeWork[n]++
		s.wakeInj(n)
	}
}
