package sim

import (
	"fmt"

	"repro/internal/route"
	"repro/internal/topology"
)

// Live reconfiguration: the two operations a churn supervisor interleaves
// with Advance. Both must be called between cycles (i.e. after Advance
// returns, never concurrently with it).
//
// The protocol for one fault event is:
//
//  1. Advance(ctx, faultCycle) — run up to the fault barrier.
//  2. DisableChannels(requeue, dead...) — mark the channels dead and
//     purge every in-flight packet whose route crosses a dead channel.
//  3. SwapRoutes(escapeSet) — install a route set that avoids the dead
//     channels (typically the up*/down* escape layer), bumping the
//     epoch so only *new* packets use it.
//  4. Advance further; when background re-synthesis delivers a repaired
//     set, SwapRoutes it at the commit barrier.
//
// Step 3 must follow step 2 before the next Advance whenever the current
// table routes any flow over a dead channel: DisableChannels removes
// in-flight state but does not rewrite tables, so packets launched later
// under a stale epoch would be routed into the dead channel as if it
// were alive. The invariant checker (tests) flags that state loudly.

// DisableChannels fails the given channels at the current cycle. Every
// in-flight packet whose routing-table row (under the epoch it was
// launched with) crosses any dead channel is purged from the network:
// its buffered flits are discarded and counted in Result.DroppedFlits,
// claimed VCs are freed, its record is retired, and the packet is either
// discarded (Result.DroppedPackets) or, with requeue set, pushed back
// onto its source queue — as its original creation cycle, which is all a
// queued packet is — to be launched again under the table current at
// that time (Result.RequeuedPackets). The requeue takes no heed of
// maxSourceQueue: a queue generation has already filled ends up past
// the bound by the packets purged from its flow, and the flow generates
// nothing until launches bring it back below.
//
// The purge is conservative: a packet of an affected (epoch, flow) pair
// is removed even when it has already passed the dead channel, because
// in-flight position reconstruction is not worth the bookkeeping — the
// escape swap that follows re-routes the flow anyway.
//
// Faults are cumulative across calls. Calling with no channels is a
// no-op. The returned PurgeStats is this call's delta (the Result fields
// accumulate). Calling it after Run or Finish is a bug, and panics.
func (s *Simulator) DisableChannels(requeue bool, chs ...topology.ChannelID) PurgeStats {
	if s.finished() {
		panic("sim: DisableChannels on a finished Simulator (after Run or Finish)")
	}
	before := PurgeStats{Flits: s.droppedFlits, Packets: s.droppedPackets, Requeued: s.requeuedPkts}
	if len(chs) == 0 {
		return PurgeStats{}
	}
	if s.deadChan == nil {
		s.deadChan = make([]bool, s.mesh.NumChannels())
	}
	for _, ch := range chs {
		s.deadChan[ch] = true
	}

	// A (epoch, flow) pair is affected when its table row references any
	// dead channel. Rows are sparse (one entry per route hop), so the
	// rescan per fault event is noise next to a measured run.
	nf := len(s.cfg.Routes.Routes)
	affected := make([]bool, len(s.tables)*nf)
	for e, t := range s.tables {
		for f := 0; f < nf; f++ {
			if t.crossesDead(f, s.deadChan) {
				affected[e*nf+f] = true
			}
		}
	}
	hit := func(pkt int32) bool {
		p := &s.packets[pkt]
		return affected[int(p.epoch)*nf+int(p.flow)]
	}

	// routePending members are pending but unlinked (next/prev -1, outCh
	// stale): purge them directly — unlink would corrupt a wait list —
	// and rebuild the slice with the survivors. After this, every
	// remaining pending buffer is linked on vaWait[outCh].
	var purged []int32
	seen := make(map[int32]bool)
	note := func(pkt int32) {
		if !seen[pkt] {
			seen[pkt] = true
			purged = append(purged, pkt)
		}
	}
	keep := s.routePending[:0]
	for _, bi := range s.routePending {
		b := &s.bufs[bi]
		if b.owner >= 0 && hit(b.owner) {
			note(b.owner)
			s.clearBuf(bi, b)
			continue
		}
		keep = append(keep, bi)
	}
	s.routePending = keep

	// Full buffer sweep in ascending index order (deterministic): every
	// buffer owned by an affected packet is emptied and freed. Members of
	// a dead channel's wait lists are necessarily affected (their route
	// crosses it), so dead channels quiesce without a separate pass.
	for bi := int32(0); bi < int32(len(s.bufs)); bi++ {
		b := &s.bufs[bi]
		if b.owner < 0 || !hit(b.owner) {
			continue
		}
		note(b.owner)
		if b.active || b.pending {
			s.unlink(bi)
		}
		s.clearBuf(bi, b)
	}

	// Kill in-progress injection transfers of purged packets (their
	// injection buffer was cleared above) and restate the flow-work flag
	// from the source queue alone.
	for fi := range s.transfer {
		tr := &s.transfer[fi]
		if tr.pkt < 0 || !hit(tr.pkt) {
			continue
		}
		note(tr.pkt)
		tr.pkt = -1
		if s.flowWork[fi] && s.srcQueue[fi].len() == 0 {
			s.flowWork[fi] = false
			s.nodeWork[s.flowNode[fi]]--
		}
	}

	// Retire the purged packets' records; re-queue them if asked.
	for _, pkt := range purged {
		s.freePkts = append(s.freePkts, pkt)
		if !requeue {
			s.droppedPackets++
			continue
		}
		p := &s.packets[pkt]
		s.enqueue(p.flow, p.createT) // total latency still counts from creation
		s.requeuedPkts++
	}
	ps := PurgeStats{
		Flits:    s.droppedFlits - before.Flits,
		Packets:  s.droppedPackets - before.Packets,
		Requeued: s.requeuedPkts - before.Requeued,
	}
	// Fault events are rare next to cycles, so the by-name lookups (and
	// the nil-collector no-op) are noise here.
	m := s.cfg.Metrics
	m.Counter("sim_purged_flits_total").Add(ps.Flits)
	m.Counter("sim_purged_packets_total").Add(ps.Packets)
	m.Counter("sim_requeued_packets_total").Add(ps.Requeued)
	return ps
}

// PurgeStats is the in-flight state one DisableChannels call removed.
type PurgeStats struct {
	// Flits discarded from network buffers.
	Flits int64
	// Packets retired entirely (drop policy).
	Packets int64
	// Requeued packets pushed back to their source queues (requeue policy).
	Requeued int64
}

// clearBuf discards buffer bi's flits (counting them dropped), frees its
// VC, and wakes whoever the freed VC may unblock: a channel's VA waiters
// exactly as release would, or an injection buffer's node.
func (s *Simulator) clearBuf(bi int32, b *vcBuf) {
	o := &s.occ[bi]
	s.droppedFlits += int64(o.count)
	s.inFlight -= int64(o.count)
	o.count, o.head = 0, 0
	b.owner = -1
	b.active, b.eject, b.pending = false, false, false
	if bi >= s.injBase {
		s.wakeInj(s.bufNode[bi])
	} else if ch := bi / s.nVCs; s.vaWait[ch] >= 0 {
		s.vaFlag(ch)
	}
}

// SwapRoutes atomically installs set as the routing table for packets
// launched from now on, bumping the epoch. In-flight packets finish on
// the table of their launch epoch (see packet.epoch), so the swap never
// strands or mis-ejects a mid-route packet. The set must cover the same
// flows (same order, same endpoints) as the original configuration and
// must not cross any currently dead channel. After Run or Finish it
// returns an error.
func (s *Simulator) SwapRoutes(set *route.Set) error {
	if s.finished() {
		return errFinished("SwapRoutes")
	}
	orig := s.cfg.Routes.Routes
	if len(set.Routes) != len(orig) {
		return fmt.Errorf("sim: SwapRoutes got %d routes, config has %d flows", len(set.Routes), len(orig))
	}
	if err := set.Validate(s.cfg.VCs); err != nil {
		return fmt.Errorf("sim: SwapRoutes: %w", err)
	}
	for i, r := range set.Routes {
		if r.Flow.Src != orig[i].Flow.Src || r.Flow.Dst != orig[i].Flow.Dst {
			return fmt.Errorf("sim: SwapRoutes route %d is %d->%d, flow %s needs %d->%d",
				i, r.Flow.Src, r.Flow.Dst, orig[i].Flow.Name, orig[i].Flow.Src, orig[i].Flow.Dst)
		}
		if s.deadChan != nil {
			for _, ch := range r.Channels {
				if s.deadChan[ch] {
					return fmt.Errorf("sim: SwapRoutes route for flow %s crosses dead channel %d", r.Flow.Name, ch)
				}
			}
		}
	}
	tbl := new(routingTable)
	tbl.build(set)
	s.tables = append(s.tables, tbl)
	s.curEpoch++
	return nil
}
