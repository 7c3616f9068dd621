package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Simulator holds the full network state for one run.
//
// The core is data-oriented: per-cycle work is proportional to the
// *activity* in the network, not its size. Every stage consumes an
// incrementally maintained active set instead of scanning all buffers:
//
//   - generate() drains one slot of the arrival wheel (generate.go) —
//     one word per 64 flows plus O(packets due).
//   - injectShard visits only nodes in the shard's activeInj, the nodes
//     whose flows have queued packets or in-progress transfers.
//   - routeShard visits only routePending, the buffers whose head flit
//     is an unrouted header (entered when a header lands in an empty
//     inactive buffer, left on successful VC allocation).
//   - switchShard/ejectShard visit only activeChans/activeEject, the
//     channels and nodes with at least one routed VC on their intrusive
//     wait list (entered at VA, left when the tail departs).
//
// An idle 16x16 network therefore simulates a cycle in a handful of
// branch checks; a loaded one pays per in-flight packet, never per
// buffer. See buffers.go for the flat buffer layout, shard.go for the
// spatial decomposition that runs these stages on Config.Workers
// goroutines with byte-identical results at any worker count, and
// DESIGN.md §8/§15 for the invariants (which internal tests cross-check
// against a full scan).
type Simulator struct {
	cfg  Config
	mesh topology.Topology
	// tables holds one flat routing table per epoch; SwapRoutes appends.
	// Every table is retained for the lifetime of the run: in-flight
	// packets look up the epoch they were launched under, and with a
	// bounded number of swaps (one escape + one repair per fault event)
	// the retained set stays small.
	tables   []*routingTable
	curEpoch int32
	// deadChan marks channels failed by DisableChannels; nil until the
	// first fault (zero-churn runs never allocate or consult it).
	deadChan []bool
	rng      *rand.Rand

	// Flat geometry: see buffers.go.
	nVCs    int32
	depth   int32
	injBase int32 // flat index of the first injection buffer

	bufs      []vcBuf
	stagedCnt []int32 // per injection buffer: deliveries staged this cycle

	packets  []packet // launched packets only; see packet in buffers.go
	freePkts []int32  // retired records not yet in a shard's launch stock

	// Per-flow injection state.
	injectProb []float64 // packets/cycle at OfferedRate (base demands)
	invLogQ    []float64 // 1/ln(1-p) per flow, 0 when p >= 1 (gap is 1)
	demandSum  float64
	arrivalAt  []int64  // per flow: cycle of the next arrival (while on the wheel)
	wheel      []uint64 // wheelSlots rows of flowWords: slot c%wheelSlots's flows
	flowWords  int
	srcQueue   []cycleRing // per flow: creation cycles of queued packets
	transfer   []injTransfer
	flowNode   []int32 // source node per flow
	flowPaused []bool  // arrival due but source queue full; resumed on pop

	// Spatial decomposition (shard.go). Active sets live per shard; the
	// membership flags and wait-list heads below are global arrays whose
	// entries are each touched by exactly one shard.
	workers       int
	nShards       int32
	shardOfNode   []int32
	shardOfChan   []int32
	shards        []simShard
	pool          *simPool
	popCnt        []int32 // per buffer: dequeues deferred within the cycle
	resumeScratch []int32

	vaWait      []int32 // per channel: head of VA-stalled wait list, -1 empty
	vaFlagged   []bool  // per channel: queued in its shard's vaRetry
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

	cycle     int64
	lastMove  int64
	inFlight  int64 // flits currently inside buffers
	delivered int64
	flitHops  int64

	// Fault accounting (see DisableChannels).
	droppedFlits   int64
	droppedPackets int64
	requeuedPkts   int64

	// checkEvery > 0 runs the full-scan invariant checker every that many
	// cycles (tests only; see invariants.go).
	checkEvery int64

	// measurement accumulators
	mInjected    int64
	mDelivered   int64
	mLatencySum  int64
	mTotalLatSum int64
	perFlow      []int64
	perFlowLat   []stats.Summary
	latencyHist  *stats.Histogram

	// Out-of-band instruments (nil when Config.Metrics is nil); flushed
	// at the 1024-cycle poll point, never inside the per-cycle path.
	mCycles      *metrics.Counter
	mActiveSet   *metrics.Gauge
	mShardActive []*metrics.Gauge
	mFlushedCycl int64
}

type injTransfer struct {
	pkt     int32 // -1 when idle
	nextIdx int16
	buf     int32 // flat injection-buffer index being streamed into
}

// New builds a simulator; Run executes it. A Simulator is single-use.
func New(cfg Config) (*Simulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tbl, err := buildTable(cfg.Routes)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:     cfg,
		mesh:    cfg.Mesh,
		tables:  []*routingTable{tbl},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		workers: cfg.Workers,
	}
	nc := s.mesh.NumChannels()
	nn := s.mesh.NumNodes()
	s.nVCs = int32(cfg.VCs)
	s.depth = int32(cfg.BufDepth)
	s.injBase = int32(nc) * s.nVCs
	nBufs := int32(nc+nn) * s.nVCs
	s.bufs = make([]vcBuf, nBufs)
	s.stagedCnt = make([]int32, nBufs)
	for bi := range s.bufs {
		b := &s.bufs[bi]
		b.owner, b.next, b.prev = -1, -1, -1
		if int32(bi) < s.injBase {
			b.node = int32(s.mesh.Channel(topology.ChannelID(int32(bi) / s.nVCs)).Dst)
		} else {
			b.node = (int32(bi) - s.injBase) / s.nVCs
		}
	}
	s.initShards()
	flows := cfg.Routes.Routes
	s.injectProb = make([]float64, len(flows))
	s.srcQueue = make([]cycleRing, len(flows))
	s.transfer = make([]injTransfer, len(flows))
	s.flowNode = make([]int32, len(flows))
	s.flowWork = make([]bool, len(flows))
	s.perFlow = make([]int64, len(flows))
	s.nodeFlows = make([][]int32, nn)
	for i, r := range flows {
		s.demandSum += r.Flow.Demand
		s.transfer[i].pkt = -1
		s.flowNode[i] = int32(r.Flow.Src)
		s.nodeFlows[r.Flow.Src] = append(s.nodeFlows[r.Flow.Src], int32(i))
	}
	s.invLogQ = make([]float64, len(flows))
	for i, r := range flows {
		if s.demandSum > 0 {
			s.injectProb[i] = cfg.OfferedRate * r.Flow.Demand / s.demandSum
		}
		if p := s.injectProb[i]; p > 0 && p < 1 {
			s.invLogQ[i] = 1 / math.Log1p(-p)
		}
	}
	s.chanWait = make([]int32, nc)
	s.vaWait = make([]int32, nc)
	s.ejectWait = make([]int32, nn)
	for i := range s.chanWait {
		s.chanWait[i] = -1
		s.vaWait[i] = -1
	}
	for i := range s.ejectWait {
		s.ejectWait[i] = -1
	}
	s.vaFlagged = make([]bool, nc)
	s.flowPaused = make([]bool, len(flows))
	s.chanQueued = make([]bool, nc)
	s.ejectQueued = make([]bool, nn)
	s.injQueued = make([]bool, nn)
	s.nodeWork = make([]int32, nn)
	s.rrOut = make([]int, nc)
	s.rrEjct = make([]int, nn)
	s.rrInj = make([]int, nn)
	s.perFlowLat = make([]stats.Summary, len(flows))
	s.latencyHist = stats.NewHistogram(0, 4096, 256)
	if cfg.Metrics != nil {
		s.mCycles = cfg.Metrics.Counter("sim_cycles_total")
		s.mActiveSet = cfg.Metrics.Gauge("sim_active_set_size")
		cfg.Metrics.Gauge("sim_shards").Set(int64(s.nShards))
		if s.nShards > 1 {
			s.mShardActive = make([]*metrics.Gauge, s.nShards)
			for i := range s.mShardActive {
				s.mShardActive[i] = cfg.Metrics.Gauge(fmt.Sprintf("sim_shard_active_set_%02d", i))
			}
		}
	}
	if cfg.RateVariation == nil {
		s.initArrivals()
	}
	return s, nil
}

// Run simulates warmup plus measurement and returns the result.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: a sequential run
// polls ctx every 1024 simulated cycles (amortized to a no-op against
// the per-cycle work); a parallel run (Workers > 1) polls every cycle at
// the barrier, so cancellation is never delayed behind a long stride. A
// cancelled run yields no Result — partial statistics from a truncated
// measurement window would be silently biased toward warm-up behavior.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	deadlocked, err := s.advance(ctx, total)
	if err != nil {
		return nil, err
	}
	return s.buildResult(deadlocked), nil
}

// Advance steps the simulation forward to absolute cycle target (a no-op
// when already there), for callers that interleave simulation with live
// reconfiguration — apply faults with DisableChannels, swap tables with
// SwapRoutes, then Advance again. It reports whether the deadlock
// watchdog fired; after a deadlock the state is frozen and further calls
// return immediately. Collect the final statistics with Finish.
func (s *Simulator) Advance(ctx context.Context, target int64) (deadlocked bool, err error) {
	return s.advance(ctx, target)
}

// Cycle returns the current simulation cycle.
func (s *Simulator) Cycle() int64 { return s.cycle }

// DeliveredTotal returns packets delivered since cycle 0 (warmup
// included), the raw series churn supervisors difference to measure
// throughput dips.
func (s *Simulator) DeliveredTotal() int64 { return s.delivered }

// Epoch returns the current routing-table epoch (0 before any swap).
func (s *Simulator) Epoch() int32 { return s.curEpoch }

// Finish assembles the Result after stepping with Advance.
func (s *Simulator) Finish(deadlocked bool) *Result { return s.buildResult(deadlocked) }

// advance runs the cycle loop up to (not past) absolute cycle target.
// On deadlock it returns with s.cycle frozen at the detecting cycle,
// matching the pre-stepping-API behavior of Run (Result.Cycles reports
// the cycle the watchdog fired on). Worker goroutines live exactly as
// long as this call: every return path joins them.
func (s *Simulator) advance(ctx context.Context, target int64) (deadlocked bool, err error) {
	stop := s.startPool()
	defer stop()
	parallel := s.pool != nil
	for ; s.cycle < target; s.cycle++ {
		if s.cycle&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			s.flushMetrics()
		} else if parallel {
			// Per-cycle poll at the barrier: a parallel run must not sit
			// on a cancelled context for up to 1024 cycles' worth of
			// multi-goroutine work.
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		s.generate()
		s.runPhase(phaseRoute)
		s.runPhase(phaseSwitch)
		s.runPhase(phaseCommit)
		s.postCycle()
		if s.checkEvery > 0 && s.cycle%s.checkEvery == 0 {
			if err := s.checkInvariants(); err != nil {
				return false, err
			}
		}
		if s.inFlight > 0 && s.cycle-s.lastMove > s.cfg.DeadlockCycles {
			return true, nil
		}
	}
	return false, nil
}

// flushMetrics pushes the cycle delta since the last flush and the
// current active-set sizes (aggregate, and per shard when the topology
// shards at all) to the collector. Called at the 1024-cycle poll point
// and once at result build, so instrumentation overhead is amortized to
// nothing against the per-cycle work.
func (s *Simulator) flushMetrics() {
	if s.mCycles == nil {
		return
	}
	s.mCycles.Add(s.cycle - s.mFlushedCycl)
	s.mFlushedCycl = s.cycle
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		n := len(sh.routePending) + len(sh.activeChans) + len(sh.activeEject) + len(sh.activeInj)
		total += n
		if s.mShardActive != nil {
			s.mShardActive[i].Set(int64(n))
		}
	}
	s.mActiveSet.Set(int64(total))
}

func (s *Simulator) buildResult(deadlocked bool) *Result {
	s.flushMetrics()
	for i := range s.shards {
		// Shard histograms share lo/hi/buckets with latencyHist, so the
		// merge cannot fail; a mismatch would be a construction bug.
		if err := s.latencyHist.Merge(s.shards[i].hist); err != nil {
			panic(err)
		}
		s.shards[i].hist = stats.NewHistogram(0, 4096, 256)
	}
	res := &Result{
		Cycles:           s.cycle,
		PacketsInjected:  s.mInjected,
		PacketsDelivered: s.mDelivered,
		PerFlowDelivered: s.perFlow,
		FlitHops:         s.flitHops,
		Deadlocked:       deadlocked,
		DroppedFlits:     s.droppedFlits,
		DroppedPackets:   s.droppedPackets,
		RequeuedPackets:  s.requeuedPkts,
	}
	if s.cfg.MeasureCycles > 0 {
		res.Throughput = float64(s.mDelivered) / float64(s.cfg.MeasureCycles)
	}
	if s.mDelivered > 0 {
		res.AvgLatency = float64(s.mLatencySum) / float64(s.mDelivered)
		res.AvgTotalLatency = float64(s.mTotalLatSum) / float64(s.mDelivered)
		res.LatencyP50 = s.latencyHist.Percentile(50)
		res.LatencyP95 = s.latencyHist.Percentile(95)
		res.LatencyP99 = s.latencyHist.Percentile(99)
	}
	res.PerFlowLatency = make([]float64, len(s.perFlowLat))
	var merged stats.Summary
	for i := range s.perFlowLat {
		res.PerFlowLatency[i] = s.perFlowLat[i].Mean()
		merged.Merge(&s.perFlowLat[i])
	}
	res.LatencyStd = merged.Std()
	return res
}

// maxSourceQueue bounds open-loop generation so saturated runs stay in
// memory: generation pauses while a flow's queue holds this many creation
// cycles (64 KiB). Packet records exist only for launched packets and are
// bounded by the VC count instead (see packet in buffers.go).
const maxSourceQueue = 1 << 13

// injectShard moves flits from source queues into injection-port VC
// buffers, up to LocalBandwidth flits per node per cycle, visiting only
// the shard's nodes with pending injection work.
func (s *Simulator) injectShard(sh *simShard) {
	for i := 0; i < len(sh.activeInj); {
		n := sh.activeInj[i]
		if s.nodeWork[n] == 0 {
			last := len(sh.activeInj) - 1
			sh.activeInj[i] = sh.activeInj[last]
			sh.activeInj = sh.activeInj[:last]
			s.injQueued[n] = false
			continue
		}
		s.injectNode(sh, n)
		i++
	}
}

func (s *Simulator) injectNode(sh *simShard, n int32) {
	flowsHere := s.nodeFlows[n]
	nf := len(flowsHere)
	budget := s.cfg.LocalBandwidth
	rr := s.rrInj[n]
	// Start new transfers: queued packets claim free injection VCs in
	// round-robin order. Priority rotates past the last flow granted a
	// VC — grant-based rotation, unlike the seed core's once-per-cycle
	// rotation, which could phase-lock with the periodic VC-release
	// pattern of a saturated node and starve a flow indefinitely (the
	// transmitter workload exhibited this under some seeds).
	for k := 0; k < nf; k++ {
		fi := flowsHere[(rr+k)%nf]
		if s.transfer[fi].pkt >= 0 || s.srcQueue[fi].len() == 0 {
			continue
		}
		vc := s.freeInjVC(n)
		if vc < 0 {
			break // all injection VCs owned; no later flow can claim either
		}
		createT := s.srcQueue[fi].pop()
		if s.flowPaused[fi] {
			// A slot freed for a generation-paused flow: the arrival
			// process restarts memorylessly. The geometric gap is drawn
			// in postCycle (ascending flow order) so the RNG stream does
			// not depend on shard execution order.
			s.flowPaused[fi] = false
			sh.resumed = append(sh.resumed, fi)
		}
		// Launch: the packet gets its record from the shard's stock (never
		// empty here, see simShard.stock), routed by the table of launch time.
		last := len(sh.stock) - 1
		pkt := sh.stock[last]
		sh.stock = sh.stock[:last]
		s.packets[pkt] = packet{flow: fi, epoch: s.curEpoch, createT: createT, enterT: -1}
		bi := s.injBase + n*s.nVCs + vc
		s.bufs[bi].owner, s.bufs[bi].head = pkt, 0
		s.transfer[fi] = injTransfer{pkt: pkt, nextIdx: 0, buf: bi}
		s.rrInj[n] = (rr + k + 1) % nf
	}
	// Stream flits of active transfers into their buffers.
	for k := 0; k < nf && budget > 0; k++ {
		fi := flowsHere[(rr+k)%nf]
		tr := &s.transfer[fi]
		if tr.pkt < 0 {
			continue
		}
		b := &s.bufs[tr.buf]
		for budget > 0 && tr.pkt >= 0 && b.count+s.stagedCnt[tr.buf] < s.depth {
			if tr.nextIdx == 0 {
				s.packets[tr.pkt].enterT = s.cycle
			}
			sh.moved = true
			sh.injStaged = append(sh.injStaged, tr.buf)
			s.stagedCnt[tr.buf]++
			tr.nextIdx++
			budget--
			if int(tr.nextIdx) == s.cfg.PacketLen {
				tr.pkt = -1 // transfer complete; VC stays owned until tail leaves
				if s.srcQueue[fi].len() == 0 {
					s.flowWork[fi] = false
					s.nodeWork[n]--
				}
			}
		}
	}
}

// freeInjVC returns the index of an unowned injection VC at node n, or -1.
func (s *Simulator) freeInjVC(n int32) int32 {
	base := s.injBase + n*s.nVCs
	for vc := int32(0); vc < s.nVCs; vc++ {
		if s.bufs[base+vc].owner < 0 {
			return vc
		}
	}
	return -1
}

// routeShard performs the RC stage event-driven: headers that arrived
// last cycle (the shard's routePending) read their next hop off their
// table row at the packet's cursor, ejecting buffers activate at once,
// and the rest join their target channel's VA wait list. Every buffer
// here sits at an owned node, and its output channel is sourced at that
// same node, so all list operations are shard-local.
func (s *Simulator) routeShard(sh *simShard) {
	for _, bi := range sh.routePending {
		b := &s.bufs[bi]
		if b.head != 0 {
			// Body flit at buffer head while inactive can only happen after
			// a tail release bug; the invariant checker would flag it.
			continue
		}
		p := &s.packets[b.owner]
		row := s.tables[p.epoch].row(p.flow)
		if int(p.hop) == len(row) {
			b.pending = false
			b.active, b.eject = true, true
			b.readyAt = s.cycle + int64(s.cfg.PipelineStages) - 1
			s.ejectPush(sh, bi)
			continue
		}
		entry := row[p.hop]
		// outVC holds the statically requested VC until VA grants one.
		b.outCh, b.outVC = int32(entry.next), entry.vc
		s.sortedInsert(&s.vaWait[entry.next], bi)
		s.vaFlagShard(sh, int32(entry.next))
	}
	sh.routePending = sh.routePending[:0]
}

// allocShard performs the VA stage for the shard's flagged channels —
// those with new waiters or with a VC freed since the last attempt —
// because an unflagged channel's waiters would just fail the same owner
// checks again.
//
// Waiters are kept and served in ascending buffer-index order,
// reproducing the pre-refactor full scan's priority: channel buffers (in
// channel id order) claim a contested downstream VC before any injection
// buffer. At saturation this ordering is load-bearing — it gives traffic
// already in the network priority over new injections, keeping
// in-network queueing (and thus the reported network latency) low while
// the excess waits in the source queues. Buffers contending for
// different channels never interact, so per-channel ordering is the only
// ordering that matters (and VA order across channels is inert).
func (s *Simulator) allocShard(sh *simShard) {
	for _, ch := range sh.vaRetry {
		s.vaFlagged[ch] = false
		for bi := s.vaWait[ch]; bi >= 0; {
			next := s.bufs[bi].next
			s.tryClaim(sh, ch, bi)
			bi = next
		}
	}
	sh.vaRetry = sh.vaRetry[:0]
}

// vaFlagShard queues channel ch — which must be owned by sh — for a VA
// pass in the next allocShard.
func (s *Simulator) vaFlagShard(sh *simShard, ch int32) {
	if !s.vaFlagged[ch] {
		s.vaFlagged[ch] = true
		sh.vaRetry = append(sh.vaRetry, ch)
	}
}

// tryClaim attempts to allocate a VC of channel ch to the VA-stalled
// buffer bi: the statically requested one, or any free one under dynamic
// allocation. On success the buffer leaves the VA wait list, joins the
// channel's switch-allocation wait list, and becomes active.
//
// The owner/head write on the downstream buffer may cross shards, but it is
// race-free: only ch's owning shard (this one) claims ch's VCs, and a
// claimable VC is empty and unowned, so the downstream home shard does
// not touch it during phaseRoute.
func (s *Simulator) tryClaim(sh *simShard, ch, bi int32) {
	b := &s.bufs[bi]
	downBase := ch * s.nVCs
	vc := int32(-1)
	if s.cfg.DynamicVC {
		for v := int32(0); v < s.nVCs; v++ {
			if s.bufs[downBase+v].owner < 0 {
				vc = v
				break
			}
		}
	} else if s.bufs[downBase+b.outVC].owner < 0 {
		vc = b.outVC
	}
	if vc < 0 {
		return // still stalled; a release of this channel re-flags it
	}
	s.bufs[downBase+vc].owner, s.bufs[downBase+vc].head = b.owner, 0
	s.unlink(bi) // leaves vaWait[ch]; dispatch happens on pending
	b.pending = false
	b.active, b.eject = true, false
	b.outVC = vc
	b.readyAt = s.cycle + int64(s.cfg.PipelineStages) - 1
	s.chanPush(sh, ch, bi)
}

// switchShard arbitrates each of the shard's active output channels (one
// flit per cycle). Dequeues and downstream pushes are deferred to the
// commit phase, so every count read here — including the credit check on
// the downstream buffer, which may live in another shard — is the stable
// pre-cycle value. The credit check therefore cannot see a dequeue made
// elsewhere in this same cycle: a full-but-draining downstream buffer
// admits the next flit one cycle later than the old sequential core
// sometimes did (that core's visibility depended on channel iteration
// order). The conservative timing is deterministic and identical at any
// worker count.
func (s *Simulator) switchShard(sh *simShard) {
	for i := 0; i < len(sh.activeChans); {
		ch := sh.activeChans[i]
		if s.chanWait[ch] < 0 {
			last := len(sh.activeChans) - 1
			sh.activeChans[i] = sh.activeChans[last]
			sh.activeChans = sh.activeChans[:last]
			s.chanQueued[ch] = false
			continue
		}
		cands := sh.scratch[:0]
		for bi := s.chanWait[ch]; bi >= 0; bi = s.bufs[bi].next {
			b := &s.bufs[bi]
			if b.count == 0 || s.cycle < b.readyAt {
				continue
			}
			down := ch*s.nVCs + b.outVC
			if s.bufs[down].count >= s.depth {
				continue // no credit
			}
			cands = append(cands, bi)
		}
		sh.scratch = cands
		if len(cands) > 0 {
			pick := cands[s.rrOut[ch]%len(cands)]
			s.rrOut[ch]++
			s.forward(sh, pick)
		}
		i++
	}
}

// ejectShard consumes up to LocalBandwidth flits per owned node with
// ejection work. Dequeues are deferred, so candidate eligibility within
// the budget loop uses the effective count (count minus this cycle's
// recorded pops) to reproduce the sequential budget semantics exactly.
func (s *Simulator) ejectShard(sh *simShard) {
	for i := 0; i < len(sh.activeEject); {
		n := sh.activeEject[i]
		if s.ejectWait[n] < 0 {
			last := len(sh.activeEject) - 1
			sh.activeEject[i] = sh.activeEject[last]
			sh.activeEject = sh.activeEject[:last]
			s.ejectQueued[n] = false
			continue
		}
		for budget := s.cfg.LocalBandwidth; budget > 0; budget-- {
			cands := sh.scratch[:0]
			for bi := s.ejectWait[n]; bi >= 0; bi = s.bufs[bi].next {
				b := &s.bufs[bi]
				if b.count-s.popCnt[bi] > 0 && s.cycle >= b.readyAt {
					cands = append(cands, bi)
				}
			}
			sh.scratch = cands
			if len(cands) == 0 {
				break
			}
			pick := cands[s.rrEjct[n]%len(cands)]
			s.rrEjct[n]++
			s.ejectFlit(sh, pick)
		}
		i++
	}
}

// forward records the dequeue of buffer bi's head flit and routes it to
// the downstream buffer's shard for the commit phase.
func (s *Simulator) forward(sh *simShard, bi int32) {
	b := &s.bufs[bi]
	idx := b.head // channel waiters dequeue at most once per cycle
	sh.pops = append(sh.pops, bi)
	s.popCnt[bi]++
	down := b.outCh*s.nVCs + b.outVC
	dst := s.shardOfBuf(down)
	sh.stageOut[dst] = append(sh.stageOut[dst], down)
	sh.flitHops++
	if idx == 0 {
		s.packets[b.owner].hop++ // the header crosses outCh: advance the cursor
	}
	if int(idx) == s.cfg.PacketLen-1 {
		s.release(sh, bi, b) // tail left: free this VC for the next packet
	}
	sh.moved = true
}

// ejectFlit consumes the next flit of buffer bi at its destination; on
// the tail, statistics are recorded and the packet record is retired
// (recycled by postCycle, in shard order). Per-flow statistics are
// written directly: a flow ejects only at its one destination node, so
// the write is exclusive to this shard.
func (s *Simulator) ejectFlit(sh *simShard, bi int32) {
	b := &s.bufs[bi]
	idx, pkt := b.head+s.popCnt[bi], b.owner
	sh.pops = append(sh.pops, bi)
	s.popCnt[bi]++
	sh.inFlightDelta--
	sh.flitHops++
	sh.moved = true
	if int(idx) == s.cfg.PacketLen-1 {
		s.release(sh, bi, b)
		p := &s.packets[pkt]
		sh.delivered++
		if s.cycle >= s.cfg.WarmupCycles {
			sh.mDelivered++
			s.perFlow[p.flow]++
			lat := s.cycle - p.enterT
			sh.mLatencySum += lat
			sh.mTotalLatSum += s.cycle - p.createT
			s.perFlowLat[p.flow].Add(float64(lat))
			sh.hist.Add(float64(lat))
		}
		sh.freed = append(sh.freed, pkt)
	}
}
