package sim

import (
	"context"
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
//   - injectStage visits only activeInj, the awake nodes whose flows
//     have queued packets or in-progress transfers. A node whose visit
//     launched and streamed nothing sleeps until wakeInj: a pop or a
//     purge of one of its injection buffers, or a first queued packet.
//   - routeStage visits only routePending, the buffers whose head flit
//     is an unrouted header (entered when a header lands in an empty
//     inactive buffer, left on successful VC allocation).
//   - switchStage/ejectStage visit only activeChans/activeEject, the
//     channels and nodes with at least one routed VC on their intrusive
//     wait list (entered at VA, left when the tail departs).
//
// An idle 16x16 network therefore simulates a cycle in a handful of
// branch checks; a loaded one pays per in-flight packet that can move,
// never per buffer or per blocked source. Dequeues and flit arrivals
// are deferred to commit at the end of the cycle, so every count a
// credit check or switch candidate reads is the pre-cycle value; those
// counts live in occ, apart from the routing records in bufs. See
// buffers.go for the buffer layout and DESIGN.md §8 for the invariants
// (which internal tests cross-check against a full scan).
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

	occ     []occupancy // per buffer: head, count, deferred pops
	bufs    []vcBuf     // per buffer: route, wait-list links, flags
	bufNode []int32     // per buffer: the node it sits at

	packets  []packet // launched packets only; see packet in buffers.go
	freePkts []int32  // retired records, reused by the next launches

	// Per-flow injection state.
	injectProb []float64 // packets/cycle at OfferedRate (base demands)
	invLogQ    []float64 // 1/ln(1-p) per flow, 0 when p >= 1 (gap is 1)
	demandSum  float64
	arrivalAt  []int64  // per flow: cycle of the next arrival (while on the wheel)
	wheel      []uint64 // wheelSlots rows of flowWords: slot c%wheelSlots's flows
	flowWords  int
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
		cfg:    cfg,
		mesh:   cfg.Mesh,
		tables: []*routingTable{tbl},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	nc := s.mesh.NumChannels()
	nn := s.mesh.NumNodes()
	s.nVCs = int32(cfg.VCs)
	s.depth = int32(cfg.BufDepth)
	s.injBase = int32(nc) * s.nVCs
	nBufs := int32(nc+nn) * s.nVCs
	s.occ = make([]occupancy, nBufs)
	s.bufs = make([]vcBuf, nBufs)
	s.bufNode = make([]int32, nBufs)
	for bi := range s.bufs {
		b := &s.bufs[bi]
		b.owner, b.next, b.prev = -1, -1, -1
		if int32(bi) < s.injBase {
			s.bufNode[bi] = int32(s.mesh.Channel(topology.ChannelID(int32(bi) / s.nVCs)).Dst)
		} else {
			s.bufNode[bi] = (int32(bi) - s.injBase) / s.nVCs
		}
	}
	s.packets = make([]packet, 0, nn*int(s.nVCs)) // one per injection VC
	flows := cfg.Routes.Routes
	s.injectProb = make([]float64, len(flows))
	s.srcQueue = make([]sourceQueue, len(flows))
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
	// Every active set holds a member at most once, and a cycle moves at
	// most one flit per channel plus LocalBandwidth per node in and out:
	// sized to those bounds, no set grows inside the cycle loop.
	perCycle := nc + nn*cfg.LocalBandwidth
	s.routePending = make([]int32, 0, nBufs)
	s.vaRetry = make([]int32, 0, nc)
	s.activeChans = make([]int32, 0, nc)
	s.activeEject = make([]int32, 0, nn)
	s.activeInj = make([]int32, 0, nn)
	s.pops = make([]int32, 0, perCycle)
	s.arrivals = make([]int32, 0, perCycle)
	s.perFlowLat = make([]stats.Summary, len(flows))
	s.latencyHist = stats.NewHistogram(0, 4096, 256)
	if cfg.Metrics != nil {
		s.mCycles = cfg.Metrics.Counter("sim_cycles_total")
		s.mActiveSet = cfg.Metrics.Gauge("sim_active_set_size")
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

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every 1024 simulated cycles (amortized to a no-op against the
// per-cycle work), so a cancelled run returns within 1024 cycles. A
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
// the cycle the watchdog fired on).
func (s *Simulator) advance(ctx context.Context, target int64) (deadlocked bool, err error) {
	for ; s.cycle < target; s.cycle++ {
		if s.cycle&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			s.flushMetrics()
		}
		s.generate()
		s.injectStage()
		s.routeStage()
		s.vaStage()
		s.switchStage()
		s.ejectStage()
		s.commit()
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

// commit applies the cycle's deferred effects: dequeues, then flit
// arrivals (injections before forwarded flits, the order they were
// staged in), then the restart of arrival processes resumed this cycle.
// Resume gaps are drawn in ascending flow order at the cycle's end —
// memoryless processes are indifferent to when within the cycle the draw
// happens, and the fixed order pins the RNG stream.
func (s *Simulator) commit() {
	for _, bi := range s.pops { // dups are fine: each entry is one head advance
		o := &s.occ[bi]
		o.head++
		o.count--
		o.popCnt = 0
	}
	s.pops = s.pops[:0]
	for _, bi := range s.arrivals {
		o := &s.occ[bi]
		o.count++
		if o.count != 1 {
			continue
		}
		if b := &s.bufs[bi]; !b.active && !b.pending { // new RC/VA work
			b.pending = true
			s.routePending = append(s.routePending, bi)
		}
	}
	s.arrivals = s.arrivals[:0]
	if rs := s.resumed; len(rs) > 0 {
		for i := 1; i < len(rs); i++ { // tiny slice: insertion sort
			for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			}
		}
		for _, fi := range rs {
			s.schedule(fi, s.cycle+s.geomGap(fi))
		}
		s.resumed = rs[:0]
	}
}

// flushMetrics pushes the cycle delta since the last flush and the
// current active-set size to the collector. Called at the 1024-cycle
// poll point and once at result build, so instrumentation overhead is
// amortized to nothing against the per-cycle work.
func (s *Simulator) flushMetrics() {
	if s.mCycles == nil {
		return
	}
	s.mCycles.Add(s.cycle - s.mFlushedCycl)
	s.mFlushedCycl = s.cycle
	s.mActiveSet.Set(int64(len(s.routePending) + len(s.activeChans) + len(s.activeEject) + len(s.activeInj)))
}

func (s *Simulator) buildResult(deadlocked bool) *Result {
	s.flushMetrics()
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
// cycles, 8 KiB plus one chunk when every gap fits a byte and at most
// 9 bytes an entry otherwise (see sourceQueue in buffers.go). Packet
// records exist only for launched packets and are bounded by the VC
// count instead (see packet in buffers.go).
const maxSourceQueue = 1 << 13

// injectStage moves flits from source queues into injection-port VC
// buffers, up to LocalBandwidth flits per node per cycle, visiting only
// the awake nodes with injection work.
//
// A visit that launches nothing and streams nothing leaves the node
// asleep: every injection VC a queued packet could claim is owned, and
// every active transfer's buffer is full. Such a visit changes no state
// (rrInj moves only on a launch), and the next one would repeat it until
// an injection buffer of the node frees a slot or a VC, or a flow there
// gains its first queued packet — the events that call wakeInj.
func (s *Simulator) injectStage() {
	for i := 0; i < len(s.activeInj); {
		n := s.activeInj[i]
		if !s.injectNode(n) { // also the visit of a node left without work
			last := len(s.activeInj) - 1
			s.activeInj[i] = s.activeInj[last]
			s.activeInj = s.activeInj[:last]
			s.injQueued[n] = false
			continue
		}
		i++
	}
}

// wakeInj puts node n back in activeInj if it has injection work and is
// not there already.
func (s *Simulator) wakeInj(n int32) {
	if s.nodeWork[n] > 0 && !s.injQueued[n] {
		s.injQueued[n] = true
		s.activeInj = append(s.activeInj, n)
	}
}

// injectNode serves node n's flows and reports whether it launched a
// packet or streamed a flit.
func (s *Simulator) injectNode(n int32) (busy bool) {
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
		createT := s.srcQueue[fi].pop(&s.chunks)
		if s.flowPaused[fi] {
			// A slot freed for a generation-paused flow: the arrival
			// process restarts memorylessly, its gap drawn in commit.
			s.flowPaused[fi] = false
			s.resumed = append(s.resumed, fi)
		}
		// Launch: the packet gets a record, routed by the table of launch time.
		var pkt int32
		if last := len(s.freePkts) - 1; last >= 0 {
			pkt = s.freePkts[last]
			s.freePkts = s.freePkts[:last]
		} else {
			pkt = int32(len(s.packets))
			s.packets = append(s.packets, packet{})
		}
		s.packets[pkt] = packet{flow: fi, epoch: s.curEpoch, createT: createT, enterT: -1}
		bi := s.injBase + n*s.nVCs + vc
		s.bufs[bi].owner, s.occ[bi].head = pkt, 0
		s.transfer[fi] = injTransfer{pkt: pkt, nextIdx: 0, buf: bi}
		s.rrInj[n] = (rr + k + 1) % nf
		busy = true
	}
	// Stream flits of active transfers into their buffers. Arrivals land
	// in commit, so staged counts the flits already sent this cycle.
	for k := 0; k < nf && budget > 0; k++ {
		fi := flowsHere[(rr+k)%nf]
		tr := &s.transfer[fi]
		if tr.pkt < 0 {
			continue
		}
		o := &s.occ[tr.buf]
		for staged := int32(0); budget > 0 && tr.pkt >= 0 && o.count+staged < s.depth; staged++ {
			busy = true
			if tr.nextIdx == 0 {
				s.packets[tr.pkt].enterT = s.cycle
			}
			s.lastMove = s.cycle
			s.arrivals = append(s.arrivals, tr.buf)
			s.inFlight++ // a new flit entered the network
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
	return busy
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

// routeStage performs the RC stage event-driven: headers that arrived
// last cycle (routePending) read their next hop off their table row at
// the packet's cursor, ejecting buffers activate at once, and the rest
// join their target channel's VA wait list.
func (s *Simulator) routeStage() {
	for _, bi := range s.routePending {
		if s.occ[bi].head != 0 {
			// Body flit at buffer head while inactive can only happen after
			// a tail release bug; the invariant checker would flag it.
			continue
		}
		b := &s.bufs[bi]
		p := &s.packets[b.owner]
		row := s.tables[p.epoch].row(p.flow)
		if int(p.hop) == len(row) {
			b.pending = false
			b.active, b.eject = true, true
			b.readyAt = s.cycle + int64(s.cfg.PipelineStages) - 1
			s.ejectPush(bi)
			continue
		}
		entry := row[p.hop]
		// outVC holds the statically requested VC until VA grants one.
		b.outCh, b.outVC = int32(entry.next), entry.vc
		s.sortedInsert(&s.vaWait[entry.next], bi)
		s.vaFlag(int32(entry.next))
	}
	s.routePending = s.routePending[:0]
}

// vaStage performs the VA stage for the flagged channels — those with
// new waiters or with a VC freed since the last attempt — because an
// unflagged channel's waiters would just fail the same owner checks
// again.
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
func (s *Simulator) vaStage() {
	for _, ch := range s.vaRetry {
		s.vaFlagged[ch] = false
		for bi := s.vaWait[ch]; bi >= 0; {
			next := s.bufs[bi].next
			s.tryClaim(ch, bi)
			bi = next
		}
	}
	s.vaRetry = s.vaRetry[:0]
}

// vaFlag queues channel ch for a VA pass in the next vaStage.
func (s *Simulator) vaFlag(ch int32) {
	if !s.vaFlagged[ch] {
		s.vaFlagged[ch] = true
		s.vaRetry = append(s.vaRetry, ch)
	}
}

// tryClaim attempts to allocate a VC of channel ch to the VA-stalled
// buffer bi: the statically requested one, or any free one under dynamic
// allocation. On success the buffer leaves the VA wait list, joins the
// channel's switch-allocation wait list, and becomes active.
func (s *Simulator) tryClaim(ch, bi int32) {
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
	s.bufs[downBase+vc].owner, s.occ[downBase+vc].head = b.owner, 0
	s.unlink(bi) // leaves vaWait[ch]; dispatch happens on pending
	b.pending = false
	b.active, b.eject = true, false
	b.outVC = vc
	b.readyAt = s.cycle + int64(s.cfg.PipelineStages) - 1
	s.chanPush(ch, bi)
}

// switchStage arbitrates each active output channel (one flit per
// cycle). Dequeues and downstream arrivals are deferred to commit, so
// every count read here — including the credit check on the downstream
// buffer — is the stable pre-cycle value: a full-but-draining downstream
// buffer admits the next flit one cycle after it drains, whatever order
// the channels are visited in.
func (s *Simulator) switchStage() {
	for i := 0; i < len(s.activeChans); {
		ch := s.activeChans[i]
		if s.chanWait[ch] < 0 {
			last := len(s.activeChans) - 1
			s.activeChans[i] = s.activeChans[last]
			s.activeChans = s.activeChans[:last]
			s.chanQueued[ch] = false
			continue
		}
		cands := s.scratch[:0]
		for bi := s.chanWait[ch]; bi >= 0; bi = s.bufs[bi].next {
			b := &s.bufs[bi]
			if s.occ[bi].count == 0 || s.cycle < b.readyAt {
				continue
			}
			down := ch*s.nVCs + b.outVC
			if s.occ[down].count >= s.depth {
				continue // no credit
			}
			cands = append(cands, bi)
		}
		s.scratch = cands
		if len(cands) > 0 {
			pick := cands[s.rrOut[ch]%len(cands)]
			s.rrOut[ch]++
			s.forward(pick)
		}
		i++
	}
}

// ejectStage consumes up to LocalBandwidth flits per node with ejection
// work. Dequeues are deferred, so candidate eligibility within the
// budget loop uses the effective count (count minus this cycle's
// recorded pops).
func (s *Simulator) ejectStage() {
	for i := 0; i < len(s.activeEject); {
		n := s.activeEject[i]
		if s.ejectWait[n] < 0 {
			last := len(s.activeEject) - 1
			s.activeEject[i] = s.activeEject[last]
			s.activeEject = s.activeEject[:last]
			s.ejectQueued[n] = false
			continue
		}
		for budget := s.cfg.LocalBandwidth; budget > 0; budget-- {
			cands := s.scratch[:0]
			for bi := s.ejectWait[n]; bi >= 0; bi = s.bufs[bi].next {
				if o := &s.occ[bi]; o.count-o.popCnt > 0 && s.cycle >= s.bufs[bi].readyAt {
					cands = append(cands, bi)
				}
			}
			s.scratch = cands
			if len(cands) == 0 {
				break
			}
			pick := cands[s.rrEjct[n]%len(cands)]
			s.rrEjct[n]++
			s.ejectFlit(pick)
		}
		i++
	}
}

// forward records the dequeue of buffer bi's head flit and its arrival
// at the downstream buffer, both applied in commit.
func (s *Simulator) forward(bi int32) {
	b, o := &s.bufs[bi], &s.occ[bi]
	idx := o.head // channel waiters dequeue at most once per cycle
	s.pops = append(s.pops, bi)
	o.popCnt++
	s.arrivals = append(s.arrivals, b.outCh*s.nVCs+b.outVC)
	s.flitHops++
	if idx == 0 {
		s.packets[b.owner].hop++ // the header crosses outCh: advance the cursor
	}
	tail := int(idx) == s.cfg.PacketLen-1
	if tail {
		s.release(bi, b) // tail left: free this VC for the next packet
	}
	// A dequeue from an injection buffer wakes its node when it frees the
	// VC, or a slot for flits of the packet still to stream in. Draining a
	// fully injected packet's body frees nothing the node can use.
	if bi >= s.injBase && (tail || int(idx+o.count) < s.cfg.PacketLen) {
		s.wakeInj(s.bufNode[bi])
	}
	s.lastMove = s.cycle
}

// ejectFlit consumes the next flit of buffer bi at its destination; on
// the tail, statistics are recorded and the packet record is retired to
// the free list (a launch reuses it from the next cycle on).
func (s *Simulator) ejectFlit(bi int32) {
	b, o := &s.bufs[bi], &s.occ[bi]
	idx, pkt := o.head+o.popCnt, b.owner
	s.pops = append(s.pops, bi)
	o.popCnt++
	s.inFlight--
	s.flitHops++
	s.lastMove = s.cycle
	if int(idx) == s.cfg.PacketLen-1 {
		s.release(bi, b)
		p := &s.packets[pkt]
		s.delivered++
		if s.cycle >= s.cfg.WarmupCycles {
			s.mDelivered++
			s.perFlow[p.flow]++
			lat := s.cycle - p.enterT
			s.mLatencySum += lat
			s.mTotalLatSum += s.cycle - p.createT
			s.perFlowLat[p.flow].Add(float64(lat))
			s.latencyHist.Add(float64(lat))
		}
		s.freePkts = append(s.freePkts, pkt)
	}
}
