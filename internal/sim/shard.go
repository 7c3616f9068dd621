package sim

// Parallel execution of the cycle loop (DESIGN.md §15).
//
// The network is spatially partitioned into shards: shard(n) owns every
// piece of state that lives at node n — the VC buffers at n (the
// downstream ends of n's input channels plus n's injection ports), the
// arbitration of every output channel sourced at n (the vaWait/chanWait
// lists and round-robin pointers), n's ejection port, and the injection
// state of every flow sourced at n. A cycle then runs as three barriers
// over the shards:
//
//   - phaseRoute: injection, route computation and VC allocation. All
//     writes are shard-local except the VC-owner claim on the downstream
//     buffer, which is exclusive by channel: only the channel's owning
//     shard claims its VCs, and a claimable VC is empty and unowned, so
//     its home shard never touches it during this phase. A launch takes
//     its packet record from the shard's own stock (simShard.stock).
//   - phaseSwitch: switch allocation, traversal and ejection *compute*.
//     Dequeues are deferred — recorded in pops/popCnt — so every buffer
//     count another shard reads for a credit check is the stable
//     pre-cycle value. Effects that cross shards go to per-destination
//     outboxes: forwarded flits to stageOut, VA wakeups of upstream
//     channels to wakeOut.
//   - phaseCommit: each shard applies, in deterministic order, the VA
//     wakeups addressed to it (drained in source-shard order), its own
//     deferred dequeues, its own injection stages, and the forwarded
//     flits addressed to it (again in source-shard order).
//
// A sequential post-step (postCycle) merges per-shard statistic deltas
// in shard order, recycles retired packet records into the shards'
// launch stocks, and draws the deferred arrival-resume gaps in ascending
// flow order, so the RNG stream — like everything else — is a pure
// function of topology, configuration and seed. The shard count is fixed
// by the topology alone (never by Config.Workers), which is what makes
// results byte-identical at any worker count: workers only change which
// goroutine executes a shard, never what any shard does.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/topology"
)

// shardDiv sets the shard granularity: one shard per shardDiv nodes,
// clamped to [1, maxShards]. Part of the determinism contract — changing
// it changes per-seed results (goldens pin them), exactly like changing
// the topology would.
const (
	shardDiv  = 16
	maxShards = 32
)

// simShard is the per-shard working state: the active sets of the nodes
// and channels the shard owns, the deferred effects of the current
// cycle, and the statistic deltas merged (and reset) by postCycle.
type simShard struct {
	node0, node1 int32 // owned node range [node0, node1)

	// Active sets, exactly as in the sequential core but restricted to
	// owned nodes/channels.
	routePending []int32
	vaRetry      []int32
	activeChans  []int32
	activeEject  []int32
	activeInj    []int32
	scratch      []int32

	// Deferred effects of the current cycle.
	pops      []int32   // owned buffers with dequeues pending (dups allowed)
	injStaged []int32   // owned injection buffers receiving a flit (dups allowed)
	stageOut  [][]int32 // per destination shard: buffers receiving a forwarded flit
	wakeOut   [][]int32 // per destination shard: channels to VA-wake
	resumed   []int32   // flows whose arrival process restarts this cycle
	freed     []int32   // packet records retired at ejection

	// stock holds the free packet records injectNode launches into
	// during phaseRoute, where the global s.packets and s.freePkts are
	// off limits. The sequential postCycle keeps it full; its capacity is
	// the shard's injection-VC count, the most one cycle can launch.
	stock []int32

	// Statistic deltas, merged in shard order by postCycle.
	moved         bool
	flitHops      int64
	inFlightDelta int64
	delivered     int64
	mDelivered    int64
	mLatencySum   int64
	mTotalLatSum  int64
	hist          *stats.Histogram
}

// initShards builds the node/channel ownership maps and the per-shard
// state. Called once from New after the flat buffer arena exists.
func (s *Simulator) initShards() {
	nn := s.mesh.NumNodes()
	nc := s.mesh.NumChannels()
	ns := nn / shardDiv
	if ns < 1 {
		ns = 1
	}
	if ns > maxShards {
		ns = maxShards
	}
	s.nShards = int32(ns)
	s.shardOfNode = make([]int32, nn)
	for n := 0; n < nn; n++ {
		s.shardOfNode[n] = int32(n * ns / nn)
	}
	s.shardOfChan = make([]int32, nc)
	for ch := 0; ch < nc; ch++ {
		s.shardOfChan[ch] = s.shardOfNode[s.mesh.Channel(topology.ChannelID(ch)).Src]
	}
	s.popCnt = make([]int32, len(s.bufs))
	s.packets = make([]packet, 0, nn*int(s.nVCs)) // the full launch stocks
	s.shards = make([]simShard, ns)
	next := int32(0)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.node0 = next
		for next < int32(nn) && s.shardOfNode[next] == int32(i) {
			next++
		}
		sh.node1 = next
		sh.stageOut = make([][]int32, ns)
		sh.wakeOut = make([][]int32, ns)
		sh.hist = stats.NewHistogram(0, 4096, 256)
		sh.stock = make([]int32, 0, (sh.node1-sh.node0)*s.nVCs)
		s.refillStock(sh)
	}
}

// refillStock tops sh's launch stock up from the free list, then with
// new records. Sequential (New, postCycle): nothing else grows s.packets.
func (s *Simulator) refillStock(sh *simShard) {
	for len(sh.stock) < cap(sh.stock) {
		if n := len(s.freePkts); n > 0 {
			sh.stock = append(sh.stock, s.freePkts[n-1])
			s.freePkts = s.freePkts[:n-1]
			continue
		}
		sh.stock = append(sh.stock, int32(len(s.packets)))
		s.packets = append(s.packets, packet{})
	}
}

// shardOfBuf maps a flat buffer index to its owning shard: the shard of
// the node the buffer sits at.
func (s *Simulator) shardOfBuf(bi int32) int32 {
	return s.shardOfNode[s.bufs[bi].node]
}

// Cycle phases. Each runs once per shard between barriers.
const (
	phaseRoute int32 = iota + 1
	phaseSwitch
	phaseCommit
)

func (s *Simulator) runShardPhase(si, ph int32) {
	sh := &s.shards[si]
	switch ph {
	case phaseRoute:
		s.injectShard(sh)
		s.routeShard(sh)
		s.allocShard(sh)
	case phaseSwitch:
		s.switchShard(sh)
		s.ejectShard(sh)
	case phaseCommit:
		s.commitShard(si, sh)
	}
}

// runPhase executes one phase over all shards: inline when no worker
// pool is attached, otherwise through the pool's spin barrier with the
// coordinating goroutine participating in the work-stealing loop.
func (s *Simulator) runPhase(ph int32) {
	p := s.pool
	if p == nil {
		for si := int32(0); si < s.nShards; si++ {
			s.runShardPhase(si, ph)
		}
		return
	}
	p.phase = ph
	p.next.Store(0)
	p.done.Store(0)
	p.gen.Add(1) // publishes phase + resets to the helpers
	p.runShards()
	for p.done.Load() < p.helpers {
		runtime.Gosched()
	}
}

// simPool is the helper-goroutine pool driving the per-cycle barriers.
// Phases are short (microseconds), so the barrier is a spin on an atomic
// generation counter with Gosched rather than channel or WaitGroup
// round-trips: a kernel wakeup per phase would dominate the cycle
// budget. The pool lives for one advance() call — helpers are spawned on
// entry and joined on every exit path, so cancellation, deadlock and
// invariant failures never leak goroutines, and a Simulator parked
// between churn barriers holds no spinning threads.
type simPool struct {
	s       *Simulator
	helpers int32

	// phase and stop are plain fields published by the gen increment:
	// the coordinator writes them before gen.Add, helpers read them
	// after observing the new gen value.
	phase int32
	stop  bool

	gen  atomic.Uint32
	next atomic.Int32 // shard work-stealing cursor
	done atomic.Int32 // helpers finished with the current phase
	wg   sync.WaitGroup
}

// startPool attaches a worker pool when the configuration and topology
// allow any parallelism, returning the function that detaches it. The
// effective worker count is min(Workers, shards): extra workers would
// only spin.
func (s *Simulator) startPool() func() {
	w := s.workers
	if w > int(s.nShards) {
		w = int(s.nShards)
	}
	if w <= 1 {
		return func() {}
	}
	p := &simPool{s: s, helpers: int32(w - 1)}
	s.pool = p
	p.wg.Add(w - 1)
	for i := 0; i < w-1; i++ {
		go p.helperLoop()
	}
	return func() {
		p.stop = true
		p.gen.Add(1)
		p.wg.Wait()
		s.pool = nil
	}
}

// helperLoop processes one phase per generation tick. A helper never
// misses a tick: gen only advances after every helper reported done, so
// observing gen != seen always means exactly one new phase (or stop).
func (p *simPool) helperLoop() {
	defer p.wg.Done()
	seen := uint32(0)
	for {
		g := p.gen.Load()
		if g == seen {
			runtime.Gosched()
			continue
		}
		seen = g
		if p.stop {
			return
		}
		p.runShards()
		p.done.Add(1)
	}
}

// runShards steals shard indices until the cursor runs out.
func (p *simPool) runShards() {
	s := p.s
	n := s.nShards
	for {
		i := p.next.Add(1) - 1
		if i >= n {
			return
		}
		s.runShardPhase(i, p.phase)
	}
}

// commitShard applies the cycle's deferred effects for the buffers this
// shard owns. Single-writer by construction: every dequeue of an owned
// buffer was recorded by this shard, and every flit staged into an owned
// buffer was routed here through stageOut/injStaged. Order is fixed —
// wakes, then pops, then injection stages, then forwarded flits in
// source-shard order — so the resulting state (including the order new
// RC work enters routePending) is identical at any worker count.
func (s *Simulator) commitShard(si int32, sh *simShard) {
	// VA wakeups of owned channels. The vaWait guard re-checks against
	// the list state settled in phaseRoute (untouched since).
	for src := range s.shards {
		in := s.shards[src].wakeOut[si]
		for _, ch := range in {
			if s.vaWait[ch] >= 0 {
				s.vaFlagShard(sh, ch)
			}
		}
		s.shards[src].wakeOut[si] = in[:0]
	}
	// Deferred dequeues. Dups are fine: each entry is one head advance.
	for _, bi := range sh.pops {
		b := &s.bufs[bi]
		b.head++
		b.count--
		s.popCnt[bi] = 0
	}
	sh.pops = sh.pops[:0]
	// Flit arrivals: own injection stages first (matching the sequential
	// core's inject-before-traverse staging order), then forwarded flits.
	for _, bi := range sh.injStaged {
		b := &s.bufs[bi]
		b.count++
		s.stagedCnt[bi]--
		sh.inFlightDelta++ // a new flit entered the network
		s.noteArrival(sh, bi, b)
	}
	sh.injStaged = sh.injStaged[:0]
	for src := range s.shards {
		in := s.shards[src].stageOut[si]
		for _, bi := range in {
			b := &s.bufs[bi]
			b.count++
			s.noteArrival(sh, bi, b)
		}
		s.shards[src].stageOut[si] = in[:0]
	}
}

// noteArrival queues new RC/VA work: a header landing in an empty,
// unrouted buffer.
func (s *Simulator) noteArrival(sh *simShard, bi int32, b *vcBuf) {
	if b.count == 1 && !b.active && !b.pending {
		b.pending = true
		sh.routePending = append(sh.routePending, bi)
	}
}

// postCycle merges the per-shard statistic deltas in shard order and
// restarts the arrival processes of flows resumed this cycle. Resume
// gaps are drawn in ascending flow order at the cycle's end — memoryless
// processes are indifferent to when within the cycle the draw happens,
// and the fixed order keeps the RNG stream worker-count independent.
func (s *Simulator) postCycle() {
	moved := false
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.moved {
			moved = true
			sh.moved = false
		}
		s.flitHops += sh.flitHops
		sh.flitHops = 0
		s.inFlight += sh.inFlightDelta
		sh.inFlightDelta = 0
		s.delivered += sh.delivered
		sh.delivered = 0
		s.mDelivered += sh.mDelivered
		sh.mDelivered = 0
		s.mLatencySum += sh.mLatencySum
		sh.mLatencySum = 0
		s.mTotalLatSum += sh.mTotalLatSum
		sh.mTotalLatSum = 0
		if len(sh.freed) > 0 {
			s.freePkts = append(s.freePkts, sh.freed...)
			sh.freed = sh.freed[:0]
		}
		s.refillStock(sh)
		if len(sh.resumed) > 0 {
			s.resumeScratch = append(s.resumeScratch, sh.resumed...)
			sh.resumed = sh.resumed[:0]
		}
	}
	if moved {
		s.lastMove = s.cycle
	}
	if len(s.resumeScratch) > 0 {
		rs := s.resumeScratch
		for i := 1; i < len(rs); i++ { // tiny slice: insertion sort
			for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			}
		}
		for _, fi := range rs {
			s.schedule(fi, s.cycle+s.geomGap(fi))
		}
		s.resumeScratch = rs[:0]
	}
}
