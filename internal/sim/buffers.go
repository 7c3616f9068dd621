package sim

// Data layout of the simulator core. All virtual-channel buffers —
// channel input buffers and injection-port buffers alike — share one
// flat index:
//
//	buffer of (channel ch, vc v):  ch*VCs + v
//	buffer of (node n, inj vc v):  injBase + n*VCs + v,  injBase = NumChannels*VCs
//
// and each buffer's state is split by how hot it is. occ[bi] (12 bytes)
// is what the switch and commit loops read every cycle: which flits the
// buffer holds and how many leave it this cycle. bufs[bi] (32 bytes, two
// to a cache line) is the routing and wait-list record, read once per
// waiter per cycle and written once per packet per hop. bufNode[bi] is
// the node a buffer sits at, read only when a packet starts ejecting,
// leaves an ejection list, or frees room in an injection buffer.
//
// A buffer stores no flits, only which ones it holds. Wormhole switching
// guarantees a buffer holds the flits of at most one packet at a time (a
// VC is released only when the previous packet's tail leaves), and a
// packet's flits arrive and leave in order, so the buffered flits are
// always positions [head, head+count) of the owner packet (0 is the
// header, PacketLen-1 the tail). An arrival is count++, a dequeue
// head++/count--, and head returns to 0 where a VC is claimed (tryClaim)
// or launched into (injectNode).
//
// vcBuf also carries the intrusive wait-list links of the active-set
// scheduler (see sim.go): a routed buffer is a member of exactly one wait
// list — the list of its output channel, or the ejection list of its node
// — until the tail flit leaves and release() unlinks it.
//
// A packet not yet launched has no record and no buffer: it is one byte
// in its flow's source queue, the gap since the packet queued before it
// (sourceQueue, at the end of this file). The queues' bytes run through
// 512-byte chunks from one free list (chunkPool), whose slabs pass from
// run to run with the simulator's arena.

// packet is the record of one packet in the network. It exists only from
// launch (injectNode claims an injection VC) to tail ejection or a churn
// purge; a queued packet is nothing but a creation cycle in its flow's
// source queue. A live packet owns at least one VC, so however deep the
// backlog, the arena holds at most len(bufs) records and stays
// cache-resident under the random access of RC and ejection. Records are
// recycled through freePkts; their indices never show in a Result.
type packet struct {
	flow int32
	// epoch is the routing-table generation the packet was launched
	// under. It walks tables[epoch], so a packet finishes on the route it
	// started with even after a newer table is swapped in.
	epoch   int32
	createT int64 // cycle the packet entered its source queue
	enterT  int64 // cycle the header flit entered the injection buffer
	hop     int32 // cursor into the table row: channels the header has crossed
}

// occupancy is the flit count of one buffer, in the flat layout described
// above: the only state commit and the switch credit check touch.
type occupancy struct {
	head   int32 // packet position of the head flit
	count  int32 // flits currently buffered
	popCnt int32 // dequeues deferred to this cycle's commit
}

// vcBuf is one virtual-channel buffer at the downstream end of a channel
// (or at a node's injection port), in the flat layout described above.
type vcBuf struct {
	// readyAt is the first cycle the routed header may traverse the
	// switch, modeling RC/VA/SA pipeline depth. First, so the record
	// packs into 32 bytes.
	readyAt int64
	owner   int32 // packet index currently allocated this VC, or -1
	outCh   int32 // routed output channel (valid when active && !eject)
	outVC   int32
	// Intrusive doubly-linked wait-list membership: next/prev are flat
	// buffer indices, -1 terminated. Which list the buffer is on follows
	// from its state: ejectWait[bufNode] when eject, chanWait[outCh] when
	// routed, none otherwise.
	next    int32
	prev    int32
	active  bool // head packet has been routed and VC-allocated
	eject   bool
	pending bool // queued in routePending awaiting RC/VA
}

// chanPush links buffer bi into output channel ch's wait list and marks
// the channel active for switch allocation. Lists are kept in ascending
// buffer-index order so that arbitration candidate order — and with it
// the round-robin grant sequence — matches the pre-refactor full scan
// (input channels in id order, then injection VCs): at saturation the
// grant order is observable in the latency distribution, not just an
// implementation detail.
func (s *Simulator) chanPush(ch, bi int32) {
	s.sortedInsert(&s.chanWait[ch], bi)
	if !s.chanQueued[ch] {
		s.chanQueued[ch] = true
		s.activeChans = append(s.activeChans, ch)
	}
}

// ejectPush links buffer bi into its node's ejection wait list (ascending
// index order, see chanPush) and marks the node active for ejection.
func (s *Simulator) ejectPush(bi int32) {
	n := s.bufNode[bi]
	s.sortedInsert(&s.ejectWait[n], bi)
	if !s.ejectQueued[n] {
		s.ejectQueued[n] = true
		s.activeEject = append(s.activeEject, n)
	}
}

// sortedInsert links bi into the wait list rooted at *head, keeping
// ascending buffer-index order. Lists are short (bounded by the VCs of
// one node's input ports), so the linear walk is cheap and runs once per
// packet per hop, not per cycle.
func (s *Simulator) sortedInsert(head *int32, bi int32) {
	prev, cur := int32(-1), *head
	for cur >= 0 && cur < bi {
		prev, cur = cur, s.bufs[cur].next
	}
	b := &s.bufs[bi]
	b.prev, b.next = prev, cur
	if prev >= 0 {
		s.bufs[prev].next = bi
	} else {
		*head = bi
	}
	if cur >= 0 {
		s.bufs[cur].prev = bi
	}
}

// unlink removes buffer bi from whichever wait list its state says it is
// on: the VA stall list of its target channel while pending, its node's
// ejection list when ejecting, its output channel's switch list
// otherwise. Must run before those fields are cleared.
func (s *Simulator) unlink(bi int32) {
	b := &s.bufs[bi]
	if b.prev >= 0 {
		s.bufs[b.prev].next = b.next
	} else if b.pending {
		s.vaWait[b.outCh] = b.next
	} else if b.eject {
		s.ejectWait[s.bufNode[bi]] = b.next
	} else {
		s.chanWait[b.outCh] = b.next
	}
	if b.next >= 0 {
		s.bufs[b.next].prev = b.prev
	}
	b.next, b.prev = -1, -1
}

// release ends buffer bi's tenure by the current packet: unlink from its
// wait list and free the VC for the next VA claim. Freeing a channel VC
// flags the channel's VA waiters for the next cycle's vaStage (this
// cycle's has run).
func (s *Simulator) release(bi int32, b *vcBuf) {
	s.unlink(bi)
	b.owner = -1
	b.active = false
	b.eject = false
	if bi < s.injBase {
		if cin := bi / s.nVCs; s.vaWait[cin] >= 0 {
			s.vaFlag(cin)
		}
	}
}

// chunkBytes is the length of one source-queue chunk's byte stream: about
// 500 queued packets at one byte each, far more than a lightly loaded
// flow ever queues.
const chunkBytes = 512

// escape is the byte that stands for an entry whose difference from the
// one pushed before it does not fit below it: the full creation cycle
// follows in the next 8 bytes of the stream, little-endian.
const escape = 0xff

// maxSlab caps the chunks one pool allocation carves up (~64 KiB).
const maxSlab = 128

// queueChunk is one fixed-size piece of a source queue's byte stream,
// linked to the next piece of the same queue or, while free, of the pool.
type queueChunk struct {
	b    [chunkBytes]byte
	next *queueChunk
}

// chunkPool is the simulator-wide free list of queue chunks. It grows by
// slabs that double its size up to maxSlab chunks at a time, so the
// chunks of a deep backlog cost a few allocations, and it never shrinks:
// chunks pass between flows as backlogs shift, and a run that has met
// its deepest combined backlog allocates nothing more.
//
// The slabs outlive the run. When it ends, recycled takes back every
// chunk at once, those still linked into source queues included, and the
// pool goes with the simulator's arena (arena.go) to the next run, which
// carves the same slabs again before it allocates any: a sweep allocates
// chunks for its deepest backlog, not for every run's. A carved slab's
// next links are rewritten; its bytes are not cleared, because push
// writes every byte of a queue before pop reads it.
type chunkPool struct {
	free   *queueChunk
	total  int            // chunks carved
	slabs  [][]queueChunk // every slab the pool holds, carved or not
	carved int            // slabs[:carved] are in use this run
}

func (p *chunkPool) get() *queueChunk {
	if p.free == nil {
		var slab []queueChunk
		if p.carved < len(p.slabs) {
			slab = p.slabs[p.carved]
		} else {
			slab = make([]queueChunk, min(max(p.total, 4), maxSlab))
			p.slabs = append(p.slabs, slab)
		}
		p.carved++
		for i := range slab[:len(slab)-1] {
			slab[i].next = &slab[i+1]
		}
		slab[len(slab)-1].next = nil
		p.free = &slab[0]
		p.total += len(slab)
	}
	c := p.free
	p.free, c.next = c.next, nil
	return c
}

func (p *chunkPool) put(c *queueChunk) { c.next, p.free = p.free, c }

// recycled returns an empty pool holding p's slabs, all of them free for
// carving again. Every queue p backed must be dropped with it.
func (p chunkPool) recycled() chunkPool { return chunkPool{slabs: p.slabs} }

// sourceQueue is a flow's source queue: a FIFO of creation cycles (all
// the state a queued packet has), each stored as its difference from the
// entry pushed before it. A difference in [0, escape) is one byte; any
// other — a gap of 255 cycles or more, or the older cycle of a churn
// requeue — is the escape byte and the full value, 9 bytes. The bytes run
// through a linked run of chunks from the chunkPool: an empty queue holds
// no chunk, a full one (maxSourceQueue) whose gaps all fit a byte spans at
// most maxSourceQueue/chunkBytes+1, and nothing is ever copied.
//
// pushed and popped are the references of the next push and pop. They
// outlive an empty queue (where they are equal), so a lightly loaded
// flow, which empties its queue after every packet, still pays one byte
// a packet.
type sourceQueue struct {
	head, tail *queueChunk
	hi, ti     int32 // next byte to pop in head, next byte to push in tail
	n          int32
	pushed     int64 // the last value pushed
	popped     int64 // the last value popped
}

func (q *sourceQueue) len() int { return int(q.n) }

func (q *sourceQueue) push(p *chunkPool, v int64) {
	if d := uint64(v - q.pushed); d < escape {
		q.putByte(p, byte(d))
	} else {
		q.putByte(p, escape)
		for sh := 0; sh < 64; sh += 8 {
			q.putByte(p, byte(uint64(v)>>sh))
		}
	}
	q.pushed = v
	q.n++
}

func (q *sourceQueue) putByte(p *chunkPool, b byte) {
	if q.tail == nil || q.ti == chunkBytes {
		c := p.get()
		if q.tail == nil {
			q.head, q.hi = c, 0
		} else {
			q.tail.next = c
		}
		q.tail, q.ti = c, 0
	}
	q.tail.b[q.ti] = b
	q.ti++
}

func (q *sourceQueue) pop(p *chunkPool) int64 {
	v := q.popped
	if b := q.getByte(p); b != escape {
		v += int64(b)
	} else {
		var u uint64
		for sh := 0; sh < 64; sh += 8 {
			u |= uint64(q.getByte(p)) << sh
		}
		v = int64(u)
	}
	q.popped = v
	if q.n--; q.n == 0 {
		if q.head != nil { // not already returned by getByte
			p.put(q.head)
		}
		q.head, q.tail, q.hi, q.ti = nil, nil, 0, 0
	}
	return v
}

// getByte takes the next byte of the stream, returning the head chunk to
// the pool once it is read through.
func (q *sourceQueue) getByte(p *chunkPool) byte {
	c := q.head
	b := c.b[q.hi]
	if q.hi++; q.hi == chunkBytes {
		q.head, q.hi = c.next, 0
		p.put(c)
	}
	return b
}
