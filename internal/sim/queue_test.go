package sim

import (
	"fmt"
	"testing"
)

// queueGaps are the differences op 0 pushes: both sides of the one-byte
// limit, a value past 2^32, and negative deltas (a churn requeue).
var queueGaps = [...]int64{0, 1, 254, 255, 256, 1<<32 + 7, -1, -255}

// FuzzSourceQueue drives one source queue with pushes and pops decoded
// from the input, two bytes an operation (op, arg), and holds it to a
// plain []int64 FIFO: every pop returns the model's front, the lengths
// agree, the chunk run decodes to exactly the queued entries after every
// operation (sourceQueue.check), and the pool gets every chunk back once
// the queue is drained. The runs of ops 4 (one byte an entry) and 6
// cross chunk boundaries, so an escape can straddle one,
// and op 7 empties the queue so the next push refills it from the kept
// reference. Op 8 ends the run the way a simulator's end does: the pool
// is recycled with the queue's chunks still linked in, and a fresh queue
// and model go on over the same slabs, whose stale bytes and next links
// the checks would then catch. Pushes stop at maxSourceQueue entries.
func FuzzSourceQueue(f *testing.F) {
	f.Add([]byte{1, 10, 5, 0, 1, 254, 1, 255, 0, 4, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{4, 80, 0, 3, 4, 80, 6, 70, 0, 5, 4, 200, 7, 0, 1, 3, 5, 0})
	f.Add([]byte{4, 255, 4, 255, 6, 10, 8, 0, 3, 7, 4, 255, 4, 100, 0, 5, 6, 90, 8, 0, 4, 30, 1, 255, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			p     chunkPool
			q     sourceQueue
			model []int64
			sizes []int // encoded bytes of each model entry
			held  int   // their sum
			last  int64 // the last value pushed, kept across an empty queue
		)
		push := func(v int64) {
			if len(model) == maxSourceQueue { // keeps each check linear in a full queue
				return
			}
			q.push(&p, v)
			size := 1
			if d := v - last; d < 0 || d >= escape {
				size = 9
			}
			model, sizes, held = append(model, v), append(sizes, size), held+size
			last = v
		}
		pop := func() {
			if len(model) == 0 {
				return
			}
			if got := q.pop(&p); got != model[0] {
				t.Fatalf("pop %d, want %d", got, model[0])
			}
			model, held, sizes = model[1:], held-sizes[0], sizes[1:]
		}
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0]%9, int64(data[1])
			switch op {
			case 0:
				push(last + queueGaps[arg%int64(len(queueGaps))])
			case 1:
				push(last + arg)
			case 2:
				push(last - arg - 1)
			case 3:
				push(arg<<33 | arg)
			case 4:
				for i := int64(0); i < 8*arg; i++ {
					push(last + i%2)
				}
			case 5:
				pop()
			case 6:
				for i := int64(0); i < 8*arg; i++ {
					pop()
				}
			case 7:
				for len(model) > 0 {
					pop()
				}
			case 8:
				p = p.recycled()
				q, model, sizes, held, last = sourceQueue{}, nil, nil, 0, 0
			}
			if err := checkQueue(&p, &q, len(model), held); err != nil {
				t.Fatalf("after op %d(%d): %v", op, arg, err)
			}
		}
		for len(model) > 0 {
			pop()
		}
		if err := checkQueue(&p, &q, 0, 0); err != nil {
			t.Fatalf("drained: %v", err)
		}
	})
}

// checkQueue checks q's encoding, its length n and its size in bytes,
// and that q and the pool's free list together hold every chunk the pool
// allocated.
func checkQueue(p *chunkPool, q *sourceQueue, n, bytes int) error {
	chunks, err := q.check()
	if err != nil {
		return err
	}
	if q.len() != n {
		return fmt.Errorf("queue holds %d, the model %d", q.len(), n)
	}
	if got := chunks*chunkBytes - int(q.hi) - (chunkBytes - int(q.ti)); chunks > 0 && got != bytes {
		return fmt.Errorf("queue holds %d bytes, want %d", got, bytes)
	}
	for c := p.free; c != nil; c = c.next {
		chunks++
	}
	if chunks != p.total {
		return fmt.Errorf("queue and free list hold %d chunks, the pool allocated %d", chunks, p.total)
	}
	return nil
}
