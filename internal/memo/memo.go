// Package memo is the repository's one memoization primitive: a bounded
// singleflight cache. At most one computation per key is in flight,
// every concurrent caller of that key waits on the same entry, completed
// successes stay under an LRU bound, and a failed completion removes the
// entry so the next caller computes afresh.
//
// The leader does not have to compute inline: Join hands it the entry and
// Complete resolves it from wherever the work ended up (the daemon carries
// the entry through its admission queue to a worker). Do is the inline
// form for callers that compute on their own goroutine.
package memo

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Status says what Join found under a key.
type Status int

const (
	// Leader: no entry existed; the caller created it and must get it
	// resolved with Complete.
	Leader Status = iota
	// Waiter: a computation is in flight; Wait on it.
	Waiter
	// Hit: a completed success is cached; Wait returns it at once.
	Hit
)

// Entry is one key's computation: in flight until Complete closes done,
// immutable afterwards.
type Entry[V any] struct {
	key  string
	done chan struct{}
	val  V
	err  error
	el   *list.Element // position in the LRU list; nil while in flight
}

// Wait blocks until the entry is resolved or ctx ends, whichever comes
// first; a resolved entry wins a tie. A waiter leaving on its own ctx
// does not disturb the computation.
func (e *Entry[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-e.done:
		return e.val, e.err
	default:
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Memo is a bounded singleflight cache, safe for concurrent use.
type Memo[V any] struct {
	mu    sync.Mutex
	bound int
	m     map[string]*Entry[V]
	lru   *list.List // completed entries only, front = most recently used
}

// New returns a Memo retaining at most bound completed entries (at least
// one). In-flight entries do not count against the bound and are never
// evicted.
func New[V any](bound int) *Memo[V] {
	return &Memo[V]{bound: max(bound, 1), m: make(map[string]*Entry[V]), lru: list.New()}
}

// Join returns the entry for key, creating it when there is none. Lookup
// and creation happen under one lock, so a caller can never miss a cached
// value and then also miss the flight that produced it.
func (m *Memo[V]) Join(key string) (*Entry[V], Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.m[key]; ok {
		if e.el == nil {
			return e, Waiter
		}
		m.lru.MoveToFront(e.el)
		return e, Hit
	}
	e := &Entry[V]{key: key, done: make(chan struct{})}
	m.m[key] = e
	return e, Leader
}

// Complete resolves an entry exactly once and wakes its waiters. A
// success is retained (evicting the least recently used completed entries
// past the bound); a failure removes the entry, so errors are seen only
// by the callers already waiting.
func (m *Memo[V]) Complete(e *Entry[V], val V, err error) {
	m.mu.Lock()
	e.val, e.err = val, err
	if err != nil {
		delete(m.m, e.key)
	} else {
		e.el = m.lru.PushFront(e)
		for m.lru.Len() > m.bound {
			oldest := m.lru.Remove(m.lru.Back()).(*Entry[V])
			delete(m.m, oldest.key)
		}
	}
	m.mu.Unlock()
	close(e.done)
}

// Len reports the number of completed entries retained.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// Do returns key's value, computing it on the calling goroutine when the
// caller is the leader (leader reports that). A waiter whose leader was
// cancelled while its own ctx is still live computes afresh under its own
// ctx: a cancellation describes the leader's context, not the key.
func (m *Memo[V]) Do(ctx context.Context, key string, compute func() (V, error)) (val V, leader bool, err error) {
	for {
		e, st := m.Join(key)
		if st == Leader {
			m.lead(e, compute)
			return e.val, true, e.err
		}
		val, err = e.Wait(ctx)
		if !Cancelled(err) || ctx.Err() != nil {
			return val, false, err
		}
	}
}

// Cancelled reports whether err is a context cancellation or deadline —
// the one class of failure that describes a caller rather than a key, and
// so is never worth retaining.
func Cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lead runs the leader's computation and completes the entry even when
// compute panics, so a panic never strands the waiters.
func (m *Memo[V]) lead(e *Entry[V], compute func() (V, error)) {
	completed := false
	defer func() {
		if !completed {
			var zero V
			m.Complete(e, zero, fmt.Errorf("memo: computation of %q panicked", e.key))
		}
	}()
	val, err := compute()
	completed = true
	m.Complete(e, val, err)
}
