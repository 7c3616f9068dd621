package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentJoinsElectOneLeader: N concurrent callers of one key run
// the computation once and all read its value.
func TestConcurrentJoinsElectOneLeader(t *testing.T) {
	const callers = 64
	m := New[int](4)
	var (
		computes, leaders, entered atomic.Int64
		release                    = make(chan struct{})
		wg                         sync.WaitGroup
	)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			v, leader, err := m.Do(context.Background(), "k", func() (int, error) {
				computes.Add(1)
				<-release // hold the flight open while the herd arrives
				return 42, nil
			})
			if leader {
				leaders.Add(1)
			}
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	// Callers that join before the release wait on the flight, later ones
	// hit the completed entry; either way nobody computes twice.
	for entered.Load() < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if computes.Load() != 1 || leaders.Load() != 1 {
		t.Fatalf("%d computes, %d leaders for %d callers; want 1 and 1", computes.Load(), leaders.Load(), callers)
	}
	if _, st := m.Join("k"); st != Hit {
		t.Errorf("completed key joins as %v, want Hit", st)
	}
}

// TestBoundHoldsAndSparesInFlight: completed entries are evicted least
// recently used first, and an entry still in flight is never evicted,
// however many completions pass it by.
func TestBoundHoldsAndSparesInFlight(t *testing.T) {
	m := New[string](2)
	inflight, st := m.Join("slow")
	if st != Leader {
		t.Fatalf("first Join = %v, want Leader", st)
	}
	for i := range 10 {
		key := fmt.Sprint("k", i)
		e, _ := m.Join(key)
		m.Complete(e, key, nil)
		if m.Len() > 2 {
			t.Fatalf("after %d completions Len = %d, bound is 2", i+1, m.Len())
		}
	}
	if _, st := m.Join("slow"); st != Waiter {
		t.Fatalf("in-flight entry joins as %v after 10 completions, want Waiter", st)
	}
	// k8 and k9 are the survivors; touching k8 makes k9 the eviction victim.
	if _, st := m.Join("k8"); st != Hit {
		t.Fatalf("k8 = %v, want Hit", st)
	}
	m.Complete(inflight, "done", nil)
	if _, st := m.Join("k8"); st != Hit {
		t.Error("recently used k8 was evicted")
	}
	if _, st := m.Join("slow"); st != Hit {
		t.Error("just-completed entry is not retained")
	}
	if e, st := m.Join("k9"); st != Leader {
		t.Error("least recently used k9 survived past the bound")
	} else {
		m.Complete(e, "", errors.New("tidy"))
	}
}

// TestCancelledLeaderIsDroppedAndLiveWaiterRecomputes: a leader's
// cancellation is not the key's answer — a waiter whose own ctx is live
// computes afresh, and the failure is never retained.
func TestCancelledLeaderIsDroppedAndLiveWaiterRecomputes(t *testing.T) {
	m := New[int](4)
	leaderCtx, cancel := context.WithCancel(context.Background())
	joined := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leader, err := m.Do(leaderCtx, "k", func() (int, error) {
			close(joined)
			<-leaderCtx.Done()
			return 0, leaderCtx.Err()
		})
		if !leader || !errors.Is(err, context.Canceled) {
			t.Errorf("leader: leader=%v err=%v, want true and context.Canceled", leader, err)
		}
	}()
	<-joined
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, leader, err := m.Do(context.Background(), "k", func() (int, error) { return 7, nil })
		if v != 7 || !leader || err != nil {
			t.Errorf("live waiter: %d, leader=%v, %v; want 7 recomputed by itself", v, leader, err)
		}
	}()
	// Let the waiter reach Wait before the leader dies (either order is
	// correct; this one exercises the retry).
	time.Sleep(10 * time.Millisecond)
	cancel()
	wg.Wait()

	// A non-cancellation failure reaches the waiters as is and is dropped.
	boom := errors.New("boom")
	if _, _, err := m.Do(context.Background(), "bad", func() (int, error) { return 0, boom }); err != boom {
		t.Errorf("failed Do = %v, want boom", err)
	}
	if e, st := m.Join("bad"); st != Leader {
		t.Error("a failed completion was retained")
	} else {
		m.Complete(e, 0, boom)
	}
}

// TestWaiterLeavesOnItsOwnContext: a waiter whose ctx ends returns
// promptly while the flight carries on for everyone else.
func TestWaiterLeavesOnItsOwnContext(t *testing.T) {
	m := New[int](4)
	e, _ := m.Join("k")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, leader, err := m.Do(ctx, "k", func() (int, error) { return 0, errors.New("must not run") })
	if leader || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter: leader=%v err=%v, want a DeadlineExceeded waiter", leader, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("waiter took %v to leave", took)
	}
	m.Complete(e, 5, nil)
	if v, err := e.Wait(ctx); v != 5 || err != nil {
		t.Errorf("a resolved entry must win over an ended ctx: %d, %v", v, err)
	}
}

// TestPanickingLeaderReleasesWaiters: a panic in compute propagates to
// the leader but resolves the entry first.
func TestPanickingLeaderReleasesWaiters(t *testing.T) {
	m := New[int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		_, _, _ = m.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	e, st := m.Join("k")
	if st != Waiter {
		t.Fatalf("Join = %v, want Waiter", st)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := e.Wait(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter of a panicked leader got %v, want the panic error", err)
	}
}
