package sim

import (
	"context"
	"testing"

	"repro/internal/route"
	"repro/internal/topology"
)

// TestInjectionSleepWakes pins the injection ports' sleep: a node whose
// visit launched and streamed nothing leaves activeInj, and each event
// that can give it something to do puts it back in the same cycle. The
// full checker runs every cycle, so a node left asleep with a launchable
// packet or a transfer with room fails invariant 5 as well.
func TestInjectionSleepWakes(t *testing.T) {
	// saturated builds a 4x4 transpose whose source queues never empty,
	// with the checker on every cycle.
	saturated := func(t *testing.T, vcs, depth int) *Simulator {
		t.Helper()
		g := topology.NewMesh(4, 4)
		set, err := route.XY{}.Routes(g, goldenFlows(t, g, "transpose"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Mesh: g, Routes: set, VCs: vcs, BufDepth: depth, OfferedRate: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s.checkEvery = 1
		return s
	}
	step := func(t *testing.T, s *Simulator) {
		t.Helper()
		if dead, err := s.Advance(context.Background(), s.Cycle()+1); err != nil || dead {
			t.Fatalf("cycle %d: deadlocked=%v err=%v", s.Cycle(), dead, err)
		}
	}
	asleep := func(s *Simulator, n int32) bool { return s.nodeWork[n] > 0 && !s.injQueued[n] }

	t.Run("vc-owned", func(t *testing.T) {
		// One VC per port: after a transfer completes, the node's other
		// packets wait on the owned injection VC until the tail leaves.
		s := saturated(t, 1, 16)
		nn := int32(s.mesh.NumNodes())
		sleptOwned := make([]bool, nn) // asleep at some point of the current packet's tenure
		wakes := 0
		for s.Cycle() < 3000 {
			for n := int32(0); n < nn; n++ {
				if asleep(s, n) && s.bufs[s.injBase+n].owner >= 0 {
					sleptOwned[n] = true
				}
			}
			step(t, s)
			for n := int32(0); n < nn; n++ {
				if !sleptOwned[n] || s.bufs[s.injBase+n].owner >= 0 {
					continue
				}
				// The tail left this cycle: the launch it makes possible is
				// next cycle's.
				if !s.injQueued[n] {
					t.Fatalf("cycle %d: node %d still asleep after its tail left", s.Cycle(), n)
				}
				sleptOwned[n] = false
				wakes++
			}
		}
		if wakes == 0 {
			t.Fatal("no node slept on an owned injection VC; the case tests nothing")
		}
	})

	t.Run("buffer-full", func(t *testing.T) {
		// Two-flit buffers under eight-flit packets: a transfer stalls on a
		// full injection buffer and resumes when its head flit leaves.
		s := saturated(t, 2, 2)
		nn := int32(s.mesh.NumNodes())
		wakes := 0
		for s.Cycle() < 3000 {
			var blocked []int32 // per node: a full buffer a transfer waits on, or -1
			for n := int32(0); n < nn; n++ {
				bi := int32(-1)
				if asleep(s, n) {
					for _, fi := range s.nodeFlows[n] {
						if tr := &s.transfer[fi]; tr.pkt >= 0 {
							if s.occ[tr.buf].count != s.depth {
								t.Fatalf("cycle %d: node %d asleep with room in buf %d", s.Cycle(), n, tr.buf)
							}
							bi = tr.buf
						}
					}
				}
				blocked = append(blocked, bi)
			}
			heads := make([]int32, nn)
			for n, bi := range blocked {
				if bi >= 0 {
					heads[n] = s.occ[bi].head
				}
			}
			step(t, s)
			for n, bi := range blocked {
				if bi < 0 || s.occ[bi].head == heads[n] {
					continue // no transfer blocked, or no pop this cycle
				}
				if !s.injQueued[n] {
					t.Fatalf("cycle %d: node %d still asleep after buf %d popped", s.Cycle(), n, bi)
				}
				wakes++
			}
		}
		if wakes == 0 {
			t.Fatal("no transfer slept on a full injection buffer; the case tests nothing")
		}
	})

	for _, requeue := range []bool{false, true} {
		name := map[bool]string{false: "purge-drop", true: "purge-requeue"}[requeue]
		t.Run(name, func(t *testing.T) {
			// A purge that clears a sleeping node's injection buffer frees
			// its VC. The flow keeps queued packets, so a requeue is not a
			// first packet and enqueue does not wake the node: the purge
			// must.
			s := saturated(t, 1, 16)
			nn := int32(s.mesh.NumNodes())
			n := int32(-1)
			for n < 0 {
				step(t, s)
				for m := int32(0); m < nn; m++ {
					if asleep(s, m) && s.bufs[s.injBase+m].owner >= 0 {
						n = m
						break
					}
				}
				if s.Cycle() > 3000 {
					t.Fatal("no node slept on an owned injection VC")
				}
			}
			bi := s.injBase + n
			fi := s.packets[s.bufs[bi].owner].flow
			if s.srcQueue[fi].len() == 0 {
				t.Fatalf("flow %d has an empty source queue; the case needs a backlog", fi)
			}
			s.DisableChannels(requeue, linkPairOf(t, s.mesh, s.cfg.Routes.Routes[fi].Channels[0])...)
			if s.bufs[bi].owner >= 0 {
				t.Fatalf("purge left buf %d owned by packet %d", bi, s.bufs[bi].owner)
			}
			if !s.injQueued[n] {
				t.Fatalf("node %d still asleep after the purge freed its injection VC", n)
			}
		})
	}
}
