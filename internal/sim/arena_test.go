package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// arenaCase is one run of the arena-reuse tests, built on the test
// goroutine and safe to run from any other.
type arenaCase struct {
	name string
	run  func() (*Result, error)
}

// arenaCases are four runs that size an arena differently: the 8x8
// static-VC golden case with shallow buffers, a 16x16 dynamic-VC run, the
// torus golden case (both golden cases shortened), and a churn run
// stepped through a fault, a swap and Finish.
func arenaCases(t *testing.T) []arenaCase {
	t.Helper()
	golden := map[string]goldenCase{}
	for _, gc := range goldenCases() {
		golden[gc.name] = gc
	}
	runConfig := func(cfg Config) func() (*Result, error) {
		if cfg.WarmupCycles > 500 { // the golden cases, shortened
			cfg.WarmupCycles, cfg.MeasureCycles = 500, 3000
		}
		return func() (*Result, error) {
			s, err := New(cfg)
			if err != nil {
				return nil, err
			}
			return s.Run()
		}
	}

	m16 := topology.NewMesh(16, 16)
	flows16, err := traffic.Transpose(m16, 10)
	if err != nil {
		t.Fatal(err)
	}
	dyn := Config{Mesh: m16, Routes: xyRoutes(t, m16, flows16), VCs: 2, DynamicVC: true,
		OfferedRate: 6, WarmupCycles: 300, MeasureCycles: 1000, Seed: 29}

	m, flows, set := churnSetup(t)
	pair := linkPairOf(t, m, set.Routes[0].Channels[0])
	overlay := topology.NewFaultOverlay(m)
	overlay.Disable(pair...)
	escape := escapeOn(t, overlay, flows)
	churn := func() (*Result, error) {
		s, err := New(Config{Mesh: m, Routes: set, VCs: 2, OfferedRate: 0.5,
			WarmupCycles: 1000, MeasureCycles: 4000, Seed: 7})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		if _, err := s.Advance(ctx, 2000); err != nil {
			return nil, err
		}
		s.DisableChannels(true, pair...)
		if err := s.SwapRoutes(escape); err != nil {
			return nil, err
		}
		dead, err := s.Advance(ctx, 5000)
		if err != nil {
			return nil, err
		}
		return s.Finish(dead), nil
	}

	return []arenaCase{
		{"mesh8x8-buf4", runConfig(golden["mesh8x8-transpose-vc2-buf4-r8-s19-saturated"].cfg(t))},
		{"mesh16x16-dyn", runConfig(dyn)},
		{"torus4x4", runConfig(golden["torus4x4-transpose-vc2-r2-s9"].cfg(t))},
		{"churn", churn},
	}
}

// runArenaCases runs every case rounds times, interleaved, and reports
// the first result that differs from want (the first round's results
// when want is nil). It returns the first round's results.
func runArenaCases(cases []arenaCase, rounds int, want []*Result) ([]*Result, error) {
	first := make([]*Result, len(cases))
	for round := 0; round < rounds; round++ {
		for i, c := range cases {
			res, err := c.run()
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", c.name, round, err)
			}
			if round == 0 {
				first[i] = res
			}
			ref := first[i]
			if want != nil {
				ref = want[i]
			}
			if !reflect.DeepEqual(res, ref) {
				return nil, fmt.Errorf("%s round %d: %+v, want %+v", c.name, round, res, ref)
			}
		}
	}
	return first, nil
}

// TestArenaReuseInvisible interleaves runs of four sizes, each repeated,
// so every run after the first starts on an arena another size left
// behind, and requires every repeat to equal its first run exactly.
func TestArenaReuseInvisible(t *testing.T) {
	if _, err := runArenaCases(arenaCases(t), 3, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArenaReuseConcurrent runs the interleaved cases on four goroutines
// at once, against results taken serially first: arenas pass between
// goroutines through the pool, and no run may see another's state. It
// is not skipped under -short, so the race detector covers the pool.
func TestArenaReuseConcurrent(t *testing.T) {
	cases := arenaCases(t)
	want, err := runArenaCases(cases, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[g] = runArenaCases(cases, 2, want)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestHeldResultNeverOverwritten keeps a Result while later runs of the
// same shape reuse the arena it came from: nothing in it may change.
func TestHeldResultNeverOverwritten(t *testing.T) {
	g := topology.NewMesh(8, 8)
	set := xyRoutes(t, g, goldenFlows(t, g, "transpose"))
	cfg := Config{Mesh: g, Routes: set, VCs: 2, OfferedRate: 4, WarmupCycles: 500, MeasureCycles: 3000, Seed: 1}
	held := run(t, cfg)
	snapshot := *held
	snapshot.PerFlowDelivered = append([]int64(nil), held.PerFlowDelivered...)
	snapshot.PerFlowLatency = append([]float64(nil), held.PerFlowLatency...)
	for seed := int64(2); seed < 6; seed++ {
		cfg.Seed = seed
		run(t, cfg)
	}
	if !reflect.DeepEqual(*held, snapshot) {
		t.Fatalf("held result changed by later runs:\n%+v\nwant\n%+v", *held, snapshot)
	}
}

// TestFinishedSimulatorIsInert pins the calls after a run has ended: a
// second Run or Finish returns the first Result, Advance and SwapRoutes
// return an error, and DisableChannels panics naming the misuse.
func TestFinishedSimulatorIsInert(t *testing.T) {
	m, _, set := churnSetup(t)
	cfg := Config{Mesh: m, Routes: set, VCs: 2, OfferedRate: 0.5, WarmupCycles: 100, MeasureCycles: 400, Seed: 3}
	ended := map[string]func(t *testing.T) (*Simulator, *Result){
		"Run": func(t *testing.T) (*Simulator, *Result) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return s, res
		},
		"Finish": func(t *testing.T) (*Simulator, *Result) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Advance(context.Background(), 300); err != nil {
				t.Fatal(err)
			}
			return s, s.Finish(false)
		},
	}
	for name, end := range ended {
		t.Run(name, func(t *testing.T) {
			s, first := end(t)
			if res, err := s.Run(); res != first || err != nil {
				t.Errorf("second Run returned (%p, %v), want the first Result %p", res, err, first)
			}
			if res := s.Finish(true); res != first {
				t.Errorf("Finish returned %p, want the first Result %p", res, first)
			}
			cycle := s.Cycle()
			if _, err := s.Advance(context.Background(), cycle+100); err == nil || !strings.Contains(err.Error(), "finished") {
				t.Errorf("Advance after the end: %v, want an error naming the finished simulator", err)
			}
			if s.Cycle() != cycle {
				t.Errorf("Advance after the end moved the cycle from %d to %d", cycle, s.Cycle())
			}
			if err := s.SwapRoutes(set); err == nil || !strings.Contains(err.Error(), "finished") {
				t.Errorf("SwapRoutes after the end: %v, want an error naming the finished simulator", err)
			}
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "DisableChannels on a finished Simulator") {
						t.Errorf("DisableChannels after the end panicked with %q", msg)
					}
				}()
				s.DisableChannels(false, set.Routes[0].Channels[0])
			}()
		})
	}

	// A cancelled run ends too: a second RunContext repeats its answer.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := s.RunContext(ctx); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned (%v, %v)", res, err)
	}
	if res, err := s.Run(); res != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Run after a cancelled run returned (%v, %v), want the cancellation again", res, err)
	}
}

// TestWarmRunAllocatesLittle runs a saturated 8x8 transpose cold, with
// no arena released, then again on the arena it left: the warm run
// allocates under 5% of the cold run's bytes.
func TestWarmRunAllocatesLittle(t *testing.T) {
	lastArena.Store(nil)
	runtime.GC() // two collections empty the pool, victims included
	runtime.GC()
	g := topology.NewMesh(8, 8)
	set := xyRoutes(t, g, goldenFlows(t, g, "transpose"))
	cfg := Config{Mesh: g, Routes: set, VCs: 2, OfferedRate: 32, WarmupCycles: 2000, MeasureCycles: 10000, Seed: 5}
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := allocated()
	if warm := allocated(); warm*20 >= cold {
		t.Errorf("warm run allocated %d bytes, cold %d: want under 5%%", warm, cold)
	}
}

// zeroSource is a rand.Source whose every Float64 is 0.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// TestTinyRateInjectsNothing offers rates far below one packet a run. A
// gap too long for an int64 must schedule the flow never, not wrap
// around to a flow that fires every cycle; a non-finite rate is
// rejected.
func TestTinyRateInjectsNothing(t *testing.T) {
	m := topology.NewMesh(4, 4)
	set := xyRoutes(t, m, goldenFlows(t, m, "transpose"))
	for _, rate := range []float64{1e-15, 1e-20, 1e-30, 1e-300} {
		res := run(t, Config{Mesh: m, Routes: set, OfferedRate: rate, WarmupCycles: 100, MeasureCycles: 1000, Seed: 1})
		if res.PacketsInjected != 0 || res.FlitHops != 0 {
			t.Errorf("rate %g: %d packets injected, %d flit hops; want none", rate, res.PacketsInjected, res.FlitHops)
		}
	}

	// A denormal per-flow probability makes 1/ln(1-p) -Inf, and a draw
	// of 0 then makes the gap NaN.
	s, err := New(Config{Mesh: m, Routes: set, OfferedRate: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.invLogQ[0] = 1 / math.Log1p(-math.SmallestNonzeroFloat64)
	s.rng = rand.New(zeroSource{})
	if gap := s.geomGap(0); gap < 1<<40 {
		t.Errorf("gap %d for a denormal probability, want never", gap)
	}

	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(Config{Mesh: m, Routes: set, OfferedRate: rate}); err == nil || !strings.Contains(err.Error(), "offered rate") {
			t.Errorf("rate %g: New returned %v, want an offered-rate error", rate, err)
		}
	}
}
