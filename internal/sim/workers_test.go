package sim

import (
	"reflect"
	"testing"

	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Config.Workers has no effect: the cycle loop is one sequential pass.
// These tests pin that contract for as long as the field exists — every
// Result bit-identical, every invariant intact, the validation unchanged —
// and go with it.

func runWorkers(t *testing.T, cfg Config, workers int) *Result {
	t.Helper()
	cfg.Workers = workers
	return run(t, cfg)
}

// TestWorkerCountByteIdentical runs every golden configuration, plus a
// 16x16 mesh, at Workers 0 and 8 and requires bit-identical Results.
// reflect.DeepEqual on the whole struct covers any new Result field the
// day it is added.
func TestWorkerCountByteIdentical(t *testing.T) {
	cases := append(goldenCases(), goldenCase{
		name: "mesh16x16-transpose-vc2-r12-s5",
		cfg: func(t *testing.T) Config {
			t.Helper()
			g := topology.NewMesh(16, 16)
			set, err := route.XY{}.Routes(g, goldenFlows(t, g, "transpose"))
			if err != nil {
				t.Fatal(err)
			}
			return Config{Mesh: g, Routes: set, VCs: 2, OfferedRate: 12,
				WarmupCycles: 1000, MeasureCycles: 8000, Seed: 5}
		},
	})
	for _, gc := range cases {
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg(t)
			if base, res := runWorkers(t, cfg, 0), runWorkers(t, cfg, 8); !reflect.DeepEqual(base, res) {
				t.Errorf("workers=8 diverged from workers=0:\n  base: %+v\n  got:  %+v", base, res)
			}
		})
	}
}

// TestWorkerCountByteIdenticalPauseResume drives two flows far past
// saturation, so generation pauses and resumes thousands of times — the
// resume draws are the one place the RNG stream is re-ordered (commit).
func TestWorkerCountByteIdenticalPauseResume(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: 0, Dst: 63, Demand: 10},
		{ID: 1, Name: "b", Src: 63, Dst: 0, Demand: 10},
	}
	cfg := Config{Mesh: m, Routes: xyRoutes(t, m, flows), VCs: 2, OfferedRate: 4,
		WarmupCycles: 1000, MeasureCycles: 40000, Seed: 21}
	base := runWorkers(t, cfg, 1)
	if base.PacketsDelivered < 4000 {
		t.Fatalf("run too light to fill source queues: %d delivered", base.PacketsDelivered)
	}
	if res := runWorkers(t, cfg, 4); !reflect.DeepEqual(base, res) {
		t.Errorf("workers=4 diverged under pause/resume:\n  base: %+v\n  got:  %+v", base, res)
	}
}

// TestParallelActiveSetInvariants is TestActiveSetInvariants with Workers
// set: the full-scan checker must pass whatever the field holds.
func TestParallelActiveSetInvariants(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg(t)
			cfg.WarmupCycles = 500
			cfg.MeasureCycles = 2500
			cfg.Workers = 4
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.checkEvery = 7
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkersValidation pins the config contract: negative is an error,
// any other value is accepted.
func TestWorkersValidation(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows, err := traffic.Transpose(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	set := xyRoutes(t, m, flows)
	if _, err := New(Config{Mesh: m, Routes: set, Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	run(t, Config{Mesh: m, Routes: set, OfferedRate: 0.5, Workers: 1024,
		WarmupCycles: 100, MeasureCycles: 500})
}
