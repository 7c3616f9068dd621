// H.264 decoder example: route the thesis' fifteen-flow H.264 decoder
// task graph (Fig. 5-1) with every algorithm and compare maximum channel
// load and simulated saturation behaviour, including run-time bandwidth
// variation (§5.3).
//
//	go run ./examples/h264
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	m := topology.NewMesh(8, 8)
	app, err := traffic.H264Decoder(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "H.264 decoder: %d modules, %d flows, heaviest %s\n",
		len(app.Modules), len(app.Flows), "f7 (120.4 MB/s into the memory controller)")

	algs := []struct {
		alg     route.Algorithm
		dynamic bool
	}{
		{core.BSOR{Label: "BSOR-Dijkstra", Config: core.Config{VCs: 2}}, false},
		{route.ROMM{Seed: 1}, false},
		{route.Valiant{Seed: 1}, false},
		{route.XY{}, true},
		{route.YX{}, true},
	}

	fmt.Fprintln(stdout, "\nMCL and simulated performance at offered rate 20 pkt/cycle:")
	for _, a := range algs {
		set, err := a.alg.Routes(m, app.Flows)
		if err != nil {
			return err
		}
		mcl, _ := set.MCL()

		s, err := sim.New(sim.Config{
			Mesh: m, Routes: set, VCs: 2, DynamicVC: a.dynamic,
			OfferedRate:  20,
			WarmupCycles: 5000, MeasureCycles: 30000, Seed: 7,
		})
		if err != nil {
			return err
		}
		res, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %-14s MCL %7.2f MB/s  throughput %.3f pkt/cyc  latency %7.1f\n",
			a.alg.Name(), mcl, res.Throughput, res.AvgLatency)
	}

	// Run-time variation: data-dependent rates move within 25% of the
	// profile-time estimates while the routes stay fixed.
	fmt.Fprintln(stdout, "\nwith 25% Markov-modulated bandwidth variation (routes unchanged):")
	bsor := core.BSOR{Label: "BSOR-Dijkstra", Config: core.Config{VCs: 2}}
	set, err := bsor.Routes(m, app.Flows)
	if err != nil {
		return err
	}
	mmps := make([]*traffic.MMP, len(app.Flows))
	for i, f := range app.Flows {
		mmps[i] = traffic.NewMMP(f.Demand, 0.25, 500, int64(i))
	}
	s, err := sim.New(sim.Config{
		Mesh: m, Routes: set, VCs: 2, OfferedRate: 20,
		WarmupCycles: 5000, MeasureCycles: 30000, Seed: 7,
		RateVariation: func(flow int) float64 { return mmps[flow].Advance() },
	})
	if err != nil {
		return err
	}
	res, err := s.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  %-14s throughput %.3f pkt/cyc  latency %7.1f\n",
		bsor.Name(), res.Throughput, res.AvgLatency)
	return nil
}
