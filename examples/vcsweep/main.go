// VC sweep example (the Figure 6-7 experiment in miniature), as a
// repro/bsor pipeline: transpose traffic simulated with 1, 2, 4 and 8
// virtual channels per link, showing the thesis' finding that 2 -> 4 VCs
// mitigates head-of-line blocking (~40% throughput gain) while 4 -> 8
// adds little because link bandwidth becomes the limit.
//
//	go run ./examples/vcsweep
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/bsor"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	sim := &bsor.SimSpec{Rates: []float64{30}, Warmup: 5000, Measure: 30000, Seed: 3}
	var specs []bsor.Spec
	for _, vcs := range []int{1, 2, 4, 8} {
		specs = append(specs, bsor.Spec{
			Name: fmt.Sprintf("%d VCs", vcs),
			Topo: bsor.Mesh(8, 8), Workload: "transpose",
			Algorithm: "BSOR-Dijkstra", VCs: vcs, Sim: sim,
		})
	}
	p, err := bsor.NewPipeline(specs)
	if err != nil {
		return err
	}
	results, err := p.RunAll(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "transpose, BSOR-Dijkstra routes, offered rate 30 pkt/cycle:")
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
		fmt.Fprintf(stdout, "  %s: MCL %.0f (via %s), throughput %.3f pkt/cyc, latency %.1f cycles\n",
			res.Name, res.MCL, res.Breaker, res.Point.Throughput, res.Point.AvgLatency)
	}
	return nil
}
