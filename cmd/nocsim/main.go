// Command nocsim runs one cycle-accurate simulation of a workload under a
// routing algorithm and prints throughput and latency. It is a thin
// client of the public repro/bsor façade.
//
// Example:
//
//	nocsim -workload transpose -alg bsor-dijkstra -rate 30
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/bsor"
)

func main() {
	var (
		sf      = bsor.RegisterFlags(flag.CommandLine)
		alg     = flag.String("alg", "bsor-dijkstra", "xy | yx | romm | valiant | o1turn | sp | bsor-dijkstra | bsor-milp | bsor-heuristic")
		rate    = flag.Float64("rate", 20, "offered injection rate, packets/cycle network-wide")
		warmup  = flag.Int64("warmup", 20000, "warmup cycles")
		measure = flag.Int64("measure", 100000, "measured cycles")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	spec, err := sf.ParseSpec()
	if err != nil {
		fatal(err)
	}
	spec.Algorithm, err = bsor.NormalizeAlgorithm(*alg)
	if err != nil {
		fatal(err)
	}
	spec.Sim = &bsor.SimSpec{
		Rates: []float64{*rate}, Warmup: *warmup, Measure: *measure, Seed: *seed,
	}

	p, err := bsor.NewPipeline([]bsor.Spec{spec})
	if err != nil {
		fatal(err)
	}
	results, err := p.RunAll(context.Background())
	if err != nil {
		fatal(err)
	}
	res := results[0]
	if res.Err != nil {
		fatal(res.Err)
	}
	fmt.Printf("%s on %s: MCL %.2f MB/s, avg hops %.2f\n",
		res.Algorithm, spec.Workload, res.MCL, res.AvgHops)
	pt := res.Point
	if pt.Deadlocked {
		fmt.Println("DEADLOCK detected by watchdog")
		os.Exit(2)
	}
	fmt.Printf("offered %.2f pkt/cycle -> throughput %.4f pkt/cycle\n", pt.Offered, pt.Throughput)
	fmt.Printf("avg network latency %.2f cycles (incl. source queue: %.2f)\n",
		pt.AvgLatency, pt.AvgTotalLatency)
	fmt.Printf("injected %d, delivered %d over %d measured cycles\n",
		pt.Injected, pt.Delivered, *measure)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
