// Quickstart for the public repro/bsor façade: register a custom
// workload, route it on a 4x4 mesh with BSOR, verify deadlock freedom,
// simulate BSOR against XY through a streaming pipeline, then degrade the
// mesh with link faults and synthesize deadlock-free routes on the
// irregular remainder.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/bsor"
)

// 1. A custom workload: three flows with estimated bandwidths (MB/s). Two
// flows share endpoints, so a dimension-order router would stack them onto
// one path. Registered workloads are usable by name in any Spec, exactly
// like the built-ins. A name registers once per process, so the program
// registers it as it starts.
var errRegister = bsor.RegisterWorkload("quickstart", func(t bsor.TopoInfo, demand float64) ([]bsor.Flow, error) {
	last := t.Nodes - 1
	return []bsor.Flow{
		{Name: "dma-a", Src: 0, Dst: last, Demand: 40},
		{Name: "dma-b", Src: 0, Dst: last, Demand: 40},
		{Name: "ctrl", Src: 3, Dst: last - 3, Demand: 10},
	}, nil
})

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	if errRegister != nil {
		return errRegister
	}

	// 2. BSOR: explore acyclic channel dependence graphs, select routes
	// minimizing the maximum channel load.
	ctx := context.Background()
	spec := bsor.Spec{Topo: bsor.Mesh(4, 4), Workload: "quickstart", VCs: 2}
	set, err := bsor.Synthesize(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "BSOR chose CDG %q: MCL %.1f MB/s, bottleneck %s\n",
		set.Breaker(), set.MCL(), set.Bottleneck())
	for _, r := range set.Routes() {
		fmt.Fprintf(stdout, "  %-6s %d hops\n", r.Flow.Name, len(r.Hops))
	}

	// 3. The route set is deadlock free by construction, and every set
	// Synthesize returns carries a checked certificate over its full
	// acyclic CDG: read it back.
	if _, err := set.Certify(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "deadlock freedom verified")

	// 4. Compare against XY dimension-order routing.
	xy, err := bsor.Synthesize(ctx, bsor.Spec{
		Topo: bsor.Mesh(4, 4), Workload: "quickstart", Algorithm: "XY", VCs: 2,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "XY MCL would be %.1f MB/s\n", xy.MCL())

	// 5. Simulate both on the cycle-accurate wormhole router model, as a
	// two-spec pipeline streaming results as they complete.
	sim := &bsor.SimSpec{Rates: []float64{1.5}, Warmup: 2000, Measure: 20000, Seed: 1}
	p, err := bsor.NewPipeline([]bsor.Spec{
		{Name: "BSOR", Topo: bsor.Mesh(4, 4), Workload: "quickstart", VCs: 2, Sim: sim},
		{Name: "XY", Topo: bsor.Mesh(4, 4), Workload: "quickstart", Algorithm: "XY", VCs: 2, Sim: sim},
	})
	if err != nil {
		return err
	}
	results, err := p.RunAll(ctx)
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
		fmt.Fprintf(stdout, "%-5s throughput %.3f pkt/cycle, avg latency %.1f cycles\n",
			res.Name, res.Point.Throughput, res.Point.AvgLatency)
	}

	// 6. Degrade the fabric: fail three links (seeded, connectivity
	// guaranteed) and synthesize deadlock-free routes on what remains.
	// Dimension-order routing no longer applies — its paths may cross
	// failed links — so the comparison point is the graph-generic SP
	// baseline, and BSOR explores the up*/down* and escape-layered CDGs.
	faulted := bsor.Spec{Topo: bsor.FaultedMesh(4, 4, 3, 7), Workload: "quickstart", VCs: 2}
	fset, err := bsor.Synthesize(ctx, faulted)
	if err != nil {
		return err
	}
	if _, err := fset.Certify(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nBSOR on the faulted mesh chose CDG %q: MCL %.1f MB/s (deadlock free)\n",
		fset.Breaker(), fset.MCL())
	faulted.Algorithm = "SP"
	sp, err := bsor.Synthesize(ctx, faulted)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "SP baseline MCL would be %.1f MB/s\n", sp.MCL())
	return nil
}
