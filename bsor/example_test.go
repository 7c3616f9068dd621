package bsor_test

import (
	"context"
	"fmt"
	"log"

	"repro/bsor"
)

// ExampleSynthesize routes a custom three-flow workload on a 4x4 mesh:
// BSOR explores fifteen acyclic channel dependence graphs and keeps the
// route set with the smallest maximum channel load, deadlock-free by
// construction.
func ExampleSynthesize() {
	err := bsor.RegisterWorkload("example-dma", func(t bsor.TopoInfo, demand float64) ([]bsor.Flow, error) {
		last := t.Nodes - 1
		return []bsor.Flow{
			{Name: "dma-a", Src: 0, Dst: last, Demand: 40},
			{Name: "dma-b", Src: 0, Dst: last, Demand: 40},
			{Name: "ctrl", Src: 3, Dst: last - 3, Demand: 10},
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	set, err := bsor.Synthesize(context.Background(), bsor.Spec{
		Topo: bsor.Mesh(4, 4), Workload: "example-dma", VCs: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCL %.0f MB/s via CDG %q\n", set.MCL(), set.Breaker())
	_, err = set.Certify()
	fmt.Println("deadlock free:", err == nil)
	// Output:
	// MCL 40 MB/s via CDG "S-first"
	// deadlock free: true
}

// ExamplePipeline synthesizes deadlock-free routes on a fault-degraded
// mesh — three links removed, connectivity preserved — where
// dimension-order routing no longer applies, and compares BSOR against
// the graph-generic shortest-path baseline.
func ExamplePipeline() {
	err := bsor.RegisterWorkload("example-faulted", func(t bsor.TopoInfo, demand float64) ([]bsor.Flow, error) {
		last := t.Nodes - 1
		return []bsor.Flow{
			{Name: "dma-a", Src: 0, Dst: last, Demand: 40},
			{Name: "dma-b", Src: 0, Dst: last, Demand: 40},
			{Name: "ctrl", Src: 3, Dst: last - 3, Demand: 10},
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	faulted := bsor.FaultedMesh(4, 4, 3, 7)
	p, err := bsor.NewPipeline([]bsor.Spec{
		{Name: "BSOR", Topo: faulted, Workload: "example-faulted"},
		{Name: "SP", Topo: faulted, Workload: "example-faulted", Algorithm: "SP"},
	})
	if err != nil {
		log.Fatal(err)
	}
	results, err := p.RunAll(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("%s MCL %.0f MB/s\n", res.Name, res.MCL)
	}
	// The BSOR routes explored the graph-generic up*/down* CDGs of the
	// degraded fabric and stayed deadlock free.
	// Output:
	// BSOR MCL 40 MB/s
	// SP MCL 90 MB/s
}

// ExamplePipeline_cancellation shows the cancellation contract: a
// cancelled context stops the pipeline within one job boundary and
// surfaces ctx.Err().
func ExamplePipeline_cancellation() {
	p, err := bsor.NewPipeline([]bsor.Spec{{
		Topo: bsor.Mesh(8, 8), Workload: "transpose",
		Sim: &bsor.SimSpec{Rates: []float64{5, 10, 15, 20}},
	}})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any job starts
	_, err = p.RunAll(ctx)
	fmt.Println(err)
	// Output:
	// context canceled
}
