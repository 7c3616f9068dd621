// Performance-modeling example: route the FPGA processor-model task graph
// (thesis §5.2.2) with BSOR, force the latency-critical register-file
// flows onto minimal routes (the §7.2 variant), and compile the result
// into the table-based router configurations of chapter 4.
//
//	go run ./examples/perfmodel
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/routerconfig"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	ctx := context.Background()
	m := topology.NewMesh(8, 8)
	app, err := traffic.PerfModeling(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "performance modeling: %d modules, %d flows\n\n", len(app.Modules), len(app.Flows))

	// The register-file transfers gate the pipeline: force them minimal.
	critical := map[int]int{}
	for i, f := range app.Flows {
		if f.Name == "f4" || f.Name == "f6" || f.Name == "f7" {
			critical[i] = m.MinimalHops(f.Src, f.Dst)
		}
	}
	sel := route.DijkstraSelector{HopBudgets: critical}
	set, best, err := core.BestContext(ctx, m, app.Flows, core.Config{VCs: 2, Selector: sel})
	if err != nil {
		return err
	}
	mcl, _ := set.MCL()
	fmt.Fprintf(stdout, "BSOR with latency-critical register-file flows (via %s): MCL %.2f MB/s\n",
		best.Breaker, mcl)
	for i, r := range set.Routes {
		mark := " "
		if _, ok := critical[i]; ok {
			mark = "*"
		}
		fmt.Fprintf(stdout, "  %s %-4s %6.2f MB/s  %d hops (minimal %d)\n",
			mark, r.Flow.Name, r.Flow.Demand, r.Hops(), m.MinimalHops(r.Flow.Src, r.Flow.Dst))
	}
	fmt.Fprintln(stdout, "  (* = forced minimal)")

	// Compile to router configurations and report the hardware cost the
	// thesis argues is negligible.
	rep, err := routerconfig.Sizes(m, set, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nrouter configuration cost:\n")
	fmt.Fprintf(stdout, "  source routing: %d bits total, largest header %d bits\n",
		rep.SourceRouteBitsTotal, rep.SourceRouteBitsMax)
	fmt.Fprintf(stdout, "  node tables:    deepest table %d entries, %d bits network-wide\n",
		rep.NodeTableEntriesMax, rep.NodeTableBits)

	// Replay one flow through the compiled node tables to show the
	// index-chained lookups of Fig. 4-2(b).
	nt, err := routerconfig.CompileNodeTables(m, set)
	if err != nil {
		return err
	}
	nodes, err := nt.Walk(m, 3) // f4, the heaviest flow
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nf4 through the node tables:")
	for _, n := range nodes {
		fmt.Fprintf(stdout, " %s", m.NodeName(n))
	}
	fmt.Fprintln(stdout)

	// The same selection also works without bandwidth estimates (§7.2):
	// minimize the maximum number of flows per link instead.
	unit := route.UnitDemand(route.DijkstraSelector{})
	full := cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)}.
		Break(cdg.NewFull(m, 2))
	g := flowgraph.New(full, app.Flows, 4*62.73)
	uset, err := unit.SelectContext(ctx, g)
	if err != nil {
		return err
	}
	counts := make(map[topology.ChannelID]int)
	maxFlows := 0
	for _, r := range uset.Routes {
		for _, ch := range r.Channels {
			counts[ch]++
			if counts[ch] > maxFlows {
				maxFlows = counts[ch]
			}
		}
	}
	umcl, _ := uset.MCL()
	fmt.Fprintf(stdout, "\nbandwidth-oblivious variant: max %d flows share a link (MCL %.2f MB/s)\n",
		maxFlows, umcl)
	return nil
}
