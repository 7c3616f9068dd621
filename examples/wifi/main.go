// 802.11a/g transmitter example: the OFDM baseband pipeline of thesis
// §5.2.3 routed with BSOR_MILP versus BSOR_Dijkstra, demonstrating the
// MILP selector isolating the heaviest flow (f9, 58.72 Mbit/s = 7.34 MB/s)
// to reach the theoretical minimum MCL.
//
//	go run ./examples/wifi
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/route"
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
	app, err := traffic.Transmitter80211(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "802.11a/g transmitter: %d modules, %d flows (Table 5.2 rates)\n\n",
		len(app.Modules), len(app.Flows))

	selectors := []route.Selector{
		route.MILPSelector{HopSlack: 2, MaxPathsPerFlow: 16, MaxNodes: 120, Gap: 0.01},
		route.DijkstraSelector{},
	}
	for _, sel := range selectors {
		fmt.Fprintf(stdout, "%s, per-CDG MCL (MB/s):\n", sel.Name())
		results, err := core.ExploreContext(ctx, m, app.Flows, core.Config{VCs: 2, Selector: sel})
		if err != nil {
			return err
		}
		bestMCL, bestName := -1.0, ""
		for _, ex := range results {
			if ex.Err != nil {
				fmt.Fprintf(stdout, "  %-28s n/a (%v)\n", ex.Breaker, ex.Err)
				continue
			}
			fmt.Fprintf(stdout, "  %-28s %6.2f\n", ex.Breaker, ex.MCL)
			if bestMCL < 0 || ex.MCL < bestMCL {
				bestMCL, bestName = ex.MCL, ex.Breaker
			}
		}
		fmt.Fprintf(stdout, "  best: %.2f MB/s via %s (lower bound: 7.34, the f9 demand)\n\n",
			bestMCL, bestName)
	}

	// Show the winning route set in route-table form, as the programmable
	// router of chapter 4 would be configured.
	set, best, err := core.BestContext(ctx, m, app.Flows, core.Config{VCs: 2})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "selected routes (%s):\n", best.Breaker)
	for _, r := range set.Routes {
		fmt.Fprintf(stdout, "  %-4s %6.2f MB/s  %2d hops  %s -> %s\n",
			r.Flow.Name, r.Flow.Demand, r.Hops(),
			m.NodeName(r.Flow.Src), m.NodeName(r.Flow.Dst))
	}
	return nil
}
