// Command bsor computes bandwidth-sensitive oblivious routes for a
// workload, exploring acyclic channel dependence graphs and reporting the
// maximum channel load found under each, plus the selected route set.
// It is a thin client of the public repro/bsor façade.
//
// Examples:
//
//	bsor -workload transpose -selector dijkstra
//	bsor -workload h264 -selector milp -vcs 4 -v
//	bsor -topo torus -workload shuffle
//
// The verify subcommand synthesizes a route set and runs the independent
// deadlock-freedom certificate checker on it, printing the certificate
// (or, with -json, its machine-checkable form) and exiting non-zero with
// a concrete counterexample when certification rejects the set:
//
//	bsor verify -workload transpose -selector milp
//	bsor verify -topo ring8 -workload randperm -json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/bsor"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		runVerify(os.Args[2:])
		return
	}
	runSynthesize(os.Args[1:], os.Stdout)
}

// selectorAlgorithm resolves the -selector flag through the façade's
// algorithm vocabulary: a BSOR variant named by its suffix, or (verify
// only) the graph-generic baseline "sp".
func selectorAlgorithm(selector string, allowSP bool) (string, error) {
	if allowSP && strings.EqualFold(selector, "sp") {
		return bsor.NormalizeAlgorithm(selector)
	}
	return bsor.NormalizeAlgorithm("bsor-" + selector)
}

// runSynthesize is the default path: it prints the per-breaker table,
// the winning route set and its certificate to out.
func runSynthesize(args []string, out io.Writer) {
	fs := flag.NewFlagSet("bsor", flag.ExitOnError)
	var (
		sf       = bsor.RegisterFlags(fs)
		selector = fs.String("selector", "dijkstra", "dijkstra | milp | heuristic")
		capacity = fs.Float64("capacity", 0, "channel capacity (0 = 4x max demand)")
		verbose  = fs.Bool("v", false, "print every route")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	spec, err := sf.ParseSpec()
	if err != nil {
		fatal(err)
	}
	spec.Capacity = *capacity
	spec.Algorithm, err = selectorAlgorithm(*selector, false)
	if err != nil {
		fatal(err)
	}

	// The table, the winner and the certificate below are renderings of
	// one synthesis on this engine.
	ctx, engine := context.Background(), bsor.NewEngine()
	fmt.Fprintf(out, "workload %s on %s, %d VCs, algorithm %s\n\n",
		spec.Workload, spec.Topo, spec.VCs, spec.Algorithm)

	fmt.Fprintln(out, "acyclic CDG exploration (MCL in MB/s):")
	explored, err := engine.Explore(ctx, spec)
	if err != nil {
		fatal(err)
	}
	for _, ex := range explored {
		if ex.Err != nil {
			fmt.Fprintf(out, "  %-28s failed: %v\n", ex.Breaker, ex.Err)
			continue
		}
		fmt.Fprintf(out, "  %-28s MCL %8.2f   avg hops %.2f\n", ex.Breaker, ex.MCL, ex.AvgHops)
	}

	set, err := engine.Synthesize(ctx, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "\nbest: %s with MCL %.2f MB/s (bottleneck %s), avg hops %.2f\n",
		set.Breaker(), set.MCL(), set.Bottleneck(), set.AvgHops())
	if err := set.VerifyDeadlockFree(); err != nil {
		fmt.Fprintln(os.Stderr, "internal error:", err)
		os.Exit(1)
	}
	cert, err := set.Certify()
	if err != nil {
		fmt.Fprintln(os.Stderr, "internal error:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, cert.Summary())
	if hm := set.Heatmap(); hm != "" {
		fmt.Fprintln(out)
		fmt.Fprint(out, hm)
	}

	if *verbose {
		fmt.Fprintln(out, "\nroutes:")
		for _, r := range set.Routes() {
			fmt.Fprintf(out, "  %-18s %7.2f MB/s  %s\n",
				r.Flow.Name, r.Flow.Demand, strings.Join(r.Hops, " "))
		}
	}
}

func runVerify(args []string) {
	fs := flag.NewFlagSet("bsor verify", flag.ExitOnError)
	var (
		sf       = bsor.RegisterFlags(fs)
		selector = fs.String("selector", "dijkstra", "dijkstra | milp | heuristic | sp")
		capacity = fs.Float64("capacity", 0, "certify loads against this channel capacity (MB/s, 0 = skip)")
		asJSON   = fs.Bool("json", false, "print the machine-checkable certificate as JSON")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	spec, err := sf.ParseSpec()
	if err != nil {
		fatal(err)
	}
	spec.Capacity = *capacity
	spec.Algorithm, err = selectorAlgorithm(*selector, true)
	if err != nil {
		fatal(err)
	}

	cert, err := bsor.Verify(context.Background(), spec)
	if err != nil {
		var ce *bsor.Counterexample
		if errors.As(err, &ce) {
			fmt.Fprintln(os.Stderr, "certification REJECTED the route set:")
			fmt.Fprintf(os.Stderr, "  kind:   %s\n", ce.Kind)
			if len(ce.Cycle) > 0 {
				fmt.Fprintf(os.Stderr, "  cycle:  %s\n", strings.Join(ce.Cycle, " -> "))
			}
			if ce.Flow != "" {
				fmt.Fprintf(os.Stderr, "  flow:   %s (hop %d)\n", ce.Flow, ce.Hop)
			}
			fmt.Fprintf(os.Stderr, "  reason: %s\n", ce.Reason)
			os.Exit(1)
		}
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cert); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(cert.Summary())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
