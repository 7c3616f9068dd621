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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command: the verify subcommand when args start with
// "verify", the default synthesis report otherwise.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "verify" {
		return runVerify(args[1:], stdout, stderr)
	}
	return runSynthesize(args, stdout, stderr)
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
func runSynthesize(args []string, out, stderr io.Writer) error {
	fs := flag.NewFlagSet("bsor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sf       = bsor.RegisterFlags(fs)
		selector = fs.String("selector", "dijkstra", "dijkstra | milp | heuristic")
		capacity = fs.Float64("capacity", 0, "channel capacity (0 = 4x max demand)")
		verbose  = fs.Bool("v", false, "print every route")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := sf.ParseSpec()
	if err != nil {
		return err
	}
	spec.Capacity = *capacity
	spec.Algorithm, err = selectorAlgorithm(*selector, false)
	if err != nil {
		return err
	}

	// The table, the winner and the certificate below are renderings of
	// one synthesis on this engine.
	ctx, engine := context.Background(), bsor.NewEngine()
	fmt.Fprintf(out, "workload %s on %s, %d VCs, algorithm %s\n\n",
		spec.Workload, spec.Topo, spec.VCs, spec.Algorithm)

	fmt.Fprintln(out, "acyclic CDG exploration (MCL in MB/s):")
	explored, err := engine.Explore(ctx, spec)
	if err != nil {
		return err
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
		return err
	}
	fmt.Fprintf(out, "\nbest: %s with MCL %.2f MB/s (bottleneck %s), avg hops %.2f\n",
		set.Breaker(), set.MCL(), set.Bottleneck(), set.AvgHops())
	cert, err := set.Certify()
	if err != nil {
		return fmt.Errorf("internal error: %w", err)
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
	return nil
}

func runVerify(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bsor verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sf       = bsor.RegisterFlags(fs)
		selector = fs.String("selector", "dijkstra", "dijkstra | milp | heuristic | sp")
		capacity = fs.Float64("capacity", 0, "certify loads against this channel capacity (MB/s, 0 = skip)")
		asJSON   = fs.Bool("json", false, "print the machine-checkable certificate as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := sf.ParseSpec()
	if err != nil {
		return err
	}
	spec.Capacity = *capacity
	spec.Algorithm, err = selectorAlgorithm(*selector, true)
	if err != nil {
		return err
	}

	cert, err := bsor.Verify(context.Background(), spec)
	if err != nil {
		var ce *bsor.Counterexample
		if !errors.As(err, &ce) {
			return err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "certification REJECTED the route set:\n  kind:   %s\n", ce.Kind)
		if len(ce.Cycle) > 0 {
			fmt.Fprintf(&b, "  cycle:  %s\n", strings.Join(ce.Cycle, " -> "))
		}
		if ce.Flow != "" {
			fmt.Fprintf(&b, "  flow:   %s (hop %d)\n", ce.Flow, ce.Hop)
		}
		fmt.Fprintf(&b, "  reason: %s", ce.Reason)
		return errors.New(b.String())
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cert)
	}
	_, err = fmt.Fprintln(stdout, cert.Summary())
	return err
}
