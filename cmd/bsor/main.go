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
//
// The sim subcommand simulates the workload under one routing algorithm
// (a BSOR variant or a baseline) and prints throughput and latency; a
// deadlock the watchdog detects is an error (exit status 1):
//
//	bsor sim -workload transpose -alg bsor-dijkstra -rate 30
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

// run is the whole command: the verify or sim subcommand when args start
// with its name, the default synthesis report otherwise.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "verify" {
		return runVerify(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "sim" {
		return runSim(args[1:], stdout, stderr)
	}
	return runSynthesize(args, stdout, stderr)
}

// flags is one subcommand's flag set: the shared spec flags, -capacity
// when the subcommand takes it, and the flags the subcommand adds.
type flags struct {
	*flag.FlagSet
	spec     *bsor.SpecFlags
	capacity *float64
}

func newFlags(name string, stderr io.Writer, withCapacity bool) flags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := flags{FlagSet: fs, spec: bsor.RegisterFlags(fs)}
	if withCapacity {
		f.capacity = fs.Float64("capacity", 0,
			"channel capacity (MB/s): BSOR prices residual bandwidth against it and the certificate bounds every channel load by it (0 = 4x max demand for pricing, no load bound)")
	}
	return f
}

// parse parses args and returns the Spec they describe.
func (f flags) parse(args []string) (bsor.Spec, error) {
	if err := f.Parse(args); err != nil {
		return bsor.Spec{}, err
	}
	spec, err := f.spec.ParseSpec()
	if err == nil && f.capacity != nil {
		spec.Capacity = *f.capacity
	}
	return spec, err
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
	fs := newFlags("bsor", stderr, true)
	selector := fs.String("selector", "dijkstra", "dijkstra | milp | heuristic")
	verbose := fs.Bool("v", false, "print every route")
	spec, err := fs.parse(args)
	if err != nil {
		return err
	}
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
	fs := newFlags("bsor verify", stderr, true)
	selector := fs.String("selector", "dijkstra", "dijkstra | milp | heuristic | sp")
	asJSON := fs.Bool("json", false, "print the machine-checkable certificate as JSON")
	spec, err := fs.parse(args)
	if err != nil {
		return err
	}
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

// runSim simulates the spec's workload under -alg at one offered rate
// and prints the route set's MCL, then throughput, latency and packet
// counts.
func runSim(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("bsor sim", stderr, false)
	var (
		alg     = fs.String("alg", "bsor-dijkstra", "xy | yx | romm | valiant | o1turn | sp | bsor-dijkstra | bsor-milp | bsor-heuristic")
		rate    = fs.Float64("rate", 20, "offered injection rate, packets/cycle network-wide")
		warmup  = fs.Int64("warmup", 20000, "warmup cycles")
		measure = fs.Int64("measure", 100000, "measured cycles")
		seed    = fs.Int64("seed", 1, "random seed")
	)
	spec, err := fs.parse(args)
	if err != nil {
		return err
	}
	spec.Algorithm, err = bsor.NormalizeAlgorithm(*alg)
	if err != nil {
		return err
	}
	spec.Sim = &bsor.SimSpec{
		Rates: []float64{*rate}, Warmup: *warmup, Measure: *measure, Seed: *seed,
	}

	p, err := bsor.NewPipeline([]bsor.Spec{spec})
	if err != nil {
		return err
	}
	results, err := p.RunAll(context.Background())
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		return err
	}
	res := results[0]
	fmt.Fprintf(stdout, "%s on %s: MCL %.2f MB/s, avg hops %.2f\n",
		res.Algorithm, spec.Workload, res.MCL, res.AvgHops)
	pt := res.Point
	if pt.Deadlocked {
		fmt.Fprintln(stdout, "DEADLOCK detected by watchdog")
		return errors.New("bsor sim: the simulation deadlocked")
	}
	fmt.Fprintf(stdout, "offered %.2f pkt/cycle -> throughput %.4f pkt/cycle\n", pt.Offered, pt.Throughput)
	fmt.Fprintf(stdout, "avg network latency %.2f cycles (incl. source queue: %.2f)\n",
		pt.AvgLatency, pt.AvgTotalLatency)
	_, err = fmt.Fprintf(stdout, "injected %d, delivered %d over %d measured cycles\n",
		pt.Injected, pt.Delivered, *measure)
	return err
}
