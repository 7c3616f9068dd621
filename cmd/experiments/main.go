// Command experiments regenerates the thesis' tables and figures — and the
// extended sweeps the concurrent engine makes affordable — from declarative
// job lists executed on a worker pool.
//
//	experiments -filter table6.1      # min MCL per acyclic CDG, BSOR_MILP
//	experiments -filter table6.2      # same under BSOR_Dijkstra
//	experiments -filter table6.3      # MCL comparison across algorithms
//	experiments -filter fig6-1        # transpose throughput/latency sweep
//	...
//	experiments -filter fig6-7        # VC sweep
//	experiments -filter fig6-8        # 10% bandwidth variation
//	experiments -filter fig5-4        # injection-rate trace
//	experiments -all                  # every thesis table and figure
//
//	experiments -filter 'table6.*'    # select experiments by name or glob
//	experiments -filter torus6.2      # Table 6.2 on the 8x8 torus (dateline CDGs)
//	experiments -filter latency-curves # fine-grained offered-rate curves
//	experiments -filter vcsweep-all   # 1/2/4/8 VCs across all six workloads
//	experiments -filter '*'           # everything, including extended sweeps
//	experiments -list                 # print the experiment index
//
//	experiments -filter churn-smoke      # live fault churn, drop/requeue policies
//	experiments -filter churn-16         # 16x16 mesh, seeded 4-fault schedule
//	experiments -filter churn-milp       # MILP repair ("heuristic" is the default resynth)
//
//	experiments -filter table6.2 -jobs   # print the job list as JSON, don't run (churn scenarios are specs, not jobs: skipped)
//	experiments -filter table6.2 -json   # machine-readable results (EXPERIMENTS.md)
//	experiments -workers 4               # worker-pool size (default NumCPU)
//
//	experiments -filter fig6-1 -cpuprofile cpu.prof   # profile a sweep
//	experiments -filter fig6-1 -memprofile mem.prof   # heap profile on exit
//
//	experiments -filter churn-16 -metrics -              # Prometheus snapshot to stderr on exit
//	experiments -filter churn-16 -metrics localhost:9090 # serve /metrics and /debug/vars live
//
// -fast trims the simulated cycle counts and the MILP budget (useful for
// smoke runs); the defaults are the thesis' 20k warmup + 100k measured
// cycles. Results are deterministic for a given seed regardless of
// -workers. Simulation sweeps report their aggregate simulated
// cycles/sec and flit-hops/sec to stderr (never into -json output).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/viz"
)

// options is the parsed command line.
type options struct {
	fast, all, list, jobs, json bool
	vcs, workers                int
	filter                      string
	cpuprofile, memprofile      string
	metrics                     string
}

func (o options) milpSelector() experiments.Selector {
	if o.fast {
		return experiments.FastMILP()
	}
	return experiments.DefaultMILP()
}

func (o options) simParams() experiments.SimParams {
	p := experiments.SimParams{VCs: o.vcs, Seed: 1}
	if o.fast {
		p.WarmupCycles = 2000
		p.MeasureCycles = 10000
	}
	return p
}

func sweepRates() []float64 {
	return []float64{2, 5, 10, 15, 20, 25, 30, 35, 40, 50, 60}
}

func fineRates() []float64 {
	out := make([]float64, 0, 15)
	for r := 2.0; r <= 58; r += 4 {
		out = append(out, r)
	}
	return out
}

// experiment is one entry of the registry: a named declarative job list
// plus a pretty-printer for human-readable runs.
type experiment struct {
	name  string
	title string
	jobs  []experiments.Job
	print func(io.Writer, []experiments.Result)
	// churn replaces jobs for online-resilience scenarios (live fault
	// schedules driven through the churn supervisor).
	churn []experiments.ChurnSpec
	// run replaces job execution for the few non-job artifacts (fig5-4).
	run func(io.Writer)
}

// size is the experiment's extent as -list prints it: churn scenarios are
// declared as churn specs and count runs, everything else counts jobs.
func (e experiment) size() string {
	if len(e.churn) == 1 {
		return "1 churn run"
	}
	if e.churn != nil {
		return fmt.Sprintf("%d churn runs", len(e.churn))
	}
	return fmt.Sprintf("%d jobs", len(e.jobs))
}

func mesh() experiments.TopoSpec  { return experiments.MeshSpec(8, 8) }
func torus() experiments.TopoSpec { return experiments.TorusSpec(8, 8) }

// registry builds the experiment index. Job lists are cheap to construct;
// nothing runs until selected.
func registry(o options) []experiment {
	p := o.simParams()
	var exps []experiment
	add := func(e experiment) { exps = append(exps, e) }

	add(experiment{
		name:  "table6.1",
		title: "Table 6.1 (BSOR_MILP: min MCL per acyclic CDG, MB/s)",
		jobs:  experiments.TableJobs("table6.1", mesh(), "BSOR-MILP", experiments.TableBreakerNames(), o.vcs),
		print: printCDGRows,
	})
	add(experiment{
		name:  "table6.2",
		title: "Table 6.2 (BSOR_Dijkstra: min MCL per acyclic CDG, MB/s)",
		jobs:  experiments.TableJobs("table6.2", mesh(), "BSOR-Dijkstra", experiments.TableBreakerNames(), o.vcs),
		print: printCDGRows,
	})
	add(experiment{
		name:  "table6.3",
		title: "Table 6.3 (MCL in MB/s per routing algorithm)",
		jobs: experiments.AlgoTableJobs("table6.3", mesh(), experiments.Table63Algorithms(),
			experiments.TableBreakerNames(), o.vcs),
		print: printAlgoRows,
	})
	figures := []struct{ id, wl string }{
		{"6-1", "transpose"}, {"6-2", "bit-complement"}, {"6-3", "shuffle"},
		{"6-4", "h264"}, {"6-5", "perf-modeling"}, {"6-6", "transmitter"},
	}
	for _, f := range figures {
		add(experiment{
			name:  "fig" + f.id,
			title: fmt.Sprintf("Figure %s (%s: throughput and average latency vs offered rate)", f.id, f.wl),
			jobs: experiments.SweepJobs("fig"+f.id, mesh(), f.wl, experiments.FigureAlgorithms(),
				experiments.TableBreakerNames(), sweepRates(), 0, p),
			print: printSweep,
		})
	}
	var vcJobs []experiments.Job
	for _, wl := range []string{"transpose", "h264"} {
		vcJobs = append(vcJobs, experiments.VCSweepJobs("fig6-7", mesh(), wl,
			[]string{"BSOR-Dijkstra", "XY"}, []int{1, 2, 4, 8}, sweepRates(), p)...)
	}
	add(experiment{
		name:  "fig6-7",
		title: "Figure 6-7 (virtual channel sweep: transpose and h264)",
		jobs:  vcJobs,
		print: printVCSweep,
	})
	variations := []struct {
		id  string
		pct float64
	}{{"6-8", 0.10}, {"6-9", 0.25}, {"6-10", 0.50}}
	for _, v := range variations {
		id, pct := v.id, v.pct
		var varJobs []experiments.Job
		for _, wl := range []string{"transpose", "h264"} {
			varJobs = append(varJobs, experiments.SweepJobs("fig"+id, mesh(), wl,
				experiments.FigureAlgorithms(), experiments.TableBreakerNames(),
				sweepRates(), pct, p)...)
		}
		add(experiment{
			name:  "fig" + id,
			title: fmt.Sprintf("Figure %s (%.0f%% bandwidth variation: transpose and h264)", id, pct*100),
			jobs:  varJobs,
			print: printSweep,
		})
	}
	add(experiment{
		name:  "fig5-4",
		title: "Figure 5-4 (node injection rate under 25% variation, first 2000 cycles)",
		run:   runTrace,
	})

	// Extended sweeps the sequential engine made too slow to run. Not part
	// of -all; select them with -filter.
	add(experiment{
		name:  "torus6.2",
		title: "Torus Table 6.2 (8x8 torus, BSOR_Dijkstra: min MCL per dateline CDG, MB/s)",
		jobs: experiments.TableJobs("torus6.2", torus(), "BSOR-Dijkstra",
			experiments.DatelineBreakerNames(), o.vcs),
		print: printCDGRows,
	})
	var torusSweep []experiments.Job
	for _, wl := range []string{"transpose", "h264"} {
		torusSweep = append(torusSweep, experiments.SweepJobs("torus-sweep", torus(), wl,
			[]string{"BSOR-Dijkstra", "XY"}, experiments.DatelineBreakerNames(),
			sweepRates(), 0, p)...)
	}
	add(experiment{
		name:  "torus-sweep",
		title: "Torus sweep (8x8 torus: BSOR_Dijkstra vs XY, transpose and h264)",
		jobs:  torusSweep,
		print: printSweep,
	})
	var curves []experiments.Job
	for _, wl := range experiments.WorkloadNames() {
		curves = append(curves, experiments.SweepJobs("latency-curves", mesh(), wl,
			[]string{"BSOR-Dijkstra", "XY"}, experiments.TableBreakerNames(),
			fineRates(), 0, p)...)
	}
	add(experiment{
		name:  "latency-curves",
		title: "Offered-rate latency curves (all six workloads, fine rate grid)",
		jobs:  curves,
		print: printSweep,
	})
	var vcAll []experiments.Job
	for _, wl := range experiments.WorkloadNames() {
		vcAll = append(vcAll, experiments.VCSweepJobs("vcsweep-all", mesh(), wl,
			[]string{"BSOR-Dijkstra", "XY"}, []int{1, 2, 4, 8}, []float64{10, 30, 50}, p)...)
	}
	add(experiment{
		name:  "vcsweep-all",
		title: "VC sweep across all six workloads (1/2/4/8 VCs)",
		jobs:  vcAll,
		print: printVCSweep,
	})
	// Synthesis-scale scenarios: 16x16 MCL tables the sparse engine and the
	// greedy heuristic make affordable (the MILP column is intentionally
	// absent at this scale — BSOR-Heuristic is its stand-in).
	add(experiment{
		name:  "synth16-mesh",
		title: "Synthesis scale (16x16 mesh: MCL in MB/s per algorithm, synthetic workloads)",
		jobs: experiments.SynthScaleJobs("synth16-mesh", experiments.MeshSpec(16, 16),
			experiments.SynthScaleAlgorithms(), experiments.TableBreakerNames(), o.vcs),
		print: printAlgoRows,
	})
	add(experiment{
		name:  "synth16-torus",
		title: "Synthesis scale (16x16 torus: MCL in MB/s per algorithm, dateline CDGs)",
		jobs: experiments.SynthScaleJobs("synth16-torus", experiments.TorusSpec(16, 16),
			experiments.SynthScaleAlgorithms(), experiments.DatelineBreakerNames(), o.vcs),
		print: printAlgoRows,
	})
	// Fault-tolerance scenario: an 8x8 mesh and torus degrade link by link
	// (one seeded fault set per count), and the graph-generic algorithms
	// are swept across offered rates on each degraded fabric — "does BSOR
	// stay deadlock-free and load-balanced when the fabric degrades?"
	faultCounts := []int{0, 4, 8, 12, 16}
	var faultJobs []experiments.Job
	for _, base := range []experiments.TopoSpec{mesh(), torus()} {
		faultJobs = append(faultJobs, experiments.FaultSweepJobs("fault-sweep", base, 1,
			faultCounts, experiments.FaultSweepAlgorithms(), "transpose",
			[]float64{10, 30, 50}, p)...)
	}
	add(experiment{
		name:  "fault-sweep",
		title: "Fault sweep (8x8 mesh and torus: throughput vs failed links, SP vs BSOR_Dijkstra)",
		jobs:  faultJobs,
		print: printFaultSweep,
	})
	// CI smoke variant: a small mesh and few fault counts, cheap enough for
	// every pull request under -fast.
	add(experiment{
		name:  "fault-sweep-smoke",
		title: "Fault sweep smoke (4x4 mesh: throughput vs failed links)",
		jobs: experiments.FaultSweepJobs("fault-sweep-smoke", experiments.MeshSpec(4, 4), 1,
			[]int{0, 2, 4}, experiments.FaultSweepAlgorithms(), "transpose",
			[]float64{2, 6}, p),
		print: printFaultSweep,
	})
	// Online-resilience scenarios: links die while the simulation runs,
	// broken flows degrade onto the up*/down* escape layer, and a
	// background re-synthesis commits a certified repaired route set one
	// recovery window later (DESIGN.md §13). The -json output is
	// byte-identical across runs and worker counts.
	add(experiment{
		name:  "churn-smoke",
		title: "Churn smoke (6x6 mesh: 2-fault live schedule, recovery metrics)",
		churn: []experiments.ChurnSpec{
			{Name: "drop", Topo: experiments.MeshSpec(6, 6), Workload: "rand-perm",
				Rate: 0.3, Seed: 11, Faults: 2, FaultSeed: 3},
			{Name: "requeue", Topo: experiments.MeshSpec(6, 6), Workload: "rand-perm",
				Rate: 0.3, Seed: 11, Faults: 2, FaultSeed: 5, Requeue: true},
		},
		print: nil,
	})
	add(experiment{
		name:  "churn-16",
		title: "Churn at scale (16x16 mesh: 4-fault live schedule, heuristic re-synthesis)",
		churn: []experiments.ChurnSpec{
			{Name: "churn-16", Topo: experiments.MeshSpec(16, 16), Workload: "transpose",
				Rate: 0.4, Seed: 11, Warmup: 4000, Measure: 40000,
				Faults: 4, FaultSeed: 7, FaultSpacing: 8192},
		},
		print: nil,
	})
	// MILP repair: every degraded instance is solved from scratch by the
	// default-budget MILP. Three seeded 3-fault schedules; the per-event
	// solve times are human output only, never in -json.
	var milpRepair []experiments.ChurnSpec
	for _, seed := range []int64{3, 5, 9} {
		milpRepair = append(milpRepair, experiments.ChurnSpec{
			Name: fmt.Sprintf("schedule-s%d", seed),
			Topo: experiments.MeshSpec(6, 6), Workload: "rand-perm",
			Rate: 0.3, Seed: 11, Measure: 28000,
			Faults: 3, FaultSeed: seed, FaultSpacing: 8192,
			Resynth: "milp",
		})
	}
	add(experiment{
		name:  "churn-milp",
		title: "Churn MILP repair (6x6 mesh: 3-fault live schedules, MILP re-synthesis)",
		churn: milpRepair,
		print: nil,
	})
	return exps
}

// selects reports whether the command line selects the named experiment.
// -all takes every table and figure of the thesis, not the extended
// sweeps. -filter is a glob, and a plain name matches only itself: there
// is no substring fallback, which would make -filter fig6-1 select
// fig6-10 too.
func (o options) selects(name string) bool {
	if o.all && (strings.HasPrefix(name, "table6.") || strings.HasPrefix(name, "fig")) {
		return true
	}
	ok, err := path.Match(o.filter, name)
	return err == nil && ok
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the selected
// experiments and writes their tables, charts or JSON documents to stdout
// and every diagnostic to stderr. Returning, rather than exiting, lets
// the deferred profile writers run.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.fast, "fast", false, "reduced cycle counts and MILP budget for smoke runs")
	fs.IntVar(&o.vcs, "vcs", 2, "virtual channels per link")
	fs.BoolVar(&o.all, "all", false, "run every thesis table and figure")
	fs.StringVar(&o.filter, "filter", "", "experiment name or glob to select experiments")
	fs.BoolVar(&o.list, "list", false, "print the experiment index and exit")
	fs.BoolVar(&o.jobs, "jobs", false, "print the selected experiments' job lists as JSON, without running (churn scenarios are declared as churn specs, not jobs, and are skipped)")
	fs.BoolVar(&o.json, "json", false, "print results as JSON instead of tables and charts")
	fs.IntVar(&o.workers, "workers", 0, "worker-pool size (0 = NumCPU)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.metrics, "metrics", "",
		`metrics sink: "-" dumps a Prometheus text snapshot to stderr on exit; any other value is a listen address serving /metrics and /debug/vars during the run. Metrics are out-of-band: stdout (-json, -jobs) is byte-identical with or without them`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer writeMemProfile(o.memprofile, stderr)
	}

	exps := registry(o)
	if o.list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-16s %s (%s)\n", e.name, e.title, e.size())
		}
		return nil
	}

	collector, closeMetrics, err := setupMetrics(o.metrics, stderr)
	if err != nil {
		return err
	}
	defer closeMetrics()
	runner := &experiments.Runner{Workers: o.workers, MILP: o.milpSelector(), Metrics: collector}
	defer reportSimRate(runner, stderr)
	ran := false
	var jsonResults []experiments.Result
	var jsonChurn []experiments.ChurnResult
	var jsonJobs []experiments.Job
	for _, e := range exps {
		if !o.selects(e.name) {
			continue
		}
		ran = true
		if e.churn != nil {
			if o.jobs {
				fmt.Fprintf(stderr, "%s is declared as churn specs, not jobs; skipping under -jobs\n", e.name)
				continue
			}
			results, err := runner.RunChurn(context.Background(), e.churn)
			if err == nil {
				err = experiments.FirstChurnError(results)
			}
			if err != nil {
				return err
			}
			if o.json {
				jsonChurn = append(jsonChurn, results...)
				continue
			}
			fmt.Fprintln(stdout, e.title)
			printChurn(stdout, results)
			fmt.Fprintln(stdout)
			continue
		}
		if o.jobs {
			jsonJobs = append(jsonJobs, e.jobs...)
			continue
		}
		if e.run != nil {
			if o.json {
				fmt.Fprintf(stderr, "%s has no job-based output; skipping under -json\n", e.name)
				continue
			}
			fmt.Fprintln(stdout, e.title)
			e.run(stdout)
			fmt.Fprintln(stdout)
			continue
		}
		results, err := runner.RunContext(context.Background(), e.jobs)
		if err == nil {
			err = experiments.FirstError(results)
		}
		if err != nil {
			return err
		}
		if o.json {
			jsonResults = append(jsonResults, results...)
			continue
		}
		fmt.Fprintln(stdout, e.title)
		e.print(stdout, results)
		fmt.Fprintln(stdout)
	}
	switch {
	case !ran:
		fs.Usage()
		return errors.New("experiments: no experiment selected")
	case o.jobs:
		return experiments.WriteJSON(stdout, jsonJobs)
	case !o.json:
		return nil
	// One JSON document per run: job results and churn results have
	// different shapes, so a selection mixing them must be split into
	// two invocations rather than silently concatenated.
	case len(jsonResults) > 0 && len(jsonChurn) > 0:
		return errors.New("-json cannot mix job and churn experiments; select them in separate runs")
	case len(jsonChurn) > 0:
		return experiments.WriteJSON(stdout, jsonChurn)
	}
	return experiments.WriteJSON(stdout, jsonResults)
}

// printChurn prints one block per churn spec: the aggregate point, then
// each fault event's purge cost and recovery. Wall-clock solve times are
// human-output only; -json stays deterministic.
func printChurn(w io.Writer, results []experiments.ChurnResult) {
	for _, res := range results {
		fmt.Fprintf(w, "%s (%s, %s, rate %.2f, %d faults, resynth %s):\n",
			res.Spec.Name, res.Spec.Topo.String(), res.Spec.Workload,
			res.Spec.Rate, res.Spec.Faults, res.Spec.Resynth)
		p := res.Point
		fmt.Fprintf(w, "  initial MCL %.2f; throughput %.4f pkt/cycle, %d delivered, avg latency %.1f\n",
			res.MCL, p.Throughput, p.Delivered, p.AvgLatency)
		fmt.Fprintf(w, "  purged: %d flits, %d packets dropped, %d requeued; worst dip %.1f%%, worst recovery %s\n",
			p.DroppedFlits, p.DroppedPackets, p.RequeuedPackets,
			100*p.ThroughputDip, cyclesOrNever(p.RecoveryCycles))
		for i, ev := range res.Events {
			fmt.Fprintf(w, "  event %d @ cycle %d: failed %v; dip %.1f%%; recovered in %s; commit @ cycle %d (epoch %d)\n",
				i, ev.Cycle, ev.Failed, 100*ev.ThroughputDip,
				cyclesOrNever(ev.RecoveryCycles), ev.CommitCycle, ev.CommitEpoch)
			fmt.Fprintf(w, "    resynth %.1fms\n", ev.ResynthWall.Seconds()*1e3)
		}
	}
}

func cyclesOrNever(c int64) string {
	if c < 0 {
		return "never (within horizon)"
	}
	return fmt.Sprintf("%d cycles", c)
}

// setupMetrics builds the collector the -metrics flag asks for and the
// func that ends it when the run returns. An empty flag gives no
// collector. "-" is snapshot mode: the end func writes the Prometheus
// text to stderr, keeping stdout (the -json/-jobs documents)
// byte-identical to a metrics-off run. Any other value is a listen
// address serving /metrics (Prometheus text) and /debug/vars (expvar)
// for the run; the end func closes the server and its listener.
func setupMetrics(dst string, stderr io.Writer) (*metrics.Collector, func(), error) {
	if dst == "" {
		return nil, func() {}, nil
	}
	c := metrics.New()
	if dst == "-" {
		return c, func() {
			if err := c.WritePrometheus(stderr); err != nil {
				fmt.Fprintln(stderr, "metrics:", err)
			}
		}, nil
	}
	ln, err := net.Listen("tcp", dst)
	if err != nil {
		return nil, nil, fmt.Errorf("-metrics %s: %w", dst, err)
	}
	liveVar.Store(c)
	publishLiveVar.Do(func() { expvar.Publish("bsor", &liveVar) })
	mux := http.NewServeMux()
	metrics.Register(mux, c)
	srv := &http.Server{Handler: mux}
	fmt.Fprintf(stderr, "metrics: serving /metrics and /debug/vars on %s\n", ln.Addr())
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "metrics:", err)
		}
	}()
	return c, func() {
		srv.Close()
		<-served
	}, nil
}

// collectorVar is the expvar "bsor": the snapshot of the latest live
// run's collector. expvar has no unpublish, so the name is published once
// per process and each live run points it at its own collector.
type collectorVar struct {
	atomic.Pointer[metrics.Collector]
}

func (v *collectorVar) String() string { return v.Load().ExpvarVar().String() }

var (
	liveVar        collectorVar
	publishLiveVar sync.Once
)

// reportSimRate prints the aggregate simulation throughput of a run to
// stderr: simulated cycles and flit hops per second of sim wall time.
// Diagnostics only — deterministic outputs (-json, -jobs) never include
// timing.
func reportSimRate(r *experiments.Runner, stderr io.Writer) {
	cycles, hops, wall := r.SimStats()
	if cycles == 0 || wall <= 0 {
		return
	}
	sec := wall.Seconds()
	fmt.Fprintf(stderr, "sim: %d cycles, %d flit-hops in %.2fs of sim time (%.0f cycles/sec, %.0f flit-hops/sec)\n",
		cycles, hops, sec, float64(cycles)/sec, float64(hops)/sec)
}

func writeMemProfile(path string, stderr io.Writer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation stats
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(stderr, err)
	}
}

func printCDGRows(w io.Writer, results []experiments.Result) {
	rows := experiments.CDGRows(results)
	if len(rows) > 0 {
		fmt.Fprintf(w, "%-16s", "workload")
		for _, b := range rows[0].Breakers {
			fmt.Fprintf(w, " %20s", b)
		}
		fmt.Fprintln(w)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.Workload)
		for _, v := range r.MCL {
			if v < 0 {
				fmt.Fprintf(w, " %20s", "n/a")
			} else {
				fmt.Fprintf(w, " %20.2f", v)
			}
		}
		fmt.Fprintln(w)
	}
}

func printAlgoRows(w io.Writer, results []experiments.Result) {
	rows := experiments.AlgoRows(results)
	if len(rows) > 0 {
		fmt.Fprintf(w, "%-16s", "workload")
		for _, a := range rows[0].Algorithms {
			fmt.Fprintf(w, " %14s", a)
		}
		fmt.Fprintln(w)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.Workload)
		for _, v := range r.MCL {
			fmt.Fprintf(w, " %14.2f", v)
		}
		fmt.Fprintln(w)
	}
}

// printSweep groups sim results by workload and prints one series block
// per group, so multi-workload experiments (fig6-8, torus-sweep) read the
// same as single-workload figures.
func printSweep(w io.Writer, results []experiments.Result) {
	for _, g := range experiments.GroupResults(results, experiments.ByWorkload) {
		fmt.Fprintf(w, "%s:\n", g.Key)
		printSeries(w, experiments.SeriesFrom(g.Results))
	}
}

// printFaultSweep prints one series block per degraded topology instance,
// in fault-count order (the job order groups by topology label).
func printFaultSweep(w io.Writer, results []experiments.Result) {
	for _, g := range experiments.GroupResults(results, experiments.ByTopo) {
		fmt.Fprintf(w, "%s (%d failed links):\n", g.Key, g.Results[0].Job.Topo.Faults)
		printSeries(w, experiments.SeriesFrom(g.Results))
	}
}

func printVCSweep(w io.Writer, results []experiments.Result) {
	for _, g := range experiments.GroupResults(results, experiments.ByWorkload) {
		byVC := experiments.SeriesByVC(g.Results)
		for _, vc := range []int{1, 2, 4, 8} {
			if len(byVC[vc]) == 0 {
				continue
			}
			fmt.Fprintf(w, "%s, %d VCs:\n", g.Key, vc)
			printSeries(w, byVC[vc])
		}
	}
}

func printSeries(w io.Writer, series []experiments.Series) {
	for _, s := range series {
		fmt.Fprintf(w, "  %s\n", s.Algorithm)
		fmt.Fprintf(w, "    %10s %12s %12s\n", "offered", "throughput", "latency")
		for _, p := range s.Points {
			note := ""
			if p.Deadlocked {
				note = "  DEADLOCK"
			}
			fmt.Fprintf(w, "    %10.2f %12.4f %12.2f%s\n", p.Offered, p.Throughput, p.AvgLatency, note)
		}
	}
	var tput, lat []viz.Series
	for _, s := range series {
		vs := viz.Series{Label: s.Algorithm}
		vl := viz.Series{Label: s.Algorithm}
		for _, p := range s.Points {
			vs.X = append(vs.X, p.Offered)
			vs.Y = append(vs.Y, p.Throughput)
			vl.X = append(vl.X, p.Offered)
			vl.Y = append(vl.Y, p.AvgLatency)
		}
		tput = append(tput, vs)
		lat = append(lat, vl)
	}
	fmt.Fprintln(w, viz.Chart("throughput (pkt/cycle) vs offered rate", tput, 60, 14))
	fmt.Fprintln(w, viz.Chart("average latency (cycles) vs offered rate", lat, 60, 14))
}

func runTrace(w io.Writer) {
	trace := experiments.InjectionTrace(experiments.DefaultDemand, 0.25, 2000, 52)
	for i := 0; i < len(trace); i += 100 {
		fmt.Fprintf(w, "  cycle %5d: %6.2f MB/s\n", i, trace[i])
	}
	// One sparkline character per 10-cycle window.
	sampled := make([]float64, 0, len(trace)/10)
	for i := 0; i < len(trace); i += 10 {
		sampled = append(sampled, trace[i])
	}
	fmt.Fprintf(w, "  trace: %s\n", viz.Sparkline(sampled))
}
