// Command benchmark is the repository's one benchmark: six named
// workloads that between them load every layer of the stack, each run as
// one fresh process that prints every metric by name with its unit,
// verifies its outputs against pinned goldens, and ends with one JSON
// result line (the contract in ../BENCHMARK.json; README.md has the
// workloads, the metric definitions and the interaction table).
//
//	go run -C benchmark . -workload sim-curve -seed 1 -seconds 10 -trace 0
//	go run -C benchmark . -workload daemon-hot -seed 7 -trace 1 -spans /tmp/spans.json
//	go run -C benchmark . -compare a.jsonl b.jsonl
//	go run -C benchmark . -update-golden
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// A run sets up setupRuns times, or until set-up has used setupBudget
// seconds, and reports the median as setup_s: the cheap set-ups repeat so
// that one slow start does not decide the number, the multi-second ones
// (a Clos route build, a cache warm) are steady enough alone.
const (
	setupRuns   = 3
	setupBudget = 3.0
)

// config is what one run of one workload is given. The seed reaches only
// the input generators of the daemon workloads; the program under test
// sees generated specs, never the seed.
type config struct {
	seed    int64
	seconds float64
	clients int  // closed-loop clients, pipeline workers and server workers
	short   bool // smoke-test sizes
	// variant, when not negative, fixes the demand variant of every
	// daemon spec instead of drawing it (golden recording).
	variant int
	golden  *goldens
}

func (c config) scale() string {
	if c.short {
		return "short"
	}
	return "full"
}

// passStats is what one pass over a workload's fixed op list reports.
type passStats struct {
	// passes counts the passes summed into the stats (the harness sets 1
	// per pass), so per-pass figures can be taken from a sum.
	passes            int
	attempted, failed int
	// mclSum totals the MCL of every synthesised route set in the pass.
	mclSum float64
	// simCycles and simSeconds total the simulated cycles and the host
	// time spent inside sim.Run.
	simCycles, flitHops int64
	simSeconds          float64
	// lat holds client-observed request latencies (ms) per endpoint.
	lat map[string][]float64
}

func (p *passStats) add(q passStats) {
	p.passes += q.passes
	p.attempted += q.attempted
	p.failed += q.failed
	p.mclSum += q.mclSum
	p.simCycles += q.simCycles
	p.flitHops += q.flitHops
	p.simSeconds += q.simSeconds
	for k, v := range q.lat {
		if p.lat == nil {
			p.lat = map[string][]float64{}
		}
		p.lat[k] = append(p.lat[k], v...)
	}
}

func (p passStats) allLat() []float64 {
	var all []float64
	for _, v := range p.lat {
		all = append(all, v...)
	}
	return all
}

// layers collects the per-layer metric values of a traced run by name.
type layers map[string]float64

// instance is one set-up workload: inputs generated, state built, caches
// as warm as the workload says they are.
type instance interface {
	// prepare gives the next pass the fresh state it needs (a cold
	// server, a new pipeline); it is not timed. Set-up leaves the first
	// pass prepared.
	prepare() error
	// pass runs the workload's fixed op list once, verifying outputs.
	pass(tr *tracer) passStats
	// inspect runs the inner-layer replay pass of a traced run and fills
	// in the workload's per-layer metrics. traced holds the stats of the
	// traced passes, whose spans are tr's from index tracedFrom on.
	inspect(tr *tracer, tracedFrom int, traced passStats, lm layers) passStats
	close()
}

// workloadDef is one named workload; why is its reason for existing
// (README.md says more).
type workloadDef struct {
	name  string
	why   string
	setup func(cfg config, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	{"synth-milp", "cold MILP route synthesis plus certification of the Table 6.1 grid: lp and flowgraph enumeration do the work, sim and server idle", setupSynth},
	{"sim-curve", "sequential simulator hot loop on mesh 16x16 from deep sub-saturation to saturation: synthesis layers idle", setupSimCurve},
	{"sim-scale", "simulator on a 64x64 mesh and a 32x256 folded Clos with table build timed: cache-missing arena and sparse-table cost", setupSimScale},
	{"daemon-cold", "distinct specs through bsord over loopback HTTP, every request a miss: decode to render plus the cache write path", setupDaemonCold},
	{"daemon-hot", "repeated re-spelled specs against a warm bsord, every request a hit: canonicalisation and cache reads, no synthesis", setupDaemonHot},
	{"sweep", "a cmd/experiments-style pipeline sweep plus live-fault churn through the facade: job scheduling, synthesis memo, sim under job parallelism", setupSweep},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measured is one timed pass.
type measured struct {
	wall    float64 // seconds
	allocMB float64
	stats   passStats
}

// runPasses repeats the op list until budget seconds of measured time
// are used (always at least once), preparing fresh state between passes.
func runPasses(inst instance, tr *tracer, budget float64, first bool) ([]measured, error) {
	var out []measured
	used := 0.0
	for {
		if !first {
			if err := inst.prepare(); err != nil {
				return out, err
			}
		}
		first = false
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		stats := inst.pass(tr)
		wall := time.Since(start).Seconds()
		stats.passes = 1
		runtime.ReadMemStats(&after)
		out = append(out, measured{wall: wall, stats: stats,
			allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6})
		used += wall
		// Stop when another pass would overshoot the budget by more than
		// it undershoots now.
		if used+wall/2 > budget {
			return out, nil
		}
	}
}

// result is what one run reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up, measures it, and (traced) inspects
// its layers.
func runWorkload(w workloadDef, cfg config, traced bool, spansPath string) (result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var (
		inst   instance
		setups []float64
	)
	for used := 0.0; len(setups) < setupRuns && used < setupBudget; {
		if inst != nil {
			inst.close()
		}
		// Layer sums must count set-up once: each set-up's spans replace
		// the previous one's.
		tr.reset()
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg, tr); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		used += setups[len(setups)-1]
	}
	defer inst.close()
	// Set-up's garbage goes back to the OS, so that the peak sampled from
	// here on is the measured phase's own.
	debug.FreeOSMemory()
	sampler := startRSSSampler()
	defer sampler.stop()

	budget := cfg.seconds
	if traced {
		budget /= 2 // half untraced, half traced, so the overhead ratio is from one process
	}
	untraced, err := runPasses(inst, nil, budget, true)
	if err != nil {
		return result{}, err
	}
	var total passStats
	walls, allocs := []float64{}, []float64{}
	for _, m := range untraced {
		total.add(m.stats)
		walls = append(walls, m.wall)
		allocs = append(allocs, m.allocMB)
	}

	res := result{metrics: map[string]metricValue{}}
	if !traced {
		vals := map[string]float64{
			"setup_s":     median(setups),
			"wall_s":      median(walls),
			"alloc_mb":    median(allocs),
			"peak_rss_mb": sampler.stop(),
		}
		for _, d := range endToEnd {
			res.metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	} else {
		tracedFrom := tr.count()
		passes, err := runPasses(inst, tr, budget, false)
		if err != nil {
			return result{}, err
		}
		var tracedStats passStats
		var tracedWalls []float64
		for _, m := range passes {
			tracedStats.add(m.stats)
			tracedWalls = append(tracedWalls, m.wall)
		}
		total.add(tracedStats)
		replayFrom := tr.count()
		lm := layers{}
		total.add(inst.inspect(tr, tracedFrom, tracedStats, lm))
		spans := tr.snapshot()
		addSpanSums(lm, spans, tracedFrom, replayFrom, len(passes))
		lm["trace.overhead_ratio"] = median(tracedWalls) / median(walls)
		for _, d := range perLayer {
			res.metrics[d.name] = metricValue{lm[d.name], d.unit}
		}
		for name := range lm {
			if _, ok := res.metrics[name]; !ok {
				return result{}, fmt.Errorf("layer metric %q is not in the per-layer table", name)
			}
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, spans); err != nil {
				return result{}, err
			}
		}
	}
	res.attempted, res.failed = total.attempted, total.failed
	res.correct = total.failed == 0 && total.attempted > 0
	return res, nil
}

// addSpanSums fills every "<span name>_ms" layer metric with the total
// duration of the spans of that name: set-up and replay spans as
// recorded, traced-pass spans as the mean per pass. core.self_ms is the
// self time of the core.best spans.
func addSpanSums(lm layers, spans []span, tracedFrom, replayFrom, tracedPasses int) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	total, self := sumByName(spans, 0)
	tracedTotal, tracedSelf := sumByName(spans[:replayFrom], tracedFrom)
	scale := 1 - 1/float64(tracedPasses) // remove all but one pass's worth
	for name, v := range total {
		if key := name + "_ms"; known[key] {
			lm[key] += v - tracedTotal[name]*scale
		}
	}
	lm["core.self_ms"] += self["core.best"] - tracedSelf["core.best"]*scale
}

// logf reports a failed op's reason on standard error; the op is also
// counted in the run's failed total.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// rssMB reads the process's current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler tracks the highest resident set size seen while it runs,
// reading it every 10 ms: the peak of the measured phase alone, which
// VmHWM (a whole-process high-water mark) cannot give once set-up has
// peaked higher — as sim-scale's does, by a factor of ten.
type rssSampler struct {
	quit, done chan struct{}
	peak       float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{}), peak: rssMB()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.peak = max(s.peak, rssMB())
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

// stop ends the sampling (once; later calls only read) and returns the
// peak in MB.
func (s *rssSampler) stop() float64 {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	<-s.done
	return max(s.peak, rssMB())
}

// commit reports the VCS revision the binary was built from, when the
// toolchain recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// record is one run as -record appends it and -compare reads it.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	resultLine
}

// resultLine is the JSON object a run ends with: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload     = fs.String("workload", "", "workload to run: "+workloadNames())
		seed         = fs.Int64("seed", 1, "seed of the daemon workloads' spec draw and request order")
		seconds      = fs.Float64("seconds", 10, "measured time to fill with passes over the op list (at least one pass runs)")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		clients      = fs.Int("clients", min(runtime.NumCPU(), 4), "closed-loop clients, pipeline workers and server workers (at most nproc)")
		short        = fs.Bool("short", false, "smoke-test sizes")
		spansPath    = fs.String("spans", "", "with -trace 1: write the recorded spans to this file")
		recordPath   = fs.String("record", "", "append the run as one JSON line to this file (input of -compare)")
		compare      = fs.Bool("compare", false, "compare two -record files: benchmark -compare a.jsonl b.jsonl")
		bounds       = fs.String("bounds", "../BENCHMARK.json", "with -compare: the BENCHMARK.json that fixes the bounds")
		updateGolden = fs.Bool("update-golden", false, "re-record testdata/golden.json from the current program")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two record files"))
		}
		ok, err := compareFiles(stdout, *bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *updateGolden:
		if err := recordGoldens(*clients, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	w, ok := findWorkload(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames()))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	// Load discipline: a load generator with more clients than cores
	// measures its own queueing, not the system.
	if *clients < 1 || *clients > runtime.NumCPU() {
		return fail(fmt.Errorf("-clients %d: want 1..%d (the host's CPU count)", *clients, runtime.NumCPU()))
	}
	g, err := loadGoldens()
	if err != nil {
		return fail(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, clients: *clients, short: *short, variant: -1, golden: g}

	res, err := runWorkload(w, cfg, *trace == 1, *spansPath)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	rec := record{
		Workload: w.name, Seed: *seed, Trace: *trace,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		resultLine: resultLine{res.correct, res.attempted, res.failed, res.metrics},
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d clients %d host_cpus %d GOMAXPROCS %d %s commit %s\n",
		rec.Workload, rec.Seed, rec.Trace, *clients, rec.HostCPUs, rec.GOMAXPROCS, rec.GoVersion, rec.Commit)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, res.metrics[d.name].Value, d.unit)
	}
	for _, msg := range g.mismatches() {
		fmt.Fprintln(stdout, "golden mismatch:", msg)
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, rec); err != nil {
			return fail(err)
		}
	}
	last, err := json.Marshal(rec.resultLine)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(last))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
