package experiments

// Declarative job-list builders and their result assemblers. Every table
// and figure of the evaluation is expressed as a flat []Job handed to
// Runner.RunContext; the assemblers fold the ordered results back into
// the rows and series the printers and docs consume.

import "fmt"

// TableJobs builds the CDG-exploration jobs of a Table 6.1/6.2-style
// experiment: one KindMCL job per workload x breaker, each exploring a
// single acyclic CDG so the whole table parallelizes cell by cell.
func TableJobs(experiment string, topo TopoSpec, algorithm string, breakers []string, vcs int) []Job {
	var jobs []Job
	for _, w := range WorkloadNames() {
		for _, b := range breakers {
			jobs = append(jobs, Job{
				Experiment: experiment, Kind: KindMCL, Topo: topo,
				Workload: w, Algorithm: algorithm,
				Breakers: []string{b}, VCs: vcs,
			})
		}
	}
	return jobs
}

// AlgoTableJobs builds the jobs of a Table 6.3-style experiment: one
// KindMCL job per workload x algorithm. BSOR algorithms explore the given
// breaker set and keep the best CDG; baselines ignore it.
func AlgoTableJobs(experiment string, topo TopoSpec, algorithms []string, breakers []string, vcs int) []Job {
	var jobs []Job
	for _, w := range WorkloadNames() {
		for _, a := range algorithms {
			j := Job{
				Experiment: experiment, Kind: KindMCL, Topo: topo,
				Workload: w, Algorithm: a, VCs: vcs,
			}
			if IsBSOR(a) {
				j.Breakers = breakers
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// SweepJobs builds the jobs of one throughput/latency figure: every
// algorithm simulated at every offered rate on one workload, with
// optional ±variation Markov-modulated bandwidth (Figures 6-8..6-10).
func SweepJobs(experiment string, topo TopoSpec, workload string, algorithms []string,
	breakers []string, rates []float64, variation float64, p SimParams) []Job {

	p = p.withDefaults()
	var jobs []Job
	for _, a := range algorithms {
		for _, rate := range rates {
			j := Job{
				Experiment: experiment, Kind: KindSim, Topo: topo,
				Workload: workload, Algorithm: a, VCs: p.VCs,
				Rate: rate, Variation: variation,
				Warmup: p.WarmupCycles, Measure: p.MeasureCycles, Seed: p.Seed,
			}
			if IsBSOR(a) {
				j.Breakers = breakers
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// VCSweepJobs builds the Figure 6-7-style virtual-channel ablation: the
// given algorithms swept across VC counts and offered rates on one
// workload (cf. examples/vcsweep).
func VCSweepJobs(experiment string, topo TopoSpec, workload string, algorithms []string,
	vcCounts []int, rates []float64, p SimParams) []Job {

	p = p.withDefaults()
	var jobs []Job
	for _, vcs := range vcCounts {
		pp := p
		pp.VCs = vcs
		jobs = append(jobs, SweepJobs(experiment, topo, workload, algorithms, nil, rates, 0, pp)...)
	}
	return jobs
}

// SynthScaleJobs builds a synthesis-scale experiment: one KindMCL job per
// synthetic workload x algorithm on one (typically 16x16) topology. It
// mirrors AlgoTableJobs with the workload set swapped, because the
// profiled applications carry fixed 8x8 placements that do not scale.
func SynthScaleJobs(experiment string, topo TopoSpec, algorithms []string, breakers []string, vcs int) []Job {
	var jobs []Job
	for _, w := range SyntheticWorkloadNames() {
		for _, a := range algorithms {
			j := Job{
				Experiment: experiment, Kind: KindMCL, Topo: topo,
				Workload: w, Algorithm: a, VCs: vcs,
			}
			if IsBSOR(a) {
				j.Breakers = breakers
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// SynthScaleAlgorithms returns the algorithm columns of the synthesis-scale
// scenarios: the cheap oblivious baselines plus the BSOR selectors that
// stay tractable at 16x16. BSOR-MILP is deliberately absent — the greedy
// heuristic is its substitute at this scale, which is the point of the
// comparison.
func SynthScaleAlgorithms() []string {
	return []string{"XY", "YX", "O1TURN", "BSOR-Dijkstra", "BSOR-Heuristic"}
}

// FaultSweepJobs builds the fault-tolerance scenario: a grid degrades one
// failed link at a time (faultCounts, under one fault seed so the sweeps
// are reproducible), and every algorithm is simulated at every offered
// rate on each degraded fabric. base must be a "mesh" or "torus" spec;
// each fault count becomes the matching "faulted-" spec. BSOR variants
// explore the graph-generic up*/down* breaker set — grid turn rules
// cannot be assumed to survive arbitrary link failures.
func FaultSweepJobs(experiment string, base TopoSpec, seed int64, faultCounts []int,
	algorithms []string, workload string, rates []float64, p SimParams) []Job {

	base = base.WithDefaults()
	p = p.withDefaults()
	breakers := GraphBreakerNames(base.NumNodes())
	var jobs []Job
	for _, faults := range faultCounts {
		spec := TopoSpec{Kind: "faulted-" + base.Kind, Width: base.Width, Height: base.Height,
			Faults: faults, FaultSeed: seed}
		for _, a := range algorithms {
			for _, rate := range rates {
				j := Job{
					Experiment: experiment, Kind: KindSim, Topo: spec,
					Workload: workload, Algorithm: a, VCs: p.VCs,
					Rate:   rate,
					Warmup: p.WarmupCycles, Measure: p.MeasureCycles, Seed: p.Seed,
				}
				if IsBSOR(a) {
					j.Breakers = breakers
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// FaultSweepAlgorithms returns the algorithm columns of the fault sweep:
// the graph-generic deterministic baseline and the BSOR selector that
// stays tractable across many degraded instances. The grid baselines
// (XY, ROMM, ...) are deliberately absent — their paths assume channels
// that may have failed.
func FaultSweepAlgorithms() []string {
	return []string{"SP", "BSOR-Dijkstra"}
}

// ByTopo keys a result by its job's topology label (fault sweeps group
// one table block per degraded instance).
func ByTopo(res Result) string { return res.Job.Topo.String() }

// FigureAlgorithms returns the six algorithms of the throughput/latency
// figures, in the thesis' order.
func FigureAlgorithms() []string {
	return []string{"BSOR-MILP", "BSOR-Dijkstra", "ROMM", "Valiant", "XY", "YX"}
}

// Table63Algorithms returns the six algorithm columns of Table 6.3.
func Table63Algorithms() []string {
	return []string{"XY", "YX", "ROMM", "Valiant", "BSOR-MILP", "BSOR-Dijkstra"}
}

// ResultGroup is one key's slice of a result list, in result order.
type ResultGroup struct {
	// Key is the grouping value (workload or algorithm name).
	Key string
	// Results are the group's members, preserving input order.
	Results []Result
}

// GroupResults partitions results by key, groups in first-seen order and
// members in input order — the shared fold behind every assembler and
// the cmd printers.
func GroupResults(results []Result, key func(Result) string) []ResultGroup {
	var groups []ResultGroup
	index := map[string]int{}
	for _, res := range results {
		k := key(res)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, ResultGroup{Key: k})
		}
		groups[i].Results = append(groups[i].Results, res)
	}
	return groups
}

// ByWorkload keys a result by its job's workload name.
func ByWorkload(res Result) string { return res.Job.Workload }

// ByAlgorithm keys a result by its job's algorithm name.
func ByAlgorithm(res Result) string { return res.Job.Algorithm }

// CDGRows assembles per-breaker MCL results (TableJobs order) into table
// rows, one per workload, preserving job order within each row. Failed
// cells keep the sequential convention of a negative MCL.
func CDGRows(results []Result) []CDGRow {
	var rows []CDGRow
	for _, g := range GroupResults(results, ByWorkload) {
		row := CDGRow{Workload: g.Key}
		for _, res := range g.Results {
			name := res.Job.Algorithm
			if len(res.Job.Breakers) == 1 {
				name = res.Job.Breakers[0]
			}
			row.Breakers = append(row.Breakers, name)
			row.MCL = append(row.MCL, res.MCL)
		}
		rows = append(rows, row)
	}
	return rows
}

// AlgoRows assembles per-algorithm MCL results (AlgoTableJobs order) into
// Table 6.3-style rows.
func AlgoRows(results []Result) []AlgoMCL {
	var rows []AlgoMCL
	for _, g := range GroupResults(results, ByWorkload) {
		row := AlgoMCL{Workload: g.Key}
		for _, res := range g.Results {
			row.Algorithms = append(row.Algorithms, res.Job.Algorithm)
			row.MCL = append(row.MCL, res.MCL)
		}
		rows = append(rows, row)
	}
	return rows
}

// SeriesFrom assembles simulation results (SweepJobs order) into one
// Series per algorithm, points in rate order. Jobs that failed contribute
// no point; use FirstError to surface them.
func SeriesFrom(results []Result) []Series {
	var out []Series
	for _, g := range GroupResults(results, ByAlgorithm) {
		s := Series{Algorithm: g.Key}
		for _, res := range g.Results {
			if res.Point != nil {
				s.Points = append(s.Points, *res.Point)
			}
		}
		if len(s.Points) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// SeriesByVC assembles VC-sweep results into one series list per virtual
// channel count (VCSweepJobs order).
func SeriesByVC(results []Result) map[int][]Series {
	byVC := map[int][]Result{}
	for _, res := range results {
		byVC[res.Job.VCs] = append(byVC[res.Job.VCs], res)
	}
	out := make(map[int][]Series, len(byVC))
	for vcs, rs := range byVC {
		out[vcs] = SeriesFrom(rs)
	}
	return out
}

// FirstError returns the first failed result as an error, or nil. MCL
// jobs are exempt: a failed CDG is a legitimate n/a table cell, not an
// execution error.
func FirstError(results []Result) error {
	for _, res := range results {
		if res.Err != "" && res.Job.Kind == KindSim {
			return fmt.Errorf("experiments: %s %s/%s at %g: %s",
				res.Job.Experiment, res.Job.Workload, res.Job.Algorithm, res.Job.Rate, res.Err)
		}
	}
	return nil
}
