package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords reads a -record file into workload -> metric -> values,
// keeping only tracing-off runs (end-to-end metrics are measured there).
func readRecords(path string) (map[string]map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	bad := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct || rec.Failed > 0 {
			bad++
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, bad, sc.Err()
}

// compareFiles reports, per workload and end-to-end metric, each set's
// median and quartiles, the spread of each set (quartile distance over
// median) and whether b's median is no worse than a's by more than the
// metric's bound. It is the tool of the A/A acceptance check (two sets
// from the same code must agree) and of every parent-versus-change
// comparison. A metric whose spread exceeds its bound is unresolved, not
// unchanged. The result is false when any row regressed, is unresolved,
// or any run had failed ops.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		return false, err
	}
	a, badA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, badB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	ok := badA == 0 && badB == 0
	if !ok {
		fmt.Fprintf(w, "runs with failed ops: %d in %s, %d in %s\n", badA, pathA, badB, pathB)
	}
	fmt.Fprintf(w, "%-12s %-12s %3s %11s %11s %11s %7s | %3s %11s %11s %11s %7s | %8s %6s  %s\n",
		"workload", "metric", "n", "a.q1", "a.median", "a.q3", "spread", "n", "b.q1", "b.median", "b.q3", "spread", "b vs a", "bound", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			spreadA, spreadB := (qa3-qa1)/ma, (qb3-qb1)/mb
			worse := (mb - ma) / ma // positive = b worse, for lower-is-better
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				ok = false
			case max(spreadA, spreadB) > m.Bound && m.Name != "setup_s":
				verdict = "unresolved (spread over bound)"
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-12s %3d %11.5g %11.5g %11.5g %6.2f%% | %3d %11.5g %11.5g %11.5g %6.2f%% | %+7.2f%% %5.1f%%  %s\n",
				wl, m.Name, len(va), qa1, ma, qa3, 100*spreadA, len(vb), qb1, mb, qb3, 100*spreadB,
				100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
