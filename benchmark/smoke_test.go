package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/bsor"
)

func smokeConfig(t *testing.T) config {
	t.Helper()
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 1, seconds: 0, clients: min(runtime.NumCPU(), 2), short: true, variant: -1, golden: g}
}

// TestSmokeEveryWorkload runs every workload at the smoke scale, untraced
// and traced, and checks what a run must always deliver: no failed op,
// every golden met, every metric of the table present.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t)
			res, err := runWorkload(w, cfg, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, res.correct, res.attempted, res.failed, cfg.golden.mismatches())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.name, d.name, res.metrics[d.name].Value)
					}
				}
				continue
			}
			// The interaction table's zero predictions.
			for name, m := range res.metrics {
				if strings.HasPrefix(name, "lp.") && w.name != "synth-milp" && m.Value != 0 {
					t.Errorf("%s: %s = %g, want exactly 0 outside synth-milp", w.name, name, m.Value)
				}
			}
			if strings.HasPrefix(w.name, "daemon-") {
				if res.metrics["server.shed"].Value != 0 {
					t.Errorf("%s: server shed requests", w.name)
				}
				if res.metrics["server.req_samples"].Value == 0 {
					t.Errorf("%s: percentiles reported without a sample count", w.name)
				}
			}
		}
	}
}

// TestGoldenMismatchIsAFailedOp pins the satellite's rule: an output that
// misses its golden counts in failed, it is not a log line.
func TestGoldenMismatchIsAFailedOp(t *testing.T) {
	cfg := smokeConfig(t)
	key := "short/sim-curve/mesh8/r2"
	if _, ok := cfg.golden.m[key]; !ok {
		t.Fatalf("golden %s missing; keys changed?", key)
	}
	inst, err := setupSimCurve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	cfg.golden.m[key] = "0000000000000000"
	if st := inst.pass(nil); st.failed != 1 || len(cfg.golden.mismatches()) != 1 {
		t.Errorf("pass with one wrong golden: failed=%d of %d, mismatches %v", st.failed, st.attempted, cfg.golden.mismatches())
	}
}

// TestSameSeedSameRequests: the request list is a function of the seed
// alone, byte for byte, and another seed gives another list.
func TestSameSeedSameRequests(t *testing.T) {
	list := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		specs := drawSpecs(rng, specTable(false), everySlot, -1)
		var b bytes.Buffer
		for i := range specs {
			reqs, err := requestsOf(rng, specs, i, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reqs {
				b.WriteString(r.endpoint + " " + r.key + " ")
				b.Write(r.body)
				b.WriteByte('\n')
			}
		}
		return b.Bytes()
	}
	a, b, c := list(7), list(7), list(8)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different request lists")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same request list")
	}
	if n := len(specTable(false)); n != 96 {
		t.Errorf("validity table has %d slots, want 96", n)
	}
}

// TestSpellingsShareOneKey: however a body is spelled, the daemon must
// see the same canonical key — that is what makes daemon-hot all hits.
func TestSpellingsShareOneKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specs := drawSpecs(rng, specTable(false), hotSlot, -1)
	if len(specs) != 32 {
		t.Fatalf("hot set has %d specs, want 32", len(specs))
	}
	for i := range specs {
		for _, ep := range specs[i].endpointsOf() {
			doc := specs[i].endpointSpec(ep, false)
			want, err := doc.CanonicalKey()
			if err != nil {
				t.Fatal(err)
			}
			for way := 0; way < spellings; way++ {
				body, err := spell(rng, doc, way)
				if err != nil {
					t.Fatal(err)
				}
				var back bsor.Spec
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&back); err != nil {
					t.Fatalf("spelling %d of %s does not decode: %v\n%s", way, specs[i].key(), err, body)
				}
				if got, err := back.CanonicalKey(); err != nil || got != want {
					t.Errorf("spelling %d of %s/%s: key %q (%v), want %q", way, specs[i].key(), ep, got, err, want)
				}
			}
		}
	}
}

// TestBenchmarkFileMatchesTables keeps ../BENCHMARK.json and the metric
// and workload tables of the program in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	bf, err := readBenchmarkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) || len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d end-to-end/per-layer/workloads, the program %d/%d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(bf.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, d := range endToEnd {
		if m := bf.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, w := range workloads {
		if bw := bf.Workloads[i]; bw.Name != w.name || bw.Why != w.why || len(bw.Why) > 200 {
			t.Errorf("workloads[%d] = %+v, program has %s", i, bw, w.name)
		}
	}
}

// TestRefusesMoreClientsThanCPUs pins the load-discipline rule.
func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "sim-curve", "-short", "-clients", "4096"}, &out, &errOut)
	if code == 0 || !strings.Contains(errOut.String(), "-clients") || out.Len() != 0 {
		t.Errorf("exit %d, stderr %q, stdout %q: want a refusal and no result", code, errOut.String(), out.String())
	}
}

// TestCompareVerdicts feeds -compare two small record sets.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		path := filepath.Join(dir, name)
		for i, w := range walls {
			rec := record{Workload: "sim-curve", Seed: int64(i), resultLine: resultLine{
				Correct: true, Attempted: 1, Metrics: map[string]metricValue{"wall_s": {w, "s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.jsonl", 1.00, 1.01, 0.99, 1.00, 1.02)
	for _, tc := range []struct {
		name  string
		walls []float64
		ok    bool
		word  string
	}{
		{"same", []float64{1.01, 1.00, 1.00, 0.99, 1.01}, true, "ok"},
		{"slower", []float64{1.21, 1.20, 1.20, 1.19, 1.21}, false, "REGRESSED"},
		{"faster", []float64{0.5, 0.5, 0.51, 0.49, 0.5}, true, "ok"},
		{"noisy", []float64{0.8, 1.0, 1.2, 0.9, 1.1}, false, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, bounds, base, write(tc.name+".jsonl", tc.walls...))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.word) {
			t.Errorf("%s: ok=%v, want %v with %q in\n%s", tc.name, ok, tc.ok, tc.word, out.String())
		}
	}
}
