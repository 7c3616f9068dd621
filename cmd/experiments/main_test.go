package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
)

// TestGoldens runs each golden-pinned selection through run and holds its
// -json stdout byte for byte to the committed document. A golden is
// recorded by running the same command and redirecting its stdout, e.g.
//
//	go run ./cmd/experiments -filter table6.1 -fast -json > cmd/experiments/testdata/table6.1-fast.golden.json
//
// churn-milp is held at one and at two workers: its MILP repairs must
// not depend on which worker runs which schedule. The rows run in
// parallel because those two take most of the time, and the one-worker
// row alone leaves a CPU idle.
func TestGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden    string
		args      []string
		stderrHas string
	}{
		{"table6.1-fast", []string{"-filter", "table6.1", "-fast", "-json"}, ""},
		{"table6.2-fast", []string{"-filter", "table6.2", "-fast", "-json"}, ""},
		{"table6.3-fast", []string{"-filter", "table6.3", "-fast", "-json"}, ""},
		{"torus6.2-fast", []string{"-filter", "torus6.2", "-fast", "-json"}, ""},
		{"synth16-mesh-fast", []string{"-filter", "synth16-mesh", "-fast", "-json"}, ""},
		{"synth16-torus-fast", []string{"-filter", "synth16-torus", "-fast", "-json"}, ""},
		{"fault-sweep-smoke-fast", []string{"-filter", "fault-sweep-smoke", "-fast", "-json"}, ""},
		{"churn-smoke", []string{"-filter", "churn-smoke", "-json"}, ""},
		// Metrics are out of band: the same document, and the snapshot
		// on stderr carries the churn engine's counter.
		{"churn-smoke", []string{"-filter", "churn-smoke", "-json", "-metrics", "-"}, "engine_churn_runs_total"},
		{"churn-milp", []string{"-filter", "churn-milp", "-json", "-workers", "1"}, ""},
		{"churn-milp", []string{"-filter", "churn-milp", "-json", "-workers", "2"}, ""},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			t.Parallel()
			path := "testdata/" + tc.golden + ".golden.json"
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if err := run(tc.args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout drifted from %s at %s", path, firstDiff(stdout.Bytes(), want))
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderrHas, stderr.Bytes())
			}
		})
	}
}

// TestLiveMetricsRunsTwice runs with a live -metrics address twice in one
// process: both runs succeed with stdout byte-identical to the golden,
// and each closes its listener before run returns.
func TestLiveMetricsRunsTwice(t *testing.T) {
	want, err := os.ReadFile("testdata/table6.2-fast.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-filter", "table6.2", "-fast", "-json", "-metrics", "127.0.0.1:0"}
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, stderr.Bytes())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("run %d: stdout drifted from the golden at %s", i, firstDiff(stdout.Bytes(), want))
		}
		var addr string
		if _, err := fmt.Sscanf(stderr.String(), "metrics: serving /metrics and /debug/vars on %s", &addr); err != nil {
			t.Fatalf("run %d: no serving address on stderr (%v):\n%s", i, err, stderr.Bytes())
		}
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Errorf("run %d: %s still accepts connections after run returned", i, addr)
		}
	}
}

// TestSelects pins how -all and -filter pick experiments by name.
func TestSelects(t *testing.T) {
	for _, tc := range []struct {
		o    options
		name string
		want bool
	}{
		{options{filter: "table6.1"}, "table6.1", true},
		{options{filter: "fig6-1"}, "fig6-10", false},
		{options{filter: "table6.*"}, "table6.3", true},
		{options{filter: "*"}, "churn-milp", true},
		{options{filter: "["}, "table6.1", false},
		{options{}, "table6.1", false},
		{options{all: true}, "table6.1", true},
		{options{all: true}, "fig5-4", true},
		{options{all: true}, "torus6.2", false},
	} {
		if got := tc.o.selects(tc.name); got != tc.want {
			t.Errorf("%+v selects %s = %v, want %v", tc.o, tc.name, got, tc.want)
		}
	}
}

// firstDiff locates the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %.200q\nwant: %.200q", i+1, at(g, i), at(w, i))
		}
	}
}

func at(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return []byte("<end of output>")
}
