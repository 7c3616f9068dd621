package main

import (
	"bytes"
	"fmt"
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
// churn-milp (about 40 s) is the one golden this test leaves to CI.
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
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
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
