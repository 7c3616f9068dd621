package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/bsor"
)

// TestDefaultPathGolden pins the default path's stdout byte for byte: the
// per-breaker table, the winner and the certificate, all rendered from
// one synthesis.
func TestDefaultPathGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/transpose.golden.txt", []string{"-workload", "transpose"}},
		{"testdata/torus-shuffle.golden.txt", []string{"-topo", "torus", "-workload", "shuffle"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got, stderr bytes.Buffer
		if err := run(tc.args, &got, &stderr); err != nil {
			t.Fatalf("bsor %v: %v\n%s", tc.args, err, stderr.Bytes())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("bsor %v drifted from %s:\n%s", tc.args, tc.golden, got.Bytes())
		}
	}
}

// TestSim pins the sim subcommand's stdout byte for byte at the -fast
// cycle budget, for a baseline and a BSOR route set on the 8x8 transpose.
// A golden is recorded by redirecting stdout, e.g.
//
//	go run ./cmd/bsor sim -alg xy -rate 30 -warmup 2000 -measure 10000 > cmd/bsor/testdata/sim-xy.golden.txt
func TestSim(t *testing.T) {
	for _, alg := range []string{"xy", "bsor-dijkstra"} {
		golden := "testdata/sim-" + alg + ".golden.txt"
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		args := []string{"sim", "-alg", alg, "-rate", "30", "-warmup", "2000", "-measure", "10000"}
		var got, stderr bytes.Buffer
		if err := run(args, &got, &stderr); err != nil {
			t.Fatalf("bsor %v: %v\n%s", args, err, stderr.Bytes())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("bsor %v drifted from %s:\n%s", args, golden, got.Bytes())
		}
	}
}

// TestVerify covers the verify subcommand: a certificate summary, a
// machine-checkable certificate on a non-grid fabric, an undersized
// topology reported as a spec error naming the field, and a
// bit-permutation workload on a fabric it cannot address, whose error
// names the workload to use instead.
func TestVerify(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"verify", "-topo", "mesh", "-width", "4", "-height", "4", "-workload", "transpose"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("bsor %v: %v\n%s", args, err, stderr.Bytes())
	}
	if got := stdout.String(); !strings.HasPrefix(got, "deadlock freedom certified: mesh4x4 via ") {
		t.Errorf("bsor %v printed %q, want the certificate summary", args, got)
	}

	stdout.Reset()
	args = []string{"verify", "-topo", "clos3x4", "-workload", "rand-perm", "-selector", "sp", "-json"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("bsor %v: %v\n%s", args, err, stderr.Bytes())
	}
	var cert bsor.Certificate
	if err := json.Unmarshal(stdout.Bytes(), &cert); err != nil || cert.Topology != "clos3x4" || len(cert.Ranks) == 0 {
		t.Errorf("bsor %v: certificate %+v, %v; want a clos3x4 ranking", args, cert, err)
	}

	args = []string{"verify", "-topo", "torus1x4", "-workload", "rand-perm", "-selector", "sp"}
	if err := run(args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "topo") {
		t.Errorf("bsor %v: error %v, want a spec error naming topo", args, err)
	}

	args = []string{"verify", "-topo", "ring8", "-workload", "transpose"}
	if err := run(args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "rand-perm") {
		t.Errorf("bsor %v: error %v, want one naming rand-perm", args, err)
	}
}
