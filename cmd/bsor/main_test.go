package main

import (
	"bytes"
	"os"
	"testing"
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
		var got bytes.Buffer
		runSynthesize(tc.args, &got)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("bsor %v drifted from %s:\n%s", tc.args, tc.golden, got.Bytes())
		}
	}
}
