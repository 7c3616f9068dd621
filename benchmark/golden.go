package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// goldenPath is where -update-golden writes, relative to the benchmark's
// directory (the working directory of `go run -C benchmark .` and of the
// package's tests).
const goldenPath = "testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens are the pinned expected outputs: one short string per measured
// op, keyed "<scale>/<workload>/<op>" — "<MCL> <winning breaker>" for a
// synthesis op, a digest of the deterministic result fields for a sim
// point, pipeline job or churn run, and the body's SHA-256 prefix (plus
// the MCL where the body carries one) for a daemon key. An output that
// misses its golden is a failed op.
type goldens struct {
	mu     sync.Mutex
	m      map[string]string
	record bool // -update-golden: store what is seen instead of checking it
	missed []string
}

func loadGoldens() (*goldens, error) {
	g := &goldens{m: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, &g.m); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// check reports whether got is the pinned value of key. A nil *goldens
// checks nothing.
func (g *goldens) check(key, got string) bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.record {
		g.m[key] = got
		return true
	}
	want, ok := g.m[key]
	if ok && want == got {
		return true
	}
	if len(g.missed) < 20 {
		g.missed = append(g.missed, fmt.Sprintf("%s: got %q, want %q", key, got, want))
	}
	return false
}

func (g *goldens) mismatches() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.missed...)
}

func (g *goldens) write(path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, err := json.MarshalIndent(g.m, "", " ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digest is the short hex SHA-256 of v's JSON encoding: a stable
// fingerprint of a result's deterministic fields.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// recordGoldens runs every workload at both scales in record mode — the
// daemon workloads once per demand variant, so every key a seed can draw
// is pinned — and rewrites testdata/golden.json.
func recordGoldens(clients int, log io.Writer) error {
	g := &goldens{m: map[string]string{}, record: true}
	for _, short := range []bool{true, false} {
		for _, w := range workloads {
			variants := []int{-1}
			if w.name == "daemon-cold" {
				variants = []int{0, 1, 2}
			} else if w.name == "daemon-hot" {
				continue // its keys are a subset of daemon-cold's
			}
			for _, variant := range variants {
				cfg := config{seed: 1, clients: clients, short: short, variant: variant, golden: g}
				fmt.Fprintf(log, "recording %s/%s variant %d\n", cfg.scale(), w.name, variant)
				inst, err := w.setup(cfg, nil)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				stats := inst.pass(nil)
				inst.close()
				if stats.failed > 0 {
					return fmt.Errorf("%s: %d of %d ops failed while recording", w.name, stats.failed, stats.attempted)
				}
			}
		}
	}
	fmt.Fprintf(log, "%d goldens -> %s\n", len(g.m), goldenPath)
	return g.write(goldenPath)
}
