package bsor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func TestVerifyProducesCertificate(t *testing.T) {
	spec := Spec{Topo: Mesh(4, 4), Workload: "transpose", VCs: 2}
	cert, err := Verify(context.Background(), spec)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if cert.Breaker == "" || cert.UsedOnly {
		t.Fatalf("BSOR certificate must cover a full named CDG, got breaker %q used-only %v",
			cert.Breaker, cert.UsedOnly)
	}
	if cert.Levels < 2 || len(cert.Ranks) != cert.Channels*cert.VCs {
		t.Fatalf("implausible witness: %d levels, %d ranks for %d channels x %d VCs",
			cert.Levels, len(cert.Ranks), cert.Channels, cert.VCs)
	}
	var back Certificate
	data, err := json.Marshal(cert)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Levels != cert.Levels || back.Breaker != cert.Breaker {
		t.Fatal("certificate does not JSON round-trip")
	}
}

func TestVerifyBaselineUsedOnly(t *testing.T) {
	spec := Spec{Topo: Ring(8), Workload: "rand-perm", Algorithm: "SP", VCs: 2}
	cert, err := Verify(context.Background(), spec)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !cert.UsedOnly || cert.Breaker != "" {
		t.Fatalf("baseline certificate must be used-only with no breaker, got %+v", cert)
	}
}

func TestVerifyCapacityCounterexample(t *testing.T) {
	spec := Spec{Topo: Mesh(4, 4), Workload: "transpose", VCs: 2}
	cert, err := Verify(context.Background(), spec)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	spec.Capacity = cert.MCL / 2
	// The routes stand: only their certificate is refused.
	if _, err := Synthesize(context.Background(), spec); err != nil {
		t.Fatalf("under-capacity Synthesize: %v", err)
	}
	_, err = Verify(context.Background(), spec)
	ce, ok := err.(*Counterexample)
	if !ok {
		t.Fatalf("under-capacity Verify returned %T (%v), want *Counterexample", err, err)
	}
	if ce.Kind != "capacity" || ce.Reason == "" {
		t.Fatalf("counterexample %+v does not name the capacity violation", ce)
	}
}

// TestEveryExitIsCertified pins that certification is a step of synthesis,
// not an option: with no option set, a route set the independent checker
// refutes leaves neither Synthesize nor an MCL-only pipeline (the two
// exits that never reach the simulator's own validation). The two-phase
// baselines ride VC 1, so at one VC their sets are invalid; at two they
// certify.
func TestEveryExitIsCertified(t *testing.T) {
	ctx := context.Background()
	for _, alg := range []string{"Valiant", "ROMM", "O1TURN"} {
		for _, tc := range []struct {
			vcs    int
			reject bool
		}{{1, true}, {2, false}} {
			spec := Spec{Topo: Mesh(4, 4), Workload: "transpose", Algorithm: alg, VCs: tc.vcs}
			t.Run(fmt.Sprintf("%s/vcs%d", alg, tc.vcs), func(t *testing.T) {
				_, synthErr := Synthesize(ctx, spec)
				p, err := NewPipeline([]Spec{spec})
				if err != nil {
					t.Fatalf("NewPipeline: %v", err)
				}
				results, err := p.RunAll(ctx)
				if err != nil || len(results) != 1 {
					t.Fatalf("RunAll: %d results, %v", len(results), err)
				}
				for exit, err := range map[string]error{"Synthesize": synthErr, "Pipeline.RunAll": results[0].Err} {
					var ce *Counterexample
					switch {
					case tc.reject && !errors.As(err, &ce):
						t.Errorf("%s returned %v, want a *Counterexample", exit, err)
					case tc.reject && ce.Kind != "route":
						t.Errorf("%s counterexample kind %q, want route: %v", exit, ce.Kind, ce)
					case !tc.reject && err != nil:
						t.Errorf("%s: %v", exit, err)
					}
				}
				if tc.reject && results[0].MCL != -1 {
					t.Errorf("rejected pipeline result reports MCL %g, want -1", results[0].MCL)
				}
			})
		}
	}
}
