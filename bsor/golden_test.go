package bsor

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// TestGoldenJSONFacadeMatchesLegacyTablePath pins the façade's
// spec-to-job translation byte-for-byte: the jobs a table-shaped Spec
// list expands to, and the WriteJSON output of running them, must be
// identical to the legacy experiments.TableJobs path. This guards the
// thinning of the legacy builders — any drift in field defaults, job
// order, or result encoding shows up as a byte diff here.
func TestGoldenJSONFacadeMatchesLegacyTablePath(t *testing.T) {
	topo := experiments.MeshSpec(4, 4)
	breakers := experiments.TableBreakerNames()

	legacyJobs := experiments.TableJobs("table6.2", topo, "BSOR-Dijkstra", breakers, 2)

	var specs []Spec
	for _, wl := range experiments.WorkloadNames() {
		specs = append(specs, Spec{
			Name: "table6.2", Topo: Mesh(4, 4), Workload: wl,
			Algorithm: "BSOR-Dijkstra", Breakers: breakers, Explore: true,
		})
	}
	p, err := NewPipeline(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.jobs, legacyJobs) {
		t.Fatalf("façade job expansion differs from legacy TableJobs:\n façade: %+v\n legacy: %+v",
			p.jobs, legacyJobs)
	}

	legacyRes, err := (&experiments.Runner{}).RunContext(context.Background(), legacyJobs)
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := experiments.WriteJSON(&legacy, legacyRes); err != nil {
		t.Fatal(err)
	}

	facadeRes, err := (&experiments.Runner{}).RunContext(context.Background(), p.jobs)
	if err != nil {
		t.Fatal(err)
	}
	var facade bytes.Buffer
	if err := experiments.WriteJSON(&facade, facadeRes); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(legacy.Bytes(), facade.Bytes()) {
		t.Errorf("WriteJSON output differs between the façade and legacy paths:\n--- legacy ---\n%s\n--- façade ---\n%s",
			legacy.String(), facade.String())
	}
}
