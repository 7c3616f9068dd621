package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/metrics"
	"repro/internal/server"
)

// TestSynthesizeSmokeGolden serves the committed smoke spec from a server
// built with the daemon's default options and holds the /v1/synthesize
// body byte for byte to the committed golden. scripts/daemon_smoke.sh
// checks the same body across processes, along with the herd and the
// SIGTERM drain.
func TestSynthesizeSmokeGolden(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	o.server.Metrics = metrics.New()
	core := server.New(o.server)
	defer core.Shutdown(context.Background())
	ts := httptest.NewServer(core.Handler())
	defer ts.Close()

	spec, err := os.Open("testdata/synthesize-smoke.spec.json")
	if err != nil {
		t.Fatal(err)
	}
	defer spec.Close()
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/synthesize-smoke.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("/v1/synthesize answered %d and drifted from testdata/synthesize-smoke.golden.json:\n%s",
			resp.StatusCode, body)
	}
}
