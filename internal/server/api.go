package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/bsor"
)

// The daemon's wire shapes. Request bodies are plain bsor.Spec JSON
// documents; responses echo the *canonical* spec (defaults resolved,
// see bsor.Spec.Canonical), so two clients spelling the same work
// differently read back the same document. Response bodies are rendered
// once per computation and cached verbatim — identical specs get
// byte-identical bodies.

// SynthesizeResponse is the /v1/synthesize result: the winning
// deadlock-free route set of one spec.
type SynthesizeResponse struct {
	Spec       bsor.Spec `json:"spec"`
	Breaker    string    `json:"breaker,omitempty"`
	MCL        float64   `json:"mcl"`
	AvgHops    float64   `json:"avg_hops"`
	Bottleneck string    `json:"bottleneck,omitempty"`
	VCs        int       `json:"vcs"`
	Routes     []Route   `json:"routes"`
}

// Route is one flow's assigned route.
type Route struct {
	Flow   string   `json:"flow"`
	Src    int      `json:"src"`
	Dst    int      `json:"dst"`
	Demand float64  `json:"demand"`
	Hops   []string `json:"hops"`
}

// ExploreResponse is the /v1/explore result: the per-breaker MCL table
// of one BSOR spec, in breaker order.
type ExploreResponse struct {
	Spec         bsor.Spec        `json:"spec"`
	Explorations []ExplorationRow `json:"explorations"`
}

// ExplorationRow is one explored CDG's outcome; MCL is -1 and Error
// set when that CDG admitted no routes (other rows may still succeed).
type ExplorationRow struct {
	Breaker string  `json:"breaker"`
	MCL     float64 `json:"mcl"`
	AvgHops float64 `json:"avg_hops,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// SimResponse is the /v1/sim result: one simulated point per offered
// rate of the spec's sweep, in rate order.
type SimResponse struct {
	Spec    bsor.Spec     `json:"spec"`
	Results []bsor.Result `json:"results"`
}

// VerifyResponse is the /v1/verify result: the independent
// deadlock-freedom certificate of the spec's synthesized route set.
// A rejected set is an error response carrying the counterexample.
type VerifyResponse struct {
	Spec        bsor.Spec         `json:"spec"`
	Certificate *bsor.Certificate `json:"certificate"`
	Summary     string            `json:"summary"`
}

// HealthResponse is the /healthz body: status "ok" while serving, or
// "draining" with a 503 once shutdown has begun.
type HealthResponse struct {
	Status string `json:"status"`
}

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail classifies a failure. Kind is machine-matchable:
// "request" (malformed body or parameters), "spec" (invalid or
// unroutable spec), "infeasible", "counterexample" (certification
// rejected the route set), "deadline", "canceled", "queue_full" (shed
// under load; retry after RetryAfterSeconds), "shutting_down",
// "method", and "internal".
type ErrorDetail struct {
	Status            int                  `json:"status"`
	Kind              string               `json:"kind"`
	Message           string               `json:"message"`
	Field             string               `json:"field,omitempty"`
	Counterexample    *bsor.Counterexample `json:"counterexample,omitempty"`
	RetryAfterSeconds int                  `json:"retry_after_seconds,omitempty"`
}

// Typed admission errors. Waiters deduplicated onto a shed or drained
// leader receive the same error, so every request of a herd sees one
// consistent outcome. Test with errors.Is.
var (
	// ErrQueueFull reports that the bounded admission queue had no free
	// slot: the request was shed (HTTP 429 with Retry-After).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrShuttingDown reports that the daemon is draining: queued work
	// was cancelled and new work is refused (HTTP 503).
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrInternal reports that a computation panicked; the panic was
	// contained to its request and herd (HTTP 500).
	ErrInternal = errors.New("server: internal error")
)

// badRequestError marks client-side request problems (malformed JSON,
// bad query parameters) distinct from spec-level validation errors.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// errorDetail maps an error onto its wire classification.
func errorDetail(err error) ErrorDetail {
	var (
		specErr *bsor.SpecError
		counter *bsor.Counterexample
		badReq  *badRequestError
	)
	switch {
	case errors.Is(err, ErrQueueFull):
		// The backoff hint is fixed: nothing the daemon measures would
		// make another value better, and no deployment ever set one.
		return ErrorDetail{Status: http.StatusTooManyRequests, Kind: "queue_full",
			Message: err.Error(), RetryAfterSeconds: 1}
	case errors.Is(err, ErrShuttingDown):
		return ErrorDetail{Status: http.StatusServiceUnavailable, Kind: "shutting_down", Message: err.Error()}
	case errors.As(err, &counter):
		return ErrorDetail{Status: http.StatusUnprocessableEntity, Kind: "counterexample",
			Message: err.Error(), Counterexample: counter}
	case errors.Is(err, bsor.ErrInfeasible):
		return ErrorDetail{Status: http.StatusUnprocessableEntity, Kind: "infeasible", Message: err.Error()}
	case errors.As(err, &specErr):
		return ErrorDetail{Status: http.StatusBadRequest, Kind: "spec",
			Message: err.Error(), Field: specErr.Field}
	case errors.Is(err, bsor.ErrNotGrid):
		return ErrorDetail{Status: http.StatusBadRequest, Kind: "spec", Message: err.Error()}
	case errors.As(err, &badReq):
		return ErrorDetail{Status: http.StatusBadRequest, Kind: "request", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return ErrorDetail{Status: http.StatusGatewayTimeout, Kind: "deadline", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return ErrorDetail{Status: http.StatusServiceUnavailable, Kind: "canceled", Message: err.Error()}
	}
	return ErrorDetail{Status: http.StatusInternalServerError, Kind: "internal", Message: err.Error()}
}

// marshalBody renders a response body: indented JSON plus a trailing
// newline, deterministic for deterministic values — these are the exact
// bytes cached, golden-compared in CI, and hashed by the load harness.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("server: marshal response: %w", err)
	}
	return append(b, '\n'), nil
}

// writeJSON writes a response body with the JSON content type. The body
// is complete, so its length goes in the header and the response is sent
// whole, not in chunked encoding.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeErrorDetail writes the error envelope (and the Retry-After
// header for sheds, so well-behaved clients back off).
func writeErrorDetail(w http.ResponseWriter, d ErrorDetail) {
	if d.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", d.RetryAfterSeconds))
	}
	body, err := marshalBody(ErrorBody{Error: d})
	if err != nil {
		http.Error(w, d.Message, d.Status)
		return
	}
	writeJSON(w, d.Status, body)
}
