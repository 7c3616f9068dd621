package bsor

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/certify"
)

// Certificate is an independent, machine-checkable deadlock-freedom
// witness for one synthesized route set. It is produced by a checker
// (internal to the module) that trusts none of the synthesis pipeline's
// claims: the acyclic CDG is rebuilt from the breaker name and re-proved
// acyclic via the layered Ranks witness, and every route is re-walked
// hop by hop against the raw topology — connectivity, VC-transition
// legality, and (when a capacity is set) capacity respect.
//
// The witness format is a layered ranking: vertex channel*VCs+vc of the
// dependence graph carries Ranks[vertex], and every dependence edge
// strictly ascends the ranking, so acyclicity follows from one linear
// edge scan. Certificates are plain data and marshal to JSON.
type Certificate struct {
	// Topology labels the certified network; Breaker names the acyclic
	// CDG strategy behind the route set ("" for baseline algorithms,
	// whose used-dependence graph is certified directly).
	Topology string `json:"topology,omitempty"`
	Breaker  string `json:"breaker,omitempty"`
	// Nodes, Channels, VCs, and Flows pin the certified instance.
	Nodes    int `json:"nodes"`
	Channels int `json:"channels"`
	VCs      int `json:"vcs"`
	Flows    int `json:"flows"`
	// Ranks is the acyclicity witness (see above); Levels is its depth.
	Ranks  []int `json:"ranks"`
	Levels int   `json:"levels"`
	// UsedOnly reports a baseline certificate: the ranking covers only
	// the dependences the routes actually use, not a full CDG.
	UsedOnly bool `json:"used_only,omitempty"`
	// MCL is the independently re-derived maximum channel load (MB/s);
	// Capacity echoes the bound the loads were checked against (0 = not
	// checked).
	MCL      float64 `json:"mcl"`
	Capacity float64 `json:"capacity,omitempty"`
}

// Summary renders the one-line human form of the certificate.
func (c *Certificate) Summary() string {
	scope := "full CDG"
	if c.UsedOnly {
		scope = "used dependences"
	}
	label := c.Topology
	if c.Breaker != "" {
		label += " via " + c.Breaker
	}
	return fmt.Sprintf("deadlock freedom certified: %s, %d flows, %d-level ranking over %d (channel,VC) vertices (%s), MCL %.2f",
		label, c.Flows, c.Levels, len(c.Ranks), scope, c.MCL)
}

// Counterexample is the typed rejection of Verify, RouteSet.Certify, and
// certified pipeline runs: a concrete refutation — a minimal dependence
// cycle, or the exact flow and hop of the first route violation — rather
// than a bare failure. Test with errors.As.
type Counterexample struct {
	// Kind classifies the refutation: "cycle", "route", "vc-transition",
	// or "capacity".
	Kind string `json:"kind"`
	// Cycle lists a minimal dependence cycle as "src->dst/vc<i>" labels,
	// first vertex repeated last, for Kind "cycle".
	Cycle []string `json:"cycle,omitempty"`
	// Flow and Hop locate the offending route step for the route-level
	// kinds (Hop -1 when not applicable).
	Flow string `json:"flow,omitempty"`
	Hop  int    `json:"hop,omitempty"`
	// Reason says what is wrong.
	Reason string `json:"reason"`

	cause error
}

// Error implements error.
func (ce *Counterexample) Error() string {
	switch {
	case ce.Kind == "cycle":
		return fmt.Sprintf("bsor: certification rejected: dependence cycle of length %d: %s",
			len(ce.Cycle)-1, strings.Join(ce.Cycle, " -> "))
	case ce.Flow != "":
		return fmt.Sprintf("bsor: certification rejected: flow %s hop %d: %s", ce.Flow, ce.Hop, ce.Reason)
	}
	return "bsor: certification rejected: " + ce.Reason
}

// Unwrap exposes the underlying checker error.
func (ce *Counterexample) Unwrap() error { return ce.cause }

// newCertificate converts the internal certificate to the public shape.
func newCertificate(c *certify.Certificate, breaker string) *Certificate {
	return &Certificate{
		Topology: c.Topology, Breaker: breaker,
		Nodes: c.Nodes, Channels: c.Channels, VCs: c.VCs, Flows: c.Flows,
		Ranks: c.Rank, Levels: c.Levels, UsedOnly: c.UsedOnly,
		MCL: c.MCL, Capacity: c.Capacity,
	}
}

// newCounterexample converts the internal counterexample, keeping it on
// the error chain.
func newCounterexample(ce *certify.Counterexample, cause error) *Counterexample {
	return &Counterexample{
		Kind: ce.Kind, Cycle: ce.Labels, Flow: ce.Flow, Hop: ce.Hop,
		Reason: ce.Reason, cause: cause,
	}
}

// Certify returns the machine-checkable Certificate of the synthesized
// route set, or a *Counterexample error refuting it, from the independent
// deadlock-freedom checker. The checker rebuilds the claimed acyclic CDG
// from the breaker name and trusts nothing the synthesis asserted. The
// spec's Capacity, when set, is re-checked against the certified loads.
// The certificate is computed once per synthesis and shared by every
// holder of it.
func (rs *RouteSet) Certify() (*Certificate, error) {
	cert, err := rs.art.Certificate()
	if err != nil {
		return nil, classify(err)
	}
	return newCertificate(cert, rs.art.Breaker), nil
}

// Verify synthesizes one spec's route set and independently certifies
// it: Synthesize followed by RouteSet.Certify. On success the returned
// Certificate witnesses deadlock freedom of the exact routes the spec
// produces; on rejection the error carries a *Counterexample. Accepts
// the same Options as Synthesize.
func Verify(ctx context.Context, spec Spec, opts ...Option) (*Certificate, error) {
	return NewEngine(opts...).Verify(ctx, spec)
}
