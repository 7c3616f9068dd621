package traffic

import "math/rand"

// MMP is the two-state Markov-modulated rate process of §5.3, used to
// model run-time bandwidth variation: the process alternates between an
// incremented and a decremented state; on each state entry a new rate is
// drawn within +/-Percent of the base rate and held for a random number of
// cycles. The thesis keeps the routes computed from the original
// estimates and only varies the injected rates, which is exactly how the
// simulator consumes this type.
type MMP struct {
	base    float64
	percent float64
	rng     *rand.Rand

	meanHold int
	state    int // 0 = incremented, 1 = decremented
	rate     float64
	holdLeft int
}

// NewMMP builds a rate process around base (MB/s) varying within
// +/-percent (0.10, 0.25, 0.50 in the thesis' experiments). meanHold is
// the mean number of cycles a rate is held; the thesis does not publish
// its value, so callers pick one (the experiments use 500).
func NewMMP(base, percent float64, meanHold int, seed int64) *MMP {
	if meanHold < 1 {
		meanHold = 1
	}
	m := &MMP{
		base:     base,
		percent:  percent,
		meanHold: meanHold,
		rng:      rand.New(rand.NewSource(seed)),
	}
	m.state = m.rng.Intn(2)
	m.redraw()
	return m
}

func (m *MMP) redraw() {
	delta := m.rng.Float64() * m.percent
	if m.state == 0 {
		m.rate = m.base * (1 + delta)
	} else {
		m.rate = m.base * (1 - delta)
	}
	// Geometric-ish hold: uniform in [1, 2*meanHold] has the right mean
	// and bounded worst case, which keeps simulations reproducible.
	m.holdLeft = 1 + m.rng.Intn(2*m.meanHold)
}

// Advance steps the process by one cycle and returns the current rate.
func (m *MMP) Advance() float64 {
	if m.holdLeft == 0 {
		m.state = 1 - m.state
		m.redraw()
	}
	m.holdLeft--
	return m.rate
}

// Base returns the unvaried rate.
func (m *MMP) Base() float64 { return m.base }
