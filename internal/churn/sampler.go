package churn

import (
	"context"

	"repro/internal/sim"
)

// sampler advances the simulation in sample-window steps and records the
// packets delivered per completed window, the series behind the
// deterministic recovery-time and throughput-dip metrics. Windows are
// aligned to absolute cycle multiples of the window size, so the series
// is independent of where the fault barriers fall.
type sampler struct {
	s         *sim.Simulator
	delivered []int64 // delivered in window k = cycles [k*W, (k+1)*W), W = sampleWindow
	lastTotal int64
}

// advance steps the simulation to absolute cycle target, closing sample
// windows as it crosses their boundaries. It stops early on deadlock
// (reported true) or context cancellation.
func (sp *sampler) advance(ctx context.Context, target int64) (bool, error) {
	for {
		cur := sp.s.Cycle()
		if cur >= target {
			return false, nil
		}
		next := (cur/sampleWindow + 1) * sampleWindow
		if next > target {
			next = target
		}
		dead, err := sp.s.Advance(ctx, next)
		if err != nil {
			return false, err
		}
		if c := sp.s.Cycle(); c%sampleWindow == 0 && c/sampleWindow == int64(len(sp.delivered))+1 {
			total := sp.s.DeliveredTotal()
			sp.delivered = append(sp.delivered, total-sp.lastTotal)
			sp.lastTotal = total
		}
		if dead {
			return true, nil
		}
	}
}

const (
	// sampleWindow is the delivered-throughput sampling granularity, in
	// cycles, of the recovery metrics.
	sampleWindow = 512
	// preWindows is how many pre-fault sample windows the baseline
	// delivery rate averages over.
	preWindows = 4
	// recoveryFrac is the fraction of the pre-fault delivery rate that
	// counts as recovered.
	recoveryFrac = 0.95
)

// finishRecovery derives RecoveryCycles and ThroughputDip for each
// report from the completed window series. A report's horizon runs from
// its fault barrier to the next event (or the end of the run): the first
// full window inside it that regains recoveryFrac of the pre-fault rate
// marks recovery, and the dip is the worst window seen up to that point.
func (sp *sampler) finishRecovery(reports *[]EventReport, events []Event, total int64) {
	for i := range *reports {
		rep := &(*reports)[i]
		horizon := total
		if i+1 < len(events) {
			horizon = events[i+1].Cycle
		}

		// Baseline: the last preWindows windows fully before the fault.
		firstPost := (rep.Cycle + sampleWindow - 1) / sampleWindow // first window starting at/after the fault
		preEnd := rep.Cycle / sampleWindow                         // windows [0, preEnd) end at/before the fault
		preStart := preEnd - preWindows
		if preStart < 0 {
			preStart = 0
		}
		var pre float64
		if n := preEnd - preStart; n > 0 {
			var sum int64
			for k := preStart; k < preEnd; k++ {
				sum += sp.delivered[k]
			}
			pre = float64(sum) / float64(n)
		}
		if pre <= 0 {
			continue // nothing was flowing; dip and recovery are undefined
		}

		worst := pre
		for k := firstPost; (k+1)*sampleWindow <= horizon && k < int64(len(sp.delivered)); k++ {
			if w := float64(sp.delivered[k]); w < worst {
				worst = w
			}
			if float64(sp.delivered[k]) >= recoveryFrac*pre {
				rep.RecoveryCycles = (k+1)*sampleWindow - rep.Cycle
				break
			}
		}
		rep.ThroughputDip = (pre - worst) / pre
	}
}
