// A14 — telemetry-overhead ablation. The obs core claims its hot-path
// cost is in the noise: counters are single atomic adds, histograms two,
// and the Disabled switch collapses every record site to one atomic
// load. This experiment drives the same publish+poll fabric load as the
// A13 sweep — sessions delta-publishing straight through a
// RemotePublisher and incrementally polling over loopback RMI — once
// with the full instrumentation (metrics, spans, trace propagation) and
// once with obs.SetDisabled(true), interleaved rep by rep so host drift
// hits both modes alike, and reports per-mode medians. The acceptance bar is
// instrumented throughput within a few percent of the ablated baseline;
// on a shared 1-CPU host the loopback RMI round trip dominates, so a
// bigger gap indicates a real regression, not noise.
package perf

import (
	"sort"

	"github.com/ipa-grid/ipa/internal/obs"
)

// ObsRow is the telemetry-overhead ablation's outcome.
type ObsRow struct {
	Sessions, Rounds, Objects int
	// InstrumentedOpsPerSec / DisabledOpsPerSec are aggregate
	// (publishes+polls)/s with telemetry recording on vs ablated.
	InstrumentedOpsPerSec float64
	DisabledOpsPerSec     float64
	// OverheadFrac is the median over interleaved rep pairs of
	// 1 - instrumented/disabled (negative = noise in the instrumented
	// run's favor).
	OverheadFrac float64
}

// ObsReps is the interleaved repetition count (more than the A13 reps:
// the expected effect is small, so the median needs more samples).
const ObsReps = 7

// ObsOverheadAblation measures the publish+poll fabric with telemetry
// on vs off. Restores the instrumented (default) state before returning.
//
// Methodology: one discarded warm-up pair first (listener, gob type
// registration, and allocator warm-up all land there), then ObsReps
// measured pairs with the mode order alternating per rep — so slow
// host drift (CPU frequency, co-tenants) cancels instead of
// systematically favoring whichever mode runs second — and the
// per-mode medians are compared.
func ObsOverheadAblation(sessions, rounds, objects int) (ObsRow, error) {
	defer obs.SetDisabled(false)
	row := ObsRow{Sessions: sessions, Rounds: rounds, Objects: objects}
	measure := func(disabled bool) (float64, error) {
		obs.SetDisabled(disabled)
		return pubPollRate(1, sessions, rounds, objects)
	}
	for _, warm := range []bool{false, true} {
		if _, err := measure(warm); err != nil {
			return row, err
		}
	}
	on := make([]float64, 0, ObsReps)
	off := make([]float64, 0, ObsReps)
	gaps := make([]float64, 0, ObsReps)
	for i := 0; i < ObsReps; i++ {
		var pairOn, pairOff float64
		for _, disabled := range []bool{i%2 == 1, i%2 == 0} {
			r, err := measure(disabled)
			if err != nil {
				return row, err
			}
			if disabled {
				pairOff = r
			} else {
				pairOn = r
			}
		}
		on = append(on, pairOn)
		off = append(off, pairOff)
		if pairOff > 0 {
			gaps = append(gaps, 1-pairOn/pairOff)
		}
	}
	row.InstrumentedOpsPerSec = medianOf(on)
	row.DisabledOpsPerSec = medianOf(off)
	// The overhead estimate is paired: each rep's two runs execute
	// back-to-back under the same host conditions, so their ratio
	// cancels drift that the independent per-mode medians cannot —
	// on a shared box the unpaired medians can disagree by more than
	// the effect being measured.
	if len(gaps) > 0 {
		row.OverheadFrac = medianOf(gaps)
	}
	return row, nil
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
