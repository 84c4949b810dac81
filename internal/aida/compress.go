package aida

import "sync"

// CompressionPolicy makes the per-frame wire-compression choice for one
// connection. It decides frame by frame from the payload size and the
// ratio recently observed on this connection: tiny frames never
// amortize the flate tables, and a stream whose content barely shrinks
// (already-compact sparse histograms, pre-compressed blobs) is pure CPU
// loss.
//
// Rules, in order:
//   - Payload below MinSize: never compress.
//   - Recent ratio at or above SkipRatio: skip — but re-probe with a real
//     compression every probeEvery skipped-for-ratio frames, so a stream
//     whose content becomes compressible again is noticed.
//   - Otherwise compress and fold the achieved ratio into the estimate.
//
// The zero value is not usable; construct with NewCompressionPolicy.
// Safe for concurrent use.
type CompressionPolicy struct {
	mu sync.Mutex
	// minSize is the smallest payload worth compressing (bytes).
	minSize int
	// skipRatio is the compressed/raw ratio at which flate stops paying.
	skipRatio float64
	// ratio is an exponential moving average of achieved compressed/raw
	// ratios; haveRatio distinguishes "no sample yet" from a true zero.
	ratio     float64
	haveRatio bool
	// ratioSkips counts consecutive frames skipped because of the ratio
	// rule; every probeEvery of them one frame is compressed anyway to
	// refresh the estimate.
	ratioSkips int
	compressed int64
	skipped    int64
}

// Adaptive-compression defaults: frames under ~1 KiB never amortize the
// flate setup, and a stream shrinking less than 10% is not worth the CPU.
const (
	defaultCompressMinSize   = 1024
	defaultCompressSkipRatio = 0.9
	compressProbeEvery       = 32
	compressRatioAlpha       = 0.5 // EWMA weight of the newest sample
)

// NewCompressionPolicy returns a policy with the default thresholds.
func NewCompressionPolicy() *CompressionPolicy {
	return &CompressionPolicy{minSize: defaultCompressMinSize, skipRatio: defaultCompressSkipRatio}
}

// Stats reports how many frames the policy compressed and skipped.
func (p *CompressionPolicy) Stats() (compressed, skipped int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compressed, p.skipped
}

// Ratio returns the current compressed/raw estimate (1 before any
// sample: assume incompressible until proven otherwise is the wrong
// default for histogram payloads, so an unknown ratio does not skip).
func (p *CompressionPolicy) Ratio() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.haveRatio {
		return 1
	}
	return p.ratio
}

// shouldCompress decides one frame and records the decision.
func (p *CompressionPolicy) shouldCompress(rawLen int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rawLen < p.minSize {
		p.skipped++
		return false
	}
	if p.haveRatio && p.ratio >= p.skipRatio {
		if p.ratioSkips < compressProbeEvery {
			p.ratioSkips++
			p.skipped++
			return false
		}
		// Probe: compress this one to refresh the estimate.
	}
	p.ratioSkips = 0
	p.compressed++
	return true
}

// observe folds one achieved compression outcome into the estimate.
func (p *CompressionPolicy) observe(rawLen, compressedLen int) {
	if rawLen <= 0 {
		return
	}
	r := float64(compressedLen) / float64(rawLen)
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.haveRatio {
		p.ratio = r
		p.haveRatio = true
		return
	}
	p.ratio = (1-compressRatioAlpha)*p.ratio + compressRatioAlpha*r
}
