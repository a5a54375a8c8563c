package stats

import (
	"math"
	"math/bits"
)

// Log-bin geometry: a non-negative integer value is binned by its
// power of two and, within it, by the next logSubBits bits — 16
// sub-bins per power of two (~4.5% relative resolution). Bin 0 holds
// zero, so LogBins slots cover the full uint64 range. The metrics
// distortion accumulators bin micrometers and the obs latency
// histograms bin nanoseconds with it; state kept as integer counts per
// bin stays merge-order invariant.
const (
	logSubBits = 4
	LogSubBins = 1 << logSubBits   // sub-bins per power of two
	LogBins    = 1 + 64*LogSubBins // bin 0 reserved for zero
)

// LogBin maps v to its bin in [0, LogBins).
func LogBin(v uint64) int {
	if v == 0 {
		return 0
	}
	l := bits.Len64(v)
	var sub uint64
	if l > logSubBits+1 {
		sub = (v >> uint(l-1-logSubBits)) & (LogSubBins - 1)
	} else {
		sub = (v << uint(logSubBits+1-l)) & (LogSubBins - 1)
	}
	return 1 + (l-1)*LogSubBins + int(sub)
}

// LogBinEdge returns the lower edge of a bin in the binned unit;
// callers scale it to theirs (meters, seconds).
func LogBinEdge(bin int) float64 {
	if bin == 0 {
		return 0
	}
	l := (bin - 1) / LogSubBins
	sub := (bin - 1) % LogSubBins
	return math.Ldexp(1+float64(sub)/LogSubBins, l)
}
