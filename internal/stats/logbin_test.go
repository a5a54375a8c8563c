package stats

import (
	"math"
	"testing"
)

// TestLogBinEdges pins the geometry: zero has a bin of its own, the
// bins cover the full uint64 range, and from 16 up (where every bin
// holds at least one integer) each bin's lower edge is the smallest
// value it holds.
func TestLogBinEdges(t *testing.T) {
	if LogBin(0) != 0 || LogBinEdge(0) != 0 || LogBin(1) != 1 {
		t.Fatalf("LogBin(0)=%d LogBinEdge(0)=%v LogBin(1)=%d", LogBin(0), LogBinEdge(0), LogBin(1))
	}
	if got := LogBin(math.MaxUint64); got != LogBins-1 {
		t.Fatalf("LogBin(MaxUint64) = %d, want %d", got, LogBins-1)
	}
	for b := 2 + 4*LogSubBins; b < LogBins; b++ {
		edge := LogBinEdge(b)
		v := uint64(edge)
		if float64(v) != edge {
			t.Fatalf("bin %d: edge %v is not an integer", b, edge)
		}
		if LogBin(v) != b || LogBin(v-1) != b-1 {
			t.Fatalf("bin %d: LogBin(edge)=%d LogBin(edge-1)=%d", b, LogBin(v), LogBin(v-1))
		}
	}
}
