package obs

import (
	"math"
	"sync/atomic"
	"time"

	"mobipriv/internal/stats"
)

// Histogram is a mergeable, race-safe latency histogram over
// log-spaced nanosecond buckets. Observations are float64 seconds
// (the Prometheus convention); they are quantized to nanoseconds
// internally so the state stays integral and merge-order-invariant.
// The buckets are the stats.LogBin geometry the metrics distortion
// accumulators also use: 16 sub-bins per power of two (~4.5% relative
// resolution) in a fixed 1025-slot array covering the full uint64
// range. All state is atomic integers, so Observe and Merge commute
// exactly. Obtain instances from NewHistogram or Registry.Histogram.
type Histogram struct {
	count atomic.Uint64
	sumNs atomic.Uint64
	bins  [stats.LogBins]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// Observe records a single observation of v seconds. Negative and NaN
// values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	ns := v * 1e9
	var u uint64
	if ns >= 1 && !math.IsNaN(ns) {
		if ns >= math.MaxUint64 {
			u = math.MaxUint64
		} else {
			u = uint64(ns)
		}
	}
	h.observeNs(u)
}

// ObserveDuration records a single duration observation.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.observeNs(uint64(d))
}

func (h *Histogram) observeNs(ns uint64) {
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.bins[stats.LogBin(ns)].Add(1)
}

// Merge folds o into h. Observe and Merge commute: any partition of
// the observations over any number of histograms, merged in any order,
// yields identical state.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sumNs.Add(o.sumNs.Load())
	for i := range o.bins {
		if n := o.bins[i].Load(); n != 0 {
			h.bins[i].Add(n)
		}
	}
}

// Snapshot returns a full-fidelity snapshot of h under the given series
// name and label signature: the quantile summary JSON views print plus
// the exact mergeable state (integer nanosecond sum, sparse populated
// bins) that MergeSnapshot can fold back into a histogram losslessly.
func (h *Histogram) Snapshot(name, labels string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   name,
		Labels: labels,
		Count:  h.count.Load(),
		SumNs:  h.sumNs.Load(),
		Sum:    h.Sum(),
		P50:    h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
	}
	for i := range h.bins {
		if n := h.bins[i].Load(); n != 0 {
			s.Bins = append(s.Bins, HistogramBin{Bin: i, Count: n})
		}
	}
	return s
}

// MergeSnapshot folds a snapshot's exact state (Count, SumNs, Bins)
// into h. Like Merge it commutes with Observe and with itself: merging
// per-worker snapshots in any order yields the same histogram a single
// process would have produced from the same observations — the property
// the router's fleet-wide /stats aggregation depends on. Bins outside
// the histogram geometry (a corrupt or foreign snapshot) are dropped.
func (h *Histogram) MergeSnapshot(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	h.count.Add(s.Count)
	h.sumNs.Add(s.SumNs)
	for _, b := range s.Bins {
		if b.Bin >= 0 && b.Bin < stats.LogBins && b.Count != 0 {
			h.bins[b.Bin].Add(b.Count)
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in seconds, resolved to
// the lower edge of the containing bucket (~4.5% relative resolution,
// same contract as the metrics accumulators). Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for i := 0; i < stats.LogBins; i++ {
		cum += h.bins[i].Load()
		if cum > rank {
			return stats.LogBinEdge(i) * 1e-9
		}
	}
	return stats.LogBinEdge(stats.LogBins-1) * 1e-9
}
