package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mobipriv/internal/stats"
)

// TestSnapshotRoundTrip asserts the wire contract the multi-node
// router's aggregated /stats depends on: per-worker histograms
// serialized as snapshots (through JSON, as they travel over HTTP) and
// folded into a fresh histogram with MergeSnapshot reproduce the exact
// state — count, nanosecond sum, every bin, every quantile — of a
// single histogram that observed all the values directly.
func TestSnapshotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	direct := NewHistogram()
	workers := make([]*Histogram, 3)
	for i := range workers {
		workers[i] = NewHistogram()
	}
	for i := 0; i < 5000; i++ {
		d := time.Duration(r.Int63n(int64(2 * time.Second)))
		direct.ObserveDuration(d)
		workers[r.Intn(len(workers))].ObserveDuration(d)
	}

	merged := NewHistogram()
	// Merge in reverse order to exercise order-invariance, and push
	// each snapshot through JSON to exercise the wire encoding.
	for i := len(workers) - 1; i >= 0; i-- {
		raw, err := json.Marshal(workers[i].Snapshot("lat", ""))
		if err != nil {
			t.Fatal(err)
		}
		var snap HistogramSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		merged.MergeSnapshot(snap)
	}

	got, want := merged.Snapshot("lat", ""), direct.Snapshot("lat", "")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged snapshot differs from direct observation:\ngot  %+v\nwant %+v", got, want)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
		if merged.Quantile(q) != direct.Quantile(q) {
			t.Errorf("quantile %.2f: merged %v, direct %v", q, merged.Quantile(q), direct.Quantile(q))
		}
	}
}

// TestMergeSnapshotIgnoresForeignBins checks a corrupt or foreign
// snapshot cannot crash or poison a histogram: out-of-range bin indices
// are dropped, count and sum still merge.
func TestMergeSnapshotIgnoresForeignBins(t *testing.T) {
	h := NewHistogram()
	h.MergeSnapshot(HistogramSnapshot{
		Count: 3,
		SumNs: 300,
		Bins:  []HistogramBin{{Bin: -1, Count: 1}, {Bin: stats.LogBins, Count: 1}, {Bin: 5, Count: 1}},
	})
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if got := h.Snapshot("x", "").Bins; len(got) != 1 || got[0].Bin != 5 {
		t.Errorf("bins = %+v, want only bin 5", got)
	}
	// Empty snapshots are no-ops.
	h2 := NewHistogram()
	h2.MergeSnapshot(HistogramSnapshot{})
	if h2.Count() != 0 {
		t.Errorf("empty snapshot merged into %d observations", h2.Count())
	}
}
