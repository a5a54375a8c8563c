package load

import (
	"testing"
	"time"

	"mobipriv/internal/obs"
)

// TestDecomposeDiffsSnapshots pins the warm-server case: the stage
// quantiles describe only the traffic between the two snapshots, not
// the 1000 slow observations the server had already recorded.
func TestDecomposeDiffsSnapshots(t *testing.T) {
	names := []string{"stream_queue_wait_seconds", "stream_process_seconds", "stream_sink_seconds"}
	hists := make([]*obs.Histogram, len(names))
	snap := func(in int64) *ServerStats {
		st := &ServerStats{In: in}
		for i, h := range hists {
			st.Latency = append(st.Latency, h.Snapshot(names[i], ""))
		}
		return st
	}
	for i := range hists {
		hists[i] = obs.NewHistogram()
		for j := 0; j < 1000; j++ {
			hists[i].ObserveDuration(time.Second + time.Duration(j)*time.Microsecond)
		}
	}
	before := snap(1000)
	for _, h := range hists {
		for j := 0; j < 100; j++ {
			h.ObserveDuration(time.Millisecond + time.Duration(j)*time.Nanosecond)
		}
	}
	after := snap(1100)

	ref := obs.NewHistogram()
	ref.ObserveDuration(time.Millisecond)
	wantP99 := ref.Quantile(0.99) * 1e3

	d := decompose(before, after)
	if d == nil {
		t.Fatal("decompose returned nil")
	}
	if d.PointsIn != 100 {
		t.Errorf("PointsIn = %d, want 100", d.PointsIn)
	}
	for i, st := range []StageLatency{d.QueueWait, d.Process, d.Sink} {
		if st.Count != 100 {
			t.Errorf("%s: Count = %d, want 100", names[i], st.Count)
		}
		if st.P50ms != wantP99 || st.P99ms != wantP99 {
			t.Errorf("%s: p50/p99 = %v/%v ms, want the 1 ms bin's %v", names[i], st.P50ms, st.P99ms, wantP99)
		}
		if st.ShareP99 < 0.333 || st.ShareP99 > 0.334 {
			t.Errorf("%s: ShareP99 = %v, want 1/3", names[i], st.ShareP99)
		}
	}

	// A second window that lands in bins the server had already filled
	// counts only its own observations there.
	for _, h := range hists {
		for j := 0; j < 10; j++ {
			h.ObserveDuration(time.Second)
		}
	}
	d = decompose(after, snap(1110))
	for i, st := range []StageLatency{d.QueueWait, d.Process, d.Sink} {
		if st.Count != 10 || st.P50ms < 900 {
			t.Errorf("%s: second window Count = %d, p50 = %v ms; want 10 near 1 s", names[i], st.Count, st.P50ms)
		}
	}
}
