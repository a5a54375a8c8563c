package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"mobipriv/internal/obs"
)

// StageLatency summarizes one stage of the server's push-latency
// decomposition, in milliseconds. ShareP99 is this stage's fraction of
// the summed p99s — a rough "where does the tail go" attribution that
// adds up to 1 across the three stages.
type StageLatency struct {
	Count    uint64  `json:"count"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	ShareP99 float64 `json:"share_p99"`
}

// ServerDecomp is the server-side view of the load just applied,
// from GET /stats snapshots taken before and after the run: how many
// points the engine ingested during the run, how often pushes stalled
// on backpressure, and where per-shard-batch latency went — queue wait
// (batch sat in a shard queue), process (mechanism work) and sink
// (handing output to the sink callback). Every field is a before/after
// delta, so earlier traffic on a warm server does not mix in. Joined
// with the client-side ingest quantiles this decomposes the observed
// p99 end to end.
type ServerDecomp struct {
	PointsIn   int64        `json:"points_in"`
	PushStalls int64        `json:"push_stalls"`
	QueueWait  StageLatency `json:"queue_wait"`
	Process    StageLatency `json:"process"`
	Sink       StageLatency `json:"sink"`
}

// ServerStats is the slice of mobiserve's /stats response the load
// driver reads back.
type ServerStats struct {
	In      int64                   `json:"points_in"`
	Stalls  int64                   `json:"push_stalls"`
	Latency []obs.HistogramSnapshot `json:"latency"`
}

// FetchServerStats reads the target's /stats. A nil cfg.Client means
// the default client. Run treats failure as "no server-side view" (a
// stub target or an older server), not a run failure.
func FetchServerStats(ctx context.Context, cfg Config) (*ServerStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.Target+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cfg.withDefaults().Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: stats: HTTP %d", resp.StatusCode)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("load: stats response: %w", err)
	}
	return &st, nil
}

// decompose builds the ServerDecomp from before/after stats snapshots.
// Counters are deltas over the run, and each stage's quantiles come
// from its histogram diffed bin by bin (exact: the bins are integer
// counts), so they describe only the run's traffic. Returns nil when
// the server does not publish the decomposition histograms.
func decompose(before, after *ServerStats) *ServerDecomp {
	if before == nil || after == nil {
		return nil
	}
	stage := func(name string) (StageLatency, bool) {
		h, ok := stageDelta(before, after, name)
		if !ok {
			return StageLatency{}, false
		}
		return StageLatency{
			Count: h.Count(),
			P50ms: h.Quantile(0.50) * 1e3,
			P95ms: h.Quantile(0.95) * 1e3,
			P99ms: h.Quantile(0.99) * 1e3,
		}, true
	}
	qw, ok1 := stage("stream_queue_wait_seconds")
	pr, ok2 := stage("stream_process_seconds")
	sk, ok3 := stage("stream_sink_seconds")
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	if denom := qw.P99ms + pr.P99ms + sk.P99ms; denom > 0 {
		qw.ShareP99 = qw.P99ms / denom
		pr.ShareP99 = pr.P99ms / denom
		sk.ShareP99 = sk.P99ms / denom
	}
	return &ServerDecomp{
		PointsIn:   after.In - before.In,
		PushStalls: after.Stalls - before.Stalls,
		QueueWait:  qw,
		Process:    pr,
		Sink:       sk,
	}
}

// stageDelta returns the observations the unlabeled series name gained
// between two snapshots, as a histogram; false when after lacks it.
// Only the bins are diffed (the nanosecond sum is not reported), and a
// bin that shrank — a restarted server — counts as empty.
func stageDelta(before, after *ServerStats, name string) (*obs.Histogram, bool) {
	find := func(st *ServerStats) (obs.HistogramSnapshot, bool) {
		for _, h := range st.Latency {
			if h.Name == name && h.Labels == "" {
				return h, true
			}
		}
		return obs.HistogramSnapshot{}, false
	}
	z, ok := find(after)
	if !ok {
		return nil, false
	}
	a, _ := find(before)
	prev := make(map[int]uint64, len(a.Bins))
	for _, b := range a.Bins {
		prev[b.Bin] = b.Count
	}
	var d obs.HistogramSnapshot
	for _, b := range z.Bins {
		if b.Count > prev[b.Bin] {
			n := b.Count - prev[b.Bin]
			d.Bins = append(d.Bins, obs.HistogramBin{Bin: b.Bin, Count: n})
			d.Count += n
		}
	}
	h := obs.NewHistogram()
	h.MergeSnapshot(d)
	return h, true
}
