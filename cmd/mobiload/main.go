// Command mobiload is the deterministic load driver for mobiserve: it
// replays seeded synthetic traffic (or an existing .mstore dataset)
// against a running instance at a target rate and persists the serving
// performance — points/s, p50/p95/p99 ingest latency, error counts —
// as a BENCH_serve.json artifact, so the perf trajectory is tracked
// across PRs instead of re-measured by hand.
//
//	mobiserve -addr :8080 -mechanism "geoi(0.01)" &
//	mobiload -target http://localhost:8080 -users 200 -days 1 -out BENCH_serve.json
//
// The traffic is deterministic for a fixed -seed and shape: the result
// records a traffic checksum, so two runs of the same command send
// byte-identical point streams and are directly comparable. Users are
// partitioned across sender workers by the same hash the server shards
// by, preserving each user's chronological order at any -workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mobipriv/internal/cliutil"
	"mobipriv/internal/load"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobiload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobiload", flag.ContinueOnError)
	var (
		target    = fs.String("target", "http://localhost:8080", "base URL of the mobiserve instance")
		storePath = fs.String("store", "", "replay this .mstore dataset instead of synthesizing traffic")
		users     = fs.Int("users", 50, "synthetic users")
		days      = fs.Int("days", 1, "synthetic days per user")
		sampling  = fs.Duration("sampling", 60*time.Second, "synthetic sampling interval")
		seed      = fs.Int64("seed", 1, "traffic seed (fixed seed = byte-identical traffic)")
		rate      = fs.Float64("rate", 0, "target send rate in points/s (0 = as fast as accepted)")
		batch     = fs.Int("batch", 256, "points per ingest request")
		workers   = fs.Int("workers", 0, "concurrent senders (0 = NumCPU, capped at 8)")
		maxPoints = fs.Int("max-points", 0, "truncate traffic to this many points (0 = all)")
		noFlush   = fs.Bool("no-flush", false, "skip the POST /flush after the traffic")
		out       = fs.String("out", "", "persist the result as a benchmark artifact (e.g. BENCH_serve.json)")
		verbose   = cliutil.Verbose(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := load.Config{
		Target:    strings.TrimRight(*target, "/"),
		Store:     *storePath,
		Users:     *users,
		Days:      *days,
		Sampling:  *sampling,
		Seed:      *seed,
		Rate:      *rate,
		Batch:     *batch,
		Workers:   *workers,
		MaxPoints: *maxPoints,
		Flush:     !*noFlush,
	}
	res, err := load.Run(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "sent %d points in %.2fs: %.0f points/s, ingest p50 %.2fms p95 %.2fms p99 %.2fms, %d errors (checksum %s)\n",
		res.Points, res.Seconds, res.PointsPerS,
		res.IngestP50ms, res.IngestP95ms, res.IngestP99ms,
		res.Errors, res.TrafficChecksum)
	if sd := res.Server; sd != nil {
		fmt.Fprintf(stdout, "server: %d points in, %d push stalls; p99 decomposition: queue-wait %.2fms (%.0f%%) process %.2fms (%.0f%%) sink %.2fms (%.0f%%)\n",
			sd.PointsIn, sd.PushStalls,
			sd.QueueWait.P99ms, 100*sd.QueueWait.ShareP99,
			sd.Process.P99ms, 100*sd.Process.ShareP99,
			sd.Sink.P99ms, 100*sd.Sink.ShareP99)
	}

	if *out != "" {
		if err := load.WriteBench(*out, "mobiload "+strings.Join(args, " "), res); err != nil {
			return fmt.Errorf("write %s: %w", *out, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	if *verbose {
		if err := dumpLatency(ctx, cfg, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "mobiload: fetch /stats: %v\n", err)
		}
		if err := dumpMetrics(ctx, cfg, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "mobiload: fetch /metrics: %v\n", err)
		}
	}
	return nil
}

// dumpLatency prints the server's per-histogram quantile summaries
// from /stats — every latency series (HTTP routes, engine queue-wait /
// process / sink) as one line of p50/p95/p99.
func dumpLatency(ctx context.Context, cfg load.Config, w io.Writer) error {
	st, err := load.FetchServerStats(ctx, cfg)
	if err != nil {
		return err
	}
	for _, h := range st.Latency {
		name := h.Name
		if h.Labels != "" {
			name += "{" + h.Labels + "}"
		}
		fmt.Fprintf(w, "%s: n=%d p50 %.2fms p95 %.2fms p99 %.2fms\n",
			name, h.Count, h.P50*1e3, h.P95*1e3, h.P99*1e3)
	}
	return nil
}

// dumpMetrics fetches the server's /metrics after the run — the
// server-side view of the load just applied.
func dumpMetrics(ctx context.Context, cfg load.Config, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.Target+"/metrics", nil)
	if err != nil {
		return err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
