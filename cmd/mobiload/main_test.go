package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/load"
	"mobipriv/internal/obs"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// stub mimics mobiserve's ingest/flush wire contract.
func stub(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		n := int64(0)
		if err := traceio.DecodeJSONL(r.Body, func(string, trace.Point) error { n++; return nil }); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(map[string]int64{"accepted": n})
	})
	mux.HandleFunc("POST /flush", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]bool{"flushed": true})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunWritesBench pins the CLI contract: a run against a server
// produces the summary line and persists a parseable BENCH artifact,
// and the traffic checksum is identical across runs of the same seed.
func TestRunWritesBench(t *testing.T) {
	srv := stub(t)
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")

	runOnce := func() string {
		var sb strings.Builder
		err := run([]string{
			"-target", srv.URL,
			"-users", "6",
			"-seed", "9",
			"-max-points", "400",
			"-workers", "2",
			"-out", out,
		}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	out1 := runOnce()
	if !strings.Contains(out1, "points/s") || !strings.Contains(out1, "wrote "+out) {
		t.Fatalf("unexpected output: %q", out1)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var b load.Bench
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCH artifact is not valid JSON: %v", err)
	}
	if b.Results == nil || b.Results.Points != 400 || b.Results.PointsPerS <= 0 {
		t.Fatalf("bad bench results: %+v", b.Results)
	}
	if b.Results.Errors != 0 {
		t.Fatalf("errors in bench: %+v", b.Results)
	}

	// Determinism: the checksum printed by a second identical run
	// matches the first.
	sumRe := regexp.MustCompile(`checksum ([0-9a-f]+)`)
	m1 := sumRe.FindStringSubmatch(out1)
	m2 := sumRe.FindStringSubmatch(runOnce())
	if m1 == nil || m2 == nil || m1[1] != m2[1] {
		t.Fatalf("checksums differ or missing: %v vs %v", m1, m2)
	}
	if m1[1] != b.Results.TrafficChecksum {
		t.Fatalf("printed checksum %s != persisted %s", m1[1], b.Results.TrafficChecksum)
	}
}

// TestRunBadTarget pins the error path: an unreachable target fails
// with a nonzero error, not a hang.
func TestRunBadTarget(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-target", "http://127.0.0.1:1", "-users", "2", "-max-points", "10", "-no-flush"}, &sb)
	// Every ingest fails; the run itself still completes with errors
	// counted rather than aborting on the first refused connection.
	// (A failed final /flush IS a hard error, hence -no-flush here.)
	if err != nil {
		t.Fatalf("run returned hard error for refused connections: %v", err)
	}
	if !strings.Contains(sb.String(), "errors") {
		t.Fatalf("output missing error count: %q", sb.String())
	}
}

// TestDumpLatency pins the -verbose latency dump: it reads /stats
// through the shared fetcher with no client configured and prints one
// line per series.
func TestDumpLatency(t *testing.T) {
	h := obs.NewHistogram()
	h.ObserveDuration(2 * time.Millisecond)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(load.ServerStats{Latency: []obs.HistogramSnapshot{
			h.Snapshot("stream_process_seconds", `shard="0"`),
		}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	var sb strings.Builder
	if err := dumpLatency(context.Background(), load.Config{Target: srv.URL}, &sb); err != nil {
		t.Fatal(err)
	}
	if want := `stream_process_seconds{shard="0"}: n=1 p50 1.97ms`; !strings.HasPrefix(sb.String(), want) {
		t.Fatalf("dump = %q, want prefix %q", sb.String(), want)
	}
	if err := dumpLatency(context.Background(), load.Config{Target: srv.URL + "/missing"}, &sb); err == nil {
		t.Fatal("dump of a missing /stats succeeded")
	}
}
