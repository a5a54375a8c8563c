package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/store"
	"mobipriv/internal/trace"
)

// benchmarkSpec is the slice of BENCHMARK.json the self-test reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildServer builds cmd/mobiserve into dir.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "mobiserve")
	cmd := exec.Command("go", "build", "-o", bin, "mobipriv/cmd/mobiserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build mobiserve: %v\n%s", err, out)
	}
	return bin
}

// TestEveryMetricPrinted runs every workload at a tiny scale in both
// modes and checks that the result line carries exactly the metrics
// BENCHMARK.json names for the mode, each with its unit, and that the
// run is correct.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	bin := buildServer(t, t.TempDir())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range spec.Workloads {
		for _, mode := range []struct {
			trace string
			want  []specMetric
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			t.Run(w.Name+"/trace="+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				b := tinyBench(t)
				b.mobiserve, b.spansDir, b.log = bin, filepath.Join(b.workdir, "spans"), &stderr
				if code := b.run(w.Name, mode.trace == "1", &stdout); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// tinyShape sizes the self-test's inputs.
var tinyShape = shape{
	ingestUsers: 20,
	warmReqs:    4,
	windowReqs:  4,
	closedReqs:  4,
	traceReqs:   8,
	batchUsers:  8,
	storeUsers:  3,
	minJobs:     1,
}

func tinyBench(t *testing.T) *bench {
	t.Helper()
	return &bench{seed: 5, seconds: 0.1, workdir: t.TempDir(), shape: tinyShape, nproc: 2, log: io.Discard}
}

// corrupt returns a copy of d with one coordinate of its first trace
// moved.
func corrupt(t *testing.T, d *trace.Dataset) *trace.Dataset {
	t.Helper()
	var traces []*trace.Trace
	for i, tr := range d.Traces() {
		cp := tr.Clone()
		if i == 0 {
			cp.Points[cp.Len()/2].Lat += 1e-4
		}
		traces = append(traces, cp)
	}
	out, err := trace.NewDataset(traces)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIngestChecksTrip: the point-count check and the sink-store check
// both fail on a corrupted output.
func TestIngestChecksTrip(t *testing.T) {
	if err := countsMatch(100, 100, &serverStats{In: 100}); err != nil {
		t.Fatalf("matching counts: %v", err)
	}
	for _, c := range [][3]int64{{99, 100, 100}, {100, 100, 99}} {
		if countsMatch(c[0], c[1], &serverStats{In: uint64(c[2])}) == nil {
			t.Errorf("counts %v passed", c)
		}
	}

	b := tinyBench(t)
	tr, err := b.makeTraffic(6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ingestReference(tr.reqs)
	if err != nil {
		t.Fatal(err)
	}
	sink := filepath.Join(b.workdir, "sink.mstore")
	if err := store.WriteDataset(sink, ref, store.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := b.checkIngestSink(sink, tr.reqs); err != nil {
		t.Fatalf("faithful sink: %v", err)
	}
	if err := store.WriteDataset(sink, corrupt(t, ref), store.Options{Overwrite: true}); err != nil {
		t.Fatal(err)
	}
	if b.checkIngestSink(sink, tr.reqs) == nil {
		t.Error("corrupted sink store passed")
	}
	if b.checkIngestSink(sink, tr.reqs[:len(tr.reqs)-1]) == nil {
		t.Error("sink holding an unsent request passed")
	}
}

// TestBatchCheckTrips: a job whose output differs from the one-worker
// reference fails the digest check.
func TestBatchCheckTrips(t *testing.T) {
	b := tinyBench(t)
	in, err := b.batchSetup()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := batchComposition(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.checkedBatchJob(in, want); err != nil {
		t.Fatalf("faithful job: %v", err)
	}
	// Corrupting the input corrupts the job's output.
	bad := batchInput{csv: bytes.Replace(in.csv, []byte(",45.7"), []byte(",45.8"), 1), points: in.points}
	if bytes.Equal(bad.csv, in.csv) {
		t.Fatal("corruption did not apply")
	}
	if b.checkedBatchJob(bad, want) == nil {
		t.Error("corrupted output passed the digest check")
	}
}

// TestStoreChecksTrip: the RunStore-vs-Run dataset check and the
// report check both fail on a corrupted output.
func TestStoreChecksTrip(t *testing.T) {
	b := tinyBench(t)
	in, err := b.storeSetup()
	if err != nil {
		t.Fatal(err)
	}
	res := &result{Correct: true}
	want, err := b.checkStoreJob(res, in)
	if err != nil || !res.Correct {
		t.Fatalf("faithful job: err=%v correct=%v", err, res.Correct)
	}
	anon := filepath.Join(b.workdir, "anon.mstore")
	rep, _, err := b.storeJob(in, anon)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReport(rep, want); err != nil {
		t.Fatalf("faithful report: %v", err)
	}
	bad := *rep
	bad.Distortion.Max += 1e-9
	if sameReport(&bad, want) == nil {
		t.Error("corrupted report passed")
	}
	bad = *rep
	bad.AnonPoints++
	if sameReport(&bad, want) == nil {
		t.Error("corrupted point count passed")
	}

	got, err := loadStore(anon)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDataset(got, got); err != nil {
		t.Fatal(err)
	}
	if sameDataset(corrupt(t, got), got) == nil {
		t.Error("corrupted RunStore output passed")
	}
}

// TestSpanSelfTime pins the self-time arithmetic: a child's interval
// is subtracted once even when siblings overlap.
func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{t0: time.Now(), spans: []span{
		{id: 1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "a", start: 30, end: 50},
		{id: 4, parent: 2, name: "b", start: 15, end: 20},
	}}
	self := tr.selfTimes()
	if self["root"] != 60 || self["a"] != 25+20 || self["b"] != 5 {
		t.Errorf("self times %v", self)
	}
}

// TestAppendDeg pins the coordinate encoding against strconv's (they
// may differ only on exact decimal ties).
func TestAppendDeg(t *testing.T) {
	for _, v := range []float64{0, 45.7640431, -73.5673422, 4.4e-7, -4.6e-7, -0.0000001, 179.9999999, 12.3456789} {
		got := string(appendDeg(nil, v))
		want := strconv.FormatFloat(v, 'f', 7, 64)
		if want == "-0.0000000" {
			want = "0.0000000"
		}
		if got != want {
			t.Errorf("appendDeg(%v) = %s, want %s", v, got, want)
		}
	}
}
