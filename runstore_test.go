package mobipriv_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobipriv"
	"mobipriv/internal/store"
	"mobipriv/internal/trace"
)

// storeDataset builds a quantization-exact dataset whose traces are
// long enough (several km) to survive promesse's end trimming:
// coordinates are exact multiples of 1e-7°, timestamps whole seconds.
func storeDataset(users, pointsEach int) *trace.Dataset {
	base := time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC)
	var traces []*trace.Trace
	for u := 0; u < users; u++ {
		pts := make([]trace.Point, pointsEach)
		for i := range pts {
			// ~111 m per step: a pointsEach of 50 walks ~5.5 km.
			pts[i] = trace.P(
				float64(48_000_0000+100_000*u+10_000*i)/1e7,
				float64(2_000_0000+3_000*i)/1e7,
				base.Add(time.Duration(u*13+i*30)*time.Second),
			)
		}
		traces = append(traces, trace.MustNew(fmt.Sprintf("user%03d", u), pts))
	}
	return trace.MustNewDataset(traces)
}

// withTooShortUser adds user "tiny", whose 80 m walk cannot survive
// promesse's end trimming, so a run also exercises the drop path.
func withTooShortUser(d *trace.Dataset) *trace.Dataset {
	base := time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC)
	tiny := trace.MustNew("tiny", []trace.Point{
		trace.P(47.9, 2.0, base),
		trace.P(47.90072, 2.0, base.Add(time.Minute)),
	})
	return trace.MustNewDataset(append(append([]*trace.Trace(nil), d.Traces()...), tiny))
}

// buildInputStore writes d into a store; fragmented spreads each user
// over many small interleaved blocks, the worst case for assembly.
func buildInputStore(t *testing.T, d *trace.Dataset, fragmented bool) *store.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "in.mstore")
	if fragmented {
		w, err := store.Create(dir, store.Options{Shards: 4, BlockPoints: 4})
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, tr := range d.Traces() {
			if tr.Len() > max {
				max = tr.Len()
			}
		}
		for i := 0; i < max; i++ {
			for _, tr := range d.Traces() {
				if i < tr.Len() {
					if err := w.Append(tr.User, tr.Points[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	} else if err := store.WriteDataset(dir, d, store.Options{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// loadStore opens and loads a store directory.
func loadStore(t *testing.T, dir string) *trace.Dataset {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameDatasets fails unless a and b agree exactly on users, timestamps
// and coordinates.
func sameDatasets(t *testing.T, a, b *trace.Dataset) {
	t.Helper()
	if !reflect.DeepEqual(a.Users(), b.Users()) {
		t.Fatalf("users %v != %v", a.Users(), b.Users())
	}
	for _, ta := range a.Traces() {
		tb := b.ByUser(ta.User)
		if ta.Len() != tb.Len() {
			t.Fatalf("user %q: %d points != %d", ta.User, ta.Len(), tb.Len())
		}
		for i := range ta.Points {
			pa, pb := ta.Points[i], tb.Points[i]
			if !pa.Time.Equal(pb.Time) || pa.Lat != pb.Lat || pa.Lng != pb.Lng {
				t.Fatalf("user %q point %d: %v != %v", ta.User, i, pa, pb)
			}
		}
	}
}

// TestRunStoreEquivalence pins the store-native acceptance criterion:
// for every per-trace mechanism, RunStore's output store Load()s
// identical to running the in-memory Runner on Load()ed input and
// storing the result — same spec, same seed, across worker counts and
// input fragmentation. One input user is too short for promesse, so
// both paths must also agree on what they withhold.
func TestRunStoreEquivalence(t *testing.T) {
	d := withTooShortUser(storeDataset(12, 50))
	specs := []string{"raw", "promesse(epsilon=200)", "geoi(epsilon=0.01,seed=7)"}
	for _, fragmented := range []bool{false, true} {
		in := buildInputStore(t, d, fragmented)
		for _, spec := range specs {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/fragmented=%t/workers=%d", spec, fragmented, workers), func(t *testing.T) {
					m := mobipriv.MustFromSpec(spec)
					runner := mobipriv.NewRunner(mobipriv.WithWorkers(workers))

					// Store-native path.
					outDir := filepath.Join(t.TempDir(), "native.mstore")
					w, err := store.Create(outDir, store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					stats, err := runner.RunStore(context.Background(), in, w, m)
					if err != nil {
						t.Fatalf("RunStore: %v", err)
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}

					// In-memory reference path over the same store.
					loaded, err := in.Load(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					res, err := runner.Run(context.Background(), m, loaded)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					refDir := filepath.Join(t.TempDir(), "ref.mstore")
					if err := store.WriteDataset(refDir, res.Dataset, store.Options{}); err != nil {
						t.Fatal(err)
					}

					sameDatasets(t, loadStore(t, refDir), loadStore(t, outDir))
					if want := res.DroppedUsers(); !reflect.DeepEqual(stats.Dropped, want) &&
						(len(stats.Dropped) != 0 || len(want) != 0) {
						t.Errorf("Dropped = %v, want %v", stats.Dropped, want)
					}
					if strings.HasPrefix(spec, "promesse") {
						want := []string{"tiny"}
						if !reflect.DeepEqual(res.DroppedUsers(), want) || !reflect.DeepEqual(stats.Dropped, want) {
							t.Errorf("Dropped: Run %v, RunStore %v, want %v", res.DroppedUsers(), stats.Dropped, want)
						}
					}
					if got := res.Dataset.Len() + len(res.DroppedUsers()); got != loaded.Len() {
						t.Errorf("published %d + dropped %d != input %d", res.Dataset.Len(), len(res.DroppedUsers()), loaded.Len())
					}
					if stats.Traces != int64(loaded.Len()) {
						t.Errorf("stats.Traces = %d, want %d", stats.Traces, loaded.Len())
					}
					if stats.OutTraces != int64(res.Dataset.Len()) {
						t.Errorf("stats.OutTraces = %d, want %d", stats.OutTraces, res.Dataset.Len())
					}
				})
			}
		}
	}
}

// TestRunStoreRejectsBatchOnly pins that batch-only mechanisms surface
// ErrNotPerTrace instead of silently degrading.
func TestRunStoreRejectsBatchOnly(t *testing.T) {
	d := storeDataset(3, 10)
	in := buildInputStore(t, d, false)
	outDir := filepath.Join(t.TempDir(), "out.mstore")
	w, err := store.Create(outDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	runner := mobipriv.NewRunner()
	for _, spec := range []string{"pipeline", "w4m(k=2,delta=500)"} {
		if _, err := runner.RunStore(context.Background(), in, w, mobipriv.MustFromSpec(spec)); !errors.Is(err, mobipriv.ErrNotPerTrace) {
			t.Errorf("RunStore(%s): err = %v, want ErrNotPerTrace", spec, err)
		}
	}
}

// TestPerTraceMechanisms pins which registered mechanisms expose the
// store-native capability.
func TestPerTraceMechanisms(t *testing.T) {
	want := []string{"geoi", "promesse", "raw"}
	if got := mobipriv.PerTraceMechanisms(); !reflect.DeepEqual(got, want) {
		t.Errorf("PerTraceMechanisms() = %v, want %v", got, want)
	}
	// The capability must survive FromSpec's wrapping with parameters.
	if _, ok := mobipriv.AsPerTrace(mobipriv.MustFromSpec("geoi(0.05,seed=3)")); !ok {
		t.Error("parameterized geoi spec lost the per-trace capability")
	}
	// And coexist with streaming on the same mechanism value.
	m := mobipriv.MustFromSpec("promesse(epsilon=150)")
	if _, ok := mobipriv.AsStreaming(m); !ok {
		t.Error("promesse lost streaming capability")
	}
	if _, ok := mobipriv.AsPerTrace(m); !ok {
		t.Error("promesse lost per-trace capability")
	}
}

// TestRunStoreFlatMemory pins the larger-than-RAM bound: the pipeline's
// high-water marks depend on the worker count and the input store's
// fragmentation — NOT on how many users flow through. A 10× dataset
// must report the same peaks as the 1× dataset.
func TestRunStoreFlatMemory(t *testing.T) {
	runner := mobipriv.NewRunner(mobipriv.WithWorkers(4))
	m := mobipriv.MustFromSpec("geoi(epsilon=0.01,seed=1)")
	for _, users := range []int{20, 200} {
		in := buildInputStore(t, storeDataset(users, 12), false)
		outDir := filepath.Join(t.TempDir(), fmt.Sprintf("out%d.mstore", users))
		w, err := store.Create(outDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := runner.RunStore(context.Background(), in, w, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if stats.Traces != int64(users) {
			t.Fatalf("processed %d traces, want %d", stats.Traces, users)
		}
		// In-flight traces are capped by the bounded channel — one in
		// hand per worker, the queue, and one held per blocked
		// segment-scanning goroutine — at either scale.
		if bound := int64(3 * 4); stats.PeakInFlight > bound {
			t.Errorf("users=%d: PeakInFlight = %d > %d", users, stats.PeakInFlight, bound)
		}
		// A compacted input (one block per user) assembles with no
		// fragment buffering at all, at either scale.
		if stats.PeakBufferedUsers != 0 {
			t.Errorf("users=%d: PeakBufferedUsers = %d, want 0", users, stats.PeakBufferedUsers)
		}
	}
}

// TestRunStoreWithFilters pins the filtered store-native path:
// RunStoreWith over a user/time-restricted scan produces exactly what
// the in-memory Runner produces on the equivalently filtered dataset,
// and the skipped blocks are counted.
func TestRunStoreWithFilters(t *testing.T) {
	d := storeDataset(12, 50)
	in := buildInputStore(t, d, true)
	m := mobipriv.MustFromSpec("geoi(epsilon=0.01,seed=7)")
	runner := mobipriv.NewRunner(mobipriv.WithWorkers(4))

	users := []string{"user003", "user007"}
	filter := store.ScanOptions{Users: users}

	outDir := filepath.Join(t.TempDir(), "filtered.mstore")
	w, err := store.Create(outDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runner.RunStoreWith(context.Background(), in, w, m, filter)
	if err != nil {
		t.Fatalf("RunStoreWith: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Traces != 2 {
		t.Errorf("stats.Traces = %d, want 2", stats.Traces)
	}
	if stats.BlocksPruned == 0 {
		t.Errorf("user filter pruned no blocks: %+v", stats)
	}

	// Reference: the in-memory Runner over just the selected users.
	var kept []*trace.Trace
	for _, u := range users {
		kept = append(kept, d.ByUser(u))
	}
	res, err := runner.Run(context.Background(), m, trace.MustNewDataset(kept))
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref.mstore")
	if err := store.WriteDataset(refDir, res.Dataset, store.Options{}); err != nil {
		t.Fatal(err)
	}
	sameDatasets(t, loadStore(t, refDir), loadStore(t, outDir))
}

// TestRunStorePipelineNoZones pins the pipeline's conditional per-trace
// capability: with the mix-zone stage disabled and no pseudonym prefix,
// every remaining stage is trace-independent, so the spec runs
// store-native and Load()s identical to the batch path. The default
// pipeline must keep refusing (TestRunStoreRejectsBatchOnly).
func TestRunStorePipelineNoZones(t *testing.T) {
	spec := "pipeline(no-zones=true,prefix=)"
	m := mobipriv.MustFromSpec(spec)
	if _, ok := mobipriv.AsPerTrace(m); !ok {
		t.Fatalf("%s should be per-trace capable", spec)
	}
	// A pseudonymizing or zone-ful pipeline must not be.
	for _, batchOnly := range []string{"pipeline(no-zones=true)", "pipeline(prefix=)"} {
		if _, ok := mobipriv.AsPerTrace(mobipriv.MustFromSpec(batchOnly)); ok {
			t.Errorf("%s should be batch-only", batchOnly)
		}
	}

	d := storeDataset(10, 60)
	for _, workers := range []int{1, 4} {
		in := buildInputStore(t, d, workers == 1)
		runner := mobipriv.NewRunner(mobipriv.WithWorkers(workers))
		outDir := filepath.Join(t.TempDir(), "native.mstore")
		w, err := store.Create(outDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.RunStore(context.Background(), in, w, m); err != nil {
			t.Fatalf("RunStore: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		loaded, err := in.Load(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), m, loaded)
		if err != nil {
			t.Fatal(err)
		}
		refDir := filepath.Join(t.TempDir(), "ref.mstore")
		if err := store.WriteDataset(refDir, res.Dataset, store.Options{}); err != nil {
			t.Fatal(err)
		}
		sameDatasets(t, loadStore(t, refDir), loadStore(t, outDir))
	}
}
