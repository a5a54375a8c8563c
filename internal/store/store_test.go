package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// exactDataset builds a deterministic dataset whose coordinates are
// exact multiples of 1e-7° and whose timestamps are whole seconds, so
// the store's fixed-point quantization is lossless and round trips can
// be compared exactly.
func exactDataset(t testing.TB, users, pointsEach int) *trace.Dataset {
	t.Helper()
	rnd := rand.New(rand.NewSource(42))
	base := time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC)
	var traces []*trace.Trace
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("u%03d", u)
		// Fixed-point coordinates divided once by CoordScale, so each
		// value is exactly what dequantize produces.
		latQ := int64(rnd.Intn(2*90*1e6)-90*1e6) * 10
		lngQ := int64(rnd.Intn(2*180*1e6)-180*1e6) * 10
		pts := make([]trace.Point, pointsEach)
		for i := range pts {
			pts[i] = trace.P(
				float64(latQ+int64(i))/CoordScale,
				float64(lngQ+int64(i*3))/CoordScale,
				base.Add(time.Duration(u*pointsEach+i*5)*time.Second),
			)
		}
		traces = append(traces, trace.MustNew(user, pts))
	}
	return trace.MustNewDataset(traces)
}

// buildStore writes d into a fresh store under t.TempDir and opens it.
func buildStore(t testing.TB, d *trace.Dataset, opts Options) *Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data.mstore")
	if err := WriteDataset(dir, d, opts); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sameDataset fails the test unless a and b agree on users, point
// counts, timestamps and coordinates exactly.
func sameDataset(t *testing.T, a, b *trace.Dataset) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("user count %d != %d", a.Len(), b.Len())
	}
	for _, ta := range a.Traces() {
		tb := b.ByUser(ta.User)
		if tb == nil {
			t.Fatalf("user %q missing", ta.User)
		}
		if ta.Len() != tb.Len() {
			t.Fatalf("user %q: %d points != %d", ta.User, ta.Len(), tb.Len())
		}
		for i := range ta.Points {
			pa, pb := ta.Points[i], tb.Points[i]
			if !pa.Time.Equal(pb.Time) {
				t.Fatalf("user %q point %d: time %v != %v", ta.User, i, pa.Time, pb.Time)
			}
			if pa.Lat != pb.Lat || pa.Lng != pb.Lng {
				t.Fatalf("user %q point %d: coords (%v,%v) != (%v,%v)",
					ta.User, i, pa.Lat, pa.Lng, pb.Lat, pb.Lng)
			}
		}
	}
}

// TestRoundTripCSV pins the acceptance criterion: CSV -> store ->
// Load() is identical to ReadCSV for quantization-exact input.
func TestRoundTripCSV(t *testing.T) {
	d := exactDataset(t, 13, 40)
	var buf bytes.Buffer
	if err := traceio.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := traceio.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, fromCSV, Options{Shards: 4})
	loaded, err := s.Load(context.Background())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameDataset(t, fromCSV, loaded)
}

// TestRoundTripProperty drives the encoder through its edge cases:
// negative coordinates, extreme in-range values near the zigzag/varint
// boundaries, single-point traces and sub-second timestamps.
func TestRoundTripProperty(t *testing.T) {
	base := time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC) // negative Unix epoch
	mk := func(user string, coords [][2]float64) *trace.Trace {
		pts := make([]trace.Point, len(coords))
		for i, c := range coords {
			pts[i] = trace.P(c[0], c[1], base.Add(time.Duration(i)*1500*time.Millisecond))
		}
		return trace.MustNew(user, pts)
	}
	d := trace.MustNewDataset([]*trace.Trace{
		mk("negative", [][2]float64{{-89.9999999, -179.9999999}, {-0.0000001, -0.0000001}, {0, 0}}),
		mk("extremes", [][2]float64{{-90, -180}, {90, 180}}),
		mk("single", [][2]float64{{48.8566, 2.3522}}),
		mk("jumpy", [][2]float64{{89.5, 179.5}, {-89.5, -179.5}, {89.5, 179.5}}),
	})
	s := buildStore(t, d, Options{Shards: 3, BlockPoints: 2})
	loaded, err := s.Load(context.Background())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameDataset(t, d, loaded)
}

func TestRoundTripRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	var traces []*trace.Trace
	for u := 0; u < 20; u++ {
		n := 1 + rnd.Intn(50)
		pts := make([]trace.Point, n)
		ts := base.Add(time.Duration(rnd.Int63n(1e6)) * time.Millisecond)
		for i := range pts {
			ts = ts.Add(time.Duration(1+rnd.Int63n(1e7)) * time.Microsecond)
			pts[i] = trace.P(
				float64(rnd.Int63n(2*90*1e7+1)-90*1e7)/CoordScale,
				float64(rnd.Int63n(2*180*1e7+1)-180*1e7)/CoordScale,
				ts,
			)
		}
		traces = append(traces, trace.MustNew(string(rune('A'+u)), pts))
	}
	d := trace.MustNewDataset(traces)
	s := buildStore(t, d, Options{Shards: 5, BlockPoints: 7})
	loaded, err := s.Load(context.Background())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameDataset(t, d, loaded)
}

func TestEmptyStore(t *testing.T) {
	d := trace.MustNewDataset(nil)
	s := buildStore(t, d, Options{Shards: 2})
	loaded, err := s.Load(context.Background())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("want empty dataset, got %v", loaded)
	}
	if _, _, ok := s.TimeSpan(); ok {
		t.Error("TimeSpan ok for empty store")
	}
	if !s.Bounds().IsEmpty() {
		t.Errorf("Bounds = %v, want empty", s.Bounds())
	}
}

func TestDuplicateUserRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dup.mstore")
	w, err := Create(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := trace.MustNew("alice", []trace.Point{trace.P(1, 2, time.Unix(0, 0))})
	if err := w.Add(tr); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(tr); !errors.Is(err, ErrDuplicateUser) {
		t.Fatalf("second Add: err = %v, want ErrDuplicateUser", err)
	}
	if err := w.Append("alice", trace.P(3, 4, time.Unix(5, 0))); !errors.Is(err, ErrDuplicateUser) {
		t.Fatalf("Append after Add: err = %v, want ErrDuplicateUser", err)
	}
	// Append does allow incremental growth for users not sealed by Add.
	if err := w.Append("bob", trace.P(1, 1, time.Unix(1, 0))); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("bob", trace.P(2, 2, time.Unix(2, 0))); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(trace.MustNew("bob", []trace.Point{trace.P(9, 9, time.Unix(9, 0))})); !errors.Is(err, ErrDuplicateUser) {
		t.Fatalf("Add after Append: err = %v, want ErrDuplicateUser", err)
	}
}

// TestAppendFragmented checks that a user streamed in many small
// appends (several blocks) loads back as one merged, sorted trace.
func TestAppendFragmented(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "frag.mstore")
	w, err := Create(dir, Options{Shards: 2, BlockPoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	want := make([]trace.Point, 10)
	for i := range want {
		want[i] = trace.P(10+float64(i)/1e4, 20, base.Add(time.Duration(i)*time.Minute))
	}
	for i := 0; i < len(want); i += 2 {
		if err := w.Append("carol", want[i], want[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr := d.ByUser("carol")
	if tr == nil || tr.Len() != len(want) {
		t.Fatalf("loaded %v, want 10-point carol", tr)
	}
	for i, p := range tr.Points {
		if !p.Time.Equal(want[i].Time) {
			t.Fatalf("point %d: time %v, want %v", i, p.Time, want[i].Time)
		}
	}
	// Several blocks must actually exist for the test to mean anything.
	blocks := 0
	for _, si := range s.Manifest().Segments {
		blocks += si.Blocks
	}
	if blocks < 3 {
		t.Fatalf("manifest reports %d blocks, want >= 3", blocks)
	}
}

func TestScanFiltersAndPruning(t *testing.T) {
	d := exactDataset(t, 16, 32)
	s := buildStore(t, d, Options{Shards: 4, BlockPoints: 8})
	ctx := context.Background()

	t.Run("user filter prunes", func(t *testing.T) {
		user := d.Users()[3]
		var stats ScanStats
		got := 0
		err := s.Scan(ctx, ScanOptions{Users: []string{user}, Stats: &stats}, func(u string, pts []trace.Point) error {
			if u != user {
				t.Errorf("got user %q", u)
			}
			got += len(pts)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != d.ByUser(user).Len() {
			t.Errorf("yielded %d points, want %d", got, d.ByUser(user).Len())
		}
		if stats.BlocksPruned == 0 {
			t.Errorf("no blocks pruned: %+v", stats)
		}
		if stats.BlocksDecoded+stats.CacheHits >= stats.BlocksTotal {
			t.Errorf("pruning did not skip decodes: %+v", stats)
		}
	})

	t.Run("disjoint time window decodes nothing", func(t *testing.T) {
		from, to, _ := s.TimeSpan()
		var stats ScanStats
		err := s.Scan(ctx, ScanOptions{From: to.Add(time.Hour), To: to.Add(2 * time.Hour), Stats: &stats},
			func(string, []trace.Point) error {
				t.Error("unexpected block yielded")
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BlocksDecoded != 0 || stats.CacheHits != 0 {
			t.Errorf("disjoint scan decoded blocks: %+v", stats)
		}
		if stats.BlocksPruned != stats.BlocksTotal {
			t.Errorf("want all %d blocks pruned, got %d", stats.BlocksTotal, stats.BlocksPruned)
		}
		_ = from
	})

	t.Run("bbox filter is exact", func(t *testing.T) {
		box := geo.NewBBox(geo.Point{Lat: -45, Lng: -90}, geo.Point{Lat: 45, Lng: 90})
		want := 0
		for _, tr := range d.Traces() {
			for _, p := range tr.Points {
				if box.Contains(p.Point) {
					want++
				}
			}
		}
		var stats ScanStats
		var got atomic.Int64 // the callback runs on 4 scan workers
		err := s.Scan(ctx, ScanOptions{BBox: box, Workers: 4, Stats: &stats}, func(_ string, pts []trace.Point) error {
			for _, p := range pts {
				if !box.Contains(p.Point) {
					t.Errorf("point %v outside bbox", p)
				}
			}
			got.Add(int64(len(pts)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Load() != int64(want) {
			t.Errorf("yielded %d points, want %d", got.Load(), want)
		}
	})

	t.Run("cache serves repeat scans", func(t *testing.T) {
		var first, second ScanStats
		discard := func(string, []trace.Point) error { return nil }
		if err := s.Scan(ctx, ScanOptions{Stats: &first}, discard); err != nil {
			t.Fatal(err)
		}
		if err := s.Scan(ctx, ScanOptions{Stats: &second}, discard); err != nil {
			t.Fatal(err)
		}
		if second.CacheHits == 0 {
			t.Errorf("second scan hit no cache: %+v", second)
		}
	})
}

func TestScanConcurrentIsComplete(t *testing.T) {
	d := exactDataset(t, 24, 16)
	s := buildStore(t, d, Options{Shards: 8, BlockPoints: 4})
	got, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, d, got)
}

func TestCreateExisting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "x.mstore")
	if err := WriteDataset(dir, trace.MustNewDataset(nil), Options{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Options{}); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over store: err = %v, want ErrExists", err)
	}
	// Overwrite replaces the old store in place.
	d := exactDataset(t, 3, 5)
	if err := WriteDataset(dir, d, Options{Shards: 2, Overwrite: true}); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Manifest().Users != 3 || s.Manifest().Shards != 2 {
		t.Fatalf("overwritten manifest = %+v", s.Manifest())
	}
	// The shard-count change must not leave stale segment files behind:
	// what is on disk is exactly what the new manifest committed.
	want := make(map[string]bool)
	for _, si := range s.Manifest().Segments {
		want[si.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !isSegmentFileName(e.Name()) {
			continue
		}
		if !want[e.Name()] {
			t.Fatalf("stale segment file %s after overwrite (manifest has %v)", e.Name(), s.Manifest().Segments)
		}
		delete(want, e.Name())
	}
	if len(want) != 0 {
		t.Fatalf("committed segment files missing on disk: %v", want)
	}
}

// TestDuplicateTimestampsCollapse pins that data whose timestamps
// collide on the on-disk microsecond (raw PLT dumps, quantization)
// still produces a loadable store: the first observation of each
// colliding run wins, within a block and across appended fragments.
func TestDuplicateTimestampsCollapse(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dupts.mstore")
	w, err := Create(dir, Options{Shards: 1, BlockPoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2025, 4, 1, 12, 0, 0, 0, time.UTC)
	// Same microsecond within one append, and again in a later
	// fragment (separate block).
	if err := w.Append("u", trace.P(1, 1, ts), trace.P(2, 2, ts), trace.P(3, 3, ts.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("u", trace.P(9, 9, ts)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.Load(context.Background())
	if err != nil {
		t.Fatalf("Load with duplicate timestamps: %v", err)
	}
	tr := d.ByUser("u")
	if tr == nil || tr.Len() != 2 {
		t.Fatalf("loaded %v, want 2 deduped points", tr)
	}
	if tr.Points[0].Lat != 1 {
		t.Errorf("first-wins violated: kept lat %v", tr.Points[0].Lat)
	}
}

// TestWriterFlushBoundsBuffers pins the streaming-sink memory bound:
// Flush writes out sub-block buffers mid-stream, and appending after a
// Flush still loads back as one merged trace.
func TestWriterFlushBoundsBuffers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flush.mstore")
	w, err := Create(dir, Options{Shards: 2, BlockPoints: 1000})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2025, 7, 1, 0, 0, 0, 0, time.UTC)
	if err := w.Append("u", trace.P(1, 1, base), trace.P(2, 2, base.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(w.bufs) != 0 {
		t.Fatalf("buffers not drained after Flush: %d users pending", len(w.bufs))
	}
	if err := w.Append("u", trace.P(3, 3, base.Add(2*time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr := d.ByUser("u"); tr == nil || tr.Len() != 3 {
		t.Fatalf("loaded %v, want 3-point u", d.ByUser("u"))
	}
}

// TestOpenRejectsOutOfRangeBlock pins the footer bounds check against
// uint64 overflow: a corrupt entry whose length wraps offset+length
// must surface as ErrCorrupt, not a makeslice panic.
func TestOpenRejectsOutOfRangeBlock(t *testing.T) {
	block, st := appendBlock(nil, "u", []trace.Point{trace.P(1, 2, time.Unix(0, 0))})
	for _, e := range []blockEntry{
		{offset: uint64(len(magicHeader)), length: ^uint64(0) - uint64(len(magicHeader)) + 1, blockStats: st},
		{offset: ^uint64(0) - 2, length: 8, blockStats: st},
		{offset: 0, length: uint64(len(block)), blockStats: st},
	} {
		data := []byte(magicHeader)
		data = append(data, block...)
		footer := appendFooter(nil, []blockEntry{e})
		data = append(data, footer...)
		var trailer [16]byte
		binary.LittleEndian.PutUint64(trailer[:8], uint64(len(footer)))
		copy(trailer[8:], magicTrailer)
		data = append(data, trailer[:]...)
		path := filepath.Join(t.TempDir(), "seg.blk")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openSegment(path, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("entry %+v: err = %v, want ErrCorrupt", e, err)
		}
	}
}

func TestWriterClosed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c.mstore")
	w, err := Create(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := w.Append("u", trace.P(0, 0, time.Unix(0, 0))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: err = %v, want ErrClosed", err)
	}
}

// corrupt flips one byte inside the first non-empty segment's block
// region and reports which file it touched.
func corruptSegment(t *testing.T, s *Store, dir string) string {
	t.Helper()
	for _, si := range s.Manifest().Segments {
		if si.Blocks == 0 {
			continue
		}
		path := filepath.Join(dir, si.File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(magicHeader)+2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return si.File
	}
	t.Fatal("no non-empty segment to corrupt")
	return ""
}

func TestCorruptBlockDetected(t *testing.T) {
	d := exactDataset(t, 4, 8)
	dir := filepath.Join(t.TempDir(), "bad.mstore")
	if err := WriteDataset(dir, d, Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	corruptSegment(t, s, dir)
	s.Close()
	s, err = Open(dir) // footers are intact, Open succeeds
	if err != nil {
		t.Fatalf("Open after block corruption: %v", err)
	}
	defer s.Close()
	err = s.Scan(context.Background(), ScanOptions{}, func(string, []trace.Point) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over corrupt block: err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedFooterDetected(t *testing.T) {
	d := exactDataset(t, 4, 8)
	dir := filepath.Join(t.TempDir(), "trunc.mstore")
	if err := WriteDataset(dir, d, Options{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, partName(0, 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 16, len(data) / 2} {
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with %d bytes truncated: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestOpenRejectsBadManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m.mstore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"format":"tar"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with wrong format: err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"format":"mstore","version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with future version: err = %v, want version error", err)
	}
}

// TestShardAssignment pins that a user's blocks live only in its hash
// shard, the property pruned per-user scans rely on.
func TestShardAssignment(t *testing.T) {
	d := exactDataset(t, 20, 4)
	s := buildStore(t, d, Options{Shards: 4, BlockPoints: 2})
	for i, seg := range s.segs {
		for _, e := range seg.entries {
			if got := shardOf(e.user, 4); got != i {
				t.Errorf("user %q block in segment %d, hash says %d", e.user, i, got)
			}
		}
	}
}
