package traceio

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/trace"
)

func gzipped(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gzTestDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	base := time.Date(2025, 2, 3, 4, 5, 6, 0, time.UTC)
	return trace.MustNewDataset([]*trace.Trace{
		trace.MustNew("a", []trace.Point{
			trace.P(48.85, 2.35, base),
			trace.P(48.86, 2.36, base.Add(time.Minute)),
		}),
		trace.MustNew("b", []trace.Point{trace.P(-33.9, 151.2, base.Add(time.Hour))}),
	})
}

func TestReadCSVGzip(t *testing.T) {
	d := gzTestDataset(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(gzipped(t, buf.Bytes())))
	if err != nil {
		t.Fatalf("ReadCSV(gzip): %v", err)
	}
	if got.Len() != d.Len() || got.TotalPoints() != d.TotalPoints() {
		t.Fatalf("got %v, want %v", got, d)
	}
	// Plain input still works through the same sniffing path.
	if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadCSV(plain): %v", err)
	}
}

func TestReadJSONLGzip(t *testing.T) {
	d := gzTestDataset(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(gzipped(t, buf.Bytes())))
	if err != nil {
		t.Fatalf("ReadJSONL(gzip): %v", err)
	}
	if got.TotalPoints() != d.TotalPoints() {
		t.Fatalf("got %v, want %v", got, d)
	}
}

func TestReadPLTGzip(t *testing.T) {
	plt := strings.Join([]string{
		"Geolife trajectory", "WGS 84", "Altitude is in Feet", "Reserved 3",
		"0,2,255,My Track,0,0,2,8421376", "0",
		"39.906631,116.385564,0,492,39745.1,2008-10-24,02:09:59",
		"39.906702,116.385600,0,492,39745.1,2008-10-24,02:10:29",
	}, "\r\n")
	tr, err := ReadPLT(bytes.NewReader(gzipped(t, []byte(plt))), "u17")
	if err != nil {
		t.Fatalf("ReadPLT(gzip): %v", err)
	}
	if tr.Len() != 2 || tr.User != "u17" {
		t.Fatalf("got %v, want 2-point u17", tr)
	}
}

func TestGzipEmptyAndShortInput(t *testing.T) {
	// Sub-2-byte inputs must not error in the sniffer itself.
	if d, err := ReadCSV(bytes.NewReader(nil)); err != nil || d.Len() != 0 {
		t.Fatalf("empty input: d=%v err=%v", d, err)
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("x"))); err == nil {
		t.Fatal("1-byte garbage: want a CSV error, got nil")
	}
}

func TestReadFileRouting(t *testing.T) {
	d := gzTestDataset(t)
	dir := t.TempDir()

	var csvBuf, jsonlBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonlBuf, d); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"d.csv":       csvBuf.Bytes(),
		"d.csv.gz":    gzipped(t, csvBuf.Bytes()),
		"d.jsonl":     jsonlBuf.Bytes(),
		"d.jsonl.gz":  gzipped(t, jsonlBuf.Bytes()),
		"sneaky.csv":  gzipped(t, csvBuf.Bytes()), // gz content, no .gz suffix
		"untyped.dat": csvBuf.Bytes(),
	}
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		if got.TotalPoints() != d.TotalPoints() {
			t.Errorf("ReadFile(%s) = %v, want %d points", name, got, d.TotalPoints())
		}
	}

	// DecodeFile streams the same records.
	n := 0
	if err := DecodeFile(filepath.Join(dir, "d.csv.gz"), func(string, trace.Point) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != d.TotalPoints() {
		t.Errorf("DecodeFile yielded %d records, want %d", n, d.TotalPoints())
	}
}
