package traceio

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/trace"
)

// TestDecodeCSVStreamsRecords checks the record-at-a-time decoder sees
// every observation in file order and that the batch reader built on
// top of it still produces the same dataset.
func TestDecodeCSVStreamsRecords(t *testing.T) {
	d := sample(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	var users []string
	var count int
	if err := DecodeCSV(bytes.NewReader(buf.Bytes()), func(user string, p trace.Point) error {
		users = append(users, user)
		count++
		if err := p.Point.Validate(); err != nil {
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != d.TotalPoints() {
		t.Fatalf("decoded %d records, want %d", count, d.TotalPoints())
	}
	// WriteCSV emits in user order: alice's rows before bob's.
	if users[0] != "alice" || users[count-1] != "bob" {
		t.Errorf("record order %v", users)
	}
}

func TestDecodeJSONLEarlyStop(t *testing.T) {
	d := sample(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, d); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := DecodeJSONL(&buf, func(user string, p trace.Point) error {
		count++
		if count == 3 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatalf("ErrStop surfaced as error: %v", err)
	}
	if count != 3 {
		t.Fatalf("decoded %d records after ErrStop, want 3", count)
	}
}

func TestDecodeCSVCallbackError(t *testing.T) {
	boom := errors.New("boom")
	err := DecodeCSV(strings.NewReader("alice,1435651200,45.76,4.83\n"), func(string, trace.Point) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want callback error", err)
	}
}

func TestDecodeCSVBadRecord(t *testing.T) {
	err := DecodeCSV(strings.NewReader("alice,notatime,45.76,4.83\n"), func(string, trace.Point) error {
		return nil
	})
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", err)
	}
}

func TestDecodePLTStreamsRecords(t *testing.T) {
	const plt = `Geolife trajectory
WGS 84
Altitude is in Feet
Reserved 3
0,2,255,My Track,0,0,2,8421376
0
39.906631,116.385564,0,492,39745.09,2008-10-24,02:09:59
39.906632,116.385565,0,492,39745.10,2008-10-24,02:10:29
39.906633,116.385566,0,492,39745.11,2008-10-24,02:10:59
`
	var pts []trace.Point
	if err := DecodePLT(strings.NewReader(plt), "007", func(user string, p trace.Point) error {
		if user != "007" {
			t.Fatalf("user = %q", user)
		}
		pts = append(pts, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("decoded %d records, want 3", len(pts))
	}
	// The batch reader over the same decoder agrees.
	tr, err := ReadPLT(strings.NewReader(plt), "007")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || !tr.Start().Point.Equal(pts[0].Point) {
		t.Fatalf("ReadPLT = %v", tr)
	}
}

func TestWriteJSONLRecordRoundTrip(t *testing.T) {
	d := sample(t)
	var buf bytes.Buffer
	for _, tr := range d.Traces() {
		for _, p := range tr.Points {
			if err := WriteJSONLRecord(&buf, tr.User, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

// FuzzDecodeCSV feeds arbitrary bytes to the CSV readers. They must
// never panic, and any input ReadCSV accepts must round-trip through
// WriteCSV and ReadCSV to the same users, point counts and instants.
func FuzzDecodeCSV(f *testing.F) {
	var buf bytes.Buffer
	d := trace.MustNewDataset([]*trace.Trace{
		trace.MustNew("alice", []trace.Point{trace.P(45.76, 4.83, t0), trace.P(45.77, 4.84, t0.Add(time.Second))}),
		trace.MustNew("b,ob", []trace.Point{trace.P(-33.9, 151.2, t0.Add(123456789))}),
	})
	if err := WriteCSV(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(gzipped(f, buf.Bytes()))
	f.Add([]byte("alice,1435651200,45.76,4.83\nalice,1435651260,-0,1e-7\n"))
	f.Add([]byte("\" a\",2015-06-30T10:00:00.5+02:00,1,2\r\n"))
	f.Add([]byte("u,notatime,1,2\n"))
	f.Add([]byte("u,1,NaN,2\n"))
	// Instants whose UTC year has no four-digit RFC 3339 spelling.
	f.Add([]byte("u,0000-01-01T00:00:00+01:00,1,2\n"))
	f.Add([]byte("u,9999-12-31T23:00:00-02:00,1,2\n"))
	f.Add([]byte("u,999999999999,1,2\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		_ = DecodeCSV(bytes.NewReader(in), func(string, trace.Point) error { return nil })
		d, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, d); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("accepted input does not round-trip: %v\n%s", err, out.Bytes())
		}
		if !slices.Equal(back.Users(), d.Users()) {
			t.Fatalf("users %q, want %q", back.Users(), d.Users())
		}
		for _, tr := range d.Traces() {
			got := back.ByUser(tr.User)
			if got.Len() != tr.Len() {
				t.Fatalf("user %q: %d points, want %d", tr.User, got.Len(), tr.Len())
			}
			for i, p := range tr.Points {
				if !got.Points[i].Time.Equal(p.Time) {
					t.Fatalf("user %q point %d: time %v, want %v", tr.User, i, got.Points[i].Time, p.Time)
				}
			}
		}
	})
}
