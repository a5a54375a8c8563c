package traceio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"mobipriv/internal/trace"
)

// decodeJSONLRef is the pure encoding/json decoder DecodeJSONL must
// match on every input.
func decodeJSONLRef(r io.Reader, fn RecordFunc) error {
	r, err := maybeGunzip(r)
	if err != nil {
		return err
	}
	return decodeJSONLStd(r, 0, fn)
}

// jsonlRec is one decoded record in a form == compares exactly: the
// time.Time with its location, the coordinates by their bits.
type jsonlRec struct {
	user     string
	t        time.Time
	lat, lng uint64
}

// collectJSONL decodes in with dec, stopping with ErrStop after stop
// records when stop > 0, and returns the records and the error text.
func collectJSONL(dec func(io.Reader, RecordFunc) error, r io.Reader, stop int) ([]jsonlRec, string) {
	var recs []jsonlRec
	err := dec(r, func(user string, p trace.Point) error {
		recs = append(recs, jsonlRec{user, p.Time, math.Float64bits(p.Lat), math.Float64bits(p.Lng)})
		if len(recs) == stop {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		return recs, err.Error()
	}
	return recs, ""
}

// canonicalJSONL returns n records as WriteJSONLRecord writes them.
func canonicalJSONL(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	base := time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		p := trace.P(45.76+float64(i)*1e-4, 4.83-float64(i)*3e-5, base.Add(time.Duration(i)*1500*time.Millisecond))
		if err := WriteJSONLRecord(&buf, fmt.Sprintf("user%03d", i%7), p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// degreeJSONL returns n records with seven-decimal degrees and
// nanosecond timestamps, the shape load generators emit.
func degreeJSONL(n int) []byte {
	var b []byte
	base := time.Date(2024, 2, 29, 23, 59, 0, 123456789, time.UTC)
	for i := 0; i < n; i++ {
		b = append(b, `{"user":`...)
		b = strconv.AppendQuote(b, fmt.Sprintf("u%d", i%16))
		b = append(b, `,"t":"`...)
		b = base.Add(time.Duration(i)*time.Second).AppendFormat(b, time.RFC3339Nano)
		b = append(b, `","lat":`...)
		b = strconv.AppendFloat(b, -33.9+float64(i)*1e-5, 'f', 7, 64)
		b = append(b, `,"lng":`...)
		b = strconv.AppendFloat(b, 151.2+float64(i)*1e-5, 'f', 7, 64)
		b = append(b, "}\n"...)
	}
	return b
}

const canonLine = `{"user":"x","t":"2015-06-30T08:00:00Z","lat":45.1,"lng":4.2}` + "\n"

// jsonlDeviations are lines outside (or at the edge of) the canonical
// shape. bad marks those the reference rejects.
var jsonlDeviations = []struct {
	name string
	line string
	bad  bool
}{
	{"escaped-user", `{"user":"a\u0062\/c","t":"2015-06-30T08:00:00Z","lat":1,"lng":2}` + "\n", false},
	{"escaped-quote", `{"user":"ab\"c","t":"2015-06-30T08:00:00Z","lat":1,"lng":2}` + "\n", false},
	{"non-ascii-user", `{"user":"zoë","t":"2015-06-30T08:00:00Z","lat":1,"lng":2}` + "\n", false},
	{"invalid-utf8-user", "{\"user\":\"a\xffb\",\"t\":\"2015-06-30T08:00:00Z\",\"lat\":1,\"lng\":2}\n", false},
	{"feb-29-leap-century", `{"user":"a","t":"2000-02-29T08:00:00Z","lat":1,"lng":2}` + "\n", false},
	{"key-case", `{"User":"a","t":"2015-06-30T08:00:00Z","lat":1,"lng":2}` + "\n", false},
	{"duplicate-key", `{"user":"a","t":"2015-06-30T08:00:00Z","lat":1,"lng":2,"lat":3}` + "\n", false},
	{"null", `{"user":"a","t":null,"lat":null,"lng":2}` + "\n", false},
	{"reordered", `{"lat":1,"lng":2,"t":"2015-06-30T08:00:00Z","user":"a"}` + "\n", false},
	{"offset", `{"user":"a","t":"2015-06-30T10:00:00+02:00","lat":1,"lng":2}` + "\n", false},
	{"spaces", `{"user": "a", "t": "2015-06-30T08:00:00Z", "lat": 1, "lng": 2}` + "\n", false},
	{"fraction-10", `{"user":"a","t":"2015-06-30T08:00:00.1234567891Z","lat":1,"lng":2}` + "\n", false},
	{"minus-zero", `{"user":"a","t":"2015-06-30T08:00:00Z","lat":-0,"lng":-0.0}` + "\n", false},
	{"exponent", `{"user":"a","t":"2015-06-30T08:00:00.5Z","lat":1E-7,"lng":-2.5e+1}` + "\n", false},
	{"crlf", `{"user":"a","t":"2015-06-30T08:00:00Z","lat":1,"lng":2}` + "\r\n", false},
	{"blank-lines", "\n\r\n\n", false},
	{"whitespace-line", " \t \n", false},
	{"two-per-line", strings.TrimSuffix(canonLine, "\n") + " " + canonLine, false},
	{"multi-line", "{\n\"user\":\"a\",\n\"t\":\"2015-06-30T08:00:00Z\",\n\"lat\":1,\"lng\":2\n}\n", false},
	{"long-line", `{"user":"` + strings.Repeat("u", 5000) + `","t":"2015-06-30T08:00:00Z","lat":1,"lng":2}` + "\n", false},
	{"hour-24", `{"user":"a","t":"2015-06-30T24:00:00Z","lat":1,"lng":2}` + "\n", true},
	{"feb-29", `{"user":"a","t":"2015-02-29T08:00:00Z","lat":1,"lng":2}` + "\n", true},
	{"feb-29-century", `{"user":"a","t":"1900-02-29T08:00:00Z","lat":1,"lng":2}` + "\n", true},
	{"overflow", `{"user":"a","t":"2015-06-30T08:00:00Z","lat":1e400,"lng":2}` + "\n", true},
	{"leading-zero", `{"user":"a","t":"2015-06-30T08:00:00Z","lat":01,"lng":2}` + "\n", true},
	{"string-lat", `{"user":"a","t":"2015-06-30T08:00:00Z","lat":"1","lng":2}` + "\n", true},
	{"truncated", `{"user":"a","t":"2015-06-30T08:00:00Z","lat":1,` + "\n", true},
	{"garbage", "not json\n", true},
}

// TestDecodeJSONLFallback places each deviating line first, in the
// middle and last behind canonical records, plain and gzipped, and
// checks DecodeJSONL yields exactly the reference's records and error.
func TestDecodeJSONLFallback(t *testing.T) {
	canon := canonicalJSONL(t, 6)
	lines := strings.SplitAfter(string(canon), "\n")[:6]
	for _, dv := range jsonlDeviations {
		for _, k := range []int{0, 3, 6} {
			body := []byte(strings.Join(lines[:k], "") + dv.line + strings.Join(lines[k:], ""))
			for _, gz := range []bool{false, true} {
				in := body
				if gz {
					in = gzipped(t, body)
				}
				name := fmt.Sprintf("%s/at%d/gzip=%v", dv.name, k, gz)
				got, gotErr := collectJSONL(DecodeJSONL, bytes.NewReader(in), 0)
				want, wantErr := collectJSONL(decodeJSONLRef, bytes.NewReader(in), 0)
				if gotErr != wantErr {
					t.Errorf("%s: error %q, reference %q", name, gotErr, wantErr)
				}
				if !equalRecs(got, want) {
					t.Errorf("%s: records differ from the reference:\n got %v\nwant %v", name, got, want)
				}
				if !dv.bad {
					if wantErr != "" {
						t.Errorf("%s: reference rejected a valid body: %s", name, wantErr)
					}
					continue
				}
				err := DecodeJSONL(bytes.NewReader(in), func(string, trace.Point) error { return nil })
				if !errors.Is(err, ErrBadRecord) {
					t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
				}
				if len(got) != k {
					t.Errorf("%s: %d records delivered before the error, want %d", name, len(got), k)
				}
			}
		}
	}
}

// TestDecodeJSONLReadError checks a reader failing mid-stream, and a
// reader handing out one byte at a time, behave as the reference does.
func TestDecodeJSONLReadError(t *testing.T) {
	boom := errors.New("boom")
	canon := canonicalJSONL(t, 5)
	for cut := 0; cut <= len(canon); cut += 37 {
		mk := func() io.Reader {
			return io.MultiReader(bytes.NewReader(canon[:cut]), iotest.ErrReader(boom))
		}
		got, gotErr := collectJSONL(DecodeJSONL, mk(), 0)
		want, wantErr := collectJSONL(decodeJSONLRef, mk(), 0)
		if gotErr != wantErr || !equalRecs(got, want) {
			t.Errorf("cut %d: got %d records, %q; reference %d records, %q", cut, len(got), gotErr, len(want), wantErr)
		}
	}
	body := append(canonicalJSONL(t, 3), jsonlDeviations[0].line...)
	got, gotErr := collectJSONL(DecodeJSONL, iotest.OneByteReader(bytes.NewReader(body)), 0)
	want, wantErr := collectJSONL(decodeJSONLRef, bytes.NewReader(body), 0)
	if gotErr != wantErr || !equalRecs(got, want) {
		t.Errorf("one-byte reads: got %v, %q; reference %v, %q", got, gotErr, want, wantErr)
	}
}

func equalRecs(a, b []jsonlRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeJSONL differentially tests DecodeJSONL against the
// encoding/json reference: same records (user, time.Time by ==, float
// bits), same records before an error, same error text, same early
// stop after stop records.
func FuzzDecodeJSONL(f *testing.F) {
	f.Add(canonicalJSONL(f, 8), uint8(0))
	f.Add(degreeJSONL(8), uint8(3))
	f.Add(gzipped(f, canonicalJSONL(f, 4)), uint8(0))
	for _, dv := range jsonlDeviations {
		f.Add([]byte(canonLine+dv.line+canonLine), uint8(0))
	}
	f.Fuzz(func(t *testing.T, in []byte, stop uint8) {
		got, gotErr := collectJSONL(DecodeJSONL, bytes.NewReader(in), int(stop))
		want, wantErr := collectJSONL(decodeJSONLRef, bytes.NewReader(in), int(stop))
		if gotErr != wantErr {
			t.Fatalf("error %q, reference %q", gotErr, wantErr)
		}
		if !equalRecs(got, want) {
			t.Fatalf("records differ from the reference:\n got %v\nwant %v", got, want)
		}
	})
}

// BenchmarkDecodeJSONL decodes a 256-record body of load-generator
// records through the hand parser (fast) and the encoding/json loop
// (reference).
func BenchmarkDecodeJSONL(b *testing.B) {
	const n = 256
	body := degreeJSONL(n)
	for _, bc := range []struct {
		name string
		dec  func(io.Reader, RecordFunc) error
	}{{"fast", DecodeJSONL}, {"reference", decodeJSONLRef}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			count := 0
			fn := func(string, trace.Point) error { count++; return nil }
			for i := 0; i < b.N; i++ {
				if err := bc.dec(bytes.NewReader(body), fn); err != nil {
					b.Fatal(err)
				}
			}
			if count != n*b.N {
				b.Fatalf("decoded %d records, want %d", count, n*b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/point")
		})
	}
}

// TestParseJSONLRecordCanonical pins the fast path's reach: every line
// both producers write is parsed by hand, not left to the fallback.
func TestParseJSONLRecordCanonical(t *testing.T) {
	body := append(canonicalJSONL(t, 50), degreeJSONL(50)...)
	for _, dv := range jsonlDeviations {
		switch dv.name {
		case "minus-zero", "exponent", "crlf", "feb-29-leap-century":
			body = append(body, dv.line...)
		}
	}
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		if _, _, ok := parseJSONLRecord(line); !ok {
			t.Errorf("canonical line left to the fallback: %s", line)
		}
	}
}
