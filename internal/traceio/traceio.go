// Package traceio reads and writes mobility datasets in the formats used
// by the tools and examples:
//
//   - CSV: one observation per row — user,timestamp,lat,lng — with an
//     optional header. Timestamps are RFC 3339 or Unix seconds.
//   - JSONL: one JSON object per line {"user":..,"t":..,"lat":..,"lng":..}.
//   - GeoJSON: write-only export of traces as a FeatureCollection of
//     LineStrings for visual inspection in any GIS viewer.
//
// All readers validate the resulting dataset (sorted times, coordinate
// ranges, unique users) before returning it.
//
// Every reader and streaming decoder transparently decompresses
// gzip-compressed input, detected by the gzip magic bytes rather than
// the file name, so raw ".csv.gz"/".plt.gz" dumps feed straight in.
//
// Each text format also has a record-at-a-time streaming decoder
// (DecodeCSV, DecodeJSONL, DecodePLT) that invokes a callback per
// observation instead of materializing the dataset, so serving systems
// (cmd/mobiserve) and replay tools can process inputs larger than
// memory; the batch readers are thin accumulators over them.
//
// DecodeJSONL, the live ingest decoder, parses the canonical record line
// the writers emit by hand, without reflection, and hands the input from
// the first line of any other shape on to encoding/json. Either way it
// returns exactly the records and errors of a plain encoding/json decode
// loop; the shape of the input only decides the speed.
package traceio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mobipriv/internal/trace"
)

// maybeGunzip sniffs r for the gzip magic bytes and, when present,
// returns a decompressing reader; otherwise it returns the (buffered)
// input unchanged. Sniffing content instead of file names lets every
// decoder accept ".gz" dumps and compressed HTTP bodies alike.
func maybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil || len(magic) < 2 || magic[0] != 0x1f || magic[1] != 0x8b {
		// Short or unreadable input is handed through: the decoder
		// produces its own (better-contextualized) EOF or parse error.
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("traceio: gzip: %w", err)
	}
	return zr, nil
}

// ErrBadRecord reports a malformed input row; it is wrapped with line
// context.
var ErrBadRecord = errors.New("traceio: bad record")

// ErrStop, returned by a Decode* callback, stops decoding early without
// error — the streaming analogue of breaking out of a loop.
var ErrStop = errors.New("traceio: stop decoding")

// RecordFunc receives one observation at a time from the streaming
// decoders. Returning ErrStop ends decoding successfully; any other
// error aborts it.
type RecordFunc func(user string, p trace.Point) error

// csvHeader is the canonical header written by WriteCSV.
var csvHeader = []string{"user", "time", "lat", "lng"}

// WriteCSV writes the dataset as CSV with a header, one observation per
// row in user order, RFC 3339 timestamps.
func WriteCSV(w io.Writer, d *trace.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for _, tr := range d.Traces() {
		for _, p := range tr.Points {
			rec := []string{
				tr.User,
				p.Time.UTC().Format(time.RFC3339Nano),
				strconv.FormatFloat(p.Lat, 'f', -1, 64),
				strconv.FormatFloat(p.Lng, 'f', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("write record: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// DecodeCSV reads CSV record-at-a-time, invoking fn for every
// observation in file order without materializing the dataset — the
// entry point for replaying or ingesting files larger than memory. A
// header row (exactly the canonical column names) is skipped.
func DecodeCSV(r io.Reader, fn RecordFunc) error {
	r, err := maybeGunzip(r)
	if err != nil {
		return err
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	line := 0
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("read csv: %w", err)
		}
		line++
		if line == 1 && isHeader(rec) {
			continue
		}
		user := rec[0]
		ts, err := parseTime(rec[1])
		if err != nil {
			return fmt.Errorf("%w: line %d: %v", ErrBadRecord, line, err)
		}
		lat, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return fmt.Errorf("%w: line %d: lat: %v", ErrBadRecord, line, err)
		}
		lng, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return fmt.Errorf("%w: line %d: lng: %v", ErrBadRecord, line, err)
		}
		if err := fn(user, trace.P(lat, lng, ts)); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
}

// ReadCSV parses a dataset from CSV, batching the streaming decoder's
// records. Rows may appear in any order; observations are grouped by
// user and time-sorted.
func ReadCSV(r io.Reader) (*trace.Dataset, error) {
	byUser := make(map[string][]trace.Point)
	if err := DecodeCSV(r, func(user string, p trace.Point) error {
		byUser[user] = append(byUser[user], p)
		return nil
	}); err != nil {
		return nil, err
	}
	return buildDataset(byUser)
}

func isHeader(rec []string) bool {
	if len(rec) != len(csvHeader) {
		return false
	}
	for i, h := range csvHeader {
		if rec[i] != h {
			return false
		}
	}
	return true
}

// parseTime accepts RFC 3339 or Unix seconds, limited to instants whose
// UTC year is 0000..9999: the writers emit UTC RFC 3339, which cannot
// spell any other year, so anything else would not read back.
func parseTime(s string) (time.Time, error) {
	ts, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		secs, serr := strconv.ParseInt(s, 10, 64)
		if serr != nil {
			return time.Time{}, fmt.Errorf("unparseable time %q", s)
		}
		ts = time.Unix(secs, 0).UTC()
	}
	if ts.Before(minRFC3339) || ts.After(maxRFC3339) {
		return time.Time{}, fmt.Errorf("time %q outside years 0000-9999 UTC", s)
	}
	return ts, nil
}

// minRFC3339 and maxRFC3339 bound the instants UTC RFC 3339 can spell.
var (
	minRFC3339 = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)
	maxRFC3339 = time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)
)

func buildDataset(byUser map[string][]trace.Point) (*trace.Dataset, error) {
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	traces := make([]*trace.Trace, 0, len(users))
	for _, u := range users {
		tr, err := trace.New(u, byUser[u])
		if err != nil {
			return nil, fmt.Errorf("user %q: %w", u, err)
		}
		traces = append(traces, tr)
	}
	return trace.NewDataset(traces)
}

// jsonlRecord is the wire format of one JSONL observation.
type jsonlRecord struct {
	User string    `json:"user"`
	Time time.Time `json:"t"`
	Lat  float64   `json:"lat"`
	Lng  float64   `json:"lng"`
}

// WriteJSONL writes one JSON object per observation.
func WriteJSONL(w io.Writer, d *trace.Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, tr := range d.Traces() {
		for _, p := range tr.Points {
			rec := jsonlRecord{User: tr.User, Time: p.Time.UTC(), Lat: p.Lat, Lng: p.Lng}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("encode jsonl: %w", err)
			}
		}
	}
	return bw.Flush()
}

// DecodeJSONL reads JSONL record-at-a-time, invoking fn for every
// observation in file order without materializing the dataset.
//
// Input is read line by line. A line in the canonical shape that
// WriteJSONLRecord emits,
//
//	{"user":"…","t":"YYYY-MM-DDTHH:MM:SS[.fffffffff]Z","lat":<num>,"lng":<num>}
//
// with the keys in that order, a printable-ASCII user without escapes
// and JSON-grammar numbers, is parsed by hand. The first line outside
// that shape (including one longer than the read buffer) and all input
// after it go to an encoding/json decoder, with the record count carried
// over. Every input therefore yields exactly what a plain json.Decoder
// loop yields: the same records, float bits and time.Time values, the
// same records delivered before an error, and the same error text. The
// hand parser only changes the speed. (After a read error this assumes
// the reader keeps returning the error, as gzip, file and HTTP body
// readers do.)
func DecodeJSONL(r io.Reader, fn RecordFunc) error {
	r, err := maybeGunzip(r)
	if err != nil {
		return err
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	n := 0
	for {
		line, rerr := br.ReadSlice('\n')
		if rerr != nil && rerr != io.EOF {
			// A line longer than the buffer, or a read error, which the
			// reader reports again when the fallback reads on. line
			// aliases br's buffer; MultiReader drains it before it
			// reads br again.
			return decodeJSONLStd(io.MultiReader(bytes.NewReader(line), br), n, fn)
		}
		body := bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		if len(body) > 0 {
			user, p, ok := parseJSONLRecord(body)
			if !ok {
				return decodeJSONLStd(io.MultiReader(bytes.NewReader(line), br), n, fn)
			}
			n++
			if err := fn(user, p); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
	}
}

// decodeJSONLStd is the encoding/json decode loop: DecodeJSONL's
// fallback from the first non-canonical line on, and the reference its
// hand parser is tested against. n is the number of records already
// delivered, so error text counts records across both paths.
func decodeJSONLStd(r io.Reader, n int, fn RecordFunc) error {
	dec := json.NewDecoder(r)
	for {
		var rec jsonlRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("%w: line %d: %v", ErrBadRecord, n+1, err)
		}
		n++
		if err := fn(rec.User, trace.P(rec.Lat, rec.Lng, rec.Time)); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
}

// parseJSONLRecord parses one canonical JSONL line (without its line
// ending). ok is false for anything else, valid JSON or not. Each step
// fails safely on input an earlier step already rejected.
func parseJSONLRecord(b []byte) (user string, p trace.Point, ok bool) {
	u, b, ok1 := cutQuoted(b, `{"user":"`)
	t, b, ok2 := cutQuoted(b, `,"t":"`)
	ts, ok3 := parseJSONLTime(t)
	lat, b, ok4 := cutNumber(b, `,"lat":`)
	lng, b, ok5 := cutNumber(b, `,"lng":`)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) || string(b) != "}" || !plainASCII(u) {
		return "", p, false
	}
	return string(u), trace.P(lat, lng, ts), true
}

// cutQuoted cuts prefix, which ends in an opening quote, and the string
// up to the next quote from b, returning that string and the bytes after
// its closing quote.
func cutQuoted(b []byte, prefix string) (s, rest []byte, ok bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, nil, false
	}
	b = b[len(prefix):]
	i := bytes.IndexByte(b, '"')
	if i < 0 {
		return nil, nil, false
	}
	return b[:i], b[i+1:], true
}

// cutNumber cuts prefix and the JSON number after it from b.
func cutNumber(b []byte, prefix string) (float64, []byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return 0, nil, false
	}
	return parseJSONNumber(b[len(prefix):])
}

// plainASCII reports whether b is printable ASCII without a backslash,
// a JSON string body that decodes to itself.
func plainASCII(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	return true
}

// parseJSONNumber parses the JSON number at the start of b and returns
// the bytes after it. It accepts only the JSON number grammar and only
// values strconv.ParseFloat parses without error, the two conditions
// under which encoding/json decodes a float64 from it.
func parseJSONNumber(b []byte) (float64, []byte, bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, b, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, b, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0, b, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		return 0, b, false
	}
	return v, b[i:], true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseJSONLTime parses YYYY-MM-DDTHH:MM:SS[.f{1,9}]Z with the range
// checks time.Time.UnmarshalJSON applies, building the same UTC value.
// ok is false for any other form; the reference decoder then decides.
func parseJSONLTime(s []byte) (time.Time, bool) {
	const fixed = len("2006-01-02T15:04:05")
	if len(s) < fixed+1 || s[len(s)-1] != 'Z' ||
		s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' {
		return time.Time{}, false
	}
	year, ok1 := atoiFixed(s[0:4])
	month, ok2 := atoiFixed(s[5:7])
	day, ok3 := atoiFixed(s[8:10])
	hour, ok4 := atoiFixed(s[11:13])
	minute, ok5 := atoiFixed(s[14:16])
	sec, ok6 := atoiFixed(s[17:19])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) ||
		month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	nsec := 0
	if frac := s[fixed : len(s)-1]; len(frac) > 0 {
		digits := len(frac) - 1
		if frac[0] != '.' || digits < 1 || digits > 9 {
			return time.Time{}, false
		}
		v, ok := atoiFixed(frac[1:])
		if !ok {
			return time.Time{}, false
		}
		for ; digits < 9; digits++ {
			v *= 10
		}
		nsec = v
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), true
}

// atoiFixed parses an all-digit field.
func atoiFixed(b []byte) (int, bool) {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// daysIn is the length of month in year (proleptic Gregorian).
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// ReadJSONL parses a dataset from JSONL input, batching the streaming
// decoder's records.
func ReadJSONL(r io.Reader) (*trace.Dataset, error) {
	byUser := make(map[string][]trace.Point)
	if err := DecodeJSONL(r, func(user string, p trace.Point) error {
		byUser[user] = append(byUser[user], p)
		return nil
	}); err != nil {
		return nil, err
	}
	return buildDataset(byUser)
}

// WriteJSONLRecord writes one observation as a single JSONL line — the
// streaming counterpart of WriteJSONL, used by serving sinks.
func WriteJSONLRecord(w io.Writer, user string, p trace.Point) error {
	rec := jsonlRecord{User: user, Time: p.Time.UTC(), Lat: p.Lat, Lng: p.Lng}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode jsonl: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return err
	}
	return nil
}

// ReadFile reads a dataset file, routing on the extension after
// stripping a trailing ".gz": ".jsonl" -> ReadJSONL, ".plt" -> ReadPLT
// (the user is the file's base name), anything else -> ReadCSV.
// Compression is detected from the content, so a gzipped file without
// the ".gz" suffix also works.
func ReadFile(path string) (*trace.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer f.Close()
	name := strings.TrimSuffix(path, ".gz")
	switch filepath.Ext(name) {
	case ".jsonl":
		return ReadJSONL(f)
	case ".plt":
		user := strings.TrimSuffix(filepath.Base(name), ".plt")
		tr, err := ReadPLT(f, user)
		if err != nil {
			return nil, err
		}
		return trace.NewDataset([]*trace.Trace{tr})
	default:
		return ReadCSV(f)
	}
}

// DecodeFile streams a dataset file record-at-a-time with the same
// routing as ReadFile.
func DecodeFile(path string, fn RecordFunc) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer f.Close()
	name := strings.TrimSuffix(path, ".gz")
	switch filepath.Ext(name) {
	case ".jsonl":
		return DecodeJSONL(f, fn)
	case ".plt":
		return DecodePLT(f, strings.TrimSuffix(filepath.Base(name), ".plt"), fn)
	default:
		return DecodeCSV(f, fn)
	}
}

// geojson types cover the tiny subset needed for LineString export.
type geojsonFeatureCollection struct {
	Type     string           `json:"type"`
	Features []geojsonFeature `json:"features"`
}

type geojsonFeature struct {
	Type       string          `json:"type"`
	Properties map[string]any  `json:"properties"`
	Geometry   geojsonGeometry `json:"geometry"`
}

type geojsonGeometry struct {
	Type        string       `json:"type"`
	Coordinates [][2]float64 `json:"coordinates"` // [lng, lat] per GeoJSON spec
}

// WriteGeoJSON exports every trace as a LineString feature tagged with
// the user identifier, point count and duration in seconds. Single-point
// traces are emitted as degenerate two-vertex lines so that viewers
// render them.
func WriteGeoJSON(w io.Writer, d *trace.Dataset) error {
	fc := geojsonFeatureCollection{Type: "FeatureCollection"}
	for _, tr := range d.Traces() {
		coords := make([][2]float64, 0, tr.Len())
		for _, p := range tr.Points {
			coords = append(coords, [2]float64{p.Lng, p.Lat})
		}
		if len(coords) == 1 {
			coords = append(coords, coords[0])
		}
		fc.Features = append(fc.Features, geojsonFeature{
			Type: "Feature",
			Properties: map[string]any{
				"user":       tr.User,
				"points":     tr.Len(),
				"durationS":  tr.Duration().Seconds(),
				"lengthM":    tr.Length(),
				"avgSpeedMS": tr.AverageSpeed(),
			},
			Geometry: geojsonGeometry{Type: "LineString", Coordinates: coords},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fc); err != nil {
		return fmt.Errorf("encode geojson: %w", err)
	}
	return nil
}
