package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/poi"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

var (
	t0     = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

// stopGoTrace: 20 min stop at A, drive 3 km east, 20 min stop at B.
// Samples every 30 s.
func stopGoTrace() *trace.Trace {
	var pts []trace.Point
	now := t0
	a := origin
	b := geo.Destination(origin, 90, 3000)
	for i := 0; i < 40; i++ { // 20 min at A
		pts = append(pts, trace.Point{Point: geo.Offset(a, float64(i%2)*2, 0), Time: now})
		now = now.Add(30 * time.Second)
	}
	for d := 150.0; d < 3000; d += 150 { // drive at 5 m/s
		pts = append(pts, trace.Point{Point: geo.Destination(a, 90, d), Time: now})
		now = now.Add(30 * time.Second)
	}
	for i := 0; i < 40; i++ { // 20 min at B
		pts = append(pts, trace.Point{Point: geo.Offset(b, float64(i%2)*2, 0), Time: now})
		now = now.Add(30 * time.Second)
	}
	return trace.MustNew("u", pts)
}

func TestSmoothUniformSpacingAndTiming(t *testing.T) {
	tr := stopGoTrace()
	out, err := Smooth(tr, Config{Epsilon: 100, Trim: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.User != tr.User {
		t.Errorf("user changed: %q", out.User)
	}
	if out.Len() < 10 {
		t.Fatalf("too few output points: %d", out.Len())
	}
	// Uniform time steps.
	dt0 := out.Points[1].Time.Sub(out.Points[0].Time)
	for i := 2; i < out.Len(); i++ {
		dt := out.Points[i].Time.Sub(out.Points[i-1].Time)
		if diff := dt - dt0; diff > time.Millisecond || diff < -time.Millisecond {
			t.Fatalf("non-uniform time step at %d: %v vs %v", i, dt, dt0)
		}
	}
	// Uniform spacing (arc-length spacing exactly epsilon; chord distance
	// can only be <= epsilon, and on this near-straight path, close).
	for i := 1; i < out.Len(); i++ {
		d := geo.Distance(out.Points[i-1].Point, out.Points[i].Point)
		if d > 100.5 {
			t.Fatalf("gap %d = %v m > epsilon", i, d)
		}
		if d < 60 {
			t.Fatalf("gap %d = %v m, suspiciously small for this path", i, d)
		}
	}
	// Time window preserved.
	if !out.Start().Time.Equal(tr.Start().Time) || !out.End().Time.Equal(tr.End().Time) {
		t.Error("smoothing must preserve the observation time window when trim=0")
	}
}

func TestSmoothConstantSpeed(t *testing.T) {
	out, err := Smooth(stopGoTrace(), Config{Epsilon: 100, Trim: 0})
	if err != nil {
		t.Fatal(err)
	}
	speeds := out.Speeds()
	mean := 0.0
	for _, s := range speeds {
		mean += s
	}
	mean /= float64(len(speeds))
	for i, s := range speeds {
		if math.Abs(s-mean) > mean*0.05 {
			t.Fatalf("segment %d speed %v deviates from mean %v", i, s, mean)
		}
	}
}

func TestSmoothHidesPOIs(t *testing.T) {
	// The headline property: POI extraction finds the two stops on the
	// raw trace and nothing on the smoothed one.
	tr := stopGoTrace()
	cfg := poi.DefaultConfig()
	before, err := poi.Extract(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 {
		t.Fatalf("raw trace: %d POIs, want 2", len(before))
	}
	out, err := Smooth(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	after, err := poi.Extract(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Fatalf("smoothed trace: %d POIs, want 0", len(after))
	}
}

func TestSmoothStaysOnPath(t *testing.T) {
	tr := stopGoTrace()
	pl, err := tr.Polyline()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Smooth(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out.Points {
		if d := pl.DistanceTo(p.Point); d > 1 {
			t.Fatalf("output point %d is %v m off the original path", i, d)
		}
	}
}

func TestSmoothTrimHidesEndpoints(t *testing.T) {
	tr := stopGoTrace()
	out, err := Smooth(tr, Config{Epsilon: 100, Trim: 500})
	if err != nil {
		t.Fatal(err)
	}
	// No published point within 400 m of the original endpoints' path
	// positions (500 m path-trim minus curvature slack).
	for _, p := range out.Points {
		if d := geo.Distance(p.Point, tr.Start().Point); d < 400 {
			t.Fatalf("published point %v m from start endpoint", d)
		}
		if d := geo.Distance(p.Point, tr.End().Point); d < 400 {
			t.Fatalf("published point %v m from end endpoint", d)
		}
	}
}

func TestSmoothErrors(t *testing.T) {
	tr := stopGoTrace()
	if _, err := Smooth(tr, Config{Epsilon: 0}); err == nil {
		t.Error("Epsilon=0 accepted")
	}
	// Trace shorter than trim.
	short := trace.MustNew("s", []trace.Point{
		trace.P(45.764, 4.8357, t0),
		{Point: geo.Destination(origin, 90, 50), Time: t0.Add(time.Minute)},
	})
	_, err := Smooth(short, Config{Epsilon: 100, Trim: 100})
	if !errors.Is(err, ErrTraceTooShort) {
		t.Errorf("short trace error = %v, want ErrTraceTooShort", err)
	}
	// Invalid trace.
	bad := &trace.Trace{User: "", Points: nil}
	if _, err := Smooth(bad, DefaultConfig()); err == nil {
		t.Error("invalid trace accepted")
	}
	// Zero-duration trace: a single instant cannot be smoothed. Build a
	// 2-point trace 1ns apart spanning 200m (unrealistic but legal).
	inst := trace.MustNew("z", []trace.Point{
		{Point: origin, Time: t0},
		{Point: geo.Destination(origin, 90, 300), Time: t0.Add(time.Nanosecond)},
	})
	if _, err := Smooth(inst, Config{Epsilon: 100, Trim: 0}); err == nil {
		t.Error("near-zero duration trace accepted")
	}
}

func TestSmoothDefaultTrimIsEpsilon(t *testing.T) {
	tr := stopGoTrace()
	def, err := Smooth(tr, Config{Epsilon: 100, Trim: -1})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Smooth(tr, Config{Epsilon: 100, Trim: 100})
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != explicit.Len() {
		t.Fatalf("default trim != epsilon trim: %d vs %d points", def.Len(), explicit.Len())
	}
}

// smoothEach runs Smooth over every trace of d the way the mobipriv
// package maps it: traces rejected with ErrTraceTooShort or
// ErrZeroDuration are withheld and named in dropped, any other error
// fails.
func smoothEach(d *trace.Dataset, cfg Config) (out *trace.Dataset, dropped []string, err error) {
	var kept []*trace.Trace
	for _, tr := range d.Traces() {
		s, err := Smooth(tr, cfg)
		switch {
		case errors.Is(err, ErrTraceTooShort) || errors.Is(err, ErrZeroDuration):
			dropped = append(dropped, tr.User)
		case err != nil:
			return nil, nil, err
		default:
			kept = append(kept, s)
		}
	}
	out, err = trace.NewDataset(kept)
	return out, dropped, err
}

func TestSmoothDataset(t *testing.T) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 6
	cfg.Sampling = time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, dropped, err := smoothEach(g.Dataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len()+len(dropped) != g.Dataset.Len() {
		t.Fatalf("output %d + dropped %d != input %d", out.Len(), len(dropped), g.Dataset.Len())
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("smoothed dataset invalid: %v", err)
	}
	// The mechanism's invariants hold on every published trace: uniform
	// time steps, and uniform arc-length spacing epsilon — which bounds
	// every chord at epsilon, with chords shorter than epsilon only at
	// path turns. (POI-attack effectiveness on whole datasets is measured
	// by the attack-level integration tests.)
	const epsilon = 100.0
	for _, tr := range out.Traces() {
		if tr.Len() < 3 {
			continue
		}
		dt0 := tr.Points[1].Time.Sub(tr.Points[0].Time)
		nearEps := 0
		for i := 1; i < tr.Len(); i++ {
			if i >= 2 {
				dt := tr.Points[i].Time.Sub(tr.Points[i-1].Time)
				if diff := dt - dt0; diff > time.Millisecond || diff < -time.Millisecond {
					t.Fatalf("user %s: non-uniform time step at %d: %v vs %v", tr.User, i, dt, dt0)
				}
			}
			chord := geo.Distance(tr.Points[i-1].Point, tr.Points[i].Point)
			if chord > epsilon*1.01 {
				t.Fatalf("user %s: chord %d = %v m exceeds epsilon", tr.User, i, chord)
			}
			if chord > epsilon*0.8 {
				nearEps++
			}
		}
		if frac := float64(nearEps) / float64(tr.Len()-1); frac < 0.6 {
			t.Fatalf("user %s: only %.0f%% of chords near epsilon (curvy beyond plausibility)", tr.User, frac*100)
		}
	}
}

func TestSmoothDatasetDropsShortTraces(t *testing.T) {
	long := stopGoTrace()
	short := trace.MustNew("tiny", []trace.Point{
		{Point: origin, Time: t0},
		{Point: geo.Destination(origin, 90, 80), Time: t0.Add(time.Minute)},
	})
	d := trace.MustNewDataset([]*trace.Trace{long, short})
	out, dropped, err := smoothEach(d, Config{Epsilon: 100, Trim: 100})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || len(dropped) != 1 || dropped[0] != "tiny" {
		t.Fatalf("out=%d dropped=%v", out.Len(), dropped)
	}
}

func TestSmoothSpatialAccuracy(t *testing.T) {
	// Original observations (except near trimmed ends) must lie close to
	// the published geometry: smoothing does not displace the path.
	tr := stopGoTrace()
	out, err := Smooth(tr, Config{Epsilon: 100, Trim: 0})
	if err != nil {
		t.Fatal(err)
	}
	opl, err := out.Polyline()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Points {
		if d := opl.DistanceTo(p.Point); d > 55 { // ~epsilon/2 + noise
			t.Fatalf("original point %d is %v m from published path", i, d)
		}
	}
}

func BenchmarkSmooth(b *testing.B) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 1
	g, err := synth.Commuters(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := g.Dataset.Traces()[0]
	sc := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Smooth(tr, sc); err != nil {
			b.Fatal(err)
		}
	}
}
