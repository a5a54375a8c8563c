package poiattack

import (
	"context"
	"testing"
	"time"

	"mobipriv"

	"mobipriv/internal/geo"
	"mobipriv/internal/poi"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

func commuters(t testing.TB, users int) *synth.Generated {
	t.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = users
	cfg.Sampling = 2 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEvaluateRawDataHighF1(t *testing.T) {
	g := commuters(t, 10)
	res, err := Evaluate(g.Dataset, g.Stays, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// On raw data the attack must retrieve nearly all POIs.
	if res.PerUser.Recall < 0.85 {
		t.Errorf("raw per-user recall = %v, want >= 0.85 (%s)", res.PerUser.Recall, res.PerUser)
	}
	if res.PerUser.F1 < 0.7 {
		t.Errorf("raw per-user F1 = %v, want >= 0.7 (%s)", res.PerUser.F1, res.PerUser)
	}
	if res.Global.F1 < 0.7 {
		t.Errorf("raw global F1 = %v (%s)", res.Global.F1, res.Global)
	}
}

func TestEvaluateSmoothedDataLowF1(t *testing.T) {
	g := commuters(t, 10)
	sm := promesse(t, g.Dataset)
	raw, err := Evaluate(g.Dataset, g.Stays, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	anon, err := Evaluate(sm, g.Stays, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The headline reproduction: speed smoothing slashes the attack's F1.
	if anon.PerUser.F1 > raw.PerUser.F1/2 {
		t.Errorf("smoothing did not halve F1: raw %s -> anon %s", raw.PerUser, anon.PerUser)
	}
	if anon.PerUser.Precision > 0.5 {
		t.Errorf("smoothed precision = %v, want low (stays detected, if any, are spread along the path)",
			anon.PerUser.Precision)
	}
}

func TestEvaluateMatchRadiusValidation(t *testing.T) {
	g := commuters(t, 3)
	cfg := DefaultConfig()
	cfg.MatchRadius = 0
	if _, err := Evaluate(g.Dataset, g.Stays, cfg); err == nil {
		t.Fatal("MatchRadius=0 accepted")
	}
}

func TestTruePOIsMergesRepeatStays(t *testing.T) {
	t0 := time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	home := geo.Point{Lat: 45.76, Lng: 4.83}
	work := geo.Destination(home, 90, 3000)
	stays := []synth.Stay{
		{User: "u", Center: home, Enter: t0, Leave: t0.Add(8 * time.Hour)},
		{User: "u", Center: geo.Offset(home, 20, 0), Enter: t0.Add(20 * time.Hour), Leave: t0.Add(30 * time.Hour)},
		{User: "u", Center: work, Enter: t0.Add(9 * time.Hour), Leave: t0.Add(17 * time.Hour)},
		{User: "v", Center: work, Enter: t0.Add(9 * time.Hour), Leave: t0.Add(17 * time.Hour)},
	}
	truth := TruePOIs(stays, 250)
	if len(truth["u"]) != 2 {
		t.Errorf("user u: %d true POIs, want 2 (home merged)", len(truth["u"]))
	}
	if len(truth["v"]) != 1 {
		t.Errorf("user v: %d true POIs, want 1", len(truth["v"]))
	}
}

// TestEvaluateMatchesLegacy pins the streaming-backed Evaluate to the
// historical whole-dataset implementation (kept verbatim in
// legacy_test.go): identical scores, raw and anonymized alike.
func TestEvaluateMatchesLegacy(t *testing.T) {
	g := commuters(t, 10)
	sm := promesse(t, g.Dataset)
	cfgs := []Config{
		DefaultConfig(),
		{POI: poi.Config{MaxDiameter: 100, MinDuration: 10 * time.Minute, MergeRadius: 150}, MatchRadius: 100},
	}
	for _, cfg := range cfgs {
		for name, ds := range map[string]*trace.Dataset{"raw": g.Dataset, "smoothed": sm} {
			got, err := Evaluate(ds, g.Stays, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacyEvaluate(ds, g.Stays, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s cfg %+v: streaming Evaluate diverged from legacy\n got %+v\nwant %+v",
					name, cfg, got, want)
			}
		}
	}
}

// promesse publishes d through the smoothing-only mechanism at the
// paper's operating point (100 m spacing, trim = spacing).
func promesse(t *testing.T, d *trace.Dataset) *trace.Dataset {
	t.Helper()
	res, err := mobipriv.MustFromSpec("promesse").Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return res.Dataset
}
