package experiment

import (
	"fmt"
	"time"

	"mobipriv"
	"mobipriv/internal/attack/poiattack"
	"mobipriv/internal/baseline/geoind"
	"mobipriv/internal/geo"
	"mobipriv/internal/metrics"
	"mobipriv/internal/mixzone"
	"mobipriv/internal/poi"
	"mobipriv/internal/stats"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

func init() {
	register(Experiment{ID: "E1", Title: "Fig. 1 reproduction: two traces through the pipeline", Run: runE1})
	register(Experiment{ID: "E2", Title: "POI retrieval per mechanism (commuter + taxi)", Run: runE2})
	register(Experiment{ID: "E3", Title: "POI recall vs Geo-I privacy budget", Run: runE3})
	register(Experiment{ID: "E6", Title: "Promesse epsilon sweep: hiding vs distortion", Run: runE6})
}

// runE1 reproduces the paper's Figure 1 quantitatively: two users, each
// with two stops (POIs), whose paths cross once; the table reports what
// an adversary sees at each pipeline stage.
func runE1(Scale) (*Table, error) {
	t0 := time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin := geo.Point{Lat: 45.7640, Lng: 4.8357}

	// User A: stop 15 min at west POI, travel east 2 km through the
	// crossing, stop 15 min at east POI.
	mk := func(user string, brg float64) *trace.Trace {
		start := geo.Destination(origin, brg, 1000)
		end := geo.Destination(origin, brg+180, 1000)
		var pts []trace.Point
		now := t0
		for i := 0; i < 30; i++ { // 15 min stop, 30 s sampling
			pts = append(pts, trace.Point{Point: geo.Offset(start, float64(i%2), 0), Time: now})
			now = now.Add(30 * time.Second)
		}
		for d := 100.0; d < 2000; d += 100 { // 10 m/s towards the end point
			pts = append(pts, trace.Point{Point: geo.Interpolate(start, end, d/2000), Time: now})
			now = now.Add(10 * time.Second)
		}
		for i := 0; i < 30; i++ {
			pts = append(pts, trace.Point{Point: geo.Offset(end, float64(i%2), 0), Time: now})
			now = now.Add(30 * time.Second)
		}
		return trace.MustNew(user, pts)
	}
	a := mk("userA", 270) // west -> east
	b := mk("userB", 0)   // north -> south, crossing at the origin
	d := trace.MustNewDataset([]*trace.Trace{a, b})

	table := &Table{
		ID:      "E1",
		Title:   "Fig. 1 reproduction: adversary view per pipeline stage",
		Columns: []string{"stage", "points", "stays found", "POIs found", "zones", "swapped"},
	}
	countStays := func(ds *trace.Dataset) (int, int, error) {
		var nStays, nPOIs int
		for _, tr := range ds.Traces() {
			ss, err := poi.Stays(tr, poi.DefaultConfig())
			if err != nil {
				return 0, 0, err
			}
			nStays += len(ss)
			nPOIs += len(poi.Cluster(ss, 200))
		}
		return nStays, nPOIs, nil
	}

	s0, p0, err := countStays(d)
	if err != nil {
		return nil, err
	}
	table.AddRow("(a) original", fmtI(d.TotalPoints()), fmtI(s0), fmtI(p0), "-", "-")

	smoothed, err := smooth(d, 100, -1)
	if err != nil {
		return nil, err
	}
	s1, p1, err := countStays(smoothed)
	if err != nil {
		return nil, err
	}
	table.AddRow("(b) constant speed", fmtI(smoothed.TotalPoints()), fmtI(s1), fmtI(p1), "-", "-")

	// Find a seed that swaps, as in the figure.
	var mz *mixzone.Result
	for seed := int64(1); seed < 32; seed++ {
		cfg := mixzone.DefaultConfig()
		cfg.SwapSeed = seed
		mz, err = mixzone.Apply(smoothed, cfg)
		if err != nil {
			return nil, err
		}
		if mz.SwapCount() > 0 {
			break
		}
	}
	s2, p2, err := countStays(mz.Dataset)
	if err != nil {
		return nil, err
	}
	table.AddRow("(c) after swapping", fmtI(mz.Dataset.TotalPoints()), fmtI(s2), fmtI(p2),
		fmtI(len(mz.Zones)), fmt.Sprintf("%v", mz.SwapCount() > 0))
	table.AddNote("expected shape: 4 stays/4 POIs at stage (a); 0 at (b) and (c); 1 zone swapped at (c)")
	table.AddNote("stage (c) suppressed %d in-zone points", mz.Suppressed)
	return table, nil
}

// runE2 is the headline privacy table: POI retrieval per mechanism on
// both workloads.
func runE2(s Scale) (*Table, error) {
	table := &Table{
		ID:      "E2",
		Title:   "POI retrieval attack per mechanism",
		Columns: []string{"workload", "mechanism", "per-user P", "per-user R", "per-user F1", "global F1"},
	}
	workloads := []struct {
		name string
		gen  func(Scale) (*synth.Generated, error)
	}{
		{"commuter", commuterWorkload},
		{"taxi", taxiWorkload},
	}
	if Overridden() {
		// Both generators would return the same override; one honestly
		// labeled run instead of duplicate rows named after workloads
		// that were never used.
		workloads = workloads[:1]
		workloads[0].name = "dataset"
	}
	for _, wl := range workloads {
		g, err := wl.gen(s)
		if err != nil {
			return nil, err
		}
		for _, m := range standardMechanisms() {
			published, err := m.apply(g.Dataset)
			if err != nil {
				return nil, fmt.Errorf("E2 %s/%s: %w", wl.name, m.name, err)
			}
			res, err := poiattack.Evaluate(published, g.Stays, poiattack.DefaultConfig())
			if err != nil {
				return nil, err
			}
			table.AddRow(wl.name, m.name,
				fmtF(res.PerUser.Precision), fmtF(res.PerUser.Recall), fmtF(res.PerUser.F1),
				fmtF(res.Global.F1))
		}
	}
	table.AddNote("expected shape: raw F1 high; promesse/pipeline F1 near 0; geo-i stays high (the motivating claim); w4m depends on delta (see E8: stops survive but are displaced)")
	return table, nil
}

// runE3 reproduces the motivating claim from the authors' earlier
// measurement [4]: at practical privacy budgets, geo-indistinguishability
// still lets the attack retrieve a large fraction (>= 60%) of POIs.
func runE3(s Scale) (*Table, error) {
	g, err := commuterWorkload(s)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "E3",
		Title:   "POI recall vs Geo-I epsilon (commuter workload)",
		Columns: []string{"epsilon (1/m)", "E[noise] (m)", "per-user recall", "per-user F1"},
	}
	for _, eps := range []float64{0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001} {
		published, err := mechanism{name: "geoi", mech: mobipriv.GeoI(eps, 1)}.apply(g.Dataset)
		if err != nil {
			return nil, err
		}
		res, err := poiattack.Evaluate(published, g.Stays, poiattack.DefaultConfig())
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%g", eps), fmtM(geoind.ExpectedDisplacement(eps)),
			fmtF(res.PerUser.Recall), fmtF(res.PerUser.F1))
	}
	table.AddNote("expected shape: recall >= 0.6 for eps >= 0.01 (noise <= 200 m), dropping only at impractical noise levels")
	return table, nil
}

// runE6 sweeps the smoothing spacing epsilon: privacy (POI F1) and the
// price paid in spatial distortion and published volume.
func runE6(s Scale) (*Table, error) {
	g, err := commuterWorkload(s)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "E6",
		Title: "Promesse epsilon sweep (commuter workload)",
		Columns: []string{"epsilon (m)", "per-user F1", "global F1", "pub->orig med (m)",
			"orig->pub med (m)", "orig->pub p95 (m)", "points kept"},
	}
	for _, eps := range []float64{20, 50, 100, 200, 500} {
		published, err := smooth(g.Dataset, eps, -1)
		if err != nil {
			return nil, err
		}
		res, err := poiattack.Evaluate(published, g.Stays, poiattack.DefaultConfig())
		if err != nil {
			return nil, err
		}
		dist, err := metrics.DatasetDistortion(g.Dataset, published)
		if err != nil {
			return nil, err
		}
		comp, err := metrics.DatasetCompleteness(g.Dataset, published)
		if err != nil {
			return nil, err
		}
		ds, cs := stats.Summarize(dist), stats.Summarize(comp)
		table.AddRow(fmt.Sprintf("%.0f", eps), fmtF(res.PerUser.F1), fmtF(res.Global.F1),
			fmtM(ds.Median), fmtM(cs.Median), fmtM(cs.P95), fmtI(published.TotalPoints()))
	}
	table.AddNote("expected shape: F1 low across the sweep; pub->orig ~0 at every epsilon; orig->pub grows with epsilon (corner cutting + trimming)")
	return table, nil
}
