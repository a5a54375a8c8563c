package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"mobipriv"
	"mobipriv/internal/metrics"
	"mobipriv/internal/risk"
	"mobipriv/internal/store"
	"mobipriv/internal/stream"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// The traced run is separate from the end-to-end runs. Whatever the
// --workload, it measures every workload's layers, so every per-layer
// metric is a measurement in every traced run; trace.coverage and
// trace.overhead describe the selected workload's composition. Each
// composition runs in process at one worker, so spans nest without
// overlapping, once untraced and once traced:
//
//	ingest-live      DecodeJSONL -> Engine.Push -> promesse stream factory
//	                 wrapped by risk.Monitor.Observe -> sink Writer.Append,
//	                 composed as cmd/mobiserve does, plus the server-side
//	                 histograms of a live 200k points/s rung
//	batch-pipeline   ReadCSV -> MixZoneSwap.Run -> SpeedSmooth.Run ->
//	                 Pseudonymize.Run -> WriteCSV
//	store-anon-eval  RunStore(geoi) with a WithPerTrace timing wrapper, then
//	                 ScanTracesPaired feeding the EvalStore accumulators

// compStats describes one traced composition.
type compStats struct {
	coverage float64 // share of the traced wall time that layer self time accounts for
	overhead float64 // traced wall time / untraced wall time
}

// measure runs a composition untraced, then traced, writes the spans
// out, and returns the tracer with the composition's coverage and
// overhead. run returns the wall time of the region its root span
// named name covers.
func (b *bench) measure(name string, run func(t *tracer) (time.Duration, error)) (*tracer, compStats, error) {
	runtime.GC()
	untraced, err := run(nil)
	if err != nil {
		return nil, compStats{}, fmt.Errorf("%s untraced: %w", name, err)
	}
	runtime.GC()
	t := newTracer()
	traced, err := run(t)
	if err != nil {
		return nil, compStats{}, fmt.Errorf("%s traced: %w", name, err)
	}
	var layers int64
	for n, v := range t.selfTimes() {
		if n != name && n != "request" { // the root and the glue spans grouping a request's layer calls
			layers += v
		}
	}
	cs := compStats{
		coverage: float64(layers) / float64(t.wall(name)),
		overhead: traced.Seconds() / untraced.Seconds(),
	}
	fmt.Fprintf(b.log, "perfbench: traced %s: untraced %.3fs traced %.3fs coverage %.3f overhead %.3f (%d spans)\n",
		name, untraced.Seconds(), traced.Seconds(), cs.coverage, cs.overhead, len(t.spans))
	if err := t.writeTSV(filepath.Join(b.spansDir, name+".tsv")); err != nil {
		return nil, compStats{}, err
	}
	return t, cs, nil
}

// writeTSV writes every span, one per line: id, parent, name, start
// and end in ns since the tracer started.
func (t *tracer) writeTSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// setPerPoint reports each listed span's summed self time per point.
func setPerPoint(res *result, self map[string]int64, points int64, names ...string) {
	for _, n := range names {
		res.set(n+".ns_per_point", float64(self[n])/float64(points), "ns/point")
	}
}

// traced is the --trace 1 run.
func (b *bench) traced(workload string) (*result, error) {
	res := &result{Correct: true}
	comps := make(map[string]compStats)
	for _, step := range []struct {
		name string
		run  func(*result) (compStats, error)
	}{
		{"ingest-live", b.tracedIngest},
		{"batch-pipeline", b.tracedBatch},
		{"store-anon-eval", b.tracedStore},
	} {
		cs, err := step.run(res)
		if err != nil {
			return nil, err
		}
		comps[step.name] = cs
	}
	res.set("trace.coverage", comps[workload].coverage, "ratio")
	res.set("trace.overhead", comps[workload].overhead, "ratio")
	return res, nil
}

// tracedIngest measures ingest-live's layers: the server-side
// histograms of one live 200k points/s rung, diffed bin by bin, and
// the in-process composition replaying the same bodies.
func (b *bench) tracedIngest(res *result) (compStats, error) {
	sh := b.shape
	env, err := b.ingestSetup(sh.warmReqs + max(sh.runReqs(), sh.traceReqs))()
	if err != nil {
		return compStats{}, err
	}
	defer env.srv.stop()
	if err := b.serverLayers(res, env); err != nil {
		return compStats{}, err
	}

	reqs := env.tr.reqs[:sh.traceReqs]
	points := int64(len(reqs) * reqPoints)
	var storeBytes int64
	sink := filepath.Join(b.workdir, "trace-ingest.mstore")
	t, cs, err := b.measure("ingest-live", func(t *tracer) (time.Duration, error) {
		wall, n, err := ingestComposition(t, reqs, sink)
		storeBytes = n
		return wall, err
	})
	if err != nil {
		return compStats{}, err
	}
	setPerPoint(res, t.selfTimes(), points, "traceio.decode_jsonl", "stream.push",
		"mobipriv.promesse_stream", "risk.monitor", "store.append")
	res.set("store.append.bytes_per_point", float64(storeBytes)/float64(points), "bytes/point")
	return cs, nil
}

// serverLayers sends a warm-up and one pass over the ladder to the
// live server and reads the per-layer view of the 200k points/s rung
// from /stats, diffed bin by bin around that rung.
func (b *bench) serverLayers(res *result, env ingestEnv) error {
	sh := b.shape
	l := newLoader(env.srv.url, env.tr.conns)
	defer l.close()
	res.account(l.run(env.tr.take(sh.warmReqs), 0))
	lo, err := b.runLadder(res, l, env.tr, true)
	if err != nil {
		return err
	}
	noteLadder(res.set, lo)
	i := slices.Index(ladder, 200e3)
	before, after := lo.stats[i][0], lo.stats[i][1]
	res.set("load.lag_p99_ms", lo.rungs[i].lagP99, "ms")
	res.set("stream.push_stalls", float64(after.Stalls-before.Stalls), "count")
	for _, h := range []struct{ metric, series string }{
		{"stream.queue_wait", "stream_queue_wait_seconds"},
		{"stream.process", "stream_process_seconds"},
		{"stream.sink", "stream_sink_seconds"},
	} {
		res.set(h.metric+".p99_ms", histDelta(before, after, h.series, "").Quantile(0.99)*1e3, "ms")
	}
	ing := histDelta(before, after, "mobiserve_http_request_seconds", `"/ingest"`)
	res.set("mobiserve.ingest.p50_ms", ing.Quantile(0.50)*1e3, "ms")
	res.set("mobiserve.ingest.p99_ms", ing.Quantile(0.99)*1e3, "ms")

	final := b.finishServer(res, l, env)
	if final != nil && final.In > 0 {
		res.set("stream.out_in_ratio", float64(final.Out)/float64(final.In), "ratio")
	}
	return nil
}

// syncUser is a sentinel user the ingest composition pushes after each
// request: the engine's single shard handles batches in order, so when
// the sink sees the sentinel, the request's points have been through
// the mechanism and the sink. Waiting for it keeps the shard's spans
// inside their request's span.
const syncUser = "\x00perfbench-sync"

// ingestComposition replays reqs through the layers cmd/mobiserve
// composes: DecodeJSONL -> Engine.Push -> the promesse stream factory
// wrapped by risk.Monitor.Observe -> a sink calling Writer.Append. It
// returns the wall time and the store bytes written.
func ingestComposition(t *tracer, reqs []request, sinkPath string) (time.Duration, int64, error) {
	m, err := mobipriv.FromSpec(ingestSpec)
	if err != nil {
		return 0, 0, err
	}
	factory, _ := mobipriv.AsStreaming(m)
	mon, err := risk.NewMonitor(risk.DefaultMonitorConfig())
	if err != nil {
		return 0, 0, err
	}
	if err := os.RemoveAll(sinkPath); err != nil {
		return 0, 0, err
	}
	w, err := store.OpenAppend(sinkPath, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	var (
		cur       atomic.Int32 // span of the request being processed
		appendErr error
		synced    = make(chan struct{}, 1)
	)
	eng, err := stream.NewEngine(stream.Config{
		Shards: 1,
		Sink: func(batch []stream.Update) {
			id := t.child("store.append", cur.Load())
			sync := false
			for _, u := range batch {
				if u.User == syncUser {
					sync = true
					continue
				}
				if err := w.Append(u.User, u.Point); err != nil && appendErr == nil {
					appendErr = err
				}
			}
			t.end(id)
			if sync {
				synced <- struct{}{}
			}
		},
	}, func(user string) stream.Mechanism {
		if user == syncUser {
			return stream.Passthrough{}.New(user)
		}
		return riskTap{inner: factory(user), mon: mon, user: user, t: t, cur: &cur}
	})
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	engDone := make(chan error, 1)
	go func() { engDone <- eng.Run(ctx) }()

	updates := make([]stream.Update, 0, reqPoints)
	push := func(parent int32) error {
		id := t.begin("stream.push", parent)
		err := eng.Push(ctx, updates...)
		t.end(id)
		updates = updates[:0]
		return err
	}
	start := time.Now()
	root := t.begin("ingest-live", 0)
	var runErr error
	for i, r := range reqs {
		rid := t.begin("request", root)
		cur.Store(rid)
		did := t.begin("traceio.decode_jsonl", rid)
		err := traceio.DecodeJSONL(bytes.NewReader(r.body), func(user string, p trace.Point) error {
			updates = append(updates, stream.Update{User: user, Point: p})
			if len(updates) < reqPoints {
				return nil
			}
			return push(did)
		})
		t.end(did)
		if err == nil && len(updates) > 0 {
			err = push(rid)
		}
		if err == nil {
			err = eng.Push(ctx, stream.Update{User: syncUser, Point: trace.P(0, 0, time.Unix(int64(i), 0))})
		}
		if err != nil {
			runErr = err
			break
		}
		<-synced
		t.end(rid)
	}
	t.end(root)
	wall := time.Since(start)
	cur.Store(0) // the end-of-stream flush below is not part of the measured region
	eng.Close()
	if err := <-engDone; err != nil && runErr == nil {
		runErr = err
	}
	if err := w.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if appendErr != nil && runErr == nil {
		runErr = appendErr
	}
	return wall, w.Stats().Bytes, runErr
}

// riskTap mirrors cmd/mobiserve's tap: it wraps a user's mechanism and
// feeds its published output to the risk monitor, timing both calls.
type riskTap struct {
	inner mobipriv.StreamMechanism
	mon   *risk.Monitor
	user  string
	t     *tracer
	cur   *atomic.Int32
}

func (r riskTap) Push(p trace.Point) []trace.Point {
	parent := r.cur.Load()
	id := r.t.child("mobipriv.promesse_stream", parent)
	out := r.inner.Push(p)
	r.t.end(id)
	id = r.t.child("risk.monitor", parent)
	r.mon.Observe(r.user, out...)
	r.t.end(id)
	return out
}

func (r riskTap) Flush() []trace.Point {
	parent := r.cur.Load()
	id := r.t.child("mobipriv.promesse_stream", parent)
	out := r.inner.Flush()
	r.t.end(id)
	id = r.t.child("risk.monitor", parent)
	r.mon.Observe(r.user, out...)
	r.mon.EndTrace(r.user)
	r.t.end(id)
	return out
}

// tracedBatch measures batch-pipeline's layers and checks the
// one-worker composition's digest against a Runner.Run job at nproc
// workers.
func (b *bench) tracedBatch(res *result) (compStats, error) {
	in, err := b.batchSetup()
	if err != nil {
		return compStats{}, err
	}
	var (
		digests [][32]byte
		counts  batchCounts
	)
	t, cs, err := b.measure("batch-pipeline", func(t *tracer) (time.Duration, error) {
		start := time.Now()
		d, c, err := batchComposition(t, in)
		digests, counts = append(digests, d), c
		return time.Since(start), err
	})
	if err != nil {
		return compStats{}, err
	}
	setPerPoint(res, t.selfTimes(), int64(in.points), "traceio.read_csv", "mixzone",
		"core.smooth", "mobipriv.pseudonymize", "traceio.write_csv")
	res.set("mixzone.zones", float64(counts.zones), "count")
	res.set("mixzone.swaps", float64(counts.swaps), "count")
	res.set("mixzone.suppressed_points", float64(counts.suppressed), "count")
	err = b.checkedBatchJob(in, digests[1])
	if err == nil && digests[0] != digests[1] {
		err = fmt.Errorf("untraced digest %x, traced %x", digests[0][:8], digests[1][:8])
	}
	res.check(b.log, "batch job digest == one-worker hand-composed digest", err)
	return cs, nil
}

// storeLayers is what the traced store composition counted and
// reported.
type storeLayers struct {
	writeBytes int64
	scan       *store.PairScanStats
	report     *metrics.Report
}

// tracedStore measures store-anon-eval's layers and checks the
// hand-composed accumulators' report against metrics.EvalStore over
// the same stores.
func (b *bench) tracedStore(res *result) (compStats, error) {
	in, err := b.storeSetup()
	if err != nil {
		return compStats{}, err
	}
	var sl storeLayers
	anonPath := filepath.Join(b.workdir, "trace-anon.mstore")
	t, cs, err := b.measure("store-anon-eval", func(t *tracer) (time.Duration, error) {
		start := time.Now()
		var err error
		sl, err = storeComposition(t, in, anonPath)
		return time.Since(start), err
	})
	if err != nil {
		return compStats{}, err
	}
	points := int64(in.points)
	setPerPoint(res, t.selfTimes(), points, "mobipriv.runstore", "mobipriv.geoi_pertrace",
		"store.paired_scan", "metrics.distortion", "metrics.completeness", "metrics.grid", "risk.attack")
	res.set("store.write.bytes_per_point", float64(sl.writeBytes)/float64(points), "bytes/point")
	decoded := sl.scan.Orig.BlocksDecoded + sl.scan.Anon.BlocksDecoded
	hits := sl.scan.Orig.CacheHits + sl.scan.Anon.CacheHits
	res.set("store.blocks_decoded", float64(decoded), "count")
	res.set("store.cache_hit_ratio", float64(hits)/float64(max(hits+decoded, 1)), "ratio")
	res.set("store.peak_buffered_users", float64(sl.scan.PeakBufferedUsers), "count")
	want, err := evalStores(in, anonPath)
	if err != nil {
		return compStats{}, err
	}
	res.check(b.log, "hand-composed accumulators' report == EvalStore report", sameReport(sl.report, want))
	return cs, nil
}

// evalStores is metrics.EvalStore over the input store and anonPath at
// one worker.
func evalStores(in storeInput, anonPath string) (*metrics.Report, error) {
	orig, err := store.Open(in.orig)
	if err != nil {
		return nil, err
	}
	defer orig.Close()
	anon, err := store.Open(anonPath)
	if err != nil {
		return nil, err
	}
	defer anon.Close()
	rep, _, err := metrics.EvalStore(context.Background(), orig, anon, in.evalOptions(1))
	return rep, err
}

// storeComposition runs RunStore(geoi) at one worker with a
// WithPerTrace timing wrapper, then feeds ScanTracesPaired's pairs to
// the accumulators metrics.EvalStore builds, timing each, and
// finalizes them into a report as metrics.EvalAcc does.
func storeComposition(t *tracer, in storeInput, anonPath string) (storeLayers, error) {
	ctx := context.Background()
	m, err := mobipriv.FromSpec(storeSpec)
	if err != nil {
		return storeLayers{}, err
	}
	fn, _ := mobipriv.AsPerTrace(m)
	var rs int32 // the RunStore span, parent of the per-trace spans
	timed := mobipriv.WithPerTrace(m, func(ctx context.Context, tr *mobipriv.Trace) (*mobipriv.Trace, error) {
		id := t.begin("mobipriv.geoi_pertrace", rs)
		out, err := fn(ctx, tr)
		t.end(id)
		return out, err
	})
	orig, err := store.Open(in.orig)
	if err != nil {
		return storeLayers{}, err
	}
	defer orig.Close()
	w, err := store.Create(anonPath, store.Options{Overwrite: true})
	if err != nil {
		return storeLayers{}, err
	}

	root := t.begin("store-anon-eval", 0)
	defer t.end(root)
	rs = t.begin("mobipriv.runstore", root)
	_, err = mobipriv.NewRunner(mobipriv.WithWorkers(1)).RunStore(ctx, orig, w, timed)
	t.end(rs)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return storeLayers{}, err
	}
	sl := storeLayers{writeBytes: w.Stats().Bytes}
	anon, err := store.Open(anonPath)
	if err != nil {
		return storeLayers{}, err
	}
	defer anon.Close()

	// The accumulators metrics.NewEvalAcc builds at its defaults;
	// tracedStore checks their report against EvalStore's, so a
	// changed default fails the run instead of timing another
	// evaluation.
	bounds := orig.Bounds()
	center := bounds.Center()
	const cell, top, queries = 500.0, 20, 100
	dist, comp := metrics.NewDistortionAcc(), metrics.NewCompletenessAcc()
	cov, err1 := metrics.NewCoverageAcc(center, cell)
	lens := metrics.NewLengthAcc()
	od, err2 := metrics.NewODAcc(center, cell)
	pop, err3 := metrics.NewPopularAcc(center, cell, top)
	rq, err4 := metrics.NewRangeQueryAcc(bounds, queries, cell, 0)
	att, err5 := risk.NewAttackAcc(in.truth, risk.DefaultAttackConfig())
	for _, e := range []error{err1, err2, err3, err4, err5} {
		if e != nil {
			return storeLayers{}, e
		}
	}
	rep := &metrics.Report{CellSize: cell, TopCells: top, Queries: queries, QueryRadius: cell}
	ps := t.begin("store.paired_scan", root)
	sl.scan, err = store.ScanTracesPaired(ctx, orig, anon, store.ScanOptions{Workers: 1, NoCache: true},
		func(o, a *trace.Trace) error {
			if o != nil {
				rep.OrigTraces++
				rep.OrigPoints += int64(o.Len())
			}
			if a != nil {
				rep.AnonTraces++
				rep.AnonPoints += int64(a.Len())
			}
			id := t.begin("metrics.distortion", ps)
			err := dist.AddPair(o, a)
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin("metrics.completeness", ps)
			err = comp.AddPair(o, a)
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin("metrics.grid", ps)
			cov.AddPair(o, a)
			lens.AddPair(o, a)
			od.AddPair(o, a)
			pop.AddPair(o, a)
			rq.AddPair(o, a)
			t.end(id)
			if a != nil {
				id = t.begin("risk.attack", ps)
				att.AddTrace(a)
				t.end(id)
			}
			return nil
		})
	t.end(ps)
	if err != nil {
		return storeLayers{}, err
	}
	rep.Distortion, rep.Completeness, rep.Coverage = dist.Summary(), comp.Summary(), cov.Result()
	if rep.Lengths, err = lens.Result(); err != nil {
		return storeLayers{}, err
	}
	if rep.OD, err = od.Result(); err != nil {
		return storeLayers{}, err
	}
	if rep.QueryErrors, err = rq.Errors(); err != nil {
		return storeLayers{}, err
	}
	if tau, err := pop.Result(); err == nil {
		rep.PopularTau, rep.PopularOK = tau, true
	}
	attack := att.Result()
	rep.Attack = &attack
	sl.report = rep
	return sl, nil
}
