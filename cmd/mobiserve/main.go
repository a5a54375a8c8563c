// Command mobiserve is the online anonymization service: it ingests an
// unbounded stream of location updates over HTTP, pushes them through
// the sharded streaming engine (internal/stream) running any
// streaming-capable mechanism from the mobipriv registry, and republishes
// the anonymized stream — the serving-path counterpart of the batch
// mobianon tool.
//
//	mobiserve -addr :8080 -mechanism "geoi(0.01)" -shards 8
//
// Endpoints:
//
//	POST /ingest   NDJSON {"user":..,"t":..,"lat":..,"lng":..} (or CSV
//	               with Content-Type: text/csv); responds with the
//	               number of accepted points. Backpressure: the request
//	               blocks while shard queues are full.
//	POST /flush    finalize and evict every open trace, forcing out all
//	               withheld points (end of a replay).
//	GET  /out      stream anonymized output as NDJSON until the client
//	               disconnects (points anonymized after connect).
//	GET  /stats    JSON: per-shard queue depth and user counts,
//	               points/sec, evictions, risk-monitor counts. The
//	               values are a view over the same metrics registry
//	               /metrics serves, so the two cannot disagree.
//	GET  /metrics  Prometheus text exposition of every counter, gauge
//	               and latency histogram (engine, sinks, risk monitor,
//	               per-route HTTP latency).
//	GET  /risk     JSON: per-user privacy-risk state from the live
//	               monitor (internal/risk) watching the anonymized
//	               output — users whose published points still show a
//	               POI recurring across distinct days are flagged.
//	               ?user=U returns one user (404 when unobserved).
//	POST /risk/reset  drop monitor state (?user=U for one user).
//	GET  /debug/traces  flight recorder (JSON; ?format=text for the
//	               human zpage): recent sampled request traces with
//	               queue-wait/process/sink decomposition, the slowest
//	               trace per latency bucket, per-span-kind summaries.
//	               Sampling is governed by -trace-sample (deterministic
//	               per trace ID); -trace-slow logs slow roots.
//
// With -pprof the standard net/http/pprof debug endpoints are mounted
// under /debug/pprof/ (opt-in: profiling handlers on a public address
// are a foot-gun, so they are off by default).
//
// Quickstart against a generated dataset:
//
//	mobigen -out day.jsonl -format jsonl
//	mobiserve -addr :8080 -mechanism "promesse(epsilon=100)" -sink anon.jsonl &
//	curl -s -XPOST --data-binary @day.jsonl localhost:8080/ingest
//	curl -s -XPOST localhost:8080/flush
//	curl -s localhost:8080/stats
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mobipriv"
	"mobipriv/internal/cliutil"
	"mobipriv/internal/obs"
	otrace "mobipriv/internal/obs/trace"
	"mobipriv/internal/risk"
	"mobipriv/internal/store"
	"mobipriv/internal/stream"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so slow-header connections cannot pile up. Bodies are not
// bounded: a large streamed ingest body is legitimate.
const readHeaderTimeout = 10 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mobiserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mobiserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		mech      = fs.String("mechanism", "promesse", "streaming-capable mechanism spec (see -list-streaming)")
		shards    = fs.Int("shards", 8, "per-user state partitions (one goroutine each)")
		queue     = fs.Int("queue", 64, "per-shard queue depth in batches (backpressure bound)")
		batch     = fs.Int("batch", 256, "ingest batch size in points")
		ttl       = fs.Duration("ttl", 10*time.Minute, "evict users idle longer than this (0 disables)")
		sink      = fs.String("sink", "", "append anonymized output to this NDJSON file, or to a native store when the path ends in .mstore (an existing store is extended across restarts)")
		sinkFresh = fs.Bool("sink-fresh", false, "refuse to extend an existing .mstore sink: the path must not already hold a store")
		pseudonym = fs.String("pseudonym", "", "relabel output users with this pseudonym prefix")
		seed      = fs.Int64("seed", 1, "pseudonym seed")
		riskDays  = fs.Int("risk-min-days", 2, "flag users whose output shows a POI recurring on this many distinct days (0 disables the monitor)")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof debug endpoints under /debug/pprof/")
		list      = fs.Bool("list-streaming", false, "list streaming-capable mechanisms and exit")
		trSample  = fs.Float64("trace-sample", 1, "fraction of requests traced, deterministic per trace ID (0 disables span recording)")
		trSlow    = fs.Duration("trace-slow", 0, "log sampled root spans slower than this (0 disables)")
		verbose   = cliutil.Verbose(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(mobipriv.StreamingMechanisms(), "\n"))
		return nil
	}

	srv, err := newServer(serverConfig{
		Spec:        *mech,
		Shards:      *shards,
		Queue:       *queue,
		Batch:       *batch,
		TTL:         *ttl,
		Pseudonym:   *pseudonym,
		Seed:        *seed,
		RiskMinDays: *riskDays,
		Pprof:       *pprofOn,
		TraceSample: *trSample,
		TraceSlow:   *trSlow,
	})
	if err != nil {
		return err
	}
	if *sink != "" {
		if strings.HasSuffix(*sink, ".mstore") {
			if err := srv.attachStoreSink(*sink, *sinkFresh); err != nil {
				return err
			}
		} else {
			f, err := os.OpenFile(*sink, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("open sink: %w", err)
			}
			defer f.Close()
			srv.sinkFile = f
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if srv.sinkStore != nil {
		go func() {
			t := time.NewTicker(time.Minute)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					srv.flushStoreSinkTraced()
				}
			}
		}()
	}
	// The engine runs on a background context and stops only through
	// Close: stopping it with the signal context would kill the shard
	// goroutines before they flush, dropping every withheld sample.
	engDone := make(chan error, 1)
	go func() { engDone <- srv.eng.Run(context.Background()) }()
	shutdownEngine := func() error {
		srv.eng.Close()
		err := <-engDone
		// Finalize the store sink after the shards have flushed: Close
		// writes the footers and manifest that make the store readable.
		if srv.sinkStore != nil {
			if cerr := srv.sinkStore.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}

	hs := &http.Server{Addr: *addr, Handler: srv.handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	// One-line startup summary: every enabled endpoint, so an operator
	// can see at a glance what this instance exposes (and what it
	// doesn't — no silent -sink or -pprof surprises).
	endpoints := []string{"POST /ingest", "POST /flush", "GET /out", "GET /stats", "GET /metrics", "GET /healthz", "GET /debug/traces"}
	if srv.mon != nil {
		endpoints = append(endpoints, "GET /risk", "POST /risk/reset")
	}
	if *pprofOn {
		endpoints = append(endpoints, "GET /debug/pprof/")
	}
	sinkDesc := "none"
	switch {
	case srv.sinkStore != nil:
		sinkDesc = "store " + *sink
	case srv.sinkFile != nil:
		sinkDesc = "file " + *sink
	}
	log.Printf("mobiserve: %s on %s (%d shards, sink %s) endpoints: %s",
		srv.mechName, *addr, *shards, sinkDesc, strings.Join(endpoints, " "))
	serveErr := hs.ListenAndServe()
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	err = shutdownEngine()
	if *verbose {
		st := srv.eng.Stats()
		fmt.Fprintf(os.Stderr, "mobiserve: served %d points in, %d out, %d evicted users, %d backpressure stalls, %d sink failures\n",
			st.In, st.Out, st.Evicted, st.Stalls, srv.sinkFails.Load())
	}
	if serveErr != nil {
		return serveErr
	}
	return err
}

type serverConfig struct {
	Spec      string
	Shards    int
	Queue     int
	Batch     int
	TTL       time.Duration
	Pseudonym string
	Seed      int64
	// RiskMinDays configures the live risk monitor's recurrence
	// threshold; 0 disables monitoring entirely.
	RiskMinDays int
	// Pprof mounts the net/http/pprof debug endpoints.
	Pprof bool
	// TraceSample is the fraction of requests recorded as spans,
	// deterministic per trace ID (so replaying identical traffic with a
	// fixed seed samples identical requests). 0 disables recording;
	// /debug/traces stays mounted but empty.
	TraceSample float64
	// TraceSlow, when positive, logs every sampled root span at least
	// this slow.
	TraceSlow time.Duration
}

// server owns the engine and fans its output to the sink file and the
// live /out subscribers.
type server struct {
	eng      *stream.Engine
	reg      *obs.Registry
	tracer   *otrace.Tracer // nil-safe: zero sample rate still mounts /debug/traces
	mechName string
	batch    int
	started  time.Time
	mon      *risk.Monitor // nil when monitoring is disabled
	pprofOn  bool

	mu        sync.Mutex
	sinkFile  io.Writer
	sinkStore *store.Writer
	subs      map[int]chan []stream.Update
	nextSub   int
	dropped   atomic.Uint64
	sinkFails atomic.Uint64
}

// newServer resolves the mechanism spec to its streaming adapter and
// builds the engine around it (not yet running).
func newServer(cfg serverConfig) (*server, error) {
	m, err := mobipriv.FromSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	factory, ok := mobipriv.AsStreaming(m)
	if !ok {
		return nil, fmt.Errorf("mechanism %q cannot run online (streaming-capable: %s)",
			m.Name(), strings.Join(mobipriv.StreamingMechanisms(), ", "))
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	srv := &server{
		reg:      obs.NewRegistry(),
		mechName: m.Name(),
		batch:    cfg.Batch,
		started:  time.Now(),
		pprofOn:  cfg.Pprof,
		subs:     make(map[int]chan []stream.Update),
	}
	// The tracer exists whenever a sample rate is set; rate 0 leaves
	// srv.tracer nil, and every span call site is nil-safe, so an
	// untraced server pays nothing.
	if cfg.TraceSample > 0 {
		srv.tracer = otrace.New(otrace.Config{
			SampleRate:    cfg.TraceSample,
			Seed:          uint64(cfg.Seed),
			SlowThreshold: cfg.TraceSlow,
			SlowFunc: func(rs *otrace.RootSpan) {
				log.Printf("mobiserve: slow trace %s %s: %s (%d spans)",
					rs.Name, rs.Trace, rs.Root.Duration, len(rs.Spans))
			},
		})
	}
	if cfg.RiskMinDays > 0 {
		mcfg := risk.DefaultMonitorConfig()
		mcfg.MinDays = cfg.RiskMinDays
		if srv.mon, err = risk.NewMonitor(mcfg); err != nil {
			return nil, err
		}
		srv.mon.SetTracer(srv.tracer)
	}
	pseudo := stream.Pseudonymize{Prefix: cfg.Pseudonym, Seed: cfg.Seed}
	eng, err := stream.NewEngine(stream.Config{
		Shards:     cfg.Shards,
		QueueDepth: cfg.Queue,
		IdleTTL:    cfg.TTL,
		Sink:       srv.sink,
	}, func(user string) stream.Mechanism {
		mech := stream.Mechanism(factory(user))
		if cfg.Pseudonym != "" {
			mech = stream.Chain(mech, pseudo.New(user))
		}
		if srv.mon != nil {
			// The tap wraps the WHOLE chain: the monitor sees exactly
			// the points the service publishes, keyed by input user so
			// the risk verdict names an accountable identity.
			mech = riskTap{inner: mech, mon: srv.mon, user: user}
		}
		return mech
	})
	if err != nil {
		return nil, err
	}
	srv.eng = eng
	srv.registerMetrics()
	return srv, nil
}

// registerMetrics publishes every subsystem on the server's registry.
// All series are scrape-time views over the counters the subsystems
// already maintain, so /stats (which reads the registry too) and
// /metrics are the same numbers by construction.
func (s *server) registerMetrics() {
	s.eng.RegisterMetrics(s.reg)
	if s.mon != nil {
		s.mon.RegisterMetrics(s.reg)
	}
	obs.RegisterProcessMetrics(s.reg)
	if s.tracer != nil {
		s.reg.CounterFunc("trace_published_roots_total",
			"Root spans published to the flight recorder.",
			func() float64 { return float64(s.tracer.Published()) })
	}
	s.reg.GaugeFunc("mobiserve_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.CounterFunc("mobiserve_sink_write_failures_total",
		"Failed sink writes (file batches or store appends/flushes).",
		func() float64 { return float64(s.sinkFails.Load()) })
	s.reg.CounterFunc("mobiserve_dropped_subscriber_points_total",
		"Points dropped because an /out subscriber was too slow.",
		func() float64 { return float64(s.dropped.Load()) })
	// Store-sink write totals: zero until a .mstore sink is attached.
	sinkStat := func(pick func(store.WriterStats) int64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			sw := s.sinkStore
			s.mu.Unlock()
			if sw == nil {
				return 0
			}
			return float64(pick(sw.Stats()))
		}
	}
	s.reg.CounterFunc("mobiserve_sink_store_blocks_total",
		"Blocks written by the .mstore sink.",
		sinkStat(func(st store.WriterStats) int64 { return st.Blocks }))
	s.reg.CounterFunc("mobiserve_sink_store_bytes_total",
		"Encoded bytes written by the .mstore sink.",
		sinkStat(func(st store.WriterStats) int64 { return st.Bytes }))
	s.reg.CounterFunc("mobiserve_sink_store_points_total",
		"Points written by the .mstore sink.",
		sinkStat(func(st store.WriterStats) int64 { return st.Points }))
	// Recovery view: what OpenAppend found (and cleaned up) when the
	// sink was attached. Zero until a .mstore sink is attached.
	recStat := func(pick func(store.RecoveryStats) int64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			sw := s.sinkStore
			s.mu.Unlock()
			if sw == nil {
				return 0
			}
			return float64(pick(sw.Recovery()))
		}
	}
	s.reg.CounterFunc("store_recovery_runs",
		"Recovery passes run when the .mstore sink was opened.",
		recStat(func(r store.RecoveryStats) int64 { return r.Runs }))
	s.reg.CounterFunc("store_truncated_tails",
		"Uncommitted segment files removed and torn tails truncated by sink recovery.",
		recStat(func(r store.RecoveryStats) int64 { return r.TruncatedTails }))
	s.reg.GaugeFunc("store_generations",
		"Committed generations the .mstore sink extends (this session's data becomes one more at shutdown).",
		recStat(func(r store.RecoveryStats) int64 { return r.Generation }))
}

// attachStoreSink opens path as the server's .mstore sink. By default
// the store is opened for append — an existing store left by a
// previous run (even one that crashed) is recovered and extended with
// a new generation. With fresh set, the path must not already hold a
// store: Create refuses it, surfacing accidental reuse instead of
// silently growing the wrong dataset.
func (s *server) attachStoreSink(path string, fresh bool) error {
	if fresh {
		sw, err := store.Create(path, store.Options{})
		if err != nil {
			return fmt.Errorf("create store sink: %w", err)
		}
		s.sinkStore = sw
		return nil
	}
	sw, err := store.OpenAppend(path, store.Options{})
	if err != nil {
		return fmt.Errorf("open store sink: %w", err)
	}
	if rec := sw.Recovery(); rec.Generation > 0 || rec.TruncatedTails > 0 {
		log.Printf("mobiserve: store sink %s: extending %d committed generation(s), recovery cleaned %d uncommitted file(s)",
			path, rec.Generation, rec.TruncatedTails)
	}
	s.sinkStore = sw
	return nil
}

// sink receives anonymized batches from the shard goroutines. The
// engine reuses the batch after the call, so subscribers get a copy.
func (s *server) sink(batch []stream.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sinkStore != nil {
		for _, u := range batch {
			if err := s.sinkStore.Append(u.User, u.Point); err != nil {
				if s.sinkFails.Add(1) == 1 {
					log.Printf("mobiserve: store sink append failed (counting further failures in /stats): %v", err)
				}
			}
		}
	}
	if s.sinkFile != nil {
		var buf bytes.Buffer
		for _, u := range batch {
			traceio.WriteJSONLRecord(&buf, u.User, u.Point)
		}
		if _, err := s.sinkFile.Write(buf.Bytes()); err != nil {
			// Count every failed batch, log only the first: a full disk
			// must surface in /stats without flooding the log.
			if s.sinkFails.Add(1) == 1 {
				log.Printf("mobiserve: sink write failed (counting further failures in /stats): %v", err)
			}
		}
	}
	if len(s.subs) == 0 {
		return
	}
	cp := make([]stream.Update, len(batch))
	copy(cp, batch)
	for _, ch := range s.subs {
		select {
		case ch <- cp:
		default:
			s.dropped.Add(uint64(len(cp))) // slow reader: drop, never stall shards
		}
	}
}

func (s *server) subscribe() (int, <-chan []stream.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSub
	s.nextSub++
	ch := make(chan []stream.Update, 256)
	s.subs[id] = ch
	return id, ch
}

func (s *server) unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.instrument("/ingest", s.handleIngest))
	mux.HandleFunc("POST /flush", s.instrument("/flush", s.handleFlush))
	mux.HandleFunc("GET /out", s.handleOut) // long-lived stream: latency is meaningless
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /risk", s.instrument("/risk", s.handleRisk))
	mux.HandleFunc("POST /risk/reset", s.instrument("/risk/reset", s.handleRiskReset))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	// Deliberately uninstrumented: reading the flight recorder should
	// not itself mint spans that displace the traces being read.
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instrument wraps a handler with a per-route request counter, a
// latency histogram, and — when the request's trace is sampled — a root
// span covering the whole request. An incoming W3C traceparent header
// keys the sampling decision and parents the span; the span's own
// identity is echoed back in the response traceparent so the client can
// join its measurements to the server's flight recorder.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("mobiserve_http_requests_total",
		"HTTP requests served, by route.", obs.L("route", route))
	lat := s.reg.Histogram("mobiserve_http_request_seconds",
		"HTTP request latency, by route.", obs.L("route", route))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var sp *otrace.Span
		if s.tracer != nil {
			id, parent, _, _ := otrace.ParseTraceparent(r.Header.Get("traceparent"))
			if sp = s.tracer.RootAt(route, id, parent, start); sp != nil {
				w.Header().Set("traceparent",
					otrace.FormatTraceparent(sp.TraceID(), sp.SpanID(), true))
				r = r.WithContext(otrace.NewContext(r.Context(), sp))
			}
		}
		h(w, r)
		reqs.Inc()
		lat.ObserveDuration(time.Since(start))
		sp.End()
	}
}

// handleTraces serves the flight recorder: recent root spans, the
// slowest exemplar per latency bucket, and per-span-kind summaries.
// JSON by default; ?format=text renders the human zpage.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	snap := s.tracer.Snapshot(32)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w)
}

// handleMetrics serves the Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleIngest decodes the request body record-at-a-time (never holding
// more than one batch in memory) and pushes batches into the engine,
// blocking on shard backpressure.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	sp := otrace.FromContext(ctx)
	accepted := 0
	updates := make([]stream.Update, 0, s.batch)
	push := func() error {
		if len(updates) == 0 {
			return nil
		}
		if err := s.eng.PushTraced(ctx, sp, updates...); err != nil {
			return err
		}
		accepted += len(updates)
		updates = updates[:0]
		return nil
	}
	record := func(user string, p trace.Point) error {
		updates = append(updates, stream.Update{User: user, Point: p})
		if len(updates) >= s.batch {
			return push()
		}
		return nil
	}
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		err = traceio.DecodeCSV(r.Body, record)
	} else {
		err = traceio.DecodeJSONL(r.Body, record)
	}
	if err == nil {
		err = push()
	}
	if err != nil {
		httpError(w, err)
		return
	}
	if sp != nil {
		sp.SetAttr(otrace.Int("accepted", int64(accepted)))
	}
	writeJSON(w, map[string]any{"accepted": accepted})
}

func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	sp := otrace.FromContext(r.Context())
	c := sp.Child("engine.flush")
	err := s.eng.Flush(r.Context())
	c.End()
	if err != nil {
		httpError(w, err)
		return
	}
	c = sp.Child("sink.flush")
	s.flushStoreSink()
	c.End()
	writeJSON(w, map[string]any{"flushed": true})
}

// flushStoreSink drains the store writer's per-user buffers to disk so
// a long-running service's sink memory stays bounded; called after an
// engine flush and periodically from run. The resulting fragmentation
// is mobistore compact's job.
func (s *server) flushStoreSink() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sinkStore == nil {
		return
	}
	if err := s.sinkStore.Flush(); err != nil {
		if s.sinkFails.Add(1) == 1 {
			log.Printf("mobiserve: store sink flush failed (counting further failures in /stats): %v", err)
		}
	}
}

// flushStoreSinkTraced is the periodic-flush variant: it runs the
// flush under its own sampled root span recording how many blocks and
// bytes the flush pushed out, so background sink work shows up in
// /debug/traces alongside request traces.
func (s *server) flushStoreSinkTraced() {
	sp := s.tracer.Root("sink.flush_periodic", otrace.TraceID{}, 0)
	if sp == nil {
		s.flushStoreSink()
		return
	}
	before := s.sinkStoreStats()
	s.flushStoreSink()
	after := s.sinkStoreStats()
	sp.SetAttr(
		otrace.Int("blocks", after.Blocks-before.Blocks),
		otrace.Int("bytes", after.Bytes-before.Bytes))
	sp.End()
}

// sinkStoreStats snapshots the store sink's writer counters (zero
// when no store sink is attached).
func (s *server) sinkStoreStats() store.WriterStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sinkStore == nil {
		return store.WriterStats{}
	}
	return s.sinkStore.Stats()
}

// handleOut streams anonymized output as NDJSON from the moment of
// connection until the client goes away.
func (s *server) handleOut(w http.ResponseWriter, r *http.Request) {
	fl, _ := w.(http.Flusher)
	id, ch := s.subscribe()
	defer s.unsubscribe(id)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case batch := <-ch:
			var buf bytes.Buffer
			for _, u := range batch {
				traceio.WriteJSONLRecord(&buf, u.User, u.Point)
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// riskTap wraps a user's whole mechanism chain and mirrors its
// published output into the risk monitor. Flush forwards the trailing
// points first, then closes the monitor's open stay — evidence
// (clusters, day counts) survives engine flushes and evictions by
// design: recurrence across days is exactly what the monitor is for.
type riskTap struct {
	inner stream.Mechanism
	mon   *risk.Monitor
	user  string
}

func (t riskTap) Push(p trace.Point) []trace.Point {
	out := t.inner.Push(p)
	t.mon.Observe(t.user, out...)
	return out
}

func (t riskTap) Flush() []trace.Point {
	out := t.inner.Flush()
	t.mon.Observe(t.user, out...)
	t.mon.EndTrace(t.user)
	return out
}

// OutUser forwards the inner chain's relabeling so the tap stays
// invisible to the engine.
func (t riskTap) OutUser(in string) string {
	if r, ok := t.inner.(stream.Relabeler); ok {
		return r.OutUser(in)
	}
	return in
}

// riskResponse is the /risk wire format.
type riskResponse struct {
	MinDays int             `json:"min_days"`
	Users   int             `json:"users"`
	Flagged int             `json:"flagged"`
	Risks   []risk.UserRisk `json:"risks"`
}

func (s *server) handleRisk(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		http.Error(w, "risk monitoring disabled (-risk-min-days 0)", http.StatusNotFound)
		return
	}
	if user := r.URL.Query().Get("user"); user != "" {
		ur, ok := s.mon.User(user)
		if !ok {
			http.Error(w, "user not observed", http.StatusNotFound)
			return
		}
		writeJSON(w, ur)
		return
	}
	risks := s.mon.Snapshot()
	resp := riskResponse{MinDays: s.mon.Config().MinDays, Users: len(risks), Risks: risks}
	for _, ur := range risks {
		if ur.Flagged {
			resp.Flagged++
		}
	}
	writeJSON(w, resp)
}

func (s *server) handleRiskReset(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		http.Error(w, "risk monitoring disabled (-risk-min-days 0)", http.StatusNotFound)
		return
	}
	if user := r.URL.Query().Get("user"); user != "" {
		writeJSON(w, map[string]any{"reset": s.mon.Reset(user)})
		return
	}
	s.mon.ResetAll()
	writeJSON(w, map[string]any{"reset": true})
}

// statsResponse is the /stats wire format.
type statsResponse struct {
	Mechanism   string  `json:"mechanism"`
	UptimeS     float64 `json:"uptime_s"`
	In          uint64  `json:"points_in"`
	Out         uint64  `json:"points_out"`
	PointsPerS  float64 `json:"points_per_s"`
	Evicted     uint64  `json:"evicted_users"`
	Stalls      uint64  `json:"push_stalls"`
	ActiveUsers int     `json:"active_users"`
	DroppedSub  uint64  `json:"dropped_subscriber_points"`
	SinkFails   uint64  `json:"sink_write_failures"`
	// Store-sink view: points this session wrote, plus what recovery
	// found at open. Zero without a .mstore sink.
	SinkPoints  uint64              `json:"sink_store_points"`
	SinkGens    uint64              `json:"sink_store_generations"`
	SinkRecov   uint64              `json:"sink_recovery_runs"`
	RiskUsers   int                 `json:"risk_users"`
	RiskFlagged int                 `json:"risk_flagged"`
	Goroutines  int                 `json:"goroutines"`
	HeapInuse   uint64              `json:"heap_inuse_bytes"`
	GCRuns      uint64              `json:"gc_runs"`
	Shards      []stream.ShardStats `json:"shards"`
	// Latency is the quantile summary of every histogram series the
	// registry holds (HTTP routes, engine queue-wait/process/sink) —
	// the same numbers /metrics exposes as bucket counts.
	Latency []obs.HistogramSnapshot `json:"latency"`
}

// handleStats renders the JSON stats view. Every scalar is read back
// from the metrics registry — the same series /metrics scrapes — so
// the two endpoints cannot drift apart. Only the per-shard breakdown
// and the mechanism name come from outside the registry.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	regVal := func(name string) float64 {
		v, _ := s.reg.Value(name)
		return v
	}
	up := regVal("mobiserve_uptime_seconds")
	resp := statsResponse{
		Mechanism:   s.mechName,
		UptimeS:     up,
		In:          uint64(regVal("stream_points_in_total")),
		Out:         uint64(regVal("stream_points_out_total")),
		Evicted:     uint64(regVal("stream_evicted_users_total")),
		Stalls:      uint64(regVal("stream_push_stalls_total")),
		ActiveUsers: int(regVal("stream_active_users")),
		DroppedSub:  uint64(regVal("mobiserve_dropped_subscriber_points_total")),
		SinkFails:   uint64(regVal("mobiserve_sink_write_failures_total")),
		SinkPoints:  uint64(regVal("mobiserve_sink_store_points_total")),
		SinkGens:    uint64(regVal("store_generations")),
		SinkRecov:   uint64(regVal("store_recovery_runs")),
		RiskUsers:   int(regVal("risk_users")),
		RiskFlagged: int(regVal("risk_flagged_users")),
		Goroutines:  int(regVal("process_goroutines")),
		HeapInuse:   uint64(regVal("process_heap_inuse_bytes")),
		GCRuns:      uint64(regVal("process_gc_runs_total")),
		Shards:      s.eng.Stats().Shards,
		Latency:     s.reg.HistogramSnapshots(),
	}
	if up > 0 {
		resp.PointsPerS = float64(resp.In) / up
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, stream.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusRequestTimeout
	}
	http.Error(w, err.Error(), code)
}
