package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mobipriv"
	"mobipriv/internal/obs"
	"mobipriv/internal/rng"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

const (
	// ingestSpec is the mechanism mobiserve runs on ingest-live.
	ingestSpec = "promesse(epsilon=100)"
	// reqPoints is the points per ingest request (mobiserve's -batch
	// default, so one request is one engine batch).
	reqPoints = 256
	// latencyLimit is the p99 a ladder rung must meet to count.
	latencyLimit = 10.0 // ms
)

// ladder is the open-loop offered rates, in points/s. Each rung sends
// shape.windowReqs requests and is followed by a closed-loop window of
// shape.closedReqs requests; points_per_s is the median of the
// closed-loop windows' throughputs. Spreading those windows over the
// run keeps one slow spell (a GC cycle, a neighbour on the host) to
// one window.
var ladder = []float64{100e3, 200e3, 300e3, 400e3, 500e3, 600e3}

// runReqs is the number of requests a run sends after warm-up.
func (sh shape) runReqs() int { return len(ladder) * (sh.windowReqs + sh.closedReqs) }

func rungName(rate float64) string { return fmt.Sprintf("r%dk", int(rate/1e3)) }

// request is one pre-encoded NDJSON ingest body. conn is the
// connection that sends it: users are pinned to connections with
// rng.Shard, so each user's points go out in order on one connection.
type request struct {
	conn int
	body []byte
}

// traffic is the whole pre-encoded request stream, in global send
// order. Every phase of a run is a consecutive slice of it, taken in
// turn with take.
type traffic struct {
	reqs  []request
	conns int
	next  int // requests taken so far
}

func (t *traffic) take(n int) []request {
	s := t.reqs[t.next : t.next+n]
	t.next += n
	return s
}

// sent is the requests taken so far.
func (t *traffic) sent() []request { return t.reqs[:t.next] }

// makeTraffic generates the seeded commuter population, sorts all
// points into one time-ordered stream, and encodes it into requests.
func (b *bench) makeTraffic(need int) (*traffic, error) {
	users := b.shape.ingestUsers
	const perUserDay = 24 * 60 // 60 s sampling
	cfg := synth.DefaultCommuterConfig()
	cfg.Seed, cfg.Users = b.seed, users
	// Two spare days cover the partial request each connection leaves
	// behind and any points the generator trims.
	cfg.Days = need*reqPoints/(users*perUserDay) + 2
	g, err := synth.Commuters(cfg)
	if err != nil {
		return nil, err
	}
	t := &traffic{conns: b.nproc, reqs: make([]request, 0, need)}
	connOf := make(map[string]int, users)
	for _, u := range g.Dataset.Users() {
		connOf[u] = rng.Shard(u, t.conns)
	}
	bufs := make([][]byte, t.conns)
	counts := make([]int, t.conns)
	mergeByTime(g.Dataset.Traces(), func(tr *trace.Trace, p trace.Point) bool {
		c := connOf[tr.User]
		bufs[c] = appendRecord(bufs[c], tr.User, p)
		if counts[c]++; counts[c] < reqPoints {
			return true
		}
		t.reqs = append(t.reqs, request{conn: c, body: bytes.Clone(bufs[c])})
		bufs[c], counts[c] = bufs[c][:0], 0
		return len(t.reqs) < need
	})
	if len(t.reqs) < need {
		return nil, fmt.Errorf("traffic: generated %d requests, need %d", len(t.reqs), need)
	}
	return t, nil
}

// mergeByTime visits every point of the traces in one time-ordered
// stream (ties in trace order) until fn returns false. Each trace is
// already time-sorted, so a k-way merge avoids copying the dataset.
func mergeByTime(traces []*trace.Trace, fn func(*trace.Trace, trace.Point) bool) {
	h := &cursorHeap{}
	for i, tr := range traces {
		if tr.Len() > 0 {
			h.items = append(h.items, cursor{tr: i, t: tr.Points[0].Time.UnixNano()})
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		c := &h.items[0]
		tr := traces[c.tr]
		if !fn(tr, tr.Points[c.i]) {
			return
		}
		if c.i++; c.i == tr.Len() {
			heap.Pop(h)
		} else {
			c.t = tr.Points[c.i].Time.UnixNano()
			heap.Fix(h, 0)
		}
	}
}

// cursor is the next point of trace tr: its index and time.
type cursor struct {
	tr, i int
	t     int64 // Unix ns
}

type cursorHeap struct{ items []cursor }

func (h *cursorHeap) Len() int { return len(h.items) }
func (h *cursorHeap) Less(a, b int) bool {
	x, y := h.items[a], h.items[b]
	if x.t != y.t {
		return x.t < y.t
	}
	return x.tr < y.tr
}
func (h *cursorHeap) Swap(a, b int) { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *cursorHeap) Push(x any)    { h.items = append(h.items, x.(cursor)) }
func (h *cursorHeap) Pop() any {
	x := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return x
}

// appendRecord encodes one observation as a JSONL line. Coordinates
// carry seven decimals (about 1 cm, the .mstore's own resolution), as
// GPS feeds do.
func appendRecord(b []byte, user string, p trace.Point) []byte {
	b = append(b, `{"user":`...)
	b = strconv.AppendQuote(b, user)
	b = append(b, `,"t":"`...)
	b = p.Time.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","lat":`...)
	b = appendDeg(b, p.Lat)
	b = append(b, `,"lng":`...)
	b = appendDeg(b, p.Lng)
	return append(b, "}\n"...)
}

// appendDeg writes v with exactly seven decimals. It rounds in integer
// 1e-7 units because strconv's fixed-precision path for this format
// is several times slower and dominated the set-up.
func appendDeg(b []byte, v float64) []byte {
	n := int64(math.Round(v * 1e7))
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	b = strconv.AppendInt(b, n/1e7, 10)
	var frac [8]byte
	frac[0] = '.'
	for i, f := 7, n%1e7; i > 0; i, f = i-1, f/10 {
		frac[i] = byte('0' + f%10)
	}
	return append(b, frac[:]...)
}

// server is a mobiserve child process with a .mstore sink.
type server struct {
	cmd  *exec.Cmd
	url  string
	sink string
	done chan error
	once sync.Once
	err  error
}

// startServer launches mobiserve on a free local port and waits until
// /healthz answers.
func (b *bench) startServer(tag string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	sink := filepath.Join(b.workdir, tag+".mstore")
	if err := os.RemoveAll(sink); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(b.workdir, tag+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(b.mobiserve, "-addr", addr, "-mechanism", ingestSpec,
		"-sink", sink, "-trace-sample", "0")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", b.nproc))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mobiserve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, sink: sink, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.After(30 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			log, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("mobiserve exited before it was healthy: %v\n%s", err, log)
		case <-deadline:
			s.stop()
			return nil, errors.New("mobiserve not healthy after 30s")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM (mobiserve then flushes and closes its sink) and
// waits for the process to end, killing it after 60 s. It returns the
// exit error; repeated calls return the first call's result.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited child reports through done
		select {
		case s.err = <-s.done:
		case <-time.After(60 * time.Second):
			_ = s.cmd.Process.Kill() // done reports the kill
			s.err = fmt.Errorf("mobiserve ignored SIGTERM: %v", <-s.done)
		}
	})
	return s.err
}

// loader sends requests over at most conns keep-alive connections.
type loader struct {
	url      string
	conns    int
	client   *http.Client
	accepted atomic.Int64
	errOnce  sync.Once
	firstErr error
}

func newLoader(url string, conns int) *loader {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &loader{url: url, conns: conns, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// account records a phase's requests as attempted operations.
func (r *result) account(out phaseOut) {
	r.Attempted += int64(len(out.lat))
	r.Failed += out.failed
}

// phaseOut is what one phase measured: per-request latency from the
// due time and generator lateness, in ms (a failed request has
// infinite latency), plus the phase's wall time.
type phaseOut struct {
	lat, lag []float64
	failed   int64
	wall     float64 // seconds
}

// run sends reqs. With rate > 0 the phase is open loop: request j of
// the phase is due at start + j*reqPoints/rate whatever happened
// before it, its connection sends it then (or as soon as its previous
// request completes), and latency is timed from that due time, so a
// stall also delays (and is charged to) every request queued behind
// it. With rate 0 each connection sends its next request as soon as
// the previous one completes (closed loop).
func (l *loader) run(reqs []request, rate float64) phaseOut {
	out := phaseOut{lat: make([]float64, len(reqs)), lag: make([]float64, len(reqs))}
	byConn := make([][]int, l.conns)
	for j, r := range reqs {
		byConn[r.conn] = append(byConn[r.conn], j)
	}
	start := time.Now()
	if rate > 0 {
		start = start.Add(5 * time.Millisecond) // let every sender reach its first due time
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Int64
	)
	for _, js := range byConn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range js {
				due := start
				if rate > 0 {
					due = start.Add(time.Duration(float64(j*reqPoints) / rate * 1e9))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				t0 := time.Now()
				if rate == 0 {
					due = t0
				}
				err := l.send(reqs[j].body)
				t1 := time.Now()
				out.lag[j] = ms(t0.Sub(due))
				out.lat[j] = ms(t1.Sub(due))
				if err != nil {
					failed.Add(1)
					out.lat[j] = math.Inf(1)
					l.errOnce.Do(func() { l.firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	out.failed = failed.Load()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// send POSTs one body and checks that every point was accepted.
func (l *loader) send(body []byte) error {
	resp, err := l.client.Post(l.url+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	n, err := parseAccepted(reply)
	if err != nil {
		return err
	}
	l.accepted.Add(int64(n))
	if n != reqPoints {
		return fmt.Errorf("ingest: accepted %d of %d points", n, reqPoints)
	}
	return nil
}

// parseAccepted reads N from mobiserve's {"accepted":N} reply without
// reflection, keeping client CPU off the measured path.
func parseAccepted(reply []byte) (int, error) {
	_, rest, ok := bytes.Cut(reply, []byte(`"accepted":`))
	if !ok {
		return 0, fmt.Errorf("ingest: unexpected reply %q", reply)
	}
	end := bytes.IndexByte(rest, '}')
	if end < 0 {
		return 0, fmt.Errorf("ingest: unexpected reply %q", reply)
	}
	return strconv.Atoi(string(bytes.TrimSpace(rest[:end])))
}

// serverStats is the slice of mobiserve's /stats the benchmark reads.
type serverStats struct {
	In      uint64                  `json:"points_in"`
	Out     uint64                  `json:"points_out"`
	Stalls  uint64                  `json:"push_stalls"`
	Latency []obs.HistogramSnapshot `json:"latency"`
}

func (l *loader) stats() (*serverStats, error) {
	resp, err := l.client.Get(l.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

func (l *loader) flush() error {
	resp, err := l.client.Post(l.url+"/flush", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flush: HTTP %d", resp.StatusCode)
	}
	return nil
}

// histDelta returns the observations a histogram series gained between
// two /stats snapshots, diffed bin by bin: the bins are exact integer
// counts, so the delta holds exactly this phase's observations and no
// warm-up or earlier phase mixes into its quantiles.
func histDelta(before, after *serverStats, name, labelSub string) *obs.Histogram {
	find := func(st *serverStats) obs.HistogramSnapshot {
		for _, h := range st.Latency {
			if h.Name == name && strings.Contains(h.Labels, labelSub) {
				return h
			}
		}
		return obs.HistogramSnapshot{}
	}
	a, z := find(before), find(after)
	prev := make(map[int]uint64, len(a.Bins))
	for _, bin := range a.Bins {
		prev[bin.Bin] = bin.Count
	}
	d := obs.HistogramSnapshot{Count: z.Count - a.Count, SumNs: z.SumNs - a.SumNs}
	for _, bin := range z.Bins {
		if n := bin.Count - prev[bin.Bin]; n > 0 {
			d.Bins = append(d.Bins, obs.HistogramBin{Bin: bin.Bin, Count: n})
		}
	}
	h := obs.NewHistogram()
	h.MergeSnapshot(d)
	return h
}

// rungResult is one ladder rung's verdict.
type rungResult struct {
	p50, p99, lagP99 float64
	lagGrowing, ok   bool
}

// judgeRung applies the latency limit. The rung counts when its p99 is
// within latencyLimit and the generator's lateness did not grow over
// the rung: lateness grows when the offered rate outruns the server,
// and the last quarter's mean lag then exceeds the first quarter's by
// more than 1 ms.
func judgeRung(out phaseOut) rungResult {
	n := len(out.lag)
	q := max(n/4, 1)
	r := rungResult{
		p50:        quantile(append([]float64(nil), out.lat...), 0.50),
		p99:        quantile(append([]float64(nil), out.lat...), 0.99),
		lagP99:     quantile(append([]float64(nil), out.lag...), 0.99),
		lagGrowing: mean(out.lag[n-q:]) > mean(out.lag[:q])+1,
	}
	r.ok = r.p99 <= latencyLimit && !r.lagGrowing
	return r
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ladderOut is what one pass over the ladder measured.
type ladderOut struct {
	rungs   []rungResult      // in ladder order
	maxRate float64           // highest rung that counts, 0 if none
	pps     []float64         // closed-loop window throughputs, points/s
	stats   [][2]*serverStats // /stats before and after each rung, when asked for
}

// runLadder sends the ladder, each rung followed by a closed-loop
// window, and records every request in res. With snapshots set it
// reads the server's /stats around each rung.
func (b *bench) runLadder(res *result, l *loader, tr *traffic, snapshots bool) (ladderOut, error) {
	sh := b.shape
	var lo ladderOut
	for _, rate := range ladder {
		var snap [2]*serverStats
		var err error
		if snapshots {
			if snap[0], err = l.stats(); err != nil {
				return lo, err
			}
		}
		out := l.run(tr.take(sh.windowReqs), rate)
		if snapshots {
			if snap[1], err = l.stats(); err != nil {
				return lo, err
			}
			lo.stats = append(lo.stats, snap)
		}
		res.account(out)
		r := judgeRung(out)
		lo.rungs = append(lo.rungs, r)
		if r.ok {
			lo.maxRate = rate
		}
		closed := l.run(tr.take(sh.closedReqs), 0)
		res.account(closed)
		lo.pps = append(lo.pps, float64(sh.closedReqs*reqPoints)/closed.wall)
		fmt.Fprintf(b.log, "perfbench: rung %s: p50 %.3f ms p99 %.3f ms lag p99 %.3f ms growing=%v ok=%v; closed loop %.0f points/s\n",
			rungName(rate), r.p50, r.p99, r.lagP99, r.lagGrowing, r.ok, lo.pps[len(lo.pps)-1])
	}
	return lo, nil
}

// noteLadder records the ladder's latency view: the 100k and 200k
// rungs' p50/p99 and the highest rung that meets the limit.
func noteLadder(set func(string, float64, string), lo ladderOut) {
	for i, rate := range ladder {
		if rate <= 200e3 {
			set(rungName(rate)+".p50_ms", lo.rungs[i].p50, "ms")
			set(rungName(rate)+".p99_ms", lo.rungs[i].p99, "ms")
		}
	}
	set("max_rate_pps", lo.maxRate, "1/s")
}

// ingestEnv is ingest-live's set-up: the encoded traffic and a healthy
// server.
type ingestEnv struct {
	tr  *traffic
	srv *server
}

func (b *bench) ingestSetup(need int) func() (ingestEnv, error) {
	return func() (ingestEnv, error) {
		tr, err := b.makeTraffic(need)
		if err != nil {
			return ingestEnv{}, err
		}
		srv, err := b.startServer("serve")
		return ingestEnv{tr: tr, srv: srv}, err
	}
}

// ingestLive is the ingest-live workload: warm-up, then the open-loop
// rate ladder with a closed-loop unpaced window after each rung, all
// against one mobiserve child; then the end-of-stream checks.
func (b *bench) ingestLive() (*result, error) {
	sh := b.shape
	need := sh.warmReqs + sh.runReqs()
	env, setupS, err := timeSetup(b.ingestSetup(need), func(e ingestEnv) { e.srv.stop() })
	if err != nil {
		return nil, err
	}
	defer env.srv.stop()
	l := newLoader(env.srv.url, env.tr.conns)
	defer l.close()
	res := &result{Correct: true}
	res.set("setup_s", setupS, "s")

	res.account(l.run(env.tr.take(sh.warmReqs), 0))
	resetPeakRSS(env.srv.pid())
	lo, err := b.runLadder(res, l, env.tr, false)
	if err != nil {
		return nil, err
	}
	res.set("points_per_s", median(lo.pps), "1/s")
	noteLadder(res.note, lo)
	peak, err := peakRSSMB(env.srv.pid())
	if err != nil {
		return nil, err
	}
	res.set("peak_mem_mb", peak, "MB")
	if l.firstErr != nil {
		fmt.Fprintln(b.log, "perfbench: first failed request:", l.firstErr)
	}

	b.finishServer(res, l, env)
	res.check(b.log, "sink store == in-process reference", b.checkIngestSink(env.srv.sink, env.tr.sent()))
	setOKRatio(res)
	return res, nil
}

// finishServer ends a server run: /flush, the final /stats with its
// point-count check, and SIGTERM with a clean exit. It returns the
// final stats (nil if they could not be read).
func (b *bench) finishServer(res *result, l *loader, env ingestEnv) *serverStats {
	res.check(b.log, "flush", l.flush())
	final, err := l.stats()
	res.check(b.log, "final /stats", err)
	sent := int64(len(env.tr.sent()) * reqPoints)
	res.check(b.log, "accepted points == sent points == server points_in", countsMatch(l.accepted.Load(), sent, final))
	res.check(b.log, "mobiserve exits cleanly on SIGTERM", env.srv.stop())
	return final
}

func countsMatch(accepted, sent int64, st *serverStats) error {
	if st == nil {
		return errors.New("no server stats")
	}
	if accepted != sent || uint64(sent) != st.In {
		return fmt.Errorf("accepted %d, sent %d, server points_in %d", accepted, sent, st.In)
	}
	return nil
}

// ingestReference replays the sent requests through the same streaming
// factory in process, each user pushed in order then flushed.
func ingestReference(reqs []request) (*trace.Dataset, error) {
	m, err := mobipriv.FromSpec(ingestSpec)
	if err != nil {
		return nil, err
	}
	factory, _ := mobipriv.AsStreaming(m)
	mechs := make(map[string]mobipriv.StreamMechanism)
	outs := make(map[string][]trace.Point)
	for _, r := range reqs {
		err := traceio.DecodeJSONL(bytes.NewReader(r.body), func(user string, p trace.Point) error {
			mm := mechs[user]
			if mm == nil {
				mm = factory(user)
				mechs[user] = mm
			}
			outs[user] = append(outs[user], mm.Push(p)...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var traces []*trace.Trace
	for user, mm := range mechs {
		pts := append(outs[user], mm.Flush()...)
		if len(pts) == 0 {
			continue
		}
		tr, err := trace.New(user, pts)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", user, err)
		}
		traces = append(traces, tr)
	}
	return trace.NewDataset(traces)
}

// checkIngestSink compares the server's sink store with the reference,
// written through store.WriteDataset so quantization matches.
func (b *bench) checkIngestSink(sink string, reqs []request) error {
	ref, err := ingestReference(reqs)
	if err != nil {
		return err
	}
	refPath := filepath.Join(b.workdir, "ingest-ref.mstore")
	if err := store.WriteDataset(refPath, ref, store.Options{Overwrite: true}); err != nil {
		return err
	}
	want, err := loadStore(refPath)
	if err != nil {
		return err
	}
	got, err := loadStore(sink)
	if err != nil {
		return err
	}
	return sameDataset(got, want)
}

func loadStore(path string) (*trace.Dataset, error) {
	s, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Load(context.Background())
}

// sameDataset reports the first difference between two datasets.
func sameDataset(got, want *trace.Dataset) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d users, want %d", got.Len(), want.Len())
	}
	for _, wt := range want.Traces() {
		gt := got.ByUser(wt.User)
		if gt == nil {
			return fmt.Errorf("user %s missing", wt.User)
		}
		if gt.Len() != wt.Len() {
			return fmt.Errorf("user %s: %d points, want %d", wt.User, gt.Len(), wt.Len())
		}
		for i, wp := range wt.Points {
			gp := gt.Points[i]
			if !gp.Time.Equal(wp.Time) || gp.Lat != wp.Lat || gp.Lng != wp.Lng {
				return fmt.Errorf("user %s point %d: %v, want %v", wt.User, i, gp, wp)
			}
		}
	}
	return nil
}
