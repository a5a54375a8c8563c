package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"time"

	"mobipriv"
	"mobipriv/internal/par"
	"mobipriv/internal/synth"
	"mobipriv/internal/traceio"
)

// commuterDay generates users seeded commuters over one day.
func (b *bench) commuterDay(users int) (*synth.Generated, error) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Seed, cfg.Users, cfg.Days = b.seed, users, 1
	return synth.Commuters(cfg)
}

// batchInput is batch-pipeline's set-up: the dataset as CSV bytes.
type batchInput struct {
	csv    []byte
	points int
}

func (b *bench) batchSetup() (batchInput, error) {
	g, err := b.commuterDay(b.shape.batchUsers)
	if err != nil {
		return batchInput{}, err
	}
	var buf bytes.Buffer
	if err := traceio.WriteCSV(&buf, g.Dataset); err != nil {
		return batchInput{}, err
	}
	return batchInput{csv: buf.Bytes(), points: g.Dataset.TotalPoints()}, nil
}

// batchJob is one end-to-end batch job at nproc workers: CSV in,
// the paper's full pipeline, CSV out. It returns the output digest.
func (b *bench) batchJob(in batchInput) ([32]byte, error) {
	d, err := traceio.ReadCSV(bytes.NewReader(in.csv))
	if err != nil {
		return [32]byte{}, err
	}
	m, err := mobipriv.FromSpec("pipeline")
	if err != nil {
		return [32]byte{}, err
	}
	res, err := mobipriv.NewRunner(mobipriv.WithWorkers(b.nproc)).Run(context.Background(), m, d)
	if err != nil {
		return [32]byte{}, err
	}
	var out bytes.Buffer
	if err := traceio.WriteCSV(&out, res.Dataset); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(out.Bytes()), nil
}

// checkedBatchJob runs one job and compares its output digest with
// want, the one-worker hand-composed stages' digest.
func (b *bench) checkedBatchJob(in batchInput, want [32]byte) error {
	got, err := b.batchJob(in)
	if err == nil && got != want {
		err = fmt.Errorf("digest %x, want %x", got[:8], want[:8])
	}
	return err
}

// batchCounts are the pipeline's exact outcome counts.
type batchCounts struct{ zones, swaps, suppressed int }

// batchComposition hand-composes the pipeline's stages at one worker,
// as the registry's "pipeline" spec does, timing each public call:
// ReadCSV, MixZoneSwap.Run, SpeedSmooth.Run, Pseudonymize.Run and
// WriteCSV. With t nil it is the untraced twin.
func batchComposition(t *tracer, in batchInput) ([32]byte, batchCounts, error) {
	ctx := par.WithWorkers(context.Background(), 1)
	root := t.begin("batch-pipeline", 0)
	defer t.end(root)
	id := t.begin("traceio.read_csv", root)
	d, err := traceio.ReadCSV(bytes.NewReader(in.csv))
	t.end(id)
	if err != nil {
		return [32]byte{}, batchCounts{}, err
	}
	res := &mobipriv.Result{}
	stages := []struct {
		span  string
		stage mobipriv.Stage
	}{
		{"mixzone", mobipriv.DefaultMixZoneSwap()},
		{"core.smooth", mobipriv.DefaultSpeedSmooth()},
		{"mobipriv.pseudonymize", mobipriv.DefaultPseudonymize()},
	}
	for _, st := range stages {
		id := t.begin(st.span, root)
		d, err = st.stage.Run(ctx, d, res)
		t.end(id)
		if err != nil {
			return [32]byte{}, batchCounts{}, fmt.Errorf("%s: %w", st.stage.StageName(), err)
		}
	}
	var out bytes.Buffer
	id = t.begin("traceio.write_csv", root)
	err = traceio.WriteCSV(&out, d)
	t.end(id)
	counts := batchCounts{res.Zones(), res.Swaps(), res.SuppressedPoints()}
	return sha256.Sum256(out.Bytes()), counts, err
}

// batchPipeline is the batch-pipeline workload: repeated jobs for the
// run's seconds, each checked against the hand-composed one-worker
// digest.
func (b *bench) batchPipeline() (*result, error) {
	in, setupS, err := timeSetup(b.batchSetup, func(batchInput) {})
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	res.set("setup_s", setupS, "s")
	want, _, err := batchComposition(nil, in)
	if err != nil {
		return nil, fmt.Errorf("reference pipeline: %w", err)
	}
	err = b.jobLoop(res, "batch job digest == one-worker hand-composed digest", in.points, func() error {
		return b.checkedBatchJob(in, want)
	})
	if err != nil {
		return nil, err
	}
	setOKRatio(res)
	return res, nil
}

// jobLoop runs job until the run's seconds have elapsed (at least
// shape.minJobs times). Each job is an attempted operation; an error
// fails it. points_per_s is the input points over the median job's
// wall time. Before each job the heap is collected and returned to the
// OS and the peak resident set reset, outside the timed region, so
// each job's peak covers that job alone; peak_mem_mb is the median of
// those peaks.
func (b *bench) jobLoop(res *result, what string, points int, job func() error) error {
	var (
		secs, peaks []float64
		firstErr    error
	)
	start := time.Now()
	for len(secs) < b.shape.minJobs || time.Since(start).Seconds() < b.seconds {
		debug.FreeOSMemory()
		resetPeakRSS(0)
		t0 := time.Now()
		jobErr := job()
		secs = append(secs, time.Since(t0).Seconds())
		peak, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		res.Attempted++
		if jobErr != nil {
			res.Failed++
			res.Correct = false
			if firstErr == nil {
				firstErr = jobErr
			}
		}
	}
	res.set("points_per_s", float64(points)/median(secs), "1/s")
	res.set("peak_mem_mb", median(peaks), "MB")
	if firstErr != nil {
		fmt.Fprintf(b.log, "perfbench: CHECK FAILED: %s: %v\n", what, firstErr)
	} else {
		fmt.Fprintf(b.log, "perfbench: check ok: %s (%d jobs: %.3f s, peaks %.0f MB)\n", what, len(secs), secs, peaks)
	}
	return nil
}
